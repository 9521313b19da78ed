//! Algorithm 2's scheme generation as an incremental local search on
//! the part system.
//!
//! The paper's greedy loop starts from the per-component splits
//! (§III-B: "one part executes locally, and another part executes
//! remotely") and migrates parts while the combined objective `E + T`
//! decreases (Algorithm 2's termination test
//! `E_t + T_t < E_{t-1} + T_{t-1}`). This module generalises that loop
//! just enough to be robust under shared-server contention:
//!
//! - moves go in **both directions** (device → server and back) — a
//!   crowd of users can only reach the contention equilibrium if early
//!   placement mistakes are revertible;
//! - besides single parts, candidates include **whole components**
//!   (escaping the sibling-coupling trap), **whole users** (the big
//!   payoff of a user leaving the server — one less capacity sharer —
//!   only materialises when their last part departs), and component
//!   **orientation swaps** (which half of a split is the local one);
//! - every candidate is priced in `O(1)`–`O(parts of user)` against an
//!   incrementally-maintained objective, and a final guard ensures the
//!   result is never worse than not offloading at all.
//!
//! Two drivers: [`GreedyMode::Exhaustive`] re-prices every candidate
//! each round (the literal reading of Algorithm 2); [`GreedyMode::Lazy`]
//! drains a lazily-updated max-heap and rescans when it runs dry — far
//! fewer evaluations, same kind of local optimum.
//!
//! A [`Ledger`] carries each user's objective terms from one run to the
//! next, with their crowd-wide sums ([`Totals`]) and the set of users
//! with a part on the server, so a warm start never walks the crowd:
//! the local-work sum runs with every churn event and move, the remote
//! work and transmission are folded over the users with a part on the
//! server, and a full slot-order refold follows every cold run and
//! every `crowd`-th warm one.
//!
//! The lazy rescan prices exactly only the users with a part on the
//! server. Under the shared-capacity policies every out-move of an
//! all-local user obeys one crowd-wide linear bound ([`OutBound`]), and
//! each out-move's gain falls with the bound's crowd-wide price `D`. So
//! the users last walked at the same `D` are ruled out together by two
//! maxima (a [`WalkGroup`]), and a rescan walks only the users whose
//! bound is unknown — the churned and the moved. When a group fails,
//! the rescan holds every all-local user to their own remembered bound
//! ([`OutCache`]) and rebuilds the groups. The bound skips only
//! candidates whose gain cannot exceed `EPS`, so the heap — and with it
//! every applied move — is the same as under an exact rescan. FIFO has
//! no such bound: every rescan prices every user.

use crate::parts::{Part, PartSystem, UserRecords};
use mec_graph::Side;
use mec_model::{AllocationPolicy, SystemParams};
use mec_obs::{FieldValue, TraceSink};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which greedy driver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum GreedyMode {
    /// Scan all candidates every iteration and apply the best.
    Exhaustive,
    /// Lazily-updated priority queue with rescan phases (default).
    #[default]
    Lazy,
}

/// Statistics from a greedy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyOutcome {
    /// Part relocations applied (both directions).
    pub moves: usize,
    /// Objective `E + T` of the initial split placement.
    pub initial_objective: f64,
    /// Objective after convergence.
    pub final_objective: f64,
    /// Candidate evaluations performed.
    pub evaluations: usize,
}

pub(crate) const EPS: f64 = 1e-9;

/// How far below `EPS`, relative to `max(1, E + T)`, the out-move bound
/// must place a candidate before the rescan skips it. Rounding in
/// either pricing is ~1e-15 relative, so the margin only ever costs a
/// few needless exact evaluations.
const BOUND_MARGIN: f64 = 1e-9;

/// Heap capacity a ledger keeps between runs; a cold run's first rescan
/// can grow it to the size of the crowd.
const HEAP_KEEP: usize = 1 << 12;

/// What a move relocates. Parts and components are numbered within
/// their user's application, so `(user, index)` orders them as one
/// index over every user's records in slot order would. Indices are
/// `u32` so a heap entry stays three words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    /// One part: `(user, part)`.
    Single(u32, u32),
    /// Both parts of a component: `(user, component)`.
    Pair(u32, u32),
    /// Every part of a user.
    User(u32),
}

/// A user slot, part or component index as a move stores it.
fn ix(i: usize) -> u32 {
    u32::try_from(i).expect("user slots and app indices fit u32")
}

/// A local-search candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Move {
    /// Relocate the target onto the device.
    Home(Target),
    /// Relocate the target onto the server.
    Out(Target),
    /// Swap which half of a split component, `(user, component)`, is
    /// the local one.
    Swap(u32, u32),
}

/// The parts of one user a relocation moves, named without
/// materialising them.
#[derive(Debug, Clone, Copy)]
enum Batch {
    /// One part.
    One(usize),
    /// Both halves of a split component.
    Two(usize, usize),
    /// Every part currently on the given side.
    All(Side),
}

impl Batch {
    /// Calls `f` on each part, in ascending order.
    fn for_each(self, sides: &[Side], mut f: impl FnMut(usize)) {
        match self {
            Batch::One(i) => f(i),
            Batch::Two(a, b) => {
                f(a);
                f(b);
            }
            Batch::All(from) => {
                for (i, &side) in sides.iter().enumerate() {
                    if side == from {
                        f(i);
                    }
                }
            }
        }
    }

    fn contains(self, sides: &[Side], p: usize) -> bool {
        match self {
            Batch::One(i) => p == i,
            Batch::Two(a, b) => p == a || p == b,
            Batch::All(from) => sides[p] == from,
        }
    }

    /// Total work, summed in part order.
    fn work(self, parts: &[Part], sides: &[Side]) -> f64 {
        let work = |i: usize| parts[i].work;
        match self {
            Batch::One(i) => std::iter::once(work(i)).sum(),
            Batch::Two(a, b) => [work(a), work(b)].into_iter().sum(),
            Batch::All(from) => parts
                .iter()
                .zip(sides)
                .filter(|&(_, &side)| side == from)
                .map(|(p, _)| p.work)
                .sum(),
        }
    }
}

/// One user's objective terms under the current part sides.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UserTerms {
    /// Work executed on the device, pinned functions included.
    pub(crate) local: f64,
    /// Work executed on the server.
    pub(crate) remote: f64,
    /// Data crossing the cut, control overhead included.
    pub(crate) tx: f64,
}

impl UserTerms {
    /// Derives user `u`'s terms from their parts, in part and component
    /// order — the same additions, in the same order, as one walk over
    /// the user's records.
    pub(crate) fn of(ps: &PartSystem, u: usize, control_overhead: f64) -> Self {
        let (local, remote) = ps.work_split_of_user(u);
        UserTerms {
            local,
            remote,
            tx: ps.tx_volume_of_user(u, control_overhead),
        }
    }
}

/// The crowd-wide sums every price is taken from: sums of the users'
/// [`UserTerms`] and the count of users whose remote work exceeds
/// `EPS`.
///
/// Between runs, `rw`, `tv` and `offloaders` are folded over the users
/// with a part on the server, in slot order. Every other user's remote
/// work and transmission are exactly zero, so those are the bits of a
/// fold over the whole crowd. `lw` runs: churn and moves add to it, and
/// only a [`refold`](Ledger::refold) sums it afresh.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Totals {
    /// Work executed on the device, pinned functions included.
    pub(crate) lw: f64,
    /// Work executed on the server.
    pub(crate) rw: f64,
    /// Data crossing the cut, control overhead included.
    pub(crate) tv: f64,
    /// Users with remote work above `EPS`: the sharers the greedy
    /// prices.
    pub(crate) offloaders: usize,
}

/// What a rescan knows about one user without walking their parts: how
/// many are on the server and, while that is none, a bound on every
/// out-move's gain remembered from the last walk.
///
/// With `D = A − (k+1)/C` (see [`OutBound`]), each out-move gains
/// `g(D) = w·D − τ·B` before the surcharge, which falls as `D` falls.
/// So between walks `g(D) ≤ best` while `D ≤ at`, and
/// `g(D) ≤ best + work_max·(D − at)` above it, where `best` is the
/// largest `g(at)`. Any relocation of the user's parts clears the
/// bound.
#[derive(Debug, Clone, Copy)]
struct OutCache {
    /// Parts on the server.
    remote_parts: u32,
    /// Whether the user counts in the [`WalkGroup`] at `at`.
    grouped: bool,
    /// Largest `w·D − τ·B` over the out-moves at `D = at`.
    best: f64,
    /// Largest and smallest work an out-move ships.
    work_max: f64,
    work_min: f64,
    /// The `D` the bound was taken at; NaN when there is none.
    at: f64,
}

impl OutCache {
    /// Counts user `u`'s remote parts; the bound starts unknown.
    fn of(ps: &PartSystem, u: usize) -> Self {
        let remote_parts = ps
            .sides_of(u)
            .iter()
            .filter(|&&side| side == Side::Remote)
            .count();
        OutCache {
            remote_parts: u32::try_from(remote_parts).expect("part count fits u32"),
            ..OutCache::UNKNOWN
        }
    }

    const UNKNOWN: OutCache = OutCache {
        remote_parts: 0,
        grouped: false,
        best: f64::NEG_INFINITY,
        work_max: 0.0,
        work_min: f64::INFINITY,
        at: f64::NAN,
    };
}

/// The most `w·d − τ·B` any out-move can reach at `d`, for moves whose
/// largest value at `at` was `best` and whose work is at most
/// `work_max`; NaN when `at` is.
fn reach(best: f64, work_max: f64, at: f64, d: f64) -> f64 {
    if at >= d {
        best
    } else {
        best + work_max * (d - at)
    }
}

/// The all-local users last walked at one `D = at` whose bound rules
/// them out as a whole: the largest `best` and `work_max` among them
/// bound every member's out-moves at once. Members that since moved or
/// churned are only uncounted, so the maxima may overstate the rest —
/// which costs a rebuild, never a missed candidate.
#[derive(Debug, Clone, Copy)]
struct WalkGroup {
    at: f64,
    best: f64,
    work_max: f64,
    members: usize,
}

/// A set of user slots with `O(1)` insertion and removal, iterated in
/// no particular order.
#[derive(Debug, Default)]
struct SlotSet {
    members: Vec<usize>,
    /// Per slot: its index in `members`, or `usize::MAX` when absent.
    index: Vec<usize>,
}

impl SlotSet {
    /// Opens a slot, absent.
    fn push_slot(&mut self) {
        self.index.push(usize::MAX);
    }

    fn insert(&mut self, u: usize) {
        if self.index[u] == usize::MAX {
            self.index[u] = self.members.len();
            self.members.push(u);
        }
    }

    fn remove(&mut self, u: usize) {
        let k = std::mem::replace(&mut self.index[u], usize::MAX);
        if k != usize::MAX {
            self.members.swap_remove(k);
            if let Some(&moved) = self.members.get(k) {
                self.index[moved] = k;
            }
        }
    }

    /// Puts the members in ascending order.
    fn sort(&mut self) {
        self.members.sort_unstable();
        for (k, &u) in self.members.iter().enumerate() {
            self.index[u] = k;
        }
    }

    /// Drops slot `u`, shifting later slots down: `O(members)`.
    fn remove_slot(&mut self, u: usize) {
        self.remove(u);
        self.index.remove(u);
        for m in &mut self.members {
            if *m > u {
                *m -= 1;
            }
        }
    }

    #[cfg(test)]
    fn contains(&self, u: usize) -> bool {
        self.index[u] != usize::MAX
    }
}

/// The greedy's bookkeeping kept between runs over one part system:
/// every user's [`UserTerms`] and [`OutCache`] for the sides the last
/// run left, their crowd-wide [`Totals`], who has a part on the server,
/// the rescan's walk groups, and the buffers a run works in. Slot `u`
/// is part-system user `u`; callers keep the two aligned through
/// [`remove_user`](Self::remove_user) and [`add_user`](Self::add_user).
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    terms: Vec<UserTerms>,
    outs: Vec<OutCache>,
    /// Remote work per user: `terms[u].remote` between runs, kept
    /// current by a run's moves (to track the offloader count).
    rw_user: Vec<f64>,
    /// Sums over `terms`: `lw` refolded in slot order by
    /// [`refold`](Self::refold) and running since, the rest folded over
    /// the sharers at the start and end of every run.
    totals: Totals,
    /// Runs since the last refold.
    runs_since_refold: usize,
    /// The users with a part on the server.
    remote: SlotSet,
    /// Walk groups, one per walk point; valid only while
    /// `groups_valid`.
    groups: Vec<WalkGroup>,
    /// Whether every all-local user is either grouped or listed in
    /// `loose`.
    groups_valid: bool,
    /// All-local users no group covers: unknown bounds, and bounds that
    /// do not rule the user out. May repeat, and may name users who
    /// since went remote.
    loose: Vec<usize>,
    /// Scratch: the loose users a rescan visits.
    visiting: Vec<usize>,
    /// Users a run relocated parts of: unsorted and repeating while it
    /// runs, ascending and distinct after.
    moved: Vec<usize>,
    /// Candidates whose gain exceeds `EPS`.
    heap: BinaryHeap<(Gain, Move)>,
}

impl Ledger {
    /// A ledger with every user of `ps` derived and the totals folded.
    pub(crate) fn new(ps: &PartSystem, params: &SystemParams) -> Self {
        let mut ledger = Ledger::default();
        for u in 0..ps.user_count() {
            let terms = UserTerms::of(ps, u, params.control_overhead);
            let out = OutCache::of(ps, u);
            ledger.terms.push(terms);
            ledger.rw_user.push(terms.remote);
            ledger.remote.push_slot();
            if out.remote_parts > 0 {
                ledger.remote.insert(u);
            }
            ledger.outs.push(out);
        }
        ledger.refold();
        ledger
    }

    /// Re-derives user `u` from their parts, moving the local-work
    /// total by the difference.
    fn derive(&mut self, ps: &PartSystem, u: usize, control_overhead: f64) {
        let terms = UserTerms::of(ps, u, control_overhead);
        self.totals.lw += terms.local - self.terms[u].local;
        self.terms[u] = terms;
        self.rw_user[u] = terms.remote;
        let remote_parts = OutCache::of(ps, u).remote_parts;
        self.reset_out(u, remote_parts);
    }

    /// Refolds every total from the per-user terms, in slot order.
    fn refold(&mut self) {
        let mut lw = 0.0;
        for (t, rw) in self.terms.iter().zip(&mut self.rw_user) {
            lw += t.local;
            *rw = t.remote;
        }
        self.totals.lw = lw;
        self.fold_sharers();
        self.runs_since_refold = 0;
    }

    /// Folds the remote work, transmission and offloader count over the
    /// users with a part on the server, in slot order: `O(k log k)` for
    /// `k` such users.
    fn fold_sharers(&mut self) {
        self.remote.sort();
        let (mut rw, mut tv) = (0.0, 0.0);
        for &u in &self.remote.members {
            rw += self.terms[u].remote;
            tv += self.terms[u].tx;
        }
        self.totals.rw = rw;
        self.totals.tv = tv;
        self.totals.offloaders = self
            .remote
            .members
            .iter()
            .filter(|&&u| self.rw_user[u] > EPS)
            .count();
    }

    /// Marks user `u`'s bound unknown after their sides changed, now
    /// with `remote_parts` on the server.
    fn reset_out(&mut self, u: usize, remote_parts: u32) {
        self.ungroup(u);
        self.outs[u] = OutCache {
            remote_parts,
            ..OutCache::UNKNOWN
        };
        if remote_parts == 0 {
            self.remote.remove(u);
            self.loose.push(u);
        } else {
            self.remote.insert(u);
        }
    }

    /// Counts user `u` in the group of their walk point.
    fn group(&mut self, u: usize) {
        let out = &mut self.outs[u];
        debug_assert!(!out.grouped, "user {u} is grouped twice");
        out.grouped = true;
        let (at, best, work_max) = (out.at, out.best, out.work_max);
        match self
            .groups
            .iter_mut()
            .find(|g| g.at.to_bits() == at.to_bits())
        {
            Some(g) => {
                g.best = g.best.max(best);
                g.work_max = g.work_max.max(work_max);
                g.members += 1;
            }
            None => self.groups.push(WalkGroup {
                at,
                best,
                work_max,
                members: 1,
            }),
        }
    }

    /// Uncounts user `u` from their group, if they are in one.
    fn ungroup(&mut self, u: usize) {
        let out = &mut self.outs[u];
        if !std::mem::take(&mut out.grouped) {
            return;
        }
        let at = out.at.to_bits();
        let k = self
            .groups
            .iter()
            .position(|g| g.at.to_bits() == at)
            .expect("a grouped user's walk point has a group");
        self.groups[k].members -= 1;
        if self.groups[k].members == 0 {
            self.groups.swap_remove(k);
        }
    }

    /// Drops every group: the next bounded rescan holds each all-local
    /// user to their own bound and regroups them.
    fn forget_walks(&mut self) {
        self.groups.clear();
        self.loose.clear();
        for out in &mut self.outs {
            out.grouped = false;
        }
        self.groups_valid = false;
    }

    /// Per-user terms, in part-system user order.
    pub(crate) fn terms(&self) -> &[UserTerms] {
        &self.terms
    }

    /// The crowd-wide sums.
    pub(crate) fn totals(&self) -> Totals {
        self.totals
    }

    /// Writes the users with positive remote work into `out`, in slot
    /// order: `O(sharers)`.
    pub(crate) fn sharers(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.remote
                .members
                .iter()
                .copied()
                .filter(|&u| self.terms[u].remote > 0.0),
        );
        out.sort_unstable();
    }

    /// Users whose sides the last run changed, ascending.
    pub(crate) fn moved(&self) -> &[usize] {
        &self.moved
    }

    /// Drops slot `u`, taking their terms out of the totals and
    /// shifting later users down.
    pub(crate) fn remove_user(&mut self, u: usize) {
        self.ungroup(u);
        let gone = self.terms.remove(u);
        self.totals.lw -= gone.local;
        self.rw_user.remove(u);
        self.outs.remove(u);
        self.remote.remove_slot(u);
        self.loose.retain_mut(|v| {
            if *v == u {
                return false;
            }
            if *v > u {
                *v -= 1;
            }
            true
        });
    }

    /// Opens a slot for a user appended to the part system. The slot
    /// must be named dirty to the next run, which derives it.
    pub(crate) fn add_user(&mut self) {
        self.terms.push(UserTerms::default());
        self.outs.push(OutCache::UNKNOWN);
        self.rw_user.push(0.0);
        self.remote.push_slot();
    }
}

/// Incrementally-maintained objective state of one run: the ledger's
/// totals, kept in step with its per-user records and written back when
/// the run ends.
struct ObjectiveState<'a> {
    params: SystemParams,
    totals: Totals,
    ledger: &'a mut Ledger,
}

/// The linear bound every out-move of an all-local user obeys under the
/// shared-capacity policies. Shipping work `w > EPS` with added
/// transmission `τ` makes the user the `(k+1)`-th sharer, so
///
/// `gain = w·(A − (k+1)/C) − τ·B − RW/C`
///
/// with `A` the device's cost per unit of work, `B` the radio's cost
/// per unit of data, `RW` the remote work and `C` the capacity. Only
/// `w` and `τ` are per candidate.
struct OutBound {
    /// `D = A − (k+1)/C`.
    per_work: f64,
    /// `B`.
    per_tx: f64,
    /// `RW/C`: the new sharer's surcharge on everyone already there.
    surcharge: f64,
    /// Candidates bounded below this gain cannot exceed `EPS`.
    skip_below: f64,
}

impl OutBound {
    /// Whether out-moves that reached at most `best` at `D = at`, each
    /// shipping at most `work_max` and adding a sharer, all stay below
    /// `EPS` now.
    fn rules_out(&self, best: f64, work_max: f64, at: f64) -> bool {
        reach(best, work_max, at, self.per_work) - self.surcharge < self.skip_below
    }
}

impl<'a> ObjectiveState<'a> {
    /// Opens a run on the ledger's totals and restarts its per-run
    /// buffers.
    fn open(ledger: &'a mut Ledger, params: &SystemParams) -> Self {
        ledger.moved.clear();
        ObjectiveState {
            params: *params,
            totals: ledger.totals,
            ledger,
        }
    }

    /// Writes the run's totals back to the ledger.
    fn close(self) {
        self.ledger.totals = self.totals;
    }

    /// Server time `Σ (t_s + wt)` for a remote-work profile.
    /// `adjusted` optionally overrides one user's remote work.
    fn server_time(&self, rw_total: f64, offloaders: usize, adjusted: Option<(usize, f64)>) -> f64 {
        let cap = self.params.server_capacity;
        match self.params.allocation {
            // EqualShare: t_s^i = rw_i · k / I_S  →  Σ = k · RW / I_S.
            // Proportional: t_s^i = RW / I_S each →  Σ = k · RW / I_S.
            AllocationPolicy::EqualShare | AllocationPolicy::ProportionalToLoad => {
                offloaders as f64 * rw_total / cap
            }
            // FIFO in user order: position j (0-based) of k jobs
            // contributes t_j · (k − j). k is derived from the adjusted
            // profile itself — the caller's `offloaders` hint matches it
            // for real moves but not for hypothetical what-ifs like the
            // all-local guard.
            AllocationPolicy::Fifo => {
                let _ = offloaders;
                let value = |u: usize, r: f64| match adjusted {
                    Some((au, val)) if au == u => val,
                    _ => r,
                };
                let k = self
                    .ledger
                    .rw_user
                    .iter()
                    .enumerate()
                    .filter(|&(u, &r)| value(u, r) > EPS)
                    .count();
                let mut total = 0.0;
                let mut pos = 0usize;
                for (u, &r) in self.ledger.rw_user.iter().enumerate() {
                    let r = value(u, r);
                    if r > EPS {
                        total += r / cap * (k - pos) as f64;
                        pos += 1;
                    }
                }
                total
            }
        }
    }

    /// `E + T` for a hypothetical state.
    fn objective_for(
        &self,
        lw: f64,
        rw: f64,
        tv: f64,
        offloaders: usize,
        adjusted: Option<(usize, f64)>,
    ) -> f64 {
        let p = &self.params;
        let local_time = lw / p.local_capacity;
        let tx_time = tv / p.bandwidth;
        let energy = local_time * p.local_power + tx_time * p.tx_power;
        let time = local_time + self.server_time(rw, offloaders, adjusted) + tx_time;
        energy + time
    }

    /// Current objective.
    fn objective(&self) -> f64 {
        let t = &self.totals;
        self.objective_for(t.lw, t.rw, t.tv, t.offloaders, None)
    }

    /// The [`OutBound`] for the current state; `None` under FIFO, where
    /// a new job's cost depends on its queue position.
    fn out_bound(&self) -> Option<OutBound> {
        let p = &self.params;
        if p.allocation == AllocationPolicy::Fifo {
            return None;
        }
        let cap = p.server_capacity;
        let per_local = (1.0 + p.local_power) / p.local_capacity;
        Some(OutBound {
            per_work: per_local - (self.totals.offloaders + 1) as f64 / cap,
            per_tx: (1.0 + p.tx_power) / p.bandwidth,
            surcharge: self.totals.rw / cap,
            skip_below: EPS - BOUND_MARGIN * self.objective().max(1.0),
        })
    }

    /// Per-part pinned transmission term.
    fn pin_term(&self, p: &Part) -> f64 {
        p.pinned_cut + p.pinned_crossings as f64 * self.params.control_overhead
    }

    /// Transmission-volume change if every part of `user` in `batch`
    /// (all currently on the opposite side) moves to `to`.
    fn batch_tx_delta(&self, user: UserRecords, batch: Batch, to: Side) -> f64 {
        let oh = self.params.control_overhead;
        let UserRecords {
            parts,
            components: comps,
            sides,
        } = user;
        let mut delta = 0.0;
        // pinned edges cross exactly when the part is remote
        batch.for_each(sides, |i| match to {
            Side::Local => delta -= self.pin_term(&parts[i]),
            Side::Remote => delta += self.pin_term(&parts[i]),
        });
        // sibling cross edges: recompute the crossing indicator for
        // every touched component once (a batch's parts come in
        // ascending order, so siblings are adjacent)
        let mut last_comp = usize::MAX;
        batch.for_each(sides, |i| {
            let c = parts[i].component;
            if c == last_comp {
                return;
            }
            last_comp = c;
            let comp = &comps[c];
            let Some(p2) = comp.part2 else { return };
            let p1 = comp.part1;
            let before = sides[p1] != sides[p2];
            let side_after = |p: usize| {
                if batch.contains(sides, p) {
                    to
                } else {
                    sides[p]
                }
            };
            let after = side_after(p1) != side_after(p2);
            if before != after {
                let cross = comp.cross_weight + comp.cross_count as f64 * oh;
                delta += if after { cross } else { -cross };
            }
        });
        delta
    }

    /// Objective change if `batch` (parts of user `u`, all currently
    /// on the opposite side) relocates to `to`. Negative = improvement.
    fn batch_delta(&self, ps: &PartSystem, u: usize, batch: Batch, to: Side) -> f64 {
        let user = ps.user(u);
        let w = batch.work(user.parts, user.sides);
        let t = &self.totals;
        let user_rw = self.ledger.rw_user[u];
        let (lw2, rw2, user_rw2) = match to {
            Side::Local => (t.lw + w, t.rw - w, user_rw - w),
            Side::Remote => (t.lw - w, t.rw + w, user_rw + w),
        };
        let tv2 = t.tv + self.batch_tx_delta(user, batch, to);
        let offloaders2 = match (user_rw > EPS, user_rw2 > EPS) {
            (true, false) => t.offloaders - 1,
            (false, true) => t.offloaders + 1,
            _ => t.offloaders,
        };
        self.objective_for(lw2, rw2, tv2, offloaders2, Some((u, user_rw2))) - self.objective()
    }

    /// Commits a batch relocation; returns how many parts moved.
    fn apply_batch(&mut self, ps: &mut PartSystem, u: usize, batch: Batch, to: Side) -> usize {
        let user = ps.user(u);
        let w = batch.work(user.parts, user.sides);
        self.totals.tv += self.batch_tx_delta(user, batch, to);
        match to {
            Side::Local => {
                self.totals.lw += w;
                self.totals.rw -= w;
            }
            Side::Remote => {
                self.totals.lw -= w;
                self.totals.rw += w;
            }
        }
        let user_rw = &mut self.ledger.rw_user[u];
        let before = *user_rw;
        *user_rw += match to {
            Side::Local => -w,
            Side::Remote => w,
        };
        match (before > EPS, *user_rw > EPS) {
            (true, false) => self.totals.offloaders -= 1,
            (false, true) => self.totals.offloaders += 1,
            _ => {}
        }
        let mut n = 0u32;
        batch.for_each(ps.sides_of(u), |_| n += 1);
        match batch {
            Batch::One(i) => ps.set_side(u, i, to),
            Batch::Two(a, b) => {
                ps.set_side(u, a, to);
                ps.set_side(u, b, to);
            }
            Batch::All(from) => {
                for i in 0..ps.parts_of(u).len() {
                    if ps.side(u, i) == from {
                        ps.set_side(u, i, to);
                    }
                }
            }
        }
        let remote_parts = self.ledger.outs[u].remote_parts;
        self.ledger.reset_out(
            u,
            match to {
                Side::Local => remote_parts - n,
                Side::Remote => remote_parts + n,
            },
        );
        self.ledger.moved.push(u);
        n as usize
    }

    /// Resolves a relocation move into `(user, parts, destination)`;
    /// `None` when currently invalid (wrong sides, missing sibling,
    /// nothing to do).
    fn resolve(&self, ps: &PartSystem, mv: Move) -> Option<(usize, Batch, Side)> {
        let (target, to) = match mv {
            Move::Home(t) => (t, Side::Local),
            Move::Out(t) => (t, Side::Remote),
            Move::Swap(..) => unreachable!("swaps are priced separately"),
        };
        let from = to.flipped();
        match target {
            Target::Single(u, i) => {
                let (u, i) = (u as usize, i as usize);
                (ps.side(u, i) == from).then_some((u, Batch::One(i), to))
            }
            Target::Pair(u, c) => {
                let u = u as usize;
                let user = ps.user(u);
                let comp = &user.components[c as usize];
                let p2 = comp.part2?;
                let p1 = comp.part1;
                (user.sides[p1] == from && user.sides[p2] == from).then_some((
                    u,
                    Batch::Two(p1, p2),
                    to,
                ))
            }
            Target::User(u) => {
                let u = u as usize;
                let movable = ps.sides_of(u).iter().filter(|&&s| s == from).count();
                // fewer than two: single moves cover this
                (movable >= 2).then_some((u, Batch::All(from), to))
            }
        }
    }

    /// Gain (= −Δobjective) of a candidate, `None` when invalid.
    fn gain_of(&self, ps: &PartSystem, mv: Move) -> Option<f64> {
        match mv {
            Move::Swap(u, c) => self
                .swap_delta(ps, u as usize, c as usize)
                .map(|(_, _, d)| -d),
            _ => {
                let (u, batch, to) = self.resolve(ps, mv)?;
                Some(-self.batch_delta(ps, u, batch, to))
            }
        }
    }

    /// Commits a candidate; returns how many parts moved.
    fn apply_move(&mut self, ps: &mut PartSystem, mv: Move) -> usize {
        match mv {
            Move::Swap(u, c) => {
                let (u, c) = (u as usize, c as usize);
                let (to_remote, to_local, _) = self
                    .swap_delta(ps, u, c)
                    .expect("swap validated before apply");
                self.apply_batch(ps, u, Batch::One(to_local), Side::Local)
                    + self.apply_batch(ps, u, Batch::One(to_remote), Side::Remote)
            }
            _ => {
                let (u, batch, to) = self.resolve(ps, mv).expect("move validated before apply");
                self.apply_batch(ps, u, batch, to)
            }
        }
    }

    /// Objective change if user `u`'s split component `c` swaps which
    /// half is local. Returns `(to_remote, to_local, delta)`; `None`
    /// unless the component currently has exactly one local and one
    /// remote half.
    fn swap_delta(&self, ps: &PartSystem, u: usize, c: usize) -> Option<(usize, usize, f64)> {
        let UserRecords {
            parts,
            components,
            sides,
        } = ps.user(u);
        let comp = &components[c];
        let p2 = comp.part2?;
        let p1 = comp.part1;
        let (to_remote, to_local) = match (sides[p1], sides[p2]) {
            (Side::Local, Side::Remote) => (p1, p2),
            (Side::Remote, Side::Local) => (p2, p1),
            _ => return None,
        };
        let (wl, wr) = (parts[to_remote].work, parts[to_local].work);
        let t = &self.totals;
        // newly-remote half starts paying its pinned coupling, the
        // newly-local one stops; the cross edges keep crossing.
        let tv2 = t.tv + self.pin_term(&parts[to_remote]) - self.pin_term(&parts[to_local]);
        let lw2 = t.lw - wl + wr;
        let rw2 = t.rw + wl - wr;
        let user_rw = self.ledger.rw_user[u];
        let user_rw2 = user_rw + wl - wr;
        let offloaders2 = match (user_rw > EPS, user_rw2 > EPS) {
            (true, false) => t.offloaders - 1,
            (false, true) => t.offloaders + 1,
            _ => t.offloaders,
        };
        let delta =
            self.objective_for(lw2, rw2, tv2, offloaders2, Some((u, user_rw2))) - self.objective();
        Some((to_remote, to_local, delta))
    }

    /// The bound's promise, checked against exact pricing.
    #[cfg(test)]
    fn assert_unprofitable(&self, ps: &PartSystem, mv: Move) {
        if let Some(g) = self.gain_of(ps, mv) {
            assert!(g <= EPS, "bound skipped {mv:?} with gain {g}");
        }
    }

    /// What a rescan that trusts the groups relies on: the remote set
    /// and part counts are current, every all-local user is grouped or
    /// loose, and no grouped user has a profitable out-move.
    #[cfg(test)]
    fn assert_groups_hold(&self, ps: &PartSystem) {
        let oh = self.params.control_overhead;
        for u in 0..ps.user_count() {
            let out = self.ledger.outs[u];
            let remote_parts = ps
                .sides_of(u)
                .iter()
                .filter(|&&s| s == Side::Remote)
                .count();
            assert_eq!(out.remote_parts as usize, remote_parts, "user {u}");
            assert_eq!(self.ledger.remote.contains(u), remote_parts > 0, "user {u}");
            if remote_parts > 0 {
                continue;
            }
            if out.grouped {
                assert_eq!(self.ledger.rw_user[u].to_bits(), 0.0f64.to_bits());
                for_each_out_move(ps, u, oh, |mv, _, _| self.assert_unprofitable(ps, mv));
            } else {
                assert!(self.ledger.loose.contains(&u), "user {u} is not covered");
            }
        }
    }

    /// Prices `mv`; pushes it when it improves by more than `EPS`.
    fn offer(&mut self, ps: &PartSystem, mv: Move, evaluations: &mut usize) {
        if let Some(g) = self.gain_of(ps, mv) {
            *evaluations += 1;
            if g > EPS {
                self.ledger.heap.push((Gain(g), mv));
            }
        }
    }
}

/// f64 heap key with total order (all keys are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gain(f64);

impl Eq for Gain {}

impl PartialOrd for Gain {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Gain {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("gains are finite")
    }
}

/// Every candidate of the system, for the exhaustive driver, in the
/// order of one index over every user's records.
fn all_moves(ps: &PartSystem) -> Vec<Move> {
    let users = 0..ps.user_count();
    let per_component = |u: usize| (0..ps.components_of(u).len()).map(move |c| (u, c));
    let singles = users
        .clone()
        .flat_map(|u| (0..ps.parts_of(u).len()).map(move |i| Target::Single(ix(u), ix(i))));
    let pairs = users
        .clone()
        .flat_map(per_component)
        .map(|(u, c)| Target::Pair(ix(u), ix(c)));
    let targets: Vec<Target> = singles
        .chain(pairs)
        .chain(users.clone().map(|u| Target::User(ix(u))))
        .collect();
    let mut moves: Vec<Move> = Vec::with_capacity(3 * targets.len());
    moves.extend(targets.iter().map(|&t| Move::Home(t)));
    moves.extend(targets.iter().map(|&t| Move::Out(t)));
    moves.extend(
        users
            .flat_map(per_component)
            .map(|(u, c)| Move::Swap(ix(u), ix(c))),
    );
    moves
}

/// Calls `f` on every candidate that directly involves user `u`: their
/// parts, components (pair moves and orientation swaps), and the
/// whole-user relocation, in both directions. Over all users this is
/// the candidate set of [`all_moves`].
fn for_each_move_of_user(ps: &PartSystem, u: usize, mut f: impl FnMut(Move)) {
    let mut last_comp = usize::MAX;
    for (i, p) in ps.parts_of(u).iter().enumerate() {
        f(Move::Home(Target::Single(ix(u), ix(i))));
        f(Move::Out(Target::Single(ix(u), ix(i))));
        let c = p.component;
        if c != last_comp {
            last_comp = c;
            f(Move::Home(Target::Pair(ix(u), ix(c))));
            f(Move::Out(Target::Pair(ix(u), ix(c))));
            f(Move::Swap(ix(u), ix(c)));
        }
    }
    f(Move::Home(Target::User(ix(u))));
    f(Move::Out(Target::User(ix(u))));
}

/// Calls `f(move, work, tx)` on every valid candidate of user `u`, whose
/// parts are all on the device — only relocations to the server are —
/// with the work it ships and the transmission volume it adds.
fn for_each_out_move(
    ps: &PartSystem,
    u: usize,
    control_overhead: f64,
    mut f: impl FnMut(Move, f64, f64),
) {
    let UserRecords {
        parts,
        components: comps,
        sides,
    } = ps.user(u);
    let pin = |p: &Part| p.pinned_cut + p.pinned_crossings as f64 * control_overhead;
    let mut last_comp = usize::MAX;
    let mut all_pins = 0.0;
    for (i, p) in parts.iter().enumerate() {
        let c = p.component;
        let comp = &comps[c];
        all_pins += pin(p);
        // a split half leaving alone starts crossing to its sibling
        let cross = comp.part2.map_or(0.0, |_| {
            comp.cross_weight + comp.cross_count as f64 * control_overhead
        });
        f(
            Move::Out(Target::Single(ix(u), ix(i))),
            p.work,
            pin(p) + cross,
        );
        if c != last_comp {
            last_comp = c;
            if let Some(p2) = comp.part2 {
                let p1 = comp.part1;
                f(
                    Move::Out(Target::Pair(ix(u), ix(c))),
                    Batch::Two(p1, p2).work(parts, sides),
                    pin(&parts[p1]) + pin(&parts[p2]),
                );
            }
        }
    }
    if parts.len() >= 2 {
        f(
            Move::Out(Target::User(ix(u))),
            Batch::All(Side::Local).work(parts, sides),
            all_pins,
        );
    }
}

#[cfg(test)]
thread_local! {
    /// Test switch: rescans price every candidate exactly — the
    /// reference the out-move bound is held to.
    pub(crate) static EXACT_RESCAN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether rescans skip the out-move bound.
#[cfg(test)]
fn exact_rescan() -> bool {
    EXACT_RESCAN.with(std::cell::Cell::get)
}

#[cfg(not(test))]
fn exact_rescan() -> bool {
    false
}

/// One convergence rescan: fills the heap with every candidate whose
/// gain exceeds `EPS`, and returns whether the bound ruled out the
/// whole all-local class, with how many users it priced or held to
/// their own bound.
///
/// Users with a part on the server are priced exactly. While every
/// [`WalkGroup`] rules its members out, the all-local users visited one
/// by one are only the loose ones ([`visit`]); when a group fails, every
/// all-local user is visited and the groups are rebuilt. Under FIFO
/// every user is priced.
fn rescan(state: &mut ObjectiveState, ps: &PartSystem, evaluations: &mut usize) -> (bool, usize) {
    let bound = if exact_rescan() {
        None
    } else {
        state.out_bound()
    };
    let Some(b) = bound else {
        state.ledger.forget_walks();
        for u in 0..ps.user_count() {
            for_each_move_of_user(ps, u, |mv| state.offer(ps, mv, evaluations));
        }
        return (false, ps.user_count());
    };
    let mut visits = state.ledger.remote.members.len();
    for k in 0..visits {
        let u = state.ledger.remote.members[k];
        for_each_move_of_user(ps, u, |mv| state.offer(ps, mv, evaluations));
    }
    let mut certified = true;
    let groups_hold = state.ledger.groups_valid
        && state
            .ledger
            .groups
            .iter()
            .all(|g| b.rules_out(g.best, g.work_max, g.at));
    if groups_hold {
        #[cfg(test)]
        state.assert_groups_hold(ps);
        let ledger = &mut *state.ledger;
        std::mem::swap(&mut ledger.loose, &mut ledger.visiting);
        ledger.visiting.sort_unstable();
        ledger.visiting.dedup();
        for k in 0..state.ledger.visiting.len() {
            let u = state.ledger.visiting[k];
            if state.ledger.outs[u].remote_parts == 0 {
                visits += 1;
                certified &= visit(state, ps, u, &b, evaluations);
            }
        }
        state.ledger.visiting.clear();
    } else {
        state.ledger.forget_walks();
        for u in 0..ps.user_count() {
            if state.ledger.outs[u].remote_parts == 0 {
                visits += 1;
                certified &= visit(state, ps, u, &b, evaluations);
            }
        }
        state.ledger.groups_valid = true;
    }
    (certified, visits)
}

/// Holds all-local, ungrouped user `u` to the bound: as a whole through
/// their [`OutCache`] while it still rules them out, else move by move,
/// pricing only the moves it cannot rule out and refreshing the cache.
/// A user it rules out joins their walk point's group; any other stays
/// loose. Returns `false` when a move was priced.
fn visit(
    state: &mut ObjectiveState,
    ps: &PartSystem,
    u: usize,
    b: &OutBound,
    evaluations: &mut usize,
) -> bool {
    let oh = state.params.control_overhead;
    let out = state.ledger.outs[u];
    // the bound assumes a move adds a sharer, exactly when the pricing
    // would
    let rw_u = state.ledger.rw_user[u];
    let adds_sharer = |work: f64| rw_u <= EPS && rw_u + work > EPS;
    let mut certified = true;
    if adds_sharer(out.work_min) && b.rules_out(out.best, out.work_max, out.at) {
        #[cfg(test)]
        for_each_out_move(ps, u, oh, |mv, _, _| state.assert_unprofitable(ps, mv));
    } else {
        let mut fresh = OutCache {
            at: b.per_work,
            ..OutCache::UNKNOWN
        };
        for_each_out_move(ps, u, oh, |mv, work, tx| {
            let g = work * b.per_work - tx * b.per_tx;
            fresh.best = fresh.best.max(g);
            fresh.work_max = fresh.work_max.max(work);
            fresh.work_min = fresh.work_min.min(work);
            if adds_sharer(work) && g - b.surcharge < b.skip_below {
                #[cfg(test)]
                state.assert_unprofitable(ps, mv);
                return;
            }
            certified = false;
            state.offer(ps, mv, evaluations);
        });
        state.ledger.outs[u] = fresh;
    }
    // ruled out as a whole, and the bound's zero remote work is exact:
    // the group's maxima bound the user until their sides change
    if certified && rw_u.to_bits() == 0.0f64.to_bits() {
        let out = state.ledger.outs[u];
        debug_assert!(adds_sharer(out.work_min) && b.rules_out(out.best, out.work_max, out.at));
        state.ledger.group(u);
    } else {
        state.ledger.loose.push(u);
    }
    certified
}

/// Runs the local search over `ps`, mutating part sides in place.
///
/// After convergence, the all-local plan is checked as a final guard:
/// the returned assignment is never worse than not offloading at all.
#[cfg(test)]
pub(crate) fn run_greedy_cold(
    ps: &mut PartSystem,
    params: &SystemParams,
    mode: GreedyMode,
) -> GreedyOutcome {
    let mut ledger = Ledger::new(ps, params);
    run_greedy(ps, &mut ledger, params, mode, &mec_obs::NullSink, None)
}

/// Emits one `greedy.step` objective-trajectory point.
fn emit_step(sink: &dyn TraceSink, moves: usize, objective: f64) {
    sink.event(
        "greedy.step",
        &[
            ("moves", FieldValue::from(moves)),
            ("objective", FieldValue::from(objective)),
        ],
    );
}

/// Lazily drains a max-heap of candidates: pop, re-price, repush when
/// the gain drifted below the runner-up, apply while improving.
/// Returns `true` when at least one move was applied.
fn drain_heap(
    state: &mut ObjectiveState,
    ps: &mut PartSystem,
    moves: &mut usize,
    evaluations: &mut usize,
    move_cap: usize,
    traced: bool,
    sink: &dyn TraceSink,
) -> bool {
    let mut applied = false;
    while let Some((_, mv)) = state.ledger.heap.pop() {
        let Some(gain) = state.gain_of(ps, mv) else {
            continue;
        };
        *evaluations += 1;
        if gain <= EPS {
            continue;
        }
        // stale (gain drifted below the next candidate): repush
        if let Some(&(next, _)) = state.ledger.heap.peek() {
            if gain + EPS < next.0 {
                state.ledger.heap.push((Gain(gain), mv));
                continue;
            }
        }
        *moves += state.apply_move(ps, mv);
        if traced {
            emit_step(sink, *moves, state.objective());
        }
        applied = true;
        if *moves >= move_cap {
            break;
        }
    }
    applied
}

/// Runs the local search over `ps`, mutating part sides in place, and
/// brings `ledger` up to date with the result.
///
/// `ledger` must hold every user's terms for the current sides, except
/// the users in `dirty` (ascending), which are derived first. A cold
/// run (`dirty` is `None`) searches from the sides as they are; a warm
/// one (`Some`) first settles only the dirty users' own candidates —
/// the moves churn re-priced structurally — and then runs the standard
/// rescan phases to the same convergence criterion, so the result is a
/// local optimum of the same neighbourhood a cold run searches.
///
/// After convergence, the all-local plan is checked as a final guard:
/// the returned assignment is never worse than not offloading at all.
/// The ledger's [`Totals`] are refolded after every cold run and once
/// every `crowd` runs, so the running local-work sum's drift from a
/// slot-order fold stays bounded, at an amortised `O(1)` per run.
///
/// Telemetry: bumps the `greedy.evaluated` / `greedy.accepted`
/// counters, `greedy.rescan_certified` or `greedy.rescan_exact` once
/// per rescan and `greedy.rescan_visits` by the users each rescan
/// priced or held to their own bound, records the per-run
/// `greedy.evaluations` / `greedy.moves` histograms, and (when the sink
/// is enabled) emits a `greedy.step` event after every applied move —
/// the objective trajectory — plus a final `greedy.done` summary.
pub(crate) fn run_greedy(
    ps: &mut PartSystem,
    ledger: &mut Ledger,
    params: &SystemParams,
    mode: GreedyMode,
    sink: &dyn TraceSink,
    dirty: Option<&[usize]>,
) -> GreedyOutcome {
    debug_assert_eq!(ledger.terms.len(), ps.user_count(), "ledger out of step");
    let oh = params.control_overhead;
    for &u in dirty.unwrap_or_default() {
        ledger.derive(ps, u, oh);
    }
    ledger.fold_sharers();
    let traced = sink.enabled();
    let mut state = ObjectiveState::open(ledger, params);
    let initial = state.objective();
    let mut moves = 0usize;
    let mut evaluations = 0usize;
    // strict cap against pathological float drift; never reached in
    // practice (each applied move improves the objective by > EPS)
    let move_cap = 20 * (ps.part_count() + ps.user_count() + 4);

    // Warm phase: settle the churned users' own candidates first, so
    // the rescan phase below usually confirms convergence in one pass
    // instead of driving the search. (Exhaustive mode re-scans every
    // candidate per iteration anyway, so seeding buys it nothing.)
    if let Some(dirty) = dirty {
        if mode == GreedyMode::Lazy && !dirty.is_empty() {
            state.ledger.heap.clear();
            for &u in dirty {
                for_each_move_of_user(ps, u, |mv| state.offer(ps, mv, &mut evaluations));
            }
            drain_heap(
                &mut state,
                ps,
                &mut moves,
                &mut evaluations,
                move_cap,
                traced,
                sink,
            );
        }
    }

    match mode {
        GreedyMode::Exhaustive => {
            while moves < move_cap {
                let mut best: Option<(Move, f64)> = None;
                for mv in all_moves(ps) {
                    let Some(g) = state.gain_of(ps, mv) else {
                        continue;
                    };
                    evaluations += 1;
                    let better = match best {
                        None => true,
                        Some((_, bg)) => g > bg,
                    };
                    if better {
                        best = Some((mv, g));
                    }
                }
                match best {
                    Some((mv, g)) if g > EPS => {
                        moves += state.apply_move(ps, mv);
                        if traced {
                            emit_step(sink, moves, state.objective());
                        }
                    }
                    _ => break,
                }
            }
        }
        GreedyMode::Lazy => {
            // phases: drain a heap of positive-gain candidates; gains
            // drift as aggregates change, so when the heap runs dry,
            // rescan everything once and start a new phase if anything
            // still improves.
            while moves < move_cap {
                state.ledger.heap.clear();
                let (certified, visits) = rescan(&mut state, ps, &mut evaluations);
                sink.counter_add(
                    if certified {
                        "greedy.rescan_certified"
                    } else {
                        "greedy.rescan_exact"
                    },
                    1,
                );
                sink.counter_add("greedy.rescan_visits", visits as u64);
                if state.ledger.heap.is_empty() {
                    break;
                }
                let applied_this_phase = drain_heap(
                    &mut state,
                    ps,
                    &mut moves,
                    &mut evaluations,
                    move_cap,
                    traced,
                    sink,
                );
                if !applied_this_phase {
                    break;
                }
            }
        }
    }

    // final guard: never do worse than not offloading at all
    let t = state.totals;
    let all_local = state.objective_for(t.lw + t.rw, 0.0, 0.0, 0, None);
    if all_local + EPS < state.objective() {
        let mut remote = state.ledger.remote.members.clone();
        remote.sort_unstable();
        for u in remote {
            moves += state.apply_batch(ps, u, Batch::All(Side::Remote), Side::Local);
        }
    }

    let final_objective = state.objective();
    state.close();
    sink.counter_add("greedy.evaluated", evaluations as u64);
    sink.counter_add("greedy.accepted", moves as u64);
    // per-run distributions: the delta-vs-full work reduction shows up
    // here even when wall-clock noise hides it
    sink.histogram_record("greedy.evaluations", evaluations as u64);
    sink.histogram_record("greedy.moves", moves as u64);
    if traced {
        sink.event(
            "greedy.done",
            &[
                ("moves", FieldValue::from(moves)),
                ("evaluations", FieldValue::from(evaluations)),
                ("initial_objective", FieldValue::from(initial)),
                ("final_objective", FieldValue::from(final_objective)),
            ],
        );
    }

    // bring the ledger up to date: re-derive (not patch) the moved
    // users' terms and fold the sharers' sums afresh; the local work
    // keeps the run's sum
    ledger.moved.sort_unstable();
    ledger.moved.dedup();
    for k in 0..ledger.moved.len() {
        let u = ledger.moved[k];
        let terms = UserTerms::of(ps, u, oh);
        ledger.terms[u] = terms;
        ledger.rw_user[u] = terms.remote;
    }
    ledger.fold_sharers();
    if mode == GreedyMode::Exhaustive {
        ledger.forget_walks();
    }
    ledger.heap.clear();
    ledger.heap.shrink_to(HEAP_KEEP);
    ledger.runs_since_refold += 1;
    if dirty.is_none() || ledger.runs_since_refold >= ps.user_count() {
        ledger.refold();
    }

    GreedyOutcome {
        moves,
        initial_objective: initial,
        final_objective,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::{Bipartition, GraphBuilder};
    use mec_labelprop::{CompressionConfig, Compressor, ThresholdRule};
    use mec_model::{Scenario, SystemParams, UserWorkload};
    use mec_netgen::NetgenSpec;

    fn params() -> SystemParams {
        SystemParams::default()
    }

    fn build_ps(graphs: &[mec_graph::Graph]) -> PartSystem {
        let compressor =
            Compressor::new(CompressionConfig::new().threshold(ThresholdRule::MeanFactor(1.5)));
        let mut ps = PartSystem::new();
        for g in graphs {
            let outcome = compressor.compress(g);
            let cuts: Vec<Bipartition> = outcome
                .components
                .iter()
                .map(|c| {
                    mec_spectral::SpectralBisector::new()
                        .bisect(c.quotient.graph())
                        .expect("non-empty component")
                        .partition
                })
                .collect();
            ps.add_user(g, &outcome, &cuts);
        }
        ps
    }

    #[test]
    fn incremental_objective_matches_scenario_evaluation() {
        let g = NetgenSpec::new(60, 150).seed(4).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        let mut ledger = Ledger::new(&ps, &p);
        let state = ObjectiveState::open(&mut ledger, &p);
        let scenario = Scenario::new(p).with_user(UserWorkload::new("u", g));
        let eval = scenario.evaluate(&ps.plan()).unwrap();
        assert!(
            (state.objective() - eval.totals.objective()).abs() < 1e-9,
            "incremental {} vs model {}",
            state.objective(),
            eval.totals.objective()
        );
        // and after greedy runs
        run_greedy_cold(&mut ps, &p, GreedyMode::Lazy);
        let mut ledger = Ledger::new(&ps, &p);
        let state2 = ObjectiveState::open(&mut ledger, &p);
        let eval2 = scenario.evaluate(&ps.plan()).unwrap();
        assert!((state2.objective() - eval2.totals.objective()).abs() < 1e-9);
    }

    #[test]
    fn batch_delta_predicts_applied_change() {
        let g = NetgenSpec::new(40, 100).seed(7).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        let mut ledger = Ledger::new(&ps, &p);
        let mut state = ObjectiveState::open(&mut ledger, &p);
        for i in 0..ps.parts_of(0).len() {
            let to = ps.side(0, i).flipped();
            let before = state.objective();
            let predicted = state.batch_delta(&ps, 0, Batch::One(i), to);
            state.apply_batch(&mut ps, 0, Batch::One(i), to);
            let after = state.objective();
            assert!(
                (after - before - predicted).abs() < 1e-9,
                "part {i}: predicted {predicted}, actual {}",
                after - before
            );
        }
    }

    #[test]
    fn swap_delta_predicts_applied_change() {
        let g = NetgenSpec::new(50, 130).seed(3).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        let mut ledger = Ledger::new(&ps, &p);
        let mut state = ObjectiveState::open(&mut ledger, &p);
        for c in 0..ps.components_of(0).len() {
            let Some((to_remote, to_local, predicted)) = state.swap_delta(&ps, 0, c) else {
                continue;
            };
            let before = state.objective();
            state.apply_batch(&mut ps, 0, Batch::One(to_local), Side::Local);
            state.apply_batch(&mut ps, 0, Batch::One(to_remote), Side::Remote);
            assert!(
                (state.objective() - before - predicted).abs() < 1e-9,
                "component {c}"
            );
        }
    }

    #[test]
    fn greedy_never_increases_objective() {
        let g = NetgenSpec::new(80, 250).seed(2).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let out = run_greedy_cold(&mut ps, &params(), GreedyMode::Lazy);
        assert!(out.final_objective <= out.initial_objective + 1e-9);
    }

    #[test]
    fn lazy_and_exhaustive_reach_comparable_optima() {
        for seed in [1u64, 5, 9, 13] {
            let g = NetgenSpec::new(70, 200).seed(seed).generate().unwrap();
            let mut ps_a = build_ps(std::slice::from_ref(&g));
            let mut ps_b = ps_a.clone();
            let a = run_greedy_cold(&mut ps_a, &params(), GreedyMode::Exhaustive);
            let b = run_greedy_cold(&mut ps_b, &params(), GreedyMode::Lazy);
            // different move orders may land in different local optima;
            // they must be close and both below the start
            let denom = a.final_objective.abs().max(1.0);
            assert!(
                (a.final_objective - b.final_objective).abs() / denom < 0.05,
                "seed {seed}: exhaustive {} vs lazy {}",
                a.final_objective,
                b.final_objective
            );
            assert!(a.final_objective <= a.initial_objective + 1e-9);
            assert!(b.final_objective <= b.initial_objective + 1e-9);
        }
    }

    #[test]
    fn greedy_result_is_locally_optimal() {
        let g = NetgenSpec::new(50, 140).seed(11).generate().unwrap();
        let mut ps = build_ps(std::slice::from_ref(&g));
        let p = params();
        run_greedy_cold(&mut ps, &p, GreedyMode::Exhaustive);
        let mut ledger = Ledger::new(&ps, &p);
        let state = ObjectiveState::open(&mut ledger, &p);
        for mv in all_moves(&ps) {
            if let Some(g) = state.gain_of(&ps, mv) {
                assert!(g <= 1e-6, "{mv:?} still improves after convergence");
            }
        }
    }

    #[test]
    fn multi_user_contention_reaches_partial_equilibrium() {
        // symmetric crowd with a server sized so that only some users
        // can profitably offload: the search must keep a middle ground,
        // not collapse to all-local or all-remote.
        let p = SystemParams {
            server_capacity: 300.0,
            ..params()
        };
        let graphs: Vec<_> = (0..40)
            .map(|i| {
                NetgenSpec::new(60, 150)
                    .seed(20 + (i % 3))
                    .generate()
                    .unwrap()
            })
            .collect();
        let mut ps = build_ps(&graphs);
        run_greedy_cold(&mut ps, &p, GreedyMode::Lazy);
        let offloaders = (0..ps.user_count())
            .filter(|&u| ps.work_split_of_user(u).1 > 1.0)
            .count();
        assert!(
            offloaders > 0 && offloaders < 40,
            "expected partial equilibrium, got {offloaders}/40 offloaders"
        );
    }

    #[test]
    fn contention_monotonically_reduces_offloading() {
        let p = params();
        let graphs_few: Vec<_> = (0..2)
            .map(|i| NetgenSpec::new(50, 140).seed(20 + i).generate().unwrap())
            .collect();
        let graphs_many: Vec<_> = (0..12)
            .map(|i| {
                NetgenSpec::new(50, 140)
                    .seed(20 + (i % 2))
                    .generate()
                    .unwrap()
            })
            .collect();
        let mut ps_few = build_ps(&graphs_few);
        let mut ps_many = build_ps(&graphs_many);
        run_greedy_cold(&mut ps_few, &p, GreedyMode::Lazy);
        run_greedy_cold(&mut ps_many, &p, GreedyMode::Lazy);
        let remote_frac = |ps: &PartSystem| {
            let (mut total, mut remote) = (0.0, 0.0);
            for u in 0..ps.user_count() {
                for (q, &side) in ps.parts_of(u).iter().zip(ps.sides_of(u)) {
                    total += q.work;
                    if side == Side::Remote {
                        remote += q.work;
                    }
                }
            }
            remote / total
        };
        assert!(
            remote_frac(&ps_many) <= remote_frac(&ps_few) + 1e-9,
            "contention must not increase offloading"
        );
    }

    #[test]
    fn fifo_policy_is_priced_consistently() {
        let mut p = params();
        p.allocation = mec_model::AllocationPolicy::Fifo;
        let graphs: Vec<_> = (0..3)
            .map(|i| NetgenSpec::new(40, 100).seed(30 + i).generate().unwrap())
            .collect();
        let mut ps = build_ps(&graphs);
        let mut ledger = Ledger::new(&ps, &p);
        let state = ObjectiveState::open(&mut ledger, &p);
        let scenario = Scenario::new(p).with_users(
            graphs
                .iter()
                .enumerate()
                .map(|(i, g)| UserWorkload::new(format!("u{i}"), g.clone())),
        );
        let eval = scenario.evaluate(&ps.plan()).unwrap();
        assert!(
            (state.objective() - eval.totals.objective()).abs() < 1e-9,
            "incremental {} vs model {}",
            state.objective(),
            eval.totals.objective()
        );
        // delta prediction under FIFO, both directions
        let mut state = state;
        for to in [Side::Local, Side::Remote] {
            let (u, i) = (0usize, 0usize);
            if ps.side(u, i) == to {
                continue;
            }
            let before = state.objective();
            let predicted = state.batch_delta(&ps, u, Batch::One(i), to);
            state.apply_batch(&mut ps, u, Batch::One(i), to);
            assert!((state.objective() - before - predicted).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_from_converged_state_is_a_no_op() {
        let graphs: Vec<_> = (0..6)
            .map(|i| NetgenSpec::new(50, 140).seed(40 + i).generate().unwrap())
            .collect();
        let mut ps = build_ps(&graphs);
        let p = params();
        let mut ledger = Ledger::new(&ps, &p);
        run_greedy(
            &mut ps,
            &mut ledger,
            &p,
            GreedyMode::Lazy,
            &mec_obs::NullSink,
            None,
        );
        let plan_before = ps.plan();
        let out = run_greedy(
            &mut ps,
            &mut ledger,
            &p,
            GreedyMode::Lazy,
            &mec_obs::NullSink,
            Some(&[]),
        );
        assert_eq!(out.moves, 0, "a converged placement has no improving move");
        assert_eq!(ps.plan(), plan_before);
    }

    #[test]
    fn warm_start_after_churn_matches_full_quality() {
        // converge on 5 users, remove one and add another, then warm
        // replan; the objective must be no worse than a from-scratch
        // greedy over the same crowd.
        let p = SystemParams {
            server_capacity: 800.0,
            ..params()
        };
        for seed in [1u64, 7, 21] {
            let graphs: Vec<_> = (0..5)
                .map(|i| {
                    NetgenSpec::new(50, 140)
                        .seed(seed * 100 + i)
                        .generate()
                        .unwrap()
                })
                .collect();
            let mut ps = build_ps(&graphs);
            let mut ledger = Ledger::new(&ps, &p);
            run_greedy(
                &mut ps,
                &mut ledger,
                &p,
                GreedyMode::Lazy,
                &mec_obs::NullSink,
                None,
            );
            ps.remove_user(2);
            ledger.remove_user(2);
            let newcomer = NetgenSpec::new(50, 140)
                .seed(seed * 100 + 9)
                .generate()
                .unwrap();
            let compressor =
                Compressor::new(CompressionConfig::new().threshold(ThresholdRule::MeanFactor(1.5)));
            let outcome = compressor.compress(&newcomer);
            let cuts: Vec<Bipartition> = outcome
                .components
                .iter()
                .map(|c| {
                    mec_spectral::SpectralBisector::new()
                        .bisect(c.quotient.graph())
                        .expect("non-empty component")
                        .partition
                })
                .collect();
            ps.add_user(&newcomer, &outcome, &cuts);
            ledger.add_user();
            let dirty = [ps.user_count() - 1];
            let warm = run_greedy(
                &mut ps,
                &mut ledger,
                &p,
                GreedyMode::Lazy,
                &mec_obs::NullSink,
                Some(&dirty),
            );

            let mut crowd: Vec<_> = graphs;
            crowd.remove(2);
            crowd.push(newcomer);
            let mut fresh = build_ps(&crowd);
            let full = run_greedy_cold(&mut fresh, &p, GreedyMode::Lazy);
            let denom = full.final_objective.abs().max(1.0);
            assert!(
                warm.final_objective <= full.final_objective + 1e-9 * denom,
                "seed {seed}: warm {} worse than full {}",
                warm.final_objective,
                full.final_objective
            );
        }
    }

    #[test]
    fn parts_coupled_to_pinned_nodes_come_home_when_tx_is_ruinous() {
        // pinned —1000— free: keeping the free node remote means paying
        // the huge pinned-edge transmission forever.
        let mut b = GraphBuilder::new();
        let pin = b.add_pinned_node(1.0);
        let free = b.add_node(1.0);
        b.add_edge(pin, free, 1000.0).unwrap();
        let g = b.build();
        let mut p = params();
        p.tx_power = 1000.0;
        let mut ps = build_ps(std::slice::from_ref(&g));
        let out = run_greedy_cold(&mut ps, &p, GreedyMode::Lazy);
        assert!(ps.sides_of(0).iter().all(|&s| s == Side::Local));
        assert!(out.final_objective <= out.initial_objective);
    }

    #[test]
    fn loose_heavy_work_goes_remote() {
        // two heavy, barely-coupled functions and a fast uncontended
        // server: the search should ship both out.
        let mut b = GraphBuilder::new();
        let x = b.add_node(500.0);
        let y = b.add_node(500.0);
        b.add_edge(x, y, 0.5).unwrap();
        let g = b.build();
        let mut ps = build_ps(std::slice::from_ref(&g));
        run_greedy_cold(&mut ps, &params(), GreedyMode::Lazy);
        assert!(
            ps.sides_of(0).iter().all(|&s| s == Side::Remote),
            "heavy loose work should offload entirely"
        );
    }
}
