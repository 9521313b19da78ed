//! Dynamic multi-user sessions: join, leave, re-plan.
//!
//! The paper solves a static snapshot, but MEC crowds churn: users walk
//! in and out of the cell. The per-user work — compression and
//! minimum cuts — depends on the user's graph alone; users are coupled
//! only through the shared server the greedy placement prices.
//! [`OffloadSession`] exploits that so a churn event costs one user's
//! work. Each distinct graph is compressed and cut **once**: present
//! users of the same `Arc<Graph>` share one front-end. A churn event
//! finds its user through a name index and re-seats only that user's
//! slot. The converged part placement, the greedy's ledger of per-user
//! terms and crowd sums, and the priced report persist across replans:
//! the next [`replan`](OffloadSession::replan) warm-starts the greedy
//! search from the previous equilibrium, and only the churned and moved
//! users' report entries are re-derived.
//!
//! Under the shared-capacity policies a warm replan costs `O(churn +
//! sharers)`: it walks the users with work on the server, the churned
//! ones and the ones the greedy moves, not the crowd. What stays
//! `O(crowd)`: FIFO, which prices every move against the whole queue; a
//! departure, which shifts every later user's slot and report entry
//! (the report's per-user `Vec::remove`s); and the rare rescan that must
//! hold every all-local user to their own bound. The crowd sums run
//! between slot-order refolds, one after every full replan and one
//! every `crowd` warm replans. When accumulated churn exceeds a
//! configurable drift bound (a bound of `0.0` trips on any churn), the
//! session rebuilds the placement and the report from scratch.

use crate::exec::{duration_sample, ExecCtx};
use crate::frontend::{prepare_users, FrontEnd};
use crate::greedy::{run_greedy, GreedyMode, Ledger};
use crate::parts::PartSystem;
use crate::strategy::{CutStrategy, StrategyKind};
use crate::{OffloadReport, PipelineError, StageTimings};
use mec_engine::Cluster;
use mec_graph::{Bipartition, Graph, Side};
use mec_labelprop::{CompressionConfig, CompressionStats, Compressor};
use mec_model::{share_server, CostSummary, Evaluation, SystemParams, UserCost};
use mec_obs::{span, FieldValue, TraceSink};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// One present user: their graph and the front-end (compression
/// outcome and per-component cuts) every present user of that graph
/// shares.
#[derive(Debug, Clone)]
struct PreparedUser {
    /// Arrival number: ascends with the slot.
    arrival: u64,
    graph: Arc<Graph>,
    frontend: Arc<FrontEnd>,
    /// Whether this user's admission prepared the front-end, and so
    /// spent its time; `false` when it reused a present user's.
    charged: bool,
}

/// The key of a graph in the front-end map: its address, which no other
/// graph can take while a present user holds the `Arc`.
fn graph_key(graph: &Arc<Graph>) -> usize {
    Arc::as_ptr(graph) as usize
}

/// The slot of the user with this arrival number.
fn slot_at(users: &[PreparedUser], arrival: u64) -> usize {
    users
        .binary_search_by_key(&arrival, |u| u.arrival)
        .expect("every indexed user is present")
}

/// How a churn event moved the crowd's slots; replayed onto the
/// persisted report at the next replan.
#[derive(Debug, Clone, Copy)]
enum SlotChange {
    /// The user at this slot left; later slots shifted down.
    Removed(usize),
    /// A user was appended.
    Appended(CompressionStats),
    /// The user at this slot re-joined with a new workload.
    Replaced(usize, CompressionStats),
}

/// The placement and priced report carried across replans.
///
/// Invariant: part-system and ledger user slot `i` is
/// `OffloadSession::users[i]` at all times — joins append or re-seat in
/// place, leaves remove order-preservingly — so delta plans and
/// evaluations come out in the same user order a rebuild produces. The
/// report stays the last replan's until the next one replays `pending`
/// onto it and re-derives the entries churn or the greedy touched.
struct Persisted {
    ps: PartSystem,
    ledger: Ledger,
    report: OffloadReport,
    /// User slots churned since the last replan (unsorted, may repeat).
    dirty: Vec<usize>,
    /// Slot changes since the last replan, in order.
    pending: Vec<SlotChange>,
    /// Scratch: the users whose report entries a replan re-derives.
    changed: Vec<usize>,
    /// Scratch: the users with work on the server.
    offloaders: Vec<usize>,
}

impl Persisted {
    /// Replays the slot changes onto the report, re-derives the plan and
    /// cost of every churned or moved user from their parts, and
    /// settles the server shares and totals.
    fn catch_up(&mut self, params: &SystemParams) {
        let report = &mut self.report;
        for change in self.pending.drain(..) {
            match change {
                SlotChange::Removed(i) => {
                    report.plan.remove(i);
                    report.evaluation.per_user.remove(i);
                    report.compression.remove(i);
                }
                SlotChange::Appended(stats) => {
                    report.plan.push(Bipartition::uniform(0, Side::Local));
                    report.evaluation.per_user.push(UserCost::default());
                    report.compression.push(stats);
                }
                SlotChange::Replaced(i, stats) => report.compression[i] = stats,
            }
        }
        self.changed.clear();
        self.changed.extend_from_slice(&self.dirty);
        self.changed.extend_from_slice(self.ledger.moved());
        self.changed.sort_unstable();
        self.changed.dedup();
        for &u in &self.changed {
            self.ps.write_user_plan(u, &mut report.plan[u]);
            report.evaluation.per_user[u] = priced(params, &self.ledger, u);
        }
        self.dirty.clear();
        self.settle(params);
    }

    /// Formula (2) and the totals: the ledger keeps the crowd's local
    /// and transmission sums and who has work on the server, so only
    /// the offloaders, whose server shares depend on one another, are
    /// walked.
    fn settle(&mut self, params: &SystemParams) {
        self.ledger.sharers(&mut self.offloaders);
        let evaluation = &mut self.report.evaluation;
        let server = share_server(params, &mut evaluation.per_user, &self.offloaders);
        let totals = self.ledger.totals();
        evaluation.totals = CostSummary::from_sums(params, totals.lw, totals.tv, server);
    }
}

/// User `u`'s device and radio costs from their ledger terms.
fn priced(params: &SystemParams, ledger: &Ledger, u: usize) -> UserCost {
    let t = ledger.terms()[u];
    UserCost::unshared(params, t.local, t.remote, t.tx)
}

/// A long-lived multi-user offloading session.
///
/// # Example
///
/// ```
/// use copmecs_core::OffloadSession;
/// use mec_model::SystemParams;
/// use mec_netgen::NetgenSpec;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut session = OffloadSession::new(SystemParams::default());
/// let g = Arc::new(NetgenSpec::new(100, 300).seed(1).generate()?);
/// session.join("alice", Arc::clone(&g))?;
/// session.join("bob", g)?;
/// let two = session.replan()?.evaluation.totals.objective();
/// session.leave("alice");
/// let one = session.replan()?.evaluation.totals.objective();
/// assert!(one < two);
/// # Ok(())
/// # }
/// ```
pub struct OffloadSession {
    params: SystemParams,
    compressor: Compressor,
    strategy: Box<dyn CutStrategy>,
    greedy_mode: GreedyMode,
    /// Present users in slot order.
    users: Vec<PreparedUser>,
    /// Name → arrival number of every present user.
    names: HashMap<String, u64>,
    /// The arrival number of the next new user.
    next_arrival: u64,
    /// Graph address → the front-end its present users share. An entry
    /// is dropped when its last user leaves or is replaced.
    frontends: HashMap<usize, Weak<FrontEnd>>,
    /// The session-owned execution context: backend, sink, and (on the
    /// serial backend) the cut arena recycled across every admission.
    ctx: ExecCtx,
    /// Fraction of the crowd allowed to churn between replans before a
    /// replan discards the warm start and rebuilds from scratch.
    drift_limit: f64,
    /// Churn events (join, rejoin, leave) since the last replan.
    churned: usize,
    /// Front-end time the present users' admissions spent.
    frontend: StageTimings,
    /// The persisted placement and report, once a replan has run.
    state: Option<Persisted>,
}

impl OffloadSession {
    /// A session with default compression, the spectral strategy and
    /// the lazy greedy driver.
    pub fn new(params: SystemParams) -> Self {
        Self::with_config(
            params,
            CompressionConfig::default(),
            StrategyKind::Spectral,
            GreedyMode::Lazy,
        )
    }

    /// A fully configured session.
    pub fn with_config(
        params: SystemParams,
        compression: CompressionConfig,
        strategy: StrategyKind,
        greedy_mode: GreedyMode,
    ) -> Self {
        OffloadSession {
            params,
            compressor: Compressor::new(compression),
            strategy: strategy.build(),
            greedy_mode,
            users: Vec::new(),
            names: HashMap::new(),
            next_arrival: 0,
            frontends: HashMap::new(),
            ctx: ExecCtx::serial(),
            drift_limit: 0.25,
            churned: 0,
            frontend: StageTimings::default(),
            state: None,
        }
    }

    /// Sets the drift bound: once more than `limit × crowd` churn
    /// events accumulate between replans, the warm start is discarded
    /// and the placement is rebuilt from scratch. `0.0` rebuilds after
    /// *any* churn — every replan then searches from the initial split,
    /// the from-scratch mode; the default is `0.25`.
    pub fn with_drift_limit(mut self, limit: f64) -> Self {
        self.drift_limit = limit.max(0.0);
        self
    }

    /// Switches the session's execution context onto `cluster`: every
    /// admission ([`join`](Self::join) and
    /// [`join_many`](Self::join_many)) then fans its front-ends out as
    /// one stage task per distinct graph no present user already runs,
    /// and none when every graph is shared. Results are identical to
    /// the serial backend either way.
    pub fn with_cluster(mut self, cluster: Arc<Cluster>) -> Self {
        self.ctx = self.ctx.into_cluster(cluster);
        self
    }

    /// Replaces the session's whole execution context (backend and
    /// sink) with `ctx`.
    pub fn with_exec_ctx(mut self, ctx: ExecCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Replaces the cut backend with a custom [`CutStrategy`]
    /// implementation (the [`StrategyKind`]-less analogue of
    /// [`with_config`](Self::with_config); also how tests inject
    /// failing strategies).
    pub fn with_strategy(mut self, strategy: Box<dyn CutStrategy>) -> Self {
        self.strategy = strategy;
        self.frontends.clear();
        self
    }

    /// Routes all session telemetry to `sink`: `session.join` /
    /// `session.replan` spans, churn events, and what the compression,
    /// cut (the eigensolver included) and greedy stages emit.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.ctx = self.ctx.with_sink(sink);
        self
    }

    /// Live entries of the front-end map.
    #[cfg(test)]
    fn frontend_entries(&self) -> usize {
        self.frontends.len()
    }

    /// Number of users currently in the session.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// `true` if a user with this name is present.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// The report of the last [`replan`](Self::replan); `None` before
    /// the first. Churn since then shows up only at the next replan.
    pub fn report(&self) -> Option<&OffloadReport> {
        self.state.as_ref().map(|st| &st.report)
    }

    /// Admits a user. Their graph is compressed and cut once per
    /// distinct graph: when a present user already runs the same
    /// `Arc<Graph>`, the admission shares that user's front-end and
    /// computes nothing. A user with the same name replaces the
    /// previous entry (e.g. after an app update changed the graph).
    ///
    /// The context scope guarantees the `session.join` span,
    /// `session.join_nanos` histogram, and sink flush happen on every
    /// exit — a failed admission is still fully accounted.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cut`] if a compressed component cannot be
    /// bipartitioned; [`PipelineError::Engine`] if the context's
    /// cluster backend failed.
    pub fn join(
        &mut self,
        name: impl Into<String>,
        graph: Arc<Graph>,
    ) -> Result<(), PipelineError> {
        let name = name.into();
        let scope = self.ctx.scope("session.join", "session.join_nanos");
        let (mut prepared, shared) = self.prepare(std::slice::from_ref(&graph))?;
        self.insert(name, prepared.pop().expect("one user per graph"));
        let sink = self.ctx.sink();
        sink.counter_add("session.joins", 1);
        sink.counter_add("session.frontends_shared", shared);
        if sink.enabled() {
            sink.event(
                "session.join",
                &[("users", FieldValue::from(self.users.len()))],
            );
        }
        scope.finish();
        Ok(())
    }

    /// Admits a batch of users at once through the same front-end path
    /// as [`join`](Self::join). Front-ends are computed only for the
    /// batch's distinct graphs that no present user runs: on the
    /// cluster backend each such graph's front-end — compression plus
    /// per-component cuts — runs as its own stage task; on the serial
    /// backend they are walked on the calling thread, recycling the
    /// ctx-owned cut arena. Either way the result is identical to
    /// calling [`join`](Self::join) once per user in batch order:
    /// later duplicates (in the batch or already present) replace
    /// earlier entries.
    ///
    /// On error nothing is admitted: the batch joins all-or-nothing,
    /// the reported error is the first failing graph's (in batch
    /// order), and the context scope still finishes the
    /// `session.join_many` span, records `session.join_many_nanos`,
    /// and flushes the sink.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cut`] if a compressed component cannot be
    /// bipartitioned; [`PipelineError::Engine`] if a stage task
    /// panicked or the pool is gone.
    pub fn join_many(
        &mut self,
        users: impl IntoIterator<Item = (String, Arc<Graph>)>,
    ) -> Result<(), PipelineError> {
        let (names, graphs): (Vec<String>, Vec<Arc<Graph>>) = users.into_iter().unzip();
        let scope = self
            .ctx
            .scope("session.join_many", "session.join_many_nanos");
        let (prepared, shared) = self.prepare(&graphs)?;
        let joined = names.len();
        for (name, user) in names.into_iter().zip(prepared) {
            self.insert(name, user);
        }
        let sink = self.ctx.sink();
        sink.counter_add("session.joins", joined as u64);
        sink.counter_add("session.frontends_shared", shared);
        if sink.enabled() {
            sink.event(
                "session.join_many",
                &[
                    ("joined", FieldValue::from(joined)),
                    ("users", FieldValue::from(self.users.len())),
                ],
            );
        }
        scope.finish();
        Ok(())
    }

    /// The users to admit for `graphs`, in order (arrival numbers not
    /// yet assigned), and how many of them share a front-end.
    ///
    /// A graph some present user runs reuses that user's front-end;
    /// every other distinct graph is prepared once, and its first user
    /// in the batch is charged the time. Sharing is exact: compression
    /// draws no randomness and every cut is scratch-free by the
    /// [`CutStrategy::cut_reusing`] contract.
    fn prepare(
        &mut self,
        graphs: &[Arc<Graph>],
    ) -> Result<(Vec<PreparedUser>, u64), PipelineError> {
        enum Source {
            Present(Arc<FrontEnd>),
            New(usize),
        }
        let mut fresh = Vec::new();
        let mut fresh_at = HashMap::new();
        let sources: Vec<Source> = graphs
            .iter()
            .map(|g| {
                let key = graph_key(g);
                match self.frontends.get(&key).and_then(Weak::upgrade) {
                    Some(frontend) => Source::Present(frontend),
                    None => Source::New(*fresh_at.entry(key).or_insert_with(|| {
                        fresh.push(Arc::clone(g));
                        fresh.len() - 1
                    })),
                }
            })
            .collect();
        let made: Vec<Arc<FrontEnd>> = if fresh.is_empty() {
            Vec::new()
        } else {
            prepare_users(
                &mut self.ctx,
                &self.compressor,
                self.strategy.as_ref(),
                fresh,
            )?
            .into_iter()
            .map(Arc::new)
            .collect()
        };
        let mut first_user = vec![true; made.len()];
        let mut shared = 0;
        let users = graphs
            .iter()
            .zip(sources)
            .map(|(graph, source)| {
                let (frontend, charged) = match source {
                    Source::New(k) => (
                        Arc::clone(&made[k]),
                        std::mem::replace(&mut first_user[k], false),
                    ),
                    Source::Present(frontend) => (frontend, false),
                };
                shared += u64::from(!charged);
                PreparedUser {
                    arrival: 0,
                    graph: Arc::clone(graph),
                    frontend,
                    charged,
                }
            })
            .collect();
        Ok((users, shared))
    }

    /// Inserts or replaces a prepared user (same-name join replaces
    /// the previous workload), keeping the persisted placement
    /// slot-aligned: a rejoin keeps the slot and its arrival number and
    /// re-seats the slot's parts in place, a fresh join appends, and
    /// either way the slot is marked dirty for the next warm-started
    /// replan.
    fn insert(&mut self, name: String, mut user: PreparedUser) {
        self.churned += 1;
        if user.charged {
            self.frontend.compression += user.frontend.compression;
            self.frontend.cutting += user.frontend.cutting;
        }
        self.frontends
            .insert(graph_key(&user.graph), Arc::downgrade(&user.frontend));
        let stats = user.frontend.stats;
        match self.names.get(&name) {
            Some(&arrival) => {
                let i = slot_at(&self.users, arrival);
                user.arrival = arrival;
                if let Some(st) = self.state.as_mut() {
                    st.ps
                        .replace_template(i, Arc::clone(&user.frontend.template));
                    st.dirty.push(i);
                    st.pending.push(SlotChange::Replaced(i, stats));
                }
                let old = std::mem::replace(&mut self.users[i], user);
                self.release(old);
            }
            None => {
                user.arrival = self.next_arrival;
                self.next_arrival += 1;
                self.names.insert(name, user.arrival);
                if let Some(st) = self.state.as_mut() {
                    let i = st.ps.add_template(Arc::clone(&user.frontend.template));
                    st.ledger.add_user();
                    st.dirty.push(i);
                    st.pending.push(SlotChange::Appended(stats));
                }
                self.users.push(user);
            }
        }
    }

    /// Lets go of a departed or replaced user: their front-end time
    /// leaves the sum, and when they were the last present user of
    /// their front-end, its map entry goes too.
    fn release(&mut self, gone: PreparedUser) {
        if gone.charged {
            self.frontend.compression -= gone.frontend.compression;
            self.frontend.cutting -= gone.frontend.cutting;
        }
        let key = graph_key(&gone.graph);
        let entry_is_theirs = self
            .frontends
            .get(&key)
            .is_some_and(|w| std::ptr::eq(w.as_ptr(), Arc::as_ptr(&gone.frontend)));
        if entry_is_theirs && Arc::strong_count(&gone.frontend) == 1 {
            self.frontends.remove(&key);
        }
    }

    /// Removes the user at slot `i` (already gone from the name index),
    /// shifting later slots down and keeping the persisted placement
    /// (and its dirty set) aligned. No part-system record names a slot;
    /// the ledger renumbers only its lists of sharers and unbounded
    /// users.
    fn remove_at(&mut self, i: usize) {
        let gone = self.users.remove(i);
        self.release(gone);
        self.churned += 1;
        if let Some(st) = self.state.as_mut() {
            st.ps.remove_user(i);
            st.ledger.remove_user(i);
            st.pending.push(SlotChange::Removed(i));
            st.dirty.retain_mut(|d| {
                if *d == i {
                    return false;
                }
                if *d > i {
                    *d -= 1;
                }
                true
            });
        }
    }

    /// Removes a user; returns `false` when no such user was present.
    ///
    /// Like every other session mutation, a successful leave runs the
    /// full telemetry epilogue (span, `session.leave_nanos` histogram,
    /// flush), so buffered churn records become visible immediately.
    pub fn leave(&mut self, name: &str) -> bool {
        let Some(arrival) = self.names.remove(name) else {
            return false;
        };
        let scope = self.ctx.scope("session.leave", "session.leave_nanos");
        self.remove_at(slot_at(&self.users, arrival));
        let sink = self.ctx.sink();
        sink.counter_add("session.leaves", 1);
        if sink.enabled() {
            sink.event(
                "session.leave",
                &[("users", FieldValue::from(self.users.len()))],
            );
        }
        scope.finish();
        true
    }

    /// Removes a batch of users under **one** telemetry scope —
    /// a single `session.leave_many` span, one
    /// `session.leave_many_nanos` sample, and one flush for the whole
    /// batch — so mass churn does not pay a per-user telemetry
    /// epilogue. Unknown names are skipped. Returns how many users
    /// actually left; when none did, no scope is opened at all.
    pub fn leave_many<I, S>(&mut self, names: I) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let index = &mut self.names;
        let users = &self.users;
        // a name leaves the index at its first sighting, so repeats
        // are skipped like unknown names
        let mut slots: Vec<usize> = names
            .into_iter()
            .filter_map(|name| index.remove(name.as_ref()))
            .map(|arrival| slot_at(users, arrival))
            .collect();
        // descending removal order keeps the remaining slots valid
        slots.sort_unstable_by(|a, b| b.cmp(a));
        if slots.is_empty() {
            return 0;
        }
        let scope = self
            .ctx
            .scope("session.leave_many", "session.leave_many_nanos");
        for &i in &slots {
            self.remove_at(i);
        }
        let sink = self.ctx.sink();
        sink.counter_add("session.leaves", slots.len() as u64);
        if sink.enabled() {
            sink.event(
                "session.leave_many",
                &[
                    ("left", FieldValue::from(slots.len())),
                    ("users", FieldValue::from(self.users.len())),
                ],
            );
        }
        scope.finish();
        slots.len()
    }

    /// Re-runs the placement for the current crowd using the cached
    /// per-user compression and cuts, and returns the priced result.
    ///
    /// The report persists between calls: a warm replan re-settles the
    /// churned users, re-derives only their and the greedy's moved
    /// users' plans and costs, and takes the totals from the ledger's
    /// running crowd sums and its users with work on the server. Under
    /// `EqualShare` and `ProportionalToLoad` its cost scales with churn
    /// and the sharers, not the crowd. FIFO prices every move against
    /// the whole queue, and the replan after a departure still shifts
    /// every later user's report entry, so those stay linear in the
    /// crowd. The sums are refolded in slot order after every full
    /// replan and once every `crowd` warm ones, so between refolds a
    /// warm report's local sum can differ from a rebuild's in its last
    /// bits. The first replan, and any after more than
    /// `drift_limit × crowd` churn events, rebuild placement and report
    /// from scratch.
    ///
    /// The report's `timings.compression` / `timings.cutting` are the
    /// front-end time each present user's admission spent, summed over
    /// the current crowd — zero for an admission that reused a present
    /// user's front-end — so a session report accounts for the same
    /// three stages a one-shot
    /// [`Offloader::solve`](crate::Offloader::solve) report does;
    /// only `timings.greedy` is spent during the replan itself.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Model`] if the session's system parameters are
    /// invalid; the session is then left as it was.
    pub fn replan(&mut self) -> Result<&OffloadReport, PipelineError> {
        // the replan-end-to-end distribution is the ROADMAP's SLO
        // metric: p99 over session.replan_nanos is what a streaming
        // service would alert on — the scope records it (and flushes)
        // on every exit, error returns included
        let scope = self.ctx.scope("session.replan", "session.replan_nanos");
        self.params.validate()?;
        let drift_cap = (self.drift_limit * self.users.len().max(1) as f64).floor() as usize;
        if self.state.is_some() && self.churned <= drift_cap {
            self.replan_delta();
        } else {
            self.replan_full();
        }
        self.churned = 0;
        self.ctx.sink().counter_add("session.replans", 1);
        scope.finish();
        Ok(&self.state.as_ref().expect("replanned above").report)
    }

    /// The from-scratch path: rebuild the part system for the whole
    /// crowd, run the greedy search from the initial split, and price
    /// every user.
    fn replan_full(&mut self) {
        let sink = self.ctx.sink().as_ref();
        sink.counter_add("session.replans_full", 1);
        let mut ps = PartSystem::new();
        for u in &self.users {
            ps.add_template(Arc::clone(&u.frontend.template));
        }
        let s = span(sink, "stage.greedy");
        let mut ledger = Ledger::new(&ps, &self.params);
        let greedy = run_greedy(
            &mut ps,
            &mut ledger,
            &self.params,
            self.greedy_mode,
            sink,
            None,
        );
        let greedy_time = s.finish();
        sink.histogram_record("stage.greedy_nanos", duration_sample(greedy_time));

        let report = OffloadReport {
            plan: ps.plan(),
            evaluation: Evaluation {
                per_user: (0..ps.user_count())
                    .map(|u| priced(&self.params, &ledger, u))
                    .collect(),
                totals: CostSummary::default(),
            },
            compression: self.users.iter().map(|u| u.frontend.stats).collect(),
            greedy,
            timings: StageTimings {
                greedy: greedy_time,
                ..self.frontend
            },
            strategy: self.strategy.name(),
        };
        let mut st = Persisted {
            ps,
            ledger,
            report,
            dirty: Vec::new(),
            pending: Vec::new(),
            changed: Vec::new(),
            offloaders: Vec::new(),
        };
        st.settle(&self.params);
        self.state = Some(st);
    }

    /// The warm-started path: re-settle the churned slots from the
    /// persisted placement, then bring the report current.
    fn replan_delta(&mut self) {
        let sink = self.ctx.sink().as_ref();
        sink.counter_add("session.replans_delta", 1);
        let st = self.state.as_mut().expect("delta replans need a placement");
        st.dirty.sort_unstable();
        st.dirty.dedup();
        let s = span(sink, "stage.greedy");
        let greedy = run_greedy(
            &mut st.ps,
            &mut st.ledger,
            &self.params,
            self.greedy_mode,
            sink,
            Some(&st.dirty),
        );
        let greedy_time = s.finish();
        sink.histogram_record("stage.greedy_nanos", duration_sample(greedy_time));
        st.catch_up(&self.params);
        st.report.greedy = greedy;
        st.report.timings = StageTimings {
            greedy: greedy_time,
            ..self.frontend
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Offloader;
    use mec_model::{Scenario, UserWorkload};
    use mec_netgen::NetgenSpec;

    fn graph(seed: u64) -> Arc<Graph> {
        Arc::new(NetgenSpec::new(90, 250).seed(seed).generate().unwrap())
    }

    #[test]
    fn session_matches_one_shot_solver() {
        let g1 = graph(1);
        let g2 = graph(2);
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", Arc::clone(&g1)).unwrap();
        session.join("b", Arc::clone(&g2)).unwrap();
        let via_session = session.replan().unwrap();

        let scenario = Scenario::new(SystemParams::default())
            .with_user(UserWorkload::new("a", g1))
            .with_user(UserWorkload::new("b", g2));
        let one_shot = Offloader::new().solve(&scenario).unwrap();
        assert_eq!(via_session.plan, one_shot.plan);
        assert!(
            (via_session.evaluation.totals.objective() - one_shot.evaluation.totals.objective())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn join_and_leave_bookkeeping() {
        let mut session = OffloadSession::new(SystemParams::default());
        assert_eq!(session.user_count(), 0);
        session.join("a", graph(1)).unwrap();
        session.join("b", graph(2)).unwrap();
        assert_eq!(session.user_count(), 2);
        assert!(session.contains("a"));
        assert!(session.leave("a"));
        assert!(!session.leave("a"));
        assert_eq!(session.user_count(), 1);
        assert!(!session.contains("a"));
    }

    #[test]
    fn rejoin_replaces_the_workload() {
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", graph(1)).unwrap();
        let before = session.replan().unwrap().plan[0].len();
        // same name, different (larger) app
        session
            .join(
                "a",
                Arc::new(NetgenSpec::new(150, 450).seed(9).generate().unwrap()),
            )
            .unwrap();
        assert_eq!(session.user_count(), 1);
        let after = session.replan().unwrap();
        assert_ne!(before, after.plan[0].len());
    }

    #[test]
    fn churn_changes_the_objective_monotonically() {
        let mut session = OffloadSession::new(SystemParams::default());
        let mut last = 0.0;
        for i in 0..4u64 {
            session.join(format!("u{i}"), graph(10 + i)).unwrap();
            let obj = session.replan().unwrap().evaluation.totals.objective();
            assert!(obj > last, "objective must grow as the crowd grows");
            last = obj;
        }
        for i in 0..4u64 {
            assert!(session.leave(&format!("u{i}")));
            let report = session.replan().unwrap();
            assert!(report.evaluation.totals.objective() < last);
        }
        assert_eq!(session.user_count(), 0);
        assert!(session.replan().unwrap().plan.is_empty());
    }

    #[test]
    fn joined_session_reports_front_end_timings() {
        // regression: replan used to report zero compression/cutting
        // time, silently dropping the work done in join
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", graph(5)).unwrap();
        session.join("b", graph(6)).unwrap();
        let report = session.replan().unwrap().timings;
        assert!(
            report.compression > std::time::Duration::ZERO,
            "compression time spent at join must surface in the report"
        );
        assert!(
            report.cutting > std::time::Duration::ZERO,
            "cutting time spent at join must surface in the report"
        );
        // leaving a user drops their cached front-end time too
        session.leave("a");
        let after = session.replan().unwrap();
        assert!(after.timings.compression < report.compression);
    }

    #[test]
    fn join_many_matches_repeated_joins() {
        let batch: Vec<(String, Arc<Graph>)> = (0..4u64)
            .map(|i| (format!("u{i}"), graph(20 + i)))
            .collect();

        let mut serial = OffloadSession::new(SystemParams::default());
        for (name, g) in &batch {
            serial.join(name.clone(), Arc::clone(g)).unwrap();
        }
        let mut batched = OffloadSession::new(SystemParams::default());
        batched.join_many(batch.clone()).unwrap();
        assert_eq!(
            serial.replan().unwrap().plan,
            batched.replan().unwrap().plan
        );

        let cluster = Arc::new(mec_engine::Cluster::new(2).unwrap());
        let mut clustered = OffloadSession::new(SystemParams::default()).with_cluster(cluster);
        clustered.join_many(batch).unwrap();
        assert_eq!(
            serial.replan().unwrap().plan,
            clustered.replan().unwrap().plan
        );
    }

    #[test]
    fn join_many_replaces_duplicates_like_join_does() {
        let small = graph(1);
        let big = Arc::new(NetgenSpec::new(150, 450).seed(9).generate().unwrap());
        let mut session = OffloadSession::new(SystemParams::default());
        session
            .join_many([
                ("a".to_string(), Arc::clone(&small)),
                ("b".to_string(), Arc::clone(&small)),
                // later duplicate in the same batch wins
                ("a".to_string(), Arc::clone(&big)),
            ])
            .unwrap();
        assert_eq!(session.user_count(), 2);
        let report = session.replan().unwrap();
        assert_eq!(report.plan[0].len(), big.node_count());
    }

    #[test]
    fn leave_many_matches_repeated_leaves() {
        let mut batched = OffloadSession::new(SystemParams::default());
        let mut serial = OffloadSession::new(SystemParams::default());
        for i in 0..5u64 {
            batched.join(format!("u{i}"), graph(30 + i)).unwrap();
            serial.join(format!("u{i}"), graph(30 + i)).unwrap();
        }
        // converge both so the batch departure exercises the persisted
        // placement's order-preserving removal
        batched.replan().unwrap();
        serial.replan().unwrap();
        // unknown names and duplicates are skipped, not counted
        assert_eq!(batched.leave_many(["u1", "u3", "u1", "ghost"]), 2);
        assert!(serial.leave("u1"));
        assert!(serial.leave("u3"));
        assert_eq!(batched.user_count(), 3);
        assert_eq!(
            batched.replan().unwrap().plan,
            serial.replan().unwrap().plan
        );
        assert_eq!(batched.leave_many(Vec::<String>::new()), 0);
    }

    /// A fresh session over `names` with graphs `graph(seed)`, replanned
    /// once — the from-scratch reference.
    fn fresh(names: &[(String, u64)]) -> OffloadSession {
        let mut s = OffloadSession::new(SystemParams::default());
        for (name, seed) in names {
            s.join(name.clone(), graph(*seed)).unwrap();
        }
        s.replan().unwrap();
        s
    }

    #[test]
    fn zero_drift_limit_rebuilds_like_a_fresh_session() {
        // a zero drift limit rebuilds after any churn, so every replan
        // matches a session that never saw the churn, bit for bit
        let mut strict = OffloadSession::new(SystemParams::default()).with_drift_limit(0.0);
        let mut crowd: Vec<(String, u64)> = (0..6u64).map(|i| (format!("u{i}"), 40 + i)).collect();
        for (name, seed) in &crowd {
            strict.join(name.clone(), graph(*seed)).unwrap();
        }
        strict.replan().unwrap();
        strict.leave("u2");
        crowd.remove(2);
        strict.join("u9", graph(49)).unwrap();
        crowd.push(("u9".to_string(), 49));
        let got = strict.replan().unwrap();
        let reference = fresh(&crowd);
        let want = reference.report().expect("replanned once");
        assert_eq!(got.plan, want.plan);
        assert_eq!(
            got.evaluation.totals.objective().to_bits(),
            want.evaluation.totals.objective().to_bits()
        );
        assert_eq!(got.greedy, want.greedy);
    }

    #[test]
    fn report_is_the_last_replans_until_the_next() {
        let mut session = OffloadSession::new(SystemParams::default());
        assert!(session.report().is_none());
        session.join("a", graph(1)).unwrap();
        session.join("b", graph(2)).unwrap();
        let first = session.replan().unwrap().clone();
        session.leave("a");
        session.join("c", graph(3)).unwrap();
        let held = session.report().expect("replanned once");
        assert_eq!(held.plan, first.plan);
        assert_eq!(held.evaluation, first.evaluation);
        let second = session.replan().unwrap();
        assert_eq!(second.plan.len(), 2);
        assert_eq!(second.compression.len(), 2);
        assert_eq!(second.evaluation.per_user.len(), 2);
    }

    /// splitmix64: a deterministic churn stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A generated app whose every third function weighs nothing.
    fn app(seed: u64) -> Arc<Graph> {
        let g = NetgenSpec::new(30, 80).seed(seed).generate().unwrap();
        let mut b = mec_graph::GraphBuilder::new();
        let ids: Vec<_> = g
            .node_ids()
            .map(|n| {
                let w = if n.index() % 3 == 0 {
                    0.0
                } else {
                    g.node_weight(n)
                };
                if g.is_offloadable(n) {
                    b.add_node(w)
                } else {
                    b.add_pinned_node(w)
                }
            })
            .collect();
        for e in g.edges() {
            b.add_edge(ids[e.source.index()], ids[e.target.index()], e.weight)
                .unwrap();
        }
        Arc::new(b.build())
    }

    fn assert_close(what: &str, got: f64, want: f64) {
        assert!(
            (got - want).abs() <= 1e-9 * got.abs().max(want.abs()),
            "{what}: persisted {got} vs oracle {want}"
        );
    }

    /// Everything a replan's report must agree with, recomputed from
    /// scratch: the plan of the session's part system, the model's
    /// pricing of that plan, and fresh front-end folds.
    fn check_against_oracles(session: &OffloadSession) {
        let st = session.state.as_ref().expect("replanned");
        let report = &st.report;
        assert_eq!(report.plan, st.ps.plan(), "persisted plan drifted");
        let oracle = mec_model::evaluate_plan_for(
            &session.params,
            session.users.iter().map(|u| u.graph.as_ref()),
            &report.plan,
        )
        .unwrap();
        let (got, want) = (&report.evaluation.totals, &oracle.totals);
        for (what, a, b) in [
            ("energy", got.energy, want.energy),
            ("time", got.time, want.time),
            ("local energy", got.local_energy, want.local_energy),
            ("tx energy", got.tx_energy, want.tx_energy),
            ("local time", got.local_time, want.local_time),
            ("remote time", got.remote_time, want.remote_time),
            ("tx time", got.tx_time, want.tx_time),
        ] {
            assert_close(what, a, b);
        }
        assert_eq!(report.evaluation.per_user.len(), oracle.per_user.len());
        for (u, (a, b)) in report
            .evaluation
            .per_user
            .iter()
            .zip(&oracle.per_user)
            .enumerate()
        {
            for (what, x, y) in [
                ("local work", a.local_work, b.local_work),
                ("remote work", a.remote_work, b.remote_work),
                ("tx volume", a.tx_volume, b.tx_volume),
                ("local time", a.local_time, b.local_time),
                ("remote time", a.remote_time, b.remote_time),
                ("wait time", a.wait_time, b.wait_time),
                ("tx time", a.tx_time, b.tx_time),
                ("local energy", a.local_energy, b.local_energy),
                ("tx energy", a.tx_energy, b.tx_energy),
            ] {
                assert_close(&format!("user {u} {what}"), x, y);
            }
        }
        let stats: Vec<_> = session.users.iter().map(|u| u.frontend.stats).collect();
        assert_eq!(report.compression, stats);
        let charged = || session.users.iter().filter(|u| u.charged);
        let compression = charged().map(|u| u.frontend.compression).sum();
        let cutting = charged().map(|u| u.frontend.cutting).sum();
        assert_eq!(report.timings.compression, compression);
        assert_eq!(report.timings.cutting, cutting);
    }

    /// Replans under the exact-rescan reference: every candidate priced.
    fn replan_exactly(session: &mut OffloadSession) -> OffloadReport {
        crate::greedy::EXACT_RESCAN.with(|e| e.set(true));
        let report = session.replan().unwrap().clone();
        crate::greedy::EXACT_RESCAN.with(|e| e.set(false));
        report
    }

    #[test]
    fn persisted_reports_match_the_oracles_under_random_churn() {
        use mec_model::AllocationPolicy;
        use mec_obs::ShardedRecorder;

        let mut certified = 0;
        for allocation in [
            AllocationPolicy::EqualShare,
            AllocationPolicy::ProportionalToLoad,
            AllocationPolicy::Fifo,
        ] {
            // A = (1 + p_c) / I_c = 0.2: at I_S = 2 no crowd makes
            // offloading pay, at 40 the (k+1)/I_S surcharge crosses A
            // near seven sharers, at 2000 it never does
            for server_capacity in [2.0, 40.0, 2000.0] {
                for seed in [5u64, 23] {
                    let params = SystemParams {
                        server_capacity,
                        allocation,
                        ..SystemParams::default()
                    };
                    let sink = Arc::new(ShardedRecorder::new());
                    let mut bounded = OffloadSession::new(params)
                        .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
                    let mut exact = OffloadSession::new(params);
                    let mut rng = Rng(seed);
                    let mut present: Vec<String> = Vec::new();
                    let mut next = 0u64;
                    for step in 0..30 {
                        let roll = rng.below(10);
                        if present.len() < 3 || roll < 4 {
                            let name = format!("u{next}");
                            let g = app(seed * 1000 + next);
                            next += 1;
                            bounded.join(name.clone(), Arc::clone(&g)).unwrap();
                            exact.join(name.clone(), g).unwrap();
                            present.push(name);
                        } else if roll < 7 {
                            let victim = present.remove(rng.below(present.len() as u64) as usize);
                            assert!(bounded.leave(&victim));
                            assert!(exact.leave(&victim));
                        } else {
                            let who = present[rng.below(present.len() as u64) as usize].clone();
                            let g = app(seed * 1000 + 500 + rng.below(8));
                            bounded.join(who.clone(), Arc::clone(&g)).unwrap();
                            exact.join(who, g).unwrap();
                        }
                        if step % 2 == 0 {
                            continue;
                        }
                        let reference = replan_exactly(&mut exact);
                        let got = bounded.replan().unwrap();
                        let what = format!("{allocation:?} I_S={server_capacity} seed {seed}");
                        assert_eq!(got.plan, reference.plan, "{what}: plans diverged");
                        assert_eq!(got.greedy.moves, reference.greedy.moves, "{what}");
                        assert_eq!(
                            got.greedy.final_objective.to_bits(),
                            reference.greedy.final_objective.to_bits(),
                            "{what}"
                        );
                        assert!(got.greedy.evaluations <= reference.greedy.evaluations);
                        check_against_oracles(&bounded);
                    }
                    certified += sink.counter_value("greedy.rescan_certified");
                }
            }
        }
        assert!(certified > 0, "the bound never settled a rescan");
    }

    /// `got` equals `want` within 1e-12 of `want`'s magnitude.
    fn assert_near(what: &str, got: f64, want: f64) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{what}: running {got} vs refold {want}"
        );
    }

    /// Drives 10⁴ seeded single-event replans over a crowd of about
    /// `crowd` users and, every 500 events, holds the ledger's per-user
    /// terms to a fresh derivation and its running totals, and the
    /// report's local and transmission sums, to a slot-order refold of
    /// those terms, within 1e-12 relative.
    fn running_totals_track_a_slot_order_refold(
        allocation: mec_model::AllocationPolicy,
        crowd: usize,
    ) {
        use crate::greedy::{UserTerms, EPS};

        let pool: Vec<Arc<Graph>> = (0..16).map(|i| app(700 + i)).collect();
        let params = SystemParams {
            server_capacity: 40.0,
            allocation,
            ..SystemParams::default()
        };
        let mut session = OffloadSession::new(params);
        let mut present: Vec<String> = (0..crowd).map(|i| format!("u{i}")).collect();
        session
            .join_many(
                present
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), Arc::clone(&pool[i % pool.len()]))),
            )
            .unwrap();
        session.replan().unwrap();
        let mut rng = Rng(97);
        let mut next = present.len();
        let mut sharers = 0;
        for event in 1..=10_000 {
            let roll = rng.below(10);
            let g = Arc::clone(&pool[rng.below(pool.len() as u64) as usize]);
            if present.len() < crowd - 10 || (roll < 4 && present.len() < crowd + 10) {
                let name = format!("u{next}");
                next += 1;
                session.join(name.clone(), g).unwrap();
                present.push(name);
            } else if roll < 7 {
                let victim = present.swap_remove(rng.below(present.len() as u64) as usize);
                assert!(session.leave(&victim));
            } else {
                let who = &present[rng.below(present.len() as u64) as usize];
                session.join(who.clone(), g).unwrap();
            }
            session.replan().unwrap();
            if event % 500 != 0 {
                continue;
            }
            let st = session.state.as_ref().expect("replanned");
            let mut want = UserTerms::default();
            for (u, t) in st.ledger.terms().iter().enumerate() {
                let fresh = UserTerms::of(&st.ps, u, params.control_overhead);
                let what = format!("{allocation:?} event {event} user {u}");
                assert_eq!(t.local.to_bits(), fresh.local.to_bits(), "{what}");
                assert_eq!(t.remote.to_bits(), fresh.remote.to_bits(), "{what}");
                assert_eq!(t.tx.to_bits(), fresh.tx.to_bits(), "{what}");
                want.local += t.local;
                want.remote += t.remote;
                want.tx += t.tx;
            }
            let got = st.ledger.totals();
            let what = |term: &str| format!("{allocation:?} event {event}: {term}");
            assert_near(&what("local work"), got.lw, want.local);
            assert_near(&what("remote work"), got.rw, want.remote);
            assert_near(&what("tx volume"), got.tv, want.tx);
            let offloaders = st.ledger.terms().iter().filter(|t| t.remote > EPS);
            assert_eq!(got.offloaders, offloaders.count(), "{}", what("sharers"));
            let totals = &st.report.evaluation.totals;
            let local_time = want.local / params.local_capacity;
            assert_near(&what("local time"), totals.local_time, local_time);
            assert_near(&what("tx time"), totals.tx_time, want.tx / params.bandwidth);
            sharers += got.offloaders;
        }
        assert!(sharers > 0, "{allocation:?}: nobody offloaded");
    }

    #[test]
    fn running_totals_track_a_refold_under_equal_share() {
        running_totals_track_a_slot_order_refold(mec_model::AllocationPolicy::EqualShare, 300);
    }

    #[test]
    fn running_totals_track_a_refold_under_proportional_share() {
        running_totals_track_a_slot_order_refold(
            mec_model::AllocationPolicy::ProportionalToLoad,
            300,
        );
    }

    /// FIFO prices every candidate against the whole queue, `O(crowd)`
    /// each and `O(crowd²)` per rescan, so its leg runs a smaller crowd.
    #[test]
    fn running_totals_track_a_refold_under_fifo() {
        running_totals_track_a_slot_order_refold(mec_model::AllocationPolicy::Fifo, 80);
    }

    /// Distinct graphs among the present users.
    fn distinct_graphs(session: &OffloadSession) -> usize {
        let mut keys: Vec<usize> = session.users.iter().map(|u| graph_key(&u.graph)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    fn compressions(sink: &mec_obs::ShardedRecorder) -> usize {
        sink.spans()
            .iter()
            .filter(|s| s.name == "stage.compression")
            .count()
    }

    #[test]
    fn users_of_one_graph_share_one_front_end_exactly() {
        use mec_obs::ShardedRecorder;

        let pool: Vec<Arc<Graph>> = (0..5).map(|i| app(900 + i)).collect();
        for seed in [3u64, 11] {
            let sink = Arc::new(ShardedRecorder::new());
            let mut shared = OffloadSession::new(SystemParams::default())
                .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
            // the reference: every admission a graph of its own
            let mut copied = OffloadSession::new(SystemParams::default());
            let copy = |g: usize| Arc::new((*pool[g]).clone());

            // the set-up batch repeats graphs: each is prepared once
            let mut present: Vec<(String, usize)> =
                (0..8).map(|i| (format!("u{i}"), i % 3)).collect();
            let batch = present
                .iter()
                .map(|(n, g)| (n.clone(), Arc::clone(&pool[*g])));
            shared.join_many(batch).unwrap();
            copied
                .join_many(present.iter().map(|(n, g)| (n.clone(), copy(*g))))
                .unwrap();
            assert_eq!(compressions(&sink), 3);
            let mut reused = 5;

            let mut rng = Rng(seed);
            let mut next = present.len();
            for step in 0..60 {
                let roll = rng.below(10);
                if present.len() > 1 && (4..7).contains(&roll) {
                    let (victim, _) = present.remove(rng.below(present.len() as u64) as usize);
                    assert!(shared.leave(&victim));
                    assert!(copied.leave(&victim));
                } else {
                    let g = rng.below(pool.len() as u64) as usize;
                    let held = present.iter().any(|&(_, h)| h == g);
                    let name = if present.is_empty() || roll < 4 {
                        next += 1;
                        present.push((format!("u{next}"), g));
                        format!("u{next}")
                    } else {
                        // resubmit, possibly of the graph the user runs
                        let who = rng.below(present.len() as u64) as usize;
                        present[who].1 = g;
                        present[who].0.clone()
                    };
                    let before = compressions(&sink);
                    shared.join(name.clone(), Arc::clone(&pool[g])).unwrap();
                    copied.join(name, copy(g)).unwrap();
                    let prepared = compressions(&sink) - before;
                    assert_eq!(prepared, usize::from(!held), "step {step}: graph {g}");
                    reused += usize::from(held);
                }
                assert_eq!(shared.frontend_entries(), distinct_graphs(&shared));
                assert_eq!(copied.frontend_entries(), copied.user_count());
                let want = copied.replan().unwrap().clone();
                let got = shared.replan().unwrap();
                let what = format!("seed {seed} step {step}");
                assert_eq!(got.plan, want.plan, "{what}");
                assert_eq!(got.greedy.moves, want.greedy.moves, "{what}");
                assert_eq!(
                    got.greedy.final_objective.to_bits(),
                    want.greedy.final_objective.to_bits(),
                    "{what}"
                );
                assert_eq!(got.compression, want.compression, "{what}");
            }
            assert_eq!(
                sink.counter_value("session.frontends_shared"),
                reused as u64
            );
            let names: Vec<String> = present.into_iter().map(|(n, _)| n).collect();
            assert_eq!(shared.leave_many(&names), names.len());
            assert_eq!(shared.frontend_entries(), 0);
        }
    }

    #[test]
    fn replan_is_deterministic() {
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", graph(3)).unwrap();
        session.join("b", graph(4)).unwrap();
        let x = session.replan().unwrap().plan.clone();
        let y = session.replan().unwrap();
        assert_eq!(x, y.plan);
    }
}
