//! Dynamic multi-user sessions: join, leave, re-plan.
//!
//! The paper solves a static snapshot, but MEC crowds churn: users walk
//! in and out of the cell. The per-user work — compression and
//! minimum cuts — does not depend on who else is present, only the
//! greedy placement does. [`OffloadSession`] exploits that twice: each
//! user's graph is compressed and cut **once** at join time, and the
//! converged part placement and its priced report persist across
//! replans — a churn event re-seats only the affected user's parts, the
//! next [`replan`](OffloadSession::replan) warm-starts the greedy
//! search from the previous equilibrium, and only the churned and moved
//! users' report entries are re-derived. When accumulated churn exceeds
//! a configurable drift bound (a bound of `0.0` trips on any churn),
//! the session rebuilds the placement and the report from scratch.

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
use std::sync::Arc;

/// One user's cached pipeline front-end: the compression outcome,
/// per-component cuts, and the wall-clock both took, computed at join
/// time.
#[derive(Debug, Clone)]
struct PreparedUser {
    name: String,
    graph: Arc<Graph>,
    frontend: FrontEnd,
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
/// `OffloadSession::users[i]` at all times — joins append or replace in
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

    /// Formula (2) and the totals: every user's own terms are current,
    /// so one fold over the ledger gives the crowd sums and the
    /// offloaders whose server shares depend on them.
    fn settle(&mut self, params: &SystemParams) {
        let mut local = 0.0;
        let mut tx = 0.0;
        self.offloaders.clear();
        for (u, t) in self.ledger.terms().iter().enumerate() {
            local += t.local;
            tx += t.tx;
            if t.remote > 0.0 {
                self.offloaders.push(u);
            }
        }
        let evaluation = &mut self.report.evaluation;
        let server = share_server(params, &mut evaluation.per_user, &self.offloaders);
        evaluation.totals = CostSummary::from_sums(params, local, tx, server);
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
    users: Vec<PreparedUser>,
    /// The session-owned execution context: backend, sink, and (on the
    /// serial backend) the cut arena recycled across every admission.
    ctx: ExecCtx,
    /// Fraction of the crowd allowed to churn between replans before a
    /// replan discards the warm start and rebuilds from scratch.
    drift_limit: f64,
    /// Churn events (join, rejoin, leave) since the last replan.
    churned: usize,
    /// Front-end compression and cutting time summed over the crowd.
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
    /// one stage task per user. Results are identical to the serial
    /// backend either way.
    pub fn with_cluster(mut self, cluster: Arc<Cluster>) -> Self {
        self.ctx = self.ctx.into_cluster(cluster);
        self
    }

    /// Replaces the session's whole execution context (backend, sink,
    /// seed) with `ctx`.
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
        self
    }

    /// Routes session telemetry to `sink`: `session.join` /
    /// `session.replan` spans, churn events, and what the compression
    /// and greedy stages emit. (The cut strategy keeps its own sink;
    /// use [`with_traced_strategy`](Self::with_traced_strategy) to
    /// route the eigensolver too.)
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.ctx = self.ctx.with_sink(sink);
        self
    }

    /// Like [`with_trace_sink`](Self::with_trace_sink) but also routes
    /// the given [`StrategyKind`]'s internals (the spectral
    /// eigensolver) through the sink.
    pub fn with_traced_strategy(
        mut self,
        strategy: &StrategyKind,
        sink: Arc<dyn TraceSink>,
    ) -> Self {
        self.strategy = strategy.build_with_sink(Arc::clone(&sink));
        self.ctx = self.ctx.with_sink(sink);
        self
    }

    /// Number of users currently in the session.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// `true` if a user with this name is present.
    pub fn contains(&self, name: &str) -> bool {
        self.users.iter().any(|u| u.name == name)
    }

    /// The report of the last [`replan`](Self::replan); `None` before
    /// the first. Churn since then shows up only at the next replan.
    pub fn report(&self) -> Option<&OffloadReport> {
        self.state.as_ref().map(|st| &st.report)
    }

    /// Admits a user, running their compression and cuts once. A user
    /// with the same name replaces the previous entry (e.g. after an
    /// app update changed the graph).
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
        let frontend = prepare_users(
            &mut self.ctx,
            &self.compressor,
            self.strategy.as_ref(),
            vec![Arc::clone(&graph)],
        )?
        .pop()
        .expect("one front-end per graph");
        self.insert(PreparedUser {
            name,
            graph,
            frontend,
        });
        let sink = self.ctx.sink();
        sink.counter_add("session.joins", 1);
        if sink.enabled() {
            sink.event(
                "session.join",
                &[("users", FieldValue::from(self.users.len()))],
            );
        }
        scope.finish();
        Ok(())
    }

    /// Admits a batch of users at once through the same unified
    /// front-end path as [`join`](Self::join): on the cluster backend
    /// every joining user's front-end — compression plus per-component
    /// cuts — runs as its own stage task; on the serial backend the
    /// batch is walked on the calling thread, recycling the ctx-owned
    /// cut arena. Either way the result is identical to calling
    /// [`join`](Self::join) once per user in batch order: later
    /// duplicates (in the batch or already present) replace earlier
    /// entries.
    ///
    /// On error nothing is admitted: the batch joins all-or-nothing,
    /// the reported error is the first failing user's (in batch
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
        let batch: Vec<(String, Arc<Graph>)> = users.into_iter().collect();
        let scope = self
            .ctx
            .scope("session.join_many", "session.join_many_nanos");
        let graphs: Vec<_> = batch.iter().map(|(_, g)| Arc::clone(g)).collect();
        let frontends = prepare_users(
            &mut self.ctx,
            &self.compressor,
            self.strategy.as_ref(),
            graphs,
        )?;
        let joined = batch.len();
        for ((name, graph), frontend) in batch.into_iter().zip(frontends) {
            self.insert(PreparedUser {
                name,
                graph,
                frontend,
            });
        }
        let sink = self.ctx.sink();
        sink.counter_add("session.joins", joined as u64);
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

    /// Inserts or replaces a prepared user (same-name join replaces
    /// the previous workload), keeping the persisted placement
    /// slot-aligned: a rejoin re-seats the slot's parts in place, a
    /// fresh join appends, and either way the slot is marked dirty for
    /// the next warm-started replan.
    fn insert(&mut self, prepared: PreparedUser) {
        self.churned += 1;
        self.frontend.compression += prepared.frontend.compression;
        self.frontend.cutting += prepared.frontend.cutting;
        let stats = prepared.frontend.outcome.stats;
        match self.users.iter().position(|u| u.name == prepared.name) {
            Some(i) => {
                if let Some(st) = self.state.as_mut() {
                    st.ps.replace_user(
                        i,
                        &prepared.graph,
                        &prepared.frontend.outcome,
                        &prepared.frontend.cuts,
                    );
                    st.dirty.push(i);
                    st.pending.push(SlotChange::Replaced(i, stats));
                }
                let old = std::mem::replace(&mut self.users[i], prepared);
                self.frontend.compression -= old.frontend.compression;
                self.frontend.cutting -= old.frontend.cutting;
            }
            None => {
                if let Some(st) = self.state.as_mut() {
                    let i = st.ps.add_user(
                        &prepared.graph,
                        &prepared.frontend.outcome,
                        &prepared.frontend.cuts,
                    );
                    st.ledger.add_user();
                    st.dirty.push(i);
                    st.pending.push(SlotChange::Appended(stats));
                }
                self.users.push(prepared);
            }
        }
    }

    /// Removes the user at slot `i`, shifting later slots down and
    /// keeping the persisted placement (and its dirty set) aligned.
    fn remove_at(&mut self, i: usize) {
        let gone = self.users.remove(i);
        self.frontend.compression -= gone.frontend.compression;
        self.frontend.cutting -= gone.frontend.cutting;
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
        let Some(i) = self.users.iter().position(|u| u.name == name) else {
            return false;
        };
        let scope = self.ctx.scope("session.leave", "session.leave_nanos");
        self.remove_at(i);
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
        let mut slots: Vec<usize> = names
            .into_iter()
            .filter_map(|name| {
                let name = name.as_ref();
                self.users.iter().position(|u| u.name == name)
            })
            .collect();
        // descending removal order keeps the remaining slots valid
        slots.sort_unstable_by(|a, b| b.cmp(a));
        slots.dedup();
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
    /// users' plans and costs, and takes the totals from the ledger of
    /// per-user terms — its cost scales with churn, not the crowd.
    /// The first replan, and any after more than `drift_limit × crowd`
    /// churn events, rebuild placement and report from scratch.
    ///
    /// The report's `timings.compression` / `timings.cutting` are the
    /// *cached* per-user front-end times recorded at join time (summed
    /// over the current crowd), so a session report accounts for the
    /// same three stages a one-shot
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
            ps.add_user(&u.graph, &u.frontend.outcome, &u.frontend.cuts);
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
            compression: self
                .users
                .iter()
                .map(|u| u.frontend.outcome.stats)
                .collect(),
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
        let stats: Vec<_> = session
            .users
            .iter()
            .map(|u| u.frontend.outcome.stats)
            .collect();
        assert_eq!(report.compression, stats);
        let compression = session.users.iter().map(|u| u.frontend.compression).sum();
        let cutting = session.users.iter().map(|u| u.frontend.cutting).sum();
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
        use mec_obs::Recorder;

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
                    let sink = Arc::new(Recorder::new());
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
