//! Pricing an offloading plan: formulas (1)–(6).
//!
//! The model works on *graphs*, not on any particular container of
//! users: [`validate_plan_for`] and [`evaluate_plan_for`] take any
//! re-iterable sequence of `&Graph`, so a long-lived session can price
//! its live crowd directly — no intermediate
//! [`Scenario`]/`UserWorkload` rebuild (and none of its name clones or
//! `Arc` bumps) per replan. [`Scenario::evaluate`] is a thin wrapper
//! over the same functions.

use crate::{AllocationPolicy, ModelError, Scenario, SystemParams};
use mec_graph::{Bipartition, Graph, Side};
use serde::{Deserialize, Serialize};

/// Cost breakdown for one user under a given plan.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UserCost {
    /// Work units executed on the device.
    pub local_work: f64,
    /// Work units executed on the server.
    pub remote_work: f64,
    /// Data volume crossing the cut, including per-edge control
    /// overhead.
    pub tx_volume: f64,
    /// `t_c` — formula (1).
    pub local_time: f64,
    /// `Σ w / I_s` — the compute part of formula (2).
    pub remote_time: f64,
    /// `wt` — waiting for the server share, the second term of
    /// formula (2). Zero except under [`AllocationPolicy::Fifo`].
    pub wait_time: f64,
    /// `t_t` — formula (5).
    pub tx_time: f64,
    /// `e_c` — formula (3).
    pub local_energy: f64,
    /// `e_t` — formula (4).
    pub tx_energy: f64,
}

impl UserCost {
    /// A user's device and radio costs — formulas (1) and (3)–(5) — from
    /// their local work, remote work and transmission volume. The
    /// server terms of formula (2) depend on the whole crowd; they start
    /// at zero and [`share_server`] fills them in.
    pub fn unshared(
        params: &SystemParams,
        local_work: f64,
        remote_work: f64,
        tx_volume: f64,
    ) -> Self {
        let local_time = local_work / params.local_capacity; // (1)
        let tx_time = tx_volume / params.bandwidth; // (5)
        UserCost {
            local_work,
            remote_work,
            tx_volume,
            local_time,
            remote_time: 0.0,
            wait_time: 0.0,
            tx_time,
            local_energy: local_time * params.local_power, // (3)
            tx_energy: tx_time * params.tx_power,          // (4)
        }
    }

    /// The user's total time: `t_c + t_s (+ wt) + t_t`.
    pub fn time(&self) -> f64 {
        self.local_time + self.remote_time + self.wait_time + self.tx_time
    }

    /// The user's total energy: `e_c + e_t`.
    pub fn energy(&self) -> f64 {
        self.local_energy + self.tx_energy
    }
}

/// System-wide totals — the paper's `E` and `T` of formula (6).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostSummary {
    /// `E = Σ e_c + Σ e_t`.
    pub energy: f64,
    /// `T = Σ t_c + Σ t_s + Σ t_w (+ Σ t_t)`.
    pub time: f64,
    /// `Σ e_c` — the "local energy" series of Figs. 3 and 6.
    pub local_energy: f64,
    /// `Σ e_t` — the "transmission energy" series of Figs. 4 and 7.
    pub tx_energy: f64,
    /// `Σ t_c`.
    pub local_time: f64,
    /// `Σ (t_s + wt)`.
    pub remote_time: f64,
    /// `Σ t_t`.
    pub tx_time: f64,
}

impl CostSummary {
    /// The scalarised objective Algorithm 2 greedily minimises:
    /// `E + T`.
    pub fn objective(&self) -> f64 {
        self.energy + self.time
    }

    /// The totals of formula (6) from crowd-wide sums: the local work
    /// `Σ w_local`, the transmission volume `Σ tx` and the server time
    /// `Σ (t_s + wt)` (as [`share_server`] returns it). Equal, up to
    /// rounding, to summing every user's [`UserCost`] — without a walk
    /// over the crowd.
    pub fn from_sums(
        params: &SystemParams,
        local_work: f64,
        tx_volume: f64,
        server_time: f64,
    ) -> Self {
        let local_time = local_work / params.local_capacity;
        let tx_time = tx_volume / params.bandwidth;
        let local_energy = local_time * params.local_power;
        let tx_energy = tx_time * params.tx_power;
        CostSummary {
            energy: local_energy + tx_energy,
            time: local_time + server_time + tx_time,
            local_energy,
            tx_energy,
            local_time,
            remote_time: server_time,
            tx_time,
        }
    }
}

/// Formula (2): sets the server time — and under
/// [`AllocationPolicy::Fifo`] the waiting time — of every offloader in
/// `costs`, given as ascending indices, and returns their sum
/// `Σ (t_s + wt)`. Entries not listed are left alone, so their server
/// terms must already be zero.
///
/// # Panics
///
/// Panics if an index is out of bounds.
pub fn share_server(params: &SystemParams, costs: &mut [UserCost], offloaders: &[usize]) -> f64 {
    match params.allocation {
        AllocationPolicy::EqualShare => {
            let k = offloaders.len().max(1) as f64;
            let share = params.server_capacity / k;
            for &i in offloaders {
                costs[i].remote_time = costs[i].remote_work / share;
            }
        }
        AllocationPolicy::ProportionalToLoad => {
            let total: f64 = offloaders.iter().map(|&i| costs[i].remote_work).sum();
            if total > 0.0 {
                // share_i = I_S * w_i / total  →  t_s = total / I_S
                let t = total / params.server_capacity;
                for &i in offloaders {
                    costs[i].remote_time = t;
                }
            }
        }
        AllocationPolicy::Fifo => {
            let mut clock = 0.0;
            for &i in offloaders {
                costs[i].wait_time = clock;
                costs[i].remote_time = costs[i].remote_work / params.server_capacity;
                clock += costs[i].remote_time;
            }
        }
    }
    let mut server = 0.0;
    for &i in offloaders {
        server += costs[i].remote_time + costs[i].wait_time;
    }
    server
}

/// A full plan evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Per-user cost breakdowns, in scenario order.
    pub per_user: Vec<UserCost>,
    /// System totals.
    pub totals: CostSummary,
}

/// Validates `plan` against the system parameters and a sequence of
/// user graphs (in user order): one partition per graph, covering every
/// node, with pinned nodes kept local.
///
/// This is the container-free form of
/// [`Scenario::validate_plan`](Scenario::validate_plan) — sessions call
/// it against their live crowd without materialising a scenario.
///
/// # Errors
///
/// See [`ModelError`] variants for each violation.
pub fn validate_plan_for<'a, I>(
    params: &SystemParams,
    graphs: I,
    plan: &[Bipartition],
) -> Result<(), ModelError>
where
    I: IntoIterator<Item = &'a Graph>,
    I::IntoIter: ExactSizeIterator,
{
    params.validate()?;
    let graphs = graphs.into_iter();
    if plan.len() != graphs.len() {
        return Err(ModelError::PlanLengthMismatch {
            users: graphs.len(),
            plans: plan.len(),
        });
    }
    for (i, (graph, cut)) in graphs.zip(plan).enumerate() {
        if cut.len() < graph.node_count() {
            return Err(ModelError::PartitionTooSmall { user: i });
        }
        for n in graph.node_ids() {
            if !graph.is_offloadable(n) && cut.side(n) == Side::Remote {
                return Err(ModelError::PinnedNodeOffloaded { user: i, node: n });
            }
        }
    }
    Ok(())
}

/// Prices `plan` with the paper's cost model against a sequence of
/// user graphs (in user order) — the container-free form of
/// [`Scenario::evaluate`](Scenario::evaluate). The iterator must be
/// re-iterable (`Clone`) because validation and pass 1 each walk it
/// once.
///
/// # Errors
///
/// Any [`ModelError`] from [`validate_plan_for`].
pub fn evaluate_plan_for<'a, I>(
    params: &SystemParams,
    graphs: I,
    plan: &[Bipartition],
) -> Result<Evaluation, ModelError>
where
    I: IntoIterator<Item = &'a Graph>,
    I::IntoIter: ExactSizeIterator + Clone,
{
    let graphs = graphs.into_iter();
    validate_plan_for(params, graphs.clone(), plan)?;
    let p = *params;
    let n_users = graphs.len();

    // pass 1: raw work and transmission quantities
    let mut costs = Vec::with_capacity(n_users);
    for (g, cut) in graphs.zip(plan) {
        let mut volume = 0.0;
        let mut crossings = 0usize;
        for e in g.edges() {
            if cut.side(e.source) != cut.side(e.target) {
                volume += e.weight;
                crossings += 1;
            }
        }
        costs.push(UserCost::unshared(
            &p,
            cut.node_weight_on(g, Side::Local),
            cut.node_weight_on(g, Side::Remote),
            volume + crossings as f64 * p.control_overhead,
        ));
    }

    // pass 2: server shares and waiting (formula (2))
    let offloaders: Vec<usize> = (0..n_users)
        .filter(|&i| costs[i].remote_work > 0.0)
        .collect();
    let server_time = share_server(&p, &mut costs, &offloaders);

    let mut totals = CostSummary::default();
    for c in &costs {
        totals.local_energy += c.local_energy;
        totals.tx_energy += c.tx_energy;
        totals.local_time += c.local_time;
        totals.tx_time += c.tx_time;
    }
    totals.remote_time = server_time;
    totals.energy = totals.local_energy + totals.tx_energy;
    totals.time = totals.local_time + totals.remote_time + totals.tx_time;
    Ok(Evaluation {
        per_user: costs,
        totals,
    })
}

impl Scenario {
    /// Prices `plan` with the paper's cost model (delegates to
    /// [`evaluate_plan_for`] over this scenario's user graphs).
    ///
    /// # Errors
    ///
    /// Any [`ModelError`] from [`validate_plan`](Scenario::validate_plan).
    pub fn evaluate(&self, plan: &[Bipartition]) -> Result<Evaluation, ModelError> {
        evaluate_plan_for(
            self.params(),
            self.users().iter().map(crate::UserWorkload::graph),
            plan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystemParams, UserWorkload};
    use mec_graph::{Graph, GraphBuilder};

    /// pinned(2) — 8 — free(50): the example from the crate docs.
    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let p = b.add_pinned_node(2.0);
        let q = b.add_node(50.0);
        b.add_edge(p, q, 8.0).unwrap();
        b.build()
    }

    fn params() -> SystemParams {
        SystemParams {
            bandwidth: 20.0,
            local_capacity: 10.0,
            server_capacity: 200.0,
            local_power: 1.0,
            tx_power: 10.0,
            control_overhead: 2.0,
            allocation: AllocationPolicy::EqualShare,
        }
    }

    fn single_user(plan_sides: Vec<Side>) -> Evaluation {
        let s = Scenario::new(params()).with_user(UserWorkload::new("u", small_graph()));
        s.evaluate(&[Bipartition::from_sides(plan_sides)]).unwrap()
    }

    #[test]
    fn all_local_plan_has_no_transmission() {
        let eval = single_user(vec![Side::Local, Side::Local]);
        let c = eval.per_user[0];
        assert_eq!(c.local_work, 52.0);
        assert_eq!(c.remote_work, 0.0);
        assert_eq!(c.tx_volume, 0.0);
        // t_c = 52/10, e_c = t_c * 1
        assert!((c.local_time - 5.2).abs() < 1e-12);
        assert!((c.local_energy - 5.2).abs() < 1e-12);
        assert_eq!(eval.totals.tx_energy, 0.0);
        assert!((eval.totals.objective() - (5.2 + 5.2)).abs() < 1e-12);
    }

    #[test]
    fn offloading_prices_formulas_1_to_5() {
        let eval = single_user(vec![Side::Local, Side::Remote]);
        let c = eval.per_user[0];
        // local: pinned node only → t_c = 2/10 = 0.2, e_c = 0.2
        assert!((c.local_time - 0.2).abs() < 1e-12);
        assert!((c.local_energy - 0.2).abs() < 1e-12);
        // remote: 50 work on a full 200 share → t_s = 0.25 (single user)
        assert!((c.remote_time - 0.25).abs() < 1e-12);
        assert_eq!(c.wait_time, 0.0);
        // tx: volume 8 + 1 crossing * 2 overhead = 10 → t_t = 0.5, e_t = 5
        assert!((c.tx_time - 0.5).abs() < 1e-12);
        assert!((c.tx_energy - 5.0).abs() < 1e-12);
        // totals
        assert!((eval.totals.energy - 5.2).abs() < 1e-12);
        assert!((eval.totals.time - (0.2 + 0.25 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn equal_share_contention_slows_remote_time_linearly() {
        let users: Vec<_> = (0..4)
            .map(|i| UserWorkload::new(format!("u{i}"), small_graph()))
            .collect();
        let s = Scenario::new(params()).with_users(users);
        let plan: Vec<_> = (0..4)
            .map(|_| Bipartition::from_sides(vec![Side::Local, Side::Remote]))
            .collect();
        let eval = s.evaluate(&plan).unwrap();
        // 4 offloaders → share 50 each → t_s = 1.0 each
        for c in &eval.per_user {
            assert!((c.remote_time - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn proportional_policy_finishes_everyone_together() {
        let mut p = params();
        p.allocation = AllocationPolicy::ProportionalToLoad;
        let mut big = GraphBuilder::new();
        let b1 = big.add_node(100.0);
        let b2 = big.add_node(100.0);
        big.add_edge(b1, b2, 1.0).unwrap();
        let s = Scenario::new(p)
            .with_user(UserWorkload::new("small", small_graph()))
            .with_user(UserWorkload::new("big", big.build()));
        let plan = vec![
            Bipartition::from_sides(vec![Side::Local, Side::Remote]),
            Bipartition::from_sides(vec![Side::Remote, Side::Remote]),
        ];
        let eval = s.evaluate(&plan).unwrap();
        // total remote = 50 + 200 = 250 → t = 1.25 for both
        assert!((eval.per_user[0].remote_time - 1.25).abs() < 1e-12);
        assert!((eval.per_user[1].remote_time - 1.25).abs() < 1e-12);
    }

    #[test]
    fn fifo_accrues_waiting_time() {
        let mut p = params();
        p.allocation = AllocationPolicy::Fifo;
        let s = Scenario::new(p)
            .with_user(UserWorkload::new("first", small_graph()))
            .with_user(UserWorkload::new("second", small_graph()));
        let plan: Vec<_> = (0..2)
            .map(|_| Bipartition::from_sides(vec![Side::Local, Side::Remote]))
            .collect();
        let eval = s.evaluate(&plan).unwrap();
        assert_eq!(eval.per_user[0].wait_time, 0.0);
        // first job takes 50/200 = 0.25
        assert!((eval.per_user[1].wait_time - 0.25).abs() < 1e-12);
        // totals include waiting in remote_time
        assert!((eval.totals.remote_time - (0.25 + 0.25 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn non_offloaders_never_wait() {
        let mut p = params();
        p.allocation = AllocationPolicy::Fifo;
        let s = Scenario::new(p)
            .with_user(UserWorkload::new("local-only", small_graph()))
            .with_user(UserWorkload::new("offloader", small_graph()));
        let plan = vec![
            Bipartition::from_sides(vec![Side::Local, Side::Local]),
            Bipartition::from_sides(vec![Side::Local, Side::Remote]),
        ];
        let eval = s.evaluate(&plan).unwrap();
        assert_eq!(eval.per_user[0].wait_time, 0.0);
        assert_eq!(eval.per_user[0].remote_time, 0.0);
        assert_eq!(eval.per_user[1].wait_time, 0.0);
    }

    #[test]
    fn user_cost_helpers_sum_components() {
        let eval = single_user(vec![Side::Local, Side::Remote]);
        let c = eval.per_user[0];
        assert!(
            (c.time() - (c.local_time + c.remote_time + c.wait_time + c.tx_time)).abs() < 1e-15
        );
        assert!((c.energy() - (c.local_energy + c.tx_energy)).abs() < 1e-15);
    }

    #[test]
    fn control_overhead_penalises_many_small_crossings() {
        // two graphs, same crossing volume, different crossing counts
        let mut few = GraphBuilder::new();
        let a = few.add_node(1.0);
        let b = few.add_node(1.0);
        few.add_edge(a, b, 10.0).unwrap();
        let mut many = GraphBuilder::new();
        let c0 = many.add_node(1.0);
        let others: Vec<_> = (0..5).map(|_| many.add_node(0.2)).collect();
        for &o in &others {
            many.add_edge(c0, o, 2.0).unwrap();
        }
        let s_few = Scenario::new(params()).with_user(UserWorkload::new("few", few.build()));
        let s_many = Scenario::new(params()).with_user(UserWorkload::new("many", many.build()));
        let plan_few = vec![Bipartition::from_sides(vec![Side::Local, Side::Remote])];
        let plan_many = vec![Bipartition::from_fn(6, |i| {
            if i == 0 {
                Side::Local
            } else {
                Side::Remote
            }
        })];
        let e_few = s_few.evaluate(&plan_few).unwrap();
        let e_many = s_many.evaluate(&plan_many).unwrap();
        assert!(
            e_many.per_user[0].tx_energy > e_few.per_user[0].tx_energy,
            "5 crossings must cost more than 1 at equal volume"
        );
    }
}
