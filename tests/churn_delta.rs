//! Property coverage for delta replanning: over random churn
//! sequences (joins, leaves, resubmits, several seeds, every
//! allocation policy) the warm-started delta replan must never price
//! worse than a from-scratch replan of the same crowd, and whenever
//! the drift fallback forces a full rebuild the plans must match a
//! fresh session's exactly. A drift limit of `0.0` is the from-scratch
//! mode: any churn trips the fallback.
//!
//! The CI matrix runs this file on both the default leg and the
//! `MEC_FORCE_SERIAL=1` leg; the cluster-backed case below covers the
//! pooled backend within a single run.

use copmecs::core::OffloadSession;
use copmecs::prelude::*;
use std::sync::Arc;

/// splitmix64: deterministic event streams without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn app_graph(seed: u64) -> Arc<Graph> {
    Arc::new(NetgenSpec::new(40, 110).seed(seed).generate().unwrap())
}

/// The from-scratch mode: every replan after churn rebuilds.
fn full_session(params: SystemParams) -> OffloadSession {
    OffloadSession::new(params).with_drift_limit(0.0)
}

/// Applies one random churn event identically to both sessions and
/// returns a label for failure messages. `present` mirrors the
/// sessions' user slots in order, with each user's current graph.
fn churn_step(
    rng: &mut Rng,
    next_user: &mut u64,
    present: &mut Vec<(String, Arc<Graph>)>,
    sessions: &mut [&mut OffloadSession],
) -> String {
    let roll = rng.below(10);
    if present.is_empty() || roll < 4 {
        // arrival
        let name = format!("u{}", *next_user);
        let g = app_graph(1000 + *next_user);
        *next_user += 1;
        for s in sessions.iter_mut() {
            s.join(name.clone(), Arc::clone(&g)).unwrap();
        }
        present.push((name.clone(), g));
        format!("join {name}")
    } else if roll < 7 {
        // departure
        let (victim, _) = present.remove(rng.below(present.len() as u64) as usize);
        for s in sessions.iter_mut() {
            assert!(s.leave(&victim));
        }
        format!("leave {victim}")
    } else {
        // resubmit: same name, new workload
        let slot = rng.below(present.len() as u64) as usize;
        let g = app_graph(5000 + rng.below(64));
        let who = present[slot].0.clone();
        for s in sessions.iter_mut() {
            s.join(who.clone(), Arc::clone(&g)).unwrap();
        }
        present[slot].1 = g;
        format!("resubmit {who}")
    }
}

#[test]
fn delta_replan_is_objective_no_worse_than_full() {
    for allocation in [
        AllocationPolicy::EqualShare,
        AllocationPolicy::ProportionalToLoad,
        AllocationPolicy::Fifo,
    ] {
        let params = SystemParams {
            allocation,
            ..SystemParams::default()
        };
        for seed in [3u64, 17, 42] {
            let mut rng = Rng(seed);
            let mut delta = OffloadSession::new(params);
            let mut full = full_session(params);
            let mut present = Vec::new();
            let mut next_user = 0u64;
            let mut history = Vec::new();
            for step in 0..24 {
                history.push(churn_step(
                    &mut rng,
                    &mut next_user,
                    &mut present,
                    &mut [&mut delta, &mut full],
                ));
                // replan every couple of events so warm starts see both
                // single-event and multi-event dirty sets
                if step % 2 == 1 {
                    let d = delta.replan().unwrap().evaluation.totals.objective();
                    let f = full.replan().unwrap().evaluation.totals.objective();
                    let tol = 1e-9 * f.abs().max(1.0);
                    assert!(
                        d <= f + tol,
                        "{allocation:?} seed {seed}: delta objective {d} worse than full {f} \
                         after {history:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_drift_limit_stays_plan_identical_to_full() {
    for seed in [7u64, 29] {
        let mut rng = Rng(seed);
        // drift limit 0: any churn trips the fallback, so every replan
        // is the from-scratch path and must match a fresh session over
        // the same crowd *exactly*
        let mut strict = full_session(SystemParams::default());
        let mut present = Vec::new();
        let mut next_user = 0u64;
        for step in 0..16 {
            churn_step(&mut rng, &mut next_user, &mut present, &mut [&mut strict]);
            if step % 3 == 2 {
                let mut fresh = OffloadSession::new(SystemParams::default());
                for (name, g) in &present {
                    fresh.join(name.clone(), Arc::clone(g)).unwrap();
                }
                let s = strict.replan().unwrap();
                let f = fresh.replan().unwrap();
                assert_eq!(s.plan, f.plan, "seed {seed}: fallback diverged from full");
                assert_eq!(
                    s.evaluation.totals.objective().to_bits(),
                    f.evaluation.totals.objective().to_bits(),
                    "seed {seed}: fallback must be bit-identical to full"
                );
            }
        }
    }
}

#[test]
fn delta_matches_full_quality_on_the_cluster_backend() {
    let cluster = Arc::new(copmecs::engine::Cluster::new(2).unwrap());
    let mut delta = OffloadSession::new(SystemParams::default()).with_cluster(Arc::clone(&cluster));
    let mut full = full_session(SystemParams::default()).with_cluster(cluster);
    let mut rng = Rng(11);
    let mut present = Vec::new();
    let mut next_user = 0u64;
    for step in 0..12 {
        churn_step(
            &mut rng,
            &mut next_user,
            &mut present,
            &mut [&mut delta, &mut full],
        );
        if step % 2 == 1 {
            let d = delta.replan().unwrap().evaluation.totals.objective();
            let f = full.replan().unwrap().evaluation.totals.objective();
            assert!(d <= f + 1e-9 * f.abs().max(1.0));
        }
    }
}
