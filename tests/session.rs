//! Dynamic-session behaviour at the facade level: churn, strategy
//! choice, and parity with the one-shot solver.

use copmecs::core::{GreedyMode, OffloadSession, Offloader, StrategyKind};
use copmecs::prelude::*;
use std::sync::Arc;

fn app_graph(seed: u64) -> Arc<Graph> {
    Arc::new(
        SyntheticAppSpec::new("app", 3, 20)
            .seed(seed)
            .build()
            .extract()
            .graph,
    )
}

#[test]
fn session_replans_match_one_shot_for_every_strategy() {
    for kind in [
        StrategyKind::Spectral,
        StrategyKind::MaxFlow,
        StrategyKind::KernighanLin,
        StrategyKind::Multilevel,
    ] {
        let mut session = OffloadSession::with_config(
            SystemParams::default(),
            CompressionConfig::default(),
            kind.clone(),
            GreedyMode::Lazy,
        );
        let g1 = app_graph(1);
        let g2 = app_graph(2);
        session.join("a", Arc::clone(&g1)).unwrap();
        session.join("b", Arc::clone(&g2)).unwrap();
        let via_session = session.replan().unwrap();

        let scenario = Scenario::new(SystemParams::default())
            .with_user(UserWorkload::new("a", g1))
            .with_user(UserWorkload::new("b", g2));
        let one_shot = Offloader::builder()
            .strategy(kind)
            .build()
            .solve(&scenario)
            .unwrap();
        assert_eq!(via_session.plan, one_shot.plan, "{}", one_shot.strategy);
    }
}

#[test]
fn churn_storm_keeps_plans_valid() {
    let mut session = OffloadSession::new(SystemParams {
        server_capacity: 500.0,
        ..SystemParams::default()
    });
    // interleave joins and leaves, re-planning at every step
    for wave in 0..3u64 {
        for i in 0..6u64 {
            session
                .join(format!("u{i}"), app_graph(wave * 10 + i))
                .unwrap();
            let users = session.user_count();
            let report = session.replan().unwrap();
            assert_eq!(report.plan.len(), users);
            assert!(report.evaluation.totals.objective().is_finite());
        }
        for i in (0..6u64).step_by(2) {
            session.leave(&format!("u{i}"));
            let users = session.user_count();
            let report = session.replan().unwrap();
            assert_eq!(report.plan.len(), users);
        }
    }
    assert_eq!(session.user_count(), 3);
}

#[test]
fn replan_reflects_contention_after_mass_join() {
    let params = SystemParams {
        server_capacity: 400.0,
        ..SystemParams::default()
    };
    let mut session = OffloadSession::new(params);
    session.join("first", app_graph(7)).unwrap();
    let alone = session.replan().unwrap();
    let alone_remote = alone.offloaded_count();
    for i in 0..20u64 {
        session.join(format!("crowd{i}"), app_graph(7)).unwrap();
    }
    let crowded = session.replan().unwrap();
    // the same first user's workload is now contended: fewer functions
    // offload per user on average
    let per_user_remote = crowded.offloaded_count() as f64 / 21.0;
    assert!(
        per_user_remote <= alone_remote as f64 + 1e-9,
        "crowding must not increase per-user offloading ({per_user_remote} vs {alone_remote})"
    );
}
