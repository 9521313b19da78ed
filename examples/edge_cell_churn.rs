//! Live churn on one edge cell: phones joining and leaving, with the
//! operator re-planning placement after every event.
//!
//! Demonstrates [`OffloadSession`]: compression and minimum cuts run
//! once per user at join time; each re-plan only re-runs the greedy
//! placement, so reacting to churn is milliseconds even for sizeable
//! crowds.
//!
//! Run with: `cargo run --release --example edge_cell_churn`

use copmecs::core::OffloadSession;
use copmecs::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // a modest cell: contention will bite as the crowd grows
    let params = SystemParams {
        server_capacity: 600.0,
        ..SystemParams::default()
    };
    let mut session = OffloadSession::new(params);

    println!(
        "{:<28} {:>6} {:>12} {:>11} {:>12}",
        "event", "users", "E+T", "offloaded%", "replan (ms)"
    );

    let report_line = |event: &str, session: &mut OffloadSession| {
        let users = session.user_count();
        let t0 = Instant::now();
        let report = session.replan().expect("replan succeeds");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let total: usize = report.plan.iter().map(|p| p.len()).sum();
        let frac = if total == 0 {
            0.0
        } else {
            100.0 * report.offloaded_count() as f64 / total as f64
        };
        println!(
            "{:<28} {:>6} {:>12.1} {:>10.1}% {:>12.2}",
            event,
            users,
            report.evaluation.totals.objective(),
            frac,
            ms
        );
    };

    // morning: phones trickle in
    for i in 0..12u64 {
        let app = match i % 3 {
            0 => SyntheticAppSpec::face_recognition(),
            1 => SyntheticAppSpec::mobile_game(),
            _ => SyntheticAppSpec::email_client(),
        };
        let g = Arc::new(app.seed(500 + i).build().extract().graph);
        session.join(format!("phone-{i}"), g)?;
        if i % 4 == 3 {
            report_line(&format!("{} phones joined", i + 1), &mut session);
        }
    }

    // a heavy user upgrades their app (same name, new graph)
    let upgraded = Arc::new(
        SyntheticAppSpec::face_recognition()
            .seed(999)
            .build()
            .extract()
            .graph,
    );
    session.join("phone-0", upgraded)?;
    report_line("phone-0 upgraded app", &mut session);

    // evening: half the crowd leaves
    for i in (0..12u64).filter(|i| i % 2 == 0) {
        session.leave(&format!("phone-{i}"));
    }
    report_line("even phones left", &mut session);

    println!("\nper-user cost of the final plan:");
    let final_report = session.replan()?;
    for (i, cost) in final_report.evaluation.per_user.iter().enumerate() {
        println!(
            "  user {}: energy {:>8.2}, time {:>8.2}",
            i,
            cost.energy(),
            cost.time()
        );
    }
    Ok(())
}
