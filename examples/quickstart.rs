//! Quickstart: tune a simulated three-tier web cluster in ~30 lines.
//!
//! Builds the paper's single-work-line cluster (one Squid-like proxy, one
//! Tomcat-like app server, one MySQL-like database), drives it with the
//! TPC-W shopping mix, and lets Active Harmony tune all 23 parameters for
//! a handful of iterations.
//!
//! Run with: `cargo run --release --example quickstart`

use ah_webtune::cluster::config::Topology;
use ah_webtune::harmony::strategy::TuningMethod;
use ah_webtune::orchestrator::session::{tune, SessionConfig};
use ah_webtune::tpcw::metrics::IntervalPlan;
use ah_webtune::tpcw::mix::Workload;

fn main() {
    // A session fixes the environment: topology, workload, load level and
    // the per-iteration measurement plan.
    let session = SessionConfig::new(
        Topology::single(), // 1 proxy / 1 app / 1 db
        Workload::Shopping, // the primary TPC-W mix (WIPS)
        1_700,              // emulated browsers (saturating load)
    )
    .plan(IntervalPlan::fast()); // 20 s warm-up, 200 s measure

    // Baseline: the default configuration.
    let (default_wips, sd) = session.measure_default(2);
    println!("default configuration: {default_wips:.1} WIPS (sd {sd:.1})");

    // Tune: one Harmony server proposes a configuration per iteration, the
    // simulated cluster measures it, and the simplex moves.
    let iterations = 30;
    println!("tuning for {iterations} iterations...");
    let run = tune(&session, TuningMethod::Default, iterations).expect("tuning session");

    for record in run.records.iter().step_by(5) {
        println!("  iter {:3}: {:6.1} WIPS", record.iteration, record.wips);
    }
    println!(
        "best found: {:.1} WIPS ({:+.1}% vs default) at iteration {}",
        run.best_wips,
        (run.best_wips / default_wips - 1.0) * 100.0,
        run.convergence_iteration
    );
}
