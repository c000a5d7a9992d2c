//! Integration tests for fault injection and resilient sessions through
//! the facade crate: the no-fault path must stay byte-identical to the
//! plain tuner, faulted runs must be deterministic, and the acceptance
//! scenario (app-tier crash mid-session) must retry, reconfigure, and
//! recover without panicking.

use ah_webtune::prelude::*;

fn pinned(topology: Topology, population: u32) -> SessionConfig {
    SessionConfig::new(topology, Workload::Shopping, population)
        .plan(IntervalPlan::tiny())
        .pin_seed(true)
}

/// Drop the trailing `wall_ms` field: it reports host wall-clock time,
/// the one value that is *supposed* to vary between runs.
fn strip_wall_ms(line: String) -> String {
    match line.find(",\"wall_ms\":") {
        Some(at) => format!("{}}}", &line[..at]),
        None => line,
    }
}

fn trace_lines(cfg: &SessionConfig, iterations: u32) -> Vec<String> {
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    tune_observed(cfg, TuningMethod::Default, iterations, &mut observer).expect("tuning session");
    sink.records
        .iter()
        .map(|r| strip_wall_ms(r.to_json()))
        .collect()
}

/// Acceptance: attaching an *empty* fault plan must not perturb the
/// simulation — pinned-seed traces are byte-identical with and without
/// the injector on the path.
#[test]
fn empty_fault_plan_leaves_pinned_traces_byte_identical() {
    let plain = pinned(Topology::single(), 200);
    let with_empty_plan = plain.clone().fault_plan(FaultPlan::new());
    assert_eq!(
        trace_lines(&plain, 4),
        trace_lines(&with_empty_plan, 4),
        "an empty fault plan must be a no-op on the trace bytes"
    );
}

fn crash_plan(plan: &IntervalPlan, iteration: u32, node: usize) -> FaultPlan {
    let window = plan.total().as_secs_f64();
    let crash_at = f64::from(iteration) * window
        + plan.warmup.as_secs_f64()
        + plan.measure.as_secs_f64() / 2.0;
    FaultPlan::new()
        .noise_spike(plan.warmup.as_secs_f64() + 1.0, 3.0)
        .crash(crash_at, node)
}

/// Same seed + same plan => identical WIPS series and identical trace
/// bytes, run to run.
#[test]
fn faulted_sessions_are_deterministic() {
    let run_once = || {
        let plan = IntervalPlan::tiny();
        let cfg = pinned(Topology::tiers(1, 2, 1).unwrap(), 250)
            .fault_plan(crash_plan(&plan, 1, 1))
            .fault_seed(0xFA17);
        let mut sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        let run =
            run_resilient_session_observed(&cfg, &ResilienceSettings::default(), 4, &mut observer)
                .expect("resilient session");
        let lines: Vec<String> = sink
            .records
            .iter()
            .map(|r| strip_wall_ms(r.to_json()))
            .collect();
        (run.wips_series(), lines)
    };
    let (wips_a, lines_a) = run_once();
    let (wips_b, lines_b) = run_once();
    assert_eq!(wips_a, wips_b, "WIPS series must be bitwise reproducible");
    assert_eq!(lines_a, lines_b, "trace bytes must be reproducible");
}

/// Acceptance scenario: an application-tier node crashes mid-session.
/// The session must not panic, must retry the wounded measurement, must
/// pull a donor into the app tier, and WIPS must recover to >= 90% of
/// the pre-crash running best within 10 iterations.
#[test]
fn app_tier_crash_retries_reconfigures_and_recovers() {
    let plan = IntervalPlan::tiny();
    let cfg = pinned(Topology::tiers(2, 3, 2).unwrap(), 400)
        // Node 3 is the second app-tier node in a 2p/3a/2d layout.
        .fault_plan(crash_plan(&plan, 2, 3));
    let run = run_resilient_session(&cfg, &ResilienceSettings::default(), 10)
        .expect("resilient session survives the crash");

    assert_eq!(run.first_crash_iteration(), Some(2));
    assert!(
        run.recoveries.iter().any(|a| a.action == "retry"),
        "a mid-measurement crash must trigger the retry policy: {:?}",
        run.recoveries
    );
    assert_eq!(run.reconfigs.len(), 1, "exactly one failure-driven move");
    let mv = &run.reconfigs[0];
    assert_eq!(
        mv.to_tier,
        Role::App,
        "the donor must join the wounded tier"
    );
    assert_ne!(mv.node, 3, "the dead node cannot be its own donor");
    let recovered_in = run
        .recovery_iterations(0.9)
        .expect("WIPS must climb back to 90% of the pre-crash best");
    assert!(
        recovered_in <= 10,
        "recovery took {recovered_in} iterations (> 10)"
    );
}

/// Without faults a resilient session *is* duplication tuning: the same
/// session loop, with every tuner fed the same typed measurement. TUNA
/// weights each sample by its confidence interval, so it pins that the
/// resilient path reports the interval too; simplex and bestconfig read
/// only the mean.
#[test]
fn fault_free_resilient_session_is_duplication_tuning() {
    const ITERS: u32 = 12;
    for tuner in ["simplex", "bestconfig", "tuna"] {
        let cfg = SessionConfig::new(Topology::tiers(2, 2, 2).unwrap(), Workload::Shopping, 300)
            .plan(IntervalPlan::tiny())
            .tuner(tuner);
        let plain = tune(&cfg, TuningMethod::Duplication, ITERS).expect("duplication session");
        let run = run_resilient_session(&cfg, &ResilienceSettings::default(), ITERS)
            .expect("resilient session");
        let bits = |series: Vec<f64>| -> Vec<u64> { series.iter().map(|w| w.to_bits()).collect() };
        assert_eq!(
            bits(run.wips_series()),
            bits(plain.wips_series()),
            "{tuner}: WIPS series"
        );
        assert_eq!(
            run.best_wips.to_bits(),
            plain.best_wips.to_bits(),
            "{tuner}"
        );
        assert!(run.best_wips > 0.0, "{tuner}");
        assert!(run.faults.is_empty(), "{tuner}: {:?}", run.faults);
        assert!(run.recoveries.is_empty(), "{tuner}: {:?}", run.recoveries);
        assert!(run.reconfigs.is_empty(), "{tuner}: {:?}", run.reconfigs);
        assert_eq!(run.final_topology, cfg.topology, "{tuner}");
    }
}
