//! Benchmarks of one full cluster iteration (the unit of tuning cost):
//! per-workload, per-topology size, and the observability overhead of
//! running the same iteration with a live metrics registry attached.

use bench::harness::{measure, Criterion};
use std::hint::black_box;
use std::time::Duration;

use cluster::config::{ClusterConfig, Topology};
use cluster::model::ClusterScenario;
use cluster::runner::{run_iteration, run_iteration_observed};
use cluster::{Health, HealthChange, HealthTimeline};
use faults::FaultPlan;
use obs::Registry;
use orchestrator::session::SessionConfig;
use simkit::time::SimDuration;
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

fn scenario(topology: Topology, workload: Workload, pop: u32) -> ClusterScenario {
    let mut s = ClusterScenario::single(workload, pop, IntervalPlan::tiny(), 42);
    s.config = ClusterConfig::defaults(&topology);
    s.topology = topology;
    s
}

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/workload");
    g.sample_size(10);
    for workload in Workload::ALL {
        g.bench_function(workload.name(), |b| {
            let s = scenario(Topology::single(), workload, 400);
            b.iter(|| black_box(run_iteration(&s).metrics.wips))
        });
    }
    g.finish();
}

fn bench_cluster_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/cluster_size");
    g.sample_size(10);
    for (label, topo, pop) in [
        ("1p1a1d", Topology::tiers(1, 1, 1).unwrap(), 400u32),
        ("2p2a2d", Topology::tiers(2, 2, 2).unwrap(), 800),
        ("4p4a4d", Topology::tiers(4, 4, 4).unwrap(), 1_600),
    ] {
        g.bench_function(label, |b| {
            let s = scenario(topo.clone(), Workload::Shopping, pop);
            b.iter(|| black_box(run_iteration(&s).metrics.wips))
        });
    }
    g.finish();
}

fn bench_worklines(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/worklines");
    g.sample_size(10);
    g.bench_function("partitioned_2lines", |b| {
        let topo = Topology::tiers(2, 2, 2).unwrap();
        let mut s = scenario(topo, Workload::Shopping, 800);
        s.lines = Some(vec![vec![0, 2, 4], vec![1, 3, 5]]);
        b.iter(|| black_box(run_iteration(&s).line_wips.len()))
    });
    g.finish();
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/metrics");
    g.sample_size(10);
    g.bench_function("plain", |b| {
        let s = scenario(Topology::single(), Workload::Shopping, 400);
        b.iter(|| black_box(run_iteration(&s).metrics.wips))
    });
    g.bench_function("observed", |b| {
        let s = scenario(Topology::single(), Workload::Shopping, 400);
        let reg = Registry::new();
        b.iter(|| black_box(run_iteration_observed(&s, &reg).metrics.wips))
    });
    g.finish();
}

fn bench_faults(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/faults");
    g.sample_size(10);
    g.bench_function("healthy", |b| {
        let s = scenario(Topology::tiers(1, 2, 1).unwrap(), Workload::Shopping, 600);
        b.iter(|| black_box(run_iteration(&s).metrics.wips))
    });
    g.bench_function("crash_mid_window", |b| {
        let mut s = scenario(Topology::tiers(1, 2, 1).unwrap(), Workload::Shopping, 600);
        s.faults = Some(HealthTimeline {
            initial: vec![Health::Up; 4],
            changes: vec![HealthChange {
                after: SimDuration::from_secs(10),
                node: 1,
                health: Health::Down,
            }],
        });
        b.iter(|| black_box(run_iteration(&s).metrics.wips))
    });
    g.finish();
}

/// Head-to-head: the fault injector must cost < 5% on the no-fault path.
/// Attaching an *empty* fault plan leaves the DES untouched — the only
/// added work is projecting the plan onto each measurement window — so
/// this isolates the injector's bookkeeping cost.
fn report_injector_overhead() {
    let topology = Topology::single();
    let cfg =
        SessionConfig::new(topology.clone(), Workload::Shopping, 400).plan(IntervalPlan::tiny());
    let config = ClusterConfig::defaults(&topology);
    let min_time = Duration::from_millis(400);
    let plain = measure(
        || black_box(cfg.evaluate(config.clone(), 3).metrics.wips),
        min_time,
        20,
    );
    let faulted_cfg = cfg.clone().fault_plan(FaultPlan::new());
    let faulted = measure(
        || black_box(faulted_cfg.evaluate(config.clone(), 3).metrics.wips),
        min_time,
        20,
    );
    let delta = faulted.secs_per_iter() / plain.secs_per_iter() - 1.0;
    println!(
        "iteration/faults injector overhead (no-fault path): {:+.2}% (target < 5%; \
         plain {:.3} ms, with empty plan {:.3} ms)",
        delta * 100.0,
        plain.secs_per_iter() * 1e3,
        faulted.secs_per_iter() * 1e3
    );
}

/// Head-to-head: the observability layer must cost < 5% per iteration.
/// Printed as a percentage so regressions are visible in bench output.
fn report_overhead() {
    let s = scenario(Topology::single(), Workload::Shopping, 400);
    let min_time = Duration::from_millis(400);
    let plain = measure(|| black_box(run_iteration(&s).metrics.wips), min_time, 20);
    let reg = Registry::new();
    let observed = measure(
        || black_box(run_iteration_observed(&s, &reg).metrics.wips),
        min_time,
        20,
    );
    let delta = observed.secs_per_iter() / plain.secs_per_iter() - 1.0;
    println!(
        "iteration/metrics overhead: {:+.2}% (plain {:.3} ms, observed {:.3} ms)",
        delta * 100.0,
        plain.secs_per_iter() * 1e3,
        observed.secs_per_iter() * 1e3
    );
}

/// Head-to-head: crash-safe checkpointing must cost < 5% per tuning
/// iteration at the default cadence (a journal append per iteration, a
/// fsynced snapshot every 10th). With a pinned seed the simulation work
/// is identical with and without a checkpoint directory, so the added
/// cost *is* the persistence work; measuring that directly (open + one
/// journal frame per iteration + one snapshot per cadence) resolves a
/// ~1% delta that end-to-end differencing would bury in scheduler noise.
fn report_checkpoint_overhead() {
    use orchestrator::checkpoint::{session_fingerprint, CheckpointPolicy, Checkpointer};
    use orchestrator::session::tune;
    use persist::State;

    let topology = Topology::single();
    let cfg = SessionConfig::new(topology, Workload::Shopping, 400)
        .plan(IntervalPlan::tiny())
        .pin_seed(true);
    let dir = std::env::temp_dir().join(format!("bench-ckpt-{}", std::process::id()));
    let iters = 20u32;
    let min_time = Duration::from_millis(700);
    let plain = measure(
        || {
            let run = tune(&cfg, harmony::strategy::TuningMethod::Default, iters).expect("tune");
            black_box(run.best_wips)
        },
        min_time,
        10,
    );

    // One session's worth of persistence: fresh open, a delta frame per
    // iteration, and a full (synthetic, comparably-sized) snapshot on
    // the default every-10 cadence.
    let policy = CheckpointPolicy::new(&dir);
    let fp = session_fingerprint(&cfg, "bench", iters, iters);
    let snapshot = |upto: u64| {
        State::map().with("kind", State::Str("tune".into())).with(
            "records",
            State::List(
                (0..upto)
                    .map(|i| {
                        State::map()
                            .with("iteration", State::U64(i))
                            .with("wips", State::F64(120.0 + i as f64))
                            .with("line_wips", State::f64_list(&[120.0 + i as f64]))
                            .with("workload", State::Str("Shopping".into()))
                            .with("failed", State::U64(0))
                    })
                    .collect(),
            ),
        )
    };
    let persistence = measure(
        || {
            let (mut ck, _) = Checkpointer::open(&policy, fp).expect("open");
            for i in 0..iters {
                ck.append(
                    State::map()
                        .with("iteration", State::U64(i as u64))
                        .with("wips", State::F64(123.456))
                        .with("line_wips", State::f64_list(&[123.456]))
                        .with("failed", State::U64(0)),
                )
                .expect("append");
                ck.maybe_snapshot(i + 1, iters, || snapshot(i as u64 + 1))
                    .expect("snapshot");
            }
            black_box(())
        },
        min_time,
        10,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let delta = persistence.secs_per_iter() / plain.secs_per_iter();
    println!(
        "iteration/checkpoint overhead (default cadence, {iters}-iteration session): {:+.2}% \
         (target < 5%; session {:.3} ms, persistence ops {:.3} ms)",
        delta * 100.0,
        plain.secs_per_iter() * 1e3,
        persistence.secs_per_iter() * 1e3
    );
}

/// Head-to-head: the evaluation engine must deliver >= 1.5x on a
/// multi-candidate replay while producing the *same* WIPS series bit
/// for bit. Three runs of the same 30-iteration simplex session:
///
/// * `sequential` — no engine, the baseline tuning loop;
/// * `speculative` — cold cache + one worker per core, so the engine
///   pre-evaluates the reflect/expand/contract candidate set it is
///   told about via `Tuner::speculate` (a wash on single-core hosts,
///   where there is nobody to overlap the extra work with);
/// * `warm replay` — the same session again on the now-warm cache,
///   which is what a resumed run gets after `persist` restores the
///   cache: every candidate is a hit and the DES never runs.
fn report_eval_speedup() {
    use harmony::strategy::TuningMethod;
    use orchestrator::eval::EvalSettings;
    use orchestrator::session::tune;
    use std::time::Instant;

    let topology = Topology::single();
    let cfg = SessionConfig::new(topology, Workload::Shopping, 400).plan(IntervalPlan::tiny());
    let iters = 30u32;

    let t0 = Instant::now();
    let plain = tune(&cfg, TuningMethod::Default, iters).expect("sequential tune");
    let sequential = t0.elapsed();

    let spec_cfg = cfg
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(0));
    let t1 = Instant::now();
    let speculated = tune(&spec_cfg, TuningMethod::Default, iters).expect("speculative tune");
    let speculative = t1.elapsed();
    let spec_counters = spec_cfg.eval.counters();

    let warm_cfg = cfg
        .clone()
        .eval_settings(EvalSettings::default().cache(true));
    let _ = tune(&warm_cfg, TuningMethod::Default, iters).expect("cache warm-up");
    let before = warm_cfg.eval.counters();
    let t2 = Instant::now();
    let replayed = tune(&warm_cfg, TuningMethod::Default, iters).expect("warm replay");
    let warm = t2.elapsed();
    let warm_counters = warm_cfg.eval.counters().since(&before);

    for (label, run) in [("speculative", &speculated), ("warm replay", &replayed)] {
        assert_eq!(
            plain.wips_series(),
            run.wips_series(),
            "{label} engine changed the measured WIPS series"
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "iteration/eval warm-replay speedup ({iters}-iteration simplex session): {:.1}x \
         (target >= 1.5x; sequential {:.0} ms, warm cache {:.2} ms, \
         hit rate {:.0}% [{} hits / {} misses])",
        sequential.as_secs_f64() / warm.as_secs_f64().max(1e-9),
        sequential.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
        warm_counters.hit_rate() * 100.0,
        warm_counters.hits,
        warm_counters.misses
    );
    println!(
        "iteration/eval speculation ({cores} core(s), cold cache): {:.2}x \
         (sequential {:.0} ms, speculative {:.0} ms, hit rate {:.0}% \
         [{} hits / {} misses], {} speculated)",
        sequential.as_secs_f64() / speculative.as_secs_f64().max(1e-9),
        sequential.as_secs_f64() * 1e3,
        speculative.as_secs_f64() * 1e3,
        spec_counters.hit_rate() * 100.0,
        spec_counters.hits,
        spec_counters.misses,
        spec_counters.speculated
    );

    // The one fully parallel stretch of a session: 2x2x2's 47 full-space
    // simplex init vertices, which speculation refills in two rounds
    // (32, then 15). Measured, not projected.
    let chain = Topology::tiers(2, 2, 2).expect("2x2x2 topology");
    let cfg = SessionConfig::new(chain, Workload::Shopping, 400).plan(IntervalPlan::tiny());
    let iters = 47u32;
    let t0 = Instant::now();
    let plain = tune(&cfg, TuningMethod::Default, iters).expect("sequential tune");
    let sequential = t0.elapsed();
    let spec_cfg = cfg.eval_settings(EvalSettings::default().cache(true).threads(0));
    let t1 = Instant::now();
    let speculated = tune(&spec_cfg, TuningMethod::Default, iters).expect("speculative tune");
    let speculative = t1.elapsed();
    let c = spec_cfg.eval.counters();
    let bits = |run: &orchestrator::session::TuningRun| {
        run.wips_series()
            .iter()
            .map(|w| w.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&plain),
        bits(&speculated),
        "speculation changed the 2x2x2 init-chain WIPS series"
    );
    println!(
        "iteration/eval speculation, 2x2x2 init chain ({iters} iterations, {cores} core(s)): \
         {:.2}x measured (sequential {:.0} ms, speculative {:.0} ms, \
         {} refills, {} speculated, {} misses)",
        sequential.as_secs_f64() / speculative.as_secs_f64().max(1e-9),
        sequential.as_secs_f64() * 1e3,
        speculative.as_secs_f64() * 1e3,
        c.refills,
        c.speculated,
        c.misses
    );
}

fn main() {
    let mut c = Criterion::from_args();
    bench_workloads(&mut c);
    bench_cluster_sizes(&mut c);
    bench_worklines(&mut c);
    bench_metrics_overhead(&mut c);
    bench_faults(&mut c);
    report_overhead();
    report_injector_overhead();
    report_checkpoint_overhead();
    report_eval_speedup();
}
