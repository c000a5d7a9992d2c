//! Integration tests for the evaluation engine: memoized measurements
//! and speculative parallel candidate evaluation must be *transparent*.
//! Whatever the engine configuration — cache on or off, one worker or
//! one per core, warm or cold — a session produces byte-identical trace
//! records and bit-equal WIPS. Only the end-of-session `eval` summary
//! record (and `wall_ms`, as everywhere) reflects the engine, so the
//! comparisons here strip both.

use ah_webtune::prelude::*;
use obs::Value;
use orchestrator::resilient::run_resilient_session_observed;
use orchestrator::session::tune_observed;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;

fn pinned(topology: Topology, population: u32) -> SessionConfig {
    SessionConfig::new(topology, Workload::Shopping, population)
        .plan(IntervalPlan::tiny())
        .pin_seed(true)
}

/// Drop the trailing `wall_ms` field (host wall-clock time, supposed to
/// vary) and the `eval` summary record (its hit/miss/speculated counters
/// describe the engine configuration, not the measurements).
fn comparable_lines(sink: &MemorySink) -> Vec<String> {
    sink.records
        .iter()
        .map(|r| r.to_json())
        .filter(|line| !line.starts_with("{\"kind\":\"eval\""))
        .map(|line| match line.find(",\"wall_ms\":") {
            Some(at) => format!("{}}}", &line[..at]),
            None => line,
        })
        .collect()
}

fn traced(cfg: &SessionConfig, method: TuningMethod, iterations: u32) -> (Vec<String>, TuningRun) {
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    let run = tune_observed(cfg, method, iterations, &mut observer).expect("tuning session");
    (comparable_lines(&sink), run)
}

/// The fig4 driver shape (Default on a single node) and the table4
/// method column (Duplication / Partitioning / Hybrid on a cluster):
/// every method's trace and best WIPS must be oblivious to the cache.
#[test]
fn cached_engine_is_byte_identical_for_every_method() {
    let sessions = [
        (TuningMethod::Default, Topology::single(), 200),
        (
            TuningMethod::Duplication,
            Topology::tiers(2, 2, 2).expect("topology"),
            300,
        ),
        (
            TuningMethod::Partitioning,
            Topology::tiers(2, 2, 2).expect("topology"),
            300,
        ),
        (
            TuningMethod::Hybrid,
            Topology::tiers(2, 2, 2).expect("topology"),
            300,
        ),
    ];
    for (method, topology, population) in sessions {
        let plain = pinned(topology, population);
        let cached = plain
            .clone()
            .eval_settings(EvalSettings::default().cache(true));
        let (lines_a, run_a) = traced(&plain, method, 6);
        let (lines_b, run_b) = traced(&cached, method, 6);
        assert_eq!(
            lines_a, lines_b,
            "{method:?}: cache changed the trace bytes"
        );
        assert_eq!(
            run_a.best_wips.to_bits(),
            run_b.best_wips.to_bits(),
            "{method:?}: cache changed the best WIPS"
        );
        assert_eq!(run_a.best_config, run_b.best_config);
    }
}

/// Speculative parallel evaluation (cache + one worker per core) must
/// consume its pre-computed outcomes in exactly the order and with
/// exactly the values of the sequential engine.
#[test]
fn speculative_parallel_engine_is_byte_identical() {
    for (method, topology) in [
        (TuningMethod::Default, Topology::single()),
        (
            TuningMethod::Partitioning,
            Topology::tiers(2, 2, 2).expect("topology"),
        ),
    ] {
        let plain = pinned(topology, 250);
        let speculative = plain
            .clone()
            .eval_settings(EvalSettings::default().cache(true).threads(0));
        let (lines_a, run_a) = traced(&plain, method, 6);
        let (lines_b, run_b) = traced(&speculative, method, 6);
        assert_eq!(
            lines_a, lines_b,
            "{method:?}: speculation changed the trace bytes"
        );
        assert_eq!(run_a.best_wips.to_bits(), run_b.best_wips.to_bits());
        // The engine really did work ahead; it just must not show.
        assert!(
            speculative.eval.counters().speculated > 0,
            "{method:?}: no speculative evaluations happened"
        );
    }
}

/// Fault noise is applied by the session *after* the cache lookup, so a
/// faulted session (noise spike + mid-measurement crash, retries and
/// all) is also oblivious to the engine.
#[test]
fn faulted_resilient_session_is_byte_identical_with_engine() {
    let plan = IntervalPlan::tiny();
    let window = plan.total().as_secs_f64();
    let crash_at = window + plan.warmup.as_secs_f64() + plan.measure.as_secs_f64() / 2.0;
    let faults = FaultPlan::new()
        .noise_spike(plan.warmup.as_secs_f64() + 1.0, 3.0)
        .crash(crash_at, 1);
    let plain = pinned(Topology::tiers(1, 2, 1).expect("topology"), 250).fault_plan(faults);
    let engined = plain
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(0));

    let run_once = |cfg: &SessionConfig| {
        let mut sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        let run =
            run_resilient_session_observed(cfg, &ResilienceSettings::default(), 4, &mut observer)
                .expect("resilient session");
        (comparable_lines(&sink), run)
    };
    let (lines_a, run_a) = run_once(&plain);
    let (lines_b, run_b) = run_once(&engined);
    assert_eq!(lines_a, lines_b, "engine changed a faulted session's trace");
    assert_eq!(run_a.best_wips.to_bits(), run_b.best_wips.to_bits());
    assert_eq!(run_a.recoveries.len(), run_b.recoveries.len());
    assert_eq!(run_a.reconfigs.len(), run_b.reconfigs.len());
}

/// An engine left at the library default (no cache, one thread) must
/// stay invisible: no `eval` record, no extra records of any kind.
#[test]
fn disabled_engine_emits_no_eval_record() {
    let cfg = pinned(Topology::single(), 200);
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    tune_observed(&cfg, TuningMethod::Default, 3, &mut observer).expect("session");
    let iteration_records = sink
        .records
        .iter()
        .filter(|r| r.to_json().starts_with("{\"kind\":\"iteration\""))
        .count();
    assert_eq!(iteration_records, 3, "one iteration record per iteration");
    assert!(sink
        .records
        .iter()
        .all(|r| !r.to_json().starts_with("{\"kind\":\"eval\"")));
}

// -- kill-and-resume with a warm cache ------------------------------------

struct KillSink {
    inner: MemorySink,
    kill_at: u64,
}

impl TraceSink for KillSink {
    fn emit(&mut self, record: &TraceRecord) {
        if let Some(Value::UInt(i)) = record.get("iteration") {
            if *i >= self.kill_at {
                panic!("simulated crash at iteration {i}");
            }
        }
        self.inner.emit(record);
    }
}

fn run_killed<F: FnOnce()>(f: F) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    assert!(outcome.is_err(), "the kill sink should have fired");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eval-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Killing a speculating session and resuming restores the memoization
/// cache from the snapshot: the continued run is byte-identical to the
/// uninterrupted one *and* serves its post-resume iterations as cache
/// hits, because the pre-crash engine had already evaluated them
/// speculatively. Crash recovery loses no speculative work.
#[test]
fn kill_and_resume_restores_the_warm_cache() {
    const ITERS: u32 = 8;
    // `eval_settings` installs a *fresh* engine each time (cloning a
    // SessionConfig shares its engine Arc — and its counters — which is
    // exactly what this test must not do).
    let engine = || EvalSettings::default().cache(true).threads(0);
    let base = pinned(Topology::single(), 200);
    let full_cfg = base.clone().eval_settings(engine());
    let (full_lines, full_run) = traced(&full_cfg, TuningMethod::Default, ITERS);

    let k = 5u64;
    let dir = temp_dir("warm");
    let policy = CheckpointPolicy::new(&dir).every(2);
    let killed = base
        .clone()
        .eval_settings(engine())
        .checkpoint(policy.clone());
    let mut sink = KillSink {
        inner: MemorySink::new(),
        kill_at: k,
    };
    run_killed(|| {
        let mut observer = SessionObserver::with_sink(&mut sink);
        let _ = tune_observed(&killed, TuningMethod::Default, ITERS, &mut observer);
    });

    let resumed_cfg = base.eval_settings(engine()).checkpoint(policy.resume(true));
    let mut resumed_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut resumed_sink);
    let run = tune_observed(&resumed_cfg, TuningMethod::Default, ITERS, &mut observer)
        .expect("resumed session");
    let resumed = comparable_lines(&resumed_sink);

    assert!(
        resumed[0].starts_with("{\"kind\":\"resume\""),
        "{}",
        resumed[0]
    );
    // An iteration spans several records (iteration + tuner); the kill
    // fired on the first record of iteration `k`, so the resumed trace
    // must pick up exactly there.
    let boundary = full_lines
        .iter()
        .position(|l| l.contains(&format!("\"iteration\":{k},")))
        .expect("iteration k in the reference trace");
    assert_eq!(
        &resumed[1..],
        &full_lines[boundary..],
        "post-resume trace must match the uninterrupted run"
    );
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    assert_eq!(run.best_config, full_run.best_config);

    // The warm-cache proof: the snapshot at iteration 4 already held the
    // speculated outcomes for the live iterations 5..8, so the resumed
    // session replays them as hits without ever re-running the DES.
    let counters = resumed_cfg.eval.counters();
    assert_eq!(
        counters.hits,
        u64::from(ITERS) - k,
        "every post-resume iteration must be served from the restored cache: {counters:?}"
    );
    assert_eq!(counters.misses, 0, "{counters:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// -- thread-width independence (1 / 2 / 8 workers) -------------------------

/// The scheduling guarantee behind the shared worker pool: worker count
/// is a wall-clock knob, never a results knob. The same seeded session
/// run with 1, 2, and 8 evaluation *and* replication threads produces
/// byte-identical traces, bit-equal WIPS, the same best configuration,
/// and the same session fingerprint.
#[test]
fn thread_width_1_2_8_is_byte_identical() {
    let cfg_at = |w: usize| {
        pinned(Topology::tiers(2, 2, 2).expect("topology"), 300)
            .eval_settings(EvalSettings::default().cache(true).threads(w))
            .replication_threads(w)
    };
    let runs: Vec<(Vec<String>, TuningRun)> = [1usize, 2, 8]
        .iter()
        .map(|&w| traced(&cfg_at(w), TuningMethod::Partitioning, 6))
        .collect();
    let (lines_1, run_1) = &runs[0];
    for (w, (lines, run)) in [2usize, 8].iter().zip(&runs[1..]) {
        assert_eq!(lines_1, lines, "{w} workers changed the trace bytes");
        assert_eq!(
            run_1.best_wips.to_bits(),
            run.best_wips.to_bits(),
            "{w} workers changed the best WIPS"
        );
        assert_eq!(run_1.best_config, run.best_config);
    }
    // The session fingerprint is a function of the scenario inputs, so
    // the engine width must not leak into it: a checkpoint written at
    // one width resumes at any other.
    let fp_at =
        |w: usize| orchestrator::checkpoint::session_fingerprint(&cfg_at(w), "partitioning", 6, 0);
    assert_eq!(fp_at(1), fp_at(2));
    assert_eq!(fp_at(1), fp_at(8));
}

/// The refill schedule of a cold simplex init chain. 2x2x2's full
/// space has 47 init vertices, all certain in advance, against the
/// default 32-iteration horizon: speculation refills once at iteration 0
/// (32 vertices) and once more when the loop reaches the first vertex
/// past that window (the remaining 15), and every evaluation the loop
/// consumes is a hit. The schedule reads only cache contents, so it is
/// the same at every worker count.
#[test]
fn cold_init_chain_refills_twice_at_any_width() {
    const ITERS: u32 = 47;
    let counters_at = |w: usize| {
        let cfg = pinned(Topology::tiers(2, 2, 2).expect("topology"), 300)
            .eval_settings(EvalSettings::default().cache(true).threads(w));
        tune(&cfg, TuningMethod::Default, ITERS).expect("tuning session");
        cfg.eval.counters()
    };
    let at_2 = counters_at(2);
    let at_8 = counters_at(8);
    for (w, c) in [(2, &at_2), (8, &at_8)] {
        assert_eq!(c.misses, 0, "width {w}: {c:?}");
        assert_eq!(c.speculated, u64::from(ITERS), "width {w}: {c:?}");
        assert_eq!(c.refills, 2, "width {w}: 32, then 15: {c:?}");
    }
    assert_eq!(at_2, at_8, "worker count changed the refill schedule");
}

/// Multi-server sessions speculate only certain joint proposals. Each
/// duplication tier server always knows its very next proposal, but
/// after a reflect it offers three follow-ups; crossing those lists
/// prefetched joint combinations of which at most one was consumed. On a
/// cold session every consumed evaluation is still a hit, each prefetched
/// exactly once, at any width, and the results match the sequential run.
#[test]
fn duplication_speculates_only_certain_joint_proposals() {
    const ITERS: u32 = 16;
    let cfg_at = |w: usize| {
        pinned(Topology::tiers(2, 2, 2).expect("topology"), 300)
            .eval_settings(EvalSettings::default().cache(true).threads(w))
    };
    let sequential = tune(&cfg_at(1), TuningMethod::Duplication, ITERS).expect("width 1");
    let counters_at = |w: usize| {
        let cfg = cfg_at(w);
        let run = tune(&cfg, TuningMethod::Duplication, ITERS).expect("tuning session");
        assert_eq!(run.wips_series(), sequential.wips_series(), "width {w}");
        cfg.eval.counters()
    };
    let at_2 = counters_at(2);
    let at_8 = counters_at(8);
    for (w, c) in [(2, &at_2), (8, &at_8)] {
        assert_eq!(c.misses, 0, "width {w}: {c:?}");
        assert_eq!(c.speculated, u64::from(ITERS), "width {w}: {c:?}");
    }
    assert_eq!(at_2, at_8, "worker count changed the speculation");
}

/// Checkpoint artifacts are width-independent too: two speculating
/// widths write snapshot + journal files that are byte-identical, down
/// to the serialized memoization cache (every width stores the same
/// speculated outcomes, merged in the same order).
#[test]
fn checkpoint_files_are_width_independent() {
    let run_at = |w: usize| {
        let dir = temp_dir(&format!("width-{w}"));
        let cfg = pinned(Topology::single(), 200)
            .eval_settings(EvalSettings::default().cache(true).threads(w))
            .checkpoint(CheckpointPolicy::new(&dir).every(2));
        let run = tune(&cfg, TuningMethod::Default, 6).expect("checkpointed session");
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let name = e.file_name().to_string_lossy().into_owned();
                let bytes = std::fs::read(e.path()).expect("checkpoint file");
                (name, bytes)
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
        (files, run)
    };
    let (files_2, run_2) = run_at(2);
    let (files_8, run_8) = run_at(8);
    assert!(
        files_2.iter().any(|(n, _)| n.starts_with("snap-")),
        "expected at least one snapshot: {:?}",
        files_2.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&files_2), names(&files_8));
    for ((name, bytes_2), (_, bytes_8)) in files_2.iter().zip(&files_8) {
        assert_eq!(bytes_2, bytes_8, "{name} differs between widths 2 and 8");
    }
    assert_eq!(run_2.best_wips.to_bits(), run_8.best_wips.to_bits());
}

/// Kill a speculating session mid-run at one width and resume it at a
/// *different* width: the continued trace must still match the
/// uninterrupted sequential run byte for byte. Crash recovery, the
/// restored cache, and the worker pool compose without bleeding state.
#[test]
fn kill_and_resume_mid_speculation_is_width_independent() {
    const ITERS: u32 = 8;
    let base = pinned(Topology::single(), 200);
    // Sequential reference (no cache, one worker): ground truth bytes.
    let (full_lines, full_run) = traced(&base, TuningMethod::Default, ITERS);

    let k = 5u64;
    let dir = temp_dir("width-switch");
    let policy = CheckpointPolicy::new(&dir).every(2);
    let killed = base
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(2))
        .checkpoint(policy.clone());
    let mut sink = KillSink {
        inner: MemorySink::new(),
        kill_at: k,
    };
    run_killed(|| {
        let mut observer = SessionObserver::with_sink(&mut sink);
        let _ = tune_observed(&killed, TuningMethod::Default, ITERS, &mut observer);
    });
    // The pre-crash engine was speculating when the kill fired.
    assert!(
        killed.eval.counters().speculated > 0,
        "the killed session never speculated: {:?}",
        killed.eval.counters()
    );

    let resumed_cfg = base
        .eval_settings(EvalSettings::default().cache(true).threads(8))
        .checkpoint(policy.resume(true));
    let mut resumed_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut resumed_sink);
    let run = tune_observed(&resumed_cfg, TuningMethod::Default, ITERS, &mut observer)
        .expect("resumed session");
    let resumed = comparable_lines(&resumed_sink);

    assert!(
        resumed[0].starts_with("{\"kind\":\"resume\""),
        "{}",
        resumed[0]
    );
    let boundary = full_lines
        .iter()
        .position(|l| l.contains(&format!("\"iteration\":{k},")))
        .expect("iteration k in the reference trace");
    assert_eq!(
        &resumed[1..],
        &full_lines[boundary..],
        "post-resume trace at width 8 must match the sequential run"
    );
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    assert_eq!(run.best_config, full_run.best_config);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
