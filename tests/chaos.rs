//! Chaos conformance suite for the resilience policy stack.
//!
//! Contract: every registered tuner, driven through every plan in the
//! chaos library ([`faults::library`]), must **finish or degrade
//! gracefully** — never panic, never hang, never produce a non-finite
//! or negative throughput — and must do so deterministically. Killing a
//! chaos session at a policy-transition boundary (an iteration where
//! the stack retried, tripped, timed out, or degraded) and resuming it
//! must reproduce the uninterrupted run byte-for-byte: the policy state
//! (breaker counts, retry RNG position, fallback best, simulated clock)
//! restores from the journal without re-burning a single RNG draw.

use ah_webtune::faults::library;
use ah_webtune::prelude::*;
use obs::Value;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;

const ITERS: u32 = 4;

fn window_s() -> f64 {
    IntervalPlan::tiny().total().as_secs_f64()
}

fn chaos_cfg(plan: FaultPlan, tuner: &str) -> SessionConfig {
    SessionConfig::new(
        Topology::tiers(1, 2, 1).expect("topology"),
        Workload::Shopping,
        150,
    )
    .plan(IntervalPlan::tiny())
    .pin_seed(true)
    .tuner(tuner)
    .fault_plan(plan)
}

/// The hardened policy profile the conformance contract runs under:
/// every optional layer is live.
fn chaos_settings() -> ResilienceSettings {
    ResilienceSettings {
        breaker_threshold: 2,
        breaker_half_open_after: Some(2),
        timeout_s: Some(window_s() * 2.0),
        bulkhead: Some(2),
        degrade_to_best: true,
        ..Default::default()
    }
}

/// Finish-or-degrade: the full tuner × chaos-plan matrix completes with
/// one finite, non-negative record per iteration. Degraded iterations
/// never report more than the best throughput actually measured.
#[test]
fn every_tuner_survives_every_chaos_plan() {
    for tuner in harmony::registry::tuner_names() {
        for chaos in library::all(window_s(), 4) {
            let cfg = chaos_cfg(chaos.plan.clone(), tuner);
            let run = run_resilient_session(&cfg, &chaos_settings(), ITERS)
                .unwrap_or_else(|e| panic!("{tuner} × {}: {e:?}", chaos.name));
            assert_eq!(
                run.records.len(),
                ITERS as usize,
                "{tuner} × {} must finish every iteration",
                chaos.name
            );
            for r in &run.records {
                assert!(
                    r.wips.is_finite() && r.wips >= 0.0,
                    "{tuner} × {}: bad wips {r:?}",
                    chaos.name
                );
            }
            assert!(run.best_wips.is_finite() && run.best_wips >= 0.0);
            for rec in &run.recoveries {
                if rec.action == "degraded" {
                    assert!(
                        rec.wips <= run.best_wips + 1e-9,
                        "{tuner} × {}: degraded above best-known: {rec:?} vs {}",
                        chaos.name,
                        run.best_wips
                    );
                }
            }
        }
    }
}

/// Determinism: the same tuner under the same chaos plan reproduces the
/// run bit-for-bit — WIPS series, recovery sequence, and node moves.
#[test]
fn chaos_runs_are_deterministic() {
    let mayhem = library::all(window_s(), 4)
        .into_iter()
        .find(|c| c.name == "mixed-mayhem")
        .expect("library has mixed-mayhem");
    for tuner in harmony::registry::tuner_names() {
        let cfg = chaos_cfg(mayhem.plan.clone(), tuner);
        let a = run_resilient_session(&cfg, &chaos_settings(), ITERS).expect("first run");
        let b = run_resilient_session(&cfg, &chaos_settings(), ITERS).expect("second run");
        let bits =
            |r: &ResilientRun| -> Vec<u64> { r.records.iter().map(|x| x.wips.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b), "{tuner}: WIPS series must be bit-equal");
        let actions = |r: &ResilientRun| -> Vec<(u32, &str, u32, u64)> {
            r.recoveries
                .iter()
                .map(|x| (x.iteration, x.action, x.attempt, x.delay_s.to_bits()))
                .collect()
        };
        assert_eq!(actions(&a), actions(&b), "{tuner}: recovery sequence");
        assert_eq!(a.reconfigs.len(), b.reconfigs.len(), "{tuner}: node moves");
        assert_eq!(a.best_wips.to_bits(), b.best_wips.to_bits(), "{tuner}");
    }
}

// --- kill-and-resume at policy-transition boundaries -------------------

fn strip_wall_ms(line: String) -> String {
    match line.find(",\"wall_ms\":") {
        Some(at) => format!("{}}}", &line[..at]),
        None => line,
    }
}

fn lines_of(sink: &MemorySink) -> Vec<String> {
    sink.records
        .iter()
        .map(|r| strip_wall_ms(r.to_json()))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chaos-conformance-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Simulated `kill -9`: panics on the first trace record of iteration
/// `kill_at`, leaving journal and trace covering iterations before it.
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

/// Kill each chaos plan's session right after every iteration on which
/// the policy stack acted (a retry, trip, timeout, or degradation —
/// i.e. at a policy-transition boundary) and resume: the spliced trace
/// must be byte-identical to the uninterrupted one and the final state
/// bit-equal. No jitter draw is ever re-burned on restore. TUNA weights
/// samples by their confidence interval, so its sessions also pin that
/// replay rebuilds the typed measurement the live loop fed it; they
/// snapshot every 3 iterations, so a kill at iteration 2 replays the
/// first two deltas — the start point's confirmation samples, whose
/// weighted median TUNA compares its first candidate against.
#[test]
fn kill_and_resume_is_byte_identical_at_policy_transitions() {
    let settings = chaos_settings();
    for (tuner, every) in [("simplex", 2), ("tuna", 3)] {
        for chaos in library::all(window_s(), 4) {
            let cfg = chaos_cfg(chaos.plan.clone(), tuner);
            let name = format!("{tuner}-{}", chaos.name);
            kill_resume_roundtrip(&name, &cfg, &settings, every);
        }
    }
}

/// Run the kill/resume byte-identity contract for one (config, settings)
/// pair, snapshotting every `every` iterations: the boundaries are every
/// iteration after which the stack acted or (in detector mode)
/// membership transitioned — the latter are exactly the mid-suspicion
/// boundaries where φ windows, membership streaks, and pending arrivals
/// must restore bit-exactly.
fn kill_resume_roundtrip(
    name: &str,
    cfg: &SessionConfig,
    settings: &ResilienceSettings,
    every: u32,
) {
    let mut full_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut full_sink);
    let full_run = run_resilient_session_observed(cfg, settings, ITERS, &mut observer)
        .expect("uninterrupted chaos run");
    let full_lines = lines_of(&full_sink);

    // Resume right after each iteration where the stack acted or the
    // detector transitioned; the next iteration start is the kill point.
    let mut boundaries: Vec<u64> = full_run
        .recoveries
        .iter()
        .map(|r| r.iteration as u64 + 1)
        .chain(full_run.detections.iter().map(|d| d.iteration as u64 + 1))
        .filter(|&k| k < ITERS as u64)
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    assert!(
        !boundaries.is_empty(),
        "{name}: chaos plan must force at least one policy transition: {:?}",
        full_run.recoveries
    );

    for k in boundaries {
        let dir = temp_dir(&format!("{name}-{k}"));
        let ck = cfg
            .clone()
            .checkpoint(CheckpointPolicy::new(&dir).every(every));
        let mut sink = KillSink {
            inner: MemorySink::new(),
            kill_at: k,
        };
        run_killed(|| {
            let mut observer = SessionObserver::with_sink(&mut sink);
            let _ = run_resilient_session_observed(&ck, settings, ITERS, &mut observer);
        });
        let pre = lines_of(&sink.inner);
        assert_eq!(pre, full_lines[..pre.len()], "{name} k={k}: pre-kill trace");

        let resume_cfg = cfg
            .clone()
            .checkpoint(CheckpointPolicy::new(&dir).every(every).resume(true));
        let mut resumed_sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut resumed_sink);
        let run = run_resilient_session_observed(&resume_cfg, settings, ITERS, &mut observer)
            .expect("resumed chaos run");
        let resumed = lines_of(&resumed_sink);
        assert!(resumed[0].contains("\"kind\":\"resume\""), "{}", resumed[0]);
        assert_eq!(
            &resumed[1..],
            &full_lines[pre.len()..],
            "{name} k={k}: post-resume trace must splice byte-identically"
        );
        assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
        assert_eq!(run.final_topology, full_run.final_topology);
        assert_eq!(run.records.len(), full_run.records.len());
        assert_eq!(run.recoveries.len(), full_run.recoveries.len());
        assert_eq!(run.reconfigs.len(), full_run.reconfigs.len());
        assert_eq!(run.detections, full_run.detections, "{name} k={k}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

// --- detector-mode conformance -----------------------------------------

/// The chaos profile with the failure detector on: reconfiguration is
/// gated on detected membership instead of the injector oracle.
fn detector_settings() -> ResilienceSettings {
    ResilienceSettings {
        detector: Some(DetectorConfig::default()),
        ..chaos_settings()
    }
}

/// Finish-or-degrade holds for every tuner × chaos plan with the
/// detector driving reconfiguration, and every detection the sessions
/// report is well-formed (known states, finite φ, in-range node).
#[test]
fn every_tuner_survives_every_chaos_plan_in_detector_mode() {
    let nodes = Topology::tiers(1, 2, 1).expect("topology").len();
    for tuner in harmony::registry::tuner_names() {
        for chaos in library::all(window_s(), 4) {
            let cfg = chaos_cfg(chaos.plan.clone(), tuner);
            let run = run_resilient_session(&cfg, &detector_settings(), ITERS)
                .unwrap_or_else(|e| panic!("{tuner} × {}: {e:?}", chaos.name));
            assert_eq!(
                run.records.len(),
                ITERS as usize,
                "{tuner} × {}",
                chaos.name
            );
            for r in &run.records {
                assert!(
                    r.wips.is_finite() && r.wips >= 0.0,
                    "{tuner} × {}: bad wips {r:?}",
                    chaos.name
                );
            }
            for d in &run.detections {
                assert!(d.node < nodes, "{tuner} × {}: {d:?}", chaos.name);
                assert!(d.phi.is_finite() && d.phi >= 0.0, "{d:?}");
                assert!(
                    ["up", "suspect", "down"].contains(&d.from)
                        && ["up", "suspect", "down"].contains(&d.to),
                    "{d:?}"
                );
            }
        }
    }
}

/// Detector-mode determinism: detections, WIPS series, and node moves
/// reproduce bit-for-bit across runs for every tuner.
#[test]
fn detector_chaos_runs_are_deterministic() {
    let mayhem = library::all(window_s(), 4)
        .into_iter()
        .find(|c| c.name == "mixed-mayhem")
        .expect("library has mixed-mayhem");
    for tuner in harmony::registry::tuner_names() {
        let cfg = chaos_cfg(mayhem.plan.clone(), tuner);
        let a = run_resilient_session(&cfg, &detector_settings(), ITERS).expect("first run");
        let b = run_resilient_session(&cfg, &detector_settings(), ITERS).expect("second run");
        assert_eq!(a.detections, b.detections, "{tuner}: detections");
        let bits =
            |r: &ResilientRun| -> Vec<u64> { r.records.iter().map(|x| x.wips.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b), "{tuner}: WIPS series must be bit-equal");
        assert_eq!(a.reconfigs.len(), b.reconfigs.len(), "{tuner}: node moves");
        assert_eq!(a.best_wips.to_bits(), b.best_wips.to_bits(), "{tuner}");
    }
}

/// Kill-and-resume byte-identity with the detector on, across the chaos
/// library — every detection iteration is a kill boundary, so sessions
/// are killed mid-suspicion (estimator windows part-filled, membership
/// streaks in flight, stalled beats pending) and must splice exactly.
#[test]
fn detector_kill_and_resume_is_byte_identical_mid_suspicion() {
    let settings = detector_settings();
    for chaos in library::all(window_s(), 4) {
        let cfg = chaos_cfg(chaos.plan.clone(), "simplex");
        kill_resume_roundtrip(&format!("det-{}", chaos.name), &cfg, &settings, 2);
    }
    // And one plan built to straddle a boundary mid-confirmation: the
    // crash lands two beats before the window ends, so at the kill point
    // the node is Suspect but not yet confirmed Down.
    let w = window_s();
    let cfg = chaos_cfg(FaultPlan::new().crash(2.0 * w - 2.0, 1), "simplex");
    let run = run_resilient_session(&cfg, &settings, ITERS).expect("straddle run");
    assert!(
        run.detections
            .iter()
            .any(|d| d.to == "suspect" && d.iteration == 1)
            && run
                .detections
                .iter()
                .any(|d| d.is_down() && d.iteration == 2),
        "suspicion must straddle the boundary: {:?}",
        run.detections
    );
    kill_resume_roundtrip("det-straddle", &cfg, &settings, 2);
}
