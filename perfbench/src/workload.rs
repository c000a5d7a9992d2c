//! The benchmark's workloads, and one tuning session of them run through
//! the library entry points `ah-webtune tune` calls, in the same order:
//! the `SessionConfig` builder, the `measure_default(2)` baseline, then
//! `tune_observed` or `run_resilient_session_observed`. (The CLI skips
//! the baseline on the resilient path; the benchmark takes it on every
//! workload so set-up time has the same parts everywhere.)
//!
//! A session is a batch job, so the load is a closed loop: one session
//! in flight, the next starting only after the previous returns.

use crate::host::Fnv;
use cluster::config::Topology;
use detect::DetectorConfig;
use faults::library::mixed_mayhem;
use harmony::TuningMethod;
use obs::{JsonlWriter, Registry, TraceRecord, TraceSink, Value};
use orchestrator::eval::EvalCounters;
use orchestrator::resilient::{run_resilient_session_observed, ResilienceSettings};
use orchestrator::session::{tune_observed, SessionObserver};
use orchestrator::{CheckpointPolicy, EvalSettings, SessionConfig};
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tpcw::{IntervalPlan, Workload};

/// One named workload. Every workload runs on topology 2x2x2 with the
/// CLI's default eval cache on.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub workload: Workload,
    /// Emulated browsers.
    pub population: u32,
    pub plan: IntervalPlan,
    /// Speculative evaluation width (`--eval-threads`).
    pub eval_threads: usize,
    pub iterations: u32,
    /// Resilient session: TUNA tuner, φ-accrual detector, the
    /// `mixed_mayhem` chaos plan. Its traced run adds a checkpointed
    /// session; the end-to-end sessions write no checkpoints, because
    /// fsync latency on a shared disk swings by several times for
    /// minutes at a time and moved `session_s` by 35% and `iter_ms_p95`
    /// by 43% between runs.
    pub chaos: bool,
}

impl Spec {
    /// Snapshot cadence of checkpointed sessions (the CLI default).
    pub const SNAPSHOT_EVERY: u32 = 10;

    pub fn all() -> Vec<Spec> {
        vec![
            Spec {
                name: "browse-tune",
                why: "Browsing mix, 1000 EBs, fast plan, simplex, eval width 1: read-heavy DES with the proxy cache in play; the session layers idle",
                workload: Workload::Browsing,
                population: 1000,
                plan: IntervalPlan::fast(),
                eval_threads: 1,
                iterations: 60,
                chaos: false,
            },
            Spec {
                name: "order-spec",
                why: "Ordering mix, 2000 EBs, fast plan, simplex, speculative eval width 2: write-heavy DES plus orchestrator eval/par at work",
                workload: Workload::Ordering,
                population: 2000,
                plan: IntervalPlan::fast(),
                eval_threads: 2,
                // The full-space simplex's 47 initial vertices: past them
                // each seed's search path moved iter_ms_p95 between 175
                // and 300 ms.
                iterations: 47,
                chaos: false,
            },
            Spec {
                name: "chaos-ckpt",
                why: "Shopping mix, 200 EBs, tiny plan, TUNA, phi detector, mixed_mayhem faults: cheap DES, so session layers dominate; the traced run adds a checkpointed session",
                workload: Workload::Shopping,
                population: 200,
                plan: IntervalPlan::tiny(),
                eval_threads: 1,
                iterations: 500,
                chaos: true,
            },
        ]
    }

    pub fn named(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    pub fn topology() -> Topology {
        Topology::tiers(2, 2, 2).expect("2x2x2 is a valid topology")
    }
}

/// Every seed a session uses, derived from the benchmark's `--seed` and
/// the search path. The tuner seed follows from `base` inside the
/// session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub base: u64,
    pub fault: u64,
}

impl Seeds {
    pub fn derive(seed: u64, path: u32) -> Seeds {
        let root = splitmix(seed ^ (u64::from(path) << 32));
        Seeds {
            base: splitmix(root ^ 0xBA5E_5EED),
            fault: splitmix(root ^ 0xFA17_5EED),
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the benchmark keeps of one `iteration` record, stamped with its
/// own clock on arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub at: Instant,
    pub iteration: u32,
    pub wips: f64,
    pub ci_half: f64,
    pub completed: u64,
    pub failed: u64,
    pub events: u64,
    /// The session's own timing of the iteration, which leaves out the
    /// speculative prefetch before it and the checkpoint writes after.
    pub wall_ms: f64,
}

/// A trace sink that timestamps record arrivals and keeps the few fields
/// the output check needs. In a traced session it also passes every
/// record on to a JSONL file, as `--trace PATH` does.
#[derive(Default)]
pub struct ArrivalSink {
    pub arrivals: Vec<Arrival>,
    pub recoveries: u64,
    pub degraded: u64,
    /// Configuration of the best iteration so far, as the records print it.
    pub best_config: String,
    forward: Option<Box<dyn TraceSink>>,
}

fn num(rec: &TraceRecord, key: &str) -> f64 {
    rec.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn count(rec: &TraceRecord, key: &str) -> u64 {
    match rec.get(key) {
        Some(Value::UInt(u)) => *u,
        _ => 0,
    }
}

impl TraceSink for ArrivalSink {
    fn emit(&mut self, rec: &TraceRecord) {
        let at = Instant::now();
        match rec.kind() {
            "iteration" => {
                let iteration = count(rec, "iteration") as u32;
                if count(rec, "best_iteration") == u64::from(iteration) {
                    if let Some(Value::Str(c)) = rec.get("config") {
                        self.best_config.clone_from(c);
                    }
                }
                self.arrivals.push(Arrival {
                    at,
                    iteration,
                    wips: num(rec, "wips"),
                    ci_half: num(rec, "ci_half"),
                    completed: count(rec, "completed"),
                    failed: count(rec, "failed"),
                    events: count(rec, "events"),
                    wall_ms: num(rec, "wall_ms"),
                });
            }
            "recovery" => self.recoveries += 1,
            "degraded" => self.degraded += 1,
            _ => {}
        }
        if let Some(sink) = self.forward.as_mut() {
            sink.emit(rec);
        }
    }

    fn flush(&mut self) {
        if let Some(sink) = self.forward.as_mut() {
            sink.flush();
        }
    }
}

/// One finished session.
pub struct Session {
    /// The configuration it ran with; clones share its eval cache.
    pub cfg: SessionConfig,
    /// Workload start (before the config is built).
    pub begin: Instant,
    /// Start of iteration 0: the first record's arrival less its own
    /// `wall_ms`, which after the checkpoint open and tuner construction
    /// times exactly that iteration. A speculating session prefetches
    /// before the clock behind `wall_ms` starts, and that prefetch is
    /// iteration work, so there iteration 0 starts at the session call.
    pub iter0: Instant,
    pub end: Instant,
    pub sink: ArrivalSink,
    pub best_wips: f64,
    /// First iteration within 1% of the best WIPS.
    pub iters_to_best: u32,
    /// Eval-engine activity during the session call.
    pub eval: EvalCounters,
    pub error: Option<String>,
    pub checkpoint_dir: Option<PathBuf>,
}

impl Session {
    pub fn setup_s(&self) -> f64 {
        self.iter0.duration_since(self.begin).as_secs_f64()
    }

    pub fn session_s(&self) -> f64 {
        self.end.duration_since(self.iter0).as_secs_f64()
    }

    /// Gaps between consecutive `iteration` records, in ms, each with
    /// the iteration that ends it.
    pub fn gaps_ms(&self) -> Vec<(u32, f64)> {
        self.sink
            .arrivals
            .windows(2)
            .map(|w| {
                let gap = w[1].at.duration_since(w[0].at).as_secs_f64() * 1e3;
                (w[1].iteration, gap)
            })
            .collect()
    }

    pub fn events(&self) -> u64 {
        self.sink.arrivals.iter().map(|a| a.events).sum()
    }

    /// Iterations whose output fails the check: a WIPS that is not a
    /// finite non-negative number, or a run that simulated no events.
    pub fn bad_outputs(&self) -> usize {
        self.sink
            .arrivals
            .iter()
            .filter(|a| !(a.wips.is_finite() && a.wips >= 0.0) || a.events == 0)
            .count()
    }

    /// Fingerprint of everything the session computed: every
    /// iteration's WIPS bits, refused and event counts, the recovery
    /// actions, and the best configuration. Equal for equal seeds.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for a in &self.sink.arrivals {
            h.u64(u64::from(a.iteration));
            h.u64(a.wips.to_bits());
            h.u64(a.failed);
            h.u64(a.events);
        }
        h.u64(self.sink.recoveries);
        h.u64(self.sink.degraded);
        h.u64(self.best_wips.to_bits());
        h.bytes(self.sink.best_config.as_bytes());
        h.finish()
    }
}

/// Run one session from scratch: build the configuration with a fresh
/// eval cache, take the CLI's baseline measurement, then tune.
/// A `checkpoint_dir` is wiped first.
pub fn cold(
    spec: &Spec,
    seeds: Seeds,
    eval_threads: usize,
    checkpoint_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
) -> Session {
    let begin = Instant::now();
    let mut cfg = SessionConfig::new(Spec::topology(), spec.workload, spec.population)
        .plan(spec.plan)
        .base_seed(seeds.base);
    if spec.chaos {
        let window_s = spec.plan.total().as_secs_f64();
        let nodes = cfg.topology.len();
        cfg = cfg
            .fault_plan(mixed_mayhem(window_s, nodes))
            .fault_seed(seeds.fault);
    }
    if let Some(dir) = &checkpoint_dir {
        let _ = fs::remove_dir_all(dir);
        cfg = cfg.checkpoint(CheckpointPolicy::new(dir).every(Spec::SNAPSHOT_EVERY));
    }
    cfg = cfg
        .eval_settings(EvalSettings::default().cache(true).threads(eval_threads))
        .replication_threads(1);
    let invalid = cfg.validate_faults().err().map(|e| e.to_string());
    if spec.chaos {
        cfg = cfg.tuner("tuna");
    }
    std::hint::black_box(cfg.measure_default(2));
    run(spec, cfg, begin, checkpoint_dir, trace, invalid)
}

/// Run the session of `prior` again on its (now warm) eval cache, so
/// every evaluation is a cache hit and only the non-DES layers work.
pub fn replay(
    spec: &Spec,
    prior: &Session,
    checkpoint_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
) -> Session {
    let begin = Instant::now();
    let mut cfg = prior.cfg.clone();
    if let Some(dir) = &checkpoint_dir {
        let _ = fs::remove_dir_all(dir);
        cfg = cfg.checkpoint(CheckpointPolicy::new(dir).every(Spec::SNAPSHOT_EVERY));
    }
    run(spec, cfg, begin, checkpoint_dir, trace, None)
}

fn run(
    spec: &Spec,
    cfg: SessionConfig,
    begin: Instant,
    checkpoint_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    mut invalid: Option<String>,
) -> Session {
    // Traced = what `--trace PATH --metrics` attaches: a JSONL file of
    // every record and a metrics registry; untraced keeps only arrival
    // stamps.
    let registry = trace.is_some().then(Registry::new);
    let mut sink = ArrivalSink::default();
    if let Some(path) = &trace {
        match JsonlWriter::create(path) {
            Ok(w) => sink.forward = Some(Box::new(w)),
            Err(e) => {
                invalid.get_or_insert(format!("cannot open trace file {}: {e}", path.display()));
            }
        }
    }
    let before = cfg.eval.counters();
    let start = Instant::now();
    let outcome = match invalid {
        Some(e) => Err(e),
        None => {
            let mut observer = SessionObserver::new(Some(&mut sink), registry.as_ref());
            if spec.chaos {
                let settings = ResilienceSettings {
                    detector: Some(DetectorConfig::default()),
                    ..ResilienceSettings::default()
                };
                run_resilient_session_observed(&cfg, &settings, spec.iterations, &mut observer).map(
                    |run| {
                        let target = run.best_wips * 0.99;
                        let first = run.records.iter().find(|r| r.wips >= target);
                        (run.best_wips, first.map_or(0, |r| r.iteration))
                    },
                )
            } else {
                tune_observed(&cfg, TuningMethod::Default, spec.iterations, &mut observer)
                    .map(|run| (run.best_wips, run.first_within(0.99)))
            }
            .map_err(|e| e.to_string())
        }
    };
    let end = Instant::now();
    let eval = cfg.eval.counters().since(&before);
    let iter0 = match sink.arrivals.first() {
        Some(a) if cfg.eval.threads() == 1 => {
            a.at.checked_sub(Duration::from_secs_f64(a.wall_ms.max(0.0) / 1e3))
                .map_or(start, |t| t.max(start))
        }
        _ => start,
    };
    let (best_wips, iters_to_best, error) = match outcome {
        Ok((best, first)) => (best, first, None),
        Err(e) => (0.0, 0, Some(e)),
    };
    Session {
        cfg,
        begin,
        iter0,
        end,
        sink,
        best_wips,
        iters_to_best,
        eval,
        error,
        checkpoint_dir,
    }
}
