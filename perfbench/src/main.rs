//! The repository benchmark: tuning sessions of `ah-webtune`, timed end
//! to end with tracing off, and a separate traced run that times each
//! layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse-tune|order-spec|chaos-ckpt --seed N \
//!     --seconds S --trace 0|1 [--baseline RESULT_FILE]
//! ```
//!
//! `--trace 0` runs cold sessions for `--seconds`, each on a search path
//! of its own (a seed derived from `--seed`), runs the first path again
//! to check the output repeats, and reports the end-to-end metrics. A
//! fixed reference kernel timed between sessions measures how fast the
//! shared host runs meanwhile; the timings are reported rescaled to the
//! kernel's reference speed, and printed as measured beside them.
//! `--trace 1` runs one untraced and one traced cold session, a warm
//! replay, and the layer timings, and reports the per-layer metrics.
//! Human-readable tables come first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Every run writes its
//! result with the host facts to `.bench_out/results/`, the traced run
//! its spans to `.bench_out/spans/` and its sessions' records to
//! `.bench_out/trace/`. `--baseline` compares against an
//! earlier result file and refuses one from another host.
//!
//! `--seed` defaults to [`DEFAULT_SEED`]; confirm a claimed gain on
//! [`HELD_OUT_SEED`] as well, which no tuning of the benchmark used.
//!
//! Exit codes: 0 ok, 1 output check failed, 2 usage, 3 refused baseline.

mod host;
mod layers;
mod probe;
mod spans;
mod stats;
mod workload;

use host::{check_same_host, HostFacts, ResultFile};
use probe::Probe;
use spans::{SpanId, SpanLog};
use stats::{median, percentile, quartiles, spread, valid_name, valid_unit};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Seeds, Session, Spec};

/// End-to-end metrics: name, unit, better, definition. The first five
/// are host timings rescaled to the reference host speed (see [`probe`]).
#[rustfmt::skip]
const END_TO_END: [(&str, &str, &str, &str); 7] = [
    ("setup_s", "s", "lower", "workload start to the start of iteration 0, median over sessions; rescaled"),
    ("session_s", "s", "lower", "start of iteration 0 to the session's return, median over sessions; rescaled"),
    ("iter_ms_p50", "ms", "lower", "median gap between consecutive iteration records, benchmark clock; rescaled"),
    ("iter_ms_p95", "ms", "lower", "p95 of the same gaps (at least 10 beyond it); rescaled"),
    ("sim_events_per_s", "events/s", "higher", "simulated events in the records / session_s, median over sessions; rescaled"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the benchmark process"),
    ("ok_frac", "ratio", "higher", "iterations neither failed, degraded, rejected nor failing the output check, over attempted"),
];

/// Per-layer metrics: name, unit, better, end-to-end metric it should
/// move, and where it should (and should not) move.
#[rustfmt::skip]
const PER_LAYER: [(&str, &str, &str, &str, &str); 26] = [
    ("cluster.run_ms", "ms", "lower", "session_s, iter_ms_p50", "browse-tune, order-spec; about half of chaos-ckpt"),
    ("cluster.ns_per_event", "ns", "lower", "sim_events_per_s", "browse-tune, order-spec"),
    ("cluster.events_per_iter", "count", "lower", "session_s", "all; identical under a speed-only change"),
    ("cluster.refused_frac", "ratio", "lower", "harmony.best_wips", "non-zero in order-spec, 0 in browse-tune; identical under a speed-only change"),
    ("cluster.proxy_lookup_ns", "ns", "lower", "iter_ms_p50", "browse-tune; little in order-spec"),
    ("cluster.proxy_mem_hit_ratio", "ratio", "higher", "iter_ms_p50", "browse-tune; little in order-spec"),
    ("simkit.hold_ns", "ns", "lower", "sim_events_per_s", "largest in order-spec, smallest in chaos-ckpt"),
    ("tpcw.sample_ns", "ns", "lower", "iter_ms_p50", "browse-tune, order-spec"),
    ("orchestrator.loop_ms", "ms", "lower", "session_s", "chaos-ckpt; under 5% of the other two"),
    ("orchestrator.snapshot_extra_ms", "ms", "lower", "iter_ms_p95", "chaos-ckpt only"),
    ("orchestrator.record_gap_ms", "ms", "lower", "iter_ms_p95, iter_ms_p50", "chaos-ckpt (journal/snapshot), order-spec (prefetch)"),
    ("eval.misses", "count", "lower", "session_s", "order-spec"),
    ("eval.hit_rate", "ratio", "higher", "session_s", "order-spec"),
    ("eval.spec_useful", "ratio", "higher", "session_s", "order-spec (consumed / stored speculative results)"),
    ("harmony.step_us", "us", "lower", "session_s", "chaos-ckpt (TUNA) against browse-tune (simplex)"),
    ("harmony.best_wips", "WIPS", "higher", "none (tuning outcome)", "all; identical under a speed-only change"),
    ("harmony.iters_to_best", "count", "lower", "none (tuning outcome)", "all; identical under a speed-only change"),
    ("persist.snapshot_write_ms", "ms", "lower", "iter_ms_p95", "chaos-ckpt only"),
    ("persist.snapshot_bytes", "bytes", "lower", "iter_ms_p95", "chaos-ckpt only"),
    ("persist.journal_append_us", "us", "lower", "session_s", "chaos-ckpt only"),
    ("persist.checkpoint_share", "ratio", "lower", "session_s", "chaos-ckpt only: (checkpointed - plain traced session_s) / plain"),
    ("detect.window_us", "us", "lower", "session_s", "chaos-ckpt only"),
    ("detect.heartbeats", "count", "lower", "session_s", "chaos-ckpt only"),
    ("faults.window_us", "us", "lower", "session_s", "chaos-ckpt only"),
    ("resilience.actions", "count", "lower", "ok_frac", "chaos-ckpt only"),
    ("obs.trace_overhead_frac", "ratio", "lower", "all", "all workloads"),
];

/// Fewest iteration gaps an end-to-end run collects: enough for
/// `iter_ms_p95` to have ten beyond it.
const MIN_GAPS: usize = 200;

/// Session time per timing of the reference kernel (~14 ms): the host
/// is sampled for about 3% of a run.
const PROBE_EVERY_S: f64 = 0.5;

const OUT_DIR: &str = ".bench_out";

/// The seed a comparison uses unless told otherwise.
const DEFAULT_SEED: u64 = 1;
/// The seed kept back for confirming a claim.
const HELD_OUT_SEED: u64 = 20_041_004;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Spec::all().iter().map(|s| s.name).collect();
    format!(
        "usage: perfbench --workload {} [--seed N] --seconds S --trace 0|1 [--baseline FILE]\n\
         default seed {DEFAULT_SEED}; held-out seed for confirming a claim {HELD_OUT_SEED}",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace, mut baseline) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec =
                    Some(Spec::named(&value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--baseline" => baseline = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        baseline,
    })
}

/// What one run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The session facts an end-to-end run keeps; the session itself (and
/// its eval cache) is dropped so memory reflects one session at a time.
struct Summary {
    setup_s: f64,
    session_s: f64,
    gaps_ms: Vec<f64>,
    events: u64,
    records: u64,
    fingerprint: u64,
    best_wips: f64,
    iters_to_best: u32,
    bad_outputs: u64,
    degraded: u64,
    error: Option<String>,
}

impl Summary {
    fn of(s: &Session) -> Summary {
        Summary {
            setup_s: s.setup_s(),
            session_s: s.session_s(),
            gaps_ms: s.gaps_ms().into_iter().map(|(_, g)| g).collect(),
            events: s.events(),
            records: s.sink.arrivals.len() as u64,
            fingerprint: s.fingerprint(),
            best_wips: s.best_wips,
            iters_to_best: s.iters_to_best,
            bad_outputs: s.bad_outputs() as u64,
            degraded: s.sink.degraded,
            error: s.error.clone(),
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), which unlike
/// `getrusage` is not inherited from the parent across `exec`.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--trace 0`: cold sessions back to back for `seconds`, each on a
/// search path of its own (a seed derived from `seed`), so the figures
/// average over where the searches go rather than hang on a few of
/// them; then path 0 once more for the output check.
fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let t0 = Instant::now();
    let cold = |path: u32| {
        let session = workload::cold(
            spec,
            Seeds::derive(seed, path),
            spec.eval_threads,
            None,
            None,
        );
        Summary::of(&session)
    };
    let mut probe = Probe::new(seed);
    let mut probe_ms = vec![probe.time_ms()];
    let mut runs: Vec<Summary> = Vec::new();
    let mut gap_count = 0;
    // Stop one typical session short of `seconds`, which the check
    // session then takes, so a run lasts about `seconds`.
    let left = |runs: &[Summary]| {
        let elapsed = t0.elapsed().as_secs_f64();
        seconds - elapsed * (1.0 + 1.0 / runs.len().max(1) as f64)
    };
    while runs.is_empty() || gap_count < MIN_GAPS || left(&runs) > 0.0 {
        let run = cold(runs.len() as u32);
        gap_count += run.gaps_ms.len();
        // One kernel timing per PROBE_EVERY_S of session, so every
        // workload samples the host about equally often.
        let timings = ((run.setup_s + run.session_s) / PROBE_EVERY_S)
            .ceil()
            .max(1.0);
        probe_ms.extend((0..timings as usize).map(|_| probe.time_ms()));
        runs.push(run);
    }
    let again = cold(0);

    let mut problems = Vec::new();
    let per_session = u64::from(spec.iterations);
    let (mut failed, mut not_ok) = (0u64, 0u64);
    for (i, r) in runs.iter().chain([&again]).enumerate() {
        let problem = match &r.error {
            Some(e) => Some(format!("session {i}: {e}")),
            None if !spec.chaos && r.records != per_session => Some(format!(
                "session {i}: {} iteration records for {per_session} iterations",
                r.records
            )),
            None => None,
        };
        if let Some(p) = problem {
            problems.push(p);
            failed += per_session;
            not_ok += per_session;
        } else {
            failed += r.bad_outputs;
            // Iterations without a record were rejected by the
            // resilience stack; degraded ones carry a substitute WIPS.
            not_ok += r.bad_outputs + r.degraded + per_session.saturating_sub(r.records);
        }
    }
    let first = &runs[0];
    if first.error.is_none() && again.error.is_none() && again.fingerprint != first.fingerprint {
        problems.push(format!(
            "search path 0 run again: output fingerprint {:016x} differs from {:016x} of its first run",
            again.fingerprint, first.fingerprint
        ));
        failed += per_session;
        not_ok += per_session;
    }
    let attempted = per_session * (runs.len() as u64 + 1);
    let gaps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.gaps_ms.iter().copied())
        .collect();
    let p95 = percentile(&gaps, 95.0).unwrap_or_else(|e| {
        problems.push(format!("iter_ms_p95: {e}"));
        0.0
    });
    let med =
        |f: fn(&Summary) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let measured = [
        med(|r| r.setup_s),
        med(|r| r.session_s),
        median(&gaps).unwrap_or(0.0),
        p95,
        med(|r| r.events as f64 / r.session_s),
    ];
    // Host speed over the run, against the reference: above 1 when the
    // host ran slow.
    let slowdown = median(&probe_ms).unwrap_or(probe::REFERENCE_MS) / probe::REFERENCE_MS;
    let metrics = vec![
        ("setup_s", measured[0] / slowdown, "s"),
        ("session_s", measured[1] / slowdown, "s"),
        ("iter_ms_p50", measured[2] / slowdown, "ms"),
        ("iter_ms_p95", measured[3] / slowdown, "ms"),
        ("sim_events_per_s", measured[4] * slowdown, "events/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("ok_frac", 1.0 - not_ok as f64 / attempted as f64, "ratio"),
    ];
    println!(
        "{} ({}): {} cold sessions of {} iterations on search paths 0..{}, {} iteration gaps; \
         path 0 run again for the output check, fingerprint {:016x}",
        spec.name,
        spec.why,
        runs.len(),
        spec.iterations,
        runs.len() - 1,
        gaps.len(),
        first.fingerprint
    );
    println!(
        "  also: failed_frac {:.4}; path 0: best_wips {:.3}, iters_to_best {} (first iteration within 1% of best)",
        failed as f64 / attempted as f64,
        first.best_wips,
        first.iters_to_best,
    );
    let times: Vec<f64> = runs.iter().map(|r| r.session_s).collect();
    if let (Some((q1, q3)), Some(within)) = (quartiles(&times), spread(&times)) {
        println!("  session_s quartiles {q1:.3} .. {q3:.3} s, spread within this run {within:.3}");
    }
    println!(
        "  host: reference kernel {:.3} ms (median of {}), {slowdown:.4}x its reference {} ms; \
         timings below are rescaled by it, the measured column is not",
        slowdown * probe::REFERENCE_MS,
        probe_ms.len(),
        probe::REFERENCE_MS
    );
    let mut table = orchestrator::report::TextTable::new([
        "metric",
        "value",
        "measured",
        "unit",
        "better",
        "definition",
    ]);
    for (i, ((name, value, unit), (_, _, better, def))) in
        metrics.iter().zip(END_TO_END.iter()).enumerate()
    {
        table.row([
            name.to_string(),
            format!("{value:.6}"),
            measured.get(i).map_or("-".into(), |m| format!("{m:.6}")),
            unit.to_string(),
            better.to_string(),
            def.to_string(),
        ]);
    }
    println!("{}", table.render());
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    }
}

/// `--trace 1`: one untraced and one traced cold session, a warm replay
/// on the traced session's cache, a cold width-1 session where the
/// workload speculates, then each layer timed through its public
/// functions. Spans go to `.bench_out/spans/`.
fn traced(spec: &Spec, seed: u64, work: &Path) -> Report {
    let seeds = Seeds::derive(seed, 0);
    let mut log = SpanLog::new();
    let root = log.open(&format!("run {}", spec.name), None, 0);
    let mut problems = Vec::new();

    let traces = Path::new(OUT_DIR).join("trace");
    if let Err(e) = fs::create_dir_all(&traces) {
        problems.push(format!("cannot create {}: {e}", traces.display()));
    }
    let trace = |label: &str| Some(traces.join(format!("{}-s{seed}-{label}.jsonl", spec.name)));

    let plain = workload::cold(spec, seeds, spec.eval_threads, None, None);
    session_spans(&mut log, root, 1, "untraced", &plain);
    let cold = workload::cold(spec, seeds, spec.eval_threads, None, trace("traced"));
    session_spans(&mut log, root, 2, "traced", &cold);
    let warm = workload::replay(spec, &cold, None, trace("warm-replay"));
    session_spans(&mut log, root, 3, "warm-replay", &warm);
    let narrow = (spec.eval_threads != 1).then(|| {
        let s = workload::cold(spec, seeds, 1, None, trace("width1"));
        session_spans(&mut log, root, 4, "traced-width1", &s);
        s
    });
    let width1 = narrow.as_ref().unwrap_or(&cold);
    // The checkpointed pair: a cold session journaling and snapshotting
    // into a fresh directory, and its warm replay.
    let checkpointed = spec.chaos.then(|| {
        let ck = workload::cold(
            spec,
            seeds,
            spec.eval_threads,
            Some(work.join("ckpt")),
            trace("checkpointed"),
        );
        session_spans(&mut log, root, 5, "checkpointed", &ck);
        let ck_warm = workload::replay(
            spec,
            &ck,
            Some(work.join("ckpt-warm")),
            trace("checkpointed-warm-replay"),
        );
        session_spans(&mut log, root, 6, "checkpointed-warm-replay", &ck_warm);
        (ck, ck_warm)
    });

    let reference = plain.fingerprint();
    let mut failed_sessions = 0u64;
    let mut sessions = vec![
        ("untraced", &plain),
        ("traced", &cold),
        ("warm replay", &warm),
    ];
    sessions.extend(narrow.as_ref().map(|s| ("width-1", s)));
    if let Some((ck, ck_warm)) = &checkpointed {
        sessions.extend([("checkpointed", ck), ("checkpointed warm replay", ck_warm)]);
    }
    for &(label, s) in &sessions {
        let problem = match &s.error {
            Some(e) => Some(format!("{label} session: {e}")),
            None if s.fingerprint() != reference => Some(format!(
                "{label} session output differs from the untraced session"
            )),
            None => None,
        };
        failed_sessions += u64::from(problem.is_some());
        problems.extend(problem);
    }
    for &(label, s) in sessions.iter().filter(|(l, _)| l.ends_with("warm replay")) {
        if s.eval.misses != 0 || s.eval.hits == 0 {
            failed_sessions += 1;
            problems.push(format!(
                "{label} hit the cache on {} of {} evaluations; its timings are refused",
                s.eval.hits,
                s.eval.hits + s.eval.misses
            ));
        }
    }

    let layer = log.open("layers", Some(root), 0);
    let scratch = work.join("scratch");
    let best = layers::proxy_params(&cold.sink.best_config);
    let (proxy_ns, mem_hit) = log.time("cluster.proxy", Some(layer), 0, || {
        layers::proxy(spec, best, seeds.base)
    });
    let hold_ns = log.time("simkit.hold", Some(layer), 0, || {
        layers::hold(spec, seeds.base)
    });
    let sample_ns = log.time("tpcw.sample", Some(layer), 0, || {
        layers::sample(spec, seeds.base)
    });
    let step_us = log.time("harmony.step", Some(layer), 0, || {
        layers::harmony_step(spec, &plain.sink.arrivals, seeds.base)
    });
    let ckpt = checkpointed
        .as_ref()
        .and_then(|(ck, _)| ck.checkpoint_dir.as_deref());
    let (snap_ms, snap_bytes) = log
        .time("persist.snapshot", Some(layer), 0, || {
            ckpt.and_then(|d| layers::snapshot_write(d, &scratch))
        })
        .unwrap_or((0.0, 0));
    let journal_us = log
        .time("persist.journal", Some(layer), 0, || {
            ckpt.and_then(|d| layers::journal_append(d, &scratch))
        })
        .unwrap_or(0.0);
    let (detect_us, heartbeats) = if spec.chaos {
        log.time("detect.window", Some(layer), 0, || {
            layers::detect_windows(spec, seeds)
        })
    } else {
        (0.0, 0)
    };
    let faults_us = if spec.chaos {
        log.time("faults.window", Some(layer), 0, || {
            layers::fault_windows(spec, seeds)
        })
    } else {
        0.0
    };
    log.close(layer);
    log.close(root);

    let iterations = plain.sink.arrivals.len().max(1) as f64;
    let events_per_iter = plain.events() as f64 / iterations;
    let run_ms = if width1.eval.misses > 0 {
        (width1.session_s() - warm.session_s()) * 1e3 / width1.eval.misses as f64
    } else {
        0.0
    };
    let (done, refused) = plain
        .sink
        .arrivals
        .iter()
        .fold((0u64, 0u64), |(d, f), a| (d + a.completed, f + a.failed));
    let record_gaps: Vec<f64> = plain
        .gaps_ms()
        .iter()
        .zip(plain.sink.arrivals.iter().skip(1))
        .map(|((_, gap), a)| gap - a.wall_ms)
        .collect();
    // A snapshot taken after iteration i - 1 delays the record of i.
    let (snapshot_extra, checkpoint_share) = match &checkpointed {
        Some((ck, ck_warm)) => {
            let gaps = ck_warm.gaps_ms();
            let gap_median = |snapshot: bool| {
                let picked: Vec<f64> = gaps
                    .iter()
                    .filter(|(i, _)| (i % Spec::SNAPSHOT_EVERY == 0) == snapshot)
                    .map(|(_, g)| *g)
                    .collect();
                median(&picked).unwrap_or(0.0)
            };
            (
                gap_median(true) - gap_median(false),
                (ck.session_s() - cold.session_s()) / cold.session_s(),
            )
        }
        None => (0.0, 0.0),
    };

    let values: [f64; 26] = [
        run_ms,
        if events_per_iter > 0.0 {
            run_ms * 1e6 / events_per_iter
        } else {
            0.0
        },
        events_per_iter,
        if done + refused > 0 {
            refused as f64 / (done + refused) as f64
        } else {
            0.0
        },
        proxy_ns,
        mem_hit,
        hold_ns,
        sample_ns,
        warm.session_s() * 1e3 / iterations,
        snapshot_extra,
        median(&record_gaps).unwrap_or(0.0),
        cold.eval.misses as f64,
        cold.eval.hit_rate(),
        if cold.eval.speculated > 0 {
            cold.eval.hits.min(cold.eval.speculated) as f64 / cold.eval.speculated as f64
        } else {
            0.0
        },
        step_us,
        plain.best_wips,
        f64::from(plain.iters_to_best),
        snap_ms,
        snap_bytes as f64,
        journal_us,
        checkpoint_share,
        detect_us,
        heartbeats as f64,
        faults_us,
        (cold.sink.recoveries + cold.sink.degraded) as f64,
        (cold.session_s() - plain.session_s()) / plain.session_s(),
    ];
    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, unit, ..), v)| (*name, v, *unit))
        .collect();

    println!(
        "{}: traced run; sessions untraced {:.3}s, traced {:.3}s, warm replay {:.3}s ({} hits, {} misses){}",
        spec.name,
        plain.session_s(),
        cold.session_s(),
        warm.session_s(),
        warm.eval.hits,
        warm.eval.misses,
        narrow.as_ref().map_or(String::new(), |s| format!(", width-1 cold {:.3}s", s.session_s()))
    );
    let mut table = orchestrator::report::TextTable::new([
        "layer metric",
        "value",
        "unit",
        "moves",
        "predicted to work in",
    ]);
    for ((name, value, unit), (.., moves, where_)) in metrics.iter().zip(PER_LAYER.iter()) {
        table.row([
            name.to_string(),
            format!("{value:.6}"),
            unit.to_string(),
            moves.to_string(),
            where_.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "tracing overhead: {:+.2}% of untraced session_s",
        100.0 * (cold.session_s() - plain.session_s()) / plain.session_s()
    );

    let spans_path = Path::new(OUT_DIR)
        .join("spans")
        .join(format!("{}-s{seed}.jsonl", spec.name));
    match log.write_jsonl(&spans_path) {
        Ok(()) => println!(
            "spans: {} -> {}; session records -> {}",
            log.len(),
            spans_path.display(),
            traces.display()
        ),
        Err(e) => problems.push(format!(
            "cannot write spans to {}: {e}",
            spans_path.display()
        )),
    }
    let count = sessions.len() as u64;
    Report {
        correct: problems.is_empty(),
        attempted: u64::from(spec.iterations) * count,
        failed: u64::from(spec.iterations) * failed_sessions.min(count),
        metrics,
        problems,
    }
}

/// Spans of one session: set-up, the iterations, and one span per
/// iteration from the previous record's arrival to this one's.
fn session_spans(log: &mut SpanLog, root: SpanId, id: u64, label: &str, s: &Session) {
    log.record(&format!("{label}.setup"), s.begin, s.iter0, Some(root), id);
    let call = log.record(&format!("{label}.session"), s.iter0, s.end, Some(root), id);
    let mut prev = s.iter0;
    for a in &s.sink.arrivals {
        log.record("iteration", prev, a.at, Some(call), id);
        prev = a.at;
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let host = HostFacts::detect();
    println!("{}", host.describe());
    let work = Path::new(OUT_DIR).join("work").join(format!(
        "{}-s{}-{}",
        args.spec.name,
        args.seed,
        std::process::id()
    ));
    let mut report = if args.trace {
        traced(&args.spec, args.seed, &work)
    } else {
        end_to_end(&args.spec, args.seed, args.seconds)
    };
    let _ = fs::remove_dir_all(&work);

    let mut code = 0;
    for (name, value, unit) in &mut report.metrics {
        if !valid_name(name) || !valid_unit(unit) {
            report
                .problems
                .push(format!("metric {name} [{unit}] breaks the naming rules"));
        }
        if !value.is_finite() {
            // JSON has no NaN or infinity.
            report.problems.push(format!("metric {name} is {value}"));
            *value = 0.0;
        }
    }
    report.correct &= report.problems.is_empty();
    for p in &report.problems {
        eprintln!("check failed: {p}");
        code = 1;
    }
    let result = ResultFile {
        host: host.clone(),
        workload: args.spec.name.to_string(),
        metrics: report
            .metrics
            .iter()
            .map(|(n, v, u)| (n.to_string(), (*v, u.to_string())))
            .collect::<BTreeMap<_, _>>(),
    };
    let results = Path::new(OUT_DIR).join("results");
    let path = results.join(format!(
        "{}-s{}-trace{}.tsv",
        args.spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::create_dir_all(&results).and_then(|()| fs::write(&path, result.render())) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    if let Some(b) = &args.baseline {
        if let Err(e) = compare(b, &result) {
            eprintln!("error: {e}");
            code = 3;
        }
    }
    println!("{}", report.json());
    std::process::exit(code);
}

/// Print each metric against a stored baseline of the same host.
fn compare(path: &Path, current: &ResultFile) -> Result<(), String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let base = ResultFile::parse(&text)?;
    check_same_host(&base.host, &current.host)?;
    if base.workload != current.workload {
        return Err(format!(
            "baseline is workload {}, this run {}",
            base.workload, current.workload
        ));
    }
    println!(
        "against baseline {} (commit {}):",
        path.display(),
        base.host.commit
    );
    for (name, (value, unit)) in &current.metrics {
        if let Some((b, _)) = base.metrics.get(name) {
            let change = if *b != 0.0 {
                format!("{:+.2}%", 100.0 * (value / b - 1.0))
            } else {
                "n/a".into()
            };
            println!("  {name:<32} {b:>14.4} -> {value:>14.4} {unit:<8} {change}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_use_valid_names_and_match_benchmark_json() {
        let text = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark directory");
        let squeeze = |s: &str| s.split_whitespace().collect::<String>();
        let json = squeeze(&text);
        let names = END_TO_END
            .iter()
            .map(|(n, u, b, _)| (n, u, b))
            .chain(PER_LAYER.iter().map(|(n, u, b, ..)| (n, u, b)));
        for (name, unit, better) in names {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for spec in Spec::all() {
            assert!(valid_name(spec.name));
            let entry = format!("\"name\":\"{}\",\"why\":\"{}\"", spec.name, spec.why);
            assert!(
                json.contains(&squeeze(&entry)),
                "BENCHMARK.json lacks {entry}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("iter_ms_p50", 1.5, "ms")],
            problems: Vec::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"iter_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload order-spec --seconds 5 --trace 1").expect("valid");
        assert_eq!(
            (a.spec.name, a.seed, a.trace),
            ("order-spec", DEFAULT_SEED, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload browse-tune --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload browse-tune --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload browse-tune --seconds 5").is_err());
        assert!(parse("--workload browse-tune --seconds 5 --trace 0 --extra 1").is_err());
    }
}
