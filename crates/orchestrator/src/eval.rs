//! The evaluation engine: memoized, optionally parallel measurement.
//!
//! The tuning loop spends essentially all of its wall-clock time inside
//! the DES — one full warm-up/measure/cool-down run per iteration — and
//! the simplex routinely revisits configurations it has already measured
//! (re-seeded init vertices after a restart, shrink points that project
//! onto an existing vertex, baseline sweeps re-running the defaults).
//! Because every run is a *pure function of its [`ClusterScenario`]*
//! (deterministic in the scenario seed, with fault windows baked into
//! the scenario itself), measurements can be memoized and replayed
//! bit-exactly, and future candidates can be evaluated speculatively on
//! worker threads without perturbing the search.
//!
//! Two independent switches:
//!
//! * **Cache** ([`EvalSettings::cache`]) — a fingerprint-keyed map from
//!   scenario to [`IterationOutcome`]. A hit returns the stored outcome
//!   bit-exactly; a miss runs the DES and stores the result. Keys cover
//!   the *entire* scenario (configuration, topology, workload, seed,
//!   fault timeline, work lines, …) via its `Debug` rendering, so two
//!   scenarios share an entry only when the simulation would be
//!   byte-for-byte identical anyway.
//! * **Speculation** ([`EvalSettings::threads`] ≠ 1, requires the
//!   cache) — the session asks its tuner which configurations it *may*
//!   propose over the next few iterations (see `Tuner::speculate`) and
//!   evaluates the misses concurrently on the process-wide worker pool
//!   ([`crate::par::shared_pool`]) before the sequential loop consumes
//!   them as cache hits. Speculation refills on a miss
//!   ([`EvalEngine::refill`]): while the next evaluation is cached the
//!   loop consumes it and speculates nothing; when it is not, the whole
//!   horizon is prefetched as one batch, so a long certain chain (the
//!   simplex init vertices) runs in full-width rounds. Wrong guesses
//!   cost only wasted background work; they can never change a result,
//!   because the consuming lookup is keyed by the scenario the loop
//!   actually built.
//!
//! Determinism argument: the cache stores the raw simulation outcome
//! (fault-noise multipliers are applied by the session *after* lookup,
//! exactly as on the uncached path), values are deterministic per key,
//! and hit/miss order affects only the counters — so sequential,
//! cached, and speculative-parallel engines produce byte-identical
//! traces and bit-equal WIPS. Only the end-of-session `eval` summary
//! record and the engine-metric totals (hits skip metric publication)
//! reflect the engine configuration; determinism tests strip those,
//! like `wall_ms`.

use cluster::model::ClusterScenario;
use cluster::node::NodeUtilization;
use cluster::runner::{
    run_iteration, run_iteration_checked, run_iteration_observed, IterationOutcome,
};
use obs::Registry;
use persist::{PersistError, State};
use simkit::time::SimDuration;
use tpcw::metrics::IterationMetrics;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How the evaluation engine runs measurements. The library default is
/// fully transparent (no cache, one thread): sessions behave exactly as
/// if the engine did not exist. The CLI turns the cache on by default
/// (`--no-eval-cache` opts out) and exposes `--eval-threads N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSettings {
    /// Memoize outcomes by scenario fingerprint.
    pub cache: bool,
    /// Worker threads for speculative candidate evaluation: `1` (the
    /// default) disables speculation entirely, `0` uses one thread per
    /// available core, anything else is an explicit thread count.
    pub threads: usize,
    /// Maximum cached entries; once full, new outcomes are no longer
    /// stored (deterministic, unlike an eviction policy).
    pub capacity: usize,
    /// How many future iterations one speculative refill covers. A
    /// refill happens only when the next evaluation is not cached (see
    /// [`EvalEngine::refill`]), so a certain chain longer than the
    /// horizon runs in rounds: 2x2x2's 47 full-space init vertices take
    /// two refills at the default of 32 (32, then 15).
    pub horizon: usize,
}

impl Default for EvalSettings {
    fn default() -> Self {
        EvalSettings {
            cache: false,
            threads: 1,
            capacity: 65_536,
            horizon: 32,
        }
    }
}

impl EvalSettings {
    /// Builder: enable/disable the memoization cache.
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Builder: set the speculative worker thread count (see
    /// [`EvalSettings::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: cap the number of cached outcomes.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Builder: set the speculation horizon (iterations ahead).
    pub fn horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }
}

/// Cumulative engine activity (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Consuming lookups served from the cache.
    pub hits: u64,
    /// Consuming lookups that ran the DES.
    pub misses: u64,
    /// Speculative background evaluations whose result was *stored* for
    /// the sequential loop to consume — useful speculative work only.
    pub speculated: u64,
    /// Speculative evaluations whose result was discarded: the scenario
    /// failed validation, or the cache hit its capacity cap before the
    /// result could be stored.
    pub speculation_dropped: u64,
    /// Prefetch batches that executed work (speculative refills).
    pub refills: u64,
}

impl EvalCounters {
    /// Activity since an earlier snapshot of the same engine.
    pub fn since(&self, earlier: &EvalCounters) -> EvalCounters {
        EvalCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            speculated: self.speculated.saturating_sub(earlier.speculated),
            speculation_dropped: self
                .speculation_dropped
                .saturating_sub(earlier.speculation_dropped),
            refills: self.refills.saturating_sub(earlier.refills),
        }
    }

    /// Fraction of consuming lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Deterministic memoization cache + speculative parallel evaluator.
///
/// Shared across everything a [`crate::session::SessionConfig`] is
/// cloned into (retry/re-measurement probes included) via `Arc`; all
/// methods take `&self`.
pub struct EvalEngine {
    settings: EvalSettings,
    cache: Mutex<BTreeMap<u64, IterationOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
    speculated: AtomicU64,
    speculation_dropped: AtomicU64,
    refills: AtomicU64,
}

impl std::fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalEngine")
            .field("settings", &self.settings)
            .field("entries", &self.len())
            .finish()
    }
}

/// Fingerprint of a scenario: FNV-1a over its `Debug` rendering, which
/// covers every field that feeds the simulation (config, topology,
/// workload, scale, browsers, plan, seed, lines, markov flag, load
/// balancing, node specs, and the projected fault timeline).
pub fn scenario_fingerprint(scenario: &ClusterScenario) -> u64 {
    crate::checkpoint::fnv1a(format!("{scenario:?}").as_bytes())
}

fn run_raw(scenario: &ClusterScenario, registry: Option<&Registry>) -> IterationOutcome {
    match registry {
        Some(r) => run_iteration_observed(scenario, r),
        None => run_iteration(scenario),
    }
}

impl EvalEngine {
    pub fn new(settings: EvalSettings) -> Self {
        EvalEngine {
            settings,
            cache: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            speculated: AtomicU64::new(0),
            speculation_dropped: AtomicU64::new(0),
            refills: AtomicU64::new(0),
        }
    }

    pub fn settings(&self) -> &EvalSettings {
        &self.settings
    }

    pub fn cache_enabled(&self) -> bool {
        self.settings.cache
    }

    pub fn threads(&self) -> usize {
        self.settings.threads
    }

    /// Is the engine doing anything beyond plain sequential evaluation?
    /// (Controls whether sessions emit an `eval` summary record.)
    pub fn enabled(&self) -> bool {
        self.settings.cache || self.settings.threads != 1
    }

    /// Iterations ahead to speculate, `0` when speculation is off.
    /// Speculation needs both the cache (to hand results back to the
    /// sequential loop) and more than one thread (to be worth anything).
    pub fn speculation_horizon(&self) -> usize {
        if self.settings.cache && self.settings.threads != 1 {
            self.settings.horizon
        } else {
            0
        }
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    pub fn counters(&self) -> EvalCounters {
        EvalCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            speculated: self.speculated.load(Ordering::Relaxed),
            speculation_dropped: self.speculation_dropped.load(Ordering::Relaxed),
            refills: self.refills.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, IterationOutcome>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Evaluate one scenario through the cache. A hit returns the stored
    /// outcome bit-exactly and skips engine-metric publication (the
    /// simulation did not run); a miss runs the DES — publishing metrics
    /// when a registry is attached — and stores the result.
    pub fn run(&self, scenario: &ClusterScenario, registry: Option<&Registry>) -> IterationOutcome {
        if !self.settings.cache {
            return run_raw(scenario, registry);
        }
        let key = scenario_fingerprint(scenario);
        if let Some(hit) = self.lock().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = run_raw(scenario, registry);
        let mut cache = self.lock();
        if cache.len() < self.settings.capacity {
            cache.insert(key, out.clone());
        }
        out
    }

    /// Refill-on-miss speculation, called once per loop step before the
    /// step's consuming [`EvalEngine::run`]. `ahead(k)` builds the
    /// scenarios the loop may consume over its next `k` evaluations
    /// (offset 0 first); `remaining` caps the horizon at the iterations
    /// left in the current phase.
    ///
    /// Only offset 0 is checked: when every candidate there is cached,
    /// the step consumes a hit and nothing more is built. Otherwise, or
    /// when the tuner telegraphs nothing for offset 0, the full horizon
    /// is built and prefetched as one batch, so the workers see whole
    /// rounds instead of one new scenario per step. The decision reads
    /// cache contents only, never the worker count, so the cache (and
    /// every snapshot of it) is the same at any width. Speculation off
    /// means no call to `ahead` at all. Returns the evaluations
    /// executed.
    pub fn refill(&self, remaining: usize, ahead: impl Fn(usize) -> Vec<ClusterScenario>) -> usize {
        let horizon = self.speculation_horizon().min(remaining);
        if horizon == 0 {
            return 0;
        }
        let next = ahead(1);
        if !next.is_empty() && self.all_cached(&next) {
            return 0;
        }
        self.prefetch(&ahead(horizon))
    }

    fn all_cached(&self, scenarios: &[ClusterScenario]) -> bool {
        let keys: Vec<u64> = scenarios.iter().map(scenario_fingerprint).collect();
        let cache = self.lock();
        keys.iter().all(|k| cache.contains_key(k))
    }

    /// Speculatively evaluate `scenarios` on the shared worker pool
    /// ([`crate::par::shared_pool`]), caching the results for the
    /// sequential loop to consume. Already-cached and duplicate
    /// scenarios are skipped; scenarios that fail validation are
    /// dropped so the consuming path re-runs them and reports the error
    /// with its usual context. Returns the number of evaluations
    /// actually executed; only *stored* results count toward the
    /// `speculated` counter, the rest land in `speculation_dropped`.
    /// A call that executed anything counts as one of `refills`.
    pub fn prefetch(&self, scenarios: &[ClusterScenario]) -> usize {
        if self.speculation_horizon() == 0 || scenarios.is_empty() {
            return 0;
        }
        let mut keys: Vec<u64> = Vec::new();
        let mut todo: Vec<ClusterScenario> = Vec::new();
        {
            let cache = self.lock();
            let mut seen = BTreeSet::new();
            for s in scenarios {
                let key = scenario_fingerprint(s);
                if !cache.contains_key(&key) && seen.insert(key) {
                    keys.push(key);
                    todo.push(s.clone());
                }
            }
            // Never speculate past the capacity cap: entries that could
            // not be stored would be pure waste.
            let room = self.settings.capacity.saturating_sub(cache.len());
            keys.truncate(room);
            todo.truncate(room);
        }
        if todo.is_empty() {
            return 0;
        }
        let executed = todo.len();
        let outs = crate::par::shared_pool().run_batch(todo, self.settings.threads, |s| {
            run_iteration_checked(s).ok()
        });
        let mut stored = 0u64;
        let mut dropped = 0u64;
        {
            let mut cache = self.lock();
            for (key, out) in keys.into_iter().zip(outs) {
                match out {
                    Some(out) if cache.len() < self.settings.capacity => {
                        cache.insert(key, out);
                        stored += 1;
                    }
                    _ => dropped += 1,
                }
            }
        }
        self.speculated.fetch_add(stored, Ordering::Relaxed);
        self.speculation_dropped
            .fetch_add(dropped, Ordering::Relaxed);
        self.refills.fetch_add(1, Ordering::Relaxed);
        executed
    }

    /// Serialize the cache for a session snapshot (sorted by key, so
    /// the encoding is deterministic).
    pub fn save_cache_state(&self) -> State {
        let cache = self.lock();
        State::map().with(
            "entries",
            State::List(
                cache
                    .iter()
                    .map(|(k, v)| {
                        State::map()
                            .with("key", State::U64(*k))
                            .with("outcome", outcome_state(v))
                    })
                    .collect(),
            ),
        )
    }

    /// Merge entries saved by [`EvalEngine::save_cache_state`] back in
    /// (resume with a warm cache). Respects the capacity cap.
    pub fn restore_cache(&self, state: &State) -> Result<(), PersistError> {
        let entries = state.field_list("entries")?;
        let mut cache = self.lock();
        for entry in entries {
            if cache.len() >= self.settings.capacity {
                break;
            }
            let key = entry.field_u64("key")?;
            let outcome = outcome_from_state(entry.require("outcome")?)?;
            cache.insert(key, outcome);
        }
        Ok(())
    }
}

/// Serialize one cached outcome. `p90_response` travels as integer
/// microseconds and every float as raw bits (the `State` codec), so the
/// round trip is bit-exact.
pub(crate) fn outcome_state(out: &IterationOutcome) -> State {
    State::map()
        .with("wips", State::F64(out.metrics.wips))
        .with("completed", State::U64(out.metrics.completed))
        .with("browse_completed", State::U64(out.metrics.browse_completed))
        .with("order_completed", State::U64(out.metrics.order_completed))
        .with("errors", State::U64(out.metrics.errors))
        .with("dropped", State::U64(out.metrics.dropped))
        .with(
            "mean_response_secs",
            State::F64(out.metrics.mean_response_secs),
        )
        .with("p90_us", State::U64(out.metrics.p90_response.as_micros()))
        .with(
            "util",
            State::List(
                out.node_utilization
                    .iter()
                    .map(|u| State::f64_list(&[u.cpu, u.disk, u.net, u.mem]))
                    .collect(),
            ),
        )
        .with("total_done", State::U64(out.total_done))
        .with("total_failed", State::U64(out.total_failed))
        .with("line_wips", State::f64_list(&out.line_wips))
        .with("events", State::U64(out.events))
}

pub(crate) fn outcome_from_state(state: &State) -> Result<IterationOutcome, PersistError> {
    let node_utilization = state
        .field_list("util")?
        .iter()
        .map(|u| {
            let quad = u.to_f64_vec()?;
            if quad.len() != 4 {
                return Err(PersistError::Schema(format!(
                    "node utilization expects 4 values, found {}",
                    quad.len()
                )));
            }
            Ok(NodeUtilization {
                cpu: quad[0],
                disk: quad[1],
                net: quad[2],
                mem: quad[3],
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(IterationOutcome {
        metrics: IterationMetrics {
            wips: state.field_f64("wips")?,
            completed: state.field_u64("completed")?,
            browse_completed: state.field_u64("browse_completed")?,
            order_completed: state.field_u64("order_completed")?,
            errors: state.field_u64("errors")?,
            dropped: state.field_u64("dropped")?,
            mean_response_secs: state.field_f64("mean_response_secs")?,
            p90_response: SimDuration::from_micros(state.field_u64("p90_us")?),
        },
        node_utilization,
        total_done: state.field_u64("total_done")?,
        total_failed: state.field_u64("total_failed")?,
        line_wips: state.require("line_wips")?.to_f64_vec()?,
        events: state.field_u64("events")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use cluster::config::{ClusterConfig, Topology};
    use tpcw::metrics::IntervalPlan;
    use tpcw::mix::Workload;

    fn cfg() -> SessionConfig {
        SessionConfig::new(Topology::single(), Workload::Shopping, 200).plan(IntervalPlan::tiny())
    }

    fn scenario(seed_offset: u32) -> ClusterScenario {
        let c = cfg();
        c.scenario(ClusterConfig::defaults(&c.topology), seed_offset)
    }

    #[test]
    fn fingerprint_distinguishes_scenario_inputs() {
        let base = scenario_fingerprint(&scenario(0));
        assert_eq!(base, scenario_fingerprint(&scenario(0)));
        assert_ne!(base, scenario_fingerprint(&scenario(1)), "seed must key");
        let c = cfg().population(300);
        let other = c.scenario(ClusterConfig::defaults(&c.topology), 0);
        assert_ne!(base, scenario_fingerprint(&other), "population must key");
        let f = cfg().fault_plan(faults::FaultPlan::new().crash(0.0, 0));
        let faulted = f.scenario(ClusterConfig::defaults(&f.topology), 0);
        assert_ne!(base, scenario_fingerprint(&faulted), "faults must key");
    }

    #[test]
    fn cache_hit_is_bit_identical_and_counted() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true));
        let s = scenario(0);
        let a = engine.run(&s, None);
        let b = engine.run(&s, None);
        assert_eq!(a.metrics.wips.to_bits(), b.metrics.wips.to_bits());
        assert_eq!(a.line_wips, b.line_wips);
        assert_eq!(a.events, b.events);
        let c = engine.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(engine.len(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let engine = EvalEngine::new(EvalSettings::default());
        let s = scenario(0);
        let _ = engine.run(&s, None);
        assert!(engine.is_empty());
        assert_eq!(engine.counters(), EvalCounters::default());
        assert!(!engine.enabled());
        assert_eq!(engine.speculation_horizon(), 0);
    }

    #[test]
    fn capacity_bounds_the_cache() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true).capacity(2));
        for i in 0..4 {
            let _ = engine.run(&scenario(i), None);
        }
        assert_eq!(engine.len(), 2);
        // The first two entries still hit.
        let _ = engine.run(&scenario(0), None);
        assert_eq!(engine.counters().hits, 1);
    }

    #[test]
    fn prefetch_feeds_the_consuming_lookup() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let scenarios: Vec<ClusterScenario> = (0..3).map(scenario).collect();
        // Duplicates and repeats are deduplicated.
        let executed = engine.prefetch(&scenarios);
        assert_eq!(executed, 3);
        assert_eq!(engine.prefetch(&scenarios), 0, "already cached");
        let out = engine.run(&scenarios[1], None);
        let c = engine.counters();
        assert_eq!((c.hits, c.misses, c.speculated), (1, 0, 3));
        assert_eq!(c.speculation_dropped, 0, "every result was stored");
        assert_eq!(c.refills, 1, "the all-cached batch executed nothing");
        // The cached speculative result equals a fresh sequential run.
        let fresh = run_iteration(&scenarios[1]);
        assert_eq!(out.metrics.wips.to_bits(), fresh.metrics.wips.to_bits());
    }

    #[test]
    fn prefetch_counts_dropped_results_separately() {
        // Regression: `speculated` used to count every executed
        // speculation, including results that were never stored. A
        // scenario that fails validation is dropped (the consuming path
        // re-runs it for the real error) and must land in
        // `speculation_dropped`, not `speculated`.
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let good = scenario(0);
        let mut bad = scenario(1);
        bad.topology = cluster::config::Topology::tiers(2, 1, 1).expect("topology");
        let executed = engine.prefetch(&[good, bad]);
        assert_eq!(executed, 2, "both scenarios were evaluated");
        let c = engine.counters();
        assert_eq!(c.speculated, 1, "only the stored result counts");
        assert_eq!(c.speculation_dropped, 1, "the invalid scenario was dropped");
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn counters_since_includes_dropped() {
        let a = EvalCounters {
            hits: 5,
            misses: 4,
            speculated: 3,
            speculation_dropped: 2,
            refills: 1,
        };
        let b = EvalCounters {
            hits: 7,
            misses: 5,
            speculated: 6,
            speculation_dropped: 5,
            refills: 3,
        };
        let d = b.since(&a);
        assert_eq!(
            (
                d.hits,
                d.misses,
                d.speculated,
                d.speculation_dropped,
                d.refills
            ),
            (2, 1, 3, 3, 2)
        );
    }

    #[test]
    fn prefetch_requires_cache_and_threads() {
        let no_cache = EvalEngine::new(EvalSettings::default().threads(4));
        assert_eq!(no_cache.prefetch(&[scenario(0)]), 0);
        let one_thread = EvalEngine::new(EvalSettings::default().cache(true));
        assert_eq!(one_thread.prefetch(&[scenario(0)]), 0);
    }

    #[test]
    fn refill_runs_the_horizon_only_when_offset_zero_misses() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let calls = std::cell::RefCell::new(Vec::new());
        let ahead = |k: usize| {
            calls.borrow_mut().push(k);
            (0..k as u32).map(scenario).collect::<Vec<_>>()
        };
        // Cold: offset 0 misses, so the whole (capped) horizon runs.
        assert_eq!(engine.refill(3, ahead), 3);
        assert_eq!(*calls.borrow(), [1, 3]);
        // Warm: offset 0 hits, nothing beyond it is built.
        assert_eq!(engine.refill(3, ahead), 0);
        assert_eq!(*calls.borrow(), [1, 3, 1]);
        let c = engine.counters();
        assert_eq!((c.speculated, c.refills), (3, 1));
    }

    #[test]
    fn refill_without_an_offset_zero_hint_prefetches_the_horizon() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        let ahead = |k: usize| {
            if k == 1 {
                Vec::new()
            } else {
                vec![scenario(1), scenario(2)]
            }
        };
        assert_eq!(engine.refill(2, ahead), 2);
        assert_eq!(engine.refill(2, ahead), 0, "already cached");
        let c = engine.counters();
        assert_eq!((c.speculated, c.refills), (2, 1));
    }

    #[test]
    fn refill_builds_nothing_when_speculation_is_off() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true));
        let ahead = |_: usize| -> Vec<ClusterScenario> { panic!("speculation is off") };
        assert_eq!(engine.refill(8, ahead), 0);
        let on = EvalEngine::new(EvalSettings::default().cache(true).threads(2));
        assert_eq!(on.refill(0, ahead), 0, "no iterations left");
    }

    #[test]
    fn cache_state_roundtrip_is_bit_exact() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true));
        let scenarios: Vec<ClusterScenario> = (0..3).map(scenario).collect();
        let originals: Vec<IterationOutcome> =
            scenarios.iter().map(|s| engine.run(s, None)).collect();
        let saved = engine.save_cache_state();
        let decoded = State::decode(&saved.encode()).expect("decode");
        let restored = EvalEngine::new(EvalSettings::default().cache(true));
        restored.restore_cache(&decoded).expect("restore");
        assert_eq!(restored.len(), 3);
        for (s, orig) in scenarios.iter().zip(&originals) {
            let hit = restored.run(s, None);
            assert_eq!(hit.metrics.wips.to_bits(), orig.metrics.wips.to_bits());
            assert_eq!(
                hit.metrics.mean_response_secs.to_bits(),
                orig.metrics.mean_response_secs.to_bits()
            );
            assert_eq!(hit.metrics.p90_response, orig.metrics.p90_response);
            assert_eq!(hit.metrics.completed, orig.metrics.completed);
            assert_eq!(hit.total_done, orig.total_done);
            assert_eq!(hit.total_failed, orig.total_failed);
            assert_eq!(hit.events, orig.events);
            assert_eq!(hit.line_wips.len(), orig.line_wips.len());
            for (a, b) in hit.line_wips.iter().zip(&orig.line_wips) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(hit.node_utilization.len(), orig.node_utilization.len());
            for (a, b) in hit.node_utilization.iter().zip(&orig.node_utilization) {
                assert_eq!(a.cpu.to_bits(), b.cpu.to_bits());
                assert_eq!(a.disk.to_bits(), b.disk.to_bits());
                assert_eq!(a.net.to_bits(), b.net.to_bits());
                assert_eq!(a.mem.to_bits(), b.mem.to_bits());
            }
        }
        assert_eq!(restored.counters().hits, 3);
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let engine = EvalEngine::new(EvalSettings::default().cache(true));
        assert!(engine.restore_cache(&State::Null).is_err());
        let bad = State::map().with(
            "entries",
            State::List(vec![State::map().with("key", State::U64(1))]),
        );
        assert!(engine.restore_cache(&bad).is_err());
    }
}
