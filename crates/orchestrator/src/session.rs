//! Tuning sessions: the closed loop between Active Harmony and the
//! simulated cluster.
//!
//! A session fixes the environment (topology, workload, browser
//! population, measurement plan) and runs tuning iterations: each
//! iteration the Harmony server(s) propose a configuration, the cluster
//! runs one warm-up/measure/cool-down cycle under it, and the measured
//! WIPS feeds back. The per-iteration seed varies (unless pinned) so the
//! tuner faces realistic measurement noise, exactly as on real hardware.

use crate::binding;
use crate::checkpoint::{self, CheckpointPolicy, Checkpointer};
use crate::eval::{EvalCounters, EvalEngine, EvalSettings};
use crate::resilient::Resilience;
use cluster::config::{ClusterConfig, NodeId, Role, Topology};
use cluster::model::{ClusterScenario, LoadModel};
use cluster::runner::{run_iteration, run_iteration_observed, IterationOutcome};
use cluster::spec::NodeSpec;
use faults::{FaultClock, FaultInjector, FaultPlan, WindowFaults};
use harmony::server::HarmonyServer;
use harmony::space::Configuration;
use harmony::strategy::TuningMethod;
use harmony::tuner::Measurement;
use harmony::workline::build_work_lines;
use obs::{Registry, TraceRecord, TraceSink};
use persist::{Checkpointable, PersistError, State};
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;
use tpcw::scale::CatalogScale;

use std::sync::Arc;
use std::time::Instant;

/// Recoverable failures of a tuning session. Everything that used to
/// panic inside the session layer now surfaces here so the CLI can exit
/// with a message instead of a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The topology is missing a whole tier (no proxy, app, or db node),
    /// so no work line can be formed.
    MissingTier,
    /// A per-tier configuration could not be extracted from a full
    /// cluster configuration (tier nodes disagree).
    ConfigExtract,
    /// A node index is out of range for the topology.
    NoSuchNode { node: usize, nodes: usize },
    /// The attached fault plan does not fit the topology.
    FaultPlan(String),
    /// Checkpointing or resuming failed: an I/O error in the checkpoint
    /// directory, a corrupt artifact recovery could not route around, or
    /// a fingerprint mismatch (resuming under a different environment).
    Checkpoint(String),
    /// The configured tuner name is not in the harmony registry.
    UnknownTuner(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingTier => {
                write!(
                    f,
                    "topology is missing a tier — every work line needs a proxy, app, and db node"
                )
            }
            SessionError::ConfigExtract => {
                write!(
                    f,
                    "cannot extract a uniform per-tier configuration — tier nodes disagree"
                )
            }
            SessionError::NoSuchNode { node, nodes } => {
                write!(f, "node {node} out of range (topology has {nodes} nodes)")
            }
            SessionError::FaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            SessionError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            SessionError::UnknownTuner(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Environment of a tuning session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub topology: Topology,
    pub workload: Workload,
    pub population: u32,
    pub plan: IntervalPlan,
    pub scale: CatalogScale,
    pub spec: NodeSpec,
    /// Base RNG seed; iteration `i` runs with `base_seed + i` unless
    /// `pin_seed` is set.
    pub base_seed: u64,
    /// Use the same seed every iteration (noise-free tuning, for tests).
    pub pin_seed: bool,
    /// Walk the TPC-W Markov navigation graph instead of i.i.d. mix
    /// sampling (same steady-state frequencies; see `tpcw::navigation`).
    pub markov_sessions: bool,
    /// Browser-population model: per-browser (the default, one entity
    /// per browser) or cohort (weighted tokens on a think-time slot
    /// wheel; see `tpcw::cohort`). Changing this changes the session
    /// fingerprint, so checkpoints refuse cross-load-model resume.
    pub load_model: LoadModel,
    /// Per-node hardware overrides (failure injection); entry `i`
    /// replaces `spec` for node `i`.
    pub node_specs: Vec<Option<NodeSpec>>,
    /// Deterministic fault schedule applied across iterations: iteration
    /// `i` covers simulated time `[i*plan.total(), (i+1)*plan.total())`
    /// of the plan. `None` (the default) leaves every run byte-identical
    /// to a fault-free session.
    pub fault_plan: Option<FaultPlan>,
    /// Seed for fault-related randomness (measurement-noise spikes,
    /// retry jitter), independent of `base_seed`.
    pub fault_seed: u64,
    /// Tuning algorithm, by harmony registry name (`harmony::tuner_names`
    /// lists them). Every server the session builds — one per tier, per
    /// work line, or over the full space — runs this algorithm.
    pub tuner: String,
    /// Crash-safe persistence: journal every iteration and snapshot
    /// periodically into a directory, optionally resuming from it.
    /// `None` (the default) writes nothing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Evaluation engine: memoized measurements and speculative parallel
    /// candidate evaluation, shared (via `Arc`) across clones of this
    /// config. The default is fully transparent — no cache, one thread —
    /// so sessions behave exactly as if the engine did not exist.
    pub eval: Arc<EvalEngine>,
    /// Worker width for measurement replications
    /// ([`SessionConfig::measure_default`],
    /// [`SessionConfig::measure_until_precise`]): `1` (the default)
    /// evaluates replications sequentially on the calling thread, `0`
    /// uses one worker per available core, anything else is an explicit
    /// width. Replications are independent simulations merged in
    /// replication order, so results are bit-identical at any width.
    pub replication_threads: usize,
}

impl SessionConfig {
    pub fn new(topology: Topology, workload: Workload, population: u32) -> Self {
        SessionConfig {
            topology,
            workload,
            population,
            plan: IntervalPlan::fast(),
            scale: CatalogScale::hpdc04(),
            spec: NodeSpec::hpdc04(),
            base_seed: 0x5EED,
            pin_seed: false,
            markov_sessions: false,
            load_model: LoadModel::default(),
            node_specs: Vec::new(),
            fault_plan: None,
            fault_seed: 0xFA17,
            tuner: "simplex".to_string(),
            checkpoint: None,
            eval: Arc::new(EvalEngine::new(EvalSettings::default())),
            replication_threads: 1,
        }
    }

    /// Builder: set the measurement plan.
    pub fn plan(mut self, plan: IntervalPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Builder: set the base RNG seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Builder: pin the seed (every iteration re-uses `base_seed`).
    pub fn pin_seed(mut self, on: bool) -> Self {
        self.pin_seed = on;
        self
    }

    /// Builder: walk the Markov navigation graph instead of i.i.d. mixes.
    pub fn markov(mut self, on: bool) -> Self {
        self.markov_sessions = on;
        self
    }

    /// Builder: select the browser-population model (see
    /// [`cluster::model::LoadModel`]).
    pub fn load_model(mut self, model: LoadModel) -> Self {
        self.load_model = model;
        self
    }

    /// Builder: set the catalogue scale.
    pub fn scale(mut self, scale: CatalogScale) -> Self {
        self.scale = scale;
        self
    }

    /// Builder: set the baseline hardware spec for every node.
    pub fn spec(mut self, spec: NodeSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Builder: override the hardware spec of one node (failure
    /// injection, heterogeneous clusters).
    pub fn node_spec(mut self, node: usize, spec: NodeSpec) -> Self {
        if self.node_specs.len() <= node {
            self.node_specs
                .resize(self.topology.len().max(node + 1), None);
        }
        self.node_specs[node] = Some(spec);
        self
    }

    /// Builder: replace the topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builder: replace the workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Builder: replace the browser population.
    pub fn population(mut self, population: u32) -> Self {
        self.population = population;
        self
    }

    /// Builder: attach a deterministic fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder: set the fault/jitter seed.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Builder: select the tuning algorithm by registry name (see
    /// `harmony::tuner_names()`). Unknown names surface as
    /// [`SessionError::UnknownTuner`] when the session starts.
    pub fn tuner(mut self, name: impl Into<String>) -> Self {
        self.tuner = name.into();
        self
    }

    /// Builder: checkpoint (and optionally resume) the session.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Builder: replace the evaluation engine (memoization cache +
    /// speculative parallel candidate evaluation). Clones made after
    /// this call share the new engine.
    pub fn eval_settings(mut self, settings: EvalSettings) -> Self {
        self.eval = Arc::new(EvalEngine::new(settings));
        self
    }

    /// Builder: set the measurement-replication worker width (see
    /// [`SessionConfig::replication_threads`]; `0` = one per core).
    pub fn replication_threads(mut self, threads: usize) -> Self {
        self.replication_threads = threads;
        self
    }

    /// Degrade node `node` to `cpu_scale` of nominal CPU speed.
    pub fn degrade_cpu(&mut self, node: usize, cpu_scale: f64) -> Result<(), SessionError> {
        if node >= self.topology.len() {
            return Err(SessionError::NoSuchNode {
                node,
                nodes: self.topology.len(),
            });
        }
        if self.node_specs.len() <= node {
            self.node_specs.resize(self.topology.len(), None);
        }
        let mut spec = self.node_specs[node].unwrap_or(self.spec);
        spec.cpu_scale = cpu_scale;
        self.node_specs[node] = Some(spec);
        Ok(())
    }

    /// Check the attached fault plan (if any) against the topology.
    pub fn validate_faults(&self) -> Result<(), SessionError> {
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.topology.len())
                .map_err(|e| SessionError::FaultPlan(e.to_string()))?;
        }
        Ok(())
    }

    /// Fault activity projected onto iteration `i`'s simulated window,
    /// `None` when no plan is attached.
    pub fn fault_window(&self, iteration: u32) -> Option<WindowFaults> {
        let plan = self.fault_plan.as_ref()?;
        let injector = FaultInjector::new(plan, self.fault_seed);
        let (start, end) = FaultClock::window_of(self.plan.total(), iteration);
        Some(injector.window(start, end, self.topology.len()))
    }

    /// Multiply measured WIPS by the iteration's noise-spike factor (a
    /// deterministic draw from the fault seed). No-op without an active
    /// spike, so fault-free runs are untouched.
    pub(crate) fn apply_fault_noise(&self, iteration: u32, out: &mut IterationOutcome) {
        let Some(wf) = self.fault_window(iteration) else {
            return;
        };
        if wf.noise <= 1.0 {
            return;
        }
        let Some(plan) = self.fault_plan.as_ref() else {
            return;
        };
        let (start, _) = FaultClock::window_of(self.plan.total(), iteration);
        let factor = FaultInjector::new(plan, self.fault_seed).wips_noise(start, wf.noise);
        out.metrics.wips *= factor;
        for lw in &mut out.line_wips {
            *lw *= factor;
        }
    }

    /// Typed measurement of one iteration's WIPS: the mean is the
    /// measured (possibly noise-spiked) throughput; the confidence
    /// half-width comes from the Poisson completion model, so noise-aware
    /// tuners can weight windows by their statistical trust.
    pub(crate) fn measurement_from(&self, wips: f64, completed: u64) -> Measurement {
        Measurement::point(wips)
            .with_ci(poisson_ci_half(completed, self.plan.measure.as_secs_f64()))
    }

    fn seed_for(&self, iteration: u32) -> u64 {
        self.seed_with(self.base_seed, iteration)
    }

    /// Iteration `iteration`'s seed in a session based at `base`.
    pub(crate) fn seed_with(&self, base: u64, iteration: u32) -> u64 {
        if self.pin_seed {
            base
        } else {
            base.wrapping_add(iteration as u64)
        }
    }

    /// Seed for replication `rep` of a measurement experiment
    /// ([`SessionConfig::measure_default`] /
    /// [`SessionConfig::measure_until_precise`]). Offset from the
    /// tuning-iteration domain by a large odd constant so replication
    /// samples never alias `seed_for(i)` — reusing `0..reps` as
    /// iteration indices made "independent" replications identical to
    /// the first tuning measurements (and would collide in the
    /// evaluation cache). `pin_seed` still wins: a pinned session runs
    /// *every* measurement (iterations and replications alike) on
    /// `base_seed`, so pinned baselines stay bit-equal to pinned
    /// iterations; the disjoint domain protects unpinned sessions,
    /// where the aliasing was a real bug.
    fn replication_seed_for(&self, rep: u32) -> u64 {
        const REPLICATION_DOMAIN: u64 = 0x9E37_79B9_7F4A_7C15;
        if self.pin_seed {
            return self.base_seed;
        }
        (self.base_seed ^ REPLICATION_DOMAIN).wrapping_add(rep as u64)
    }

    /// Build the scenario for one iteration.
    pub fn scenario(&self, config: ClusterConfig, iteration: u32) -> ClusterScenario {
        let faults = self
            .fault_window(iteration)
            .and_then(|wf| (!wf.is_trivial()).then(|| wf.timeline()));
        ClusterScenario {
            spec: self.spec,
            topology: self.topology.clone(),
            config,
            workload: self.workload,
            scale: self.scale,
            browsers: tpcw::browser::BrowserConfig::hpdc04(self.population),
            plan: self.plan,
            seed: self.seed_for(iteration),
            lines: None,
            markov_sessions: self.markov_sessions,
            load_balancing: cluster::model::LoadBalancing::default(),
            node_specs: self.node_specs.clone(),
            faults,
            load_model: self.load_model,
        }
    }

    /// Evaluate one configuration (one iteration cycle).
    pub fn evaluate(&self, config: ClusterConfig, iteration: u32) -> IterationOutcome {
        self.evaluate_observed(config, iteration, None)
    }

    /// Like [`SessionConfig::evaluate`], but publishes engine and
    /// per-tier resource metrics when a registry is attached. Routed
    /// through the evaluation engine; the fault noise spike is applied
    /// *after* the cache lookup so cached entries stay raw and
    /// noise-deterministic (see [`crate::eval`]).
    pub fn evaluate_observed(
        &self,
        config: ClusterConfig,
        iteration: u32,
        registry: Option<&Registry>,
    ) -> IterationOutcome {
        let scenario = self.scenario(config, iteration);
        let mut out = self.eval.run(&scenario, registry);
        self.apply_fault_noise(iteration, &mut out);
        out
    }

    /// Evaluate one replication of a measurement experiment. Identical to
    /// [`SessionConfig::evaluate`] except the seed comes from the
    /// replication domain ([`SessionConfig::replication_seed_for`]), so
    /// measurement replications are independent of tuning iterations.
    fn evaluate_replication(&self, config: ClusterConfig, rep: u32) -> IterationOutcome {
        let mut scenario = self.scenario(config, rep);
        scenario.seed = self.replication_seed_for(rep);
        let mut out = self.eval.run(&scenario, None);
        self.apply_fault_noise(rep, &mut out);
        out
    }

    /// Evaluate replications `start .. start + count` of `config`,
    /// returned in replication order. With `replication_threads == 1`
    /// (the default) every replication runs sequentially on the calling
    /// thread; otherwise the batch fans out over the shared worker pool
    /// ([`crate::par::shared_pool`]) and the index-keyed merge keeps the
    /// result a pure function of `(self, config, start, count)` — any
    /// width produces bit-identical outcomes.
    fn replications(
        &self,
        config: &ClusterConfig,
        start: u32,
        count: u32,
    ) -> Vec<IterationOutcome> {
        if self.replication_threads == 1 || count < 2 {
            return (start..start + count)
                .map(|i| self.evaluate_replication(config.clone(), i))
                .collect();
        }
        let me = self.clone();
        let config = config.clone();
        let reps: Vec<u32> = (start..start + count).collect();
        crate::par::shared_pool().run_batch(reps, self.replication_threads, move |&rep| {
            me.evaluate_replication(config.clone(), rep)
        })
    }

    /// Measure the default configuration over `reps` independent seeds:
    /// the Table 4 "None (No Tuning)" row. Replications run on the
    /// shared worker pool when [`SessionConfig::replication_threads`]
    /// asks for it and are folded in replication order, so the returned
    /// statistics are bit-identical at any width.
    pub fn measure_default(&self, reps: u32) -> (f64, f64) {
        let mut stats = simkit::stats::Welford::new();
        for out in self.replications(&ClusterConfig::defaults(&self.topology), 0, reps) {
            stats.record(out.metrics.wips);
        }
        (stats.mean(), stats.std_dev())
    }

    /// Measure a configuration with sequential sampling: add replications
    /// until the 95% confidence half-width falls below
    /// `target_rel × mean`, up to `max_reps`. Returns the interval.
    ///
    /// With [`SessionConfig::replication_threads`] ≠ 1 the replications
    /// are evaluated in waves of the worker width; the stopping rule
    /// still scans samples one by one in replication order, so the
    /// returned interval is bit-identical to the sequential one — a
    /// wave can only *overshoot* the stopping point (wasted speculative
    /// replications, never a different answer).
    pub fn measure_until_precise(
        &self,
        config: &ClusterConfig,
        target_rel: f64,
        max_reps: u32,
    ) -> simkit::ci::ConfidenceInterval {
        let max_reps = max_reps.max(2);
        let wave = if self.replication_threads == 1 {
            1
        } else {
            crate::par::resolved_threads(self.replication_threads) as u32
        };
        let mut samples = Vec::new();
        let mut next = 0u32;
        while next < max_reps {
            let count = wave.min(max_reps - next);
            let outs = self.replications(config, next, count);
            next += count;
            for out in outs {
                samples.push(out.metrics.wips);
                if samples.len() >= 2 {
                    let ci = simkit::ci::replication_ci(&samples);
                    if ci.relative_precision() <= target_rel {
                        return ci;
                    }
                }
            }
        }
        simkit::ci::replication_ci(&samples)
    }
}

/// One tuning iteration's record in a session trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    pub iteration: u32,
    /// Overall cluster WIPS measured this iteration.
    pub wips: f64,
    /// Per-work-line WIPS (single entry when unpartitioned).
    pub line_wips: Vec<f64>,
    /// Workload active this iteration (changes in schedule sessions).
    pub workload: Workload,
    /// Requests refused at admission.
    pub failed: u64,
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningRun {
    pub method: TuningMethod,
    pub records: Vec<IterationRecord>,
    /// Best configuration evaluated, with its WIPS.
    pub best_config: ClusterConfig,
    pub best_wips: f64,
    /// Iteration at which the best configuration was first evaluated.
    pub convergence_iteration: u32,
}

impl TuningRun {
    /// WIPS series (figure y-axis).
    pub fn wips_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.wips).collect()
    }

    /// Mean and standard deviation over `[start, end)` iterations — the
    /// paper's "second 100 iterations" statistics.
    pub fn window_stats(&self, start: usize, end: usize) -> (f64, f64) {
        let mut w = simkit::stats::Welford::new();
        for r in self.records.iter().take(end).skip(start) {
            w.record(r.wips);
        }
        (w.mean(), w.std_dev())
    }

    /// First iteration whose WIPS reaches `frac` of the best seen in the
    /// whole run — a noise-robust "iterations to converge" (the arg-max
    /// iteration keeps moving by measurement noise long after the tuner
    /// has effectively converged).
    pub fn first_within(&self, frac: f64) -> u32 {
        let target = self.best_wips * frac;
        self.records
            .iter()
            .find(|r| r.wips >= target)
            .map(|r| r.iteration)
            .unwrap_or(self.convergence_iteration)
    }

    /// Fraction of iterations in `[start, end)` beating `reference` WIPS.
    pub fn fraction_above(&self, start: usize, end: usize, reference: f64) -> f64 {
        let window: Vec<_> = self.records.iter().take(end).skip(start).collect();
        if window.is_empty() {
            return 0.0;
        }
        window.iter().filter(|r| r.wips > reference).count() as f64 / window.len() as f64
    }
}

/// Optional per-iteration observation hooks for a tuning session: a
/// [`TraceSink`] receiving one structured `iteration` record per tuning
/// iteration, and/or a [`Registry`] collecting engine/resource metrics
/// from every simulation run. [`SessionObserver::none`] makes the whole
/// layer free.
pub struct SessionObserver<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    registry: Option<&'a Registry>,
}

impl<'a> SessionObserver<'a> {
    /// No observation: observed tuning behaves exactly like plain tuning.
    pub fn none() -> SessionObserver<'static> {
        SessionObserver {
            sink: None,
            registry: None,
        }
    }

    pub fn new(
        sink: Option<&'a mut dyn TraceSink>,
        registry: Option<&'a Registry>,
    ) -> SessionObserver<'a> {
        SessionObserver { sink, registry }
    }

    /// Trace-only observation.
    pub fn with_sink(sink: &'a mut dyn TraceSink) -> SessionObserver<'a> {
        SessionObserver {
            sink: Some(sink),
            registry: None,
        }
    }

    /// The attached metrics registry, if any.
    pub fn registry(&self) -> Option<&'a Registry> {
        self.registry
    }

    /// Flush the attached sink (end of session).
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.flush();
        }
    }

    /// Emit one `iteration` trace record. Field order is part of the
    /// trace schema (see DESIGN.md "Observability") — extend at the end,
    /// before `wall_ms`, and update the golden-file test.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_iteration(
        &mut self,
        cfg: &SessionConfig,
        method_label: &str,
        iteration: u32,
        config: &ClusterConfig,
        out: &IterationOutcome,
        best_wips: f64,
        best_iteration: u32,
        diagnostics: &[(&'static str, f64)],
        wall_ms: f64,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let ci_half = poisson_ci_half(out.metrics.completed, cfg.plan.measure.as_secs_f64());
        let mut rec = TraceRecord::new("iteration")
            .field("method", method_label)
            .field("iteration", iteration)
            .field("workload", cfg.workload.name())
            .field("seed", cfg.seed_for(iteration))
            .field("config", config_summary(config))
            .field("wips", out.metrics.wips)
            .field("ci_half", ci_half)
            .field("completed", out.metrics.completed)
            .field("failed", out.total_failed)
            .field("line_wips", out.line_wips.clone())
            .field("best_wips", best_wips)
            .field("best_iteration", best_iteration)
            .field("events", out.events);
        for (k, v) in diagnostics {
            rec.push(format!("tuner_{k}"), *v);
        }
        rec.push("wall_ms", wall_ms);
        sink.emit(&rec);
    }

    /// Emit one `tuner` trace record: which algorithm consumed this
    /// iteration's measurement, its natural batch width, and the typed
    /// measurement it was fed. Field order is part of the trace schema
    /// (tests/golden/tuner_schema.txt).
    pub(crate) fn record_tuner(
        &mut self,
        iteration: u32,
        name: &str,
        batch: usize,
        m: &Measurement,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("tuner")
            .field("name", name)
            .field("iteration", iteration)
            .field("batch", batch as u64)
            .field("mean", m.mean)
            .field("ci_half", m.ci_half_width)
            .field("replications", m.replications as u64);
        sink.emit(&rec);
    }

    /// Emit one `reconfig` trace record for an accepted node move.
    pub(crate) fn record_reconfig(
        &mut self,
        iteration: u32,
        node: usize,
        from_tier: &str,
        to_tier: &str,
        immediate: bool,
        cost_value: f64,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("reconfig")
            .field("iteration", iteration)
            .field("node", node)
            .field("from_tier", from_tier)
            .field("to_tier", to_tier)
            .field("immediate", immediate)
            .field("cost_value", cost_value);
        sink.emit(&rec);
    }

    /// Emit one `fault` trace record for an injected fault event. Field
    /// order is part of the trace schema (tests/golden/fault_schema.txt).
    pub(crate) fn record_fault(
        &mut self,
        iteration: u32,
        at_s: f64,
        node: i64,
        fault: &str,
        factor: f64,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("fault")
            .field("iteration", iteration)
            .field("at_s", at_s)
            .field("node", node)
            .field("fault", fault)
            .field("factor", factor);
        sink.emit(&rec);
    }

    /// Emit one `recovery` trace record for a resilience action (retry,
    /// re-measurement, breaker trip, failure-driven reconfiguration).
    /// Field order is part of the trace schema
    /// (tests/golden/recovery_schema.txt).
    pub(crate) fn record_recovery(
        &mut self,
        iteration: u32,
        action: &str,
        attempt: u32,
        delay_s: f64,
        config: &str,
        wips: f64,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("recovery")
            .field("iteration", iteration)
            .field("action", action)
            .field("attempt", attempt)
            .field("delay_s", delay_s)
            .field("config", config)
            .field("wips", wips);
        sink.emit(&rec);
    }

    /// Emit one `suspicion` trace record per node per iteration in
    /// detector mode: the window's peak φ and the membership state at the
    /// window's end. Field order is part of the trace schema
    /// (tests/golden/suspicion_schema.txt).
    pub(crate) fn record_suspicion(&mut self, iteration: u32, node: usize, phi: f64, state: &str) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("suspicion")
            .field("iteration", iteration)
            .field("node", node as i64)
            .field("phi", phi)
            .field("state", state);
        sink.emit(&rec);
    }

    /// Emit one `membership` trace record per detected transition
    /// (Up/Suspect/Down), stamped with the simulated assessment time.
    /// Field order is part of the trace schema
    /// (tests/golden/membership_schema.txt).
    pub(crate) fn record_membership(
        &mut self,
        iteration: u32,
        at_s: f64,
        node: usize,
        from: &str,
        to: &str,
        phi: f64,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("membership")
            .field("iteration", iteration)
            .field("at_s", at_s)
            .field("node", node as i64)
            .field("from", from)
            .field("to", to)
            .field("phi", phi);
        sink.emit(&rec);
    }

    /// Emit one `degraded` trace record when the fallback policy
    /// substitutes the best-known sample for a failed or rejected
    /// evaluation. Field order is part of the trace schema
    /// (tests/golden/degraded_schema.txt).
    pub(crate) fn record_degraded(
        &mut self,
        iteration: u32,
        reason: &str,
        config: &str,
        wips: f64,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("degraded")
            .field("iteration", iteration)
            .field("reason", reason)
            .field("config", config)
            .field("wips", wips);
        sink.emit(&rec);
    }

    /// Emit one `resume` trace record when a checkpointed session picks
    /// up where an interrupted run stopped. Field order is part of the
    /// trace schema (tests/golden/resume_schema.txt).
    pub(crate) fn record_resume(
        &mut self,
        method: &str,
        iteration: u32,
        snapshot_iteration: i64,
        replayed: u32,
        best_wips: f64,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("resume")
            .field("method", method)
            .field("iteration", iteration)
            .field("snapshot_iteration", snapshot_iteration)
            .field("replayed", replayed)
            .field("best_wips", best_wips);
        sink.emit(&rec);
    }

    /// Emit one `eval` summary record at the end of a session whose
    /// evaluation engine is active (cache and/or speculation). Field
    /// order is part of the trace schema
    /// (tests/golden/eval_schema.txt). This is the only record that
    /// varies with the engine configuration; determinism tests strip
    /// it, like `wall_ms`.
    pub(crate) fn record_eval(
        &mut self,
        method: &str,
        iterations: u32,
        threads: usize,
        counters: &EvalCounters,
    ) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let rec = TraceRecord::new("eval")
            .field("method", method)
            .field("iterations", iterations)
            .field("threads", threads as u64)
            .field("hits", counters.hits)
            .field("misses", counters.misses)
            .field("speculated", counters.speculated)
            .field("speculation_dropped", counters.speculation_dropped)
            .field("hit_rate", counters.hit_rate());
        sink.emit(&rec);
    }
}

/// 95% half-width under the Poisson completion model: WIPS is a count
/// over the measurement window, so its sampling std-dev is
/// ~sqrt(count)/window.
pub(crate) fn poisson_ci_half(completed: u64, measure_secs: f64) -> f64 {
    if measure_secs > 0.0 {
        1.96 * (completed as f64).sqrt() / measure_secs
    } else {
        0.0
    }
}

/// Run a prepared scenario, through the metrics-publishing runner when a
/// registry is attached.
pub fn run_scenario(
    scenario: &cluster::model::ClusterScenario,
    registry: Option<&Registry>,
) -> IterationOutcome {
    match registry {
        Some(r) => run_iteration_observed(scenario, r),
        None => run_iteration(scenario),
    }
}

fn node_values(n: &cluster::config::NodeParams) -> Vec<i64> {
    if let Some(p) = n.as_proxy() {
        p.to_values().to_vec()
    } else if let Some(w) = n.as_app() {
        w.to_values().to_vec()
    } else if let Some(d) = n.as_db() {
        d.to_values().to_vec()
    } else {
        Vec::new()
    }
}

/// Compact one-line rendering of a full cluster configuration:
/// `proxy[v,v,..]|app[v,..]|db[v,..]`, one segment per node.
pub(crate) fn config_summary(config: &ClusterConfig) -> String {
    config
        .nodes()
        .iter()
        .map(|n| {
            let vals: Vec<String> = node_values(n).iter().map(|v| v.to_string()).collect();
            format!("{}[{}]", n.role().name(), vals.join(","))
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Internal: track best-seen config across a run.
struct BestConfig {
    config: ClusterConfig,
    wips: f64,
    iteration: u32,
}

impl BestConfig {
    fn new(initial: ClusterConfig) -> Self {
        BestConfig {
            config: initial,
            wips: f64::NEG_INFINITY,
            iteration: 0,
        }
    }

    fn consider(&mut self, config: &ClusterConfig, wips: f64, iteration: u32) {
        if wips > self.wips {
            self.config = config.clone();
            self.wips = wips;
            self.iteration = iteration;
        }
    }

    fn save_state(&self) -> State {
        State::map()
            .with("config", checkpoint::config_state(&self.config))
            .with("wips", State::F64(self.wips))
            .with("iteration", State::U64(self.iteration as u64))
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        self.config = checkpoint::config_from_state(state.require("config")?)?;
        self.wips = state.field_f64("wips")?;
        self.iteration = state.field_u64("iteration")? as u32;
        Ok(())
    }
}

/// Work-line node sets for a topology (one `Vec<NodeId>` per line).
fn work_lines(topology: &Topology) -> Result<Vec<Vec<NodeId>>, SessionError> {
    let nodes: Vec<(usize, u8)> = topology
        .roles()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                i,
                match r {
                    Role::Proxy => 0u8,
                    Role::App => 1,
                    Role::Db => 2,
                },
            )
        })
        .collect();
    let lines = build_work_lines(&nodes).map_err(|_| SessionError::MissingTier)?;
    Ok(lines.into_iter().map(|l| l.nodes).collect())
}

/// The tuner side of one session iteration, one variant per §III layout.
///
/// Every tuning method is the same closed loop — propose a cluster
/// configuration, measure it, feed the result back — differing only in
/// how proposals are assembled and which throughput each server sees.
/// `TuneEngine` owns exactly that difference, so a single
/// [`drive_tuning`] loop (and a single checkpoint/replay path) serves
/// all four methods and resilient sessions.
enum TuneEngine {
    /// No tuning: always propose the default configuration.
    Baseline,
    /// Default method: one server over every parameter of every node.
    Single(HarmonyServer),
    /// Parameter duplication: one server per tier, values replicated
    /// across the tier's nodes, all fed the overall WIPS.
    Tiers(Box<[HarmonyServer; 3]>),
    /// Parameter partitioning (and the hybrid's fine phase): one server
    /// per work line, each fed its own line's throughput, proposals
    /// overlaid on `base`.
    Lines {
        servers: Vec<HarmonyServer>,
        lines: Vec<Vec<NodeId>>,
        base: ClusterConfig,
    },
}

impl TuneEngine {
    /// Build one tuner of the session's configured algorithm over
    /// `space`, optionally seeded from a starting configuration.
    fn build_tuner(
        cfg: &SessionConfig,
        space: harmony::space::ParamSpace,
        start: Option<&harmony::space::Configuration>,
        index: u64,
    ) -> Result<Box<dyn harmony::tuner::Tuner + Send>, SessionError> {
        harmony::registry::make_tuner_seeded(&cfg.tuner, space, start, tuner_seed(cfg, index))
            .map_err(|e| SessionError::UnknownTuner(e.to_string()))
    }

    fn tier_servers(cfg: &SessionConfig) -> Result<[HarmonyServer; 3], SessionError> {
        // Session servers run the ask/tell v2 batch protocol: same
        // proposal sequence, but a batch-native tuner's queued round is
        // certain future work, visible to speculative prefetch.
        Ok([
            HarmonyServer::new(
                "proxy-tier",
                Self::build_tuner(cfg, binding::role_space(Role::Proxy), None, 0)?,
            )
            .batch_protocol(true),
            HarmonyServer::new(
                "web-tier",
                Self::build_tuner(cfg, binding::role_space(Role::App), None, 1)?,
            )
            .batch_protocol(true),
            HarmonyServer::new(
                "db-tier",
                Self::build_tuner(cfg, binding::role_space(Role::Db), None, 2)?,
            )
            .batch_protocol(true),
        ])
    }

    fn line_servers(
        cfg: &SessionConfig,
        count: usize,
        seed: Option<&harmony::space::Configuration>,
    ) -> Result<Vec<HarmonyServer>, SessionError> {
        (0..count)
            .map(|i| {
                let tuner = Self::build_tuner(cfg, binding::tier_space(), seed, i as u64)?;
                Ok(HarmonyServer::new(format!("line-{i}"), tuner).batch_protocol(true))
            })
            .collect()
    }

    /// The engine a method starts with (the hybrid starts coarse, on
    /// tiers, and switches via [`TuneEngine::fine_phase`]).
    fn for_method(cfg: &SessionConfig, method: TuningMethod) -> Result<TuneEngine, SessionError> {
        Ok(match method {
            TuningMethod::None => TuneEngine::Baseline,
            TuningMethod::Default => TuneEngine::Single(
                HarmonyServer::new(
                    "all-nodes",
                    Self::build_tuner(cfg, binding::full_space(&cfg.topology), None, 0)?,
                )
                .batch_protocol(true),
            ),
            TuningMethod::Duplication | TuningMethod::Hybrid => {
                TuneEngine::Tiers(Box::new(Self::tier_servers(cfg)?))
            }
            TuningMethod::Partitioning => TuneEngine::Lines {
                servers: Self::line_servers(cfg, work_lines(&cfg.topology)?.len(), None)?,
                lines: work_lines(&cfg.topology)?,
                base: ClusterConfig::defaults(&cfg.topology),
            },
        })
    }

    /// The hybrid's fine phase: per-line tuning seeded from (and overlaid
    /// on) the coarse phase's best configuration.
    fn fine_phase(
        cfg: &SessionConfig,
        seed_config: &ClusterConfig,
    ) -> Result<TuneEngine, SessionError> {
        let seed_tier = binding::tier_config_from(seed_config, &cfg.topology)
            .ok_or(SessionError::ConfigExtract)?;
        let lines = work_lines(&cfg.topology)?;
        Ok(TuneEngine::Lines {
            servers: Self::line_servers(cfg, lines.len(), Some(&seed_tier))?,
            lines,
            base: seed_config.clone(),
        })
    }

    /// Assemble this iteration's proposed cluster configuration.
    fn propose(&mut self, cfg: &SessionConfig) -> ClusterConfig {
        match self {
            TuneEngine::Baseline => ClusterConfig::defaults(&cfg.topology),
            TuneEngine::Single(server) => {
                binding::config_from_full(&cfg.topology, &server.next_config())
            }
            TuneEngine::Tiers(servers) => {
                let pc = servers[0].next_config();
                let wc = servers[1].next_config();
                let dc = servers[2].next_config();
                binding::config_from_roles(&cfg.topology, &pc, &wc, &dc)
            }
            TuneEngine::Lines {
                servers,
                lines,
                base,
            } => {
                let mut config = base.clone();
                for (server, line) in servers.iter_mut().zip(lines.iter()) {
                    let proposal = server.next_config();
                    binding::apply_line_config(&mut config, &cfg.topology, line, &proposal);
                }
                config
            }
        }
    }

    /// Work-line partition for the scenario, when this engine uses one.
    fn lines(&self) -> Option<Vec<Vec<NodeId>>> {
        match self {
            TuneEngine::Lines { lines, .. } => Some(lines.clone()),
            _ => None,
        }
    }

    /// Cluster configurations this engine *may* propose over its next
    /// `horizon` iterations: element `k` of the outer vector lists
    /// candidates for the proposal `k` iterations ahead (0 = the very
    /// next one). Advisory input to speculative evaluation (see
    /// [`crate::eval`]); multi-server engines speculate only joint
    /// proposals that are certain (see [`TuneEngine::joint_speculation`]).
    fn speculate(&self, cfg: &SessionConfig, horizon: usize) -> Vec<Vec<ClusterConfig>> {
        if horizon == 0 {
            return Vec::new();
        }
        match self {
            TuneEngine::Baseline => {
                vec![vec![ClusterConfig::defaults(&cfg.topology)]; horizon]
            }
            TuneEngine::Single(server) => server
                .speculate()
                .into_iter()
                .take(horizon)
                .map(|cands| {
                    cands
                        .iter()
                        .map(|c| binding::config_from_full(&cfg.topology, c))
                        .collect()
                })
                .collect(),
            TuneEngine::Tiers(servers) => Self::joint_speculation(
                &servers.iter().map(|s| s.speculate()).collect::<Vec<_>>(),
                horizon,
                |combo| binding::config_from_roles(&cfg.topology, &combo[0], &combo[1], &combo[2]),
            ),
            TuneEngine::Lines {
                servers,
                lines,
                base,
            } => Self::joint_speculation(
                &servers.iter().map(|s| s.speculate()).collect::<Vec<_>>(),
                horizon,
                |combo| {
                    let mut config = base.clone();
                    for (line, proposal) in lines.iter().zip(combo) {
                        binding::apply_line_config(&mut config, &cfg.topology, line, proposal);
                    }
                    config
                },
            ),
        }
    }

    /// [`TuneEngine::speculate`] as the scenarios the loop would build
    /// for iterations `first..first + horizon`.
    fn scenarios_ahead(
        &self,
        cfg: &SessionConfig,
        first: u32,
        horizon: usize,
    ) -> Vec<ClusterScenario> {
        let mut scenarios = Vec::new();
        for (off, candidates) in self.speculate(cfg, horizon).into_iter().enumerate() {
            for candidate in candidates {
                let mut s = cfg.scenario(candidate, first + off as u32);
                s.lines = self.lines();
                scenarios.push(s);
            }
        }
        scenarios
    }

    /// Joint proposals of several servers, offset by offset: offset `k`
    /// yields one candidate only while *every* server offers exactly one
    /// there. Crossing uncertain per-server lists (a reflect step's three
    /// follow-ups each) would prefetch many combinations of which at most
    /// one is consumed.
    fn joint_speculation(
        ahead: &[Vec<Vec<Configuration>>],
        horizon: usize,
        assemble: impl Fn(&[Configuration]) -> ClusterConfig,
    ) -> Vec<Vec<ClusterConfig>> {
        let mut out = Vec::new();
        for k in 0..horizon {
            let Some(combo) = ahead
                .iter()
                .map(|a| match a.get(k).map(Vec::as_slice) {
                    Some([only]) => Some(only.clone()),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
            else {
                break;
            };
            out.push(vec![assemble(&combo)]);
        }
        out
    }

    /// Feed the measured throughput back to the server(s) as a typed
    /// measurement. Line servers see their own line's share: the mean is
    /// the line's WIPS and the confidence half-width is scaled by the
    /// line's share of the cluster total, so per-line trust tracks
    /// per-line volume.
    fn report(&mut self, m: &Measurement, line_wips: &[f64]) {
        match self {
            TuneEngine::Baseline => {}
            TuneEngine::Single(server) => server.report_measurement(*m),
            TuneEngine::Tiers(servers) => {
                for s in servers.iter_mut() {
                    s.report_measurement(*m);
                }
            }
            TuneEngine::Lines { servers, .. } => {
                for (s, lw) in servers.iter_mut().zip(line_wips) {
                    let share = if m.mean > 0.0 { lw / m.mean } else { 0.0 };
                    let line_m = Measurement::point(*lw)
                        .with_ci(m.ci_half_width * share)
                        .with_replications(m.replications);
                    s.report_measurement(line_m);
                }
            }
        }
    }

    /// Registry name of the algorithm driving this engine (`none` for
    /// the untuned baseline).
    fn tuner_name(&self) -> &'static str {
        match self {
            TuneEngine::Baseline => "none",
            TuneEngine::Single(server) => server.algorithm(),
            TuneEngine::Tiers(servers) => servers[0].algorithm(),
            TuneEngine::Lines { servers, .. } => {
                servers.first().map(|s| s.algorithm()).unwrap_or("none")
            }
        }
    }

    /// The first server's natural batch width (1 for point tuners).
    fn batch_width(&self) -> usize {
        match self {
            TuneEngine::Baseline => 1,
            TuneEngine::Single(server) => server.batch_size(),
            TuneEngine::Tiers(servers) => servers[0].batch_size(),
            TuneEngine::Lines { servers, .. } => {
                servers.first().map(|s| s.batch_size()).unwrap_or(1)
            }
        }
    }

    /// Number of tuning servers this engine drives per iteration.
    fn server_count(&self) -> usize {
        match self {
            TuneEngine::Baseline => 0,
            TuneEngine::Single(_) => 1,
            TuneEngine::Tiers(_) => 3,
            TuneEngine::Lines { servers, .. } => servers.len(),
        }
    }

    /// Tuner diagnostics for the trace (first server's, as before).
    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        match self {
            TuneEngine::Baseline => Vec::new(),
            TuneEngine::Single(server) => server.diagnostics(),
            TuneEngine::Tiers(servers) => servers[0].diagnostics(),
            TuneEngine::Lines { servers, .. } => {
                servers.first().map(|s| s.diagnostics()).unwrap_or_default()
            }
        }
    }

    fn save_state(&self) -> State {
        match self {
            TuneEngine::Baseline => State::map().with("kind", State::Str("baseline".into())),
            TuneEngine::Single(server) => {
                State::map().with("kind", State::Str("single".into())).with(
                    "servers",
                    State::List(vec![Checkpointable::save_state(server)]),
                )
            }
            TuneEngine::Tiers(servers) => {
                State::map().with("kind", State::Str("tiers".into())).with(
                    "servers",
                    State::List(servers.iter().map(Checkpointable::save_state).collect()),
                )
            }
            TuneEngine::Lines {
                servers,
                lines,
                base,
            } => State::map()
                .with("kind", State::Str("lines".into()))
                .with(
                    "servers",
                    State::List(servers.iter().map(Checkpointable::save_state).collect()),
                )
                .with(
                    "lines",
                    State::List(
                        lines
                            .iter()
                            .map(|l| State::List(l.iter().map(|&n| State::U64(n as u64)).collect()))
                            .collect(),
                    ),
                )
                .with("base", checkpoint::config_state(base)),
        }
    }

    /// Rebuild an engine skeleton for the serialized `kind` (spaces come
    /// from the session environment, not the snapshot) and restore the
    /// server states into it.
    fn from_state(cfg: &SessionConfig, state: &State) -> Result<TuneEngine, PersistError> {
        let restore_into = |server: &mut HarmonyServer, saved: &State| {
            Checkpointable::restore_state(server, saved)
        };
        let skeleton_err = |e: SessionError| PersistError::Schema(e.to_string());
        match state.field_str("kind")? {
            "baseline" => Ok(TuneEngine::Baseline),
            "single" => {
                let saved = state.field_list("servers")?;
                let first = saved.first().ok_or_else(|| {
                    PersistError::Schema("single engine has no server state".into())
                })?;
                let mut server = HarmonyServer::new(
                    "all-nodes",
                    Self::build_tuner(cfg, binding::full_space(&cfg.topology), None, 0)
                        .map_err(skeleton_err)?,
                )
                .batch_protocol(true);
                restore_into(&mut server, first)?;
                Ok(TuneEngine::Single(server))
            }
            "tiers" => {
                let saved = state.field_list("servers")?;
                if saved.len() != 3 {
                    return Err(PersistError::Schema(format!(
                        "tiers engine expects 3 server states, found {}",
                        saved.len()
                    )));
                }
                let mut servers = Box::new(Self::tier_servers(cfg).map_err(skeleton_err)?);
                for (server, st) in servers.iter_mut().zip(saved) {
                    restore_into(server, st)?;
                }
                Ok(TuneEngine::Tiers(servers))
            }
            "lines" => {
                let lines = state
                    .field_list("lines")?
                    .iter()
                    .map(|l| {
                        l.as_list()
                            .ok_or_else(|| PersistError::Schema("line is not a list".into()))?
                            .iter()
                            .map(|n| {
                                n.as_u64().map(|v| v as NodeId).ok_or_else(|| {
                                    PersistError::Schema("line node is not a u64".into())
                                })
                            })
                            .collect::<Result<Vec<NodeId>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let base = checkpoint::config_from_state(state.require("base")?)?;
                let saved = state.field_list("servers")?;
                if saved.len() != lines.len() {
                    return Err(PersistError::Schema(format!(
                        "lines engine expects {} server states, found {}",
                        lines.len(),
                        saved.len()
                    )));
                }
                let mut servers =
                    Self::line_servers(cfg, lines.len(), None).map_err(skeleton_err)?;
                for (server, st) in servers.iter_mut().zip(saved) {
                    restore_into(server, st)?;
                }
                Ok(TuneEngine::Lines {
                    servers,
                    lines,
                    base,
                })
            }
            other => Err(PersistError::Schema(format!(
                "unknown engine kind '{other}'"
            ))),
        }
    }
}

pub(crate) fn ckerr(e: PersistError) -> SessionError {
    SessionError::Checkpoint(e.to_string())
}

/// Deterministic per-server RNG seed for the stochastic tuners, derived
/// from the session's base seed and the server's position. The domain
/// constant keeps tuner streams disjoint from iteration seeds
/// (`seed_for`) and replication seeds.
pub(crate) fn tuner_seed(cfg: &SessionConfig, index: u64) -> u64 {
    const TUNER_SEED_DOMAIN: u64 = 0x7E57_A15E_ED00_0001;
    (cfg.base_seed ^ TUNER_SEED_DOMAIN).wrapping_add(index)
}

/// Full tuner state of a tuning session, snapshot-ready.
fn tune_snapshot(engine: &TuneEngine, best: &BestConfig, records: &[IterationRecord]) -> State {
    State::map()
        .with("kind", State::Str("tune".into()))
        .with("engine", engine.save_state())
        .with("best", best.save_state())
        .with("records", checkpoint::records_state(records))
}

/// Trace label for iteration `i` (the hybrid's coarse phase labels its
/// records `duplication`, so the phase switch is visible in the trace).
fn method_label(method: TuningMethod, i: u32, switch_at: u32) -> &'static str {
    if method == TuningMethod::Hybrid && i < switch_at {
        TuningMethod::Duplication.label()
    } else {
        method.label()
    }
}

/// One evaluated iteration, as the session loop records it.
pub(crate) struct Evaluation {
    /// What was simulated; `None` when nothing was (a rejected proposal),
    /// which leaves the iteration without an `iteration` trace record.
    pub(crate) out: Option<IterationOutcome>,
    /// The WIPS the session records for the iteration.
    pub(crate) wips: f64,
    /// Whether the sample is trusted: only a valid sample reaches the
    /// tuner as its typed measurement and counts toward the best;
    /// otherwise the tuner is told the proposal was worth 0.0.
    pub(crate) valid: bool,
}

/// The measurement the tuner is fed for one iteration: a valid sample's
/// typed measurement (mean and Poisson confidence interval), otherwise
/// 0.0 — the proposal is always answered.
fn reported(cfg: &SessionConfig, valid: bool, wips: f64, completed: u64) -> Measurement {
    if valid {
        cfg.measurement_from(wips, completed)
    } else {
        Measurement::point(0.0)
    }
}

/// The one tuning loop behind every session: propose → evaluate →
/// report → record, with optional crash-safe checkpointing and resume.
///
/// A [`TuningMethod::Hybrid`] session tunes coarsely (per tier) for the
/// first third of its iterations, then switches to per-line fine tuning
/// seeded from the best configuration so far.
///
/// `resilience` turns the session into a resilient one (see
/// [`crate::resilient`]): it evaluates every proposal through the policy
/// stack, heals the topology after a crash, and adds its own fields to
/// every journal delta and snapshot.
pub(crate) fn drive_tuning(
    cfg: &SessionConfig,
    method: TuningMethod,
    iterations: u32,
    mut resilience: Option<&mut Resilience<'_>>,
    observer: &mut SessionObserver,
) -> Result<TuningRun, SessionError> {
    cfg.validate_faults()?;
    let switch_at = if method == TuningMethod::Hybrid {
        iterations / 3
    } else {
        iterations
    };
    let resilient = resilience.is_some();
    let session_label = if resilient {
        "resilient"
    } else {
        method.label()
    };
    let mut engine = TuneEngine::for_method(cfg, method)?;
    let mut records: Vec<IterationRecord> = Vec::with_capacity(iterations as usize);
    let mut best = BestConfig::new(ClusterConfig::defaults(&cfg.topology));
    let mut start = 0u32;

    let mut ckpt = match cfg.checkpoint.as_ref() {
        None => None,
        Some(policy) => {
            let kind = match resilience.as_deref() {
                Some(r) => r.fingerprint_kind(),
                None => method.label().to_string(),
            };
            let fp = checkpoint::session_fingerprint(cfg, &kind, iterations, switch_at);
            let (ck, resumed) = Checkpointer::open(policy, fp)?;
            if let Some(resumed) = resumed {
                let mut snapshot_iteration: i64 = -1;
                if let Some((snap_iter, state)) = resumed.snapshot.as_ref() {
                    snapshot_iteration = *snap_iter as i64;
                    start = *snap_iter as u32;
                    // A hybrid snapshot taken at or before the switch holds
                    // the coarse engine; the loops below rebuild the fine
                    // one at `i == switch_at`.
                    engine = TuneEngine::from_state(cfg, state.require("engine").map_err(ckerr)?)
                        .map_err(ckerr)?;
                    best.restore_state(state.require("best").map_err(ckerr)?)
                        .map_err(ckerr)?;
                    records =
                        checkpoint::records_from_state(state.require("records").map_err(ckerr)?)
                            .map_err(ckerr)?;
                    if let Some(r) = resilience.as_deref_mut() {
                        r.restore(state).map_err(ckerr)?;
                    }
                    // Warm the evaluation cache from the snapshot (older
                    // snapshots — or cache-off sessions — simply lack
                    // the field).
                    if let Some(cached) = state.get("eval_cache") {
                        cfg.eval.restore_cache(cached).map_err(ckerr)?;
                    }
                }
                // Replay the journal past the snapshot: re-derive each
                // proposal from the deterministic tuner and feed it the
                // journaled measurement — no re-simulation, no trace
                // output (those records already exist in the stream).
                let mut replayed = 0u32;
                for delta in &resumed.deltas {
                    let i = delta.field_u64("iteration").map_err(ckerr)? as u32;
                    if i != start {
                        return Err(SessionError::Checkpoint(format!(
                            "journal gap: expected iteration {start}, found {i}"
                        )));
                    }
                    if method == TuningMethod::Hybrid && i == switch_at {
                        engine = TuneEngine::fine_phase(cfg, &best.config)?;
                    }
                    let live = resilience.as_deref().map_or(cfg, Resilience::config);
                    let config = engine.propose(live);
                    let wips = delta.field_f64("wips").map_err(ckerr)?;
                    let line_wips = delta
                        .require("line_wips")
                        .and_then(State::to_f64_vec)
                        .map_err(ckerr)?;
                    let failed = delta.field_u64("failed").map_err(ckerr)?;
                    // Rebuild the typed measurement from the journaled
                    // completion count so CI-weighting tuners (TUNA)
                    // replay bit-identically.
                    let completed = delta.get("completed").and_then(State::as_u64).unwrap_or(0);
                    let valid = match resilience.as_deref_mut() {
                        Some(r) => r.replay(delta)?,
                        None => true,
                    };
                    engine.report(&reported(cfg, valid, wips, completed), &line_wips);
                    if valid {
                        best.consider(&config, wips, i);
                    }
                    records.push(IterationRecord {
                        iteration: i,
                        wips,
                        line_wips,
                        workload: cfg.workload,
                        failed,
                    });
                    start += 1;
                    replayed += 1;
                }
                if let Some(r) = resilience.as_deref_mut() {
                    r.resumed(start);
                }
                observer.record_resume(
                    session_label,
                    start,
                    snapshot_iteration,
                    replayed,
                    best.wips.max(0.0),
                );
            }
            Some(ck)
        }
    };

    let eval_before = cfg.eval.counters();
    for i in start..iterations {
        if method == TuningMethod::Hybrid && i == switch_at {
            engine = TuneEngine::fine_phase(cfg, &best.config)?;
        }
        // A reconfigured resilient session proposes and speculates on
        // its live topology.
        let live = resilience.as_deref().map_or(cfg, Resilience::config);
        // Speculative parallel evaluation, refilled only when this
        // step's evaluation would miss. The horizon never crosses the
        // hybrid's phase switch (the fine engine proposes from a
        // different space).
        let phase_end = if i < switch_at { switch_at } else { iterations };
        cfg.eval.refill((phase_end - i) as usize, |horizon| {
            engine.scenarios_ahead(live, i, horizon)
        });
        let t0 = Instant::now();
        let config = engine.propose(live);
        let evaluation = match resilience.as_deref_mut() {
            Some(r) => r.evaluate(&config, i, observer),
            None => {
                let mut scenario = cfg.scenario(config.clone(), i);
                scenario.lines = engine.lines();
                let mut out = cfg.eval.run(&scenario, observer.registry());
                cfg.apply_fault_noise(i, &mut out);
                Evaluation {
                    wips: out.metrics.wips,
                    out: Some(out),
                    valid: true,
                }
            }
        };
        let (line_wips, failed, completed) = match &evaluation.out {
            Some(out) => (
                out.line_wips.clone(),
                out.total_failed,
                out.metrics.completed,
            ),
            None => (Vec::new(), 0, 0),
        };
        let measurement = reported(cfg, evaluation.valid, evaluation.wips, completed);
        engine.report(&measurement, &line_wips);
        if evaluation.valid {
            best.consider(&config, evaluation.wips, i);
        }
        if let Some(out) = &evaluation.out {
            observer.record_iteration(
                cfg,
                if resilient {
                    session_label
                } else {
                    method_label(method, i, switch_at)
                },
                i,
                &config,
                out,
                best.wips.max(0.0),
                best.iteration,
                &engine.diagnostics(),
                t0.elapsed().as_secs_f64() * 1e3,
            );
        }
        if method != TuningMethod::None {
            observer.record_tuner(i, engine.tuner_name(), engine.batch_width(), &measurement);
            if let Some(registry) = observer.registry() {
                registry
                    .counter("tuner.proposals")
                    .add(engine.server_count() as u64);
                registry.counter("tuner.batches").add(1);
            }
        }
        if let Some(r) = resilience.as_deref_mut() {
            r.heal(i, &evaluation, observer)?;
        }
        if let Some(ck) = ckpt.as_mut() {
            let mut delta = State::map()
                .with("iteration", State::U64(i as u64))
                .with("wips", State::F64(evaluation.wips))
                .with("line_wips", State::f64_list(&line_wips))
                .with("failed", State::U64(failed))
                .with("completed", State::U64(completed));
            if let Some(r) = resilience.as_deref() {
                r.journal(&mut delta, evaluation.valid);
            }
            ck.append(delta)?;
        }
        records.push(IterationRecord {
            iteration: i,
            wips: evaluation.wips,
            line_wips,
            workload: cfg.workload,
            failed,
        });
        if let Some(ck) = ckpt.as_mut() {
            ck.maybe_snapshot(i + 1, iterations, || {
                let mut snap = tune_snapshot(&engine, &best, &records);
                if let Some(r) = resilience.as_deref() {
                    r.snapshot(&mut snap);
                }
                if cfg.eval.cache_enabled() {
                    snap.set("eval_cache", cfg.eval.save_cache_state());
                }
                snap
            })?;
        }
    }
    if cfg.eval.enabled() {
        let activity = cfg.eval.counters().since(&eval_before);
        if let Some(registry) = observer.registry() {
            registry.counter("eval.cache_hits").add(activity.hits);
            registry.counter("eval.cache_misses").add(activity.misses);
            registry.counter("eval.speculated").add(activity.speculated);
            registry
                .counter("eval.speculation_dropped")
                .add(activity.speculation_dropped);
        }
        observer.record_eval(
            session_label,
            iterations - start,
            cfg.eval.threads(),
            &activity,
        );
    }
    observer.flush();
    Ok(TuningRun {
        method,
        records,
        best_config: best.config,
        best_wips: best.wips,
        convergence_iteration: if method == TuningMethod::None {
            0
        } else {
            best.iteration
        },
    })
}

/// Tune `iterations` times with `method` (None yields a flat run of the
/// default configuration):
///
/// * [`TuningMethod::Default`] — one Harmony server over every parameter
///   of every node;
/// * [`TuningMethod::Duplication`] — one server per tier (7/7/9
///   dimensions), each tier's values replicated across its nodes, all
///   three servers fed the overall WIPS;
/// * [`TuningMethod::Partitioning`] — one server per work line (23
///   dimensions) fed *its own line's* throughput; requests never cross
///   lines;
/// * [`TuningMethod::Hybrid`] — the paper's future work: duplication for
///   the first third of the iterations, then per-line fine tuning seeded
///   from the duplication result.
pub fn tune(
    cfg: &SessionConfig,
    method: TuningMethod,
    iterations: u32,
) -> Result<TuningRun, SessionError> {
    tune_observed(cfg, method, iterations, &mut SessionObserver::none())
}

/// [`tune`] with per-iteration trace/metrics observation. Tuner
/// diagnostics come from the first server; the hybrid's coarse phase
/// emits records labelled `duplication`, its fine phase `hybrid`.
pub fn tune_observed(
    cfg: &SessionConfig,
    method: TuningMethod,
    iterations: u32,
    observer: &mut SessionObserver,
) -> Result<TuningRun, SessionError> {
    drive_tuning(cfg, method, iterations, None, observer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(workload: Workload) -> SessionConfig {
        SessionConfig::new(Topology::single(), workload, 300).plan(IntervalPlan::tiny())
    }

    #[test]
    fn default_method_runs_and_records() {
        let cfg = quick_cfg(Workload::Shopping);
        let run = tune(&cfg, TuningMethod::Default, 8).expect("tuning");
        assert_eq!(run.records.len(), 8);
        assert!(run.best_wips > 0.0);
        assert!(run.convergence_iteration < 8);
        assert_eq!(run.method, TuningMethod::Default);
    }

    #[test]
    fn duplication_replicates_values() {
        let cfg = quick_cfg(Workload::Browsing).topology(Topology::tiers(2, 1, 1).unwrap());
        let run = tune(&cfg, TuningMethod::Duplication, 5).expect("tuning");
        let best = &run.best_config;
        assert_eq!(
            best.node(0).as_proxy().unwrap(),
            best.node(1).as_proxy().unwrap(),
            "duplication must keep tier nodes identical"
        );
    }

    #[test]
    fn partitioning_reports_per_line() {
        let cfg = quick_cfg(Workload::Shopping)
            .topology(Topology::tiers(2, 2, 2).unwrap())
            .population(400);
        let run = tune(&cfg, TuningMethod::Partitioning, 5).expect("tuning");
        assert_eq!(run.records[0].line_wips.len(), 2);
        assert!(run.best_wips > 0.0);
    }

    #[test]
    fn none_method_is_flat_default() {
        let cfg = quick_cfg(Workload::Ordering);
        let run = tune(&cfg, TuningMethod::None, 3).expect("tuning");
        assert_eq!(run.records.len(), 3);
        assert_eq!(run.best_config, ClusterConfig::defaults(&cfg.topology));
    }

    #[test]
    fn hybrid_switches_methods() {
        let cfg = quick_cfg(Workload::Shopping)
            .topology(Topology::tiers(2, 2, 2).unwrap())
            .population(400);
        let run = tune(&cfg, TuningMethod::Hybrid, 9).expect("tuning");
        assert_eq!(run.records.len(), 9);
        assert_eq!(run.method, TuningMethod::Hybrid);
    }

    #[test]
    fn pinned_seed_is_deterministic() {
        let cfg = quick_cfg(Workload::Shopping).pin_seed(true);
        let a = tune(&cfg, TuningMethod::Default, 4).expect("tuning");
        let b = tune(&cfg, TuningMethod::Default, 4).expect("tuning");
        assert_eq!(a.wips_series(), b.wips_series());
    }

    #[test]
    fn sequential_sampling_tightens_the_interval() {
        let cfg = quick_cfg(Workload::Shopping);
        let default = ClusterConfig::defaults(&cfg.topology);
        let loose = cfg.measure_until_precise(&default, 0.5, 3);
        assert!(loose.samples >= 2);
        assert!(loose.mean > 0.0);
        // A tight target forces more replications (up to the cap).
        let tight = cfg.measure_until_precise(&default, 0.0001, 4);
        assert!(tight.samples >= loose.samples);
        assert!(tight.samples <= 4);
    }

    #[test]
    fn window_stats_and_fraction() {
        let cfg = quick_cfg(Workload::Shopping);
        let run = tune(&cfg, TuningMethod::None, 6).expect("tuning");
        let (mean, sd) = run.window_stats(0, 6);
        assert!(mean > 0.0);
        assert!(sd >= 0.0);
        assert_eq!(run.fraction_above(0, 6, 0.0), 1.0);
        assert_eq!(run.fraction_above(0, 6, f64::INFINITY), 0.0);
    }

    #[test]
    fn builder_matches_field_mutation() {
        let spec = NodeSpec {
            cpu_scale: 0.5,
            ..NodeSpec::hpdc04()
        };
        let built = SessionConfig::new(Topology::single(), Workload::Shopping, 300)
            .plan(IntervalPlan::tiny())
            .base_seed(99)
            .pin_seed(true)
            .markov(true)
            .node_spec(1, spec);
        let mut mutated = SessionConfig::new(Topology::single(), Workload::Shopping, 300);
        mutated.plan = IntervalPlan::tiny();
        mutated.base_seed = 99;
        mutated.pin_seed = true;
        mutated.markov_sessions = true;
        mutated.node_specs = vec![None, Some(spec), None];
        assert_eq!(built.base_seed, mutated.base_seed);
        assert_eq!(built.pin_seed, mutated.pin_seed);
        assert_eq!(built.markov_sessions, mutated.markov_sessions);
        assert_eq!(built.node_specs, mutated.node_specs);
        assert_eq!(built.seed_for(7), mutated.seed_for(7));
    }

    #[test]
    fn observed_tuning_matches_plain_and_traces_every_iteration() {
        let cfg = quick_cfg(Workload::Shopping).pin_seed(true);
        let plain = tune(&cfg, TuningMethod::Default, 5).expect("tuning");

        let mut sink = obs::MemorySink::new();
        let registry = Registry::new();
        let mut observer = SessionObserver::new(Some(&mut sink), Some(&registry));
        let observed =
            tune_observed(&cfg, TuningMethod::Default, 5, &mut observer).expect("tuning");

        // Observation must not perturb the search.
        assert_eq!(plain.wips_series(), observed.wips_series());
        assert_eq!(plain.best_wips, observed.best_wips);

        // One iteration record plus one tuner record per iteration,
        // with the schema fields in order.
        let all = sink.records();
        assert_eq!(all.len(), 10);
        let records: Vec<_> = all.iter().filter(|r| r.kind() == "iteration").collect();
        let tuner_records: Vec<_> = all.iter().filter(|r| r.kind() == "tuner").collect();
        assert_eq!(records.len(), 5);
        assert_eq!(tuner_records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            let keys: Vec<&str> = r.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                &keys[..13],
                &[
                    "method",
                    "iteration",
                    "workload",
                    "seed",
                    "config",
                    "wips",
                    "ci_half",
                    "completed",
                    "failed",
                    "line_wips",
                    "best_wips",
                    "best_iteration",
                    "events",
                ]
            );
            assert_eq!(keys.last().copied(), Some("wall_ms"));
            assert_eq!(r.get("iteration").and_then(|v| v.as_f64()), Some(i as f64));
            assert!(r.get("wips").and_then(|v| v.as_f64()).unwrap() > 0.0);
            assert!(r.get("ci_half").and_then(|v| v.as_f64()).unwrap() > 0.0);
        }
        // best_wips in the last record equals the run's best.
        let last_best = records[4]
            .get("best_wips")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(last_best, observed.best_wips);

        // Tuner records interleave after each iteration and carry the
        // ask/tell v2 measurement fields in order.
        for (i, r) in tuner_records.iter().enumerate() {
            let keys: Vec<&str> = r.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                &keys[..],
                &[
                    "name",
                    "iteration",
                    "batch",
                    "mean",
                    "ci_half",
                    "replications"
                ]
            );
            assert_eq!(r.get("iteration").and_then(|v| v.as_f64()), Some(i as f64));
            assert!(matches!(r.get("name"), Some(obs::Value::Str(s)) if s == "simplex"));
            assert_eq!(r.get("batch").and_then(|v| v.as_f64()), Some(1.0));
            assert!(r.get("ci_half").and_then(|v| v.as_f64()).unwrap() > 0.0);
        }

        // The registry accumulated engine metrics across all runs.
        let snap = registry.snapshot();
        let events = snap
            .counters
            .iter()
            .find(|(n, _)| n == "sim.events")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(events > 0);
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("tuner.proposals"), 5);
        assert_eq!(counter("tuner.batches"), 5);
    }

    #[test]
    fn replication_seeds_are_disjoint_from_iteration_seeds() {
        // Regression: measure_default/measure_until_precise used to run
        // replication r with seed_for(r), so "independent" replications
        // aliased the first tuning iterations of the same session.
        let cfg = quick_cfg(Workload::Shopping).base_seed(1234);
        let reps = 64u32;
        let iter_seeds: std::collections::BTreeSet<u64> =
            (0..reps).map(|i| cfg.seed_for(i)).collect();
        for r in 0..reps {
            assert!(
                !iter_seeds.contains(&cfg.replication_seed_for(r)),
                "replication {r} reuses a tuning-iteration seed"
            );
        }
        // Unpinned replications must also differ from each other.
        let rep_seeds: std::collections::BTreeSet<u64> =
            (0..reps).map(|r| cfg.replication_seed_for(r)).collect();
        assert_eq!(rep_seeds.len(), reps as usize);
        // Pinning still wins: a pinned session runs everything —
        // replications included — on base_seed, keeping pinned
        // baselines bit-equal to pinned iterations.
        let pinned = cfg.clone().pin_seed(true);
        for r in 0..reps {
            assert_eq!(pinned.replication_seed_for(r), pinned.base_seed);
        }
    }

    #[test]
    fn unpinned_measurements_estimate_noise() {
        let cfg = quick_cfg(Workload::Shopping);
        let (mean, sd) = cfg.measure_default(4);
        assert!(mean > 0.0);
        assert!(sd > 0.0, "replications collapsed onto one seed (sd = {sd})");
        // A pinned session collapses that variance by design.
        let (_, pinned_sd) = quick_cfg(Workload::Shopping)
            .pin_seed(true)
            .measure_default(4);
        assert_eq!(pinned_sd, 0.0);
    }

    #[test]
    fn cached_tuning_matches_sequential_bit_for_bit() {
        let plain = tune(&quick_cfg(Workload::Shopping), TuningMethod::Default, 6).expect("tuning");
        let cached =
            quick_cfg(Workload::Shopping).eval_settings(EvalSettings::default().cache(true));
        let run = tune(&cached, TuningMethod::Default, 6).expect("tuning");
        assert_eq!(plain.wips_series(), run.wips_series());
        assert_eq!(plain.best_wips.to_bits(), run.best_wips.to_bits());
        let c = cached.eval.counters();
        assert_eq!(c.hits + c.misses, 6);
    }

    #[test]
    fn speculative_parallel_tuning_matches_sequential_bit_for_bit() {
        let plain = tune(&quick_cfg(Workload::Shopping), TuningMethod::Default, 8).expect("tuning");
        let spec = quick_cfg(Workload::Shopping)
            .eval_settings(EvalSettings::default().cache(true).threads(0));
        let run = tune(&spec, TuningMethod::Default, 8).expect("tuning");
        assert_eq!(plain.wips_series(), run.wips_series());
        assert_eq!(plain.best_wips.to_bits(), run.best_wips.to_bits());
        let c = spec.eval.counters();
        assert!(c.speculated > 0, "speculation never ran");
        assert!(c.hits > 0, "speculation never paid off: {c:?}");
    }

    #[test]
    fn active_engine_emits_one_eval_record() {
        let cfg = quick_cfg(Workload::Shopping).eval_settings(EvalSettings::default().cache(true));
        let mut sink = obs::MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        tune_observed(&cfg, TuningMethod::Default, 3, &mut observer).expect("tuning");
        let records = sink.records();
        assert_eq!(
            records.len(),
            7,
            "3 iteration + 3 tuner records + 1 eval summary"
        );
        let eval = records.last().unwrap();
        assert_eq!(eval.kind(), "eval");
        let keys: Vec<&str> = eval.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "method",
                "iterations",
                "threads",
                "hits",
                "misses",
                "speculated",
                "speculation_dropped",
                "hit_rate"
            ]
        );
        assert_eq!(eval.get("iterations").and_then(|v| v.as_f64()), Some(3.0));
    }

    #[test]
    fn parallel_replications_match_sequential_bit_for_bit() {
        // The unit of parallelism is the full independent replication:
        // fanning a measurement sweep over the shared pool must change
        // wall-clock time only, never a bit of the folded statistics.
        let seq = quick_cfg(Workload::Shopping);
        let (mean_1, sd_1) = seq.measure_default(6);
        for width in [0usize, 2, 8] {
            let par = quick_cfg(Workload::Shopping).replication_threads(width);
            let (mean_w, sd_w) = par.measure_default(6);
            assert_eq!(mean_1.to_bits(), mean_w.to_bits(), "width {width}");
            assert_eq!(sd_1.to_bits(), sd_w.to_bits(), "width {width}");
        }
        let default = ClusterConfig::defaults(&seq.topology);
        let ci_1 = seq.measure_until_precise(&default, 0.05, 6);
        for width in [2usize, 8] {
            let par = quick_cfg(Workload::Shopping).replication_threads(width);
            let ci_w = par.measure_until_precise(&default, 0.05, 6);
            assert_eq!(ci_1.mean.to_bits(), ci_w.mean.to_bits(), "width {width}");
            assert_eq!(
                ci_1.half_width.to_bits(),
                ci_w.half_width.to_bits(),
                "width {width}"
            );
            assert_eq!(ci_1.samples, ci_w.samples, "width {width}");
        }
    }

    #[test]
    fn trace_records_survive_jsonl_roundtrip_shape() {
        let cfg = quick_cfg(Workload::Browsing).pin_seed(true);
        let mut sink = obs::MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        tune_observed(&cfg, TuningMethod::None, 2, &mut observer).expect("tuning");
        for r in sink.records() {
            let line = r.to_json();
            assert!(line.starts_with("{\"kind\":\"iteration\""));
            assert!(line.ends_with('}'));
            // None method carries no tuner diagnostics.
            assert!(r.fields().iter().all(|(k, _)| !k.starts_with("tuner_")));
        }
    }
}
