//! One tuning iteration = one self-contained simulation run.
//!
//! The paper's harness restarts the servers between iterations anyway (so
//! configuration-file parameters take effect), so each iteration here is an
//! independent DES run: build the world from (topology, config, workload),
//! warm up, measure, cool down, and report WIPS plus per-node resource
//! utilizations. Runs are deterministic in the scenario seed; the tuning
//! session varies the seed per iteration to model real measurement noise.

use crate::model::{start_simulation, ClusterScenario};
use crate::node::NodeUtilization;
use simkit::engine::StopReason;
use simkit::time::SimTime;
use std::fmt;
use tpcw::metrics::IterationMetrics;

/// Why an evaluation could not produce a measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The scenario failed cross-field validation.
    InvalidScenario(String),
    /// The simulation went idle before warmup ended (model bug).
    IdleDuringWarmup,
    /// The simulation went idle during measurement (model bug).
    IdleDuringMeasurement,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            EvalError::IdleDuringWarmup => {
                write!(
                    f,
                    "cluster went idle during warmup — no browsers scheduled?"
                )
            }
            EvalError::IdleDuringMeasurement => {
                write!(f, "cluster went idle during measurement")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Result of one iteration.
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// WIPS and companion metrics over the measurement window.
    pub metrics: IterationMetrics,
    /// Resource utilization per node, measured over the whole run.
    pub node_utilization: Vec<NodeUtilization>,
    /// Requests completed across all phases.
    pub total_done: u64,
    /// Requests refused at admission across all phases.
    pub total_failed: u64,
    /// Per-work-line WIPS (single entry when unpartitioned).
    pub line_wips: Vec<f64>,
    /// Events executed (simulation-cost diagnostics).
    pub events: u64,
}

/// Execute one iteration of `scenario`, shared by the checked and
/// panicking entry points. `registry` turns on metric publication.
fn run_iteration_inner(
    scenario: &ClusterScenario,
    registry: Option<&obs::Registry>,
) -> Result<IterationOutcome, EvalError> {
    if let Err(msg) = scenario.validate() {
        return Err(EvalError::InvalidScenario(msg));
    }
    let mut sim = start_simulation(scenario);
    let horizon = SimTime::ZERO + scenario.plan.total();
    // Reset utilization windows after warmup so reported utilizations
    // reflect the steady state.
    let warm_end = SimTime::ZERO + scenario.plan.warmup;
    let reason = sim.run_until(warm_end);
    if reason != StopReason::HorizonReached {
        return Err(EvalError::IdleDuringWarmup);
    }
    let now = sim.now();
    for node in &mut sim.model_mut().nodes {
        node.reset_windows(now);
    }
    let reason = sim.run_until(horizon);
    if reason != StopReason::HorizonReached {
        return Err(EvalError::IdleDuringMeasurement);
    }
    let events = sim.events_executed();
    let end = sim.now();
    if let Some(registry) = registry {
        sim.publish_metrics(registry, "sim");
        publish_node_metrics(sim.model(), registry, end);
    }
    let model = sim.model();
    Ok(IterationOutcome {
        metrics: model.metrics.summarise(),
        node_utilization: model.utilizations(end),
        total_done: model.total_done(),
        total_failed: model.total_failed(),
        line_wips: model.line_wips(),
        events,
    })
}

/// Execute one iteration of `scenario`.
///
/// Panics if the simulation deadlocks before the horizon (that would be a
/// model bug, not a configuration issue — bad configurations are slow, not
/// stuck, because browsers always come back after think time). Resilient
/// callers use [`run_iteration_checked`] instead.
pub fn run_iteration(scenario: &ClusterScenario) -> IterationOutcome {
    match run_iteration_inner(scenario, None) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Execute one iteration, returning an error instead of panicking when
/// the scenario is invalid or the simulation stalls.
pub fn run_iteration_checked(scenario: &ClusterScenario) -> Result<IterationOutcome, EvalError> {
    run_iteration_inner(scenario, None)
}

/// [`run_iteration_observed`] with error returns instead of panics.
pub fn run_iteration_checked_observed(
    scenario: &ClusterScenario,
    registry: &obs::Registry,
) -> Result<IterationOutcome, EvalError> {
    run_iteration_inner(scenario, Some(registry))
}

/// Execute one iteration and publish per-tier resource metrics into
/// `registry`: CPU/disk/NIC utilization and queue depth per node, cache
/// hit ratios on the proxy tier, engine event counts, and cluster-level
/// completion counters. Metric names are `cluster.n<i>.<tier>.<resource>.*`
/// so a session-long registry keeps per-node series distinct.
pub fn run_iteration_observed(
    scenario: &ClusterScenario,
    registry: &obs::Registry,
) -> IterationOutcome {
    match run_iteration_inner(scenario, Some(registry)) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Publish per-node resource metrics for a finished run.
fn publish_node_metrics(
    model: &crate::model::ClusterModel,
    registry: &obs::Registry,
    end: SimTime,
) {
    for (i, node) in model.nodes.iter().enumerate() {
        let tier = node.role().name();
        let prefix = format!("cluster.n{i}.{tier}");
        node.cpu
            .publish_metrics(registry, &format!("{prefix}.cpu"), end);
        node.disk
            .publish_metrics(registry, &format!("{prefix}.disk"), end);
        node.nic
            .publish_metrics(registry, &format!("{prefix}.nic"), end);
        if let Some(proxy) = node.proxy() {
            registry
                .gauge(&format!("{prefix}.cache.mem_hit_ratio"))
                .set(proxy.mem_store().hit_ratio());
            registry
                .gauge(&format!("{prefix}.cache.disk_hit_ratio"))
                .set(proxy.disk_store().hit_ratio());
            registry
                .counter(&format!("{prefix}.cache.forwards"))
                .add(proxy.forwards());
        }
        if let Some(app) = node.app() {
            app.http_pool
                .publish_metrics(registry, &format!("{prefix}.http_pool"), end);
            app.ajp_pool
                .publish_metrics(registry, &format!("{prefix}.ajp_pool"), end);
        }
        if let Some(db) = node.db() {
            db.conn_pool
                .publish_metrics(registry, &format!("{prefix}.conn_pool"), end);
            db.run_slots
                .publish_metrics(registry, &format!("{prefix}.run_slots"), end);
        }
    }
    registry.counter("cluster.done").add(model.total_done());
    registry.counter("cluster.failed").add(model.total_failed());
    registry
        .histogram("cluster.wips")
        .record(model.metrics.wips());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LoadModel;
    use tpcw::metrics::IntervalPlan;
    use tpcw::mix::Workload;

    fn tiny_scenario(workload: Workload, seed: u64) -> ClusterScenario {
        let mut s = ClusterScenario::single(workload, 200, IntervalPlan::tiny(), seed);
        s.scale = tpcw::scale::CatalogScale::hpdc04();
        s
    }

    #[test]
    fn simulation_completes_and_produces_throughput() {
        let out = run_iteration(&tiny_scenario(Workload::Shopping, 1));
        assert!(out.metrics.wips > 1.0, "wips {}", out.metrics.wips);
        assert!(out.total_done > 0);
        assert!(out.events > 1_000);
        assert_eq!(out.node_utilization.len(), 3);
    }

    #[test]
    fn observed_run_matches_plain_and_publishes_metrics() {
        let s = tiny_scenario(Workload::Shopping, 1);
        let plain = run_iteration(&s);
        let reg = obs::Registry::new();
        let observed = run_iteration_observed(&s, &reg);
        // Observation must not perturb the simulation.
        assert_eq!(plain.metrics.completed, observed.metrics.completed);
        assert_eq!(plain.events, observed.events);
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(counter("sim.events"), observed.events);
        assert_eq!(counter("cluster.done"), observed.total_done);
        assert!(snap
            .gauges
            .iter()
            .any(|(k, v)| k == "cluster.n0.proxy.cache.mem_hit_ratio" && (0.0..=1.0).contains(v)));
        assert!(snap
            .gauges
            .iter()
            .any(|(k, v)| k == "cluster.n2.db.cpu.utilization" && *v > 0.0));
        assert!(snap
            .gauges
            .iter()
            .any(|(k, v)| k == "cluster.n2.db.conn_pool.mean_wait_s" && *v >= 0.0));
        assert!(snap
            .hists
            .iter()
            .any(|(k, h)| k == "cluster.wips" && h.count == 1));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = run_iteration(&tiny_scenario(Workload::Browsing, 7));
        let b = run_iteration(&tiny_scenario(Workload::Browsing, 7));
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.total_done, b.total_done);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_vary_slightly() {
        let a = run_iteration(&tiny_scenario(Workload::Shopping, 1));
        let b = run_iteration(&tiny_scenario(Workload::Shopping, 2));
        // Same workload, different stochastic path: close but not equal.
        assert_ne!(a.metrics.completed, b.metrics.completed);
        let rel = (a.metrics.wips - b.metrics.wips).abs() / a.metrics.wips;
        assert!(rel < 0.25, "seeds diverge too much: {rel}");
    }

    #[test]
    fn cohort_runs_are_deterministic() {
        let cohort = |seed| {
            let mut s = tiny_scenario(Workload::Shopping, seed);
            s.browsers.population = 5_000;
            s.load_model = LoadModel::Cohort { bins: 64 };
            s
        };
        let a = run_iteration(&cohort(7));
        let b = run_iteration(&cohort(7));
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.total_done, b.total_done);
        assert_eq!(a.total_failed, b.total_failed);
        assert_eq!(a.events, b.events);
        // A different seed takes a different stochastic path.
        let c = run_iteration(&cohort(8));
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn cohort_batches_events_and_counts_browsers() {
        let mut pb = tiny_scenario(Workload::Shopping, 5);
        pb.browsers.population = 5_000;
        let mut co = pb.clone();
        co.load_model = LoadModel::Cohort { bins: 64 };
        let a = run_iteration(&pb);
        let b = run_iteration(&co);
        // The scaling win: far fewer calendar-queue events for the same
        // population.
        assert!(
            (b.events as f64) < (a.events as f64) / 3.0,
            "cohort must batch events: per-browser {} vs cohort {}",
            a.events,
            b.events
        );
        // Accounting stays in browser units: completions are weighted by
        // token weight, so throughput is the same order of magnitude.
        assert!(b.metrics.completed > 0);
        let rel = (b.metrics.wips - a.metrics.wips).abs() / a.metrics.wips;
        assert!(
            rel < 0.30,
            "wips diverged: {} vs {} ({rel})",
            a.metrics.wips,
            b.metrics.wips
        );
    }

    #[test]
    fn cohort_at_weight_one_only_quantises_think_times() {
        // Below one token per browser the cohort model degenerates to
        // per-browser with binned think times: same entity count, same
        // demand, nearly identical throughput.
        let pb = tiny_scenario(Workload::Shopping, 11);
        let mut co = pb.clone();
        co.load_model = LoadModel::Cohort { bins: 64 };
        let a = run_iteration(&pb);
        let b = run_iteration(&co);
        let rel = (b.metrics.wips - a.metrics.wips).abs() / a.metrics.wips;
        assert!(rel < 0.15, "wips diverged at weight 1: {rel}");
    }

    #[test]
    fn browse_heavy_workload_touches_db_less() {
        let b = run_iteration(&tiny_scenario(Workload::Browsing, 3));
        let o = run_iteration(&tiny_scenario(Workload::Ordering, 3));
        // DB node is index 2 in a single topology.
        assert!(
            o.node_utilization[2].cpu > b.node_utilization[2].cpu,
            "ordering must load the db more: {:?} vs {:?}",
            o.node_utilization[2],
            b.node_utilization[2]
        );
    }

    #[test]
    fn work_lines_split_throughput() {
        use crate::config::Topology;
        use crate::ClusterConfig;
        let topology = Topology::tiers(2, 2, 2).unwrap();
        let mut s = ClusterScenario::single(Workload::Shopping, 400, IntervalPlan::tiny(), 9);
        s.config = ClusterConfig::defaults(&topology);
        s.topology = topology;
        s.lines = Some(vec![vec![0, 2, 4], vec![1, 3, 5]]);
        let out = run_iteration(&s);
        assert_eq!(out.line_wips.len(), 2);
        let total: f64 = out.line_wips.iter().sum();
        assert!(
            (total - out.metrics.wips).abs() < 1e-6,
            "line sum {total} vs wips {}",
            out.metrics.wips
        );
        // Browsers split evenly, so the two lines carry similar load.
        let ratio = out.line_wips[0] / out.line_wips[1];
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn least_connections_balances_like_round_robin_when_homogeneous() {
        use crate::config::Topology;
        use crate::model::LoadBalancing;
        use crate::ClusterConfig;
        let topology = Topology::tiers(2, 2, 1).unwrap();
        let mut rr = ClusterScenario::single(Workload::Shopping, 400, IntervalPlan::tiny(), 13);
        rr.config = ClusterConfig::defaults(&topology);
        rr.topology = topology;
        let mut lc = rr.clone();
        lc.load_balancing = LoadBalancing::LeastConnections;
        let a = run_iteration(&rr);
        let b = run_iteration(&lc);
        // Homogeneous nodes: both policies land near the same throughput,
        // and least-connections keeps the two proxies evenly used.
        let rel = (a.metrics.wips - b.metrics.wips).abs() / a.metrics.wips;
        assert!(rel < 0.1, "rr {} vs lc {}", a.metrics.wips, b.metrics.wips);
        let u = &b.node_utilization;
        let spread = (u[0].disk - u[1].disk).abs();
        assert!(spread < 0.15, "proxy disk imbalance {spread}");
    }

    #[test]
    fn degraded_node_shows_in_utilization_and_least_connections_shields_it() {
        use crate::config::Topology;
        use crate::model::LoadBalancing;
        use crate::ClusterConfig;
        let topology = Topology::tiers(1, 2, 1).unwrap();
        let mut s = ClusterScenario::single(Workload::Ordering, 500, IntervalPlan::tiny(), 17);
        s.config = ClusterConfig::defaults(&topology);
        s.topology = topology;
        s.degrade_cpu(1, 0.25); // first app node at quarter speed
        let rr = run_iteration(&s);
        // The slow node runs proportionally hotter than its healthy twin.
        assert!(
            rr.node_utilization[1].cpu > rr.node_utilization[2].cpu * 1.5,
            "degraded {:?} vs healthy {:?}",
            rr.node_utilization[1],
            rr.node_utilization[2]
        );
        // Least-connections routes around the slow node and wins.
        let mut lc = s.clone();
        lc.load_balancing = LoadBalancing::LeastConnections;
        let out = run_iteration(&lc);
        assert!(
            out.metrics.wips >= rr.metrics.wips,
            "lc {} vs rr {}",
            out.metrics.wips,
            rr.metrics.wips
        );
    }

    #[test]
    fn checked_run_matches_panicking_run() {
        let s = tiny_scenario(Workload::Shopping, 1);
        let plain = run_iteration(&s);
        let checked = run_iteration_checked(&s).expect("valid scenario");
        assert_eq!(plain.metrics.completed, checked.metrics.completed);
        assert_eq!(plain.events, checked.events);
    }

    #[test]
    fn checked_run_reports_invalid_scenario() {
        let mut s = tiny_scenario(Workload::Shopping, 1);
        s.browsers.population = 0;
        match run_iteration_checked(&s) {
            Err(EvalError::InvalidScenario(msg)) => assert!(msg.contains("browsers")),
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn trivial_fault_timeline_is_byte_identical() {
        use faults::{Health, HealthTimeline};
        let plain = run_iteration(&tiny_scenario(Workload::Shopping, 21));
        let mut s = tiny_scenario(Workload::Shopping, 21);
        s.faults = Some(HealthTimeline {
            initial: vec![Health::Up; 3],
            changes: Vec::new(),
        });
        let faulty = run_iteration(&s);
        assert_eq!(plain.metrics.completed, faulty.metrics.completed);
        assert_eq!(plain.events, faulty.events);
        assert_eq!(plain.total_failed, faulty.total_failed);
    }

    #[test]
    fn down_app_node_sheds_load_onto_its_twin() {
        use crate::config::Topology;
        use crate::ClusterConfig;
        use faults::{Health, HealthTimeline};
        let topology = Topology::tiers(1, 2, 1).unwrap();
        let mut s = ClusterScenario::single(Workload::Shopping, 400, IntervalPlan::tiny(), 23);
        s.config = ClusterConfig::defaults(&topology);
        s.topology = topology;
        let healthy = run_iteration(&s);
        let mut initial = vec![Health::Up; 4];
        initial[1] = Health::Down; // first app node dark from the start
        s.faults = Some(HealthTimeline {
            initial,
            changes: Vec::new(),
        });
        let wounded = run_iteration(&s);
        // All app traffic lands on node 2; node 1 stays idle.
        assert!(
            wounded.node_utilization[2].cpu > wounded.node_utilization[1].cpu,
            "down {:?} vs survivor {:?}",
            wounded.node_utilization[1],
            wounded.node_utilization[2]
        );
        assert!(wounded.node_utilization[1].cpu < 0.05);
        // Losing half the app tier must not *gain* throughput (small
        // stochastic jitter aside), and the survivor still serves.
        assert!(
            wounded.metrics.wips <= healthy.metrics.wips * 1.05,
            "wounded {} vs healthy {}",
            wounded.metrics.wips,
            healthy.metrics.wips
        );
        assert!(wounded.metrics.wips > 0.0, "survivor still serves");
    }

    #[test]
    fn mid_run_crash_fires_at_its_offset() {
        use crate::config::Topology;
        use crate::ClusterConfig;
        use faults::{Health, HealthChange, HealthTimeline};
        use simkit::time::SimDuration;
        let topology = Topology::tiers(1, 2, 1).unwrap();
        let mut s = ClusterScenario::single(Workload::Shopping, 400, IntervalPlan::tiny(), 29);
        s.config = ClusterConfig::defaults(&topology);
        s.topology = topology;
        s.faults = Some(HealthTimeline {
            initial: vec![Health::Up; 4],
            changes: vec![HealthChange {
                after: SimDuration::from_secs(1),
                node: 1,
                health: Health::Down,
            }],
        });
        let mut sim = crate::model::start_simulation(&s);
        sim.run_until(SimTime::from_millis(500));
        assert!(!sim.model().healths()[1].is_down(), "not yet crashed");
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.model().healths()[1].is_down(), "crash applied");
    }

    #[test]
    fn whole_proxy_tier_down_refuses_instead_of_stalling() {
        use faults::{Health, HealthTimeline};
        let mut s = tiny_scenario(Workload::Shopping, 31);
        s.faults = Some(HealthTimeline {
            initial: vec![Health::Down, Health::Up, Health::Up],
            changes: Vec::new(),
        });
        // The single proxy is down: every interaction is refused, the sim
        // still reaches its horizon (browsers keep thinking), no panic.
        let out = run_iteration(&s);
        assert_eq!(out.total_done, 0);
        assert!(out.total_failed > 0);
        assert_eq!(out.metrics.wips, 0.0);
    }

    #[test]
    fn markov_sessions_match_iid_throughput() {
        // Same stationary interaction frequencies => statistically similar
        // throughput, different per-session structure.
        let mut iid = tiny_scenario(Workload::Shopping, 11);
        iid.browsers.population = 400;
        let mut markov = iid.clone();
        markov.markov_sessions = true;
        let a = run_iteration(&iid);
        let b = run_iteration(&markov);
        assert!(b.metrics.wips > 0.0);
        let rel = (a.metrics.wips - b.metrics.wips).abs() / a.metrics.wips;
        assert!(
            rel < 0.15,
            "iid {} vs markov {}",
            a.metrics.wips,
            b.metrics.wips
        );
        // Ordering funnel still completes under sessions.
        assert!(b.metrics.order_completed > 0);
    }

    #[test]
    fn unpartitioned_run_reports_one_line() {
        let out = run_iteration(&tiny_scenario(Workload::Browsing, 4));
        assert_eq!(out.line_wips.len(), 1);
        assert!((out.line_wips[0] - out.metrics.wips).abs() < 1e-6);
    }

    #[test]
    fn order_pages_are_slower_than_cached_browse_pages() {
        use tpcw::interaction::InteractionClass;
        let mut s = tiny_scenario(Workload::Shopping, 19);
        s.browsers.population = 400;
        let mut sim = crate::model::start_simulation(&s);
        sim.run_until(simkit::time::SimTime::ZERO + s.plan.total());
        let m = &sim.model().metrics;
        let browse = m.mean_response_of_class(InteractionClass::Browse);
        let order = m.mean_response_of_class(InteractionClass::Order);
        assert!(
            order > browse,
            "order pages must be slower: {order:.4}s vs {browse:.4}s"
        );
    }

    #[test]
    fn all_interactions_complete_eventually() {
        let out = run_iteration(&tiny_scenario(Workload::Ordering, 5));
        // Order-heavy mix: both classes must complete.
        assert!(out.metrics.browse_completed > 0);
        assert!(out.metrics.order_completed > 0);
    }
}
