//! Fault-tolerant tuning sessions: a composable resilience policy stack
//! (fallback ∘ breaker ∘ retry ∘ timeout ∘ bulkhead) plus
//! failure-driven reconfiguration.
//!
//! A resilient session is the §III duplication session — the same
//! session loop as [`crate::session::tune`] with
//! [`harmony::strategy::TuningMethod::Duplication`] — plus a resilience
//! component that hardens each evaluation against the faults a
//! [`faults::FaultPlan`] injects. Without faults it returns what plain
//! duplication tuning returns, bit for bit. Iteration `i` covers simulated
//! time `[i·plan.total(), (i+1)·plan.total())` of the fault schedule
//! ([`faults::FaultClock::window_of`]). Each iteration's evaluation runs
//! through a [`resilience::Stack`]:
//!
//! 1. faults landing in the window are traced (`fault` records) and
//!    applied inside the DES via the scenario's health timeline;
//! 2. a sample invalidated by a crash during the *measurement* phase (or
//!    one that measured zero throughput) is retried by the
//!    [`resilience::Retry`] layer with bounded, jittered backoff — the
//!    retry sees the post-crash steady state, as a real re-measurement
//!    would;
//! 3. a sample whose measured WIPS deviates wildly from its completion
//!    count (a measurement-noise spike) is re-measured through the
//!    [`OutlierGate`] inside the evaluation closure;
//! 4. an attempt whose simulated time (window plus any stalled seconds)
//!    exceeds the optional [`resilience::Timeout`] budget is invalidated
//!    and retried like any other bad sample;
//! 5. a configuration that exhausts its retry budget is reported to
//!    Harmony as worthless (0.0 — the proposal is always answered; a
//!    valid sample reaches the tuner as the same typed measurement, with
//!    its Poisson confidence interval, that plain tuning reports) and
//!    counted against the per-configuration [`CircuitBreaker`] layer; a
//!    blacklisted configuration is rejected without re-measuring (and,
//!    when `breaker_half_open_after` is set, periodically probed);
//! 6. with `degrade_to_best`, an iteration that would otherwise fail
//!    outright degrades to the best-known sample ([`resilience::Fallback`],
//!    `degraded` trace records) instead;
//! 7. a crash triggers the §IV `decide()` path over the *live* nodes; if
//!    the cost model declines, a spare node is pulled directly into the
//!    wounded tier so the cluster heals anyway.
//!
//! Retry delays are simulated time (deterministic jitter from the fault
//! seed); they are reported in `recovery` trace records but do not shift
//! the window mapping, which stays iteration-indexed. The whole policy
//! stack checkpoints bit-exactly (per-delta `policy` state), so a killed
//! session resumes mid-policy without re-burning RNG draws. Checkpoint
//! directories written before resilient journals carried `completed`
//! (and tuners got typed measurements) are refused by the fingerprint.

use crate::checkpoint;
use crate::reconfigure::ReconfigEvent;
use crate::session::{
    ckerr, config_summary, drive_tuning, Evaluation, IterationRecord, SessionConfig, SessionError,
    SessionObserver,
};
use cluster::config::{ClusterConfig, Role, Topology};
use cluster::model::ClusterScenario;
use cluster::runner::IterationOutcome;
use detect::{Detector, DetectorConfig, NodeState, WindowReport};
use faults::{FaultClock, FaultEvent, FaultInjector, FaultPlan, HealthTimeline, WindowFaults};
use harmony::monitor::UtilizationSnapshot;
use harmony::reconfig::{decide, CostModel, NodeCostInputs, NodeReport, Thresholds};
use harmony::strategy::TuningMethod;
use obs::Registry;
use persist::{Checkpointable, PersistError, State};
use resilience::{
    Breaker, Bulkhead, CircuitBreaker, Ctx, Event, Fallback, Outcome, OutlierGate, Retry,
    RetryPolicy, Sample, Stack, StateCodec, Timeout,
};
use simkit::time::{SimDuration, SimTime};
use std::borrow::Cow;

/// Policy knobs of a resilient session. The defaults reduce the optional
/// layers (timeout, bulkhead, half-open probing, degradation) to the
/// identity, reproducing the original retry+breaker behavior exactly.
#[derive(Debug, Clone)]
pub struct ResilienceSettings {
    /// Bounded retry with backoff for invalid samples.
    pub retry: RetryPolicy,
    /// Re-measurement gate for noise-spiked samples.
    pub gate: OutlierGate,
    /// Failed evaluations of one configuration before it is blacklisted.
    pub breaker_threshold: u32,
    /// Probe a blacklisted configuration after this many refused
    /// evaluations (`None`: blacklists are permanent).
    pub breaker_half_open_after: Option<u32>,
    /// Per-attempt simulated-time budget in seconds (`None`: unlimited).
    /// An attempt is charged the measurement window plus any stalled
    /// seconds the fault plan injects into it.
    pub timeout_s: Option<f64>,
    /// Cap on concurrently in-flight evaluations (`None`: unbounded).
    /// The session's speculative-evaluation width is not clamped by it;
    /// the chaos and detection experiment drivers clamp their grid
    /// fan-out with it, via [`Bulkhead::clamp_threads`].
    pub bulkhead: Option<u32>,
    /// Substitute the best-known sample when an iteration fails outright
    /// (emits `degraded` trace records; the tuner still sees 0.0).
    pub degrade_to_best: bool,
    /// Pull a spare node into a tier that lost one to a crash.
    pub reconfigure_on_crash: bool,
    /// Drive reconfiguration from *detected* membership instead of the
    /// injector's health oracle: heartbeats → φ-accrual suspicion →
    /// hysteretic membership ([`detect::Detector`]). `None` keeps the
    /// historical oracle behavior bit-exactly.
    pub detector: Option<DetectorConfig>,
    /// Utilization thresholds for the `decide()` attempt.
    pub thresholds: Thresholds,
    /// Cost model for the `decide()` attempt.
    pub cost_model: CostModel,
}

impl Default for ResilienceSettings {
    fn default() -> Self {
        ResilienceSettings {
            retry: RetryPolicy::default(),
            gate: OutlierGate::default(),
            breaker_threshold: 3,
            breaker_half_open_after: None,
            timeout_s: None,
            bulkhead: None,
            degrade_to_best: false,
            reconfigure_on_crash: true,
            detector: None,
            thresholds: Thresholds::default(),
            cost_model: CostModel::default(),
        }
    }
}

/// One resilience action taken during the run (mirrors the `recovery`
/// and `degraded` trace records).
#[derive(Debug, Clone)]
pub struct RecoveryAction {
    pub iteration: u32,
    /// `retry`, `remeasure`, `timeout`, `breaker_open`, `breaker_skip`,
    /// `breaker_probe`, `bulkhead_skip`, `degraded`, `reconfig`.
    pub action: &'static str,
    pub attempt: u32,
    /// Simulated delay, seconds (backoff for retries, elapsed budget
    /// overrun for timeouts, 0 otherwise).
    pub delay_s: f64,
    /// WIPS of the sample that triggered or resolved the action.
    pub wips: f64,
}

/// One detected membership transition, scored against the injector's
/// ground truth. Mirrors the `membership` trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionEvent {
    pub iteration: u32,
    pub node: usize,
    /// Simulated time of the assessment tick that decided the transition.
    pub at_s: f64,
    /// Membership state names (`up` / `suspect` / `down`).
    pub from: &'static str,
    pub to: &'static str,
    /// The φ that triggered the assessment.
    pub phi: f64,
    /// Whether the injector's ground truth had the node crashed at the
    /// transition instant (a `down` confirmation with `false` here is a
    /// false positive — typically a long stall believed dead).
    pub truth_crashed: bool,
    /// For a true-positive `down` confirmation: seconds from the crash to
    /// the confirmation. `-1.0` when not applicable.
    pub latency_s: f64,
}

impl DetectionEvent {
    /// The transition confirmed a node `Down`.
    pub fn is_down(&self) -> bool {
        self.to == "down"
    }

    /// A `Down` confirmation the ground truth contradicts.
    pub fn is_false_positive(&self) -> bool {
        self.is_down() && !self.truth_crashed
    }
}

/// Result of a resilient tuning session.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    pub records: Vec<IterationRecord>,
    /// Fault events injected, tagged with the iteration they hit.
    pub faults: Vec<(u32, FaultEvent)>,
    /// Resilience actions taken, in order.
    pub recoveries: Vec<RecoveryAction>,
    /// Failure-driven node moves.
    pub reconfigs: Vec<ReconfigEvent>,
    /// Detected membership transitions (empty unless
    /// [`ResilienceSettings::detector`] is set).
    pub detections: Vec<DetectionEvent>,
    pub final_topology: Topology,
    pub best_wips: f64,
}

impl ResilientRun {
    /// Per-iteration WIPS series.
    pub fn wips_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.wips).collect()
    }

    /// Best WIPS seen strictly before `iteration`.
    pub fn running_best_before(&self, iteration: u32) -> f64 {
        self.records
            .iter()
            .filter(|r| r.iteration < iteration)
            .map(|r| r.wips)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Iteration of the first crash, if the plan had one.
    pub fn first_crash_iteration(&self) -> Option<u32> {
        self.faults
            .iter()
            .find(|(_, e)| matches!(e.kind, faults::FaultKind::Crash))
            .map(|(i, _)| *i)
    }

    /// `Down` confirmations the ground truth contradicts.
    pub fn detection_false_positives(&self) -> usize {
        self.detections
            .iter()
            .filter(|d| d.is_false_positive())
            .count()
    }

    /// Mean seconds from a crash to its `Down` confirmation, over the
    /// true-positive detections (`None`: no true positive was scored).
    pub fn mean_detection_latency_s(&self) -> Option<f64> {
        let lat: Vec<f64> = self
            .detections
            .iter()
            .filter(|d| d.is_down() && d.truth_crashed && d.latency_s >= 0.0)
            .map(|d| d.latency_s)
            .collect();
        (!lat.is_empty()).then(|| lat.iter().sum::<f64>() / lat.len() as f64)
    }

    /// How many iterations after the first crash WIPS first reached
    /// `frac` of the pre-crash running best (`None`: never, or no crash).
    pub fn recovery_iterations(&self, frac: f64) -> Option<u32> {
        let crash = self.first_crash_iteration()?;
        let target = self.running_best_before(crash) * frac;
        self.records
            .iter()
            .filter(|r| r.iteration > crash)
            .find(|r| r.wips >= target)
            .map(|r| r.iteration - crash)
    }
}

/// The domain value flowing through the policy stack: the configuration
/// under test and its measured outcome. Round-trips through
/// [`persist::State`] so the fallback's best-known sample survives
/// kill-and-resume bit-exactly.
#[derive(Debug, Clone)]
struct EvalSample {
    config: ClusterConfig,
    out: IterationOutcome,
}

impl StateCodec for EvalSample {
    fn to_state(&self) -> State {
        State::map()
            .with("config", checkpoint::config_state(&self.config))
            .with("outcome", crate::eval::outcome_state(&self.out))
    }

    fn from_state(state: &State) -> Result<Self, PersistError> {
        Ok(EvalSample {
            config: checkpoint::config_from_state(state.require("config")?)?,
            out: crate::eval::outcome_from_state(state.require("outcome")?)?,
        })
    }
}

/// The session's policy composition, outermost first: fallback ∘ breaker
/// ∘ retry ∘ timeout ∘ bulkhead. The retry jitter stream is seeded from
/// the fault seed exactly as before, so fault-plan sessions keep their
/// historical delay sequences.
fn build_policy_stack(base: &SessionConfig, settings: &ResilienceSettings) -> Stack<EvalSample> {
    Stack::new()
        .layer(Fallback::new(settings.degrade_to_best))
        .layer(Breaker::new(
            CircuitBreaker::new(settings.breaker_threshold)
                .half_open_after(settings.breaker_half_open_after),
        ))
        .layer(Retry::new(settings.retry, base.fault_seed ^ 0xBACC_0FF5))
        .layer(Timeout::new(
            settings.timeout_s.map(SimDuration::from_secs_f64),
        ))
        .layer(Bulkhead::new(settings.bulkhead))
}

/// Run a resilient duplication-tuning session under a fault plan.
pub fn run_resilient_session(
    base: &SessionConfig,
    settings: &ResilienceSettings,
    iterations: u32,
) -> Result<ResilientRun, SessionError> {
    run_resilient_session_observed(base, settings, iterations, &mut SessionObserver::none())
}

/// [`run_resilient_session`] with trace/metrics observation: `iteration`
/// and `tuner` records as in plain tuning, plus `fault`, `recovery`,
/// `degraded` (and, in detector mode, `suspicion`/`membership`) records
/// and the `faults.injected` / `resilience.*` / `detector.*` counters.
pub fn run_resilient_session_observed(
    base: &SessionConfig,
    settings: &ResilienceSettings,
    iterations: u32,
    observer: &mut SessionObserver,
) -> Result<ResilientRun, SessionError> {
    let mut resilience = Resilience::new(base, settings);
    let run = drive_tuning(
        base,
        TuningMethod::Duplication,
        iterations,
        Some(&mut resilience),
        observer,
    )?;
    Ok(ResilientRun {
        records: run.records,
        faults: resilience.faults,
        recoveries: resilience.recoveries,
        reconfigs: resilience.reconfigs,
        detections: resilience.detections,
        final_topology: resilience.live.topology.clone(),
        best_wips: run.best_wips.max(0.0),
    })
}

/// What a resilient session adds to the session loop
/// ([`crate::session::drive_tuning`]): the policy stack, the fault
/// injector, the failure detector, the live topology, and the logs of
/// what they did. The loop calls [`Resilience::evaluate`] in place of a
/// plain evaluation, [`Resilience::heal`] once the iteration is
/// recorded, and hands every journal delta and snapshot through
/// [`Resilience::journal`] / [`Resilience::snapshot`].
pub(crate) struct Resilience<'a> {
    settings: &'a ResilienceSettings,
    /// The session environment on the live topology: borrowed until a
    /// reconfiguration first moves a node.
    live: Cow<'a, SessionConfig>,
    /// One injector for the whole session: the fault schedule is a pure
    /// function of (plan, seed), and the node count never changes across
    /// reassigns.
    injector: Option<FaultInjector>,
    detector: Option<Detector>,
    stack: Stack<EvalSample>,
    faults: Vec<(u32, FaultEvent)>,
    recoveries: Vec<RecoveryAction>,
    reconfigs: Vec<ReconfigEvent>,
    detections: Vec<DetectionEvent>,
    /// The current iteration's window, from `evaluate` to `journal`.
    window: Window,
}

/// Fault activity and detector verdict of one iteration's window, and
/// where the iteration's entries start in each log.
#[derive(Default)]
struct Window {
    faults: Option<WindowFaults>,
    report: Option<WindowReport>,
    end: SimTime,
    recoveries: usize,
    reconfigs: usize,
    detections: usize,
}

impl<'a> Resilience<'a> {
    fn new(base: &'a SessionConfig, settings: &'a ResilienceSettings) -> Self {
        Resilience {
            settings,
            live: Cow::Borrowed(base),
            injector: base
                .fault_plan
                .as_ref()
                .map(|p| FaultInjector::new(p, base.fault_seed)),
            detector: settings
                .detector
                .map(|dc| Detector::new(dc, base.topology.len(), base.fault_seed)),
            stack: build_policy_stack(base, settings),
            faults: Vec::new(),
            recoveries: Vec::new(),
            reconfigs: Vec::new(),
            detections: Vec::new(),
            window: Window::default(),
        }
    }

    /// The session environment on the live topology.
    pub(crate) fn config(&self) -> &SessionConfig {
        &self.live
    }

    /// The checkpoint fingerprint's session kind. The `typed` tag marks
    /// the journal layout whose deltas carry `completed`, so tuners are
    /// fed typed measurements on replay; directories written before it
    /// fail the fingerprint check instead of resuming under a different
    /// tuner input.
    pub(crate) fn fingerprint_kind(&self) -> String {
        format!("resilient/typed/{:?}", self.settings)
    }

    /// Evaluate iteration `i`'s proposal: trace the faults landing in
    /// its window, observe the window's heartbeats, then measure through
    /// the policy stack.
    pub(crate) fn evaluate(
        &mut self,
        config: &ClusterConfig,
        i: u32,
        observer: &mut SessionObserver,
    ) -> Evaluation {
        let (start, end) = FaultClock::window_of(self.live.plan.total(), i);
        let faults = self
            .injector
            .as_ref()
            .map(|inj| inj.window(start, end, self.live.topology.len()));
        if let Some(wf) = &faults {
            for e in &wf.events {
                self.faults.push((i, *e));
                observer.record_fault(
                    i,
                    e.at.as_secs_f64(),
                    e.node.map(|n| n as i64).unwrap_or(-1),
                    e.kind.name(),
                    e.kind.factor(),
                );
                if let Some(reg) = observer.registry() {
                    reg.counter("faults.injected").inc();
                }
            }
        }
        let detections = self.detections.len();
        // Detector mode observes the heartbeats *before* evaluating, so
        // the heal step acts on detected membership, never the oracle.
        let report = self.observe_heartbeats(i, start, end, observer);
        self.window = Window {
            faults,
            report,
            end,
            recoveries: self.recoveries.len(),
            reconfigs: self.reconfigs.len(),
            detections,
        };

        let key = config_summary(config);
        let registry = observer.registry();
        let outcome = self.stack.call(&key, i, &mut |ctx| {
            evaluate_attempt(
                &self.live,
                self.settings,
                config,
                i,
                self.window.faults.as_ref(),
                self.injector.as_ref(),
                registry,
                ctx,
            )
        });
        let events = self.stack.take_events();
        apply_events(&events, i, &key, observer, &mut self.recoveries);

        match outcome {
            // Blacklisted configuration (or no bulkhead permit): the
            // proposal is answered without re-measuring.
            Outcome::Rejected(_) => Evaluation {
                out: None,
                wips: 0.0,
                valid: false,
            },
            Outcome::Ok(sample) | Outcome::Invalid(sample) => {
                let out = sample.value.out;
                Evaluation {
                    wips: if sample.valid { out.metrics.wips } else { 0.0 },
                    out: Some(out),
                    valid: sample.valid,
                }
            }
            // Graceful degradation: downstream consumers see the
            // substituted best-known WIPS, while the tuner still learns
            // the proposal was worthless and the running best is left
            // untouched.
            Outcome::Degraded(d) => Evaluation {
                out: d.measured.map(|m| m.value.out),
                wips: d.sample.score,
                valid: false,
            },
        }
    }

    /// Detector mode: feed the window's heartbeats to the detector,
    /// trace its suspicion and membership transitions, and score every
    /// transition against the injector's ground truth as it happens.
    fn observe_heartbeats(
        &mut self,
        i: u32,
        start: SimTime,
        end: SimTime,
        observer: &mut SessionObserver,
    ) -> Option<WindowReport> {
        let det = self.detector.as_mut()?;
        // Without a fault plan the detector still observes heartbeats
        // (all healthy, jitter only): monitor the empty plan.
        let clean;
        let inj = match self.injector.as_ref() {
            Some(inj) => inj,
            None => {
                clean = FaultInjector::new(&FaultPlan::new(), self.live.fault_seed);
                &clean
            }
        };
        let report = det.observe_window(inj, start, end);
        if let Some(reg) = observer.registry() {
            reg.counter("detector.heartbeats").add(report.delivered);
            reg.counter("detector.missed").add(report.missed);
        }
        for (n, (&phi, state)) in report.peak_phi.iter().zip(&report.states).enumerate() {
            observer.record_suspicion(i, n, phi, state.name());
        }
        for t in &report.transitions {
            observer.record_membership(
                i,
                t.at.as_secs_f64(),
                t.node,
                t.from.name(),
                t.to.name(),
                t.phi,
            );
            let truth_crashed = self.injector.as_ref().is_some_and(|inj| {
                inj.status_at(t.at, self.live.topology.len())
                    .get(t.node)
                    .map(|s| s.crashed)
                    .unwrap_or(false)
            });
            let latency_s = if t.to == NodeState::Down && truth_crashed {
                self.faults
                    .iter()
                    .filter(|(_, e)| {
                        matches!(e.kind, faults::FaultKind::Crash)
                            && e.node == Some(t.node)
                            && e.at <= t.at
                    })
                    .map(|(_, e)| t.at.since(e.at).as_secs_f64())
                    .fold(f64::INFINITY, f64::min)
            } else {
                f64::INFINITY
            };
            if let Some(reg) = observer.registry() {
                reg.counter("detector.transitions").inc();
                if t.to == NodeState::Down {
                    reg.counter(if truth_crashed {
                        "detector.true_positives"
                    } else {
                        "detector.false_positives"
                    })
                    .inc();
                }
            }
            self.detections.push(DetectionEvent {
                iteration: i,
                node: t.node,
                at_s: t.at.as_secs_f64(),
                from: t.from.name(),
                to: t.to.name(),
                phi: t.phi,
                truth_crashed,
                latency_s: if latency_s.is_finite() {
                    latency_s
                } else {
                    -1.0
                },
            });
        }
        Some(report)
    }

    /// Failure-driven reconfiguration after iteration `i` is recorded: a
    /// failed node wounds a tier; try to backfill it from the healthiest
    /// other tier. Needs a measured outcome as evidence.
    ///
    /// In detector mode the trigger is a *freshly confirmed* `Down`
    /// transition and liveness is the detector's membership view — the
    /// oracle is never consulted. Otherwise the trigger is the
    /// injector's crash record for the window, and a session that
    /// observed a crash without a resolvable injector is a
    /// [`SessionError::FaultPlan`].
    pub(crate) fn heal(
        &mut self,
        i: u32,
        evaluation: &Evaluation,
        observer: &mut SessionObserver,
    ) -> Result<(), SessionError> {
        let Some(out) = evaluation.out.as_ref() else {
            return Ok(());
        };
        if !self.settings.reconfigure_on_crash {
            return Ok(());
        }
        let topology = &self.live.topology;
        let (crashed, live) = match self.window.report.as_ref() {
            Some(report) => (
                report.confirmed_down(),
                report
                    .states
                    .iter()
                    .map(|s| *s != NodeState::Down)
                    .collect::<Vec<bool>>(),
            ),
            None => {
                let Some(wf) = self.window.faults.as_ref() else {
                    return Ok(());
                };
                let crashed = wf.crashes();
                if crashed.is_empty() {
                    return Ok(());
                }
                let injector = self.injector.as_ref().ok_or_else(|| {
                    SessionError::FaultPlan(
                        "a crash was observed but the session has no resolvable fault plan to \
                         derive node health from"
                            .into(),
                    )
                })?;
                let live = injector
                    .health_at(self.window.end, topology.len())
                    .iter()
                    .map(|h| !h.is_down())
                    .collect();
                (crashed, live)
            }
        };
        if crashed.is_empty() {
            return Ok(());
        }
        let Some(event) =
            heal_after_crash(self.settings, topology, &crashed, i, out, &live, observer)
        else {
            return Ok(());
        };
        if let Ok(next) = topology.reassign(event.node, event.to_tier) {
            self.live.to_mut().topology = next;
            self.recoveries.push(RecoveryAction {
                iteration: i,
                action: "reconfig",
                attempt: 0,
                delay_s: 0.0,
                wips: evaluation.wips,
            });
            self.reconfigs.push(event);
        }
        Ok(())
    }

    /// Add this iteration's resilience fields to its journal delta: the
    /// whole policy stack (breaker counts, retry RNG position, the
    /// fallback's best sample, the simulated clock), so a resume never
    /// re-burns an RNG draw.
    pub(crate) fn journal(&self, delta: &mut State, valid: bool) {
        delta.set("valid", State::Bool(valid));
        delta.set("policy", self.stack.save_state());
        delta.set(
            "recoveries",
            checkpoint::recoveries_state(&self.recoveries[self.window.recoveries..]),
        );
        delta.set(
            "reconfig",
            self.reconfigs
                .get(self.window.reconfigs)
                .map(checkpoint::reconfig_state)
                .unwrap_or(State::Null),
        );
        if let Some(det) = self.detector.as_ref() {
            delta.set("detector", det.save_state());
            delta.set(
                "detections",
                checkpoint::detections_state(&self.detections[self.window.detections..]),
            );
        }
    }

    /// Add the resilience state to a snapshot.
    pub(crate) fn snapshot(&self, snap: &mut State) {
        snap.set("topology", checkpoint::topology_state(&self.live.topology));
        snap.set("policy", self.stack.save_state());
        snap.set("recoveries", checkpoint::recoveries_state(&self.recoveries));
        snap.set("reconfigs", checkpoint::reconfigs_state(&self.reconfigs));
        if let Some(det) = self.detector.as_ref() {
            snap.set("detector", det.save_state());
            snap.set("detections", checkpoint::detections_state(&self.detections));
        }
    }

    /// Restore the state [`Resilience::snapshot`] saved.
    pub(crate) fn restore(&mut self, snap: &State) -> Result<(), PersistError> {
        let topology = checkpoint::topology_from_state(snap.require("topology")?)?;
        if topology != self.live.topology {
            self.live.to_mut().topology = topology;
        }
        self.stack.restore_state(snap.require("policy")?)?;
        self.recoveries = checkpoint::recoveries_from_state(snap.require("recoveries")?)?;
        self.reconfigs = checkpoint::reconfigs_from_state(snap.require("reconfigs")?)?;
        // Detector mode is part of the fingerprint, so a detector-mode
        // snapshot always carries these fields.
        if let Some(det) = self.detector.as_mut() {
            det.restore_state(snap.require("detector")?)?;
            self.detections = checkpoint::detections_from_state(snap.require("detections")?)?;
        }
        Ok(())
    }

    /// Replay one journal delta's resilience fields: recoveries and node
    /// moves come from the journal and the policy stack restores
    /// bit-exactly from the journaled state. Returns whether the
    /// iteration's sample was valid.
    pub(crate) fn replay(&mut self, delta: &State) -> Result<bool, SessionError> {
        let valid = delta.field_bool("valid").map_err(ckerr)?;
        self.stack
            .restore_state(delta.require("policy").map_err(ckerr)?)
            .map_err(ckerr)?;
        self.recoveries.extend(
            checkpoint::recoveries_from_state(delta.require("recoveries").map_err(ckerr)?)
                .map_err(ckerr)?,
        );
        match delta.require("reconfig").map_err(ckerr)? {
            State::Null => {}
            event_state => {
                let event = checkpoint::reconfig_from_state(event_state).map_err(ckerr)?;
                let next = self
                    .live
                    .topology
                    .reassign(event.node, event.to_tier)
                    .map_err(|e| {
                        SessionError::Checkpoint(format!(
                            "journaled reconfiguration does not apply: {e}"
                        ))
                    })?;
                self.live.to_mut().topology = next;
                self.reconfigs.push(event);
            }
        }
        if let Some(det) = self.detector.as_mut() {
            det.restore_state(delta.require("detector").map_err(ckerr)?)
                .map_err(ckerr)?;
            self.detections.extend(
                checkpoint::detections_from_state(delta.require("detections").map_err(ckerr)?)
                    .map_err(ckerr)?,
            );
        }
        Ok(valid)
    }

    /// After a resume has replayed up to iteration `start`: rebuild the
    /// log of faults in the windows already covered. The fault schedule
    /// is a pure function of the plan and seed, so one projection over
    /// those windows yields every event, tagged with the window it fell
    /// in.
    pub(crate) fn resumed(&mut self, start: u32) {
        let Some(inj) = self.injector.as_ref() else {
            return;
        };
        let span = self.live.plan.total();
        let (end, _) = FaultClock::window_of(span, start);
        let span_us = span.as_micros().max(1);
        self.faults = inj
            .window(SimTime::ZERO, end, self.live.topology.len())
            .events
            .into_iter()
            .map(|e| ((e.at.as_micros() / span_us) as u32, e))
            .collect();
    }
}

/// Map one stack call's event log onto `recovery`/`degraded` trace
/// records, `resilience.*` counters, and [`RecoveryAction`]s — in the
/// exact order the layers acted.
fn apply_events(
    events: &[Event],
    iteration: u32,
    key: &str,
    observer: &mut SessionObserver,
    recoveries: &mut Vec<RecoveryAction>,
) {
    let count = |observer: &SessionObserver, name: &str| {
        if let Some(reg) = observer.registry() {
            reg.counter(name).inc();
        }
    };
    for e in events {
        let (action, attempt, delay_s, wips) = match *e {
            Event::Retry {
                attempt,
                delay,
                score,
            } => ("retry", attempt, delay.as_secs_f64(), score),
            Event::Remeasure { attempt, score } => ("remeasure", attempt, 0.0, score),
            Event::Timeout {
                attempt,
                elapsed,
                score,
                ..
            } => ("timeout", attempt, elapsed.as_secs_f64(), score),
            Event::BreakerOpen { attempts } => ("breaker_open", attempts, 0.0, 0.0),
            Event::BreakerSkip => ("breaker_skip", 0, 0.0, 0.0),
            Event::BreakerProbe => ("breaker_probe", 0, 0.0, 0.0),
            Event::BulkheadFull => ("bulkhead_skip", 0, 0.0, 0.0),
            Event::Degraded { score, reason } => {
                observer.record_degraded(iteration, reason.name(), key, score);
                count(observer, "resilience.degraded");
                recoveries.push(RecoveryAction {
                    iteration,
                    action: "degraded",
                    attempt: 0,
                    delay_s: 0.0,
                    wips: score,
                });
                continue;
            }
        };
        observer.record_recovery(iteration, action, attempt, delay_s, key, wips);
        let counter = match *e {
            Event::Retry { .. } => "resilience.retries",
            Event::Remeasure { .. } => "resilience.remeasures",
            Event::Timeout { .. } => "resilience.timeouts",
            Event::BreakerOpen { .. } => "resilience.breaker_open",
            Event::BreakerSkip => "resilience.breaker_skips",
            Event::BreakerProbe => "resilience.breaker_probes",
            Event::BulkheadFull => "resilience.bulkhead_skips",
            Event::Degraded { .. } => unreachable!("handled above"),
        };
        count(observer, counter);
        recoveries.push(RecoveryAction {
            iteration,
            action,
            attempt,
            delay_s,
            wips,
        });
    }
}

/// One evaluation attempt, run by the policy stack. The first attempt is
/// the primary measurement (with outlier re-measurement when the window
/// is noise-spiked); retries see the post-crash steady state, like a real
/// re-measurement scheduled after the failure. Every attempt advances the
/// policy clock by the simulated time it consumed, which is what the
/// timeout layer budgets against.
#[allow(clippy::too_many_arguments)]
fn evaluate_attempt(
    cfg: &SessionConfig,
    settings: &ResilienceSettings,
    config: &ClusterConfig,
    iteration: u32,
    wf: Option<&WindowFaults>,
    injector: Option<&FaultInjector>,
    registry: Option<&Registry>,
    ctx: &mut Ctx<'_>,
) -> Sample<EvalSample> {
    if ctx.attempt <= 1 {
        let mut out = cfg.evaluate_observed(config.clone(), iteration, registry);

        // A crash inside the measurement phase invalidates the sample (the
        // paper's fixed-interval measurement assumes a stable cluster).
        let crashed_mid_measure = wf
            .map(|w| {
                w.crash_in(cfg.plan.warmup, cfg.plan.warmup + cfg.plan.measure)
                    .is_some()
            })
            .unwrap_or(false);
        let mut valid = !crashed_mid_measure && out.metrics.wips > 0.0;

        // Noise-spike re-measurement: the sample passes only if measured
        // WIPS is consistent with its own completion count.
        if valid {
            if let Some(w) = wf.filter(|w| w.noise > 1.0) {
                let measure_secs = cfg.plan.measure.as_secs_f64();
                if measure_secs > 0.0 {
                    let (start, _) = FaultClock::window_of(cfg.plan.total(), iteration);
                    let mut remeasures = 0;
                    while remeasures < settings.gate.max_remeasures {
                        let predicted = out.metrics.completed as f64 / measure_secs;
                        let deviation = (out.metrics.wips - predicted).abs();
                        if settings.gate.accepts(predicted, deviation) {
                            break;
                        }
                        remeasures += 1;
                        ctx.push(Event::Remeasure {
                            attempt: remeasures,
                            score: out.metrics.wips,
                        });
                        // Re-run the window and draw the next noise value (a
                        // re-measurement happens at a later session time).
                        out = cfg.eval.run(
                            &reseeded_scenario(cfg, config, iteration, remeasures),
                            registry,
                        );
                        if let Some(injector) = injector {
                            let shifted = start + SimDuration::from_micros(remeasures as u64);
                            let factor = injector.wips_noise(shifted, w.noise);
                            out.metrics.wips *= factor;
                            for lw in &mut out.line_wips {
                                *lw *= factor;
                            }
                        }
                    }
                    valid = out.metrics.wips > 0.0;
                }
            }
        }

        // The primary attempt holds the cluster for the full window, plus
        // any stalled seconds the fault plan injected into it.
        let stall_s = wf.map(|w| w.stall_s).unwrap_or(0.0);
        ctx.advance(
            cfg.plan
                .total()
                .saturating_add(SimDuration::from_secs_f64(stall_s)),
        );
        let score = out.metrics.wips;
        Sample {
            value: EvalSample {
                config: config.clone(),
                out,
            },
            valid,
            score,
        }
    } else {
        let mut scenario = reseeded_scenario(cfg, config, iteration, ctx.attempt);
        scenario.faults = steady_state_timeline(injector, cfg, iteration);
        let out = cfg.eval.run(&scenario, registry);
        let valid = out.metrics.wips > 0.0;
        // A retry re-measures in the post-crash steady state; it holds the
        // cluster for one more window but sees no further stalls.
        ctx.advance(cfg.plan.total());
        let score = out.metrics.wips;
        Sample {
            value: EvalSample {
                config: config.clone(),
                out,
            },
            valid,
            score,
        }
    }
}

/// The scenario of re-measurement or retry `attempt`: the primary
/// sample's, with its seed salted so the draws are decorrelated from it.
fn reseeded_scenario(
    cfg: &SessionConfig,
    config: &ClusterConfig,
    iteration: u32,
    attempt: u32,
) -> ClusterScenario {
    let salt = (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut scenario = cfg.scenario(config.clone(), iteration);
    scenario.seed = cfg.seed_with(cfg.base_seed ^ salt, iteration);
    scenario
}

/// Node healths once every fault up to the end of iteration `i`'s window
/// has applied — what a re-measurement after the crash would see.
fn steady_state_timeline(
    injector: Option<&FaultInjector>,
    cfg: &SessionConfig,
    iteration: u32,
) -> Option<HealthTimeline> {
    let injector = injector?;
    let (_, end) = FaultClock::window_of(cfg.plan.total(), iteration);
    let timeline = HealthTimeline {
        initial: injector.health_at(end, cfg.topology.len()),
        changes: Vec::new(),
    };
    (!timeline.is_trivial()).then_some(timeline)
}

/// Pick a node move that backfills a tier wounded by a crash. Tries the
/// §IV `decide()` algorithm over the live nodes first; if the cost model
/// declines, pulls a spare from the best-staffed other tier directly.
#[allow(clippy::too_many_arguments)]
fn heal_after_crash(
    settings: &ResilienceSettings,
    topology: &Topology,
    crashed: &[usize],
    iteration: u32,
    out: &IterationOutcome,
    live_nodes: &[bool],
    observer: &mut SessionObserver,
) -> Option<ReconfigEvent> {
    let wounded_tier = topology.role(*crashed.first()?);
    let live = |n: usize| live_nodes.get(n).copied().unwrap_or(false);
    let live_count = |t: Role| {
        (0..topology.len())
            .filter(|&n| topology.role(n) == t && live(n))
            .count()
    };

    // §IV decide() over the live nodes, with tier sizes that reflect the
    // crash (the wounded tier really is smaller now).
    let reports: Vec<NodeReport<Role>> = (0..topology.len())
        .filter(|&n| live(n))
        .map(|n| {
            let u = &out.node_utilization[n];
            NodeReport {
                node: n,
                tier: topology.role(n),
                util: UtilizationSnapshot {
                    cpu: u.cpu,
                    disk: u.disk,
                    net: u.net,
                    mem: u.mem,
                },
                cost: NodeCostInputs {
                    jobs: 2.0 + 30.0 * u.cpu.max(u.disk),
                    move_cost: 0.2,
                    avg_process_time: 0.8,
                },
            }
        })
        .collect();
    let decision = decide(
        &reports,
        &settings.thresholds,
        &settings.cost_model,
        live_count,
    );
    let (node, to_tier, immediate, cost_value) = match decision {
        Some(d) if d.to_tier == wounded_tier => (d.node, d.to_tier, d.immediate, d.cost_value),
        _ => {
            // Direct spare-pull: the idlest live node outside the wounded
            // tier, from a tier that can spare one.
            let peak = |n: usize| {
                let u = &out.node_utilization[n];
                u.cpu.max(u.disk).max(u.net)
            };
            let donor = (0..topology.len())
                .filter(|&n| {
                    let t = topology.role(n);
                    t != wounded_tier && live(n) && live_count(t) > 1
                })
                .min_by(|&a, &b| peak(a).total_cmp(&peak(b)).then(a.cmp(&b)))?;
            (donor, wounded_tier, true, 0.0)
        }
    };
    let from_tier = topology.role(node);
    observer.record_reconfig(
        iteration,
        node,
        from_tier.name(),
        to_tier.name(),
        immediate,
        cost_value,
    );
    observer.record_recovery(iteration, "reconfig", 0, 0.0, &format!("node {node}"), 0.0);
    if let Some(reg) = observer.registry() {
        reg.counter("resilience.reconfigs").inc();
    }
    Some(ReconfigEvent {
        iteration,
        node,
        from_tier,
        to_tier,
        immediate,
        cost_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlan;
    use tpcw::metrics::IntervalPlan;
    use tpcw::mix::Workload;

    fn base(topology: Topology, pop: u32) -> SessionConfig {
        SessionConfig::new(topology, Workload::Shopping, pop).plan(IntervalPlan::tiny())
    }

    #[test]
    fn checkpoints_from_the_point_measurement_layout_are_refused() {
        // Directories written before resilient journals carried
        // `completed` were fingerprinted as `resilient/{settings:?}`;
        // resuming one would feed replayed tuners point measurements and
        // live ones typed measurements.
        let dir = std::env::temp_dir().join(format!(
            "resilient-old-layout-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = ResilienceSettings::default();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        let policy = crate::CheckpointPolicy::new(&dir).every(2);
        let old = checkpoint::session_fingerprint(&cfg, &format!("resilient/{settings:?}"), 4, 4);
        drop(checkpoint::Checkpointer::open(&policy, old).expect("old-layout directory"));
        let resume = cfg.checkpoint(policy.resume(true));
        let err = run_resilient_session(&resume, &settings, 4).unwrap_err();
        assert!(matches!(err, SessionError::Checkpoint(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn invalid_plan_is_reported_not_panicked() {
        let cfg = base(Topology::single(), 200).fault_plan(FaultPlan::new().crash(1.0, 99));
        let err = run_resilient_session(&cfg, &ResilienceSettings::default(), 2).unwrap_err();
        assert!(matches!(err, SessionError::FaultPlan(_)), "{err:?}");
    }

    #[test]
    fn crash_mid_measurement_triggers_retries() {
        // tiny plan: 5s warmup, 20s measure. Crash the only app node of
        // line 2 early in iteration 1's measurement phase.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let crash_at = total + 7.0;
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(crash_at, 1));
        let run = run_resilient_session(&cfg, &ResilienceSettings::default(), 3).expect("run");
        assert_eq!(run.first_crash_iteration(), Some(1));
        assert!(
            run.recoveries.iter().any(|r| r.action == "retry"),
            "expected a retry: {:?}",
            run.recoveries
        );
        // The retry saw the post-crash steady state (node 1 down, node 2
        // still serving), so the session kept a usable sample.
        assert!(run.records[1].wips > 0.0, "retried sample is usable");
    }

    #[test]
    fn total_blackout_opens_the_breaker() {
        // The only proxy node crashes before iteration 0's window ends
        // and never restarts: every evaluation measures zero.
        let cfg = base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(0.5, 0));
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 3).expect("run");
        assert!(run.records.iter().all(|r| r.wips == 0.0));
        assert!(
            run.recoveries.iter().any(|r| r.action == "breaker_open"),
            "{:?}",
            run.recoveries
        );
        assert_eq!(run.best_wips, 0.0);
    }

    #[test]
    fn breaker_open_reports_the_actual_attempt_count() {
        let cfg = base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(0.5, 0));
        // Only one attempt allowed: the trip must report 1, not a larger
        // policy maximum.
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            retry: RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 2).expect("run");
        let trip = run
            .recoveries
            .iter()
            .find(|r| r.action == "breaker_open")
            .expect("breaker must trip");
        assert_eq!(trip.attempt, 1, "actual attempts, not the policy max");
    }

    #[test]
    fn stall_blows_the_timeout_budget_and_is_retried() {
        // A stall longer than the per-attempt budget: the first attempt
        // times out, the retry (no stall) passes.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().stall(total + 2.0, 1, total));
        let settings = ResilienceSettings {
            timeout_s: Some(total * 1.5),
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 3).expect("run");
        assert!(
            run.recoveries.iter().any(|r| r.action == "timeout"),
            "expected a timeout: {:?}",
            run.recoveries
        );
        assert!(
            run.recoveries.iter().any(|r| r.action == "retry"),
            "the timed-out attempt is retried: {:?}",
            run.recoveries
        );
        // Stalls are not crashes: nothing to reconfigure.
        assert!(run.reconfigs.is_empty());
        assert!(run.records[1].wips > 0.0, "retried sample is usable");
    }

    #[test]
    fn degradation_substitutes_best_known_wips() {
        // Iterations 0 is healthy; the blackout from iteration 1 on would
        // zero every later record, but degradation holds the best-known
        // WIPS instead while the tuner still learns the truth.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(total + 0.5, 0));
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            degrade_to_best: true,
            reconfigure_on_crash: false,
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 4).expect("run");
        assert!(run.records[0].wips > 0.0, "healthy baseline");
        let best = run.records[0].wips.max(run.best_wips);
        for r in &run.records[1..] {
            assert!(
                (r.wips - best).abs() < 1e-9 || r.wips <= best,
                "degraded record within best-known bounds: {} vs {best}",
                r.wips
            );
            assert!(r.wips > 0.0, "degraded, not zeroed: {r:?}");
        }
        assert!(
            run.recoveries.iter().any(|r| r.action == "degraded"),
            "{:?}",
            run.recoveries
        );
        assert_eq!(run.best_wips, run.records[0].wips, "best never degrades");
    }

    #[test]
    fn crash_pulls_a_spare_into_the_wounded_tier() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        // Node 2 (app tier) crashes during iteration 1.
        let cfg = base(Topology::tiers(2, 2, 2).unwrap(), 400)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(total + 2.0, 2));
        let run = run_resilient_session(&cfg, &ResilienceSettings::default(), 4).expect("run");
        assert_eq!(run.reconfigs.len(), 1, "{:?}", run.reconfigs);
        let e = &run.reconfigs[0];
        assert_eq!(e.to_tier, Role::App);
        assert_ne!(e.node, 2, "the dead node cannot be the donor");
        assert_eq!(run.final_topology.count(Role::App), 3);
    }

    fn detector_settings() -> ResilienceSettings {
        ResilienceSettings {
            detector: Some(DetectorConfig::default()),
            ..Default::default()
        }
    }

    #[test]
    fn detector_mode_confirms_the_crash_and_heals_without_the_oracle() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(2, 2, 2).unwrap(), 400)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(total + 2.0, 2));
        let run = run_resilient_session(&cfg, &detector_settings(), 4).expect("run");
        // The detector confirmed node 2 Down from heartbeat silence alone.
        let down: Vec<_> = run.detections.iter().filter(|d| d.is_down()).collect();
        assert_eq!(down.len(), 1, "{:?}", run.detections);
        assert_eq!(down[0].node, 2);
        assert!(down[0].truth_crashed, "scored against ground truth");
        assert!(
            down[0].latency_s > 0.0 && down[0].latency_s < 15.0,
            "detection latency {}s",
            down[0].latency_s
        );
        assert_eq!(run.detection_false_positives(), 0);
        assert!(run.mean_detection_latency_s().is_some());
        // And the detected membership gated the same §IV recovery the
        // oracle used to: a spare was pulled into the wounded tier.
        assert_eq!(run.reconfigs.len(), 1, "{:?}", run.reconfigs);
        assert_eq!(run.reconfigs[0].to_tier, Role::App);
        assert_ne!(run.reconfigs[0].node, 2);
        assert_eq!(run.final_topology.count(Role::App), 3);
    }

    #[test]
    fn detector_mode_is_deterministic() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(
                FaultPlan::new()
                    .crash(total + 7.0, 1)
                    .stall(2.0 * total + 5.0, 2, 2.0),
            );
        let a = run_resilient_session(&cfg, &detector_settings(), 4).expect("a");
        let b = run_resilient_session(&cfg, &detector_settings(), 4).expect("b");
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.wips_series(), b.wips_series());
        assert_eq!(a.reconfigs.len(), b.reconfigs.len());
    }

    #[test]
    fn detector_without_a_fault_plan_observes_clean_heartbeats() {
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        let run = run_resilient_session(&cfg, &detector_settings(), 3).expect("run");
        assert!(run.detections.is_empty(), "{:?}", run.detections);
        assert!(run.reconfigs.is_empty());
        assert!(run.best_wips > 0.0);
    }

    #[test]
    fn a_short_stall_never_reconfigures_in_detector_mode() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().stall(total + 5.0, 1, 2.0));
        let run = run_resilient_session(&cfg, &detector_settings(), 3).expect("run");
        assert!(
            !run.detections.iter().any(|d| d.is_down()),
            "a 2s stall must not be believed dead: {:?}",
            run.detections
        );
        assert!(run.reconfigs.is_empty());
    }

    #[test]
    fn a_long_stall_is_a_scored_false_positive() {
        // A 12s freeze exceeds what the default thresholds tolerate: the
        // detector believes the node dead — and the ground-truth scoring
        // records exactly that honesty gap.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().stall(total + 5.0, 1, 12.0));
        let run = run_resilient_session(&cfg, &detector_settings(), 3).expect("run");
        assert!(run.detection_false_positives() >= 1, "{:?}", run.detections);
        // The node thaws and its beats resume: membership recovers.
        assert!(
            run.detections.iter().any(|d| d.to == "up"),
            "{:?}",
            run.detections
        );
    }
}
