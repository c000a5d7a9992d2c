//! Per-layer timings taken from outside each layer, through its public
//! functions, with inputs shaped like the workload's session: its mix,
//! population, best proxy configuration, WIPS series, checkpoint files,
//! fault plan and seeds.
//!
//! Each timing is the median over a few batches of the time per
//! operation, so one descheduled batch does not move it.

use crate::stats::median;
use crate::workload::{Arrival, Seeds, Spec};
use cluster::object::object_size_bytes;
use cluster::params::ProxyParams;
use cluster::proxy::{CacheOutcome, ProxyState};
use cluster::Role;
use detect::{Detector, DetectorConfig};
use faults::library::mixed_mayhem;
use faults::{FaultClock, FaultInjector};
use harmony::{Measurement, Tuner};
use orchestrator::binding;
use persist::{snapshot, Journal};
use simkit::calqueue::CalendarQueue;
use simkit::rng::SimRng;
use simkit::time::SimTime;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tpcw::{profile, BrowserConfig, BrowserPool, CatalogScale};

const BATCHES: usize = 5;

/// Median over [`BATCHES`] of the time per operation, in ns; `batch`
/// returns how many operations it ran.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let ops = batch().max(1);
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

fn browsers(spec: &Spec, seed: u64) -> BrowserPool {
    BrowserPool::new(BrowserConfig::hpdc04(spec.population), &SimRng::new(seed))
}

/// The proxy parameters of the first proxy node in a configuration as
/// the session records print it (`proxy[v0,…]|app[…]|…`).
pub fn proxy_params(config: &str) -> ProxyParams {
    let prefix = format!("{}[", Role::Proxy.name());
    config
        .split('|')
        .find_map(|node| node.strip_prefix(prefix.as_str())?.strip_suffix(']'))
        .and_then(|vals| {
            let v: Result<Vec<i64>, _> = vals.split(',').map(str::parse).collect();
            ProxyParams::from_values(&v.ok()?).ok()
        })
        .unwrap_or_else(ProxyParams::default_config)
}

/// `ProxyState::lookup`, plus `admit` on a miss, over the object stream
/// the workload's mix requests. Returns (ns per request, memory hit
/// ratio).
pub fn proxy(spec: &Spec, params: ProxyParams, seed: u64) -> (f64, f64) {
    const REQUESTS: u32 = 100_000;
    let scale = CatalogScale::hpdc04();
    let mut pool = browsers(spec, seed);
    let mix = spec.workload.mix();
    let mut stream = Vec::new();
    for k in 0..REQUESTS {
        let b = k % spec.population;
        let cacheable = profile(pool.sample_interaction(b, mix)).cacheable;
        let rng = pool.rng(b);
        if rng.chance(cacheable) {
            let obj = rng.zipf(scale.static_objects(), scale.popularity_theta);
            stream.push((obj, object_size_bytes(obj)));
        }
    }
    let mut hit_ratio = 0.0;
    let ns = ns_per_op(|| {
        let mut proxy = ProxyState::new(params);
        for &(obj, bytes) in &stream {
            if proxy.lookup(black_box(obj)) == CacheOutcome::Miss {
                proxy.admit(obj, bytes);
            }
        }
        hit_ratio = proxy.mem_hit_ratio();
        stream.len() as u64
    });
    (ns, hit_ratio)
}

/// Hold model on the calendar queue: the pending set is one think-time
/// event per browser; each hold pops the earliest and schedules that
/// browser's next. ns per hold.
pub fn hold(spec: &Spec, seed: u64) -> f64 {
    const HOLDS: u64 = 200_000;
    let mut pool = browsers(spec, seed);
    let mut queue = CalendarQueue::new();
    for b in 0..spec.population {
        queue.schedule(SimTime::ZERO + pool.sample_think(b), b);
    }
    ns_per_op(|| {
        for _ in 0..HOLDS {
            let (t, b) = queue.pop().expect("the pending set never drains");
            queue.schedule(t + pool.sample_think(b), black_box(b));
        }
        HOLDS
    })
}

/// `BrowserPool::sample_interaction` + `sample_think` under the mix, ns
/// per pair.
pub fn sample(spec: &Spec, seed: u64) -> f64 {
    const DRAWS: u32 = 200_000;
    let mut pool = browsers(spec, seed);
    let mix = spec.workload.mix();
    ns_per_op(|| {
        for k in 0..DRAWS {
            let b = k % spec.population;
            black_box(pool.sample_interaction(b, mix));
            black_box(pool.sample_think(b));
        }
        u64::from(DRAWS)
    })
}

/// Replay the session's tuners (one simplex over the full space, or
/// TUNA per tier) through `propose_batch`/`observe_trial`, fed the
/// recorded WIPS and CI series. µs per session iteration.
pub fn harmony_step(spec: &Spec, series: &[Arrival], seed: u64) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let topology = Spec::topology();
    let make = |name: &str, space| {
        harmony::make_tuner_seeded(name, space, None, seed).expect("registered tuner")
    };
    let ns = ns_per_op(|| {
        let mut tuners: Vec<Box<dyn Tuner + Send>> = if spec.chaos {
            [Role::Proxy, Role::App, Role::Db]
                .map(|r| make("tuna", binding::role_space(r)))
                .into()
        } else {
            vec![make("simplex", binding::full_space(&topology))]
        };
        let mut next = series.iter().cycle();
        for _ in 0..series.len() {
            for t in &mut tuners {
                for trial in t.propose_batch() {
                    let a = next.next().expect("cycle over a non-empty series");
                    let m = Measurement::point(a.wips).with_ci(a.ci_half);
                    t.observe_trial(trial.id, black_box(m));
                }
            }
        }
        series.len() as u64
    });
    ns / 1e3
}

/// `snapshot::write` of the session's last snapshot (read back with
/// `snapshot::load`) into `scratch`. Returns (ms per write, bytes).
pub fn snapshot_write(checkpoint_dir: &Path, scratch: &Path) -> Option<(f64, u64)> {
    let newest = std::fs::read_dir(checkpoint_dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .max()?;
    let state = snapshot::load(&newest).ok()?;
    std::fs::create_dir_all(scratch).ok()?;
    let target = scratch.join("snapshot.ckpt");
    let ns = ns_per_op(|| {
        snapshot::write(&target, &state).expect("scratch snapshot is writable");
        1
    });
    let bytes = std::fs::metadata(&target).ok()?.len();
    Some((ns / 1e6, bytes))
}

/// `Journal::append` of every record of the session's journal (read with
/// `Journal::scan`) into a fresh journal in `scratch`. µs per append.
pub fn journal_append(checkpoint_dir: &Path, scratch: &Path) -> Option<f64> {
    let scan = Journal::scan(checkpoint_dir.join(persist::store::JOURNAL_FILE)).ok()?;
    if scan.records.is_empty() {
        return None;
    }
    std::fs::create_dir_all(scratch).ok()?;
    let target = scratch.join("journal.wal");
    let ns = ns_per_op(|| {
        let mut j = Journal::create(&target).expect("scratch journal is writable");
        for r in &scan.records {
            j.append(r).expect("scratch journal accepts appends");
        }
        scan.records.len() as u64
    });
    Some(ns / 1e3)
}

fn chaos_injector(spec: &Spec, seeds: Seeds) -> FaultInjector {
    let window_s = spec.plan.total().as_secs_f64();
    let nodes = Spec::topology().len();
    FaultInjector::new(&mixed_mayhem(window_s, nodes), seeds.fault)
}

/// `Detector::observe_window` over the session's windows with its plan
/// and seed. Returns (µs per window, heartbeats delivered per session).
pub fn detect_windows(spec: &Spec, seeds: Seeds) -> (f64, u64) {
    let injector = chaos_injector(spec, seeds);
    let nodes = Spec::topology().len();
    let mut heartbeats = 0;
    let ns = ns_per_op(|| {
        let mut det = Detector::new(DetectorConfig::default(), nodes, seeds.fault);
        heartbeats = 0;
        for i in 0..spec.iterations {
            let (s, e) = FaultClock::window_of(spec.plan.total(), i);
            heartbeats += black_box(det.observe_window(&injector, s, e)).delivered;
        }
        u64::from(spec.iterations)
    });
    (ns / 1e3, heartbeats)
}

/// `FaultInjector::window` per iteration window, µs.
pub fn fault_windows(spec: &Spec, seeds: Seeds) -> f64 {
    let injector = chaos_injector(spec, seeds);
    let nodes = Spec::topology().len();
    let ns = ns_per_op(|| {
        for i in 0..spec.iterations {
            let (s, e) = FaultClock::window_of(spec.plan.total(), i);
            black_box(injector.window(s, e, nodes));
        }
        u64::from(spec.iterations)
    });
    ns / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_params_parse_from_the_record_config() {
        let p = proxy_params("proxy[64,90,95,4096,0,16,20]|app[1,2]|db[3]");
        assert_eq!(p.cache_mem, 64);
        assert_eq!(p.maximum_object_size_in_memory, 16);
        assert_eq!(proxy_params("garbage"), ProxyParams::default_config());
    }
}
