//! The MySQL-like database tier model.
//!
//! A query's path: acquire a **connection** (`max_connections`, waiters
//! queue), acquire a **run slot** (`thread_concurrency` — MySQL 3.23's
//! hint for how many threads execute concurrently), then execute: CPU
//! (inflated by table-cache misses, join-buffer shortfall, result-set
//! chunking through `net_buffer_length`, and context switching when the
//! run queue is long), possibly a data-page disk read, and for writes a
//! binlog flush that spills to disk when the transaction log exceeds
//! `binlog_cache_size`.

use crate::params::DbParams;
use crate::request::ReqId;
use simkit::resource::MultiServer;
use simkit::rng::{LognormalShape, SimRng};
use simkit::time::{SimDuration, SimTime};
use std::sync::OnceLock;
use tpcw::demand::profile;
use tpcw::interaction::Interaction;

/// Table-open penalty on a table-cache miss: descriptor setup CPU.
const TABLE_OPEN_CPU: SimDuration = SimDuration::from_micros(800);
/// Probability a table-cache miss also needs a disk read (.frm/.MYI).
const TABLE_OPEN_IO_PROB: f64 = 0.15;
/// Join working-set the TPC-W queries actually need (bytes) — anything
/// above this in `join_buffer_size` is pure memory waste, which is exactly
/// what the paper found.
const JOIN_NEEDED_BYTES: i64 = 256 * 1024;
/// CPU per result-set network chunk.
const NET_CHUNK_CPU: SimDuration = SimDuration::from_micros(30);
/// Bytes of result set per query (mean; modulates net chunking).
const RESULT_BYTES_MEAN: f64 = 24.0 * 1024.0;
/// Disk page read size for a data miss.
pub const DATA_PAGE_BYTES: u64 = 16 * 1024;
/// Coefficients of variation of the per-query draws.
const QUERY_CPU_CV: f64 = 0.3;
const RESULT_BYTES_CV: f64 = 0.6;
const BINLOG_CV: f64 = 0.7;

/// Per-node database state.
#[derive(Debug, Clone)]
pub struct DbState {
    pub params: DbParams,
    /// Connection slots (semaphore usage).
    pub conn_pool: MultiServer<ReqId>,
    /// Run slots implementing `thread_concurrency`.
    pub run_slots: MultiServer<ReqId>,
    /// Hot table descriptors the workload needs (from the catalogue scale).
    hot_table_slots: u64,
    /// Precomputed lognormal shapes for the per-query draws (fixed CVs;
    /// hoisting the `ln`/`sqrt` derivation off the hot path is
    /// bit-identical — see `LognormalShape`).
    cpu_shape: LognormalShape,
    result_shape: LognormalShape,
    binlog_shape: LognormalShape,
    /// Location of the result-set size draw (its mean is a constant).
    result_mu: f64,
}

/// The per-query draw parameters of one demand profile, resolved once:
/// the lognormal locations of the CPU and binlog draws carry the `ln` of
/// their means, so a query draws without recomputing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDemand {
    cpu_mu: f64,
    io_prob: f64,
    join_heavy: bool,
    /// `None` for read-only queries, which never draw a binlog size.
    binlog_mu: Option<f64>,
}

impl QueryDemand {
    /// Resolve a query's draw parameters.
    ///
    /// * `base_cpu_ms` / `io_prob` / `join_heavy` / `write_log_kb` come
    ///   from an interaction's demand profile (`write_log_kb` is 0 for
    ///   read-only pages).
    pub fn new(base_cpu_ms: f64, io_prob: f64, join_heavy: bool, write_log_kb: f64) -> Self {
        QueryDemand {
            cpu_mu: LognormalShape::from_cv(QUERY_CPU_CV).location(base_cpu_ms.max(0.05)),
            io_prob,
            join_heavy,
            binlog_mu: (write_log_kb > 0.0)
                .then(|| LognormalShape::from_cv(BINLOG_CV).location(write_log_kb * 1024.0)),
        }
    }

    /// The demand of one query of interaction `ix`, from its profile.
    /// Profiles are constants, so the table is built once per process.
    pub fn of(ix: Interaction) -> &'static QueryDemand {
        static DEMANDS: OnceLock<[QueryDemand; Interaction::COUNT]> = OnceLock::new();
        let demands = DEMANDS.get_or_init(|| {
            Interaction::ALL.map(|ix| {
                let p = profile(ix);
                let write_log_kb = if p.db_write { p.write_log_kb } else { 0.0 };
                QueryDemand::new(p.db_cpu_ms, p.db_io_prob, p.join_heavy, write_log_kb)
            })
        });
        &demands[ix.index()]
    }
}

/// The execution cost of one query, decided at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// CPU demand (before node-level pressure scaling).
    pub cpu: SimDuration,
    /// Whether a data-page disk read is needed.
    pub disk_read: bool,
    /// Whether the binlog spilled and needs a disk flush.
    pub binlog_spill: bool,
}

impl DbState {
    pub fn new(params: DbParams, start: SimTime, hot_table_slots: u64) -> Self {
        let result_shape = LognormalShape::from_cv(RESULT_BYTES_CV);
        DbState {
            params,
            conn_pool: MultiServer::new(start, params.max_connections.max(1) as u32, None),
            run_slots: MultiServer::new(start, params.thread_concurrency.max(1) as u32, None),
            hot_table_slots: hot_table_slots.max(1),
            cpu_shape: LognormalShape::from_cv(QUERY_CPU_CV),
            result_shape,
            binlog_shape: LognormalShape::from_cv(BINLOG_CV),
            result_mu: result_shape.location(RESULT_BYTES_MEAN),
        }
    }

    /// Probability a query misses the table cache.
    pub fn table_miss_prob(&self) -> f64 {
        let cache = self.params.table_cache.max(0) as f64;
        (1.0 - cache / self.hot_table_slots as f64).max(0.0)
    }

    /// Join-buffer inflation factor: a buffer smaller than the working set
    /// forces multi-pass joins.
    pub fn join_factor(&self) -> f64 {
        let buf = self.params.join_buffer_size.max(1);
        if buf >= JOIN_NEEDED_BYTES {
            1.0
        } else {
            // Passes scale with the shortfall; 128 KB => 2 passes.
            JOIN_NEEDED_BYTES as f64 / buf as f64
        }
    }

    /// Context-switch inflation from running more threads than cores.
    pub fn scheduling_factor(&self, cores: u32) -> f64 {
        let runnable = self.run_slots.busy();
        if runnable > cores {
            1.0 + 0.0015 * (runnable - cores) as f64
        } else {
            1.0
        }
    }

    /// Compute the full cost of one query with the given demand
    /// ([`QueryDemand::of`] for an interaction's).
    ///
    /// Serialization loss when `thread_concurrency` is below the core
    /// count: the run-slot semaphore itself then throttles below hardware
    /// capacity, which the queueing model captures naturally — no extra
    /// factor needed here.
    pub fn query_cost(&self, rng: &mut SimRng, demand: &QueryDemand, cores: u32) -> QueryCost {
        let mut cpu_ms = rng.lognormal_at(self.cpu_shape, demand.cpu_mu);
        if demand.join_heavy {
            cpu_ms *= self.join_factor();
        }

        // Table-cache miss: open-table CPU and maybe metadata I/O.
        let mut disk_read = rng.chance(demand.io_prob);
        let mut cpu = SimDuration::from_millis_f64(cpu_ms);
        if rng.chance(self.table_miss_prob()) {
            cpu += TABLE_OPEN_CPU;
            if rng.chance(TABLE_OPEN_IO_PROB) {
                disk_read = true;
            }
        }

        // Result-set chunking through net_buffer_length.
        let result_bytes = rng.lognormal_at(self.result_shape, self.result_mu);
        let chunks = (result_bytes / self.params.net_buffer_length.max(1024) as f64)
            .ceil()
            .max(1.0) as u64;
        cpu += SimDuration::from_micros(NET_CHUNK_CPU.as_micros() * chunks);

        // Scheduling overhead at dispatch time.
        cpu = cpu.mul_f64(self.scheduling_factor(cores));

        // Binlog: transaction log bigger than the cache spills to disk.
        let binlog_spill = demand.binlog_mu.is_some_and(|mu| {
            let log_bytes = rng.lognormal_at(self.binlog_shape, mu);
            log_bytes > self.params.binlog_cache_size.max(0) as f64
        });

        QueryCost {
            cpu,
            disk_read,
            binlog_spill,
        }
    }

    /// Connections currently waiting for a slot.
    pub fn conn_wait_len(&self) -> usize {
        self.conn_pool.queue_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(params: DbParams) -> DbState {
        DbState::new(params, SimTime::ZERO, 640)
    }

    fn default_db() -> DbState {
        db(DbParams::default_config())
    }

    /// Cost of one non-join query on a 2-core node.
    fn cost(d: &DbState, rng: &mut SimRng, cpu_ms: f64, io_prob: f64, log_kb: f64) -> QueryCost {
        d.query_cost(rng, &QueryDemand::new(cpu_ms, io_prob, false, log_kb), 2)
    }

    #[test]
    fn pools_sized_from_params() {
        let d = default_db();
        assert_eq!(d.conn_pool.servers(), 100);
        assert_eq!(d.run_slots.servers(), 10);
    }

    #[test]
    fn table_miss_prob_falls_with_cache() {
        let small = default_db(); // table_cache = 64, hot = 640
        assert!((small.table_miss_prob() - 0.9).abs() < 1e-9);
        let mut p = DbParams::default_config();
        p.table_cache = 640;
        assert_eq!(db(p).table_miss_prob(), 0.0);
        p.table_cache = 2_048;
        assert_eq!(db(p).table_miss_prob(), 0.0);
    }

    #[test]
    fn join_factor_saturates_at_needed_size() {
        let mut p = DbParams::default_config(); // 8 MB default
        assert_eq!(db(p).join_factor(), 1.0);
        p.join_buffer_size = 407_552; // paper's tuned value
        assert_eq!(
            db(p).join_factor(),
            1.0,
            "tuned-down buffer must cost nothing"
        );
        p.join_buffer_size = 131_072; // half the working set
        assert!((db(p).join_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn binlog_spill_depends_on_cache_size() {
        let mut rng = SimRng::new(7);
        let small = default_db(); // 32 KB cache
        let spills = (0..2_000)
            .filter(|_| cost(&small, &mut rng, 5.0, 0.0, 120.0).binlog_spill)
            .count();
        // 120 KB mean log vs 32 KB cache: nearly always spills.
        assert!(spills > 1_800, "spills {spills}");

        let mut p = DbParams::default_config();
        p.binlog_cache_size = 1_048_576;
        let big = db(p);
        let spills_big = (0..2_000)
            .filter(|_| cost(&big, &mut rng, 5.0, 0.0, 120.0).binlog_spill)
            .count();
        assert!(spills_big < 200, "spills_big {spills_big}");
    }

    #[test]
    fn read_only_queries_never_spill() {
        let mut rng = SimRng::new(9);
        let d = default_db();
        for _ in 0..500 {
            assert!(!cost(&d, &mut rng, 3.0, 0.5, 0.0).binlog_spill);
        }
    }

    #[test]
    fn net_buffer_reduces_cpu() {
        let mut rng_a = SimRng::new(11);
        let mut rng_b = SimRng::new(11);
        let mut small = DbParams::default_config();
        small.net_buffer_length = 1_024;
        let mut big = DbParams::default_config();
        big.net_buffer_length = 65_536;
        let n = 2_000;
        let cpu_small: u64 = (0..n)
            .map(|_| cost(&db(small), &mut rng_a, 5.0, 0.0, 0.0).cpu.as_micros())
            .sum();
        let cpu_big: u64 = (0..n)
            .map(|_| cost(&db(big), &mut rng_b, 5.0, 0.0, 0.0).cpu.as_micros())
            .sum();
        assert!(cpu_small > cpu_big, "{cpu_small} vs {cpu_big}");
    }

    #[test]
    fn scheduling_factor_grows_with_runnable_threads() {
        let mut p = DbParams::default_config();
        p.thread_concurrency = 100;
        let mut d = db(p);
        assert_eq!(d.scheduling_factor(2), 1.0);
        for r in 0..60 {
            d.run_slots.offer(SimTime::ZERO, r, SimDuration::ZERO);
        }
        let f = d.scheduling_factor(2);
        assert!(f > 1.05 && f < 1.15, "factor {f}");
    }

    #[test]
    fn disk_read_probability_respected() {
        let mut rng = SimRng::new(13);
        let mut p = DbParams::default_config();
        p.table_cache = 2_048; // no table-cache noise
        let d = db(p);
        let n = 5_000;
        let reads = (0..n)
            .filter(|_| cost(&d, &mut rng, 3.0, 0.4, 0.0).disk_read)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((0.35..0.45).contains(&frac), "frac {frac}");
    }
}
