//! A cluster machine: hardware resources plus its tier role state.

use crate::appserver::AppState;
use crate::config::{NodeParams, Role};
use crate::database::DbState;
use crate::memory::{app_memory_mb, db_memory_mb, pressure_factor, proxy_memory_mb};
use crate::proxy::ProxyState;
use crate::request::ReqId;
use crate::spec::NodeSpec;
use faults::Health;
use simkit::resource::MultiServer;
use simkit::time::{SimDuration, SimTime};

/// Role-specific server-process state on a node.
#[derive(Debug, Clone)]
pub enum RoleState {
    Proxy(ProxyState),
    App(AppState),
    Db(DbState),
}

impl RoleState {
    pub fn role(&self) -> Role {
        match self {
            RoleState::Proxy(_) => Role::Proxy,
            RoleState::App(_) => Role::App,
            RoleState::Db(_) => Role::Db,
        }
    }
}

/// A cluster machine.
#[derive(Debug)]
pub struct Node {
    spec: NodeSpec,
    /// `1 / spec.cpu_scale` as [`NodeSpec::cpu_time`] computes it, held
    /// so a CPU slice multiplies instead of dividing.
    cpu_time_factor: f64,
    /// CPU cores (timed multi-server).
    pub cpu: MultiServer<ReqId>,
    /// Disk (single-armed, timed).
    pub disk: MultiServer<ReqId>,
    /// NIC (timed; transfers serialize at saturation).
    pub nic: MultiServer<ReqId>,
    /// Memory configured by the node's parameters, MB.
    pub mem_used_mb: f64,
    /// Service-time multiplier from memory pressure (≥ 1).
    pub pressure: f64,
    /// Injected health: `Down` nodes refuse new work at routing time,
    /// `Degraded` nodes scale their service times.
    pub health: Health,
    /// The server process running on this node.
    pub role_state: RoleState,
}

/// Apply a health slowdown factor, skipping the multiply entirely when
/// the factor is 1.0 so healthy nodes keep byte-identical timings.
#[inline]
fn health_scaled(d: SimDuration, factor: f64) -> SimDuration {
    if factor == 1.0 {
        d
    } else {
        d.mul_f64(factor)
    }
}

impl Node {
    /// Build a node for its configured role, computing its memory demand
    /// and pressure factor once (parameters are fixed for the iteration).
    pub fn new(spec: NodeSpec, params: &NodeParams, start: SimTime, hot_table_slots: u64) -> Self {
        let (role_state, mem_used_mb) = match params {
            NodeParams::Proxy(p) => (RoleState::Proxy(ProxyState::new(*p)), proxy_memory_mb(p)),
            NodeParams::App(w) => (RoleState::App(AppState::new(*w, start)), app_memory_mb(w)),
            NodeParams::Db(d) => (
                RoleState::Db(DbState::new(*d, start, hot_table_slots)),
                db_memory_mb(d),
            ),
        };
        let pressure = pressure_factor(mem_used_mb, spec.memory_mb);
        Node {
            spec,
            cpu_time_factor: spec.cpu_time_factor(),
            cpu: MultiServer::new(start, spec.cores, None),
            disk: MultiServer::new(start, 1, None),
            nic: MultiServer::new(start, 1, None),
            mem_used_mb,
            pressure,
            health: Health::Up,
            role_state,
        }
    }

    pub fn role(&self) -> Role {
        self.role_state.role()
    }

    /// The node's hardware, fixed for its lifetime.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// CPU service time for `demand` at reference speed, including memory
    /// pressure.
    pub fn cpu_time(&self, demand: SimDuration) -> SimDuration {
        health_scaled(
            demand.mul_f64(self.cpu_time_factor).mul_f64(self.pressure),
            self.health.cpu_factor(),
        )
    }

    /// Disk service time for one I/O of `bytes`, including pressure
    /// (paging competes for the same arm).
    pub fn disk_time(&self, bytes: u64) -> SimDuration {
        health_scaled(
            self.spec.disk_io(bytes).mul_f64(self.pressure),
            self.health.disk_factor(),
        )
    }

    /// Sequential-append disk time (log flushes), including pressure.
    pub fn disk_seq_time(&self, bytes: u64) -> SimDuration {
        health_scaled(
            self.spec.disk_seq_write(bytes).mul_f64(self.pressure),
            self.health.disk_factor(),
        )
    }

    /// NIC transfer time for `bytes` (pressure does not slow the wire,
    /// but injected NIC degradation does).
    pub fn nic_time(&self, bytes: u64) -> SimDuration {
        health_scaled(self.spec.nic_transfer(bytes), self.health.nic_factor())
    }

    pub fn proxy(&self) -> Option<&ProxyState> {
        match &self.role_state {
            RoleState::Proxy(p) => Some(p),
            _ => None,
        }
    }

    pub fn proxy_mut(&mut self) -> Option<&mut ProxyState> {
        match &mut self.role_state {
            RoleState::Proxy(p) => Some(p),
            _ => None,
        }
    }

    pub fn app(&self) -> Option<&AppState> {
        match &self.role_state {
            RoleState::App(a) => Some(a),
            _ => None,
        }
    }

    pub fn app_mut(&mut self) -> Option<&mut AppState> {
        match &mut self.role_state {
            RoleState::App(a) => Some(a),
            _ => None,
        }
    }

    pub fn db(&self) -> Option<&DbState> {
        match &self.role_state {
            RoleState::Db(d) => Some(d),
            _ => None,
        }
    }

    pub fn db_mut(&mut self) -> Option<&mut DbState> {
        match &mut self.role_state {
            RoleState::Db(d) => Some(d),
            _ => None,
        }
    }

    /// Snapshot resource utilizations over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> NodeUtilization {
        NodeUtilization {
            cpu: self.cpu.utilization(now).min(1.0),
            disk: self.disk.utilization(now).min(1.0),
            net: self.nic.utilization(now).min(1.0),
            mem: (self.mem_used_mb / self.spec.memory_mb).min(2.0),
        }
    }

    /// Restart the utilization windows (iteration boundary).
    pub fn reset_windows(&mut self, now: SimTime) {
        self.cpu.reset_window(now);
        self.disk.reset_window(now);
        self.nic.reset_window(now);
    }
}

/// Utilization of the four monitored resources — the `R_ij` of the
/// Section IV reconfiguration algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeUtilization {
    pub cpu: f64,
    pub disk: f64,
    pub net: f64,
    pub mem: f64,
}

impl NodeUtilization {
    /// Iterate (resource-name, value) pairs.
    pub fn resources(&self) -> [(&'static str, f64); 4] {
        [
            ("cpu", self.cpu),
            ("disk", self.disk),
            ("net", self.net),
            ("mem", self.mem),
        ]
    }

    /// The maximum utilization across resources.
    pub fn max_resource(&self) -> f64 {
        self.cpu.max(self.disk).max(self.net).max(self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeParams;

    fn node(role: Role) -> Node {
        Node::new(
            NodeSpec::hpdc04(),
            &NodeParams::default_for(role),
            SimTime::ZERO,
            640,
        )
    }

    #[test]
    fn builds_each_role() {
        assert_eq!(node(Role::Proxy).role(), Role::Proxy);
        assert_eq!(node(Role::App).role(), Role::App);
        assert_eq!(node(Role::Db).role(), Role::Db);
        assert!(node(Role::Proxy).proxy().is_some());
        assert!(node(Role::App).app().is_some());
        assert!(node(Role::Db).db().is_some());
        assert!(node(Role::Db).proxy().is_none());
    }

    #[test]
    fn default_nodes_have_no_pressure() {
        for role in Role::ALL {
            let n = node(role);
            assert_eq!(n.pressure, 1.0, "{role} pressured at default config");
        }
    }

    #[test]
    fn pressure_inflates_disk_but_not_nic() {
        let mut n = node(Role::Db);
        let disk_before = n.disk_time(40_000);
        let nic_before = n.nic_time(12_500);
        n.pressure = 2.0;
        assert_eq!(n.disk_time(40_000), disk_before.mul_f64(2.0));
        assert_eq!(n.nic_time(12_500), nic_before);
    }

    #[test]
    fn cpu_time_applies_speed_and_pressure() {
        let mut n = node(Role::App);
        assert_eq!(
            n.cpu_time(SimDuration::from_millis(10)),
            SimDuration::from_millis(10)
        );
        n.pressure = 3.0;
        assert_eq!(
            n.cpu_time(SimDuration::from_millis(10)),
            SimDuration::from_millis(30)
        );
        assert_eq!(n.nic_time(12_500), SimDuration::from_millis(1));
    }

    #[test]
    fn degraded_health_scales_each_resource() {
        use faults::Slowdown;
        let mut n = node(Role::Db);
        let cpu = n.cpu_time(SimDuration::from_millis(10));
        let disk = n.disk_time(40_000);
        let seq = n.disk_seq_time(64 * 1024);
        let nic = n.nic_time(12_500);
        n.health = Health::Degraded(Slowdown {
            cpu: 2.0,
            disk: 3.0,
            nic: 4.0,
        });
        assert_eq!(n.cpu_time(SimDuration::from_millis(10)), cpu.mul_f64(2.0));
        assert_eq!(n.disk_time(40_000), disk.mul_f64(3.0));
        assert_eq!(n.disk_seq_time(64 * 1024), seq.mul_f64(3.0));
        assert_eq!(n.nic_time(12_500), nic.mul_f64(4.0));
        // Up and Down leave timings untouched (down nodes are cut off at
        // routing, not slowed).
        n.health = Health::Down;
        assert_eq!(n.nic_time(12_500), nic);
    }

    #[test]
    fn utilization_snapshot_ranges() {
        let n = node(Role::Proxy);
        let u = n.utilization(SimTime::from_secs(10));
        assert_eq!(u.cpu, 0.0);
        assert!(u.mem > 0.0 && u.mem < 1.0);
        assert_eq!(u.resources().len(), 4);
        assert!(u.max_resource() >= u.cpu);
    }
}
