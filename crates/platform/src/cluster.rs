//! Invokers and containers: the execution layer of the OpenWhisk model.
//!
//! Each invoker owns a memory-capped pool of application containers and
//! mirrors OpenWhisk's `ContainerProxy` lifecycle: containers start cold
//! (paying container-init), execute one activation at a time, then sit
//! idle until their per-activation keep-alive deadline passes — the
//! deadline our modified `ActivationMessage` carries (§4.3).

use sitw_trace::TimeMs;

/// Container lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Being created/pre-warmed; becomes idle at the given time.
    Starting {
        /// When initialization completes.
        ready_at: TimeMs,
    },
    /// Loaded and free to serve an activation.
    Idle {
        /// Keep-alive deadline; the container unloads when it passes.
        expires_at: TimeMs,
    },
    /// Executing an activation.
    Busy {
        /// When the running activation completes.
        until: TimeMs,
    },
}

/// A per-application container on an invoker.
#[derive(Debug, Clone)]
pub struct Container {
    /// Unique id (monotonic across the simulation).
    pub id: u64,
    /// Application the container hosts.
    pub app: u32,
    /// Resident memory, MB.
    pub memory_mb: f64,
    /// Lifecycle state.
    pub state: ContainerState,
    /// Time the container last finished (or was created); used for LRU
    /// eviction.
    pub last_used: TimeMs,
    /// Start of the current idle (or starting) span, for idle-time
    /// accounting.
    pub idle_since: TimeMs,
}

/// Per-invoker accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InvokerStats {
    /// Containers started (cold or pre-warm).
    pub containers_started: u64,
    /// Containers evicted to make room.
    pub evictions: u64,
    /// Containers expired by keep-alive.
    pub expirations: u64,
    /// Loaded-but-idle memory integral (MB·ms) — the §5.3 memory
    /// consumption metric.
    pub idle_mb_ms: f64,
    /// Total loaded memory integral (MB·ms).
    pub loaded_mb_ms: f64,
    /// Peak loaded memory (MB).
    pub peak_loaded_mb: f64,
}

/// One invoker node.
#[derive(Debug)]
pub struct Invoker {
    /// Invoker index.
    pub id: usize,
    /// Memory capacity for containers, MB.
    pub capacity_mb: f64,
    /// Containers currently loaded (any state).
    pub containers: Vec<Container>,
    /// Accounting.
    pub stats: InvokerStats,
    last_integral_at: TimeMs,
}

impl Invoker {
    /// Creates an empty invoker.
    pub fn new(id: usize, capacity_mb: f64) -> Self {
        Self {
            id,
            capacity_mb,
            containers: Vec::new(),
            stats: InvokerStats::default(),
            last_integral_at: 0,
        }
    }

    /// Memory currently loaded (all container states), MB.
    pub fn loaded_mb(&self) -> f64 {
        self.containers.iter().map(|c| c.memory_mb).sum::<f64>()
    }

    /// Free capacity, MB.
    pub fn free_mb(&self) -> f64 {
        (self.capacity_mb - self.loaded_mb()).max(0.0)
    }

    /// Advances the memory integrals to `now`. Call before any state
    /// change.
    pub fn advance_integrals(&mut self, now: TimeMs) {
        let dt = now.saturating_sub(self.last_integral_at) as f64;
        if dt > 0.0 {
            let loaded = self.loaded_mb();
            let idle: f64 = self
                .containers
                .iter()
                .filter(|c| !matches!(c.state, ContainerState::Busy { .. }))
                .map(|c| c.memory_mb)
                .sum();
            self.stats.loaded_mb_ms += loaded * dt;
            self.stats.idle_mb_ms += idle * dt;
            self.last_integral_at = now;
        }
        let loaded = self.loaded_mb();
        if loaded > self.stats.peak_loaded_mb {
            self.stats.peak_loaded_mb = loaded;
        }
    }

    /// Finds an idle container for `app` whose init has completed,
    /// preferring the most recently used.
    pub fn find_idle(&mut self, app: u32, now: TimeMs) -> Option<&mut Container> {
        self.containers
            .iter_mut()
            .filter(|c| c.app == app)
            .filter(|c| match c.state {
                ContainerState::Idle { .. } => true,
                ContainerState::Starting { ready_at } => ready_at <= now,
                ContainerState::Busy { .. } => false,
            })
            .max_by_key(|c| c.last_used)
    }

    /// Whether any loaded (non-busy or busy) container exists for `app`.
    pub fn has_container(&self, app: u32) -> bool {
        self.containers.iter().any(|c| c.app == app)
    }

    /// Evicts idle containers (least recently used first) until
    /// `needed_mb` fits, through the shared budgeted-eviction engine
    /// ([`sitw_fleet::evict_until`] — the same loop the tenant memory
    /// ledger runs with earliest-expiry ordering). Returns false if the
    /// space cannot be freed (busy/starting containers are not
    /// evictable).
    pub fn make_room(&mut self, needed_mb: f64, now: TimeMs) -> bool {
        if needed_mb > self.capacity_mb {
            return false;
        }
        self.advance_integrals(now);
        sitw_fleet::evict_until(
            self,
            |inv| inv.free_mb() >= needed_mb,
            |inv| {
                inv.containers
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| matches!(c.state, ContainerState::Idle { .. }))
                    .min_by_key(|(_, c)| c.last_used)
                    .map(|(i, _)| i)
            },
            |inv, i| {
                inv.containers.swap_remove(i);
                inv.stats.evictions += 1;
            },
        )
    }

    /// Starts a container for `app`; the caller has ensured capacity.
    pub fn start_container(
        &mut self,
        id: u64,
        app: u32,
        memory_mb: f64,
        now: TimeMs,
        ready_at: TimeMs,
    ) -> u64 {
        self.advance_integrals(now);
        self.containers.push(Container {
            id,
            app,
            memory_mb,
            state: ContainerState::Starting { ready_at },
            last_used: now,
            idle_since: now,
        });
        self.stats.containers_started += 1;
        id
    }

    /// Removes containers whose keep-alive deadline passed.
    pub fn expire_due(&mut self, now: TimeMs) {
        self.advance_integrals(now);
        let before = self.containers.len();
        self.containers.retain(|c| match c.state {
            ContainerState::Idle { expires_at } => expires_at > now,
            _ => true,
        });
        self.stats.expirations += (before - self.containers.len()) as u64;
    }

    /// Looks up a container by id.
    pub fn container_mut(&mut self, id: u64) -> Option<&mut Container> {
        self.containers.iter_mut().find(|c| c.id == id)
    }

    /// Removes a container by id (used for immediate unload when the
    /// policy's pre-warm window is positive).
    pub fn remove_container(&mut self, id: u64, now: TimeMs) -> bool {
        self.advance_integrals(now);
        let before = self.containers.len();
        self.containers.retain(|c| c.id != id);
        before != self.containers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_container(id: u64, app: u32, mem: f64, last_used: TimeMs) -> Container {
        Container {
            id,
            app,
            memory_mb: mem,
            state: ContainerState::Idle {
                expires_at: 1_000_000,
            },
            last_used,
            idle_since: last_used,
        }
    }

    #[test]
    fn capacity_accounting() {
        let mut inv = Invoker::new(0, 1000.0);
        assert_eq!(inv.free_mb(), 1000.0);
        inv.start_container(1, 7, 300.0, 0, 100);
        assert_eq!(inv.loaded_mb(), 300.0);
        assert_eq!(inv.free_mb(), 700.0);
    }

    #[test]
    fn find_idle_prefers_most_recent_and_ready() {
        let mut inv = Invoker::new(0, 1000.0);
        inv.containers.push(idle_container(1, 5, 100.0, 10));
        inv.containers.push(idle_container(2, 5, 100.0, 50));
        inv.containers.push(Container {
            id: 3,
            app: 5,
            memory_mb: 100.0,
            state: ContainerState::Starting { ready_at: 500 },
            last_used: 90,
            idle_since: 90,
        });
        // At t=100 the starting container is not ready; MRU idle wins.
        let c = inv.find_idle(5, 100).unwrap();
        assert_eq!(c.id, 2);
        // At t=600 the starting container is ready and most recent.
        let c = inv.find_idle(5, 600).unwrap();
        assert_eq!(c.id, 3);
        assert!(inv.find_idle(99, 600).is_none());
    }

    #[test]
    fn make_room_evicts_lru_idle_only() {
        let mut inv = Invoker::new(0, 300.0);
        inv.containers.push(idle_container(1, 1, 100.0, 5));
        inv.containers.push(idle_container(2, 2, 100.0, 50));
        inv.containers.push(Container {
            id: 3,
            app: 3,
            memory_mb: 100.0,
            state: ContainerState::Busy { until: 900 },
            last_used: 1,
            idle_since: 0,
        });
        // Need 50 MB: evict container 1 (LRU idle), not the busy one.
        assert!(inv.make_room(50.0, 100));
        assert_eq!(inv.stats.evictions, 1);
        assert!(inv.container_mut(1).is_none());
        assert!(inv.container_mut(2).is_some());
        assert!(inv.container_mut(3).is_some());
        // Need more than evictable space allows: fails (after evicting
        // the remaining idle container; the busy one is untouchable).
        assert!(!inv.make_room(250.0, 101));
        assert!(inv.container_mut(3).is_some());
    }

    #[test]
    fn make_room_rejects_oversized() {
        let mut inv = Invoker::new(0, 100.0);
        assert!(!inv.make_room(200.0, 0));
    }

    #[test]
    fn expiry_removes_due_idle() {
        let mut inv = Invoker::new(0, 1000.0);
        inv.containers.push(Container {
            id: 1,
            app: 1,
            memory_mb: 100.0,
            state: ContainerState::Idle { expires_at: 50 },
            last_used: 0,
            idle_since: 0,
        });
        inv.containers.push(idle_container(2, 2, 100.0, 0));
        inv.expire_due(60);
        assert!(inv.container_mut(1).is_none());
        assert!(inv.container_mut(2).is_some());
        assert_eq!(inv.stats.expirations, 1);
    }

    #[test]
    fn integrals_split_idle_and_busy() {
        let mut inv = Invoker::new(0, 1000.0);
        inv.containers.push(idle_container(1, 1, 100.0, 0));
        inv.containers.push(Container {
            id: 2,
            app: 2,
            memory_mb: 200.0,
            state: ContainerState::Busy { until: 1_000 },
            last_used: 0,
            idle_since: 0,
        });
        inv.advance_integrals(1_000);
        assert!((inv.stats.loaded_mb_ms - 300.0 * 1_000.0).abs() < 1e-6);
        assert!((inv.stats.idle_mb_ms - 100.0 * 1_000.0).abs() < 1e-6);
        assert_eq!(inv.stats.peak_loaded_mb, 300.0);
    }

    #[test]
    fn remove_container_unloads() {
        let mut inv = Invoker::new(0, 500.0);
        inv.containers.push(idle_container(9, 4, 50.0, 0));
        assert!(inv.remove_container(9, 10));
        assert!(!inv.remove_container(9, 11));
        assert!(!inv.has_container(4));
    }
}
