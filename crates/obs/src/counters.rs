//! Lock-free per-rank counters for fabric traffic.
//!
//! A rank's counter block is fetched once (one registry lock) when its
//! fabric handle is built; every increment afterwards is a relaxed atomic
//! add, and increments are no-ops while the recorder is disabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static REGISTRY: Mutex<Vec<Arc<RankCounters>>> = Mutex::new(Vec::new());

/// Declares the counter fields once and derives everything that must
/// stay in step with them: the atomic block, its plain-value snapshot
/// (which carries the field docs), the zeroing constructor, `snapshot()`
/// and `reset()`.
macro_rules! rank_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// The traffic counters of one rank.
        #[derive(Debug)]
        pub struct RankCounters {
            rank: usize,
            $($field: AtomicU64,)*
        }

        /// Plain-value copy of one rank's counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            /// The rank the counters belong to.
            pub rank: usize,
            $($(#[$doc])* pub $field: u64,)*
        }

        impl RankCounters {
            fn new(rank: usize) -> Self {
                RankCounters { rank, $($field: AtomicU64::new(0),)* }
            }

            /// A point-in-time copy of the totals.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot { rank: self.rank, $($field: self.$field.load(Ordering::Relaxed),)* }
            }

            fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)*
            }
        }
    };
}

rank_counters! {
    /// Total payload bytes sent.
    bytes_sent,
    /// Messages sent.
    msgs_sent,
    /// Total payload bytes received.
    bytes_recv,
    /// Nanoseconds spent blocked in receives (queue wait).
    recv_wait_ns,
    /// Receive deadlines that expired.
    timeouts,
    /// Faults the installed plan injected on this rank's send path.
    faults_injected,
    /// Received frames that failed their CRC32 check.
    corrupt_frames,
    /// Training steps retried after a transient fault.
    retries,
    /// Steps completed in degraded mode (dead peers rerouted).
    degraded_steps,
    /// Sends/receives that named a rank outside the topology.
    invalid_ranks,
    /// Received frames rejected for carrying a stale membership epoch.
    stale_epochs,
    /// Replication payload bytes shipped to the ring buddy.
    replica_bytes_sent,
    /// Replication quanta (frames) shipped to the ring buddy.
    replica_quanta,
    /// Failover activations: hosted experts brought up from a replica.
    failover_activations,
    /// Hosted-expert handbacks streamed to rejoined owners.
    handbacks,
    /// Durable snapshot bytes committed to disk.
    snapshot_bytes_written,
    /// Durable snapshot shards committed to disk.
    snapshot_shards,
    /// Snapshot generations committed (coordinator manifests).
    snapshot_generations,
    /// Restores performed from a durable snapshot generation.
    snapshot_restores,
    /// Restores that rebuilt the expert from a buddy's on-disk replica.
    snapshot_reconstructions,
    /// Snapshot generations retired by retention GC.
    snapshot_gc_removed,
    /// Placement plans committed by the load-aware controller.
    placement_plans,
    /// Expert replicas added by committed placement plans.
    placement_replications,
    /// Expert homes moved off their static rank by committed plans.
    placement_migrations,
    /// Gray-rank demotions decided by committed plans.
    placement_demotions,
    /// Expert-state bytes streamed for placement transfers.
    placement_transfer_bytes,
}

/// Declares the increment methods: each one is a no-op while the recorder
/// is off and otherwise a relaxed add per listed field.
macro_rules! adders {
    ($($(#[$doc:meta])* $name:ident($($arg:ident: $ty:ty),*) { $($field:ident += $by:expr),+ })*) => {
        impl RankCounters {$(
            $(#[$doc])*
            #[inline]
            pub fn $name(&self, $($arg: $ty),*) {
                if crate::enabled() {
                    $(self.$field.fetch_add($by, Ordering::Relaxed);)+
                }
            }
        )*}
    };
}

adders! {
    /// Counts one outgoing message of `bytes`.
    add_send(bytes: usize) { bytes_sent += bytes as u64, msgs_sent += 1 }
    /// Counts one delivered message of `bytes`.
    add_recv(bytes: usize) { bytes_recv += bytes as u64 }
    /// Adds time spent blocked waiting for a matching message.
    add_recv_wait(wait: Duration) { recv_wait_ns += wait.as_nanos() as u64 }
    /// Counts one expired receive deadline.
    add_timeout() { timeouts += 1 }
    /// Counts one fault the installed plan injected on this rank's send
    /// path (drop, delay, corrupt, or kill).
    add_fault_injected() { faults_injected += 1 }
    /// Counts one received frame that failed its CRC32 check.
    add_corrupt_frame() { corrupt_frames += 1 }
    /// Counts one retried training step (transient-fault recovery).
    add_retry() { retries += 1 }
    /// Counts one step completed in degraded mode (dead peers rerouted).
    add_degraded_step() { degraded_steps += 1 }
    /// Counts one send or receive that named a rank outside the topology.
    add_invalid_rank() { invalid_ranks += 1 }
    /// Counts one received frame rejected for carrying a stale membership
    /// epoch (sent before the sender observed the current epoch).
    add_stale_epoch() { stale_epochs += 1 }
    /// Counts one replication frame of `bytes` shipped to the ring buddy.
    add_replica_sent(bytes: usize) { replica_bytes_sent += bytes as u64, replica_quanta += 1 }
    /// Counts one failover activation: this rank began hosting a dead
    /// ward's expert from its stored replica.
    add_failover_activation() { failover_activations += 1 }
    /// Counts one handback: a hosted expert's state streamed back to its
    /// rejoined owner.
    add_handback() { handbacks += 1 }
    /// Counts one durable snapshot shard of `bytes` committed to disk.
    add_snapshot_write(bytes: usize) { snapshot_bytes_written += bytes as u64, snapshot_shards += 1 }
    /// Counts one snapshot generation committed (manifest written by the
    /// coordinator after all shards acked durable).
    add_snapshot_generation() { snapshot_generations += 1 }
    /// Counts one restore from a durable snapshot generation.
    add_snapshot_restore() { snapshot_restores += 1 }
    /// Counts one restore that rebuilt this rank's expert from a buddy's
    /// on-disk replica because its own shard was missing or corrupt.
    add_snapshot_reconstruction() { snapshot_reconstructions += 1 }
    /// Counts one snapshot generation retired by retention GC.
    add_snapshot_gc() { snapshot_gc_removed += 1 }
    /// Counts one committed placement plan, with its replica count (server
    /// list entries past each expert's first), migrated-home count, and
    /// gray demotions.
    add_placement_plan(replications: u64, migrations: u64, demotions: u64) {
        placement_plans += 1,
        placement_replications += replications,
        placement_migrations += migrations,
        placement_demotions += demotions
    }
    /// Counts expert-state bytes streamed for a placement transfer.
    add_placement_transfer(bytes: usize) { placement_transfer_bytes += bytes as u64 }
}

/// The counter block for `rank`, creating it on first request.
pub fn counters_for_rank(rank: usize) -> Arc<RankCounters> {
    let mut reg = REGISTRY.lock().expect("counter registry poisoned");
    if let Some(c) = reg.iter().find(|c| c.rank == rank) {
        return Arc::clone(c);
    }
    let c = Arc::new(RankCounters::new(rank));
    reg.push(Arc::clone(&c));
    c
}

/// Snapshots every rank's counters, sorted by rank.
pub fn counter_snapshots() -> Vec<CounterSnapshot> {
    let mut snaps: Vec<CounterSnapshot> = REGISTRY
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|c| c.snapshot())
        .collect();
    snaps.sort_by_key(|s| s.rank);
    snaps
}

/// Zeroes every rank's counters (start of a measured interval), routing
/// boards included.
pub fn reset_counters() {
    for c in REGISTRY.lock().expect("counter registry poisoned").iter() {
        c.reset();
    }
    for b in ROUTING.lock().expect("routing registry poisoned").iter() {
        b.reset();
    }
}

static ROUTING: Mutex<Vec<Arc<RoutingBoard>>> = Mutex::new(Vec::new());

/// Per-expert routing loads a routing board can track; experts past this
/// index are ignored (traces stay bounded however large the layer is).
pub const MAX_ROUTING_EXPERTS: usize = 64;

/// One rank's per-expert routing tallies: tokens the gate admitted to each
/// expert plus tokens shed at the capacity edge. Gated on the recorder
/// switch like [`RankCounters`]; the placement policy keeps its own
/// (always-on) accumulators inside the layer, this board only feeds the
/// "routing" chrome counter track.
#[derive(Debug)]
pub struct RoutingBoard {
    rank: usize,
    loads: [AtomicU64; MAX_ROUTING_EXPERTS],
    shed: AtomicU64,
    routed: AtomicU64,
}

impl RoutingBoard {
    /// Adds `tokens` admitted to expert `e` (ignored past the cap).
    #[inline]
    pub fn add_expert_load(&self, e: usize, tokens: u64) {
        if crate::enabled() {
            if let Some(slot) = self.loads.get(e) {
                slot.fetch_add(tokens, Ordering::Relaxed);
            }
        }
    }

    /// Adds `tokens` shed at the capacity edge.
    #[inline]
    pub fn add_shed(&self, tokens: u64) {
        if crate::enabled() {
            self.shed.fetch_add(tokens, Ordering::Relaxed);
        }
    }

    /// Adds `tokens` total routed assignments.
    #[inline]
    pub fn add_routed(&self, tokens: u64) {
        if crate::enabled() {
            self.routed.fetch_add(tokens, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy, with the load vector trimmed past the last
    /// non-zero expert.
    pub fn snapshot(&self) -> RoutingSnapshot {
        let mut loads: Vec<u64> = self
            .loads
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect();
        while loads.last() == Some(&0) {
            loads.pop();
        }
        RoutingSnapshot {
            rank: self.rank,
            loads,
            shed: self.shed.load(Ordering::Relaxed),
            routed: self.routed.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for l in &self.loads {
            l.store(0, Ordering::Relaxed);
        }
        self.shed.store(0, Ordering::Relaxed);
        self.routed.store(0, Ordering::Relaxed);
    }
}

/// Plain-value copy of one rank's routing board.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingSnapshot {
    /// The rank the tallies belong to.
    pub rank: usize,
    /// Tokens admitted per expert, trimmed past the last non-zero entry.
    pub loads: Vec<u64>,
    /// Tokens shed at the capacity edge.
    pub shed: u64,
    /// Total routed token assignments.
    pub routed: u64,
}

/// The routing board for `rank`, creating it on first request.
pub fn routing_for_rank(rank: usize) -> Arc<RoutingBoard> {
    let mut reg = ROUTING.lock().expect("routing registry poisoned");
    if let Some(b) = reg.iter().find(|b| b.rank == rank) {
        return Arc::clone(b);
    }
    let b = Arc::new(RoutingBoard {
        rank,
        loads: std::array::from_fn(|_| AtomicU64::new(0)),
        shed: AtomicU64::new(0),
        routed: AtomicU64::new(0),
    });
    reg.push(Arc::clone(&b));
    b
}

/// Snapshots every rank's routing board, sorted by rank.
pub fn routing_snapshots() -> Vec<RoutingSnapshot> {
    let mut snaps: Vec<RoutingSnapshot> = ROUTING
        .lock()
        .expect("routing registry poisoned")
        .iter()
        .map(|b| b.snapshot())
        .collect();
    snaps.sort_by_key(|s| s.rank);
    snaps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_are_gated_on_the_recorder_switch() {
        let _g = crate::serial_tests();
        let c = counters_for_rank(901);
        crate::disable();
        c.add_send(100);
        assert_eq!(c.snapshot().bytes_sent, 0);
        crate::enable();
        c.add_send(100);
        c.add_recv(40);
        c.add_recv_wait(Duration::from_micros(5));
        c.add_timeout();
        c.add_fault_injected();
        c.add_corrupt_frame();
        c.add_retry();
        c.add_degraded_step();
        c.add_invalid_rank();
        c.add_stale_epoch();
        c.add_replica_sent(64);
        c.add_failover_activation();
        c.add_handback();
        c.add_snapshot_write(128);
        c.add_snapshot_generation();
        c.add_snapshot_restore();
        c.add_snapshot_reconstruction();
        c.add_snapshot_gc();
        crate::disable();
        let s = c.snapshot();
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(s.msgs_sent, 1);
        assert_eq!(s.bytes_recv, 40);
        assert_eq!(s.recv_wait_ns, 5_000);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.corrupt_frames, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.degraded_steps, 1);
        assert_eq!(s.invalid_ranks, 1);
        assert_eq!(s.stale_epochs, 1);
        assert_eq!(s.replica_bytes_sent, 64);
        assert_eq!(s.replica_quanta, 1);
        assert_eq!(s.failover_activations, 1);
        assert_eq!(s.handbacks, 1);
        assert_eq!(s.snapshot_bytes_written, 128);
        assert_eq!(s.snapshot_shards, 1);
        assert_eq!(s.snapshot_generations, 1);
        assert_eq!(s.snapshot_restores, 1);
        assert_eq!(s.snapshot_reconstructions, 1);
        assert_eq!(s.snapshot_gc_removed, 1);
        c.reset();
        assert_eq!(c.snapshot().replica_bytes_sent, 0);
        assert_eq!(c.snapshot().snapshot_bytes_written, 0);
        assert_eq!(c.snapshot().snapshot_shards, 0);
        assert_eq!(c.snapshot().bytes_sent, 0);
    }

    #[test]
    fn registry_returns_the_same_block_per_rank() {
        let a = counters_for_rank(902);
        let b = counters_for_rank(902);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(counter_snapshots().iter().any(|s| s.rank == 902));
    }

    #[test]
    fn routing_board_tracks_loads_shed_and_trims() {
        let _g = crate::serial_tests();
        let b = routing_for_rank(903);
        crate::enable();
        b.add_expert_load(0, 10);
        b.add_expert_load(2, 5);
        b.add_expert_load(MAX_ROUTING_EXPERTS + 7, 99); // silently ignored
        b.add_shed(3);
        b.add_routed(18);
        crate::disable();
        b.add_expert_load(0, 1_000); // gated off
        let s = b.snapshot();
        assert_eq!(s.rank, 903);
        assert_eq!(s.loads, vec![10, 0, 5]);
        assert_eq!(s.shed, 3);
        assert_eq!(s.routed, 18);
        assert!(routing_snapshots().iter().any(|s| s.rank == 903));
        b.reset();
        assert!(b.snapshot().loads.is_empty());
        assert_eq!(b.snapshot().shed, 0);
    }

    #[test]
    fn placement_counters_accumulate_and_reset() {
        let _g = crate::serial_tests();
        let c = counters_for_rank(904);
        crate::enable();
        c.add_placement_plan(2, 1, 1);
        c.add_placement_plan(0, 0, 0);
        c.add_placement_transfer(4096);
        crate::disable();
        let s = c.snapshot();
        assert_eq!(s.placement_plans, 2);
        assert_eq!(s.placement_replications, 2);
        assert_eq!(s.placement_migrations, 1);
        assert_eq!(s.placement_demotions, 1);
        assert_eq!(s.placement_transfer_bytes, 4096);
        c.reset();
        assert_eq!(c.snapshot().placement_plans, 0);
        assert_eq!(c.snapshot().placement_transfer_bytes, 0);
    }
}
