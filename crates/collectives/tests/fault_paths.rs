//! Fault-path coverage for every collective algorithm.
//!
//! The contract under test: when one rank goes silent (alive but not
//! participating) or dies (its channel endpoints drop), every *other*
//! rank's exchange must fail with a typed [`FabricError`] within its
//! receive deadline — never hang, never panic. Each scenario runs under a
//! watchdog thread so a regression shows up as a loud test failure, not a
//! wedged CI job.
//!
//! The silent rank is parked at full health (its links stay open, so
//! peers see pure [`FabricError::Timeout`]); the dead rank returns
//! immediately (so peers see `Timeout` or
//! [`FabricError::Disconnected`], depending on who checks first). Silence
//! is position-sensitive for the hierarchical algorithms — a node leader
//! failing is a different code path from a member failing — so those run
//! once per role.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use schemoe_cluster::{Fabric, FabricError, RankHandle, Topology};
use schemoe_collectives::{
    allreduce_inplace, AllReduce, AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, RingAllReduce,
    TwoDimHierA2A,
};

/// Deadline installed on every live rank's handle.
const DEADLINE: Duration = Duration::from_millis(250);

/// How long a silent (but alive) rank stays parked: comfortably past every
/// live rank's deadline, so peers fail before its links close.
const PARK: Duration = Duration::from_millis(1_500);

/// Outer bound on one whole scenario.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread, failing the test if it hangs or panics.
fn under_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: collective hung past the {WATCHDOG:?} watchdog")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{name}: collective panicked instead of returning a typed error")
        }
    }
}

/// An error a live rank may legitimately observe when a peer fails.
fn is_typed_liveness_error(e: &FabricError) -> bool {
    matches!(
        e,
        FabricError::Timeout { .. } | FabricError::Disconnected { .. }
    )
}

/// Runs `alg` on a 2×2 fabric with `faulty` either parked (silent) or
/// returning immediately (dead); asserts every live rank gets a typed
/// error.
fn a2a_with_faulty_rank(alg: Arc<dyn AllToAll>, faulty: usize, dead: bool) {
    let name = alg.name();
    let results = under_watchdog(name, move || {
        Fabric::run(Topology::new(2, 2), move |mut h| {
            let me = h.rank();
            let p = h.world_size();
            if me == faulty {
                if !dead {
                    thread::sleep(PARK);
                }
                return None;
            }
            h.set_recv_deadline(Some(DEADLINE));
            let chunks: Vec<Bytes> = (0..p)
                .map(|j| Bytes::copy_from_slice(&[me as u8, j as u8]))
                .collect();
            Some(alg.all_to_all(&mut h, chunks, 0))
        })
    });
    for (r, res) in results.into_iter().enumerate() {
        if r == faulty {
            continue;
        }
        let err = res
            .expect("live rank ran the exchange")
            .expect_err("the exchange must fail when a peer is gone");
        assert!(
            is_typed_liveness_error(&err),
            "rank {r} under {name}: expected Timeout/Disconnected, got {err}"
        );
    }
}

/// One live rank's call of the all-reduce under test.
type AllReduceCall = fn(&mut RankHandle, &mut [f32]) -> Result<(), FabricError>;

/// Same scenario for a sum all-reduce.
fn allreduce_with_faulty_rank(name: &'static str, alg: AllReduceCall, faulty: usize, dead: bool) {
    let results = under_watchdog(name, move || {
        Fabric::run(Topology::new(2, 2), move |mut h| {
            let me = h.rank();
            if me == faulty {
                if !dead {
                    thread::sleep(PARK);
                }
                return None;
            }
            h.set_recv_deadline(Some(DEADLINE));
            let mut data = vec![me as f32; 64];
            Some(alg(&mut h, &mut data))
        })
    });
    for (r, res) in results.into_iter().enumerate() {
        if r == faulty {
            continue;
        }
        let err = res
            .expect("live rank ran the allreduce")
            .expect_err("the allreduce must fail when a peer is gone");
        assert!(
            is_typed_liveness_error(&err),
            "rank {r} under {name}: expected Timeout/Disconnected, got {err}"
        );
    }
}

// --- NCCL-style baseline: every rank is structurally identical, so one
// --- silent position plus one dead position covers it.

#[test]
fn nccl_times_out_on_a_silent_rank() {
    a2a_with_faulty_rank(Arc::new(NcclA2A), 1, false);
}

#[test]
fn nccl_errors_when_a_peer_dies() {
    a2a_with_faulty_rank(Arc::new(NcclA2A), 2, true);
}

// --- Pipelined A2A: intra-node and inter-node pairs are distinct stages;
// --- fail a same-node peer and a remote peer.

#[test]
fn pipe_times_out_on_a_silent_same_node_peer() {
    // Ranks 0 and 1 share node 0: rank 0 loses its intra-node partner.
    a2a_with_faulty_rank(Arc::new(PipeA2A::new()), 1, false);
}

#[test]
fn pipe_times_out_on_a_silent_remote_peer() {
    a2a_with_faulty_rank(Arc::new(PipeA2A::new()), 3, false);
}

#[test]
fn pipe_errors_when_a_peer_dies() {
    a2a_with_faulty_rank(Arc::new(PipeA2A::new()), 2, true);
}

// --- 1D-hierarchical: gather → leader exchange → scatter. A dead leader
// --- stalls its whole node *and* the remote leader; a dead member stalls
// --- the gather.

#[test]
fn hier1d_times_out_when_a_node_leader_is_silent() {
    a2a_with_faulty_rank(Arc::new(OneDimHierA2A), 0, false);
}

#[test]
fn hier1d_times_out_when_a_member_is_silent() {
    a2a_with_faulty_rank(Arc::new(OneDimHierA2A), 1, false);
}

#[test]
fn hier1d_times_out_when_the_remote_leader_is_silent() {
    a2a_with_faulty_rank(Arc::new(OneDimHierA2A), 2, false);
}

#[test]
fn hier1d_errors_when_a_leader_dies() {
    a2a_with_faulty_rank(Arc::new(OneDimHierA2A), 0, true);
}

// --- 2D-hierarchical: intra-node regroup then inter-node rail exchange;
// --- fail one rank per phase role.

#[test]
fn hier2d_times_out_when_a_local_peer_is_silent() {
    a2a_with_faulty_rank(Arc::new(TwoDimHierA2A), 1, false);
}

#[test]
fn hier2d_times_out_when_a_rail_peer_is_silent() {
    // Rank 3 is rank 1's inter-node rail partner on a 2×2 topology.
    a2a_with_faulty_rank(Arc::new(TwoDimHierA2A), 3, false);
}

#[test]
fn hier2d_errors_when_a_peer_dies() {
    a2a_with_faulty_rank(Arc::new(TwoDimHierA2A), 3, true);
}

// --- All-reduce: the naive algorithm has a root role; the ring has a
// --- uniform role but two passes over every link.

fn naive(h: &mut RankHandle, data: &mut [f32]) -> Result<(), FabricError> {
    allreduce_inplace(h, data, 0)
}

fn ring(h: &mut RankHandle, data: &mut [f32]) -> Result<(), FabricError> {
    RingAllReduce.all_reduce(h, data, 0)
}

#[test]
fn naive_allreduce_times_out_when_the_root_is_silent() {
    allreduce_with_faulty_rank("naive-allreduce", naive, 0, false);
}

#[test]
fn naive_allreduce_times_out_when_a_leaf_is_silent() {
    allreduce_with_faulty_rank("naive-allreduce", naive, 2, false);
}

#[test]
fn ring_allreduce_times_out_on_a_silent_rank() {
    allreduce_with_faulty_rank(RingAllReduce.name(), ring, 1, false);
}

#[test]
fn ring_allreduce_errors_when_a_peer_dies() {
    allreduce_with_faulty_rank(RingAllReduce.name(), ring, 1, true);
}
