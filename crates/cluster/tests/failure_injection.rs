//! Failure-injection tests: how the fabric behaves when ranks misbehave.
//!
//! A production fabric must fail loudly, not hang: a peer that exits early
//! must surface as [`FabricError::Disconnected`] to anyone still waiting
//! on it, and messages sent before an orderly exit must still be
//! deliverable (channels drain before they error). A peer that stays
//! *alive but silent* — the failure mode `Disconnected` cannot see — must
//! surface as [`FabricError::Timeout`] via `recv_timeout` rather than
//! wedging the receiver forever.

use std::time::{Duration, Instant};

use bytes::Bytes;
use schemoe_cluster::{Fabric, FabricError, Topology};

/// A rank that exits without sending leaves its peers with a clean
/// `Disconnected` error instead of a hang.
#[test]
fn early_exit_surfaces_as_disconnected() {
    let topo = Topology::new(1, 2);
    let results = Fabric::run(topo, |mut h| {
        if h.rank() == 0 {
            // Exit immediately: rank 1's recv must fail, not block forever.
            Ok(Bytes::new())
        } else {
            h.recv(0, 42)
        }
    });
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err(),
        &FabricError::Disconnected { peer: 0 }
    );
}

/// Messages sent before an orderly exit are still delivered: channel
/// buffers drain before the disconnect error appears.
#[test]
fn buffered_messages_survive_sender_exit() {
    let topo = Topology::new(1, 2);
    let results = Fabric::run(topo, |mut h| {
        if h.rank() == 0 {
            h.send(1, 7, Bytes::from_static(b"parting gift")).unwrap();
            Vec::new()
        } else {
            let first = h.recv(0, 7).unwrap();
            // The second recv finds an empty, closed channel.
            let second = h.recv(0, 7);
            vec![Ok(first), second]
        }
    });
    assert_eq!(results[1][0].as_ref().unwrap().as_ref(), b"parting gift");
    assert_eq!(
        results[1][1].as_ref().unwrap_err(),
        &FabricError::Disconnected { peer: 0 }
    );
}

/// Sending to a rank that already exited does not error (unbounded
/// channels absorb it) — matching MPI's eager-send semantics — while
/// sending to a nonexistent rank errors immediately.
#[test]
fn send_semantics_under_failure() {
    let topo = Topology::new(1, 3);
    let results = Fabric::run(topo, |h| {
        match h.rank() {
            0 => vec![],
            1 => {
                // Give rank 0 time to exit, then send to it anyway.
                std::thread::sleep(std::time::Duration::from_millis(50));
                vec![h.send(0, 1, Bytes::from_static(b"late"))]
            }
            _ => vec![h.send(99, 1, Bytes::new())],
        }
    });
    // The late send may succeed or report disconnection depending on drop
    // timing, but must not panic or hang; the invalid-rank send must error.
    if let Some(r) = results[1].first() {
        assert!(
            r.is_ok() || matches!(r, Err(FabricError::Disconnected { .. })),
            "unexpected send result: {r:?}"
        );
    }
    assert!(matches!(
        results[2].first().unwrap(),
        Err(FabricError::InvalidRank { .. })
    ));
}

/// A tag mismatch never steals another tag's message: even when the peer
/// dies after sending, parked messages for other tags remain retrievable.
#[test]
fn tag_isolation_survives_peer_death() {
    let topo = Topology::new(1, 2);
    let results = Fabric::run(topo, |mut h| {
        if h.rank() == 0 {
            h.send(1, 5, Bytes::from_static(b"five")).unwrap();
            h.send(1, 9, Bytes::from_static(b"nine")).unwrap();
            Vec::new()
        } else {
            // Ask for tag 9 first: tag 5 gets parked; then retrieve it
            // after the sender is gone.
            let nine = h.recv(0, 9).unwrap();
            let five = h.recv(0, 5).unwrap();
            vec![nine, five]
        }
    });
    assert_eq!(results[1][0].as_ref(), b"nine");
    assert_eq!(results[1][1].as_ref(), b"five");
}

/// A rank that never sends while staying alive must produce `Timeout`
/// within the deadline — not a hang, and not `Disconnected`.
#[test]
fn silent_live_rank_surfaces_timeout() {
    let topo = Topology::new(1, 2);
    let results = Fabric::run(topo, |mut h| {
        if h.rank() == 0 {
            // The faulty rank: alive (parked on the barrier) but silent on
            // the tag rank 1 is waiting for.
            h.barrier();
            Ok(Bytes::new())
        } else {
            let started = Instant::now();
            let r = h.recv_timeout(0, 42, Duration::from_millis(100));
            let waited = started.elapsed();
            // The receive must give up promptly — well before the minutes
            // a hung test would take to be killed externally.
            assert!(waited >= Duration::from_millis(100));
            assert!(waited < Duration::from_secs(10));
            h.barrier();
            r
        }
    });
    match &results[1] {
        Err(FabricError::Timeout { peer, tag, waited }) => {
            assert_eq!(*peer, 0);
            assert_eq!(*tag, 42);
            assert!(*waited >= Duration::from_millis(100));
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// `recv_timeout` distinguishes a dead peer from a silent one: channel
/// endpoints dropped means `Disconnected`, never `Timeout`.
#[test]
fn recv_timeout_reports_crashed_rank_as_disconnected() {
    let topo = Topology::new(1, 2);
    let results = Fabric::run(topo, |mut h| {
        if h.rank() == 0 {
            // Exit immediately: all of rank 0's channel endpoints drop.
            None
        } else {
            Some(h.recv_timeout(0, 7, Duration::from_secs(30)))
        }
    });
    assert_eq!(
        results[1].clone().expect("rank 1 result"),
        Err(FabricError::Disconnected { peer: 0 })
    );
}

/// Messages that arrive before the deadline are delivered, and unrelated
/// tags arriving meanwhile are parked, not lost.
#[test]
fn late_but_in_deadline_message_is_delivered() {
    let topo = Topology::new(1, 2);
    let results = Fabric::run(topo, |mut h| {
        if h.rank() == 0 {
            // An unrelated tag first, then the awaited one after a delay.
            h.send(1, 99, Bytes::from_static(b"noise")).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            h.send(1, 5, Bytes::from_static(b"payload")).unwrap();
            Vec::new()
        } else {
            let wanted = h.recv_timeout(0, 5, Duration::from_secs(5)).unwrap();
            // The parked noise tag is still retrievable afterwards.
            let noise = h.recv_timeout(0, 99, Duration::from_secs(5)).unwrap();
            vec![wanted, noise]
        }
    });
    assert_eq!(results[1][0].as_ref(), b"payload");
    assert_eq!(results[1][1].as_ref(), b"noise");
}

/// After a timeout the handle stays usable: a later send on the same
/// `(peer, tag)` is received normally.
#[test]
fn handle_recovers_after_timeout() {
    let topo = Topology::new(1, 2);
    let results = Fabric::run(topo, |mut h| {
        if h.rank() == 0 {
            // Let rank 1 time out once, then supply the message.
            h.barrier();
            h.send(1, 3, Bytes::from_static(b"second-try")).unwrap();
            Bytes::new()
        } else {
            let first = h.recv_timeout(0, 3, Duration::from_millis(50));
            assert!(matches!(first, Err(FabricError::Timeout { .. })));
            h.barrier();
            h.recv_timeout(0, 3, Duration::from_secs(5)).unwrap()
        }
    });
    assert_eq!(results[1].as_ref(), b"second-try");
}

mod fault_plan_purity {
    use std::time::Duration;

    use proptest::prelude::*;
    use schemoe_cluster::{ChaosDecision, ChaosLink, ChaosPlan};

    /// One observation of the plan: every link decision for a small world
    /// plus the liveness verdict at every attempt count, tagged by key so
    /// order of observation cannot matter.
    type Observation = Vec<(u64, u64, u64, ChaosDecision, bool)>;

    fn observe(plan: &ChaosPlan, keys: &[(usize, usize, u64)]) -> Observation {
        keys.iter()
            .map(|&(src, dst, idx)| {
                (
                    src as u64,
                    dst as u64,
                    idx,
                    plan.decide(src, dst, idx),
                    plan.rank_alive(src, idx),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every decision of the one plan — flap, refusal and blackhole
        /// windows, the loss / corrupt / stall lottery via `decide`, kill
        /// and revive via `rank_alive` — is a pure function of
        /// `(plan, src, dst, link_idx)`. Two threads replaying independent
        /// clones of the plan under opposite traversal orders (a forced
        /// difference in thread interleaving) must observe bit-identical
        /// sequences, and both must match a single-threaded replay built
        /// fresh from the same parameters.
        #[test]
        fn decisions_are_pure_across_thread_interleavings(
            seed in 0u64..1_000_000,
            loss_prob in 0.0f64..0.5,
            corrupt_prob in 0.0f64..0.4,
            stall_prob in 0.0f64..0.4,
            window in (0u64..48, 0u64..16),
            kill in 0u64..48,
            dead_window in 0u64..32,
        ) {
            let build = || {
                let (start, len) = window;
                ChaosPlan::seeded(seed)
                    .with_default_link(ChaosLink {
                        loss_prob,
                        corrupt_prob,
                        stall_prob,
                        stall: Duration::from_micros(10),
                        ..ChaosLink::default()
                    })
                    .flap_window(0, 1, start, start + len)
                    .refuse_window(1, 0, start, start + len)
                    .partition(&[0, 1], &[2, 3], start + len / 2, start + 2 * len)
                    .kill_after(2, kill)
                    .revive_after(2, kill + dead_window)
            };
            let keys: Vec<(usize, usize, u64)> = (0..4usize)
                .flat_map(|s| (0..4usize).map(move |d| (s, d)))
                .flat_map(|(s, d)| (0..64u64).map(move |i| (s, d, i)))
                .collect();

            // Thread A walks the key space forward, thread B backward; the
            // reversal guarantees the two threads hit every key at
            // different points of their schedules.
            let forward = keys.clone();
            let mut backward = keys.clone();
            backward.reverse();
            let (obs_a, obs_b) = std::thread::scope(|scope| {
                let a = scope.spawn(|| observe(&build(), &forward));
                let b = scope.spawn(|| {
                    let mut obs = observe(&build(), &backward);
                    obs.reverse();
                    obs
                });
                (a.join().expect("thread A"), b.join().expect("thread B"))
            });
            prop_assert_eq!(&obs_a, &obs_b);
            prop_assert_eq!(&obs_a, &observe(&build(), &keys));
        }
    }
}
