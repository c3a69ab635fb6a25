//! Loopback conformance suite for the [`Transport`] trait.
//!
//! Every property here runs against all three backends from one
//! parameterized harness: the channel reference, the shared-memory ring
//! backend, and the TCP backend. The properties are the semantic floor a
//! backend must clear before the fault-tolerance protocols can trust it:
//! FIFO per `(src, dst, tag)`, out-of-order parking across tags, stale
//! membership-epoch rejection, corrupt-frame surfacing, deadline expiry
//! on silent-but-live peers, typed disconnection on peer exit, barrier
//! synchronization, and the fault layer: every kind of injected fault
//! surfaces typed, counts once on its sender, and replays from its seed.
//!
//! [`Transport`]: schemoe_cluster::Transport

use std::time::{Duration, Instant};

use bytes::Bytes;
use schemoe_cluster::{
    ChaosLink, ChaosPlan, Fabric, FabricError, RankHandle, Topology, TransportKind,
};
use schemoe_obs as obs;

/// Backends under test. The shm backend only exists on unix hosts.
fn kinds() -> Vec<TransportKind> {
    if cfg!(unix) {
        TransportKind::ALL.to_vec()
    } else {
        vec![TransportKind::Channel, TransportKind::Tcp]
    }
}

/// Per-(src, dst, tag) FIFO: interleaved sends on two tags arrive in
/// send order within each tag, on every link of a 4-rank mesh.
#[test]
fn ordering_is_fifo_per_source_and_tag() {
    for kind in kinds() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run_on(kind, topo, |mut h| {
            let p = h.world_size();
            for dst in 0..p {
                for i in 0u8..8 {
                    let tag = u64::from(i % 2);
                    h.send(dst, tag, Bytes::copy_from_slice(&[i])).unwrap();
                }
            }
            let mut got = Vec::new();
            for src in 0..p {
                for tag in 0..2u64 {
                    for _ in 0..4 {
                        got.push(h.recv(src, tag).unwrap()[0]);
                    }
                }
            }
            got
        });
        for (rank, got) in results.iter().enumerate() {
            // From every source: evens in order on tag 0, odds on tag 1.
            let want: [u8; 8] = [0, 2, 4, 6, 1, 3, 5, 7];
            for (src_block, chunk) in got.chunks(8).enumerate() {
                assert_eq!(
                    chunk,
                    &want[..],
                    "{}: rank {rank} saw wrong order from source {src_block}",
                    kind.label()
                );
            }
        }
    }
}

/// Mismatched tags arriving mid-wait are parked, not lost or reordered.
#[test]
fn mismatched_tags_park_until_requested() {
    for kind in kinds() {
        let topo = Topology::new(1, 2);
        let results = Fabric::run_on(kind, topo, |mut h| {
            if h.rank() == 0 {
                h.send(1, 9, Bytes::from_static(b"later")).unwrap();
                h.send(1, 8, Bytes::from_static(b"now")).unwrap();
                Vec::new()
            } else {
                let now = h.recv_timeout(0, 8, Duration::from_secs(10)).unwrap();
                let later = h.recv_timeout(0, 9, Duration::from_secs(10)).unwrap();
                vec![now, later]
            }
        });
        assert_eq!(results[1][0].as_ref(), b"now", "{}", kind.label());
        assert_eq!(results[1][1].as_ref(), b"later", "{}", kind.label());
    }
}

/// A frame stamped with an older membership epoch is rejected as
/// `StaleEpoch`; control-plane frames bypass the check.
#[test]
fn stale_epochs_are_rejected_on_every_backend() {
    for kind in kinds() {
        let plan = ChaosPlan::seeded(31);
        let topo = Topology::new(1, 2);
        let results = Fabric::run_with(kind, topo, Some(plan), |mut h| {
            if h.rank() == 0 {
                h.send(1, 1, Bytes::from_static(b"old world")).unwrap();
                h.send_control(1, 2, Bytes::from_static(b"invite")).unwrap();
                h.barrier();
                None
            } else {
                h.advance_epoch();
                let stale = h.recv(0, 1).unwrap_err();
                let control = h.recv(0, 2).unwrap();
                assert_eq!(control.as_ref(), b"invite");
                h.barrier();
                Some(stale)
            }
        });
        assert_eq!(
            results[1],
            Some(FabricError::StaleEpoch {
                peer: 0,
                tag: 1,
                frame_epoch: 0,
                local_epoch: 1,
            }),
            "{}",
            kind.label()
        );
    }
}

/// An injected bit flip surfaces as a typed `Corrupt` error — the CRC
/// frame is validated on every backend, not just the channel one.
#[test]
fn corrupt_frames_surface_typed() {
    for kind in kinds() {
        let plan = ChaosPlan::seeded(32).with_default_link(ChaosLink {
            corrupt_prob: 1.0,
            ..ChaosLink::default()
        });
        let topo = Topology::new(1, 2);
        let results = Fabric::run_with(kind, topo, Some(plan), |mut h| {
            if h.rank() == 0 {
                h.send(1, 2, Bytes::from_static(b"tensor row")).unwrap();
                h.barrier();
                None
            } else {
                let err = h.recv(0, 2).unwrap_err();
                h.barrier();
                Some(err)
            }
        });
        assert_eq!(
            results[1],
            Some(FabricError::Corrupt { peer: 0, tag: 2 }),
            "{}",
            kind.label()
        );
    }
}

/// A live-but-silent peer turns into `Timeout` at the deadline — not a
/// hang, and not a premature failure.
#[test]
fn deadlines_expire_on_silent_peers() {
    for kind in kinds() {
        let topo = Topology::new(1, 2);
        let results = Fabric::run_on(kind, topo, |mut h| {
            if h.rank() == 0 {
                h.barrier();
                None
            } else {
                let t0 = Instant::now();
                let err = h.recv_timeout(0, 1, Duration::from_millis(80)).unwrap_err();
                let waited = t0.elapsed();
                h.barrier();
                assert!(
                    waited >= Duration::from_millis(80),
                    "{}: gave up early ({waited:?})",
                    kind.label()
                );
                assert!(
                    waited < Duration::from_secs(10),
                    "{}: deadline overshot ({waited:?})",
                    kind.label()
                );
                Some(err)
            }
        });
        assert!(
            matches!(
                results[1],
                Some(FabricError::Timeout {
                    peer: 0,
                    tag: 1,
                    ..
                })
            ),
            "{}: {:?}",
            kind.label(),
            results[1]
        );
    }
}

/// A peer that exits drains what it already sent, then fails typed with
/// `Disconnected` — never a hang, never lost buffered data. Repeated,
/// because the loss this guards against is a race: the producer publishes
/// its last record and its exit between two of the consumer's polls.
#[test]
fn peer_exit_drains_then_disconnects() {
    for kind in kinds() {
        for iter in 0..300usize {
            let n = 1 + iter % 4;
            let topo = Topology::new(1, 2);
            let results = Fabric::run_on(kind, topo, |mut h| {
                if h.rank() == 0 {
                    for i in 0..n {
                        h.send(1, 7, Bytes::copy_from_slice(&[i as u8])).unwrap();
                    }
                    Vec::new()
                } else {
                    (0..=n).map(|_| h.recv(0, 7)).collect()
                }
            });
            let want: Vec<Result<Bytes, FabricError>> = (0..n)
                .map(|i| Ok(Bytes::copy_from_slice(&[i as u8])))
                .chain([Err(FabricError::Disconnected { peer: 0 })])
                .collect();
            assert_eq!(results[1], want, "{} iteration {iter}", kind.label());
        }
    }
}

/// The barrier synchronizes all ranks on every backend.
#[test]
fn barrier_synchronizes_every_backend() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    for kind in kinds() {
        let topo = Topology::new(1, 4);
        let counter = AtomicUsize::new(0);
        Fabric::run_on(kind, topo, |h| {
            counter.fetch_add(1, Ordering::SeqCst);
            h.barrier();
            assert_eq!(counter.load(Ordering::SeqCst), 4, "{}", kind.label());
            h.barrier();
        });
        counter.store(0, Ordering::SeqCst);
    }
}

/// A simulated kill latches, posts on the liveness board, and peers'
/// deadline-sliced receives fail fast with `Disconnected` — the chaos
/// machinery is transport-agnostic.
#[test]
fn kill_latch_fails_peers_fast_on_every_backend() {
    for kind in kinds() {
        let plan = ChaosPlan::seeded(33)
            .kill_after(0, 1)
            .with_recv_deadline(Duration::from_secs(5));
        let topo = Topology::new(1, 2);
        let results = Fabric::run_with(kind, topo, Some(plan), |mut h| {
            if h.rank() == 0 {
                h.send(1, 0, Bytes::from_static(b"a")).unwrap();
                let err = h.send(1, 1, Bytes::from_static(b"b")).unwrap_err();
                assert!(h.is_dead());
                h.barrier();
                h.barrier(); // hold the endpoint open while rank 1 probes
                Some(err)
            } else {
                h.recv(0, 0).unwrap();
                h.barrier();
                let t0 = Instant::now();
                let err = h.recv(0, 1).unwrap_err();
                let waited = t0.elapsed();
                h.barrier();
                assert!(
                    waited < Duration::from_millis(1500),
                    "{}: fast-fail took {waited:?}",
                    kind.label()
                );
                Some(err)
            }
        });
        assert_eq!(
            results[1],
            Some(FabricError::Disconnected { peer: 0 }),
            "{}",
            kind.label()
        );
    }
}

/// A link flap fails sends typed for the window, tears the physical
/// stream down at window entry (a TCP peer observes EOF and the
/// recovery re-handshakes with a fresh `HELLO`), and traffic delivered
/// before the flap survives while post-flap traffic resumes cleanly.
#[test]
fn link_flaps_fail_typed_then_recover_on_every_backend() {
    for kind in kinds() {
        // Outbound sends 1 and 2 on the 0 -> 1 link flap; 0 and 3 pass.
        let chaos = ChaosPlan::seeded(41).flap_window(0, 1, 1, 3);
        let topo = Topology::new(1, 2);
        let results = Fabric::run_with(kind, topo, Some(chaos), |mut h| {
            if h.rank() == 0 {
                h.send(1, 5, Bytes::from_static(b"before")).unwrap();
                h.barrier(); // rank 1 drains "before" ahead of the teardown
                let e1 = h.send(1, 5, Bytes::from_static(b"flapped")).unwrap_err();
                let e2 = h.send(1, 5, Bytes::from_static(b"flapped")).unwrap_err();
                h.send(1, 5, Bytes::from_static(b"after")).unwrap();
                h.barrier();
                vec![Ok(e1), Ok(e2)]
            } else {
                let before = h.recv_timeout(0, 5, Duration::from_secs(10));
                h.barrier();
                let after = h.recv_timeout(0, 5, Duration::from_secs(10));
                h.barrier();
                vec![Err(before), Err(after)]
            }
        });
        for err in &results[0] {
            assert_eq!(
                *err,
                Ok(FabricError::Disconnected { peer: 1 }),
                "{}: flapped send must fail typed",
                kind.label()
            );
        }
        let got: Vec<_> = results[1]
            .iter()
            .map(|r| match r {
                Err(Ok(b)) => b.as_ref().to_vec(),
                other => panic!("{}: unexpected recv result {other:?}", kind.label()),
            })
            .collect();
        assert_eq!(
            got,
            vec![b"before".to_vec(), b"after".to_vec()],
            "{}: pre-flap data must survive and post-flap traffic resume",
            kind.label()
        );
    }
}

/// An asymmetric blackhole eats one direction only: the muted sender's
/// sends report success but never arrive (the receiver sees pure
/// silence and a typed `Timeout`), the reverse direction still
/// delivers, and the link recovers when the window closes.
#[test]
fn asymmetric_loss_silences_one_direction_only() {
    for kind in kinds() {
        // The first two outbound sends on 0 -> 1 vanish; 1 -> 0 is clean.
        let chaos = ChaosPlan::seeded(42).blackhole_window(0, 1, 0, 2);
        let topo = Topology::new(1, 2);
        let results = Fabric::run_with(kind, topo, Some(chaos), |mut h| {
            if h.rank() == 0 {
                h.send(1, 6, Bytes::from_static(b"eaten")).unwrap();
                h.send(1, 6, Bytes::from_static(b"eaten too")).unwrap();
                let reply = h.recv_timeout(1, 6, Duration::from_secs(10)).unwrap();
                assert_eq!(
                    reply.as_ref(),
                    b"reply",
                    "{}: the reverse direction must deliver",
                    kind.label()
                );
                h.barrier();
                h.send(1, 6, Bytes::from_static(b"recovered")).unwrap();
                h.barrier();
                None
            } else {
                let silent = h
                    .recv_timeout(0, 6, Duration::from_millis(200))
                    .unwrap_err();
                h.send(0, 6, Bytes::from_static(b"reply")).unwrap();
                h.barrier();
                let healed = h.recv_timeout(0, 6, Duration::from_secs(10)).unwrap();
                assert_eq!(
                    healed.as_ref(),
                    b"recovered",
                    "{}: the link must deliver once the window closes",
                    kind.label()
                );
                h.barrier();
                Some(silent)
            }
        });
        assert!(
            matches!(
                results[1],
                Some(FabricError::Timeout {
                    peer: 0,
                    tag: 6,
                    ..
                })
            ),
            "{}: a blackholed direction must look like silence, got {:?}",
            kind.label(),
            results[1]
        );
    }
}

/// `slow_rank` gray-failure shaping charges wall-clock on **every link
/// touching the marked rank, in both directions**, while links between
/// healthy ranks stay fast — on every backend. Shaping is sender-side,
/// so the slow cost lands in the sender's own `send` call, which is what
/// the placement controller's stall probes measure.
#[test]
fn slow_rank_shapes_only_its_links_on_every_backend() {
    for kind in kinds() {
        // 40 ms latency, no bandwidth ceiling: big enough to dominate any
        // scheduler noise, small enough to keep the suite fast.
        let chaos = ChaosPlan::seeded(44).slow_rank(1, Duration::from_millis(40), 0.0);
        let topo = Topology::new(1, 3);
        let results = Fabric::run_with(kind, topo, Some(chaos), |mut h| {
            let me = h.rank();
            let timed_send = |h: &mut RankHandle, dst: usize| {
                let t0 = Instant::now();
                h.send(dst, 3, Bytes::from_static(b"probe")).unwrap();
                t0.elapsed()
            };
            let out = match me {
                0 => {
                    let to_slow = timed_send(&mut h, 1);
                    let to_fast = timed_send(&mut h, 2);
                    vec![to_slow, to_fast]
                }
                1 => {
                    let from_slow = timed_send(&mut h, 2);
                    vec![from_slow]
                }
                _ => Vec::new(),
            };
            // Drain so no backend tears a link down mid-send.
            match me {
                1 => {
                    h.recv_timeout(0, 3, Duration::from_secs(10)).unwrap();
                }
                2 => {
                    h.recv_timeout(0, 3, Duration::from_secs(10)).unwrap();
                    h.recv_timeout(1, 3, Duration::from_secs(10)).unwrap();
                }
                _ => {}
            }
            h.barrier();
            out
        });
        let to_slow = results[0][0];
        let to_fast = results[0][1];
        let from_slow = results[1][0];
        assert!(
            to_slow >= Duration::from_millis(40),
            "{}: send toward the slow rank took {to_slow:?}",
            kind.label()
        );
        assert!(
            from_slow >= Duration::from_millis(40),
            "{}: send from the slow rank took {from_slow:?}",
            kind.label()
        );
        assert!(
            to_fast < Duration::from_millis(40),
            "{}: healthy link was shaped ({to_fast:?})",
            kind.label()
        );
    }
}

/// A refused link fails sends typed while leaving the existing stream
/// intact — the peer observes nothing — and a caller that simply
/// retries gets through once the refusal window closes, the
/// connect-with-retry contract every backend must honour.
#[test]
fn refused_links_recover_through_retry_on_every_backend() {
    for kind in kinds() {
        // The first two outbound sends on 0 -> 1 are refused dials.
        let chaos = ChaosPlan::seeded(43).refuse_window(0, 1, 0, 2);
        let topo = Topology::new(1, 2);
        let results = Fabric::run_with(kind, topo, Some(chaos), |mut h| {
            if h.rank() == 0 {
                let mut refusals = 0usize;
                loop {
                    match h.send(1, 4, Bytes::from_static(b"through")) {
                        Ok(()) => break,
                        Err(FabricError::Disconnected { peer: 1 }) => refusals += 1,
                        Err(other) => {
                            panic!("{}: refusal surfaced as {other:?}", kind.label())
                        }
                    }
                    assert!(refusals <= 8, "{}: retry never got through", kind.label());
                }
                h.barrier();
                refusals
            } else {
                let msg = h.recv_timeout(0, 4, Duration::from_secs(10)).unwrap();
                assert_eq!(
                    msg.as_ref(),
                    b"through",
                    "{}: the retried send must deliver",
                    kind.label()
                );
                h.barrier();
                0
            }
        });
        assert_eq!(
            results[0],
            2,
            "{}: exactly the windowed dials are refused",
            kind.label()
        );
    }
}

/// The two counter tests below read exact `obs` totals. The recorder is
/// process-global, so they take this lock against each other and act only
/// on ranks 4 and 5 of a 6-rank world — counter blocks no other test in
/// this binary (worlds of at most 4, none reading counters) ever touches.
static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` on a 6-rank world under `plan` with the recorder on, from
/// zeroed counters, and returns the results of ranks 4 and 5 beside their
/// counters (timing zeroed, so two runs compare equal).
fn counted<T: Send>(
    kind: TransportKind,
    plan: ChaosPlan,
    f: impl Fn(RankHandle) -> T + Sync,
) -> Vec<(T, obs::CounterSnapshot)> {
    let _serial = OBS.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset_counters();
    obs::enable();
    let results = Fabric::run_with(kind, Topology::new(1, 6), Some(plan), f);
    obs::disable();
    let counters = [4, 5].map(|rank| obs::CounterSnapshot {
        recv_wait_ns: 0,
        ..obs::counters_for_rank(rank).snapshot()
    });
    results.into_iter().skip(4).zip(counters).collect()
}

/// Every injected fault — flap, refusal, blackhole, lottery loss, stall,
/// corruption — counts once in the *sender's* `faults_injected`; shaping
/// is not a fault and counts nothing.
#[test]
fn every_injected_fault_counts_once_on_its_sender() {
    for kind in kinds() {
        let link = ChaosLink::default();
        let plan = ChaosPlan::seeded(46)
            .flap_window(4, 5, 0, 1)
            .refuse_window(4, 5, 1, 2)
            .blackhole_window(4, 5, 2, 3)
            .with_link(
                4,
                5,
                ChaosLink {
                    loss_prob: 1.0,
                    ..link
                },
            )
            .with_link(
                4,
                4,
                ChaosLink {
                    stall_prob: 1.0,
                    stall: Duration::from_millis(2),
                    ..link
                },
            )
            .with_link(
                5,
                4,
                ChaosLink {
                    corrupt_prob: 1.0,
                    latency: Duration::from_millis(1),
                    ..link
                },
            );
        let out = counted(kind, plan, |mut h| {
            let long = Duration::from_secs(10);
            let got = match h.rank() {
                4 => {
                    // Flapped, refused, blackholed, lost — in index order.
                    let sends: Vec<bool> = (0..4)
                        .map(|_| h.send(5, 1, Bytes::from_static(b"x")).is_ok())
                        .collect();
                    assert_eq!(sends, [false, false, true, true], "{}", kind.label());
                    h.send(4, 2, Bytes::from_static(b"stalled")).unwrap();
                    assert_eq!(h.recv_timeout(4, 2, long).unwrap().as_ref(), b"stalled");
                    Some(h.recv_timeout(5, 3, long))
                }
                5 => {
                    h.send(4, 3, Bytes::from_static(b"shaped and flipped"))
                        .unwrap();
                    None
                }
                _ => None,
            };
            h.barrier();
            got
        });
        let label = kind.label();
        assert_eq!(
            out[0].0,
            Some(Err(FabricError::Corrupt { peer: 5, tag: 3 })),
            "{label}"
        );
        assert_eq!(out[0].1.faults_injected, 5, "{label}: rank 4's five faults");
        assert_eq!(out[1].1.faults_injected, 1, "{label}: shaping is no fault");
        assert_eq!(out[0].1.corrupt_frames, 1, "{label}");
    }
}

/// One plan holding a kill, a blackhole window and a corrupt probability
/// replays: two runs of it leave identical error sequences and identical
/// per-rank counters, and every backend agrees with the channel reference.
#[test]
fn one_composed_plan_replays_identically_on_every_backend() {
    let run = |kind: TransportKind| {
        let plan = ChaosPlan::seeded(45)
            .kill_after(5, 3)
            .blackhole_window(4, 5, 1, 3)
            .with_link(
                5,
                4,
                ChaosLink {
                    corrupt_prob: 0.5,
                    ..ChaosLink::default()
                },
            )
            .with_recv_deadline(Duration::from_secs(5));
        counted(kind, plan, |mut h| {
            let msg = |i: u64| Bytes::copy_from_slice(&i.to_le_bytes());
            let short = Duration::from_millis(150);
            let mut log = Vec::new();
            if h.rank() == 4 {
                // Sends 1 and 2 vanish into the window.
                log.extend((0..4).map(|i| h.send(5, i, msg(i)).map(|()| Bytes::new())));
            }
            h.barrier();
            if h.rank() == 5 {
                log.extend((0..4).map(|i| h.recv_timeout(4, i, short)));
                // Three sends meet the corrupt lottery; the fourth attempt
                // is the kill.
                log.extend((0..4).map(|i| h.send(4, i, msg(i)).map(|()| Bytes::new())));
                assert!(h.is_dead());
            }
            h.barrier();
            if h.rank() == 4 {
                // The death is posted: the message that never left fails
                // fast instead of burning the 5 s deadline.
                log.extend((0..4).map(|i| h.recv(5, i)));
            }
            h.barrier(); // hold every endpoint open until the last probe
            log
        })
    };
    let reference = run(TransportKind::Channel);
    let (sender, victim) = (&reference[0], &reference[1]);
    let timeout = |tag| FabricError::Timeout {
        peer: 4,
        tag,
        waited: Duration::from_millis(150),
    };
    assert_eq!(victim.0[1], Err(timeout(1)));
    assert_eq!(victim.0[2], Err(timeout(2)));
    assert_eq!(victim.0[7], Err(FabricError::Disconnected { peer: 5 }));
    assert_eq!(sender.0[7], Err(FabricError::Disconnected { peer: 5 }));
    let corrupt = sender.0[4..7].iter().filter(|r| r.is_err()).count() as u64;
    assert!((1..=2).contains(&corrupt), "seed 45 flips some, not all");
    assert_eq!(sender.1.faults_injected, 2, "the two blackholed sends");
    assert_eq!(victim.1.faults_injected, corrupt + 1, "flips plus the kill");
    assert_eq!(sender.1.corrupt_frames, corrupt);
    for kind in kinds() {
        assert_eq!(run(kind), reference, "{} first run", kind.label());
        assert_eq!(run(kind), reference, "{} replay", kind.label());
    }
}

/// The data path's ownership rule on every backend: a received payload is
/// a window onto the buffer the record arrived in — holding the payload
/// holds the buffer, on whichever rank's pool it came from — and the
/// buffer goes home when the payload, a parked frame, or a corrupt frame
/// is dropped. One peer flooding a thousand records leaves no pool holding
/// more than its cap, and a torn-down fabric leaves nothing checked out.
#[test]
fn a_received_payload_is_a_window_and_its_buffer_goes_home() {
    const FLOOD: usize = 1000;
    for kind in kinds() {
        let results = Fabric::run_on(kind, Topology::new(1, 2), |mut h| {
            let frames = h.frames();
            let pool = frames.pool().clone();
            // Bytes checked out of this rank's pool at each quiet point.
            let mut outstanding = Vec::new();
            let mut quiesce = |h: &RankHandle| {
                h.barrier();
                let (in_use, retained, cap) = pool.usage();
                outstanding.push(in_use);
                assert!(retained <= cap);
                h.barrier();
            };
            if h.rank() == 0 {
                // Built in place, sealed in place: tag 1, two for tag 7,
                // then the tag 2 the receiver asks for first.
                for (tag, fill) in [(1, 0xA1u8), (7, 0x71), (7, 0x72), (2, 0xB2)] {
                    let mut frame = frames.checkout(4096);
                    frame.body_mut().extend_from_slice(&[fill; 4096]);
                    h.send_frame(1, tag, frame).unwrap();
                }
                quiesce(&h); // four held by the receiver
                quiesce(&h); // none
                for i in 0..FLOOD {
                    h.send(1, 9, Bytes::from(vec![i as u8; 2048])).unwrap();
                }
                quiesce(&h); // the flood is queued, parked or in flight
                quiesce(&h); // drained
            } else {
                let asked = h.recv(0, 2).unwrap();
                let first = h.recv(0, 1).unwrap();
                assert!(asked.iter().all(|&b| b == 0xB2) && asked.len() == 4096);
                assert!(first.iter().all(|&b| b == 0xA1) && first.len() == 4096);
                quiesce(&h);
                drop((asked, first));
                assert_eq!(h.discard_parked(|_, tag| tag == 7), 2);
                quiesce(&h);
                quiesce(&h);
                for i in 0..FLOOD {
                    assert_eq!(h.recv(0, 9).unwrap()[0], i as u8);
                }
                quiesce(&h);
            }
            (outstanding, pool)
        });
        let held = |at: usize| results.iter().map(|(counts, _)| counts[at]).sum::<usize>();
        // Two payloads and two parked frames: four buffers of 4 KiB and up.
        let four = 4 * 4096..=4 * 2 * 4096;
        assert!(
            four.contains(&held(0)),
            "{}: held {}",
            kind.label(),
            held(0)
        );
        assert_eq!(held(1), 0, "{}: dropped and discarded", kind.label());
        assert_eq!(held(3), 0, "{}: flood drained", kind.label());
        for (rank, (_, pool)) in results.iter().enumerate() {
            assert_eq!(pool.usage().0, 0, "{} rank {rank} torn down", kind.label());
        }

        // A frame that fails its CRC gives its buffer back too.
        let plan = ChaosPlan::seeded(32).with_default_link(ChaosLink {
            corrupt_prob: 1.0,
            ..ChaosLink::default()
        });
        let results = Fabric::run_with(kind, Topology::new(1, 2), Some(plan), |mut h| {
            if h.rank() == 0 {
                h.send(1, 2, Bytes::from_static(b"tensor row")).unwrap();
            } else {
                let corrupt = FabricError::Corrupt { peer: 0, tag: 2 };
                assert_eq!(h.recv(0, 2).unwrap_err(), corrupt);
            }
            h.barrier();
            h.frames().pool().usage().0
        });
        assert_eq!(results, vec![0, 0], "{}: corrupt frame", kind.label());
    }
}
