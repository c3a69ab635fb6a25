//! Lost state transfers: the rejoin protocol's parse-then-verify-then-apply
//! discipline under donor death and link damage.
//!
//! These tests drive [`schemoe_models::ft::send_copies`] /
//! [`receive_state`](schemoe_models::ft::receive_state) on the rejoin
//! path's own lane, over the trainer's own [`RankState`] payloads — the
//! same functions the elastic-membership rejoin path uses — and assert the
//! failure contract: a transfer lost to a donor killed before it sends, or
//! damaged by a fully corrupting link, leaves the rejoiner's weights
//! bit-for-bit untouched and its membership epoch unchanged. A payload
//! travels as the lane's copies of one sealed frame, and nothing is
//! applied until a received copy's checkpoint seal verifies.

use std::time::Duration;

use bytes::Bytes;
use schemoe_cluster::{ChaosLink, ChaosPlan, Fabric, RankHandle, Topology, TransportKind};
use schemoe_models::ft::{receive_state, send_copies, Half, Lane, RankState};
use schemoe_models::FtConfig;
use schemoe_tensor::checkpoint;

/// The trainer's own rank state for rank `me` of `world`, seeded per rank
/// so donor and rejoiner start with different replicated weights.
fn rank_state(seed: u64, me: usize, world: usize) -> RankState {
    RankState::new(&FtConfig::tiny(4).with_seed(seed), me, world)
}

/// Runs donor (rank 0) and rejoiner (rank 1) under `plan`.
fn run_pair<T: Send>(plan: ChaosPlan, f: impl Fn(RankHandle) -> T + Sync) -> Vec<T> {
    let kind = TransportKind::from_env();
    Fabric::run_with(kind, Topology::new(1, 2), Some(plan), f)
}

/// Serializes every parameter (replicated and expert) for bit-exact
/// comparison.
fn full_snapshot(st: &mut RankState) -> Vec<u8> {
    checkpoint::save(&mut |f| st.model.visit_all(f))
}

/// This rank's expert weights (everything in the MoE layer but the gate).
fn expert_weights(st: &mut RankState) -> Vec<f32> {
    let mut weights = Vec::new();
    st.model.moe.visit_params(&mut |p| {
        if !p.name.starts_with("gate.") {
            weights.extend_from_slice(p.value.data());
        }
    });
    weights
}

#[test]
fn a_donor_killed_mid_stream_leaves_the_rejoiner_untouched() {
    // The donor dies before its first send: no copy of the state frame
    // ever leaves.
    let plan = ChaosPlan::seeded(21)
        .kill_after(0, 0)
        .with_recv_deadline(Duration::from_millis(200));
    let results = run_pair(plan, |mut h| {
        let mut st = rank_state(100 + h.rank() as u64, h.rank(), 2);
        let lane = Lane::State.at(7).unwrap();
        if h.rank() == 0 {
            // Donor half: the send must fail loudly with its own death,
            // never complete silently.
            let payload = Bytes::from(st.save(Half::Replicated));
            send_copies(&h, 1, lane, &payload).is_err()
        } else {
            let before = full_snapshot(&mut st);
            let epoch_before = h.epoch();
            let got = receive_state(&mut h, 0, lane, Duration::from_millis(300));
            assert!(got.is_err(), "a lost transfer must not verify");
            // Rollback contract: receive failed, so nothing was applied —
            // weights bit-identical, epoch unchanged.
            let after = full_snapshot(&mut st);
            assert_eq!(before, after, "partial state leaked into the model");
            assert_eq!(h.epoch(), epoch_before, "epoch must not move on failure");
            true
        }
    });
    assert!(results[0], "the donor must observe its own death");
    assert!(results[1]);
}

#[test]
fn a_fully_corrupting_link_cannot_install_partial_state() {
    // Every frame on the donor -> rejoiner link is bit-flipped, so every
    // copy of the state frame fails the wire CRC. The receive must fail
    // before verification ever sees a payload.
    let plan = ChaosPlan::seeded(22)
        .with_link(
            0,
            1,
            ChaosLink {
                corrupt_prob: 1.0,
                ..ChaosLink::default()
            },
        )
        .with_recv_deadline(Duration::from_millis(200));
    let results = run_pair(plan, |mut h| {
        let mut st = rank_state(200 + h.rank() as u64, h.rank(), 2);
        let lane = Lane::State.at(7).unwrap();
        if h.rank() == 0 {
            let payload = Bytes::from(st.save(Half::Replicated));
            // The link eats the frames after sending; the donor survives.
            send_copies(&h, 1, lane, &payload).is_ok()
        } else {
            let before = full_snapshot(&mut st);
            let got = receive_state(&mut h, 0, lane, Duration::from_millis(300));
            assert!(got.is_err(), "corrupted copies must not verify");
            let after = full_snapshot(&mut st);
            assert_eq!(before, after, "partial state leaked into the model");
            true
        }
    });
    assert!(results[0], "a corrupting link must not kill the donor");
    assert!(results[1]);
}

#[test]
fn an_intact_transfer_applies_atomically_and_matches_the_donor() {
    // Control case: same protocol, healthy wire. The rejoiner's replicated
    // parameters become bit-identical to the donor's; its expert — never
    // part of the transfer — keeps its own weights.
    let plan = ChaosPlan::seeded(23).with_recv_deadline(Duration::from_millis(500));
    let results = run_pair(plan, |mut h| {
        let mut st = rank_state(300 + h.rank() as u64, h.rank(), 2);
        let lane = Lane::State.at(7).unwrap();
        if h.rank() == 0 {
            let payload = st.save(Half::Replicated);
            send_copies(&h, 1, lane, &Bytes::from(payload.clone())).expect("healthy send");
            payload
        } else {
            let expert_before = expert_weights(&mut st);
            let payload = receive_state(&mut h, 0, lane, Duration::from_secs(2)).expect("verified");
            assert_ne!(st.save(Half::Replicated), payload, "seeds must differ");
            st.load(Half::Replicated, &payload)
                .expect("verified payload applies");
            assert_eq!(st.save(Half::Replicated), payload);
            assert_eq!(
                expert_before,
                expert_weights(&mut st),
                "experts are rank-local"
            );
            payload
        }
    });
    // The rejoiner received the donor's exact sealed payload, so its
    // replicated state now equals the donor's bit for bit.
    assert_eq!(results[0], results[1]);
    assert!(!results[0].is_empty());
}
