//! The control plane's wire kit: the lane table, the redundant-copy
//! primitive, gather/broadcast, and the verified state receive.
//!
//! Every control-plane tag is computed here, from one table: a [`Lane`]
//! resolves — given its scope value (a step, a generation, an attempt's
//! tag window) — to a [`Tag`] that carries the lane's copy count and
//! stamping along with the tag itself, so callers can neither do tag
//! arithmetic nor pick a copy convention of their own.
//!
//! The one copy convention: a frame is sent as many times as its lane has
//! copies, every copy **on the lane's tag**; the receiver asks for that tag up to as many times and
//! the first intact, parseable copy wins. A lost, damaged or late copy
//! costs one of those tries and nothing else; copies that arrive after the
//! accepted one stay parked until [`closed`] lets the train loop discard
//! them. The only error any primitive here returns for a fault is this
//! rank's *own* death — everything a peer or a link can do is absorbed by
//! the copies and reported as absence.
//!
//! A saved state payload (rejoin state, handback, placement transfer)
//! travels like any other frame: the lane's copies of one sealed
//! checkpoint, bounded only by the transport's record bound.

use std::time::Duration;

use bytes::Bytes;
use schemoe_cluster::{FabricError, RankHandle};
use schemoe_collectives::TAG_STRIDE;
use schemoe_tensor::checkpoint;

/// How many duplicates of each vote-class control frame are sent. A frame
/// is lost only if every copy is, so the loss probability is `drop_prob ^
/// VOTE_COPIES` per (link, round).
pub const VOTE_COPIES: u64 = 4;

/// Copies of each bulk frame (state payloads, placement reports and
/// plans): redundancy against a single drop at half the vote lanes' cost.
const XFER_COPIES: u64 = 2;

/// Tag offset (from the start of an attempt's tag window) of the gradient
/// allreduce slots; see [`allreduce_tag`].
pub const ALLREDUCE_LANE: u64 = TAG_STRIDE - 4096;

/// The tag of gradient-allreduce slot `slot` in the attempt window at
/// `step_tag`. `allreduce_live` occupies two tags per call, hence the
/// stride: slot 0 carries the gradients folded into the MoE backward task
/// graph, slot 1 those that only exist after it, slot `2 + e` expert `e`'s
/// sync-group reduce under a committed placement.
pub fn allreduce_tag(step_tag: u64, slot: u64) -> u64 {
    step_tag + ALLREDUCE_LANE + 2 * slot
}

/// The tag window of the attempt after the one at `step_tag`.
pub fn next_attempt(step_tag: u64) -> u64 {
    step_tag + TAG_STRIDE
}

/// Control tags live far above every training-step window (step tags
/// grow from 0 by [`TAG_STRIDE`] per attempt) and describe themselves:
/// `[1][scope kind][lane][scope value][2^20-tag window]`.
const CONTROL_BASE: u64 = 1 << 62;
const KIND_SHIFT: u32 = 56;
const LANE_SHIFT: u32 = 44;
const SCOPE_SHIFT: u32 = 20;

/// Scope values (steps, generations) a scoped lane has windows for.
const MAX_SCOPE: u64 = 1 << (LANE_SHIFT - SCOPE_SHIFT);

/// Offset of the vote rounds inside an attempt's own tag window.
const VOTE_OFFSET: u64 = TAG_STRIDE - 256;

/// What numbers a lane's windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    /// One window for the whole run; receivers drain, nothing is reused.
    Global,
    /// One window per committed step.
    Step,
    /// One window per snapshot generation.
    Generation,
    /// Inside a training attempt's own tag window.
    Attempt,
}

/// Every control-plane conversation has a lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// A dead or parked rank announcing itself to every peer.
    Announce,
    /// The re-admission ticket survivors send a rejoiner.
    Invite,
    /// Parked ranks pinging for each other across a healing partition.
    Park,
    /// The lowest parked rank's common resume point.
    Resume,
    /// The coordinator's admission mask at a rejoin quantum.
    Decision,
    /// A whole expert frame for the buddy.
    Replica,
    /// A rank's durable-shard ack to the snapshot coordinator.
    SnapshotAck,
    /// Sender-timed stall probes of a placement quantum.
    Probe,
    /// Load reports to the placement coordinator.
    Report,
    /// The coordinator's plan (or no-plan marker).
    Plan,
    /// Each rank's staged-cleanly flag.
    Ready,
    /// The coordinator's commit/abort decision.
    Commit,
    /// Expert bodies sent to a placement's new servers; sub = expert.
    Transfer,
    /// Replicated state sent to a rejoiner.
    State,
    /// A hosted expert sent back to its revived owner.
    Handback,
    /// The two gossip rounds of an attempt's vote; sub = round.
    Vote,
}

impl Lane {
    /// The lane table: what scopes the lane's windows, how many
    /// sub-windows (one tag each) a scope value has (experts of a
    /// placement step, rounds of a vote), how many copies of each frame
    /// travel, and whether frames are stamped `EPOCH_ANY` (they cross
    /// membership epochs by construction) rather than with the sender's
    /// epoch.
    #[rustfmt::skip]
    fn spec(self) -> (Scope, u64, u64, bool) {
        use Scope::{Attempt, Generation, Global, Step};
        match self {
            Lane::Announce    => (Global,     1,   VOTE_COPIES, true),
            Lane::Invite      => (Global,     1,   VOTE_COPIES, true),
            Lane::Park        => (Global,     1,   VOTE_COPIES, true),
            Lane::Resume      => (Global,     1,   VOTE_COPIES, true),
            Lane::Decision    => (Step,       1,   VOTE_COPIES, true),
            Lane::Replica     => (Step,       1,   1,           false),
            Lane::SnapshotAck => (Generation, 1,   VOTE_COPIES, true),
            Lane::Probe       => (Step,       1,   1,           true),
            Lane::Report      => (Step,       1,   XFER_COPIES, true),
            Lane::Plan        => (Step,       1,   XFER_COPIES, true),
            Lane::Ready       => (Step,       1,   VOTE_COPIES, true),
            Lane::Commit      => (Step,       1,   VOTE_COPIES, true),
            Lane::Transfer    => (Step,       256, XFER_COPIES, true),
            Lane::State       => (Step,       1,   XFER_COPIES, true),
            Lane::Handback    => (Step,       1,   XFER_COPIES, true),
            Lane::Vote        => (Attempt,    2,   VOTE_COPIES, false),
        }
    }

    /// The lane's window for `scope`: a committed step, a snapshot
    /// generation, an attempt's tag window (`Vote`), or 0 for the
    /// run-global lanes.
    pub fn at(self, scope: u64) -> Result<Tag, FabricError> {
        self.sub(scope, 0)
    }

    /// Sub-window `sub` of the lane's window for `scope`. A sub-window or
    /// scope the table has no room for is a typed error, never a tag in
    /// some other lane's window.
    pub fn sub(self, scope: u64, sub: u64) -> Result<Tag, FabricError> {
        let (kind, subs, copies, control) = self.spec();
        let namespace = CONTROL_BASE | (kind as u64) << KIND_SHIFT | (self as u64) << LANE_SHIFT;
        let (window, scopes) = match kind {
            Scope::Attempt => (scope + VOTE_OFFSET, CONTROL_BASE),
            Scope::Global => (namespace, 1),
            Scope::Step | Scope::Generation => (namespace | scope << SCOPE_SHIFT, MAX_SCOPE),
        };
        for (needed, have) in [(sub + 1, subs), (scope + 1, scopes)] {
            if needed > have {
                return Err(FabricError::WindowOverflow {
                    tag: window,
                    needed,
                    width: have,
                });
            }
        }
        Ok(Tag {
            tag: window + sub,
            copies,
            control,
        })
    }
}

/// One resolved lane window: where to send, how many copies, how stamped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tag {
    tag: u64,
    copies: u64,
    control: bool,
}

/// True when `tag` lies in a window this rank will never ask for again,
/// given the tag window of its *next* attempt (everything below belongs to
/// attempts that already voted), the steps it has committed (every quantum
/// scoped by one of them has run) and the snapshot generations it has
/// started. The train loop hands this to [`RankHandle::discard_parked`]
/// once per committed step so surplus copies and frames of torn rounds do
/// not accumulate.
pub fn closed(tag: u64, next_attempt: u64, steps: u64, generations: u64) -> bool {
    if tag < CONTROL_BASE {
        return tag < next_attempt;
    }
    let scope = (tag >> SCOPE_SHIFT) & (MAX_SCOPE - 1);
    let kind = (tag >> KIND_SHIFT) & 3;
    (kind == Scope::Step as u64 && scope <= steps)
        || (kind == Scope::Generation as u64 && scope <= generations)
}

/// Lets every fault through as "nothing arrived" except this rank's own
/// death, the one condition no copy can cover.
fn unless_dead<T>(h: &RankHandle, r: Result<T, FabricError>) -> Result<Option<T>, FabricError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(FabricError::Disconnected { peer }) if peer == h.rank() => {
            Err(FabricError::Disconnected { peer })
        }
        Err(_) => Ok(None),
    }
}

/// Sends the lane's copies of `frame` to `to`; returns how many the link
/// accepted (0 means the peer certainly saw nothing).
pub fn send_copies(h: &RankHandle, to: usize, t: Tag, frame: &Bytes) -> Result<u64, FabricError> {
    let mut accepted = 0;
    for _ in 0..t.copies {
        let sent = if t.control {
            h.send_control(to, t.tag, frame.clone())
        } else {
            h.send(to, t.tag, frame.clone())
        };
        accepted += u64::from(unless_dead(h, sent)?.is_some());
    }
    Ok(accepted)
}

/// Takes the first copy from `from` that arrives intact and that `parse`
/// accepts; `None` once every try is spent.
pub fn recv_copy<T>(
    h: &mut RankHandle,
    from: usize,
    t: Tag,
    deadline: Duration,
    mut parse: impl FnMut(&Bytes) -> Option<T>,
) -> Result<Option<T>, FabricError> {
    for _ in 0..t.copies {
        let got = h.recv_timeout(from, t.tag, deadline);
        if let Some(v) = unless_dead(h, got)?.and_then(|m| parse(&m)) {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// One frame from each of `peers`, in order, or `None` — a coordinator
/// decides on everyone's word or not at all.
pub fn gather<T>(
    h: &mut RankHandle,
    peers: &[usize],
    t: Tag,
    deadline: Duration,
    mut parse: impl FnMut(usize, &Bytes) -> Option<T>,
) -> Result<Option<Vec<T>>, FabricError> {
    let mut out = Vec::with_capacity(peers.len());
    for &r in peers {
        match recv_copy(h, r, t, deadline, |m| parse(r, m))? {
            Some(v) => out.push(v),
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// The lane's copies of `frame` to each of `peers`, peer by peer.
pub fn broadcast(
    h: &RankHandle,
    peers: &[usize],
    t: Tag,
    frame: &Bytes,
) -> Result<(), FabricError> {
    for &r in peers {
        send_copies(h, r, t, frame)?;
    }
    Ok(())
}

/// Empties a run-global lane's queue from `from`, handing each frame to
/// `each`: waits `first` for the first frame, `rest` for stragglers.
pub fn drain(
    h: &mut RankHandle,
    from: usize,
    t: Tag,
    first: Duration,
    rest: Duration,
    mut each: impl FnMut(&Bytes),
) {
    let mut deadline = first;
    while let Ok(m) = h.recv_timeout(from, t.tag, deadline) {
        deadline = rest;
        each(&m);
    }
}

/// Receives a saved state payload sent with [`send_copies`]: **parse,
/// verify, then let the caller apply**. The first copy whose checkpoint
/// seal verifies is returned; when every copy is lost, late or damaged
/// (a donor death, a dropped frame, link damage) the result is `Corrupt`
/// and no partial state exists anywhere.
pub fn receive_state(
    h: &mut RankHandle,
    from: usize,
    t: Tag,
    deadline: Duration,
) -> Result<Vec<u8>, FabricError> {
    let verified = |m: &Bytes| checkpoint::verify(m).is_ok().then(|| m.to_vec());
    recv_copy(h, from, t, deadline, verified)?.ok_or(FabricError::Corrupt {
        peer: from,
        tag: t.tag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::{FtConfig, Half, RankState};
    use schemoe_cluster::{Fabric, Topology, TransportKind};
    use schemoe_collectives::{chunk_tag, lanes, MAX_PARTITION_DEGREE, MAX_PLAN_PHASES};

    const CONTROL_LANES: [Lane; 15] = [
        Lane::Announce,
        Lane::Invite,
        Lane::Park,
        Lane::Resume,
        Lane::Decision,
        Lane::Replica,
        Lane::SnapshotAck,
        Lane::Probe,
        Lane::Report,
        Lane::Plan,
        Lane::Ready,
        Lane::Commit,
        Lane::Transfer,
        Lane::State,
        Lane::Handback,
    ];

    /// Asserts the half-open tag ranges are pairwise disjoint.
    fn assert_disjoint(mut windows: Vec<(u64, u64, String)>) {
        windows.sort();
        for pair in windows.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "{} [{}, {}) overlaps {} [{}, {})",
                pair[0].2,
                pair[0].0,
                pair[0].1,
                pair[1].2,
                pair[1].0,
                pair[1].1
            );
        }
    }

    #[test]
    fn lane_windows_are_pairwise_disjoint_and_clear_of_step_traffic() {
        // Every control lane, at the scopes where neighbours would touch
        // (first, adjacent, last) and at its first and last sub-window,
        // each sub-window one tag.
        let mut windows = Vec::new();
        for lane in CONTROL_LANES {
            let global = lane.at(1).is_err();
            let scopes: &[u64] = if global {
                &[0]
            } else {
                &[0, 1, 2, 4095, 4096, MAX_SCOPE - 2, MAX_SCOPE - 1]
            };
            let subs = (1..).find(|&k| lane.sub(0, k).is_err()).unwrap();
            for &scope in scopes {
                for sub in std::collections::BTreeSet::from([0, subs - 1]) {
                    let t = lane.sub(scope, sub).unwrap();
                    windows.push((t.tag, t.tag + 1, format!("{lane:?}@{scope}/{sub}")));
                }
            }
            assert!(
                global || lane.at(MAX_SCOPE).is_err(),
                "{lane:?} has no bound"
            );
        }
        // Step traffic stays below the control plane for any run a u64 of
        // tags can hold: 2^38 attempts of TAG_STRIDE tags each.
        assert!(windows.iter().all(|w| w.0 >= CONTROL_BASE));
        assert_eq!(CONTROL_BASE, (1 << 38) * TAG_STRIDE);
        assert_disjoint(windows);

        // Inside one attempt window: both vote rounds, every allreduce
        // slot a 64-rank world can use, and the MoE layer's chunk tags at
        // every degree share the stride without touching.
        let step_tag = 7 * TAG_STRIDE;
        let mut inside = Vec::new();
        for round in 0..2 {
            let t = Lane::Vote.sub(step_tag, round).unwrap();
            inside.push((t.tag, t.tag + 1, format!("vote{round}")));
        }
        assert!(Lane::Vote.sub(step_tag, 2).is_err());
        for slot in 0..2 + 64 {
            let tag = allreduce_tag(step_tag, slot);
            inside.push((tag, tag + 2, format!("allreduce{slot}")));
        }
        for lane in [
            lanes::LANE_DISPATCH,
            lanes::LANE_COMBINE,
            lanes::LANE_BWD_GRAD,
            lanes::LANE_BWD_RETURN,
        ] {
            let first = chunk_tag(step_tag, lane, 0, 0);
            let last = chunk_tag(
                step_tag,
                lane,
                MAX_PARTITION_DEGREE - 1,
                MAX_PLAN_PHASES - 1,
            );
            inside.push((first, last + 1, format!("chunks@{lane}")));
        }
        assert!(inside
            .iter()
            .all(|w| w.0 >= step_tag && w.1 <= next_attempt(step_tag)));
        assert_disjoint(inside);
    }

    #[test]
    fn windows_close_with_their_scope_and_only_then() {
        let tag_of = |lane: Lane, scope: u64| lane.at(scope).unwrap().tag;
        // Step-scoped lanes close once their step has committed.
        for lane in [Lane::Ready, Lane::Replica, Lane::Transfer, Lane::Decision] {
            assert!(closed(tag_of(lane, 5), 0, 5, 0), "{lane:?}");
            assert!(closed(tag_of(lane, 5) + 3, 0, 9, 0), "{lane:?}");
            assert!(!closed(tag_of(lane, 5), u64::MAX, 4, u64::MAX), "{lane:?}");
        }
        // Acks close with their generation, not with steps.
        assert!(closed(tag_of(Lane::SnapshotAck, 3), 0, 0, 3));
        assert!(!closed(tag_of(Lane::SnapshotAck, 3), u64::MAX, u64::MAX, 2));
        // Run-global lanes are drained by their readers, never discarded.
        for lane in [Lane::Announce, Lane::Invite, Lane::Park, Lane::Resume] {
            assert!(!closed(tag_of(lane, 0), u64::MAX, u64::MAX, u64::MAX));
        }
        // Attempt windows — votes and data plane alike — close as a whole.
        let vote = Lane::Vote.sub(3 * TAG_STRIDE, 1).unwrap().tag;
        assert!(closed(vote, 4 * TAG_STRIDE, 0, 0));
        assert!(!closed(vote, 3 * TAG_STRIDE, u64::MAX, u64::MAX));
    }

    #[test]
    fn an_expert_past_the_old_16_mib_window_transfers_whole() {
        // An expert's weights at model_dim 512 / hidden_dim 4096 are
        // 16.8 MB, past 4,095 × 4 KiB: a state frame has no window bound,
        // only the transport's record bound.
        let mut cfg = FtConfig::tiny(1);
        cfg.model_dim = 512;
        cfg.hidden_dim = 4096;
        let got = Fabric::run_on(TransportKind::Channel, Topology::new(1, 2), |mut h| {
            let lane = Lane::Handback.at(3).unwrap();
            if h.rank() == 0 {
                let payload = RankState::new(&cfg, 0, 2).save(Half::OwnExpert);
                assert!(payload.len() > 4095 * 4096, "{} B", payload.len());
                let sent = send_copies(&h, 1, lane, &Bytes::from(payload.clone()));
                assert_eq!(sent, Ok(XFER_COPIES));
                payload
            } else {
                receive_state(&mut h, 0, lane, Duration::from_secs(30)).expect("verified")
            }
        });
        assert!(got[0] == got[1], "the payload arrives byte-equal");
    }

    #[test]
    fn an_expert_beyond_the_placement_window_is_a_typed_error() {
        let last = Lane::Transfer.sub(9, 255).unwrap();
        let first = Lane::Transfer.sub(9, 0).unwrap();
        assert_eq!(last.tag, first.tag + 255, "one tag per expert");
        assert!(last.tag < Lane::Transfer.sub(10, 0).unwrap().tag);
        assert!(matches!(
            Lane::Transfer.sub(9, 256),
            Err(FabricError::WindowOverflow {
                needed: 257,
                width: 256,
                ..
            })
        ));
    }
}
