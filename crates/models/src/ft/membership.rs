//! Who is in the cluster: the per-attempt vote, burial under the quorum
//! rule, parking without quorum, and the announce / invite / resume paths
//! back in — over the rank state and the wire kit.

use std::time::Duration;

use bytes::Bytes;
use schemoe_cluster::{FabricError, RankHandle};
use schemoe_compression::record::{Reader, RecordError, Writer};

use super::state::{Half, RankState};
use super::wire::{self, Lane};
use super::Attempt;

/// Rejoin rounds a rank in limbo attempts before giving up for good.
const MAX_REJOIN_ROUNDS: usize = 8;

/// Park rounds a quorum-less rank waits for the cluster to heal before
/// giving up for good. Each round re-announces, re-pings, and polls for
/// invites and resumes, so the bound is on patience, not correctness.
const MAX_PARK_ROUNDS: usize = 256;

pub(super) fn bit(r: usize) -> u64 {
    1u64 << r
}

fn mask_of(ranks: impl IntoIterator<Item = usize>) -> u64 {
    ranks.into_iter().fold(0, |m, r| m | bit(r))
}

/// One rank's word in a vote round: `(status, suspects, confirmed)` —
/// nonzero status for a failed attempt, the ranks it suspects dead, and
/// the subset of those backed by first-hand disconnection evidence.
pub(super) type Ballot = (u8, u64, u64);

/// Ballot frame `[status u8][suspects u64][confirmed u64]`.
fn encode_ballot((status, suspects, confirmed): Ballot) -> Bytes {
    let mut w = Writer::new(17);
    w.u8(status).u64(suspects).u64(confirmed);
    Bytes::from(w.finish())
}

fn decode_ballot(m: &[u8]) -> Option<Ballot> {
    Reader::frame(m, |r| Ok((r.u8()?, r.u64()?, r.u64()?))).ok()
}

/// The outcome of one cluster-wide vote.
pub(super) struct Verdict {
    /// Some rank (possibly this one) reported a fault this attempt.
    pub(super) any_error: bool,
    /// Bitmask of ranks the cluster now considers dead.
    pub(super) suspects: u64,
    /// Subset of `suspects` backed by first-hand disconnection evidence —
    /// a closed link or a posted death — rather than silence. A confirmed
    /// death is buried regardless of quorum (a crashed rank cannot be on
    /// the other side of a partition); silence-only suspicions can bury
    /// a peer only while the remaining voters still form a majority.
    pub(super) confirmed: u64,
}

/// Pure tally of one vote round: folds the messages actually heard into
/// `(any_error, suspects, confirmed, unheard)`. `heard[r]` is the ballot
/// of a live peer whose vote arrived and `None` for one that was silent
/// across every copy; self and already-dead entries are skipped.
///
/// A silent peer forces an error verdict (the attempt cannot commit) and
/// lands in the *unheard* mask — it is NOT folded into the suspect set
/// here. Whether silence escalates to a death suspicion is [`vote`]'s
/// decision, made only from silence in *both* rounds: a peer that answers
/// late is a voter, not a suspect, and must not be double-counted as both.
/// The confirmed mask gossips separately so every voter learns which
/// suspicions carry first-hand disconnection evidence (see [`Verdict`]).
fn tally_round(
    me: usize,
    live: &[bool],
    (status, suspects, confirmed): Ballot,
    heard: &[Option<Ballot>],
) -> (bool, u64, u64, u64) {
    let mut any = status != 0;
    let mut sus = suspects;
    let mut conf = confirmed;
    let mut unheard = 0u64;
    for (r, &alive) in live.iter().enumerate() {
        if r == me || !alive {
            continue;
        }
        match heard[r] {
            Some((peer_status, peer_sus, peer_conf)) => {
                any |= peer_status != 0;
                sus |= peer_sus;
                conf |= peer_conf;
            }
            None => {
                any = true;
                unheard |= bit(r);
            }
        }
    }
    (any, sus, conf, unheard)
}

/// One gossip round of the vote protocol: broadcast this rank's ballot to
/// every live peer, then take each peer's under a deadline and
/// [`tally_round`] the result. Errors only if *this* rank died mid-round.
fn vote_round(
    h: &mut RankHandle,
    live: &[bool],
    t: wire::Tag,
    ballot: Ballot,
    deadline: Duration,
) -> Result<(bool, u64, u64, u64), FabricError> {
    let me = h.rank();
    let peers: Vec<usize> = (0..live.len()).filter(|&r| live[r] && r != me).collect();
    wire::broadcast(h, &peers, t, &encode_ballot(ballot))?;
    let mut heard: Vec<Option<Ballot>> = vec![None; live.len()];
    for &r in &peers {
        heard[r] = wire::recv_copy(h, r, t, deadline, |m| decode_ballot(m))?;
    }
    Ok(tally_round(me, live, ballot, &heard))
}

/// Two-round vote, with no barrier — a killed rank must never be waited
/// on unconditionally: round one spreads first-hand observations, round
/// two confirms the union so every live rank lands on the same verdict.
///
/// Round two rebroadcasts only *evidence* — first-hand suspicions and
/// suspicions heard from peers — never round one's unheard mask. A peer
/// that missed its round-one copy window but answers in round two is
/// therefore counted once, as a voter; with `escalate` (attempts past the
/// retry budget) only a peer silent in **both** rounds is presumed dead.
pub(super) fn vote(
    h: &mut RankHandle,
    live: &[bool],
    step_tag: u64,
    ballot: Ballot,
    deadline: Duration,
    escalate: bool,
) -> Result<Verdict, FabricError> {
    let (a1, s1, c1, u1) = vote_round(h, live, Lane::Vote.sub(step_tag, 0)?, ballot, deadline)?;
    let second = (u8::from(a1), s1, c1);
    let (a2, s2, c2, u2) = vote_round(h, live, Lane::Vote.sub(step_tag, 1)?, second, deadline)?;
    // Escalated silence is *presumed* death, never confirmed: it is
    // exactly the evidence class a partition forges, so it stays subject
    // to the majority-quorum rule at burial time.
    let presumed = if escalate { u1 & u2 } else { 0 };
    Ok(Verdict {
        any_error: a2,
        suspects: s2 | presumed,
        confirmed: c2,
    })
}

/// Acts on a verdict that names live suspects, under the majority-quorum
/// rule. Confirmed deaths (first-hand disconnection evidence, gossiped
/// through the vote) are buried unconditionally — a crashed rank is not on
/// the other side of a partition. Silence-only suspicions may be buried
/// only if the voters left after those burials would still form a majority
/// of the *effective world*: every configured rank except those buried on
/// confirmed evidence. Silence-buried ranks keep counting against the base
/// — they may be alive and stepping across a partition — so sequential
/// escalations can never erode the quorum down to a minority's say-so: at
/// most one side of any split ever holds `floor(world/2) + 1`, and a
/// partition costs staleness, never divergence. A side that fails the test
/// buries nothing silent and parks instead.
///
/// Errors with this rank's own death when the quorate accusation names it
/// (e.g. its outbound links are black holes): it exits rather than
/// split-brain, and a scheduled revival is the sanctioned way back in. An
/// accusation that lacks quorum parks it with everyone else instead.
pub(super) fn regroup(
    h: &mut RankHandle,
    st: &mut RankState,
    verdict: &Verdict,
) -> Result<Attempt, FabricError> {
    let (me, p) = (st.me, st.p);
    let suspected: Vec<usize> = (0..p)
        .filter(|&r| st.live[r] && verdict.suspects & bit(r) != 0)
        .collect();
    // This also covers the mid-migration kill: a placement quantum torn by
    // a death leaves ranks divergent for at most this one failed attempt;
    // routing is static everywhere before any step commits.
    st.reset_placement();
    let (confirmed_dead, silent): (Vec<usize>, Vec<usize>) = suspected
        .iter()
        .partition(|&&r| verdict.confirmed & bit(r) != 0);
    // Re-admitted ranks count toward the world again.
    st.confirmed_gone &= mask_of((0..p).filter(|&r| !st.live[r]));
    st.confirmed_gone |= mask_of(confirmed_dead.iter().copied());
    let effective_world = p - st.confirmed_gone.count_ones() as usize;
    let live_now = st.live.iter().filter(|&&a| a).count();
    let has_quorum = silent.is_empty() || live_now - suspected.len() > effective_world / 2;
    let newly_dead = if has_quorum {
        suspected
    } else {
        confirmed_dead
    };
    if newly_dead.contains(&me) {
        return Err(FabricError::Disconnected { peer: me });
    }
    if !newly_dead.is_empty() {
        st.bury(h, &newly_dead);
    }
    if has_quorum {
        return Ok(Attempt::Settled);
    }
    st.report.parks += 1;
    if park_until_heal(h, st, effective_world)? {
        Ok(Attempt::Settled)
    } else {
        Ok(Attempt::GaveUp)
    }
}

/// The re-admission ticket survivors send a rejoining rank: where to resume
/// (`step`, `tag`), the membership epoch after the rejoin bump, who sends
/// state, which host (if any) sends the hosted expert back, and the
/// post-admission live set and failover routes.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Invite {
    step: usize,
    tag: u64,
    epoch: u32,
    donor: usize,
    live: u64,
    /// Failover host that will send the hosted expert back on the
    /// handback lane, encoded as `host + 1`; `0` means no handback (the
    /// rejoiner resumes from its checkpoint-stale own expert).
    handback: u32,
    /// Failover routes still active after this admission, as
    /// `(dead, host)` rank pairs — the rejoiner must install them to agree
    /// with the survivors' routing.
    routes: Vec<(u8, u8)>,
}

impl Invite {
    /// `[step u64][tag u64][epoch u32][donor u32][live u64][handback u32]
    /// [n u32][n × (dead u8, host u8)]`.
    fn encode(&self) -> Bytes {
        let mut w = Writer::new(40 + 2 * self.routes.len());
        w.u64(self.step as u64).u64(self.tag).u32(self.epoch);
        w.u32(self.donor as u32).u64(self.live).u32(self.handback);
        w.u32(self.routes.len() as u32);
        for &(d, host) in &self.routes {
            w.u8(d).u8(host);
        }
        Bytes::from(w.finish())
    }

    /// Decodes an invite for a `world`-rank cluster. Every rank it names
    /// must exist, every live bit must be a rank — the fields index
    /// per-rank tables downstream — and the invite must agree with its own
    /// live mask: a route hosts a dead rank on a live one, and the
    /// handback host is live.
    fn decode(b: &[u8], world: usize) -> Option<Invite> {
        let inv = Reader::frame(b, |r| {
            Ok(Invite {
                step: usize::try_from(r.u64()?).map_err(|_| RecordError::Malformed("step"))?,
                tag: r.u64()?,
                epoch: r.u32()?,
                donor: r.u32()? as usize,
                live: r.u64()?,
                handback: r.u32()?,
                routes: (0..r.count(2)?)
                    .map(|_| Ok((r.u8()?, r.u8()?)))
                    .collect::<Result<_, RecordError>>()?,
            })
        })
        .ok()?;
        let live = |r: usize| r < world.min(64) && inv.live & bit(r) != 0;
        let ranks_exist = inv.donor < world
            && (world >= 64 || inv.live >> world == 0)
            && (inv.handback as usize).checked_sub(1).is_none_or(live)
            && inv
                .routes
                .iter()
                .all(|&(d, host)| (d as usize) < world && !live(d.into()) && live(host.into()));
        ranks_exist.then_some(inv)
    }
}

/// The dead rank's half of the rejoin protocol. Returns `true` once state
/// has been verified and applied (the rank state stands at the invited
/// resume point); `false` — or this rank's renewed death — if it has no
/// way back or every rejoin round failed.
///
/// Two ways back in: a plan that schedules this rank's revival (the
/// simulated path — spin until the pipe reopens) or a reconnectable
/// transport (the code is running, so the process is alive: announce
/// directly, even when the plan was installed only for deadlines or link
/// faults). The revival spin burns send attempts via
/// [`RankHandle::try_revive`], so the probe count — like every other
/// decision on this path — is a pure function of the plan, never of
/// wall clock.
pub(super) fn limbo_rejoin(h: &mut RankHandle, st: &mut RankState) -> Result<bool, FabricError> {
    if st.cfg.rejoin_check_every == 0 {
        return Ok(false);
    }
    if h.revive_scheduled(h.rank()) {
        let mut probes = 0u64;
        while !h.try_revive() {
            probes += 1;
            if probes > 1_000_000 {
                return Ok(false); // the scheduled revival never fires; stay dead
            }
        }
    } else if !h.reconnectable() {
        return Ok(false);
    }
    // The announce → invite → state-transfer loop, shared by a simulated
    // revival and a fresh process started with `FtConfig::rejoin`.
    let vote_dl = st.cfg.vote_deadline();
    let announce = Bytes::copy_from_slice(&[st.me as u8]);
    for _round in 0..MAX_REJOIN_ROUNDS {
        wire::broadcast(h, &others(st), Lane::Announce.at(0)?, &announce)?;
        // Survivors only notice the announcement after burying us (a
        // vote) and reaching a rejoin quantum, so the first wait is
        // generous.
        let invite = freshest_invite(h, st, vote_dl * 32, vote_dl, Duration::from_millis(50))?;
        // A torn transfer applies nothing and leaves our epoch unchanged.
        // Announce again; survivors will re-bury us if we stay silent too
        // long, which re-opens the next round.
        if let Some(inv) = invite {
            if apply_invite(h, st, &inv)? {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Every rank but this one.
fn others(st: &RankState) -> Vec<usize> {
    (0..st.p).filter(|&r| r != st.me).collect()
}

/// The freshest invite queued from anyone: the max-step one wins, so a
/// stale copy from an earlier torn round can never be re-actioned. Waits
/// `first` on the first peer that might answer, `next` on the rest, and
/// `parked` for duplicates behind a frame that did arrive.
fn freshest_invite(
    h: &mut RankHandle,
    st: &RankState,
    first: Duration,
    next: Duration,
    parked: Duration,
) -> Result<Option<Invite>, FabricError> {
    let lane = Lane::Invite.at(0)?;
    let mut best: Option<Invite> = None;
    let mut wait = first;
    for r in others(st) {
        wire::drain(h, r, lane, wait, parked, |m| {
            if let Some(inv) = Invite::decode(m, st.p) {
                if best.as_ref().is_none_or(|b| inv.step > b.step) {
                    best = Some(inv);
                }
            }
        });
        wait = next;
    }
    Ok(best)
}

/// Applies one accepted invite: receives and verifies the donor's state
/// frame, adopts the invite's epoch / live mask / failover routes, and
/// receives the hosted-expert handback if one is due, and leaves the rank
/// state standing at the invited resume point. Returns `false` when the
/// transfer was torn, or when the invite routes an expert to this rank
/// itself (the survivors' table would have it serve a body it does not
/// hold) — nothing was applied and the caller's epoch is unchanged, so it
/// can simply announce again.
fn apply_invite(h: &mut RankHandle, st: &mut RankState, inv: &Invite) -> Result<bool, FabricError> {
    if inv
        .routes
        .iter()
        .any(|&(_, host)| usize::from(host) == st.me)
    {
        return Ok(false);
    }
    let deadline = st.cfg.vote_deadline() * 4;
    // An invite for a step no lane window covers is damage; ignore it.
    let step = inv.step as u64;
    let (Ok(state_lane), Ok(handback_lane)) = (Lane::State.at(step), Lane::Handback.at(step))
    else {
        return Ok(false);
    };
    let payload = match wire::receive_state(h, inv.donor, state_lane, deadline) {
        Ok(payload) => payload,
        Err(FabricError::Corrupt { .. }) => return Ok(false),
        Err(e) => return Err(e),
    };
    st.load(Half::Replicated, &payload)
        .expect("a verified transfer payload must apply");
    st.report.transfer_bytes += payload.len() as u64;
    h.set_epoch(inv.epoch);
    st.report.epoch_transitions.push(inv.epoch);
    for r in 0..st.p {
        st.live[r] = inv.live & bit(r) != 0;
        if st.live[r] {
            // The invite's live mask is the authoritative membership:
            // deaths and re-admissions that happened while this rank was
            // away never reached its local liveness board (on process
            // transports the board is per-endpoint, not shared), so reset
            // the board to match — this rank's own entry included.
            h.mark_peer_reachable(r);
        }
    }
    // Adopt the survivors' failover routing.
    let routes = inv.routes.iter().map(|&(d, host)| (d.into(), host.into()));
    st.failover_hosts = routes.collect();
    st.route();
    // The host sends the hosted expert — trained while this rank was
    // dead — back on the handback lane. A lost handback falls back to
    // the checkpoint-stale own expert.
    if let Some(host) = (inv.handback as usize).checked_sub(1) {
        if let Ok(hb) = wire::receive_state(h, host, handback_lane, deadline) {
            st.load(Half::OwnExpert, &hb)
                .expect("a verified handback payload must apply");
            st.report.handback_bytes += hb.len() as u64;
        }
    }
    st.resume_at(inv.step, inv.tag);
    Ok(true)
}

/// Park ping `[rank u8][epoch u32][step u64][tag u64]`.
fn encode_ping(me: usize, epoch: u32, step: usize, tag: u64) -> Bytes {
    let mut w = Writer::new(21);
    w.u8(me as u8).u32(epoch).u64(step as u64).u64(tag);
    Bytes::from(w.finish())
}

fn decode_ping(m: &[u8]) -> Option<(usize, u32, u64, u64)> {
    Reader::frame(m, |r| Ok((r.u8()? as usize, r.u32()?, r.u64()?, r.u64()?))).ok()
}

/// The common resume point `[step u64][tag u64]` of a healed park.
fn encode_resume(step: usize, tag: u64) -> Bytes {
    Bytes::from(Writer::new(16).u64(step as u64).u64(tag).finish())
}

fn decode_resume(m: &[u8]) -> Option<(u64, u64)> {
    Reader::frame(m, |r| Ok((r.u64()?, r.u64()?))).ok()
}

/// A rank that cannot assemble a voting majority *parks*: it stops
/// stepping — a minority that buried the unreachable majority would fork
/// the replicated trajectory — but keeps answering control-plane traffic.
/// Each round it announces (so a quorate side's coordinator can re-admit
/// it), pings the park lane (so fellow parked ranks can find each other
/// across a healing partition), and polls for invites and resumes. Once
/// the parked set itself reaches a majority of the effective world (every
/// configured rank not buried on confirmed crash evidence) — a tie
/// healing, or parked minorities merging — the lowest parked rank picks a
/// tag window beyond every parked rank's and broadcasts the common resume
/// point. A partition therefore costs staleness, never divergence.
///
/// Only pings that agree on this rank's `(epoch, step)` count toward the
/// resume quorum: a rank whose membership history diverged before parking
/// (it buried a confirmed death the other side never saw) must come back
/// through the invite path instead of a bare resume.
fn park_until_heal(
    h: &mut RankHandle,
    st: &mut RankState,
    effective_world: usize,
) -> Result<bool, FabricError> {
    let (me, step, tag) = (st.me, st.step, st.tag);
    let majority = effective_world / 2 + 1;
    let everyone = others(st);
    let announce_lane = Lane::Announce.at(0)?;
    let park_lane = Lane::Park.at(0)?;
    let resume_lane = Lane::Resume.at(0)?;
    // Latest matching (same epoch, same step) park ping per rank: the tag
    // each parked peer has reached, for the coordinator's resume pick.
    let mut parked: Vec<Option<u64>> = vec![None; st.p];
    let (ping_dl, short_dl) = (Duration::from_millis(50), Duration::from_millis(10));
    // Fixed for the whole park: an applied invite is the only thing that
    // moves the epoch, and it ends the park.
    let epoch = h.epoch();
    for _round in 0..MAX_PARK_ROUNDS {
        // Announce + ping every rank, every round. The sends double as
        // liveness traffic and carry each link's fault windows toward
        // their heal points on index-driven chaos plans.
        let announce = Bytes::copy_from_slice(&[me as u8]);
        let ping = encode_ping(me, epoch, step, tag);
        for &r in &everyone {
            wire::send_copies(h, r, announce_lane, &announce)?;
            wire::send_copies(h, r, park_lane, &ping)?;
        }
        // A quorate other side may have buried us and answered the
        // announce: take the freshest invite and try to apply it. A torn
        // transfer applies nothing; keep parking and re-announce.
        if let Some(inv) = freshest_invite(h, st, ping_dl, ping_dl, short_dl)? {
            if apply_invite(h, st, &inv)? {
                drain_park_traffic(h, &everyone)?;
                return Ok(true);
            }
        }
        for &r in &everyone {
            wire::drain(h, r, park_lane, ping_dl, ping_dl, |m| {
                if let Some((from, e, s, t)) = decode_ping(m) {
                    if (from, e, s) == (r, epoch, step as u64) {
                        parked[r] = Some(t);
                    }
                }
            });
        }
        // A RESUME from the coordinator: adopt its resume point. Only one
        // for *this* park point with a tag beyond ours counts: redundant
        // copies of an earlier cycle's broadcast (or a resume meant for a
        // parked set whose history diverged from ours) are dropped, and
        // the divergent rank comes back through the invite path.
        let mut resumed: Option<u64> = None;
        for &r in &everyone {
            wire::drain(h, r, resume_lane, short_dl, short_dl, |m| {
                let fresh = decode_resume(m).filter(|&(s, t)| s == step as u64 && t > tag);
                resumed = resumed.max(fresh.map(|(_, t)| t));
            });
        }
        if let Some(tag) = resumed {
            st.tag = tag;
            drain_park_traffic(h, &everyone)?;
            return Ok(true);
        }
        // Enough parked ranks to vote again? The lowest parked rank
        // coordinates; everyone else keeps looping until its RESUME
        // arrives. The resume tag clears every parked rank's window so
        // post-resume traffic can never collide with pre-park leftovers.
        let heard = parked.iter().flatten().count();
        let lowest = (0..st.p).find(|&r| r == me || parked[r].is_some());
        if 1 + heard >= majority && lowest == Some(me) {
            let max_tag = parked.iter().flatten().copied().fold(tag, u64::max);
            let resume_tag = wire::next_attempt(max_tag);
            wire::broadcast(h, &everyone, resume_lane, &encode_resume(step, resume_tag))?;
            st.tag = resume_tag;
            drain_park_traffic(h, &everyone)?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Discards queued park-era control traffic (announces and pings from
/// fellow parked — still live — ranks) on the way out of a park. Without
/// this, a stale announce from a rank that parked and resumed would sit in
/// the coordinator's queue and could be mistaken for a rejoin announcement
/// if that rank genuinely died later. A discarded message costs nothing:
/// both the park loop and the limbo announce loop re-send every round.
fn drain_park_traffic(h: &mut RankHandle, peers: &[usize]) -> Result<(), FabricError> {
    let dl = Duration::from_millis(1);
    for &r in peers {
        wire::drain(h, r, Lane::Announce.at(0)?, dl, dl, |_| {});
        wire::drain(h, r, Lane::Park.at(0)?, dl, dl, |_| {});
    }
    Ok(())
}

/// The coordinator's admission mask, `[ranks u64]`.
fn encode_mask(mask: u64) -> Bytes {
    Bytes::from(Writer::new(8).u64(mask).finish())
}

fn decode_mask(m: &[u8]) -> Option<u64> {
    Reader::frame(m, Reader::u64).ok()
}

/// The survivors' half of the rejoin protocol, run at a fixed
/// committed-step cadence. The coordinator — which is also the donor —
/// drains the announcement queues of revivable dead ranks and broadcasts
/// its admission mask so every survivor applies the same membership
/// change; it then sends state to each admitted rank. Returns `true` if
/// membership changed (callers must refresh their checkpoint so a later
/// rewind lands every rank on the same step).
pub(super) fn try_rejoin_peers(
    h: &mut RankHandle,
    st: &mut RankState,
) -> Result<bool, FabricError> {
    let (me, p, step) = (st.me, st.p, st.step as u64);
    // A dead rank is a rejoin candidate if the plan schedules its
    // revival (the simulated path) or the transport can re-establish a
    // link to a fresh process claiming its rank (the real-process path).
    // Neither → nobody can come back and rejoin costs nothing.
    let reconnectable = h.reconnectable();
    let revivable = |r: usize| reconnectable || h.revive_scheduled(r);
    let candidates: Vec<usize> = (0..p).filter(|&r| !st.live[r] && revivable(r)).collect();
    if candidates.is_empty() {
        return Ok(false);
    }
    let coordinator = st.coordinator().expect("caller is live");
    let decision_lane = Lane::Decision.at(step)?;
    let mask = if me == coordinator {
        let mut mask = 0u64;
        let dl = Duration::from_millis(50);
        for &r in &candidates {
            wire::drain(h, r, Lane::Announce.at(0)?, dl, dl, |m| {
                if m[..] == [r as u8] {
                    mask |= bit(r);
                }
            });
        }
        wire::broadcast(h, &st.live_peers(), decision_lane, &encode_mask(mask))?;
        mask
    } else {
        let deadline = st.cfg.vote_deadline();
        wire::recv_copy(h, coordinator, decision_lane, deadline, |m| decode_mask(m))?.unwrap_or(0)
    };
    let admitted: Vec<usize> = candidates
        .into_iter()
        .filter(|&r| mask & bit(r) != 0)
        .collect();
    if admitted.is_empty() {
        return Ok(false);
    }
    // Capture handback material before admission tears the routes down:
    // which host serves each admitted rank's expert, and (on the host) the
    // guest's weights serialized in the owner's own layout.
    let handbacks: Vec<(Option<usize>, Option<Bytes>)> = admitted
        .iter()
        .map(|&r| {
            let host = st.failover_hosts.get(&r).copied();
            let hosted = (host == Some(me)).then(|| Bytes::from(st.save(Half::Guest(r))));
            (host, hosted)
        })
        .collect();
    // Admit every announced rank first — one epoch bump each — so the
    // invites carry the final membership.
    for &r in &admitted {
        st.admit(h, r);
    }
    let live = mask_of((0..p).filter(|&r| st.live[r]));
    let routes: Vec<(u8, u8)> = st
        .failover_hosts
        .iter()
        .map(|(&d, &host)| (d as u8, host as u8))
        .collect();
    let replicated = (me == coordinator).then(|| Bytes::from(st.save(Half::Replicated)));
    // Every survivor sends the invite (redundancy against drops); only the
    // donor sends replicated state, and only the host sends the hosted
    // expert back, each as the lane's copies of one sealed frame. A frame
    // that never arrives intact is that transfer's failure: the rejoiner
    // times out and announces again.
    for (&r, (host, hosted)) in admitted.iter().zip(handbacks) {
        let invite = Invite {
            step: st.step,
            tag: st.tag,
            epoch: h.epoch(),
            donor: coordinator,
            live,
            handback: host.map_or(0, |host| host as u32 + 1),
            routes: routes.clone(),
        };
        wire::send_copies(h, r, Lane::Invite.at(0)?, &invite.encode())?;
        if let Some(payload) = &replicated {
            wire::send_copies(h, r, Lane::State.at(step)?, payload)?;
            st.report.transfer_bytes += payload.len() as u64;
        }
        if let Some(payload) = hosted {
            let name = format_args!("handback{r}@{step}");
            let _s = schemoe_obs::span_sized("replication", name, payload.len() as f64);
            wire::send_copies(h, r, Lane::Handback.at(step)?, &payload)?;
            st.report.handbacks += 1;
            st.report.handback_bytes += payload.len() as u64;
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::FtConfig;
    use proptest::prelude::*;
    use schemoe_cluster::{Fabric, Topology};

    #[test]
    fn a_rejoiner_comes_back_holding_no_guest() {
        // Rank 1 hosted buried rank 3's expert before it was cut off
        // itself. While it was away rank 2 took the ward over, so the
        // invite names rank 3 still dead and routed elsewhere: whatever
        // rank 1 hosted is stale and must not survive the invite, and rank
        // 1 must route exactly as the survivors do.
        let cfg = FtConfig::tiny(4);
        let invite = Invite {
            step: 0,
            tag: 0,
            epoch: 3,
            donor: 0,
            live: 0b0111,
            handback: 0,
            routes: vec![(3, 2)],
        };
        let out = Fabric::run(Topology::new(1, 4), |mut h| {
            let mut st = RankState::new(&cfg, h.rank(), 4);
            match h.rank() {
                0 => {
                    let payload = Bytes::from(st.save(Half::Replicated));
                    let lane = Lane::State.at(0).expect("step 0 has a lane");
                    wire::send_copies(&h, 1, lane, &payload).expect("donor sends");
                    None
                }
                1 => {
                    st.live[3] = false;
                    st.failover_hosts.insert(3, 1);
                    st.install_guest(3, None).expect("no payload to refuse");
                    st.route();
                    let applied = apply_invite(&mut h, &mut st, &invite).expect("invite applies");
                    Some((applied, st.model.moe.guest_expert_ids(), st.table()))
                }
                _ => None,
            }
        });
        let mut survivor = RankState::new(&cfg, 0, 4);
        survivor.live[3] = false;
        survivor.failover_hosts.insert(3, 2);
        let table = (
            vec![vec![0], vec![1], vec![2], vec![2]],
            vec![true, true, true, false],
        );
        assert_eq!(survivor.table(), table);
        assert_eq!(out[1], Some((true, vec![], table)));
    }

    #[test]
    fn a_late_voter_is_not_double_counted_as_suspect() {
        // The tally that used to be wrong: rank 2 misses its round-one copy
        // window (all copies delayed past the deadline) but answers in
        // round two. It must end up a voter, never a suspect.
        let me = 0usize;
        let live = vec![true; 4];
        let mut heard1: Vec<Option<(u8, u64, u64)>> = vec![Some((0, 0, 0)); 4];
        heard1[2] = None;
        let (a1, s1, c1, u1) = tally_round(me, &live, (0, 0, 0), &heard1);
        assert!(a1, "an unheard peer must force an error verdict");
        assert_eq!(s1, 0, "silence alone is not a suspicion");
        assert_eq!(c1, 0);
        assert_eq!(u1, 0b100);

        // Round two: everyone (including the late rank 2) echoes the union.
        let heard2: Vec<Option<(u8, u64, u64)>> = vec![Some((u8::from(a1), s1, c1)); 4];
        let (a2, s2, _, u2) = tally_round(me, &live, (u8::from(a1), s1, c1), &heard2);
        assert!(a2);
        assert_eq!(u2, 0);
        assert_eq!(
            s2 | (u1 & u2),
            0,
            "a peer heard in round two is a voter, not a suspect, even past \
             the retry budget"
        );

        // Silence in *both* rounds is what escalation means.
        let (_, s2b, c2b, u2b) = tally_round(me, &live, (u8::from(a1), s1, c1), &heard1);
        assert_eq!(s2b, 0);
        assert_eq!(
            s2b | (u1 & u2b),
            0b100,
            "a peer silent in both rounds is presumed dead under escalation"
        );
        assert_eq!(
            c2b, 0,
            "escalated silence is presumed, never confirmed: it must face \
             the quorum rule at burial"
        );
    }

    #[test]
    fn tally_skips_self_and_buried_ranks() {
        let live = vec![true, false, true, true];
        // Nothing heard at all: only live peers (2, 3) count as unheard.
        let heard: Vec<Option<(u8, u64, u64)>> = vec![None; 4];
        let (any, sus, conf, unheard) = tally_round(0, &live, (0, 0, 0), &heard);
        assert!(any);
        assert_eq!(sus, 0);
        assert_eq!(conf, 0);
        assert_eq!(unheard, 0b1100);
    }

    #[test]
    fn tally_gossips_confirmed_evidence_alongside_suspicions() {
        // Rank 1 saw rank 3's link close first-hand; rank 0 only heard
        // about it. Both the suspicion and its confirmed flag must reach
        // rank 0's tally so it buries 3 without a quorum fight.
        let live = vec![true, true, true, true];
        let mut heard: Vec<Option<(u8, u64, u64)>> = vec![Some((0, 0, 0)); 4];
        heard[1] = Some((1, 0b1000, 0b1000));
        let (any, sus, conf, unheard) = tally_round(0, &live, (0, 0, 0), &heard);
        assert!(any);
        assert_eq!(sus, 0b1000);
        assert_eq!(
            conf, 0b1000,
            "first-hand evidence gossips with the suspicion"
        );
        assert_eq!(unheard, 0);
    }

    #[test]
    fn invites_round_trip_through_the_wire_encoding() {
        let inv = Invite {
            step: 17,
            tag: 99 << 24,
            epoch: 3,
            donor: 2,
            live: 0b1011_0111,
            handback: 3,
            routes: vec![(6, 5), (3, 2)],
        };
        assert_eq!(Invite::decode(&inv.encode(), 8), Some(inv.clone()));
        let bare = Invite {
            handback: 0,
            routes: Vec::new(),
            ..inv.clone()
        };
        assert_eq!(Invite::decode(&bare.encode(), 8), Some(bare));
        assert_eq!(Invite::decode(&[0u8; 31], 8), None, "short frames rejected");
        let mut torn = inv.encode().to_vec();
        torn.pop();
        assert_eq!(
            Invite::decode(&torn, 8),
            None,
            "a truncated route list is rejected"
        );
    }

    #[test]
    fn invites_naming_ranks_outside_the_world_are_rejected() {
        // Every rank an invite names indexes a per-rank table downstream
        // (and a `(d, d)` route would have a dead rank serve itself), and
        // a route or handback that contradicts the invite's own live mask
        // would have the next step wait on a dead server, so the decoder
        // is where they stop.
        let good = Invite {
            step: 4,
            tag: 5 << 24,
            epoch: 2,
            donor: 0,
            live: 0b1101,
            handback: 4,
            routes: vec![(1, 2)],
        };
        assert_eq!(Invite::decode(&good.encode(), 4), Some(good.clone()));
        let bad = [
            Invite {
                donor: 4,
                ..good.clone()
            },
            Invite {
                handback: 5,
                ..good.clone()
            },
            Invite {
                live: 0b1_0000,
                ..good.clone()
            },
            Invite {
                routes: vec![(1, 4)],
                ..good.clone()
            },
            Invite {
                routes: vec![(4, 1)],
                ..good.clone()
            },
            Invite {
                routes: vec![(2, 2)],
                ..good.clone()
            },
            // The route's host is dead in the invite's own mask.
            Invite {
                live: 0b1001,
                ..good.clone()
            },
            // The route's dead rank is marked live.
            Invite {
                live: 0b1111,
                ..good.clone()
            },
            // The handback host (rank 1) is dead.
            Invite {
                handback: 2,
                ..good.clone()
            },
        ];
        for inv in bad {
            assert_eq!(Invite::decode(&inv.encode(), 4), None, "{inv:?}");
        }
    }

    #[test]
    fn an_invite_routing_an_expert_to_the_rejoiner_applies_nothing() {
        // Rank 1 rejoins, but the invite has it host dead rank 3's expert,
        // whose body it does not hold: it must refuse before receiving
        // anything, with its epoch, live mask and routes as they were.
        let cfg = FtConfig::tiny(4);
        let invite = Invite {
            step: 0,
            tag: 0,
            epoch: 3,
            donor: 0,
            live: 0b0111,
            handback: 0,
            routes: vec![(3, 1)],
        };
        assert_eq!(Invite::decode(&invite.encode(), 4), Some(invite.clone()));
        let out = Fabric::run(Topology::new(1, 4), |mut h| {
            let mut st = RankState::new(&cfg, h.rank(), 4);
            (h.rank() == 1).then(|| {
                st.live[2] = false;
                let epoch = h.epoch();
                let applied = apply_invite(&mut h, &mut st, &invite).expect("no receive");
                let untouched = h.epoch() == epoch && st.failover_hosts.is_empty();
                (applied, untouched, st.live.clone())
            })
        });
        let (applied, untouched, live) = out[1].clone().expect("rank 1 reports");
        assert!(!applied, "the invite was adopted");
        assert!(
            untouched,
            "a refused invite changed the epoch or the routes"
        );
        assert_eq!(live, [true, true, false, true]);
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn control_frames_keep_their_bytes() {
        assert_eq!(
            hex(&encode_ballot((1, 0b1010, 0b0010))),
            "010a000000000000000200000000000000"
        );
        let inv = Invite {
            step: 17,
            tag: 99 << 24,
            epoch: 3,
            donor: 2,
            live: 0b1011_0111,
            handback: 3,
            routes: vec![(6, 5), (3, 2)],
        };
        assert_eq!(
            hex(&inv.encode()),
            "1100000000000000000000630000000003000000\
             02000000b7000000000000000300000002000000\
             06050302"
        );
        assert_eq!(
            hex(&encode_ping(3, 2, 17, 5 << 24)),
            "030200000011000000000000000000000500000000"
        );
        assert_eq!(
            hex(&encode_resume(17, 6 << 24)),
            "11000000000000000000000600000000"
        );
        assert_eq!(hex(&encode_mask(0b1010)), "0a00000000000000");
        // And each decodes to what was encoded.
        assert_eq!(decode_ballot(&encode_ballot((1, 10, 2))), Some((1, 10, 2)));
        assert_eq!(Invite::decode(&inv.encode(), 8), Some(inv));
        assert_eq!(decode_ping(&encode_ping(3, 2, 17, 9)), Some((3, 2, 17, 9)));
        assert_eq!(decode_resume(&encode_resume(17, 9)), Some((17, 9)));
        assert_eq!(decode_mask(&encode_mask(0b1010)), Some(0b1010));
    }

    proptest! {
        /// Arbitrary bytes through every membership decoder: a value or
        /// `None`, never a panic — and whatever an invite decodes to is
        /// safe to apply in a world of that size.
        #[test]
        fn hostile_control_frames_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
            world in 1usize..=64,
        ) {
            let _ = decode_ballot(&bytes);
            let _ = decode_ping(&bytes);
            let _ = decode_resume(&bytes);
            let _ = decode_mask(&bytes);
            if let Some(inv) = Invite::decode(&bytes, world) {
                let live = |r: usize| r < world && inv.live & bit(r) != 0;
                prop_assert!(inv.donor < world && inv.handback as usize <= world);
                prop_assert!(world == 64 || inv.live >> world == 0);
                prop_assert!((inv.handback as usize).checked_sub(1).is_none_or(live));
                for (d, host) in inv.routes {
                    prop_assert!((d as usize) < world && !live(d.into()) && live(host.into()));
                }
            }
        }

        /// A well-formed invite with its fixed fields overwritten by noise
        /// still decodes to something in range or not at all.
        #[test]
        fn damaged_invites_stay_in_range(
            noise in proptest::collection::vec(0u8..=255, 40),
            routes in proptest::collection::vec((0u8..8, 0u8..8), 0..4),
        ) {
            let mut frame = noise;
            frame[36..40].copy_from_slice(&(routes.len() as u32).to_le_bytes());
            for (d, host) in &routes {
                frame.extend_from_slice(&[*d, *host]);
            }
            if let Some(inv) = Invite::decode(&frame, 6) {
                prop_assert!(inv.donor < 6 && inv.live >> 6 == 0);
                prop_assert!(inv.routes.iter().all(|&(d, host)| d != host && d < 6 && host < 6));
            }
        }
    }
}
