//! The periodic control-plane quanta — buddy replication, durable
//! snapshots (and the cold-start resume that reads them back), and expert
//! placement — each a plain function over the rank state and the wire kit.
//!
//! The coordinated ones (snapshots, placement) share one shape: the lowest
//! live rank coordinates, every rank's frame reaches it through
//! [`wire::gather`] (all-or-nothing), its decision goes out through
//! [`wire::broadcast`], and bulk state moves as CRC-sealed streams that
//! are verified before anything is applied. A quantum that fails for any
//! reason leaves the previous state in force; the only error one returns
//! is this rank's own death (or a window the lane table has no room for).

use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use schemoe_cluster::storage::{write_atomic, ChaosFs, RealFs, StorageFs};
use schemoe_cluster::{FabricError, RankHandle};
use schemoe_compression::record::{Reader, Writer};
use schemoe_moe::{decide_plan, DeltaEncoder, LoadReport, Placement, PlacementPlan, PolicyConfig};
use schemoe_obs::span;
use schemoe_tensor::checkpoint;
use schemoe_tensor::snapshot::{self, Manifest, ManifestEntry, Shard};

use super::state::{Half, RankState};
use super::wire::{self, Lane};
use super::{buddy_of, SnapshotCfg};

/// Sender-side timed probes per peer in a placement quantum. The max of
/// the batch stands in for the p99 link stall; chaos shaping sleeps the
/// sender, so shaped links read high while in-process links read ~0.
const PLACEMENT_PROBES: usize = 3;

/// Replica cap per expert in a placement plan (static home included).
const PLACEMENT_MAX_REPLICAS: usize = 2;

/// The overload-shed capacity override is clamped to at least this
/// fraction of the configured capacity factor, bounding token loss.
const PLACEMENT_SHED_FLOOR: f64 = 0.5;

/// One buddy-replication quantum. Each rank sends its expert frame to
/// [`buddy_of`]`(rank)`, then absorbs a frame from every *ward* — each
/// rank whose buddy it is. Sends never block and every rank sends before
/// it receives, so the exchange cannot deadlock; the receive deadline
/// bounds the wait even when a ward died between the vote and this
/// quantum. The buddy graph is the plain ring, so each rank has at most
/// one live ward.
///
/// Every frame carries the whole expert state, so nothing chains: a
/// skipped or failed send costs the buddy that one quantum, and a missed
/// or damaged inbound frame is dropped while the store keeps its previous
/// replica until the ward's next frame replaces it.
pub(super) fn replicate_quantum(h: &mut RankHandle, st: &mut RankState) -> Result<(), FabricError> {
    let (me, p, step) = (st.me, st.p, st.step);
    let buddy = buddy_of(me, p);
    let wards: Vec<usize> = st
        .live_peers()
        .into_iter()
        .filter(|&r| buddy_of(r, p) == me)
        .collect();
    let lane = Lane::Replica.at(step as u64)?;
    if buddy != me && st.live[buddy] {
        let frame = {
            let _s = span("replication", format_args!("encode@{step}"));
            let payload = st.save(Half::OwnExpert);
            Bytes::from(DeltaEncoder::new().encode(&payload, step as u64))
        };
        let _s = span("replication", format_args!("send@{step}"));
        if wire::send_copies(h, buddy, lane, &frame)? > 0 {
            st.report.replica_quanta += 1;
            st.report.replica_bytes += frame.len() as u64;
            schemoe_obs::counters_for_rank(me).add_replica_sent(frame.len());
        }
    }
    for ward in wards {
        let _s = span("replication", format_args!("recv{ward}@{step}"));
        // A damaged frame leaves the store untouched.
        let store = st.stores.entry(ward).or_default();
        wire::recv_copy(h, ward, lane, st.cfg.vote_deadline(), |m| {
            store.apply(m).ok()
        })?;
    }
    Ok(())
}

/// The storage a rank's snapshot lane writes through: chaos-decorated
/// when a fault plan is installed (salted by rank so each rank rolls its
/// own lottery). Chaos sits *beneath* the snapshot writer and *above* the
/// real filesystem, so whatever a fault leaves on disk is exactly what a
/// later restore observes.
pub(super) struct Disk<'a> {
    pub(super) cfg: &'a SnapshotCfg,
    fs: Box<dyn StorageFs>,
}

impl<'a> Disk<'a> {
    pub(super) fn open(cfg: &'a SnapshotCfg, me: usize) -> Disk<'a> {
        let fs: Box<dyn StorageFs> = match &cfg.chaos {
            Some(plan) => Box::new(ChaosFs::new(Box::new(RealFs), plan.clone(), me as u64)),
            None => Box::new(RealFs),
        };
        let _ = fs.create_dir_all(&cfg.dir);
        Disk { cfg, fs }
    }
}

/// Durable-ack frame `[generation u64][len u32][crc u32]`.
fn encode_ack(generation: u64, len: u32, crc: u32) -> Bytes {
    Bytes::from(Writer::new(16).u64(generation).u32(len).u32(crc).finish())
}

fn decode_ack(m: &[u8]) -> Option<(u64, u32, u32)> {
    Reader::frame(m, |r| Ok((r.u64()?, r.u32()?, r.u32()?))).ok()
}

/// One durable-snapshot quantum: every live rank encodes its shard
/// (replicated modules + own expert + stored and hosted ward replicas +
/// step/seed),
/// writes it via write-tmp → fsync → rename, and acks `[generation, len,
/// crc]` to the coordinator. The coordinator commits the generation by
/// atomically writing a manifest listing every acked shard — only after
/// *all* live ranks acked durable — and runs retention GC. Any failure
/// (torn write, ENOSPC, missing ack) simply leaves the generation
/// uncommitted: training continues and resume falls back to the previous
/// complete generation.
pub(super) fn snapshot_quantum(
    h: &mut RankHandle,
    st: &mut RankState,
    disk: &Disk<'_>,
) -> Result<(), FabricError> {
    st.generation += 1;
    let (me, step, generation) = (st.me, st.step, st.generation);
    let Some(coordinator) = st.coordinator() else {
        return Ok(());
    };
    let lane = Lane::SnapshotAck.at(generation)?;
    let dir = &disk.cfg.dir;
    let bytes = {
        let _s = span("durability", format_args!("encode-g{generation}@{step}"));
        st.encode_shard()
    };
    let wrote = {
        let _s = span("durability", format_args!("write-g{generation}@{step}"));
        let path = dir.join(snapshot::shard_file_name(generation, me));
        write_atomic(&*disk.fs, &path, &bytes)
            .is_ok()
            .then(|| (bytes.len() as u32, checkpoint::crc32(&bytes)))
    };
    if let Some((len, crc)) = wrote {
        st.report.snapshot_shards += 1;
        st.report.snapshot_bytes += u64::from(len);
        schemoe_obs::counters_for_rank(me).add_snapshot_write(len as usize);
        if me != coordinator {
            wire::send_copies(h, coordinator, lane, &encode_ack(generation, len, crc))?;
        }
    }
    if me != coordinator {
        return Ok(());
    }
    let _s = span("durability", format_args!("commit-g{generation}@{step}"));
    let peers = st.live_peers();
    // A straggler ack from a failed generation is skipped like a damaged
    // copy.
    let acks = wire::gather(h, &peers, lane, st.cfg.quantum_deadline(), |_, m| {
        decode_ack(m).filter(|ack| ack.0 == generation)
    })?;
    // The manifest's existence IS the commit: write it only once our own
    // shard and every peer's shard are durable.
    let (Some((len, crc)), Some(acks)) = (wrote, acks) else {
        return Ok(());
    };
    let entry = |r: usize, len: u32, crc: u32| ManifestEntry {
        rank: r as u32,
        name: snapshot::shard_file_name(generation, r),
        len,
        crc,
    };
    // Ascending by rank as it stands: the coordinator is the lowest live
    // rank and its peers follow in order.
    let mut shards = vec![entry(me, len, crc)];
    shards.extend(
        peers
            .iter()
            .zip(acks)
            .map(|(&r, ack)| entry(r, ack.1, ack.2)),
    );
    // The active placement rides the manifest so a resumed job restarts
    // with the expert layout it snapshotted under.
    let placement = st.model.moe.placement().map(|pl| pl.encode());
    let manifest = Manifest {
        generation,
        world: st.p as u32,
        step: step as u64,
        seed: st.cfg.seed,
        shards,
        placement: placement.unwrap_or_default(),
    };
    let path = dir.join(snapshot::manifest_file_name(generation));
    if write_atomic(&*disk.fs, &path, &manifest.encode()).is_ok() {
        let removed = gc_generations(&*disk.fs, dir, disk.cfg.keep);
        st.report.snapshot_generations += 1;
        st.report.snapshot_gc += removed;
        let counters = schemoe_obs::counters_for_rank(me);
        counters.add_snapshot_generation();
        for _ in 0..removed {
            counters.add_snapshot_gc();
        }
    }
    Ok(())
}

/// Generations with a manifest in `dir`, ascending.
fn committed_generations(fs: &dyn StorageFs, dir: &Path) -> Vec<u64> {
    let mut gens: Vec<u64> = fs
        .list(dir)
        .unwrap_or_default()
        .iter()
        .filter_map(|path| path.file_name().and_then(|n| n.to_str()))
        .filter_map(snapshot::manifest_generation)
        .collect();
    gens.sort_unstable();
    gens
}

/// Retention GC: deletes complete generations beyond the newest `keep`
/// (clamped to 1, so the last complete generation is never deleted).
/// The manifest goes first — a crash mid-GC leaves orphan shards that
/// resume cannot see, never a manifest pointing at deleted shards.
fn gc_generations(fs: &dyn StorageFs, dir: &Path, keep: usize) -> u64 {
    let gens = committed_generations(fs, dir);
    let mut removed = 0u64;
    for &g in &gens[..gens.len().saturating_sub(keep.max(1))] {
        let mpath = dir.join(snapshot::manifest_file_name(g));
        let names: Vec<String> = fs
            .read(&mpath)
            .ok()
            .and_then(|b| Manifest::decode(&b).ok())
            .map(|m| m.shards.into_iter().map(|e| e.name).collect())
            .unwrap_or_default();
        if fs.remove(&mpath).is_err() {
            continue;
        }
        for n in names {
            let _ = fs.remove(&dir.join(n));
        }
        removed += 1;
    }
    removed
}

/// Reads generation `g` back: its manifest, if it is this run's to resume
/// (same world and seed, short of the configured horizon — one at or past
/// it would end the run without committing a step), and every listed
/// shard that is bit-exact per the manifest and agrees with it. A torn,
/// truncated or bit-rotted shard simply drops out and may be covered by a
/// buddy replica embedded in a surviving shard.
fn read_generation(
    st: &RankState,
    disk: &Disk<'_>,
    g: u64,
) -> Option<(Manifest, Vec<Option<Shard>>)> {
    let dir = &disk.cfg.dir;
    let bytes = disk
        .fs
        .read(&dir.join(snapshot::manifest_file_name(g)))
        .ok()?;
    let man = Manifest::decode(&bytes).ok()?;
    if man.world != st.p as u32 || man.seed != st.cfg.seed || man.step as usize >= st.cfg.steps {
        return None;
    }
    let mut shards: Vec<Option<Shard>> = (0..st.p).map(|_| None).collect();
    for e in &man.shards {
        let Some(slot) = shards.get_mut(e.rank as usize) else {
            continue;
        };
        *slot = disk
            .fs
            .read(&dir.join(&e.name))
            .ok()
            .filter(|bytes| Manifest::entry_matches(e, bytes))
            .and_then(|bytes| Shard::decode(&bytes).ok())
            .filter(|sh| {
                (sh.generation, sh.world, sh.step, sh.seed, sh.rank)
                    == (man.generation, man.world, man.step, man.seed, e.rank)
            });
    }
    Some((man, shards))
}

/// Cold-restart bootstrap: restores this rank from the newest generation
/// *every* rank can restore from. All ranks scan the same directory (no
/// concurrent writers at startup) and apply the same deterministic rule,
/// so they agree on the resume step without exchanging a message. A rank
/// is restorable at a generation if its own shard is bit-exact per the
/// manifest, or any valid shard embeds a buddy replica of it. Payloads are
/// CRC-verified *before* any state is touched — a failure at any point
/// falls back to the next older generation, never a half-applied model.
pub(super) fn resume_from_disk(st: &mut RankState, disk: &Disk<'_>) {
    let t0 = Instant::now();
    let gens = committed_generations(&*disk.fs, &disk.cfg.dir);
    if gens
        .iter()
        .rev()
        .any(|&g| restore_generation(st, disk, g).is_some())
    {
        st.checkpoint();
        st.report.resumed_at_step = Some(st.step);
        schemoe_obs::counters_for_rank(st.me).add_snapshot_restore();
    }
    st.report.restore_ms = t0.elapsed().as_secs_f64() * 1e3;
}

fn restore_generation(st: &mut RankState, disk: &Disk<'_>, g: u64) -> Option<()> {
    let (me, p) = (st.me, st.p);
    let (man, shards) = read_generation(st, disk, g)?;
    let replica_of = |r: usize| {
        let mut embedded = shards.iter().flatten().flat_map(|sh| sh.replicas.iter());
        embedded.find(|rep| rep.ward == r as u32 && !rep.payload.is_empty())
    };
    if !(0..p).all(|r| shards[r].is_some() || replica_of(r).is_some()) {
        return None;
    }
    // Buddy-shard reconstruction when this rank's own shard is gone: the
    // replicated half is identical across ranks at a committed step, so
    // any valid shard donates it; the expert comes from the replica a
    // surviving shard embeds for this rank.
    let donor = shards[me].as_ref().or(shards.iter().flatten().next())?;
    let expert = match &shards[me] {
        Some(own) => &own.expert,
        None => &replica_of(me)?.payload,
    };
    if checkpoint::verify(&donor.replicated).is_err() || checkpoint::verify(expert).is_err() {
        return None;
    }
    // After the seals verify, a mismatch means the operator resumed with a
    // different model shape under the same seed — a config error, not a
    // storage fault. Refuse loudly rather than train on a half-applied
    // model.
    let shape = "verified snapshot payload must match the configured model";
    st.load(Half::Replicated, &donor.replicated).expect(shape);
    st.load(Half::OwnExpert, expert).expect(shape);
    if shards[me].is_none() {
        st.report.snapshot_reconstructions += 1;
        schemoe_obs::counters_for_rank(me).add_snapshot_reconstruction();
    }
    st.step = man.step as usize;
    st.generation = man.generation;
    // Rebuild the snapshotted expert placement, if one was active. Guest
    // bodies load from the shard of each expert's static home — home stays
    // in sync under a committed placement, so its shard carries the
    // authoritative expert state. Requires every rank's own shard (guest
    // state lives nowhere else); a partial directory falls back to the
    // static layout rather than a torn placement.
    let epr = st.model.moe.experts_per_rank();
    let placement = Placement::decode(&man.placement).ok().filter(|pl| {
        !man.placement.is_empty() && pl.experts_per_rank() == epr && pl.n_experts() == p * epr
    });
    let homes: Option<Vec<&Shard>> = shards.iter().map(Option::as_ref).collect();
    if let (Some(pl), Some(homes)) = (placement, homes) {
        let guests = pl.guests_of(me);
        if guests
            .iter()
            .all(|&e| checkpoint::verify(&homes[pl.static_home(e)].expert).is_ok())
        {
            for e in guests {
                let home = &homes[pl.static_home(e)];
                st.install_guest(e, Some(&home.expert)).expect(shape);
            }
            // Resume under the snapshotted version, so the next quantum's
            // plan stamps a strictly newer one.
            st.placement_version = pl.version();
            st.set_placement(pl);
        }
    }
    Some(())
}

/// Encodes the coordinator's plan frame: `[1][PLPL frame]`, or the 1-byte
/// no-plan marker `[0]` so peers never stall a full deadline on the
/// no-plan path.
fn encode_plan(plan: Option<&PlacementPlan>) -> Bytes {
    let body = plan.map(PlacementPlan::encode).unwrap_or_default();
    let mut w = Writer::new(1 + body.len());
    w.u8(plan.is_some().into()).bytes(&body);
    Bytes::from(w.finish())
}

/// `Some(None)` is the no-plan marker, exactly `[0]`; anything that is
/// neither it nor `[1]` and a valid plan is damage, `None`.
fn decode_plan(m: &[u8]) -> Option<Option<PlacementPlan>> {
    match m.split_first()? {
        (0, []) => Some(None),
        (1, plan) => PlacementPlan::decode(plan).ok().map(Some),
        _ => None,
    }
}

/// Each rank's READY flag and the coordinator's COMMIT, `[1]` for yes.
fn encode_flag(yes: bool) -> Bytes {
    Bytes::from(Writer::new(1).u8(yes.into()).finish())
}

fn decode_flag(m: &[u8]) -> Option<bool> {
    Reader::frame(m, Reader::u8).ok().map(|f| f == 1)
}

/// One placement quantum: every rank probes its links and drains its
/// routing-load accumulators into a [`LoadReport`]; the coordinator runs
/// the deterministic policy ([`decide_plan`]) — replicate hot experts onto
/// underloaded ranks, migrate experts off gray ranks, retune the shed
/// capacity factor — and the plan commits two-phase: reports → plan →
/// staged expert transfers (sealed streams, parse-verify-apply) →
/// all-ranks READY → coordinator COMMIT. Any failure anywhere aborts the
/// quantum on that rank: staged guest bodies are discarded and routing
/// stays on the old placement. A rank that dies mid-quantum tears the
/// protocol, but the next step's vote buries it and the burial path resets
/// *everyone* to the static layout, so a torn commit can never leave ranks
/// routing on divergent placements for more than one attempt.
///
/// Stall probes time this rank's own control sends: chaos latency and
/// bandwidth shaping sleep the *sender*, so the outbound link cost lands
/// in the probe; healthy in-process links read ~0 µs, below the gray
/// floor, keeping no-chaos replays plan-deterministic. Inbound probes are
/// never asked for; the end-of-step discard drops them.
pub(super) fn placement_quantum(h: &mut RankHandle, st: &mut RankState) -> Result<(), FabricError> {
    let (me, p, step, cfg) = (st.me, st.p, st.step as u64, st.cfg);
    let epr = st.model.moe.experts_per_rank();
    let n_experts = p * epr;
    // Placement composes with failover by *yielding* to it: plans are made
    // only by a fully-live cluster (any death resets routing to the static
    // layout) and resume once membership is whole again. The transfer
    // payload is a rank's whole `Half::OwnExpert` — unambiguous only at
    // one expert per rank (the shape the FT loop always builds).
    if epr != 1 || st.live.contains(&false) {
        return Ok(());
    }
    let coordinator = 0; // the lowest live rank of a fully-live cluster
    let peers = st.live_peers();
    let deadline = cfg.quantum_deadline();

    let probe_lane = Lane::Probe.at(step)?;
    let probe = Bytes::from(vec![0u8; 64]);
    let mut stall_p99_us = vec![0u64; p];
    for &r in &peers {
        for _ in 0..PLACEMENT_PROBES {
            let t0 = Instant::now();
            wire::send_copies(h, r, probe_lane, &probe)?;
            stall_p99_us[r] = stall_p99_us[r].max(t0.elapsed().as_micros() as u64);
        }
    }
    let (mut loads, shed, routed, service_p99_us) = st.model.moe.take_load_stats();
    loads.resize(n_experts, 0);
    st.report.tokens_routed += routed;
    st.report.tokens_shed += shed;
    let report = LoadReport {
        rank: me,
        loads,
        shed,
        routed,
        service_p99_us,
        stall_p99_us,
    };

    // Reports to the coordinator, plan back out.
    let plan_lane = Lane::Plan.at(step)?;
    let plan = if me == coordinator {
        let reports = wire::gather(h, &peers, Lane::Report.at(step)?, deadline, |r, m| {
            LoadReport::decode(m).ok().filter(|rep| rep.rank == r)
        })?;
        // Every rank is live here, so this rank is rank 0 and its peers'
        // reports follow in rank order.
        let plan = reports.map(|reports| {
            let by_rank: Vec<Option<LoadReport>> =
                std::iter::once(report).chain(reports).map(Some).collect();
            let policy = PolicyConfig {
                hot_factor: cfg.placement_hot_factor,
                gray_factor: cfg.placement_gray_factor,
                max_replicas: PLACEMENT_MAX_REPLICAS,
                shed_floor: PLACEMENT_SHED_FLOOR,
                min_tokens: 1,
            };
            let (live, version) = (&st.live, st.placement_version + 1);
            decide_plan(
                n_experts,
                epr,
                live,
                &by_rank,
                cfg.capacity_factor,
                &policy,
                version,
            )
        });
        wire::broadcast(h, &peers, plan_lane, &encode_plan(plan.as_ref()))?;
        plan
    } else {
        let frame = Bytes::from(report.encode());
        wire::send_copies(h, coordinator, Lane::Report.at(step)?, &frame)?;
        wire::recv_copy(h, coordinator, plan_lane, deadline, |m| decode_plan(m))?.flatten()
    };
    // No plan this quantum: nothing was staged, nothing to abort. The
    // coordinator's READY collection (if it decided a plan we never saw)
    // times out and aborts there too.
    let Some(plan) = plan else {
        return Ok(());
    };

    // Stage transfers. For each expert gaining a server outside its old
    // sync group, the static home (always in sync — see the per-expert
    // gradient reduce in `try_step`) streams weights + velocity; the new
    // server installs a guest body and applies the verified payload.
    let next = &plan.placement;
    let current = st.model.moe.placement().cloned();
    let current = current.unwrap_or_else(|| Placement::static_layout(n_experts, epr));
    let mut staged: Vec<usize> = Vec::new();
    let staging = (|| {
        for e in 0..n_experts {
            let receivers = next.receivers_vs(&current, e);
            let home = next.static_home(e);
            if me == home && !receivers.is_empty() {
                let payload = st.save(Half::OwnExpert);
                for &r in &receivers {
                    let lane = Lane::Transfer.sub(step, e as u64)?;
                    let sent = wire::stream_state(h, r, lane, &payload)?;
                    st.report.placement_transfer_bytes += sent;
                    schemoe_obs::counters_for_rank(me).add_placement_transfer(sent as usize);
                }
            } else if receivers.contains(&me) {
                staged.push(e);
                let lane = Lane::Transfer.sub(step, e as u64)?;
                let payload = wire::receive_state(h, home, lane, deadline)?;
                if st.install_guest(e, Some(&payload)).is_err() {
                    return Ok(false);
                }
                let got = 16 + payload.len();
                st.report.placement_transfer_bytes += got as u64;
                schemoe_obs::counters_for_rank(me).add_placement_transfer(got);
            }
        }
        Ok::<bool, FabricError>(true)
    })();
    let ok = matches!(staging, Ok(true));

    // READY / COMMIT. The plan activates only if *every* rank staged
    // cleanly; one torn transfer aborts the whole quantum so no two ranks
    // ever route on different placements.
    let commit_lane = Lane::Commit.at(step)?;
    let commit = if me == coordinator {
        let ready = wire::gather(h, &peers, Lane::Ready.at(step)?, deadline, |_, m| {
            decode_flag(m)
        })?;
        let all_ok = ok && ready.is_some_and(|flags| flags.iter().all(|&f| f));
        wire::broadcast(h, &peers, commit_lane, &encode_flag(all_ok))?;
        all_ok
    } else {
        wire::send_copies(h, coordinator, Lane::Ready.at(step)?, &encode_flag(ok))?;
        wire::recv_copy(h, coordinator, commit_lane, deadline, |m| decode_flag(m))?.unwrap_or(false)
    };
    if !commit {
        for e in staged {
            st.discard_guest(e);
        }
        return Ok(());
    }
    let replications: u64 = (0..n_experts)
        .map(|e| next.servers(e).len().saturating_sub(1) as u64)
        .sum();
    let migrations = (0..n_experts)
        .filter(|&e| !next.servers(e).contains(&next.static_home(e)))
        .count() as u64;
    let demotions = (0..p)
        .filter(|&r| st.live[r] && next.served_by(r).is_empty())
        .count() as u64;
    st.report.placement_plans += 1;
    st.report.placement_replications += replications;
    st.report.placement_migrations += migrations;
    st.report.placement_demotions += demotions;
    st.placement_version = next.version();
    st.set_placement(next.clone());
    let capacity = plan.capacity_override.unwrap_or(cfg.capacity_factor);
    st.model.moe.set_capacity_factor(capacity);
    schemoe_obs::counters_for_rank(me).add_placement_plan(replications, migrations, demotions);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::FtConfig;
    use proptest::prelude::*;
    use schemoe_cluster::{ChaosPlan, Fabric, Topology, TransportKind};

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn control_frames_keep_their_bytes() {
        assert_eq!(
            hex(&encode_ack(7, 197, 0xDEAD_BEEF)),
            "0700000000000000c5000000efbeadde"
        );
        assert_eq!(hex(&encode_plan(None)), "00");
        let plan = PlacementPlan {
            placement: Placement::static_layout(2, 1).with_version(3),
            capacity_override: None,
        };
        assert_eq!(
            hex(&encode_plan(Some(&plan))),
            "01504c504c010000000000000000000000002c000000504c4d54010000000300\
             000000000000010000000200000001000000000000000100000001000000178435\
             066b0849af"
        );
        assert_eq!(hex(&encode_flag(true)), "01");
        assert_eq!(hex(&encode_flag(false)), "00");
        assert_eq!(decode_plan(&encode_plan(Some(&plan))), Some(Some(plan)));
        assert_eq!(decode_flag(&encode_flag(true)), Some(true));
    }

    #[test]
    fn a_lost_replica_frame_costs_only_its_own_quantum() {
        // Send 1 on link 0 -> 1 is quantum 2's frame to rank 0's buddy.
        let cfg = FtConfig::tiny(4);
        let plan = ChaosPlan::seeded(1).blackhole_window(0, 1, 1, 2);
        let stored = Fabric::run_with(
            TransportKind::Channel,
            Topology::new(1, 2),
            Some(plan),
            |mut h| {
                let mut st = RankState::new(&cfg, h.rank(), 2);
                for step in 1..=3 {
                    st.step = step;
                    replicate_quantum(&mut h, &mut st).expect("no rank dies");
                }
                st.stores.get(&0).and_then(|s| s.replica()).map(|(q, _)| q)
            },
        );
        assert_eq!(stored[1], Some(3), "rank 1's replica of ward 0");
    }

    #[test]
    fn the_no_plan_marker_is_exactly_one_zero_byte() {
        assert_eq!(decode_plan(&[0]), Some(None));
        // Anything else that is not `[1]` and a plan is damage, never an
        // instruction to skip the quantum.
        for bad in [&[][..], &[0, 0], &[0, 1, 2], &[2], &[7, 0], &[1], &[1, 0]] {
            assert_eq!(decode_plan(bad), None, "{bad:?}");
        }
    }

    proptest! {
        /// Arbitrary bytes through the quanta's frame parsers: a value or
        /// `None`, never a panic; and what the encoders write reads back.
        #[test]
        fn hostile_quantum_frames_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            generation in 0u64..u64::MAX,
            len in 0u32..u32::MAX,
            crc in 0u32..u32::MAX,
        ) {
            let _ = decode_ack(&bytes);
            let _ = decode_plan(&bytes);
            let _ = decode_flag(&bytes);
            let _ = LoadReport::decode(&bytes);
            prop_assert_eq!(
                decode_ack(&encode_ack(generation, len, crc)),
                Some((generation, len, crc))
            );
            prop_assert!(matches!(decode_plan(&encode_plan(None)), Some(None)));
        }
    }
}
