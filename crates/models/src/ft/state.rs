//! Everything one rank owns across a fault-tolerant run: the model quad,
//! membership view, in-memory checkpoint, replication and placement side
//! state, and the [`FtReport`] it accumulates — with the state transitions
//! the protocols share as methods, so each exists once.
//!
//! The membership view is the one ledger of who serves what: the live
//! mask, the failover hosts and the committed placement. After every
//! change to it the rank hands the MoE layer the routing table it implies
//! (`RankState::table`); the layer keeps no copy of its own.

use std::collections::BTreeMap;

use schemoe_cluster::{FabricError, RankHandle};
use schemoe_collectives::NcclA2A;
use schemoe_compression::record::RecordError;
use schemoe_compression::NoCompression;
use schemoe_moe::{
    allreduce_live, DistributedMoeLayer, Expert, FfExpert, GradAllreduce, Placement, ReplicaStore,
    TopKGate,
};
use schemoe_tensor::checkpoint;
use schemoe_tensor::nn::{Embedding, Linear, Module, Param, SoftmaxCrossEntropy};
use schemoe_tensor::optim::Sgd;
use schemoe_tensor::rng::seeded;
use schemoe_tensor::snapshot::{Shard, ShardReplica};

use super::wire;
use super::{buddy_of, FtConfig, FtReport};
use crate::data::RegimeMarkov;

/// Number of Markov regimes in the data generator.
const REGIMES: usize = 2;

/// In-memory checkpoint cadence in committed steps.
const CHECKPOINT_EVERY: usize = 5;

/// A walk over parameters, as [`checkpoint`] and the optimizer take them.
type Walk<'a> = dyn FnMut(&mut dyn FnMut(&mut Param)) + 'a;

/// Which slice of a rank's state a sealed payload carries. Every payload
/// is weights alone (plain SGD holds no state), and an expert's are the
/// same parameters under the same names wherever it is served — so a
/// host's frame for an expert loads into its owner, a home's into a guest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Half {
    /// Embedding, gate and head: what a rejoiner needs to continue the
    /// replicated trajectory bit-for-bit.
    Replicated,
    /// This rank's own expert: the replica a buddy keeps, the expert half
    /// of a snapshot shard, and what a handback or transfer applies to.
    OwnExpert,
    /// The guest body this rank serves for expert `.0` — a placement
    /// replica, or a dead home's expert it hosts by failover.
    Guest(usize),
}

/// The model triple, walked as one: embedding → MoE layer → linear head.
pub struct Model {
    pub embed: Embedding,
    pub moe: DistributedMoeLayer,
    pub head: Linear,
}

impl Model {
    /// Visits every parameter in the fixed order checkpoints rely on,
    /// flagging each as replicated (embedding, gate, head — gradients
    /// averaged across live ranks) or rank-local (the expert).
    fn visit_flagged(&mut self, f: &mut dyn FnMut(&mut Param, bool)) {
        self.embed.visit_params(&mut |p| f(p, true));
        self.moe.visit_params(&mut |p| {
            let replicated = p.name.starts_with("gate.");
            f(p, replicated);
        });
        self.head.visit_params(&mut |p| f(p, true));
    }

    /// Visits every parameter, in the fixed order checkpoints rely on.
    pub fn visit_all(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_flagged(&mut |p, _| f(p));
    }
}

/// One rank's whole training state.
pub struct RankState {
    pub(super) cfg: FtConfig,
    pub(super) me: usize,
    pub(super) p: usize,
    /// The model quad. Replicated modules share one seed; the expert is
    /// per-rank.
    pub model: Model,
    pub opt: Sgd,
    ce: SoftmaxCrossEntropy,
    markov: RegimeMarkov,
    pub(super) live: Vec<bool>,
    /// Hot failover: dead rank → the live host serving its expert from a
    /// buddy replica. Every live rank holds the same map.
    pub(super) failover_hosts: BTreeMap<usize, usize>,
    /// The committed load-aware placement; `None` is the static layout.
    /// Only a fully live world commits one, and any burial voids it.
    pub(super) placement: Option<Placement>,
    /// Ranks buried on first-hand disconnection evidence: provably
    /// crashed, so they shrink the quorum base. Silence-buried ranks do
    /// not.
    pub(super) confirmed_gone: u64,
    /// Steps committed so far, and the tag window of the next attempt.
    pub(super) step: usize,
    pub(super) tag: u64,
    ckpt: Vec<u8>,
    ckpt_step: usize,
    /// Buddy replication: per ward its latest verified replica.
    pub(super) stores: BTreeMap<usize, ReplicaStore>,
    /// Version of the last committed placement plan.
    pub(super) placement_version: u64,
    /// Snapshot generations started.
    pub(super) generation: u64,
    pub(super) report: FtReport,
}

/// A fresh, deterministically seeded body for rank `home`'s expert.
fn seeded_expert(cfg: &FtConfig, home: usize) -> Box<dyn Expert> {
    let mut rng = seeded(cfg.seed ^ 0xE8_0000 ^ home as u64);
    Box::new(FfExpert::new(cfg.model_dim, cfg.hidden_dim, &mut rng))
}

fn grads_of(walk: &mut Walk<'_>) -> Vec<f32> {
    let mut flat = Vec::new();
    walk(&mut |p| flat.extend_from_slice(p.grad.data()));
    flat
}

fn scatter_grads(walk: &mut Walk<'_>, src: &[f32], scale: f32) {
    let mut off = 0usize;
    walk(&mut |p| {
        let n = p.grad.numel();
        for (g, &r) in p.grad.data_mut().iter_mut().zip(&src[off..off + n]) {
            *g = r * scale;
        }
        off += n;
    });
}

impl RankState {
    /// Builds rank `me` of a `p`-rank world, seeded from `cfg.seed`.
    pub fn new(cfg: &FtConfig, me: usize, p: usize) -> RankState {
        let seed = cfg.seed;
        let gate = TopKGate::new(
            cfg.model_dim,
            p,
            cfg.k,
            cfg.capacity_factor,
            &mut seeded(seed ^ 0x6A7E),
        );
        let moe = DistributedMoeLayer::new(
            gate,
            vec![seeded_expert(cfg, me)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        )
        .with_partition_degree(cfg.partition_degree.max(1))
        // As patient as a vote is with all four of its tries.
        .with_recv_timeout(cfg.quantum_deadline() * 2);
        let model = Model {
            embed: Embedding::new(cfg.vocab, cfg.model_dim, &mut seeded(seed ^ 0xE3BED)),
            moe,
            head: Linear::new(cfg.model_dim, cfg.vocab, &mut seeded(seed ^ 0x4EAD)),
        };
        let mut st = RankState {
            cfg: *cfg,
            me,
            p,
            model,
            opt: Sgd::new(cfg.lr),
            ce: SoftmaxCrossEntropy::new(),
            markov: RegimeMarkov::new(cfg.vocab, REGIMES, &mut seeded(seed ^ 0xDA7A)),
            live: vec![true; p],
            failover_hosts: BTreeMap::new(),
            placement: None,
            confirmed_gone: 0,
            step: 0,
            tag: 0,
            ckpt: Vec::new(),
            ckpt_step: 0,
            stores: BTreeMap::new(),
            placement_version: 0,
            generation: 0,
            report: FtReport::default(),
        };
        st.report.loss_curve = vec![f32::NAN; cfg.steps];
        st.checkpoint();
        st
    }

    fn visit_half(&mut self, half: Half, f: &mut dyn FnMut(&mut Param)) {
        match half {
            Half::Replicated | Half::OwnExpert => {
                let want = half == Half::Replicated;
                self.model.visit_flagged(&mut |p, replicated| {
                    if replicated == want {
                        f(p);
                    }
                });
            }
            Half::Guest(e) => self.model.moe.visit_serving_params(self.me, e, f),
        }
    }

    /// Serializes `half` as one CRC-sealed checkpoint payload.
    pub fn save(&mut self, half: Half) -> Vec<u8> {
        checkpoint::save(&mut |f| self.visit_half(half, f))
    }

    /// Applies a payload [`save`](Self::save)d from the matching half (on
    /// any rank). Nothing is touched unless the seal verifies; a verified
    /// payload of the wrong shape is a [`RecordError::Mismatch`].
    pub fn load(&mut self, half: Half, payload: &[u8]) -> Result<(), RecordError> {
        checkpoint::load(payload, &mut |f| self.visit_half(half, f))
    }

    /// Refreshes the in-memory checkpoint at the current step.
    pub(super) fn checkpoint(&mut self) {
        self.ckpt = checkpoint::save(&mut |f| self.model.visit_all(f));
        self.ckpt_step = self.step;
    }

    /// Buries `dead`: one epoch bump each (traffic from anyone still
    /// assuming the old membership is rejected as stale rather than fed
    /// into collectives), rewind to the checkpoint, and — with replication
    /// on — failover activation, in the same step-attempt.
    ///
    /// # Panics
    ///
    /// Panics if the in-memory checkpoint fails to restore (it was
    /// produced by this very process, so damage indicates a bug).
    pub(super) fn bury(&mut self, h: &RankHandle, dead: &[usize]) {
        let _span = schemoe_obs::span("ft", format_args!("restore after {dead:?} died"));
        self.placement = None;
        for &r in dead {
            self.live[r] = false;
            // A dying host orphans its wards: the gate masks their experts
            // again until a new host takes over.
            self.failover_hosts.retain(|_, host| *host != r);
            self.report.epoch_transitions.push(h.advance_epoch());
        }
        checkpoint::load(&self.ckpt, &mut |f| self.model.visit_all(f))
            .expect("in-memory checkpoint must restore");
        self.report.restores += 1;
        if self.cfg.replica_interval != 0 {
            for &r in dead {
                self.activate_failover(r);
            }
        }
        self.route();
        self.step = self.ckpt_step;
    }

    /// Failover for buried rank `r`: every survivor installs the route to
    /// `r`'s buddy so the gate keeps the full expert set; the buddy
    /// rebuilds the expert (verified replica if one arrived, deterministic
    /// re-init otherwise) and hosts it from here on. If the buddy died in
    /// the same verdict the ward is orphaned and stays masked — the
    /// reroute-only fallback.
    fn activate_failover(&mut self, r: usize) {
        let buddy = buddy_of(r, self.p);
        if buddy == r || !self.live[buddy] {
            return;
        }
        self.failover_hosts.insert(r, buddy);
        if self.me != buddy {
            return;
        }
        let _s = schemoe_obs::span("replication", format_args!("failover{r}@{}", self.step));
        // No frame ever arrived: the re-init, as of quantum 0, is as stale
        // as the whole run so far.
        let replica = self.stores.get(&r).and_then(|s| s.replica());
        let (q, payload) = replica.map_or((0, None), |(q, frame)| (q, Some(frame.to_vec())));
        self.install_guest(r, payload.as_deref())
            .expect("a CRC-verified replica must apply");
        let stale = (self.step as u64).saturating_sub(q);
        self.report.failover_staleness_steps.push(stale);
        self.report.failover_activations += 1;
    }

    /// Re-admits `r` on a survivor: epoch bump, live again everywhere, and
    /// whatever this rank hosted for it is the owner's again.
    pub(super) fn admit(&mut self, h: &RankHandle, r: usize) {
        self.report.epoch_transitions.push(h.advance_epoch());
        self.live[r] = true;
        self.failover_hosts.remove(&r);
        self.route();
        h.mark_peer_reachable(r);
    }

    /// The placement reset every membership disturbance forces: back to
    /// the static layout and the configured capacity, placement guests
    /// gone (failover wards stay). Every live rank computes the same
    /// verdict, so everyone resets together and the controller re-derives
    /// a plan once the cluster is whole.
    pub(super) fn reset_placement(&mut self) {
        self.placement = None;
        self.route();
        self.model.moe.set_capacity_factor(self.cfg.capacity_factor);
    }

    /// Installs `placement` as this rank's committed one. Its guest bodies
    /// are already installed; those it no longer assigns here go.
    pub(super) fn set_placement(&mut self, placement: Placement) {
        self.placement = Some(placement);
        self.route();
    }

    /// The routing table the ledger implies, `(servers per global expert,
    /// live mask)`: a committed placement's servers; otherwise a live
    /// owner serves its own experts, a dead owner's are served by its
    /// failover host, and an orphaned one's by nobody (the gate masks
    /// them).
    pub(super) fn table(&self) -> (Vec<Vec<usize>>, Vec<bool>) {
        let epr = self.model.moe.experts_per_rank();
        let servers = (0..self.p * epr)
            .map(|e| match (&self.placement, e / epr) {
                (Some(pl), _) => pl.servers(e).to_vec(),
                (None, home) if self.live[home] => vec![home],
                (None, home) => Vec::from_iter(self.failover_hosts.get(&home).copied()),
            })
            .collect();
        (servers, self.live.clone())
    }

    /// Hands the MoE layer the ledger's routing table.
    pub(super) fn route(&mut self) {
        let (servers, live) = self.table();
        self.model.moe.set_routing(self.me, servers, live);
    }

    /// Installs a deterministically seeded guest body for expert `e` and
    /// applies `payload` — the sealed [`Half::OwnExpert`] of `e`'s home,
    /// or a buddy's replica of it — over it.
    pub(super) fn install_guest(
        &mut self,
        e: usize,
        payload: Option<&[u8]>,
    ) -> Result<(), RecordError> {
        let body = seeded_expert(&self.cfg, e);
        self.model.moe.install_guest_expert(self.me, e, body);
        payload.map_or(Ok(()), |payload| self.load(Half::Guest(e), payload))
    }

    /// Drops guest `e`'s body (a staged transfer that will not commit).
    pub(super) fn discard_guest(&mut self, e: usize) {
        self.model.moe.discard_guest_expert(e);
    }

    /// The reset a rank performs on coming back through an invite, to
    /// resume at `step` under the tag window at `tag`: anything it hosted
    /// or replicated before is stale, so its guests and stored replicas go
    /// and the checkpoint is retaken at the invited step.
    pub(super) fn resume_at(&mut self, step: usize, tag: u64) {
        self.report.rejoins += 1;
        self.step = step;
        self.tag = tag;
        for e in self.model.moe.guest_expert_ids() {
            self.discard_guest(e);
        }
        self.stores.clear();
        self.checkpoint();
    }

    /// Zeroes every gradient this rank will reduce or step — guests too: a
    /// guest the router sends no tokens to must contribute exact zeros to
    /// its sync-group reduce.
    pub(super) fn zero_grads(&mut self) {
        self.model.visit_all(&mut |p| p.zero_grad());
        let moe = &mut self.model.moe;
        for e in moe.guest_expert_ids() {
            moe.visit_serving_params(self.me, e, &mut |p| p.zero_grad());
        }
    }

    /// One forward/backward/grad-sync attempt under the tag window at
    /// `tag`. Any fabric fault aborts the attempt with a typed error; no
    /// parameter is updated here.
    pub(super) fn try_step(&mut self, h: &mut RankHandle, tag: u64) -> Result<f32, FabricError> {
        let (cfg, me, live, placement) = (self.cfg, self.me, &self.live, &self.placement);
        let Model { embed, moe, head } = &mut self.model;
        // The batch is a pure function of (seed, step, rank): a rewound
        // step replays exactly the same tokens.
        let mut rng = seeded(cfg.seed ^ 0x5EED_0000 ^ ((self.step as u64) << 8) ^ me as u64);
        let l = cfg.seq_len;
        let toks = self.markov.sample_batch(cfg.seqs_per_rank, l + 1, &mut rng);
        let rows = toks.chunks(l + 1);
        let inputs: Vec<usize> = rows.clone().flat_map(|row| &row[..l]).copied().collect();
        let targets: Vec<usize> = rows.flat_map(|row| &row[1..]).copied().collect();

        let x = {
            let _s = schemoe_obs::span("embed", "fwd");
            embed.forward(&inputs)
        };
        let hid = moe.forward(h, &x, tag)?;
        let logits = {
            let _s = schemoe_obs::span("head", "fwd");
            head.forward(&hid)
        };
        let (loss, dlogits) = {
            let _s = schemoe_obs::span("loss", "ce");
            (self.ce.forward(&logits, &targets), self.ce.backward())
        };
        let dhid = {
            let _s = schemoe_obs::span("head", "bwd");
            head.backward(&dlogits)
        };

        // Split replicated-gradient allreduce. The head's gradients are
        // final before the MoE backward starts, so their reduction is
        // folded into the backward task graph and overlaps the backward
        // all-to-alls on the comm worker. Embedding and gate gradients
        // only exist afterwards and are reduced on a second slot.
        let mut head_flat = grads_of(&mut |f| head.visit_params(f));
        let folded = GradAllreduce {
            values: &mut head_flat,
            tag: wire::allreduce_tag(tag, 0),
            live,
        };
        let dx = moe.backward_with_allreduce(h, &dhid, Some(folded))?;
        {
            let _s = schemoe_obs::span("embed", "bwd");
            embed.backward(&dx);
        }
        let mut rest = |f: &mut dyn FnMut(&mut Param)| {
            embed.visit_params(f);
            moe.visit_params(&mut |p| {
                if p.name.starts_with("gate.") {
                    f(p);
                }
            });
        };
        let mut flat = grads_of(&mut rest);
        {
            let _s = schemoe_obs::span("coll", "allreduce[embed+gate]");
            allreduce_live(h, &mut flat, wire::allreduce_tag(tag, 1), live)?;
        }
        let scale = 1.0 / live.iter().filter(|&&a| a).count() as f32;
        scatter_grads(&mut rest, &flat, scale);
        scatter_grads(&mut |f| head.visit_params(f), &head_flat, scale);

        // Per-expert sync-group gradient reduce under a committed
        // placement. Every member of `sync_group(e)` — the serving ranks
        // plus the static home, which always stays a member so transfers
        // can source from it — receives the *unscaled sum* of the members'
        // partial gradients and applies the identical update. A member the
        // router sent no tokens to contributes zeros (its body was
        // untouched this attempt), so the sum is the full-batch gradient
        // regardless of how tokens fanned out. Groups of one (the static
        // layout) skip the wire entirely.
        if let Some(pl) = placement {
            for e in 0..pl.n_experts() {
                let group = pl.sync_group(e);
                if group.len() < 2 || !group.contains(&me) {
                    continue;
                }
                let mask: Vec<bool> = (0..live.len()).map(|r| group.contains(&r)).collect();
                let mut flat = grads_of(&mut |f| moe.visit_serving_params(me, e, f));
                allreduce_live(h, &mut flat, wire::allreduce_tag(tag, 2 + e as u64), &mask)?;
                scatter_grads(&mut |f| moe.visit_serving_params(me, e, f), &flat, 1.0);
            }
        }
        Ok(loss)
    }

    /// Commits the step everywhere an all-OK verdict allows: optimizer
    /// step, each guest body under the same stateless rule its home uses
    /// (a placement guest's gradients left [`try_step`](Self::try_step) as
    /// the sync-group *sum*, identical on every member, so replicas never
    /// drift), the loss, and the periodic checkpoint.
    pub(super) fn commit(&mut self, loss: f32) {
        let opt_span = schemoe_obs::span("optimizer", "sgd");
        self.opt.step_params(&mut |f| self.model.visit_all(f));
        let (me, moe) = (self.me, &mut self.model.moe);
        for e in moe.guest_expert_ids() {
            self.opt
                .step_params(&mut |f| moe.visit_serving_params(me, e, f));
        }
        drop(opt_span);
        self.report.loss_curve[self.step] = loss;
        self.step += 1;
        if self.step.is_multiple_of(CHECKPOINT_EVERY) || self.step == self.cfg.steps {
            self.checkpoint();
        }
    }

    /// True when a quantum with cadence `every` (0 = off) is due at the
    /// step just committed. The last step runs none: there is nothing
    /// left to protect.
    pub(super) fn due(&self, every: usize) -> bool {
        every != 0 && self.step.is_multiple_of(every) && self.step < self.cfg.steps
    }

    /// Live ranks other than this one, ascending.
    pub(super) fn live_peers(&self) -> Vec<usize> {
        let peer = |&r: &usize| self.live[r] && r != self.me;
        (0..self.p).filter(peer).collect()
    }

    /// The lowest live rank: coordinator of every quantum, donor of every
    /// rejoin.
    pub(super) fn coordinator(&self) -> Option<usize> {
        (0..self.p).find(|&r| self.live[r])
    }

    /// This rank's snapshot shard: both halves of its own state, plus
    /// every ward's stored replica — superseded by the live state of a
    /// ward it hosts, which kept training after failover. A placement
    /// guest is never embedded: its home's shard carries it.
    pub(super) fn encode_shard(&mut self) -> Vec<u8> {
        let step = self.step as u64;
        let replica = |ward: usize, quantum: u64, payload: Vec<u8>| ShardReplica {
            ward: ward as u32,
            quantum,
            payload,
        };
        let mut replicas: Vec<ShardReplica> = Vec::new();
        for (&ward, store) in &self.stores {
            if let Some((quantum, payload)) = store.replica() {
                replicas.push(replica(ward, quantum, payload.to_vec()));
            }
        }
        for r in self.model.moe.guest_expert_ids() {
            if !self.live[r] {
                replicas.retain(|rep| rep.ward != r as u32);
                replicas.push(replica(r, step, self.save(Half::Guest(r))));
            }
        }
        let shard = Shard {
            generation: self.generation,
            rank: self.me as u32,
            world: self.p as u32,
            step,
            seed: self.cfg.seed,
            replicated: self.save(Half::Replicated),
            expert: self.save(Half::OwnExpert),
            replicas,
        };
        shard.encode()
    }

    /// Folds the run into its report. `died` is the step this rank was
    /// working on when it died for good, if it did.
    pub(super) fn into_report(mut self, h: &RankHandle, died: Option<usize>) -> FtReport {
        let (_, shed, routed, _) = self.model.moe.take_load_stats();
        self.report.tokens_shed += shed;
        self.report.tokens_routed += routed;
        let last = self.report.loss_curve.iter().rev().find(|l| !l.is_nan());
        FtReport {
            final_loss: last.copied().unwrap_or(f32::NAN),
            died_at_step: died,
            dead_ranks: (0..self.p).filter(|&r| !self.live[r]).collect(),
            final_epoch: h.epoch(),
            ..self.report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_cluster::{Fabric, Topology};
    use schemoe_moe::DeltaEncoder;

    fn expert_values(st: &mut RankState) -> Vec<Vec<f32>> {
        let mut values = Vec::new();
        st.model.visit_flagged(&mut |p, replicated| {
            if !replicated {
                values.push(p.value.data().to_vec());
            }
        });
        values
    }

    /// Runs `f` as rank 2 of a four-rank fabric; the other ranks idle.
    fn on_rank_2<T: Send>(f: impl Fn(&RankHandle) -> T + Send + Sync) -> T {
        let out = Fabric::run(Topology::new(1, 4), |h| (h.rank() == 2).then(|| f(&h)));
        out.into_iter().flatten().next().expect("rank 2 ran")
    }

    /// Rank 2, buddy of rank 1, after burying it: it hosts rank 1's expert
    /// from its owner's frame and has trained it for two commits on
    /// seeded gradients.
    fn trained_host(h: &RankHandle) -> RankState {
        let cfg = FtConfig::tiny(4).with_replica_interval(1);
        let payload = RankState::new(&cfg, 1, 4).save(Half::OwnExpert);
        let mut host = RankState::new(&cfg, 2, 4);
        host.bury(h, &[1]);
        host.load(Half::Guest(1), &payload)
            .expect("the owner's frame applies to the hosted guest");
        let mut rng = seeded(0xC0FFEE);
        for loss in [0.5, 0.25] {
            host.model.moe.visit_serving_params(2, 1, &mut |p| {
                p.grad = schemoe_tensor::rng::uniform(p.value.dims(), 1.0, &mut rng);
            });
            host.commit(loss);
        }
        host
    }

    /// CRC-32 of a sealed record's content (the whole record's CRC is the
    /// same constant for every sealed record).
    fn content_crc(sealed: &[u8]) -> u32 {
        schemoe_compression::crc32(&sealed[..sealed.len() - 4])
    }

    #[test]
    fn a_hosts_handback_and_shard_bytes_are_pinned() {
        // The bytes a failover host sends its revived owner and writes to
        // disk, pinned to what the host wrote when it kept its wards apart
        // from its placement guests under a hand-written SGD: the weights
        // alone, since SGD holds no state.
        let (handback, shard, body) = on_rank_2(|h| {
            let mut host = trained_host(h);
            let mut body = Vec::new();
            host.model.moe.visit_serving_params(2, 1, &mut |p| {
                body.push((p.name.clone(), p.value.data().to_vec()));
            });
            (host.save(Half::Guest(1)), host.encode_shard(), body)
        });
        assert_eq!(
            (content_crc(&handback), handback.len()),
            (0x6cd4_2469, 4392)
        );
        assert_eq!((content_crc(&shard), shard.len()), (0x143b_f954, 11338));
        // The handback is the guest body's parameters and nothing else: it
        // loads whole into a bare expert of the same shape.
        let cfg = FtConfig::tiny(4);
        let mut bare = FfExpert::new(cfg.model_dim, cfg.hidden_dim, &mut seeded(0));
        checkpoint::load(&handback, &mut |f| bare.visit_params(f))
            .expect("the handback is weights alone");
        let mut loaded = Vec::new();
        bare.visit_params(&mut |p| loaded.push((p.name.clone(), p.value.data().to_vec())));
        assert_eq!(loaded, body);
        let shard = Shard::decode(&shard).expect("the shard decodes");
        let wards: Vec<(u32, u64)> = shard.replicas.iter().map(|r| (r.ward, r.quantum)).collect();
        assert_eq!(
            wards,
            vec![(1, 2)],
            "the hosted ward rides at the live step"
        );
    }

    #[test]
    fn a_hosted_ward_keeps_its_body_through_resets_and_burials() {
        // Every membership disturbance resets placement and then buries.
        // The ward's guest body is the only copy of the expert's trained
        // state: it must come through untouched.
        on_rank_2(|h| {
            let mut host = trained_host(h);
            let before = host.save(Half::Guest(1));
            host.reset_placement();
            host.bury(h, &[3]);
            host.reset_placement();
            assert_eq!(host.model.moe.guest_expert_ids(), vec![1]);
            assert_eq!(host.save(Half::Guest(1)), before);
        });
    }

    #[test]
    fn the_ledger_routes_every_membership_and_placement_state() {
        // Rank 2's view of a four-rank world whose buddies follow the ring
        // (0 → 1 → 2 → 3 → 0): per change, the table it hands the layer
        // and the guest bodies it keeps.
        type Change = fn(&mut RankState, &RankHandle);
        // A change, then the servers, live mask and guests it leaves.
        type Row = (
            &'static str,
            Change,
            [&'static [usize]; 4],
            [bool; 4],
            &'static [usize],
        );
        let placed: Change = |st, h| {
            st.admit(h, 0);
            st.install_guest(1, None).expect("no payload to refuse");
            st.set_placement(Placement::new(
                1,
                1,
                vec![vec![0], vec![1, 2], vec![2], vec![3]],
            ));
        };
        let states: [Row; 7] = [
            (
                "static",
                |_, _| {},
                [&[0], &[1], &[2], &[3]],
                [true; 4],
                &[],
            ),
            (
                "owner dead, buddy live",
                |st, h| st.bury(h, &[3]),
                [&[0], &[1], &[2], &[0]],
                [true, true, true, false],
                &[],
            ),
            (
                "host dies",
                |st, h| st.bury(h, &[0]),
                [&[1], &[1], &[2], &[]],
                [false, true, true, false],
                &[],
            ),
            (
                "rejoin",
                |st, h| st.admit(h, 3),
                [&[1], &[1], &[2], &[3]],
                [false, true, true, true],
                &[],
            ),
            (
                "placement",
                placed,
                [&[0], &[1, 2], &[2], &[3]],
                [true; 4],
                &[1],
            ),
            (
                "burial under a placement",
                |st, h| st.bury(h, &[1]),
                [&[0], &[2], &[2], &[3]],
                [true, false, true, true],
                &[1],
            ),
            (
                "everyone back",
                |st, h| st.admit(h, 1),
                [&[0], &[1], &[2], &[3]],
                [true; 4],
                &[],
            ),
        ];
        on_rank_2(|h| {
            let cfg = FtConfig::tiny(4).with_replica_interval(1);
            let mut st = RankState::new(&cfg, 2, 4);
            for (state, change, servers, live, guests) in states {
                change(&mut st, h);
                let servers: Vec<Vec<usize>> = servers.iter().map(|s| s.to_vec()).collect();
                assert_eq!(st.table(), (servers, live.to_vec()), "{state}");
                assert_eq!(st.model.moe.guest_expert_ids(), guests, "{state}");
            }
        });
    }

    #[test]
    fn a_placement_guest_never_rides_the_shard() {
        // Rank 2 is rank 1's buddy and, under this placement, one of its
        // servers too. Its shard embeds the ward's stored replica, never
        // the guest's live state: the home's own shard carries that.
        let cfg = FtConfig::tiny(4);
        let mut owner = RankState::new(&cfg, 1, 4);
        let frame = owner.save(Half::OwnExpert);
        let mut st = RankState::new(&cfg, 2, 4);
        let mut store = ReplicaStore::new();
        store
            .apply(&DeltaEncoder::new().encode(&frame, 0))
            .expect("frame applies");
        st.stores.insert(1, store);
        st.install_guest(1, Some(&frame))
            .expect("the home's frame applies");
        st.set_placement(Placement::new(
            1,
            1,
            vec![vec![0], vec![1, 2], vec![2], vec![3]],
        ));
        st.step = 3;
        let shard = Shard::decode(&st.encode_shard()).expect("the shard decodes");
        let wards: Vec<(u32, u64, &[u8])> = shard
            .replicas
            .iter()
            .map(|r| (r.ward, r.quantum, &r.payload[..]))
            .collect();
        assert_eq!(wards, vec![(1, 0, &frame[..])]);
    }

    #[test]
    fn expert_payloads_round_trip_and_match_the_hosted_layout() {
        let cfg = FtConfig::tiny(4);
        let mut owner = RankState::new(&cfg, 1, 4);
        let originals = expert_values(&mut owner);
        let payload = owner.save(Half::OwnExpert);

        // Damage the expert, then restore it from its own payload.
        owner.model.moe.visit_params(&mut |p| {
            if !p.name.starts_with("gate.") {
                p.value.data_mut().iter_mut().for_each(|w| *w *= 2.0);
            }
        });
        assert_ne!(expert_values(&mut owner), originals);
        owner
            .load(Half::OwnExpert, &payload)
            .expect("own payload must apply");
        assert_eq!(expert_values(&mut owner), originals);

        // The buddy hosts the expert from the owner's frame; its handback
        // for the same expert uses the identical layout, so the owner's
        // strict positional load accepts it too.
        let mut host = RankState::new(&cfg, 2, 4);
        host.activate_failover(1);
        host.load(Half::Guest(1), &payload)
            .expect("the owner's payload must apply to the hosted copy");
        let handback = host.save(Half::Guest(1));
        assert_eq!(handback, payload, "one layout for all three halves");
        owner
            .model
            .moe
            .visit_params(&mut |p| p.value.data_mut().fill(0.0));
        owner
            .load(Half::OwnExpert, &handback)
            .expect("the handback must apply to the owner");
        assert_eq!(expert_values(&mut owner), originals);

        // And a guest installed from the home's frame serves it again.
        let mut guest = RankState::new(&cfg, 3, 4);
        guest
            .install_guest(1, Some(&payload))
            .expect("the home's payload must apply to a guest body");
        assert_eq!(guest.save(Half::Guest(1)), payload);
        assert!(guest.load(Half::Replicated, &payload).is_err());
    }
}
