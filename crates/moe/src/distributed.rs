//! Expert-parallel MoE execution over the rank fabric.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::iter::once;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use schemoe_cluster::{FabricError, RankHandle, Topology};
use schemoe_collectives::{
    allreduce_live, chunk_tag, lanes, A2aPlan, AllToAll, Block, Held, NcclA2A, MAX_PARTITION_DEGREE,
};
use schemoe_compression::{extend_scaled_f32_le, Compressor, NoCompression};
use schemoe_obs as obs;
use schemoe_scheduler::executor::{
    run_inline_cancellable, run_overlapped_cancellable, ExecTask, Worker,
};
use schemoe_scheduler::TaskKind::{
    AllToAll1, AllToAll2, Compress1, Compress2, Decompress1, Decompress2,
};
use schemoe_scheduler::{Pass, StageLabel, TaskKind};
use schemoe_tensor::gemm::Mat;
use schemoe_tensor::nn::{Param, Segment};
use schemoe_tensor::Tensor;

use crate::dispatch::{
    block, chunk_frame, decode_chunk_into, encode_into, gather_block, Routing, Rows, Workspace,
};
use crate::expert::Expert;
use crate::gating::{GateDecision, TopKGate};
use crate::placement::Placement;

/// An expert-parallel MoE layer: every rank owns `experts_per_rank`
/// experts and a gate replica, tokens travel through two all-to-alls.
///
/// Forward (paper §2.2, Fig. 2): the gate routes local tokens to *global*
/// experts; per-destination payloads are serialized, compressed with the
/// configured [`Compressor`], exchanged, decompressed, pushed through the
/// serving rank's experts, and shipped back the same way for the weighted
/// combine. Backward reverses the exchanges (gradients travel
/// uncompressed, matching the paper's §7 caution about compressing
/// backpropagation).
///
/// There is one data path. Each step derives a routing table — for every
/// global expert, the ranks serving it — from the state the layer holds:
/// the owner in the static layout, the failover host for a dead owner,
/// nobody for an orphaned one (the gate masks it), the replica set under a
/// load-aware [`Placement`]. [`forward`](Self::forward) and
/// [`backward_with_allreduce`](Self::backward_with_allreduce) each build
/// one task graph from that table and the
/// [partition degree](Self::with_partition_degree) `r`, ScheMoE's
/// `C1 → A1 → (D1·E·C2) → A2 → D2` chain per chunk: on a two-worker
/// overlap executor at `r > 1`, so chunk `c`'s exchange overlaps chunk
/// `c + 1`'s compute (the paper's OptSche order), and inline on the
/// calling thread at `r = 1`. Every exchange in it runs the configured
/// [`AllToAll`]'s plan. Outputs and every gradient are bit-identical
/// across degrees and algorithms in every mode.
pub struct DistributedMoeLayer {
    gate: TopKGate,
    local_experts: Vec<Box<dyn Expert>>,
    experts_per_rank: usize,
    compressor: Box<dyn Compressor>,
    a2a: Box<dyn AllToAll>,
    cache: Option<Cache>,
    /// The recycled blocks every step decodes into, stages through and
    /// caches in: sized by the first step, reused by the rest.
    workspace: Workspace,
    /// ScheMoE pipelining degree `r`; 1 = the same graph run inline.
    partition_degree: usize,
    /// Liveness deadline for every receive of a step.
    recv_timeout: Option<Duration>,
    /// Ranks declared dead mid-training: their experts are masked out of
    /// routing and all exchanges skip them (degraded mode).
    dead_ranks: BTreeSet<usize>,
    /// Hot-failover routing: dead rank → live host currently serving its
    /// experts from a buddy replica. Every live rank must hold the same
    /// table so the exchanges agree on who speaks for whom; a dead rank
    /// with a route keeps its experts in the routing table; the host
    /// serves them from guest bodies.
    failover_hosts: BTreeMap<usize, usize>,
    /// Load-aware expert placement installed by the placement controller;
    /// `None` (or a static table) keeps the owner-per-rank layout. A
    /// non-static placement fans each expert's slots across its replica
    /// set.
    placement: Option<Placement>,
    /// Guest expert bodies this rank serves for experts whose static home
    /// is elsewhere — replicated or migrated onto this rank by a placement,
    /// or hosted for a dead home by a failover route — keyed by global
    /// expert id. The two kinds never coexist: a placement needs a fully
    /// live world, and a guest whose home is dead is a failover ward. Kept
    /// out of [`visit_params`](Self::visit_params) so optimizer slot order
    /// never shifts when guests come and go.
    guest_experts: BTreeMap<usize, Box<dyn Expert>>,
    /// Per-global-expert routed token counts since the last
    /// [`take_load_stats`](Self::take_load_stats) drain (placement policy
    /// input).
    routing_loads: Vec<u64>,
    /// Capacity-shed assignments since the last drain.
    shed_tokens: u64,
    /// Admitted assignments since the last drain.
    routed_tokens: u64,
    /// Per forward since the last drain: the summed wall time of the
    /// step's `E` stages on this rank, in µs rounded up.
    service_us: Vec<u64>,
}

/// The span stems of the two passes' stages.
const FWD: Pass = Pass::Forward;
const BWD: Pass = Pass::Backward;

/// What a forward leaves for its backward. Everything row-shaped in it is
/// a block of the layer's workspace, sent home by [`release`](Self::release).
struct Cache {
    decision: GateDecision,
    /// The routing table the forward ran under; the backward mirrors it.
    routing: Routing,
    /// Per chunk: the rows its one expert forward per served expert read
    /// and what that forward saved. The backward differentiates each
    /// (expert, source) group from these — the source's segment of every
    /// chunk, chunks ascending — without running the forward again.
    chunks: Vec<Kept>,
    /// Per global expert: the returned output rows in this rank's slot
    /// order.
    returned_outputs: Vec<Tensor>,
    n: usize,
    tag_base: u64,
}

/// What one chunk's `D1·E·C2` keeps for the backward.
struct Kept {
    /// Per src rank: the dispatched rows as `D1` decoded them, each
    /// source's in slot order.
    inputs: Vec<Rows>,
    /// Per served expert: what its forward saved, one row per input row,
    /// sources ascending as the forward ran them.
    saved: Vec<Vec<f32>>,
}

impl Cache {
    /// Rows served expert `k` received from source `j` over the step.
    fn count(&self, k: usize, j: usize) -> usize {
        self.chunks.iter().map(|kept| kept.inputs[j].count(k)).sum()
    }

    /// The backward group of served expert `k` and source `j`: per chunk
    /// with rows of theirs, the `m`-wide input rows, what the forward saved
    /// for them (`width` per row) and their share of `dy`, which holds the
    /// group's output gradients in slot order.
    fn group<'a>(
        &'a self,
        (k, j): (usize, usize),
        (m, width): (usize, usize),
        dy: &'a [f32],
    ) -> Vec<Segment<'a>> {
        let mut at = 0;
        let mut group = Vec::with_capacity(self.chunks.len());
        for kept in &self.chunks {
            let rows = kept.inputs[j].count(k);
            if rows == 0 {
                continue;
            }
            let before: usize = kept.inputs[..j].iter().map(|src| src.count(k)).sum();
            let saved = &kept.saved[k][before * width..(before + rows) * width];
            group.push(Segment {
                x: Mat::new(kept.inputs[j].expert(k), rows, m),
                saved: Mat::new(saved, rows, width),
                dy: Mat::new(&dy[at * m..(at + rows) * m], rows, m),
            });
            at += rows;
        }
        group
    }

    /// Sends every block home.
    fn release(self, ws: &Workspace) {
        for kept in self.chunks {
            kept.inputs.into_iter().for_each(|rows| rows.recycle(ws));
            kept.saved.into_iter().for_each(|block| ws.put(block));
        }
        let outputs = self.returned_outputs.into_iter();
        outputs.for_each(|rows| ws.put(rows.into_vec()));
    }
}

/// A replicated-parameter gradient allreduce to fold into the MoE
/// backward's task graph
/// ([`backward_with_allreduce`](DistributedMoeLayer::backward_with_allreduce)).
///
/// The referenced gradients must already be final when the backward is
/// submitted (e.g. the LM head's grads, produced before the MoE backward
/// starts); at degrees above 1 the reduction then rides the comm worker
/// concurrently with the backward's compute stages instead of serializing
/// after the step.
/// The result is bit-identical to calling
/// [`allreduce_live`] separately: the same elementwise sums in the same
/// gather order, only overlapped in wall clock.
pub struct GradAllreduce<'a> {
    /// The flattened gradients to sum elementwise across live ranks.
    pub values: &'a mut [f32],
    /// Base tag of the reduction (uses `tag` and `tag + 1`).
    pub tag: u64,
    /// Live mask over the world, as [`allreduce_live`] expects.
    pub live: &'a [bool],
}

impl DistributedMoeLayer {
    /// Creates the layer from its parts.
    ///
    /// The gate must route over `world_size × experts_per_rank` experts;
    /// `local_experts.len()` must equal `experts_per_rank`.
    ///
    /// # Panics
    ///
    /// Panics on count mismatches.
    pub fn new(
        gate: TopKGate,
        local_experts: Vec<Box<dyn Expert>>,
        compressor: Box<dyn Compressor>,
        a2a: Box<dyn AllToAll>,
    ) -> Self {
        let experts_per_rank = local_experts.len();
        assert!(experts_per_rank > 0, "at least one local expert required");
        DistributedMoeLayer {
            gate,
            local_experts,
            experts_per_rank,
            compressor,
            a2a,
            cache: None,
            workspace: Workspace::default(),
            partition_degree: 1,
            recv_timeout: None,
            dead_ranks: BTreeSet::new(),
            failover_hosts: BTreeMap::new(),
            placement: None,
            guest_experts: BTreeMap::new(),
            routing_loads: Vec::new(),
            shed_tokens: 0,
            routed_tokens: 0,
            service_us: Vec::new(),
        }
    }

    /// Sets the pipelining degree `r` (the paper's token-chunk count).
    ///
    /// `1` runs the step's task graph inline on the calling thread; larger
    /// degrees run the same graph with `r` chunks on the two-worker overlap
    /// executor. Degrees above the batch size simply yield empty chunks.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or exceeds [`MAX_PARTITION_DEGREE`]
    /// (past which per-chunk tags would overflow their lane and collide
    /// with another lane's traffic).
    pub fn with_partition_degree(mut self, degree: usize) -> Self {
        assert!(degree >= 1, "partition degree must be at least 1");
        assert!(
            degree <= MAX_PARTITION_DEGREE,
            "partition degree {degree} exceeds MAX_PARTITION_DEGREE ({MAX_PARTITION_DEGREE})"
        );
        self.partition_degree = degree;
        self
    }

    /// Sets a liveness deadline for every direct receive of a step: a
    /// live-but-silent peer surfaces as [`FabricError::Timeout`] instead of
    /// hanging it.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    /// The configured pipelining degree.
    pub fn partition_degree(&self) -> usize {
        self.partition_degree
    }

    /// Number of experts on this rank.
    pub fn experts_per_rank(&self) -> usize {
        self.experts_per_rank
    }

    /// The gate replica.
    pub fn gate(&self) -> &TopKGate {
        &self.gate
    }

    /// Retunes the gate's capacity factor in place — the placement
    /// controller's overload-shedding knob. Routing weights are untouched,
    /// so the change affects only how many slots each expert admits.
    pub fn set_capacity_factor(&mut self, factor: f64) {
        self.gate.set_capacity_factor(factor);
    }

    /// Declares `rank` dead: its experts leave the routing table (the gate
    /// renormalizes over survivors) and every exchange skips it. The next
    /// forward runs in degraded mode — with a quality warning recorded on
    /// the `degraded` span and counter — instead of hanging on the dead
    /// peer. With at least two live ranks an `r > 1` pipeline keeps
    /// overlapping over the survivors; a world shrunk to one live rank has
    /// no communication left to overlap and runs its graph inline.
    pub fn mark_rank_dead(&mut self, rank: usize) {
        self.dead_ranks.insert(rank);
        // A dying host orphans its wards: their routes vanish and the gate
        // masks their experts out again until a new host takes over.
        self.failover_hosts.retain(|_, host| *host != rank);
    }

    /// The inverse of [`mark_rank_dead`](Self::mark_rank_dead): `rank` has
    /// rejoined (its state was restored by the rejoin protocol), so its
    /// experts re-enter the routing table, the gate's normalization expands
    /// back over them, exchanges include it again, and — once the dead set
    /// is empty — the forward leaves degraded mode entirely. Its route and
    /// any guest bodies hosted for it go: the owner serves them again.
    pub fn mark_rank_alive(&mut self, rank: usize) {
        self.dead_ranks.remove(&rank);
        self.failover_hosts.remove(&rank);
        let epr = self.experts_per_rank;
        self.guest_experts.retain(|e, _| e / epr != rank);
    }

    /// Replaces the failover route table with `routes`, `(dead, host)`
    /// pairs: live rank `host` serves the experts of dead rank `dead` from
    /// its buddy replica, so `dead`'s experts stay in the routing table
    /// instead of being masked out. Every live rank must hold the same
    /// table for the exchanges to line up; the host itself also installs a
    /// [guest body](Self::install_guest_expert) for each of `dead`'s
    /// experts.
    ///
    /// # Panics
    ///
    /// Panics if a route hosts a rank on itself.
    pub fn set_failover_routes(&mut self, routes: impl IntoIterator<Item = (usize, usize)>) {
        self.failover_hosts = routes.into_iter().collect();
        assert!(
            self.failover_hosts.iter().all(|(d, h)| d != h),
            "a rank cannot host its own failover"
        );
    }

    /// All `(dead, host)` failover routes, ascending by dead rank.
    pub fn failover_routes(&self) -> Vec<(usize, usize)> {
        self.failover_hosts.iter().map(|(&d, &h)| (d, h)).collect()
    }

    /// The installed placement, if any.
    pub fn placement(&self) -> Option<&Placement> {
        self.placement.as_ref()
    }

    /// Installs a placement for rank `me`. Guest bodies for every expert
    /// the placement assigns to `me` away from its static home must
    /// already be installed
    /// ([`install_guest_expert`](Self::install_guest_expert)); guests the
    /// new placement no longer assigns here are dropped.
    ///
    /// Placement composes with a fully live world only: burial, failover
    /// and rejoin all reset to the static layout first
    /// ([`reset_placement`](Self::reset_placement)), so a placement's
    /// routing table never names a dead rank.
    ///
    /// # Panics
    ///
    /// Panics if the world is degraded or a failover route is active, if
    /// the placement's shape disagrees with this layer, or if a required
    /// guest body is missing.
    pub fn set_placement(&mut self, me: usize, placement: Placement) {
        assert!(
            self.dead_ranks.is_empty() && self.failover_hosts.is_empty(),
            "placement requires a fully live world; degraded mode resets to static"
        );
        assert_eq!(
            placement.experts_per_rank(),
            self.experts_per_rank,
            "placement experts_per_rank mismatch"
        );
        let guests = placement.guests_of(me);
        for &e in &guests {
            assert!(
                self.guest_experts.contains_key(&e),
                "guest body for expert {e} must be installed before activation"
            );
        }
        self.guest_experts.retain(|e, _| guests.contains(e));
        self.placement = Some(placement);
    }

    /// Drops any installed placement and its guest bodies, returning the
    /// layer to the static owner-per-rank layout. Called on every epoch
    /// transition (burial, failover routing, rejoin admission). Guests
    /// whose static home is dead are failover wards, not placement guests,
    /// and stay.
    pub fn reset_placement(&mut self) {
        self.placement = None;
        let (epr, dead) = (self.experts_per_rank, &self.dead_ranks);
        self.guest_experts.retain(|e, _| dead.contains(&(e / epr)));
    }

    /// Hands this rank a guest body for global expert `e`: state streamed
    /// from the expert's static home for a placement (inert until a
    /// placement assigning `e` here is activated), or rebuilt from the
    /// buddy replica of a dead home this rank hosts by failover route.
    ///
    /// # Panics
    ///
    /// Panics if `e`'s static home would be this-rank-local under the
    /// current `experts_per_rank` — the local body already serves it.
    pub fn install_guest_expert(&mut self, me: usize, e: usize, body: Box<dyn Expert>) {
        assert_ne!(
            e / self.experts_per_rank,
            me,
            "expert {e} is home on rank {me}; a guest body would shadow it"
        );
        self.guest_experts.insert(e, body);
    }

    /// Global expert ids with guest bodies installed, ascending.
    pub fn guest_expert_ids(&self) -> Vec<usize> {
        self.guest_experts.keys().copied().collect()
    }

    /// Drops a staged guest body that never made it into a committed
    /// placement — the abort path of a placement quantum. A no-op when no
    /// guest body for `e` is installed.
    pub fn discard_guest_expert(&mut self, e: usize) {
        self.guest_experts.remove(&e);
    }

    /// Visits the parameters of whichever body this rank uses to serve
    /// global expert `e`: the local body when `me` is `e`'s static home,
    /// the guest body when one is installed, else a no-op. The placement
    /// controller's per-expert gradient sync walks parameters through
    /// this, so home and guest flatten in the same order.
    pub fn visit_serving_params(&mut self, me: usize, e: usize, f: &mut dyn FnMut(&mut Param)) {
        if e / self.experts_per_rank == me {
            self.local_experts[e % self.experts_per_rank].visit_params(f);
        } else if let Some(body) = self.guest_experts.get_mut(&e) {
            body.visit_params(f);
        }
    }

    /// Drains the routing-load / shed / service-time accumulators gathered
    /// since the previous drain: `(per-expert routed token counts, shed
    /// assignments, admitted assignments, p99 over the drained forwards of
    /// each one's summed expert-stage µs)`.
    /// Feeds the placement controller's [`LoadReport`](crate::LoadReport).
    pub fn take_load_stats(&mut self) -> (Vec<u64>, u64, u64, u64) {
        let loads = std::mem::take(&mut self.routing_loads);
        let shed = std::mem::take(&mut self.shed_tokens);
        let routed = std::mem::take(&mut self.routed_tokens);
        let mut service = std::mem::take(&mut self.service_us);
        let p99 = if service.is_empty() {
            0
        } else {
            service.sort_unstable();
            service[(service.len() - 1) * 99 / 100]
        };
        (loads, shed, routed, p99)
    }

    /// Folds a gate decision into the load accumulators and the obs
    /// routing board (the chrome "routing" counter track).
    fn note_decision(&mut self, rank: usize, world: usize, decision: &GateDecision) {
        let n_experts = world * self.experts_per_rank;
        if self.routing_loads.len() < n_experts {
            self.routing_loads.resize(n_experts, 0);
        }
        let mut routed = 0u64;
        for (e, slots) in decision.expert_slots.iter().enumerate() {
            self.routing_loads[e] += slots.len() as u64;
            routed += slots.len() as u64;
        }
        self.routed_tokens += routed;
        self.shed_tokens += decision.dropped as u64;
        if obs::enabled() {
            let board = obs::routing_for_rank(rank);
            for (e, slots) in decision.expert_slots.iter().enumerate() {
                board.add_expert_load(e, slots.len() as u64);
            }
            board.add_shed(decision.dropped as u64);
            board.add_routed(routed);
        }
    }

    /// The ranks currently declared dead, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead_ranks.iter().copied().collect()
    }

    /// True when any peer has been declared dead.
    pub fn is_degraded(&self) -> bool {
        !self.dead_ranks.is_empty()
    }

    /// The degraded-mode quality warning, recorded over a step that runs
    /// short of ranks.
    fn degraded_span(&self) -> Option<obs::SpanGuard> {
        self.is_degraded().then(|| {
            let dead = self.dead_ranks.len();
            obs::span("degraded", format_args!("degraded step ({dead} dead)"))
        })
    }

    /// This step's routing table, from state the layer already holds. Under
    /// a non-static placement an expert's servers are the placement's
    /// (placement composes with a fully live world only, see
    /// [`set_placement`](Self::set_placement)). Otherwise a live owner
    /// serves its own experts, a dead owner's are served by its failover
    /// host, and an orphaned dead owner's by nobody: the gate masks them.
    fn routing_table(&self, world: usize) -> Routing {
        let epr = self.experts_per_rank;
        let placed = self.placement.as_ref().filter(|pl| !pl.is_static());
        if let Some(pl) = placed {
            assert_eq!(
                pl.n_experts(),
                world * epr,
                "placement must cover the routing table"
            );
        }
        let servers = (0..world * epr)
            .map(|e| match placed {
                Some(pl) => pl.servers(e).to_vec(),
                None if !self.dead_ranks.contains(&(e / epr)) => vec![e / epr],
                None => self
                    .failover_hosts
                    .get(&(e / epr))
                    .copied()
                    .into_iter()
                    .collect(),
            })
            .collect();
        let live = (0..world)
            .map(|rank| !self.dead_ranks.contains(&rank))
            .collect();
        Routing::new(servers, live)
    }

    /// The plan every exchange leg of a step under `routing` runs: the
    /// configured [`AllToAll`]'s, or [`NcclA2A`]'s while a rank is dead —
    /// its ops are direct, so no block relays through the dead rank.
    fn plan(&self, routing: &Routing, topo: &Topology) -> A2aPlan {
        let direct = routing
            .live
            .contains(&false)
            .then_some(&NcclA2A as &dyn AllToAll);
        direct.unwrap_or(self.a2a.as_ref()).plan(topo, 0)
    }

    /// Expert-parallel forward over the fabric.
    ///
    /// `tag_base` namespaces this invocation; step it by
    /// [`TAG_STRIDE`](schemoe_collectives::TAG_STRIDE) between layer
    /// invocations on the same fabric.
    ///
    /// One task graph serves every mode and degree. The gate routes the
    /// whole batch once; the step's routing table (static owners, failover
    /// hosts, or a placement's replica sets) says where each expert's
    /// admitted slots go, and each destination's share is cut into
    /// `r = partition_degree` contiguous segments. Per chunk the chain
    /// `C1 → A1 → (D1·E·C2) → A2 → D2` is submitted in the OptSche order
    /// `(C1¹..C1ʳ)(D1·E·C2)¹..(D1·E·C2)ʳ(D2¹..D2ʳ)` on the compute worker
    /// and `A1¹..A1ʳ A2¹..A2ʳ` on the comm worker, so chunk `c`'s exchange
    /// overlaps chunk `c + 1`'s compute. At degree 1, or with fewer than
    /// two live ranks, there is nothing to overlap and the same graph runs
    /// in submission order on the calling thread.
    ///
    /// The output is bit-identical at every degree and in every mode: the
    /// gate sees the whole batch, expert bodies are row-wise (and replica
    /// bodies are kept in lockstep with their home), and the combine
    /// interleaves the returned segments back into full slot order before
    /// accumulating ascending-expert.
    ///
    /// Every exchange leg — each chunk's dispatch and combine here, each
    /// backward lane — runs the configured [`AllToAll`]'s plan over the
    /// blocks the routing table says exist (NCCL-A2A's direct plan while a
    /// rank is dead).
    pub fn forward(
        &mut self,
        h: &mut RankHandle,
        x: &Tensor,
        tag_base: u64,
    ) -> Result<Tensor, FabricError> {
        let (p, me, topo) = (h.world_size(), h.rank(), h.topology());
        let (n, m) = (x.dims()[0], x.dims()[1]);
        let r = self.partition_degree;
        let routing = self.routing_table(p);
        let plan = self.plan(&routing, &topo);
        let _degraded = self.degraded_span();
        if self.is_degraded() {
            obs::counters_for_rank(me).add_degraded_step();
        }
        let decision = {
            let _g = obs::span("gate", "gate");
            let masked: Vec<bool> = routing.servers.iter().map(Vec::is_empty).collect();
            self.gate
                .forward_masked(x, masked.contains(&true).then_some(&masked[..]))
        };
        self.note_decision(me, p, &decision);
        // A forward whose backward never ran hands its blocks back.
        let ws = &self.workspace;
        if let Some(unused) = self.cache.take() {
            unused.release(ws);
        }

        // Dispatch legs run from every source to the serving ranks, combine
        // legs back. Field split: the tasks share the codec immutably while
        // the expert bodies go to the compute stages mutably.
        let (routing_ref, decision_ref) = (&routing, &decision);
        let mine = &routing.served[me][..];
        let (servers, sources) = routing.peers(me);
        let (servers, sources) = (&servers[..], &sources[..]);
        let compressor = self.compressor.as_ref();
        let bodies = Mutex::new(Bodies {
            me,
            epr: self.experts_per_rank,
            local: &mut self.local_experts,
            guests: &mut self.guest_experts,
        });
        // Read before the handle goes behind its mutex: compute tasks
        // check frames out of the pool without ever locking the handle.
        let frames = &h.frames();
        let handle = Mutex::new(h);
        let wire = Wire {
            handle: &handle,
            plan: &plan,
            timeout: self.recv_timeout,
            tag_base,
        };
        // Per chunk: the blocks of its dispatch and of its combine leg.
        let legs = || -> Vec<Mutex<Held>> { (0..r).map(|_| Mutex::default()).collect() };
        let (dispatch, combine) = (legs(), legs());
        // Per chunk: what its D1·E·C2 keeps for the backward. Per global
        // expert: the returned output rows in this rank's slot order, which
        // every D2 scatters its segments into (stale until then: every slot
        // is in exactly one server's share, so every row gets overwritten).
        let chunk_kept = slots::<Kept>(r);
        let sized = |slots: &Vec<(usize, f32)>| block(ws, slots.len(), m);
        let returned_outputs: Mutex<Vec<Tensor>> =
            Mutex::new(decision.expert_slots.iter().map(sized).collect());
        let service_ns = AtomicU64::new(0);

        let mut graph = Graph::default();
        let c1: Vec<usize> = (0..r)
            .map(|c| {
                let leg = &dispatch[c];
                graph.push(Worker::Compute, vec![], move || {
                    let bytes = (n * m * 4) as f64 / r as f64;
                    let name = format_args!("{}[c{c}]", FWD.label(Compress1));
                    let _s = obs::span_sized("encode", name, bytes);
                    for &dst in servers {
                        let tokens = |k: usize| {
                            let e = routing_ref.served[dst][k];
                            let slots = &decision_ref.expert_slots[e];
                            let segment = routing_ref.segment(e, dst, slots.len(), c, r);
                            segment.map(move |s| slots[s].0)
                        };
                        let experts = 0..routing_ref.served[dst].len();
                        let counts = experts.clone().map(|k| tokens(k).len());
                        let rows = experts.flat_map(tokens).map(|t| x.row(t));
                        let chunk = encode_into(compressor, frames, m, counts, rows);
                        leg.lock().insert((me, dst), Block::Frame(chunk));
                    }
                    Ok(())
                })
            })
            .collect();
        let to_servers = |o, d| routing_ref.dispatches(o, d);
        let a1: Vec<Vec<Option<usize>>> = (0..r)
            .map(|c| {
                let stage = (FWD.label(AllToAll1), lanes::LANE_DISPATCH, Some(c));
                wire.post(&mut graph, stage, &dispatch[c], to_servers, |_| c1[c])
            })
            .collect();
        let dec: Vec<usize> = (0..r)
            .map(|c| {
                let (leg, out, kept) = ((&dispatch[c], me, p), &combine[c], &chunk_kept[c]);
                let (bodies, service_ns) = (&bodies, &service_ns);
                let deps = a1[c].iter().flatten().copied().collect();
                graph.push(Worker::Compute, deps, move || {
                    let _pipe = obs::span("pipe", format_args!("D1·E·C2[c{c}]"));
                    let tag = chunk_tag(tag_base, lanes::LANE_DISPATCH, c, 0);
                    let name = format_args!("{}[c{c}]", FWD.label(Decompress1));
                    let inputs = decode_leg(compressor, ws, leg, |_| mine.len(), m, tag, name)?;
                    let rows_total: usize = inputs.iter().map(Rows::total).sum();
                    let name = format_args!("{}[c{c}]", FWD.label(TaskKind::Expert));
                    let e_span = obs::span_sized("expert", name, rows_total as f64);
                    let started = Instant::now();
                    // One forward per served expert over the chunk's rows,
                    // src-major: the chunk-local analogue of the
                    // whole-layer layout. Its output and what it saves
                    // land in blocks of the workspace.
                    let (outputs, saved): (Vec<Vec<f32>>, Vec<Vec<f32>>) = {
                        let mut bodies = bodies.lock();
                        let run = |(k, &e): (usize, &usize)| {
                            let input = gather_block(ws, m, inputs.iter().map(|d| d.expert(k)));
                            let (body, rows) = (bodies.get(e), input.dims()[0]);
                            let mut saved = ws.take(rows * body.saved_width());
                            let mut output = ws.take(rows * m);
                            body.forward_saving(Mat::of(&input), &mut saved, &mut output);
                            ws.put(input.into_vec());
                            (output, saved)
                        };
                        mine.iter().enumerate().map(run).unzip()
                    };
                    service_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    drop(e_span);
                    let bytes = (rows_total * m * 4) as f64;
                    let name = format_args!("{}[c{c}]", FWD.label(Compress2));
                    let _c2 = obs::span_sized("encode", name, bytes);
                    // Dead sources sent no rows, so skipping them leaves
                    // every live source's offset where it belongs.
                    let mut offsets = vec![0usize; mine.len()];
                    for &src in sources {
                        let sent = &inputs[src];
                        let counts = (0..mine.len()).map(|k| sent.count(k));
                        let parts = counts.clone().zip(&mut offsets).zip(&outputs);
                        let rows = parts.map(|((count, at), output)| {
                            let part = &output[*at..*at + count * m];
                            *at += count * m;
                            part
                        });
                        let back = encode_into(compressor, frames, m, counts, rows);
                        out.lock().insert((me, src), Block::Frame(back));
                    }
                    outputs.into_iter().for_each(|block| ws.put(block));
                    *kept.lock() = Some(Kept { inputs, saved });
                    Ok(())
                })
            })
            .collect();
        for c in 0..r {
            let stage = (FWD.label(AllToAll2), lanes::LANE_COMBINE, Some(c));
            let from_servers = |o, d| to_servers(d, o);
            let a2 = wire.post(&mut graph, stage, &combine[c], from_servers, |_| dec[c]);
            let (leg, outputs) = ((&combine[c], me, p), &returned_outputs);
            let deps = a2.into_iter().flatten().collect();
            graph.push(Worker::Compute, deps, move || {
                let tag = chunk_tag(tag_base, lanes::LANE_COMBINE, c, 0);
                let experts = |rank: usize| routing_ref.served[rank].len();
                let name = format_args!("{}[c{c}]", FWD.label(Decompress2));
                let decoded = decode_leg(compressor, ws, leg, experts, m, tag, name)?;
                // Interleaving each server's share, its segments in chunk
                // order, restores full slot order.
                let _s = obs::span("combine", format_args!("scatter[c{c}]"));
                let mut outputs = outputs.lock();
                for &server in servers {
                    for (k, &e) in routing_ref.served[server].iter().enumerate() {
                        let slots = decision_ref.expert_slots[e].len();
                        let segment = routing_ref.segment(e, server, slots, c, r);
                        let part = decoded[server].expert(k);
                        if part.len() != segment.len() * m {
                            decoded.into_iter().for_each(|rows| rows.recycle(ws));
                            return Err(FabricError::Corrupt { peer: server, tag });
                        }
                        for (row, s) in part.chunks_exact(m).zip(segment) {
                            outputs[e].row_mut(s).copy_from_slice(row);
                        }
                    }
                }
                decoded.into_iter().for_each(|rows| rows.recycle(ws));
                Ok(())
            });
        }
        graph.run(routing.runs_inline(r))?;
        self.service_us.push(service_ns.into_inner().div_ceil(1000));
        let _combine = obs::span("combine", "combine");
        // Whole-layer state for the backward, the same at every degree: a
        // source's segments in chunk order are its share in slot order.
        let chunks: Vec<Kept> = chunk_kept.iter().map(take).collect();
        let returned_outputs: Vec<Tensor> = returned_outputs.into_inner();

        // Combine: accumulating ascending-expert over rows in slot order is
        // the one-chunk static computation verbatim (a token meets each
        // expert at most once).
        let mut y = Tensor::zeros(&[n, m]);
        for (slots, rows) in decision.expert_slots.iter().zip(&returned_outputs) {
            for (s, &(t, w)) in slots.iter().enumerate() {
                for (yj, &oj) in y.row_mut(t).iter_mut().zip(rows.row(s)) {
                    *yj += w * oj;
                }
            }
        }
        self.cache = Some(Cache {
            decision,
            routing,
            chunks,
            returned_outputs,
            n,
            tag_base,
        });
        Ok(y)
    }

    /// Expert-parallel backward: two more (gradient) exchanges.
    ///
    /// # Panics
    ///
    /// Panics if called without a cached forward.
    pub fn backward(&mut self, h: &mut RankHandle, dy: &Tensor) -> Result<Tensor, FabricError> {
        self.backward_with_allreduce(h, dy, None)
    }

    /// [`backward`](Self::backward), optionally folding a replicated-
    /// parameter gradient allreduce into the same task graph. Every rank
    /// must agree on whether an allreduce is attached.
    ///
    /// The graph mirrors the forward's routing table (cached by it) but
    /// pipelines per *peer*, not per chunk (`p` ranks, `q` live peers):
    ///
    /// ```text
    /// compute: C1b⁰..C1bᵖ⁻¹  dW  (D1b·Eb·C2b)⁰..(D1b·Eb·C2b)ᵖ⁻¹  D2b⁰..D2bᵖ⁻¹
    /// comm   : S1¹..S1ᑫ  R1¹..R1ᑫ  [AR]  S2¹..S2ᑫ  R2¹..R2ᑫ
    /// ```
    ///
    /// The expert backward is one `backward_from` per non-empty (expert,
    /// source) group, sources ascending, whatever the degree: a whole-batch
    /// backward would fuse the sources into one GEMM and change the
    /// floating-point grouping, while this canonical order makes every
    /// weight gradient identical at every degree by construction, and lets
    /// source `j`'s expert backward hide the exchanges of sources `> j`.
    /// A group reads the source's segment of every chunk — the rows the
    /// forward decoded and what its one forward saved — and its weight
    /// chains continue from segment to segment, so no forward runs again.
    /// Under a placement each server differentiates only its share, so a
    /// replicated expert's weight grads are *partial* per server; the
    /// placement controller sums them over the expert's sync group.
    ///
    /// Messages travel uncompressed (the paper's §7 caution). Each lane is
    /// one run of the forward's plan, posted like a forward leg, so a
    /// peer's chunk ships as soon as it exists. The allreduce sits
    /// *between* the two lanes: any earlier it would stall every peer's
    /// expert backward behind it; there it fills the window where the comm
    /// worker would otherwise idle waiting for return traffic.
    ///
    /// # Panics
    ///
    /// Panics if called without a cached forward.
    pub fn backward_with_allreduce(
        &mut self,
        h: &mut RankHandle,
        dy: &Tensor,
        allreduce: Option<GradAllreduce<'_>>,
    ) -> Result<Tensor, FabricError> {
        // A documented panic: the caller ran no forward.
        let cache = self
            .cache
            .take()
            .expect("distributed backward without forward");
        let (decision, routing, cache_ref) = (&cache.decision, &cache.routing, &cache);
        let (returned_outputs, n, tag_base) = (&cache.returned_outputs, cache.n, cache.tag_base);
        let (p, me, topo) = (h.world_size(), h.rank(), h.topology());
        let m = dy.dims()[1];
        let r = self.partition_degree;
        assert_eq!(dy.dims()[0], n, "gradient row count mismatch");
        let _degraded = self.degraded_span();
        let plan = self.plan(routing, &topo);

        let mine = &routing.served[me][..];
        let (servers, sources) = routing.peers(me);
        let (servers, sources) = (&servers[..], &sources[..]);
        let raw: &dyn Compressor = &NoCompression;
        let bodies = Mutex::new(Bodies {
            me,
            epr: self.experts_per_rank,
            local: &mut self.local_experts,
            guests: &mut self.guest_experts,
        });
        let (frames, ws) = (&h.frames(), &self.workspace);
        let handle = Mutex::new(h);
        let wire = Wire {
            handle: &handle,
            plan: &plan,
            timeout: self.recv_timeout,
            tag_base,
        };
        // The blocks of the output-grad and of the input-grad lane, and per
        // rank the decoded input grads it returned.
        let (grad, back) = (Mutex::<Held>::default(), Mutex::<Held>::default());
        let returned = slots::<Rows>(p);
        let d_weights: Slot<Vec<f32>> = Mutex::new(None);

        let mut graph = Graph::default();
        // C1b: per serving rank, w · dy for its share of every expert it
        // serves, so its send can start while the next rank's still builds.
        let mut built = vec![usize::MAX; p];
        for &dst in servers {
            let grad = &grad;
            built[dst] = graph.push(Worker::Compute, vec![], move || {
                let bytes = (n * m * 4) as f64 / servers.len() as f64;
                let name = format_args!("{}[o{dst}]", BWD.label(Compress1));
                let _s = obs::span_sized("encode", name, bytes);
                let share = |k: usize| {
                    let e = routing.served[dst][k];
                    let slots = &decision.expert_slots[e];
                    let share = routing.segment(e, dst, slots.len(), 0, 1);
                    share.map(move |s| slots[s])
                };
                let experts = 0..routing.served[dst].len();
                let counts = experts.clone().map(|k| share(k).len());
                let n = counts.clone().sum::<usize>() * m;
                let mut chunk = chunk_frame(frames, counts, raw.compressed_len(n));
                for (t, w) in experts.flat_map(share) {
                    extend_scaled_f32_le(chunk.body_mut(), w, dy.row(t));
                }
                grad.lock().insert((me, dst), Block::Frame(chunk));
                Ok(())
            });
        }
        // dW: combine-weight gradients, one per admitted slot, after the C1b
        // encodes so the comm lanes start as early as possible.
        {
            let d_weights = &d_weights;
            graph.push(Worker::Compute, vec![], move || {
                let _s = obs::span("gate", "dW");
                let mut flat = ws.take(decision.slots().count());
                decision.weight_grads(dy, returned_outputs, &mut flat);
                *d_weights.lock() = Some(flat);
                Ok(())
            });
        }
        let to_servers = |o, d| routing.dispatches(o, d);
        let grad_lane = (BWD.label(AllToAll1), lanes::LANE_BWD_GRAD, None);
        let grads_at = wire.post(&mut graph, grad_lane, &grad, to_servers, |d| built[d]);
        if let Some(ar) = allreduce {
            let handle = &handle;
            graph.push(Worker::Comm, vec![], move || {
                let _s = obs::span("coll", "allreduce[replicated]");
                allreduce_live(&mut handle.lock(), ar.values, ar.tag, ar.live)
            });
        }
        // Per source j ascending: decode j's output grads, differentiate
        // each (served expert, j) group from what the forward kept, and
        // encode the input grads straight back for j.
        let mut diffed = vec![usize::MAX; p];
        for &j in sources {
            let (grad, back, bodies) = (&grad, &back, &bodies);
            let deps = vec![grads_at[j].expect("a source's grads arrive")];
            diffed[j] = graph.push(Worker::Compute, deps, move || {
                let chunk = take_block(grad, (j, me));
                let name = format_args!("{}[s{j}]", BWD.label(Decompress1));
                let d1b = obs::span_sized("decode", name, chunk.len() as f64);
                let tag = chunk_tag(tag_base, lanes::LANE_BWD_GRAD, 0, 0);
                let grads = decode_chunk_into(raw, ws, &chunk, (mine.len(), m), (j, tag))?;
                drop((chunk, d1b));
                if (0..mine.len()).any(|k| grads.count(k) != cache_ref.count(k, j)) {
                    grads.recycle(ws);
                    return Err(FabricError::Corrupt { peer: j, tag });
                }
                let rows_j = grads.total();
                let name = format_args!("{}[s{j}]", BWD.label(TaskKind::Expert));
                let eb = obs::span_sized("expert", name, rows_j as f64);
                // The groups' input grads, expert-major like `grads`.
                let mut dins = ws.take(rows_j * m);
                let mut at = 0;
                let mut bodies = bodies.lock();
                for (k, &e) in mine.iter().enumerate() {
                    let rows = grads.count(k);
                    if rows == 0 {
                        continue;
                    }
                    let body = bodies.get(e);
                    let group = cache_ref.group((k, j), (m, body.saved_width()), grads.expert(k));
                    body.backward_from(&group, &mut dins[at * m..(at + rows) * m]);
                    at += rows;
                }
                drop(bodies);
                drop(eb);
                let bytes = (rows_j * m * 4) as f64;
                let name = format_args!("{}[s{j}]", BWD.label(Compress2));
                let _c2b = obs::span_sized("encode", name, bytes);
                let counts = (0..mine.len()).map(|k| grads.count(k));
                let chunk = encode_into(raw, frames, m, counts, once(&dins[..]));
                back.lock().insert((me, j), Block::Frame(chunk));
                grads.recycle(ws);
                ws.put(dins);
                Ok(())
            });
        }
        let back_lane = (BWD.label(AllToAll2), lanes::LANE_BWD_RETURN, None);
        let from_servers = |o, d| to_servers(d, o);
        let dins_at = wire.post(&mut graph, back_lane, &back, from_servers, |d| diffed[d]);
        let back_tag = chunk_tag(tag_base, lanes::LANE_BWD_RETURN, 0, 0);
        for &j in servers {
            let (back, kept) = (&back, &returned[j]);
            let deps = vec![dins_at[j].expect("a server's input grads arrive")];
            graph.push(Worker::Compute, deps, move || {
                let chunk = take_block(back, (j, me));
                let name = format_args!("{}[o{j}]", BWD.label(Decompress2));
                let _s = obs::span_sized("decode", name, chunk.len() as f64);
                let shape = (routing.served[j].len(), m);
                *kept.lock() = Some(decode_chunk_into(raw, ws, &chunk, shape, (j, back_tag))?);
                Ok(())
            });
        }
        graph.run(routing.runs_inline(r))?;

        // Scatter ascending-expert, so each token's additions come in the
        // order of the one-chunk static backward; the gate's part last.
        let _scatter = obs::span("combine", "scatterb");
        let returned: Vec<Option<Rows>> = returned.into_iter().map(Mutex::into_inner).collect();
        let mut dx = Tensor::zeros(&[n, m]);
        let mut framing = Ok(());
        for (e, slots) in decision.expert_slots.iter().enumerate() {
            for &server in &routing.servers[e] {
                // A completed graph ran every server's D2b.
                let dins = returned[server].as_ref().expect("every server returned");
                let part = dins.expert(routing.index_in(server, e));
                let share = routing.segment(e, server, slots.len(), 0, 1);
                if part.len() != share.len() * m {
                    framing = Err(FabricError::Corrupt {
                        peer: server,
                        tag: back_tag,
                    });
                    continue;
                }
                for (row, s) in part.chunks_exact(m).zip(share) {
                    for (xj, &dj) in dx.row_mut(slots[s].0).iter_mut().zip(row) {
                        *xj += dj;
                    }
                }
            }
        }
        for rows in returned.into_iter().flatten() {
            rows.recycle(ws);
        }
        if let Err(e) = framing {
            cache.release(ws);
            return Err(e);
        }
        // A completed graph ran the dW task.
        let d_weights = d_weights.into_inner().expect("graph completed");
        let mut dx_gate = ws.take(n * m);
        {
            let _g = obs::span("gate", "gateb");
            let grads = decision.slots().zip(&d_weights);
            let grads = grads.map(|((t, e), &w)| (t, e, w));
            self.gate.backward_flat(grads, &mut dx_gate);
        }
        for (a, &b) in dx.data_mut().iter_mut().zip(&dx_gate) {
            *a += b;
        }
        ws.put(dx_gate);
        ws.put(d_weights);
        cache.release(ws);
        Ok(dx)
    }

    /// Visits the gate's and local experts' parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gate.visit_params(f);
        for e in &mut self.local_experts {
            e.visit_params(f);
        }
    }
}

/// Mailbox between two graph stages: one producer, one consumer, ordered by
/// the graph's dependency edges.
type Slot<T> = Mutex<Option<T>>;

fn slots<T>(count: usize) -> Vec<Slot<T>> {
    (0..count).map(|_| Mutex::new(None)).collect()
}

/// What the task this one depends on left in `slot`.
fn take<T>(slot: &Slot<T>) -> T {
    // A task runs only after the tasks it depends on, which fill the slot.
    slot.lock()
        .take()
        .expect("the upstream task filled its mailbox")
}

/// Block `key` of a leg, which the task this one depends on delivered.
fn take_block(leg: &Mutex<Held>, key: (usize, usize)) -> Bytes {
    let block = leg.lock().remove(&key);
    block
        .expect("the upstream task delivered the block")
        .into_payload()
}

/// Takes the blocks a leg delivered to `me` out of it and decodes them into
/// blocks of `ws` under a `decode` span: `experts(j)` experts' rows from
/// rank `j` of `p`, none where the leg carried no block from `j`.
fn decode_leg(
    compressor: &dyn Compressor,
    ws: &Workspace,
    (leg, me, p): (&Mutex<Held>, usize, usize),
    experts: impl Fn(usize) -> usize,
    m: usize,
    tag: u64,
    span: impl std::fmt::Display,
) -> Result<Vec<Rows>, FabricError> {
    let chunks: Vec<Option<Bytes>> = {
        let mut held = leg.lock();
        (0..p)
            .map(|j| held.remove(&(j, me)).map(Block::into_payload))
            .collect()
    };
    let bytes: usize = chunks.iter().flatten().map(Bytes::len).sum();
    let _s = obs::span_sized("decode", span, bytes as f64);
    let decode = |(j, chunk): (usize, Option<Bytes>)| match chunk {
        Some(chunk) => decode_chunk_into(compressor, ws, &chunk, (experts(j), m), (j, tag)),
        None => Ok(Rows::empty(experts(j), m)),
    };
    chunks.into_iter().enumerate().map(decode).collect()
}

/// The expert bodies this rank can serve from, borrowed apart from the rest
/// of the layer so compute tasks run them while the codec is shared.
struct Bodies<'a> {
    me: usize,
    epr: usize,
    local: &'a mut [Box<dyn Expert>],
    guests: &'a mut BTreeMap<usize, Box<dyn Expert>>,
}

impl Bodies<'_> {
    /// The body serving global expert `e` here: the local one when this
    /// rank is `e`'s static home, else the installed guest.
    fn get(&mut self, e: usize) -> &mut dyn Expert {
        if e / self.epr == self.me {
            self.local[e % self.epr].as_mut()
        } else {
            // `set_placement` refuses a placement whose guest bodies are
            // not installed, and a failover host installs its wards' before
            // the first step routed to it.
            let guest = self.guests.get_mut(&e);
            guest
                .expect("a body is installed for every served expert")
                .as_mut()
        }
    }
}

/// A step's first fabric error, and the flag that tells the executor to
/// skip every task not yet started: one dead peer must cost one receive
/// deadline, not one per lane.
#[derive(Default)]
struct Failure {
    error: Mutex<Option<FabricError>>,
    cancel: AtomicBool,
}

/// One step's task graph under construction.
#[derive(Default)]
struct Graph<'a> {
    tasks: Vec<ExecTask<'a>>,
    failure: Arc<Failure>,
}

impl<'a> Graph<'a> {
    /// Appends a task and returns its index, for later tasks to depend on.
    /// An `Err` from `run` takes the first-error-wins slot and cancels the
    /// rest of the graph.
    fn push(
        &mut self,
        worker: Worker,
        deps: Vec<usize>,
        run: impl FnOnce() -> Result<(), FabricError> + Send + 'a,
    ) -> usize {
        let failure = Arc::clone(&self.failure);
        let run = Box::new(move || {
            if let Err(e) = run() {
                failure.error.lock().get_or_insert(e);
                failure.cancel.store(true, Ordering::Release);
            }
        });
        self.tasks.push(ExecTask {
            worker,
            deps,
            span: None,
            run,
        });
        self.tasks.len() - 1
    }

    /// Runs the graph: in submission order on the calling thread when
    /// `inline`, else on the two-worker overlap executor. A task's typed
    /// error wins over the executor's panic report, which is usually
    /// downstream fallout of the fabric failure.
    fn run(self, inline: bool) -> Result<(), FabricError> {
        let exec = if inline {
            run_inline_cancellable(self.tasks, &self.failure.cancel)
        } else {
            run_overlapped_cancellable(self.tasks, &self.failure.cancel)
        };
        if let Some(e) = self.failure.error.lock().take() {
            return Err(e);
        }
        exec.map_err(|e| FabricError::Worker {
            detail: e.to_string(),
        })
    }
}

/// What a graph's comm tasks share.
#[derive(Clone, Copy)]
struct Wire<'a> {
    handle: &'a Mutex<&'a mut RankHandle>,
    /// The plan every leg of the step runs.
    plan: &'a A2aPlan,
    timeout: Option<Duration>,
    tag_base: u64,
}

impl<'a> Wire<'a> {
    /// A receive honouring the layer's liveness deadline.
    fn recv(&self, from: usize, tag: u64) -> Result<Bytes, FabricError> {
        let mut h = self.handle.lock();
        match self.timeout {
            Some(t) => h.recv_timeout(from, tag, t),
            None => h.recv(from, tag),
        }
    }

    /// Posts one leg — chunk `c` of `lane`, or the whole lane (`None`) —
    /// as comm tasks in the order of this rank's
    /// [steps](A2aPlan::steps) of the plan: per phase its sends, then its
    /// receives, phase `k` on `chunk_tag(.., c, k)`. The leg's blocks live
    /// in `leg`, and `present` says which exist. A send waits for the tasks
    /// producing its blocks: `produced(d)` for this rank's own block for
    /// `d`, the receive that brought a relayed one. Returns per origin `o`
    /// the task after which block `(o, me)` is held, if the leg carries
    /// it; this rank's own block never leaves `leg`.
    ///
    /// A send's span is `{stem}[c{c}]`, or `{stem}[p{dst}]` in a whole
    /// lane; a receive's is its `…w` twin, deliberately outside the
    /// profiler's stem set: blocked-receive time measures peer skew, not
    /// wire cost.
    fn post(
        self,
        graph: &mut Graph<'a>,
        (stem, lane, chunk): (StageLabel, u64, Option<usize>),
        leg: &'a Mutex<Held>,
        present: impl Fn(usize, usize) -> bool,
        produced: impl Fn(usize) -> usize,
    ) -> Vec<Option<usize>> {
        let topo = self.handle.lock().topology();
        let (me, p) = (self.handle.lock().rank(), topo.world_size());
        let own = (0..p).filter(|&d| present(me, d));
        let mut held_after: HashMap<(usize, usize), usize> =
            own.map(|d| ((me, d), produced(d))).collect();
        for step in self.plan.steps(&topo, me, &present) {
            let tag = chunk_tag(self.tag_base, lane, chunk.unwrap_or(0), step.phase);
            let sends = step.op.src == me;
            let peer = if sends { step.op.dst } else { step.op.src };
            let (at, i) = chunk.map_or(('p', peer), |c| ('c', c));
            if sends {
                let mut deps: Vec<usize> = step.keys.iter().map(|k| held_after[k]).collect();
                deps.sort_unstable();
                deps.dedup();
                graph.push(Worker::Comm, deps, move || {
                    let blocks = step.take(&mut leg.lock());
                    let bytes: usize = blocks.iter().map(Block::payload_len).sum();
                    let _s = obs::span_sized("a2a", format_args!("{stem}[{at}{i}]"), bytes as f64);
                    step.send(&self.handle.lock(), tag, blocks)
                });
            } else {
                let keys = step.keys.clone();
                let task = graph.push(Worker::Comm, vec![], move || {
                    let _s = obs::span("a2a", format_args!("{stem}w[{at}{i}]"));
                    let msg = self.recv(peer, tag)?;
                    step.file(&mut leg.lock(), msg, tag)
                });
                held_after.extend(keys.into_iter().map(|key| (key, task)));
            }
        }
        (0..p).map(|o| held_after.get(&(o, me)).copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::FfExpert;
    use crate::layer::MoeLayer;
    use schemoe_cluster::{Fabric, Topology};
    use schemoe_collectives::{allreduce_inplace, NcclA2A, TAG_STRIDE};
    use schemoe_compression::{Fp16Compressor, NoCompression};
    use schemoe_tensor::nn::{Module, SavedForm};
    use schemoe_tensor::rng::{self, seeded};

    const M: usize = 6;
    const H: usize = 10;

    /// Experts and gate built from fixed seeds so every construction site
    /// produces identical parameters.
    fn make_expert(e: usize) -> Box<dyn Expert> {
        Box::new(FfExpert::new(M, H, &mut seeded(1000 + e as u64)))
    }

    fn make_gate(experts: usize, k: usize, f: f64) -> TopKGate {
        TopKGate::new(M, experts, k, f, &mut seeded(555))
    }

    /// The independent oracle — the single-process [`MoeLayer`] — at every
    /// partition degree the distributed graph runs at.
    const ORACLE_DEGREES: [usize; 3] = [1, 2, 4];

    /// One past the lane capacity fails at configuration, not at the first
    /// collective call: past it the per-chunk tags would overflow their
    /// lane and collide with another lane's traffic.
    #[test]
    #[should_panic(expected = "exceeds MAX_PARTITION_DEGREE")]
    fn partition_degree_is_capped_at_the_lane_capacity() {
        let _ = DistributedMoeLayer::new(
            make_gate(1, 1, 2.0),
            vec![make_expert(0)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        )
        .with_partition_degree(MAX_PARTITION_DEGREE + 1);
    }

    #[test]
    fn matches_single_process_layer() {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 5;
        // Global batch, split contiguously across ranks.
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(7));

        for degree in ORACLE_DEGREES {
            // Distributed forward.
            let dist_out = Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = make_gate(p, 2, 8.0); // big capacity: no drops
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                layer.forward(&mut h, &x, 0).unwrap()
            });

            // Single-process references, one per rank's shard (capacity is
            // per shard in expert-parallel training, so compare shard by
            // shard).
            for me in 0..p {
                let gate = make_gate(p, 2, 8.0);
                let experts: Vec<Box<dyn Expert>> = (0..p).map(make_expert).collect();
                let mut reference = MoeLayer::from_parts(gate, experts);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let want = reference.forward(&x);
                let diff = dist_out[me].max_abs_diff(&want).unwrap();
                assert!(
                    diff < 1e-5,
                    "degree {degree} rank {me} diverged from reference by {diff}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_single_process_layer() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 4;
        let x_global = rng::uniform(&[n_local * p, M], 0.7, &mut seeded(8));

        for degree in ORACLE_DEGREES {
            let dist = Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = make_gate(p, 1, 8.0);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = layer.forward(&mut h, &x, 0).unwrap();
                let dx = layer.backward(&mut h, &y).unwrap();
                // Also return the gate gradient for cross-checking.
                let mut gate_grad = Vec::new();
                layer.visit_params(&mut |prm| {
                    if prm.name == "gate.wg" {
                        gate_grad = prm.grad.data().to_vec();
                    }
                });
                (dx, gate_grad)
            });

            for me in 0..p {
                let gate = make_gate(p, 1, 8.0);
                let experts: Vec<Box<dyn Expert>> = (0..p).map(make_expert).collect();
                let mut reference = MoeLayer::from_parts(gate, experts);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = reference.forward(&x);
                let dx_want = reference.backward(&y);
                let diff = dist[me].0.max_abs_diff(&dx_want).unwrap();
                assert!(
                    diff < 1e-4,
                    "degree {degree} rank {me} dx diverged by {diff}"
                );
            }
        }
    }

    /// Forward outputs per rank for a given constructor, so serial and
    /// overlapped configurations can be compared bit-for-bit.
    fn forward_outputs(
        topo: Topology,
        n_local: usize,
        epr: usize,
        k: usize,
        x_global: &Tensor,
        degree: usize,
        compressor: fn() -> Box<dyn schemoe_compression::Compressor>,
    ) -> Vec<Tensor> {
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p * epr, k, 8.0);
            let experts: Vec<Box<dyn Expert>> =
                (0..epr).map(|le| make_expert(me * epr + le)).collect();
            let mut layer =
                DistributedMoeLayer::new(gate, experts, compressor(), Box::new(NcclA2A))
                    .with_partition_degree(degree)
                    .with_recv_timeout(std::time::Duration::from_secs(30));
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            layer.forward(&mut h, &x, 0).unwrap()
        })
    }

    #[test]
    fn overlapped_forward_is_bit_identical_to_serial() {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(21));
        let serial = forward_outputs(topo, n_local, 1, 2, &x_global, 1, || {
            Box::new(NoCompression)
        });
        // Degrees beyond the slot counts exercise empty chunks too.
        for degree in [2, 3, 4, 16] {
            let overlapped = forward_outputs(topo, n_local, 1, 2, &x_global, degree, || {
                Box::new(NoCompression)
            });
            for me in 0..p {
                let diff = overlapped[me].max_abs_diff(&serial[me]).unwrap();
                assert_eq!(diff, 0.0, "degree {degree} rank {me} diverged by {diff}");
            }
        }
    }

    #[test]
    fn overlapped_forward_is_bit_identical_with_fp16_and_multi_experts() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let (epr, n_local) = (2, 6);
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(22));
        let fp16 = || -> Box<dyn schemoe_compression::Compressor> {
            Box::new(schemoe_compression::Fp16Compressor)
        };
        let serial = forward_outputs(topo, n_local, epr, 2, &x_global, 1, fp16);
        let overlapped = forward_outputs(topo, n_local, epr, 2, &x_global, 4, fp16);
        for me in 0..p {
            let diff = overlapped[me].max_abs_diff(&serial[me]).unwrap();
            assert_eq!(diff, 0.0, "rank {me} diverged by {diff}");
        }
    }

    #[test]
    fn overlapped_backward_is_bit_identical_to_serial() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 5;
        let x_global = rng::uniform(&[n_local * p, M], 0.7, &mut seeded(23));
        let run = |degree: usize| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = make_gate(p, 2, 8.0);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = layer.forward(&mut h, &x, 0).unwrap();
                let dx = layer.backward(&mut h, &y).unwrap();
                let mut grads = Vec::new();
                layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
                (dx, grads)
            })
        };
        let serial = run(1);
        let overlapped = run(4);
        for me in 0..p {
            let diff = overlapped[me].0.max_abs_diff(&serial[me].0).unwrap();
            assert_eq!(diff, 0.0, "rank {me} dx diverged by {diff}");
            assert_eq!(
                overlapped[me].1, serial[me].1,
                "rank {me} param grads diverged"
            );
        }
    }

    #[test]
    fn allreduce_folded_into_the_backward_graph_matches_a_separate_call() {
        // Submitting the replicated-parameter allreduce as part of the
        // backward task graph must change nothing numerically: the reduced
        // values equal a standalone `allreduce_live`, and dx / param grads
        // equal a plain `backward`. Degree 1 covers the inline run (the
        // lanes are whole all-to-alls there), degree 4 the pipelined graph.
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 5;
        let x_global = rng::uniform(&[n_local * p, M], 0.7, &mut seeded(24));
        let run = |degree: usize, folded: bool| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = make_gate(p, 2, 8.0);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = layer.forward(&mut h, &x, 0).unwrap();
                let live = vec![true; p];
                let mut values: Vec<f32> = (0..8).map(|i| (me * 8 + i) as f32 * 0.5).collect();
                let dx = if folded {
                    layer
                        .backward_with_allreduce(
                            &mut h,
                            &y,
                            Some(GradAllreduce {
                                values: &mut values,
                                tag: 9_000_000,
                                live: &live,
                            }),
                        )
                        .unwrap()
                } else {
                    let dx = layer.backward(&mut h, &y).unwrap();
                    allreduce_live(&mut h, &mut values, 9_000_000, &live).unwrap();
                    dx
                };
                let mut grads = Vec::new();
                layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
                (dx, grads, values)
            })
        };
        for degree in [1, 4] {
            let folded = run(degree, true);
            let separate = run(degree, false);
            for me in 0..p {
                let diff = folded[me].0.max_abs_diff(&separate[me].0).unwrap();
                assert_eq!(diff, 0.0, "degree {degree} rank {me} dx diverged");
                assert_eq!(
                    folded[me].1, separate[me].1,
                    "degree {degree} rank {me} param grads diverged"
                );
                assert_eq!(
                    folded[me].2, separate[me].2,
                    "degree {degree} rank {me} allreduced values diverged"
                );
            }
        }
    }

    #[test]
    fn a_garbled_chunk_fails_the_step_with_a_typed_error() {
        // Rank 1 speaks three bytes of garbage on every dispatch chunk.
        // Rank 0's decode must surface it as `Corrupt` through the graph's
        // error slot — inline at degree 1, on the executor at degree 2 —
        // not as a panic on the rank thread.
        for degree in [1usize, 2] {
            let outs = Fabric::run(Topology::new(1, 2), |mut h| {
                if h.rank() == 1 {
                    let tags = (0..degree).map(|c| chunk_tag(0, lanes::LANE_DISPATCH, c, 0));
                    for tag in tags.clone() {
                        h.send(0, tag, Bytes::from_static(&[1, 2, 3])).unwrap();
                    }
                    // Stay reachable until rank 0 has sent (or given up).
                    for tag in tags {
                        let _ = h.recv(0, tag);
                    }
                    return None;
                }
                let mut layer = DistributedMoeLayer::new(
                    make_gate(2, 1, 8.0),
                    vec![make_expert(0)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree)
                .with_recv_timeout(std::time::Duration::from_secs(20));
                let x = rng::uniform(&[4, M], 1.0, &mut seeded(25));
                Some(layer.forward(&mut h, &x, 0))
            });
            assert!(
                matches!(outs[0], Some(Err(FabricError::Corrupt { peer: 1, .. }))),
                "degree {degree}: {:?}",
                outs[0].as_ref().map(|r| r.as_ref().err())
            );
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            let mut v = vec![h.rank() as f32, 1.0];
            allreduce_inplace(&mut h, &mut v, 42).unwrap();
            v
        });
        for v in results {
            assert_eq!(v, vec![0.0 + 1.0 + 2.0 + 3.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_live_skips_dead_ranks() {
        // Rank 2 is "dead": it never joins. Survivors reduce among
        // themselves, rooted at the lowest live rank.
        let topo = Topology::new(2, 2);
        let results = Fabric::run(topo, |mut h| {
            if h.rank() == 2 {
                return Vec::new();
            }
            let live = [true, true, false, true];
            let mut v = vec![h.rank() as f32, 1.0];
            allreduce_live(&mut h, &mut v, 42, &live).unwrap();
            v
        });
        for (r, v) in results.iter().enumerate() {
            if r == 2 {
                continue;
            }
            assert_eq!(v, &vec![0.0 + 1.0 + 3.0, 3.0], "rank {r}");
        }
    }

    #[test]
    fn degraded_forward_and_backward_complete_without_the_dead_rank() {
        // Rank 1 of 4 dies before the step. Survivors mark it dead,
        // reroute its tokens, and complete forward + backward with finite
        // outputs; the dead rank's experts receive nothing.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let dead = 1usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(41));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(dead);
            assert!(layer.is_degraded());
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            Some((y, dx))
        });
        for (r, out) in outs.iter().enumerate() {
            if r == dead {
                assert!(out.is_none());
                continue;
            }
            let (y, dx) = out.as_ref().unwrap();
            assert_eq!(y.dims(), &[n_local, M]);
            assert!(y.all_finite(), "rank {r} produced non-finite output");
            assert!(dx.all_finite(), "rank {r} produced non-finite grads");
            // Degraded combine still moves data: the output is not zero.
            assert!(
                y.data().iter().any(|&v| v.abs() > 1e-6),
                "rank {r} output is all zeros"
            );
        }
    }

    #[test]
    fn a_recycled_block_never_leaks_a_previous_steps_rows() {
        // Blocks come out of the workspace holding the last step's rows. A
        // batch that shrinks leaves stale rows past every block's new
        // length, one that grows back reads blocks sized by the small step,
        // and a degraded step changes which experts have rows at all. Each
        // step must equal, bit for bit in y, dx and every accumulated grad,
        // the same step on a layer whose workspace is replaced before it.
        let topo = Topology::new(1, 3);
        let p = topo.world_size();
        let dead = 2usize;
        let batches = [9usize, 4, 11, 7];
        let run = |recycle: bool| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = make_gate(2 * p, 2, 1.25);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(2 * me), make_expert(2 * me + 1)],
                    Box::new(Fp16Compressor),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(2)
                .with_recv_timeout(std::time::Duration::from_secs(20));
                let mut steps = Vec::new();
                for (step, &n) in batches.iter().enumerate() {
                    if step == batches.len() - 1 {
                        if me == dead {
                            break;
                        }
                        layer.mark_rank_dead(dead);
                    }
                    if !recycle {
                        layer.workspace = Workspace::default();
                    }
                    let x = rng::uniform(&[n, M], 1.0, &mut seeded((31 * step + me) as u64));
                    let y = layer.forward(&mut h, &x, step as u64 * TAG_STRIDE).unwrap();
                    let dx = layer.backward(&mut h, &y).unwrap();
                    let mut grads = Vec::new();
                    layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
                    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
                    let (y, dx): (Vec<u32>, Vec<u32>) = (bits(&y), bits(&dx));
                    steps.push((y, dx, grads));
                }
                assert_eq!(layer.workspace.usage().0, 0, "every block went home");
                steps
            })
        };
        let (recycled, fresh) = (run(true), run(false));
        for rank in 0..p {
            assert_eq!(recycled[rank].len(), fresh[rank].len());
            for (step, (a, b)) in recycled[rank].iter().zip(&fresh[rank]).enumerate() {
                assert_eq!(a.0, b.0, "rank {rank} step {step}: y");
                assert_eq!(a.1, b.1, "rank {rank} step {step}: dx");
                assert_eq!(a.2, b.2, "rank {rank} step {step}: grads");
            }
        }
    }

    #[test]
    fn a_single_live_rank_runs_its_graph_inline_and_still_completes() {
        // With only one rank left alive there is no communication to
        // overlap, so a layer configured for overlapped execution runs its
        // chunks inline, spawning no comm thread, and still completes.
        let topo = Topology::new(1, 2);
        let n_local = 5;
        let dead = 1usize;
        let x_global = rng::uniform(&[n_local * 2, M], 1.0, &mut seeded(42));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(2, 1, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(4)
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(dead);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            Some(layer.forward(&mut h, &x, 0).unwrap())
        });
        let y = outs[0].as_ref().unwrap();
        assert!(y.all_finite());
        assert!(y.data().iter().any(|&v| v.abs() > 1e-6));
    }

    /// Per-rank (forward, dx, grads) for a degraded run at the given
    /// partition degree: `dead` never joins, survivors mark it dead.
    #[allow(clippy::type_complexity)]
    fn degraded_run(
        topo: Topology,
        dead: usize,
        degree: usize,
        x_global: &Tensor,
        n_local: usize,
    ) -> Vec<Option<(Tensor, Tensor, Vec<Vec<f32>>)>> {
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(degree)
            .with_recv_timeout(std::time::Duration::from_secs(30));
            layer.mark_rank_dead(dead);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut grads = Vec::new();
            layer.visit_params(&mut |prm| grads.push(prm.grad.data().to_vec()));
            Some((y, dx, grads))
        })
    }

    #[test]
    fn degraded_overlapped_forward_matches_degraded_serial_bit_for_bit() {
        // Satellite of the elastic-membership work: losing a rank must not
        // cost the overlap. With three live peers the overlapped pipeline
        // keeps running (masked gate + live-aware per-chunk exchanges) and
        // reproduces the degraded serial path exactly.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let dead = 3usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(43));
        let serial = degraded_run(topo, dead, 1, &x_global, n_local);
        for degree in [2, 4] {
            let overlapped = degraded_run(topo, dead, degree, &x_global, n_local);
            for me in 0..p {
                if me == dead {
                    assert!(overlapped[me].is_none());
                    continue;
                }
                let (ys, dxs, gs) = serial[me].as_ref().unwrap();
                let (yo, dxo, go) = overlapped[me].as_ref().unwrap();
                assert_eq!(
                    yo.max_abs_diff(ys).unwrap(),
                    0.0,
                    "degree {degree} rank {me} forward diverged"
                );
                assert_eq!(
                    dxo.max_abs_diff(dxs).unwrap(),
                    0.0,
                    "degree {degree} rank {me} dx diverged"
                );
                assert_eq!(go, gs, "degree {degree} rank {me} param grads diverged");
            }
        }
    }

    /// Runs `step` with the process-wide span recorder on, one caller at a
    /// time, and returns its result with the spans it recorded. Callers
    /// pick a partition degree no other test in this binary uses, so their
    /// highest chunk's spans can only be their own.
    fn traced<T>(step: impl FnOnce() -> T) -> (T, obs::FuncTrace) {
        static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _one_at_a_time = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
        obs::enable();
        let out = step();
        let trace = obs::take();
        obs::disable();
        (out, trace)
    }

    fn has_span(trace: &obs::FuncTrace, name: &str) -> bool {
        trace.spans.iter().any(|s| s.name == name)
    }

    #[test]
    fn degraded_steps_with_live_peers_still_overlap() {
        // Regression for an old fallback to an unpipelined forward whenever
        // a rank was dead: a degraded step with live peers must still run
        // the chunked pipeline. Partition degree 17 is unique in this test binary, so
        // the `A1[c16]` span can only come from this run.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let dead = 2usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(44));
        let (degraded_deltas, trace) = traced(|| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                if me == dead {
                    return 0;
                }
                let before = obs::counters_for_rank(me).snapshot().degraded_steps;
                let gate = make_gate(p, 2, 8.0);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(17)
                .with_recv_timeout(std::time::Duration::from_secs(30));
                layer.mark_rank_dead(dead);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let y = layer.forward(&mut h, &x, 0).unwrap();
                assert!(y.all_finite());
                obs::counters_for_rank(me).snapshot().degraded_steps - before
            })
        });
        for (r, delta) in degraded_deltas.iter().enumerate() {
            if r != dead {
                assert!(*delta >= 1, "rank {r} did not record a degraded step");
            }
        }
        assert!(
            has_span(&trace, "A1[c16]") && has_span(&trace, "A2[c16]"),
            "degraded run did not produce per-chunk overlap spans"
        );
        assert!(
            trace.spans.iter().any(|s| s.cat == "degraded"),
            "degraded run did not record the degraded span"
        );
    }

    #[test]
    fn mark_rank_alive_restores_full_capacity_bit_for_bit() {
        // Kill rank 1, run a degraded step, revive it, and check the next
        // step is indistinguishable from one that never degraded: the gate
        // expands back over the returned experts and the overlapped path
        // re-engages.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 5;
        let dead = 1usize;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(45));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(2)
            .with_recv_timeout(std::time::Duration::from_secs(30));
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            // Step 0: full world, baseline output.
            let baseline = layer.forward(&mut h, &x, 0).unwrap();
            // Step 1: rank 1 is out; survivors run degraded.
            if me != dead {
                layer.mark_rank_dead(dead);
                assert!(layer.is_degraded());
                layer.forward(&mut h, &x, TAG_STRIDE).unwrap();
                layer.mark_rank_alive(dead);
                assert!(!layer.is_degraded());
            }
            // Step 2: the revived rank is back; full-capacity output must
            // match the baseline exactly.
            let after = layer.forward(&mut h, &x, 2 * TAG_STRIDE).unwrap();
            (baseline, after)
        });
        for (r, (baseline, after)) in outs.iter().enumerate() {
            assert_eq!(
                after.max_abs_diff(baseline).unwrap(),
                0.0,
                "rank {r} post-rejoin output differs from the never-degraded baseline"
            );
        }
    }

    /// Per-rank (y, dx, expert grads) for a no-deaths run — the reference
    /// the failover path must reproduce. `empty_rank` contributes a
    /// zero-token batch: that is exactly the world a failover step sees
    /// (the dead rank's shard is gone, but its expert keeps serving), so
    /// comparing against it checks expert fidelity without conflating the
    /// vanished tokens.
    #[allow(clippy::type_complexity)]
    fn full_capacity_run(
        topo: Topology,
        x_global: &Tensor,
        n_local: usize,
        empty_rank: Option<usize>,
    ) -> Vec<(Tensor, Tensor, Vec<Vec<f32>>)> {
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            );
            let rows = if empty_rank == Some(me) { 0 } else { n_local };
            let mut x = Tensor::zeros(&[rows, M]);
            for r in 0..rows {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut expert_grads = Vec::new();
            layer.visit_params(&mut |prm| {
                if !prm.name.starts_with("gate") {
                    expert_grads.push(prm.grad.data().to_vec());
                }
            });
            (y, dx, expert_grads)
        })
    }

    /// Per surviving rank `(y, dx, hosted guest grads)` of one step on a
    /// 2×2 world where `dead`'s expert is served by `host` from a guest
    /// body bit-identical to the original.
    #[allow(clippy::type_complexity)]
    fn failover_run(
        x_global: &Tensor,
        n_local: usize,
        (dead, host): (usize, usize),
        degree: usize,
    ) -> Vec<Option<(Tensor, Tensor, Vec<Vec<f32>>)>> {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == dead {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(degree)
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(dead);
            layer.set_failover_routes([(dead, host)]);
            if me == host {
                layer.install_guest_expert(me, dead, make_expert(dead));
                assert_eq!(layer.guest_expert_ids(), vec![dead]);
            }
            assert_eq!(layer.failover_routes(), vec![(dead, host)]);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut hosted_grads = Vec::new();
            layer.visit_serving_params(me, dead, &mut |prm| {
                hosted_grads.push(prm.grad.data().to_vec());
            });
            Some((y, dx, hosted_grads))
        })
    }

    #[test]
    fn a_failover_host_serves_the_dead_ranks_expert_bit_for_bit() {
        // Rank 1 of 4 dies but rank 2 holds a fresh replica of its expert
        // and a failover route is installed everywhere. Because no expert
        // leaves the routing table and the hosted replica is bit-identical,
        // every survivor's forward, dx, and the hosted expert's gradients
        // must equal the never-degraded full-capacity run exactly.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let (dead, host) = (1usize, 2usize);
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(51));
        let baseline = full_capacity_run(topo, &x_global, n_local, Some(dead));
        let failover = failover_run(&x_global, n_local, (dead, host), 1);
        for me in 0..p {
            if me == dead {
                assert!(failover[me].is_none());
                continue;
            }
            let (y, dx, hosted_grads) = failover[me].as_ref().unwrap();
            let (by, bdx, _) = &baseline[me];
            assert_eq!(
                y.max_abs_diff(by).unwrap(),
                0.0,
                "rank {me} failover forward diverged from full capacity"
            );
            assert_eq!(
                dx.max_abs_diff(bdx).unwrap(),
                0.0,
                "rank {me} failover dx diverged from full capacity"
            );
            if me == host {
                // The hosted expert's gradients are exactly what the dead
                // rank would have computed for its own expert.
                assert_eq!(
                    hosted_grads, &baseline[dead].2,
                    "hosted expert grads diverged from the dead rank's own"
                );
            } else {
                assert!(hosted_grads.is_empty());
            }
        }
    }

    #[test]
    fn failover_steps_with_live_peers_still_overlap() {
        // A failover route used to force the serial fork. The hosted expert
        // is now a routing-table entry, so the step runs the chunked
        // pipeline (degree 23 is unique in this test binary) and every
        // survivor's y, dx and the hosted grads equal the inline r = 1 run
        // bit for bit.
        let n_local = 6;
        let pair = (1usize, 2usize);
        let x_global = rng::uniform(&[n_local * 4, M], 1.0, &mut seeded(53));
        let inline = failover_run(&x_global, n_local, pair, 1);
        let (chunked, trace) = traced(|| failover_run(&x_global, n_local, pair, 23));
        assert!(
            has_span(&trace, "A1[c22]") && has_span(&trace, "A2[c22]"),
            "failover run did not produce per-chunk overlap spans"
        );
        for (me, (a, b)) in inline.iter().zip(&chunked).enumerate() {
            let (Some((ya, dxa, ga)), Some((yb, dxb, gb))) = (a, b) else {
                assert!(a.is_none() && b.is_none(), "rank {me} liveness differs");
                continue;
            };
            assert_eq!(yb.max_abs_diff(ya).unwrap(), 0.0, "rank {me} y diverged");
            assert_eq!(dxb.max_abs_diff(dxa).unwrap(), 0.0, "rank {me} dx diverged");
            assert_eq!(gb, ga, "rank {me} hosted grads diverged");
        }
    }

    #[test]
    fn an_orphaned_expert_reroutes_while_routed_experts_keep_serving() {
        // Double fault: ranks 1 and 3 are both dead, but only rank 1 has a
        // failover route (to rank 2). Rank 3's expert is orphaned and must
        // fall back to the masked reroute, while rank 1's keeps serving
        // through its host — the step completes with finite outputs.
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 6;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(52));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            if me == 1 || me == 3 {
                return None;
            }
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_recv_timeout(std::time::Duration::from_secs(20));
            layer.mark_rank_dead(1);
            layer.mark_rank_dead(3);
            layer.set_failover_routes([(1, 2)]);
            if me == 2 {
                layer.install_guest_expert(me, 1, make_expert(1));
            }
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut hosted_nonzero = false;
            layer.visit_serving_params(me, 1, &mut |prm| {
                hosted_nonzero |= prm.grad.data().iter().any(|&g| g != 0.0);
            });
            Some((y, dx, hosted_nonzero))
        });
        for (r, out) in outs.iter().enumerate() {
            if r == 1 || r == 3 {
                assert!(out.is_none());
                continue;
            }
            let (y, dx, hosted_nonzero) = out.as_ref().unwrap();
            assert!(y.all_finite(), "rank {r} non-finite output");
            assert!(dx.all_finite(), "rank {r} non-finite grads");
            assert!(
                y.data().iter().any(|&v| v.abs() > 1e-6),
                "rank {r} output is all zeros"
            );
            if r == 2 {
                assert!(hosted_nonzero, "hosted expert saw no gradient");
            }
        }
    }

    #[test]
    fn a_dying_host_orphans_its_wards_and_rejoin_clears_routes() {
        let mut layer = DistributedMoeLayer::new(
            make_gate(4, 2, 8.0),
            vec![make_expert(0)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        );
        layer.mark_rank_dead(1);
        layer.set_failover_routes([(1, 2)]);
        assert_eq!(layer.failover_routes(), vec![(1, 2)]);
        // The host dies too: the ward's route is dropped, so its expert
        // is masked again (orphaned).
        layer.mark_rank_dead(2);
        assert!(layer.failover_routes().is_empty());
        // Rejoin clears a rank's own route and the guest hosted for it.
        layer.set_failover_routes([(1, 3)]);
        layer.install_guest_expert(0, 1, make_expert(1));
        layer.mark_rank_alive(1);
        assert!(layer.failover_routes().is_empty());
        assert!(layer.guest_expert_ids().is_empty());
    }

    #[test]
    fn a_failover_ward_outlives_placement_resets_and_later_burials() {
        // Rank 2 hosts buried rank 1's expert as a guest. Every membership
        // disturbance resets placement before it buries, so the ward's
        // body must outlive those resets untouched — it is the only copy
        // of the expert's trained state.
        let me = 2;
        let mut layer = DistributedMoeLayer::new(
            make_gate(4, 2, 8.0),
            vec![make_expert(me)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        );
        let weights = |layer: &mut DistributedMoeLayer| {
            let mut w = Vec::new();
            layer.visit_serving_params(me, 1, &mut |prm| w.push(prm.value.data().to_vec()));
            w
        };
        layer.mark_rank_dead(1);
        layer.set_failover_routes([(1, me)]);
        layer.install_guest_expert(me, 1, make_expert(1));
        let before = weights(&mut layer);
        assert!(!before.is_empty());
        layer.reset_placement();
        layer.mark_rank_dead(3);
        layer.reset_placement();
        assert_eq!(layer.guest_expert_ids(), vec![1]);
        assert_eq!(layer.failover_routes(), vec![(1, me)]);
        assert_eq!(weights(&mut layer), before);

        // A placement guest, by contrast, lives only as long as its
        // placement: its home is live.
        let mut placed = DistributedMoeLayer::new(
            make_gate(4, 2, 8.0),
            vec![make_expert(me)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        );
        placed.install_guest_expert(me, 1, make_expert(1));
        placed.set_placement(
            me,
            Placement::new(1, 1, vec![vec![0], vec![1, 2], vec![2], vec![3]]),
        );
        placed.reset_placement();
        assert!(placed.guest_expert_ids().is_empty());
    }

    #[test]
    fn multiple_experts_per_rank() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let epr = 2;
        let n_local = 6;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(9));
        let outs = Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p * epr, 2, 8.0);
            let experts: Vec<Box<dyn Expert>> =
                (0..epr).map(|le| make_expert(me * epr + le)).collect();
            let mut layer =
                DistributedMoeLayer::new(gate, experts, Box::new(NoCompression), Box::new(NcclA2A));
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            layer.forward(&mut h, &x, 0).unwrap()
        });
        for me in 0..p {
            let gate = make_gate(p * epr, 2, 8.0);
            let experts: Vec<Box<dyn Expert>> = (0..p * epr).map(make_expert).collect();
            let mut reference = MoeLayer::from_parts(gate, experts);
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let want = reference.forward(&x);
            let diff = outs[me].max_abs_diff(&want).unwrap();
            assert!(diff < 1e-5, "rank {me} diverged by {diff}");
        }
    }

    /// Runs one forward + backward on a 4-rank world (epr = 1), optionally
    /// under the given placement (guest bodies rebuilt from the same seeds
    /// as the homes, like a state transfer would). Returns per rank:
    /// `(y, dx, own expert grads, guest grads by expert)`.
    #[allow(clippy::type_complexity)]
    fn placed_step(
        x_global: &Tensor,
        n_local: usize,
        servers: Option<&[Vec<usize>]>,
        degree: usize,
    ) -> Vec<(Tensor, Tensor, Vec<Vec<f32>>, Vec<(usize, Vec<Vec<f32>>)>)> {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            let gate = make_gate(p, 2, 8.0);
            let mut layer = DistributedMoeLayer::new(
                gate,
                vec![make_expert(me)],
                Box::new(NoCompression),
                Box::new(NcclA2A),
            )
            .with_partition_degree(degree)
            .with_recv_timeout(std::time::Duration::from_secs(30));
            if let Some(servers) = servers {
                let pl = Placement::new(1, 1, servers.to_vec());
                for &e in &pl.guests_of(me) {
                    layer.install_guest_expert(me, e, make_expert(e));
                }
                layer.set_placement(me, pl);
            }
            let mut x = Tensor::zeros(&[n_local, M]);
            for r in 0..n_local {
                x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
            }
            let y = layer.forward(&mut h, &x, 0).unwrap();
            let dx = layer.backward(&mut h, &y).unwrap();
            let mut own = Vec::new();
            layer.visit_serving_params(me, me, &mut |prm| own.push(prm.grad.data().to_vec()));
            let mut guests = Vec::new();
            for e in layer.guest_expert_ids() {
                let mut g = Vec::new();
                layer.visit_serving_params(me, e, &mut |prm| g.push(prm.grad.data().to_vec()));
                guests.push((e, g));
            }
            (y, dx, own, guests)
        })
    }

    /// An expert body that counts its forwards — saving or not — in a
    /// counter shared by every body of its rank.
    struct CountingExpert {
        body: FfExpert,
        forwards: Arc<AtomicU64>,
    }

    impl CountingExpert {
        fn boxed(e: usize, forwards: &Arc<AtomicU64>) -> Box<dyn Expert> {
            Box::new(CountingExpert {
                body: FfExpert::new(M, H, &mut seeded(1000 + e as u64)),
                forwards: Arc::clone(forwards),
            })
        }
    }

    impl SavedForm for CountingExpert {
        fn saved_width(&self) -> usize {
            self.body.saved_width()
        }

        fn forward_saving(&mut self, x: Mat, saved: &mut [f32], y: &mut [f32]) {
            self.forwards.fetch_add(1, Ordering::Relaxed);
            self.body.forward_saving(x, saved, y);
        }

        fn backward_from(&mut self, group: &[Segment], dx: &mut [f32]) {
            self.body.backward_from(group, dx);
        }
    }

    impl Expert for CountingExpert {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            self.forwards.fetch_add(1, Ordering::Relaxed);
            self.body.forward(x)
        }

        fn backward(&mut self, dy: &Tensor) -> Tensor {
            self.body.backward(dy)
        }

        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.body.visit_params(f);
        }

        fn forward_flops(&self, n: usize) -> u64 {
            self.body.forward_flops(n)
        }

        fn model_dim(&self) -> usize {
            self.body.model_dim()
        }
    }

    /// Who serves which expert in [`an_expert_runs_one_forward_per_chunk_and_none_in_the_backward`].
    #[derive(Clone, Copy, Debug)]
    enum Serving {
        /// Every rank its own expert.
        Local,
        /// Rank 1 dead, its expert hosted by rank 2.
        Failover,
        /// Expert 0 replicated on ranks 0 and 2, expert 3 migrated to rank 1.
        Guests,
    }

    #[test]
    fn an_expert_runs_one_forward_per_chunk_and_none_in_the_backward() {
        let topo = Topology::new(2, 2);
        let p = topo.world_size();
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(61));
        for serving in [Serving::Local, Serving::Failover, Serving::Guests] {
            for degree in [1, 2, 4] {
                Fabric::run(topo, |mut h| {
                    let me = h.rank();
                    let (dead, host) = (1, 2);
                    if matches!(serving, Serving::Failover) && me == dead {
                        return;
                    }
                    let forwards = Arc::new(AtomicU64::new(0));
                    let body = |e: usize| CountingExpert::boxed(e, &forwards);
                    let mut layer = DistributedMoeLayer::new(
                        make_gate(p, 2, 8.0),
                        vec![body(me)],
                        Box::new(NoCompression),
                        Box::new(NcclA2A),
                    )
                    .with_partition_degree(degree)
                    .with_recv_timeout(std::time::Duration::from_secs(30));
                    match serving {
                        Serving::Local => {}
                        Serving::Failover => {
                            layer.mark_rank_dead(dead);
                            layer.set_failover_routes([(dead, host)]);
                            if me == host {
                                layer.install_guest_expert(me, dead, body(dead));
                            }
                        }
                        Serving::Guests => {
                            let servers = vec![vec![0, 2], vec![1], vec![2], vec![1]];
                            let pl = Placement::new(1, 1, servers);
                            for &e in &pl.guests_of(me) {
                                layer.install_guest_expert(me, e, body(e));
                            }
                            layer.set_placement(me, pl);
                        }
                    }
                    let served = layer.routing_table(p).served[me].len() as u64;
                    let mut x = Tensor::zeros(&[n_local, M]);
                    for r in 0..n_local {
                        x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                    }
                    for step in 1..=2u64 {
                        let tag = step * TAG_STRIDE;
                        let y = layer.forward(&mut h, &x, tag).unwrap();
                        let after_forward = forwards.load(Ordering::Relaxed);
                        let want = step * served * degree as u64;
                        let case = format!("{serving:?} r={degree} rank {me} step {step}");
                        assert_eq!(after_forward, want, "{case}: forwards");
                        layer.backward(&mut h, &y).unwrap();
                        let after_backward = forwards.load(Ordering::Relaxed);
                        assert_eq!(after_backward, want, "{case}: a forward in the backward");
                    }
                });
            }
        }
    }

    #[test]
    fn every_stage_span_parses_back_to_its_stage() {
        // Degree 5 is unique in this binary, so every `[c4]` span is ours;
        // the backward's per-peer spans are told apart by their stems.
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let (_, trace) = traced(|| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let mut layer = DistributedMoeLayer::new(
                    make_gate(p, 1, 8.0),
                    vec![make_expert(me)],
                    Box::new(Fp16Compressor),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(5);
                let x = rng::uniform(&[9, M], 1.0, &mut seeded(62 + me as u64));
                let y = layer.forward(&mut h, &x, 0).unwrap();
                layer.backward(&mut h, &y).unwrap();
            })
        });
        // What each stage is recorded as: its span category.
        let category = |(_, kind): schemoe_scheduler::Stage| match kind {
            Compress1 | Compress2 => "encode",
            AllToAll1 | AllToAll2 => "a2a",
            Decompress1 | Decompress2 => "decode",
            TaskKind::Expert => "expert",
        };
        let mut seen = BTreeSet::new();
        for span in &trace.spans {
            let ours = span.name.ends_with("[c4]") || !span.name.contains("[c");
            let Some(stage) = schemoe_scheduler::span_kind(&span.name) else {
                continue;
            };
            if ours {
                assert_eq!(span.cat, category(stage), "{}", span.name);
                seen.insert(stage);
            }
        }
        for pass in [FWD, BWD] {
            for kind in TaskKind::ALL {
                assert!(seen.contains(&(pass, kind)), "no {} span", pass.label(kind));
            }
        }
    }

    #[test]
    fn placed_fan_out_is_bit_identical_to_serial() {
        // Expert 0 replicated on ranks {0, 2}, expert 3 migrated to rank 1.
        // Outputs and input grads must match the static serial step bit for
        // bit: expert bodies are row-wise and the combine reassembles the
        // serial slot order before accumulating.
        let p = 4;
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(91));
        let servers = vec![vec![0usize, 2], vec![1], vec![2], vec![1]];
        let serial = placed_step(&x_global, n_local, None, 1);
        let placed = placed_step(&x_global, n_local, Some(&servers), 1);
        for me in 0..p {
            let dy = placed[me].0.max_abs_diff(&serial[me].0).unwrap();
            assert_eq!(dy, 0.0, "rank {me} y diverged by {dy}");
            let ddx = placed[me].1.max_abs_diff(&serial[me].1).unwrap();
            assert_eq!(ddx, 0.0, "rank {me} dx diverged by {ddx}");
        }
    }

    #[test]
    fn migrated_expert_weight_grads_match_the_static_home_bitwise() {
        // Pure migration (no replicas): the guest body receives exactly the
        // rows the home would have, in the same src-major order, and makes
        // the same canonical per-(expert, source) backward calls — so its
        // weight grads equal the static home's bit for bit.
        let p = 4;
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(92));
        let servers = vec![vec![0usize], vec![3], vec![2], vec![1]];
        let serial = placed_step(&x_global, n_local, None, 1);
        let placed = placed_step(&x_global, n_local, Some(&servers), 1);
        for (e, host) in [(1usize, 3usize), (3, 1)] {
            let guest = &placed[host]
                .3
                .iter()
                .find(|(ge, _)| *ge == e)
                .expect("guest grads recorded")
                .1;
            assert_eq!(
                guest, &serial[e].2,
                "guest grads for expert {e} on rank {host}"
            );
        }
    }

    #[test]
    fn replica_partial_grads_sum_to_the_full_expert_grad() {
        // A replicated expert's weight grads are partial per server; their
        // sum must match the static full-batch grad up to float regrouping
        // (this is what the controller's sync-group allreduce restores).
        let p = 4;
        let n_local = 8;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(93));
        let servers = vec![vec![0usize, 2], vec![1], vec![2], vec![3]];
        let serial = placed_step(&x_global, n_local, None, 1);
        let placed = placed_step(&x_global, n_local, Some(&servers), 1);
        let home = &placed[0].2;
        let guest = &placed[2]
            .3
            .iter()
            .find(|(ge, _)| *ge == 0)
            .expect("rank 2 serves expert 0")
            .1;
        assert_eq!(home.len(), guest.len());
        for (i, want) in serial[0].2.iter().enumerate() {
            for (j, &w) in want.iter().enumerate() {
                let got = home[i][j] + guest[i][j];
                assert!(
                    (got - w).abs() < 1e-4,
                    "expert 0 grad[{i}][{j}]: {got} vs {w}"
                );
            }
        }
    }

    #[test]
    fn placed_steps_still_overlap() {
        // A non-static placement used to force the serial fork. Replica
        // fan-out and migration are now routing-table entries, so the step
        // runs the chunked pipeline (degree 19 is unique in this test
        // binary) and y, dx and every home and guest weight grad equal the
        // inline r = 1 run bit for bit.
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * 4, M], 1.0, &mut seeded(95));
        let servers = vec![vec![0usize, 2], vec![1], vec![2], vec![1]];
        let inline = placed_step(&x_global, n_local, Some(&servers), 1);
        let (chunked, trace) = traced(|| placed_step(&x_global, n_local, Some(&servers), 19));
        assert!(
            has_span(&trace, "A1[c18]") && has_span(&trace, "A2[c18]"),
            "placed run did not produce per-chunk overlap spans"
        );
        for (me, (a, b)) in inline.iter().zip(&chunked).enumerate() {
            assert_eq!(b.0.max_abs_diff(&a.0).unwrap(), 0.0, "rank {me} y diverged");
            assert_eq!(
                b.1.max_abs_diff(&a.1).unwrap(),
                0.0,
                "rank {me} dx diverged"
            );
            assert_eq!(b.2, a.2, "rank {me} home grads diverged");
            assert_eq!(b.3, a.3, "rank {me} guest grads diverged");
        }
    }

    #[test]
    fn load_stats_accumulate_and_drain() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let n_local = 7;
        let x_global = rng::uniform(&[n_local * p, M], 1.0, &mut seeded(94));
        for degree in [1, 2] {
            let outs = Fabric::run(topo, |mut h| {
                let me = h.rank();
                // A starved capacity factor guarantees shed assignments.
                let gate = make_gate(p, 2, 0.05);
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    vec![make_expert(me)],
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = Tensor::zeros(&[n_local, M]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let _y = layer.forward(&mut h, &x, 0).unwrap();
                let stats = layer.take_load_stats();
                let drained = layer.take_load_stats();
                (stats, drained)
            });
            for (me, ((loads, shed, routed, p99), drained)) in outs.iter().enumerate() {
                assert_eq!(loads.iter().sum::<u64>(), *routed, "rank {me}");
                assert!(*routed > 0, "rank {me} routed nothing");
                assert!(*shed > 0, "rank {me} shed nothing despite f=0.05");
                assert!(
                    *p99 > 0,
                    "degree {degree} rank {me} reported no service time"
                );
                assert!(
                    drained.0.is_empty() && drained.1 == 0 && drained.2 == 0 && drained.3 == 0,
                    "rank {me} drain did not reset"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "guest body")]
    fn activating_a_placement_without_its_guest_bodies_panics() {
        let gate = make_gate(2, 1, 8.0);
        let mut layer = DistributedMoeLayer::new(
            gate,
            vec![make_expert(0)],
            Box::new(NoCompression),
            Box::new(NcclA2A),
        );
        // Expert 1 migrated onto rank 0 without a guest body installed.
        let pl = Placement::new(1, 1, vec![vec![0], vec![0]]);
        layer.set_placement(0, pl);
    }
}
