//! All-to-all plans: phases of send/recv pairs on streams, each naming the
//! blocks it carries. The simulator times a plan; [`A2aPlan::execute`]
//! runs the same plan over the fabric.

use std::collections::HashMap;

use bytes::Bytes;
use schemoe_cluster::{
    FabricError, FrameBuf, FramePool, HardwareProfile, Rank, RankHandle, Topology,
};
use schemoe_netsim::{SimError, SimTime, StreamSim, Trace};

use crate::TrafficMatrix;

/// Which of a rank's two communication streams an operation is issued on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamAssignment {
    /// The rank's primary stream (stream 0). Sequential algorithms put
    /// everything here.
    Main,
    /// The rank's secondary stream (stream 1). Pipe-A2A issues inter-node
    /// pairs here so they overlap with intra-node pairs on [`Self::Main`].
    Secondary,
}

/// A set of ranks: one side of the blocks an op carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ranks {
    /// One rank.
    One(Rank),
    /// Every rank.
    All,
    /// The ranks of one node.
    Node(usize),
    /// The ranks with one local index, one per node (a "rail").
    Rail(usize),
}

impl Ranks {
    /// The members, ascending.
    pub fn members(self, topo: &Topology) -> Vec<Rank> {
        match self {
            Ranks::One(rank) => vec![rank],
            Ranks::All => topo.ranks().collect(),
            Ranks::Node(node) => topo.node_ranks(node),
            Ranks::Rail(local) => topo.rail_ranks(local),
        }
    }
}

/// The blocks an op carries: every `(origin, final destination)` pair of
/// `origins × destinations`, where block `(o, d)` is the payload rank `o`
/// passed the exchange for rank `d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocks(pub Ranks, pub Ranks);

impl Blocks {
    /// The pairs, origin-major: the order a bundle lays them out in.
    pub fn list(self, topo: &Topology) -> Vec<(Rank, Rank)> {
        let dests = self.1.members(topo);
        let origins = self.0.members(topo);
        origins
            .into_iter()
            .flat_map(|o| dests.iter().map(move |&d| (o, d)))
            .collect()
    }

    /// How many pairs.
    pub fn count(self, topo: &Topology) -> usize {
        self.0.members(topo).len() * self.1.members(topo).len()
    }
}

/// One send/recv pair `SR(src, dst)` within a plan.
#[derive(Clone, Copy, Debug)]
pub struct SrOp {
    /// The rank whose stream executes (and is occupied by) this pair.
    /// Usually the sender; gather patterns charge the receiver instead,
    /// because its ingress link is the serializing resource.
    pub owner: Rank,
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// The blocks the message carries.
    pub blocks: Blocks,
    /// Message size in bytes.
    pub bytes: u64,
    /// Stream assignment on the owner.
    pub stream: StreamAssignment,
    /// `true` when the op runs in a phase with no concurrent inter-node
    /// traffic, earning the faster exclusive intra-node rate.
    pub exclusive_intra: bool,
}

impl SrOp {
    /// `src` sending `blocks` to `dst`, `per_pair` bytes each, on its own
    /// main stream at the shared intra-node rate.
    pub fn carrying(topo: &Topology, src: Rank, dst: Rank, blocks: Blocks, per_pair: u64) -> Self {
        SrOp {
            owner: src,
            src,
            dst,
            blocks,
            bytes: blocks.count(topo) as u64 * per_pair,
            stream: StreamAssignment::Main,
            exclusive_intra: false,
        }
    }

    /// Simulated duration of this pair under `hw`.
    pub fn duration(&self, topo: &Topology, hw: &HardwareProfile) -> SimTime {
        if self.src == self.dst {
            hw.self_copy(self.bytes)
        } else if topo.same_node(self.src, self.dst) {
            if self.exclusive_intra {
                hw.intra_sr_exclusive(self.bytes)
            } else {
                hw.intra_sr(self.bytes)
            }
        } else {
            hw.inter_sr(self.bytes)
        }
    }

    /// Whether the pair crosses nodes.
    pub fn is_inter_node(&self, topo: &Topology) -> bool {
        !topo.same_node(self.src, self.dst)
    }
}

/// A compiled all-to-all: phases of [`SrOp`]s plus memory metadata.
///
/// Within a phase, each rank's ops execute in listed order on their
/// assigned streams; a synchronization barrier (costing
/// [`HardwareProfile::phase_sync`]) separates consecutive phases, which is
/// how hierarchical algorithms serialize their stages.
#[derive(Clone, Debug)]
pub struct A2aPlan {
    name: String,
    phases: Vec<Vec<SrOp>>,
    staging_bytes: u64,
    join_overhead: SimTime,
}

impl A2aPlan {
    /// Creates a plan.
    pub fn new(name: impl Into<String>, phases: Vec<Vec<SrOp>>) -> Self {
        A2aPlan {
            name: name.into(),
            phases,
            staging_bytes: 0,
            join_overhead: SimTime::ZERO,
        }
    }

    /// Sets the per-GPU staging-buffer requirement, builder style.
    pub fn with_staging_bytes(mut self, bytes: u64) -> Self {
        self.staging_bytes = bytes;
        self
    }

    /// Sets a fixed end-of-collective overhead (e.g. multi-stream join),
    /// builder style.
    pub fn with_join_overhead(mut self, overhead: SimTime) -> Self {
        self.join_overhead = overhead;
        self
    }

    /// Re-costs every op for a non-uniform exchange: its `bytes` become
    /// the sum of `matrix[o][d]` over its blocks `(o, d)`.
    pub fn with_traffic(mut self, topo: &Topology, matrix: &TrafficMatrix) -> Self {
        for op in self.phases.iter_mut().flatten() {
            op.bytes = op
                .blocks
                .list(topo)
                .into_iter()
                .map(|(o, d)| matrix.get(o, d))
                .sum();
        }
        self
    }

    /// Algorithm name this plan was compiled from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phase-major operation list.
    pub fn phases(&self) -> &[Vec<SrOp>] {
        &self.phases
    }

    /// Per-GPU staging-buffer bytes beyond input and output tensors.
    pub fn staging_bytes(&self) -> u64 {
        self.staging_bytes
    }

    /// Fixed end-of-collective overhead to add to the simulated makespan.
    pub fn join_overhead(&self) -> SimTime {
        self.join_overhead
    }

    /// Total bytes crossing node boundaries (one direction counted once).
    pub fn inter_node_bytes(&self, topo: &Topology) -> u64 {
        self.phases
            .iter()
            .flatten()
            .filter(|op| op.is_inter_node(topo))
            .map(|op| op.bytes)
            .sum()
    }

    /// Runs the plan against a hardware profile.
    ///
    /// Each rank gets two streams; phase barriers are modelled as a
    /// `phase_sync`-long op on a dedicated sync stream that every
    /// next-phase op waits on.
    pub fn simulate(&self, topo: &Topology, hw: &HardwareProfile) -> Result<Trace, SimError> {
        let p = topo.world_size();
        let mut sim = StreamSim::new();
        let mut main = Vec::with_capacity(p);
        let mut secondary = Vec::with_capacity(p);
        for r in 0..p {
            main.push(sim.stream(format!("gpu{r}.main")));
            secondary.push(sim.stream(format!("gpu{r}.aux")));
        }
        let sync_stream = sim.stream("sync");

        let mut prev_barrier = None;
        for (pi, phase) in self.phases.iter().enumerate() {
            let mut phase_ops = Vec::with_capacity(phase.len());
            for op in phase {
                let stream = match op.stream {
                    StreamAssignment::Main => main[op.owner],
                    StreamAssignment::Secondary => secondary[op.owner],
                };
                let deps: &[schemoe_netsim::OpId] = match &prev_barrier {
                    Some(b) => std::slice::from_ref(b),
                    None => &[],
                };
                let id = sim.push(
                    stream,
                    op.duration(topo, hw),
                    deps,
                    format!("p{pi}:sr({},{})", op.src, op.dst),
                );
                phase_ops.push(id);
            }
            if pi + 1 < self.phases.len() {
                prev_barrier =
                    Some(sim.push(sync_stream, hw.phase_sync, &phase_ops, format!("sync{pi}")));
            }
        }
        sim.run()
    }

    /// Rank `me`'s part of the plan, in the order it runs: per phase, the
    /// ops it sends, then the ops it receives, each with the blocks it
    /// carries that `present` admits, origin-major. A self-op moves nothing
    /// and an op with no present block is no message, so neither is a
    /// step. Both ends of an op derive its blocks from the same rule, so
    /// they agree on every bundle's layout.
    pub fn steps(
        &self,
        topo: &Topology,
        me: Rank,
        present: impl Fn(Rank, Rank) -> bool,
    ) -> Vec<Step<'_>> {
        let mut steps = Vec::new();
        for (phase, ops) in self.phases.iter().enumerate() {
            for end in [|op: &SrOp| op.src, |op: &SrOp| op.dst] {
                for op in ops.iter().filter(|op| op.src != op.dst && end(op) == me) {
                    let mut keys = op.blocks.list(topo);
                    keys.retain(|&(o, d)| present(o, d));
                    if !keys.is_empty() {
                        steps.push(Step { phase, op, keys });
                    }
                }
            }
        }
        steps
    }

    /// Runs the plan on the fabric: this rank's `chunks[j]` is block
    /// `(me, j)`, and the result's element `j` is block `(j, me)`.
    ///
    /// Phase `k` travels on tag `tag_base + k`. The rank runs its
    /// [`steps`](Self::steps) in order, every block present. A plan only
    /// sends blocks its source held when the phase began, so every send of
    /// a phase is issued before any rank waits on it: the exchange cannot
    /// deadlock.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is not one per rank, or if the plan sends a block
    /// its source does not hold or leaves one undelivered.
    pub fn execute(
        &self,
        handle: &mut RankHandle,
        chunks: Vec<Bytes>,
        tag_base: u64,
    ) -> Result<Vec<Bytes>, FabricError> {
        let (topo, me) = (handle.topology(), handle.rank());
        let p = topo.world_size();
        assert_eq!(chunks.len(), p, "one chunk per destination rank required");
        let own = chunks.into_iter().enumerate();
        let mut held: Held = own.map(|(d, c)| ((me, d), Block::Bytes(c))).collect();
        for step in self.steps(&topo, me, |_, _| true) {
            let tag = tag_base + step.phase as u64;
            match step.op.src == me {
                true => step.send(handle, tag, step.take(&mut held))?,
                false => step.file(&mut held, handle.recv(step.op.src, tag)?, tag)?,
            }
        }
        let mut deliver = |src| held.remove(&(src, me)).map(Block::into_payload);
        Ok((0..p)
            .map(|src| deliver(src).expect("a plan delivers every block"))
            .collect())
    }
}

/// A block as one rank holds it while a plan runs: its own, still in the
/// frame it was encoded into, or bytes it was handed or received.
pub enum Block {
    /// An outgoing payload built in a frame of the rank's pool.
    Frame(FrameBuf),
    /// Anything else.
    Bytes(Bytes),
}

impl Block {
    /// Payload bytes.
    pub fn payload_len(&self) -> usize {
        match self {
            Block::Frame(frame) => frame.body_len(),
            Block::Bytes(bytes) => bytes.len(),
        }
    }

    /// The payload, copying nothing.
    pub fn into_payload(self) -> Bytes {
        match self {
            Block::Frame(frame) => frame.into_payload(),
            Block::Bytes(bytes) => bytes,
        }
    }
}

/// The blocks one rank holds while a plan runs, by `(origin, destination)`.
pub type Held = HashMap<(Rank, Rank), Block>;

/// One message of a rank's part in a plan ([`A2aPlan::steps`]): this rank
/// sends it when it is the op's `src`, else receives it.
#[derive(Debug)]
pub struct Step<'p> {
    /// The phase the op belongs to.
    pub phase: usize,
    /// The op.
    pub op: &'p SrOp,
    /// The blocks the message carries, in bundle order.
    pub keys: Vec<(Rank, Rank)>,
}

impl Step<'_> {
    /// Takes this send's blocks out of `held`, in bundle order.
    ///
    /// # Panics
    ///
    /// Panics if `held` lacks one: the plan sends a block its source does
    /// not hold.
    pub fn take(&self, held: &mut Held) -> Vec<Block> {
        let take = |key| held.remove(key).expect("a plan sends held blocks");
        self.keys.iter().map(take).collect()
    }

    /// Sends `blocks` to the op's `dst` as one message: a lone block is
    /// the message itself (a frame goes out as built, with no copy), more
    /// are a bundle: the blocks' lengths as little-endian `u32`s, then
    /// their bytes.
    pub fn send(
        &self,
        h: &RankHandle,
        tag: u64,
        mut blocks: Vec<Block>,
    ) -> Result<(), FabricError> {
        let to = self.op.dst;
        match (blocks.pop(), blocks.is_empty()) {
            (Some(Block::Frame(frame)), true) => h.send_frame(to, tag, frame),
            (Some(Block::Bytes(bytes)), true) => h.send(to, tag, bytes),
            (last, _) => {
                let all = blocks.into_iter().chain(last).map(Block::into_payload);
                h.send_frame(to, tag, bundle(&h.frames(), &all.collect::<Vec<_>>()))
            }
        }
    }

    /// Files the received `msg` in `held` under this step's blocks, a
    /// bundle split into windows onto it. A bundle whose header disagrees
    /// with its length is [`FabricError::Corrupt`].
    pub fn file(&self, held: &mut Held, msg: Bytes, tag: u64) -> Result<(), FabricError> {
        let parts = match self.keys.len() {
            1 => vec![msg],
            k => unbundle(&msg, k).ok_or(FabricError::Corrupt {
                peer: self.op.src,
                tag,
            })?,
        };
        held.extend(
            self.keys
                .iter()
                .copied()
                .zip(parts.into_iter().map(Block::Bytes)),
        );
        Ok(())
    }
}

/// Packs `blocks`, in the order both ends derive from the plan, into one
/// frame from the rank's pool, laid out as [`Step::send`] describes.
fn bundle(frames: &FramePool, blocks: &[Bytes]) -> FrameBuf {
    let mut frame = frames.checkout(blocks.iter().map(|b| 4 + b.len()).sum());
    let body = frame.body_mut();
    for block in blocks {
        let len = u32::try_from(block.len()).expect("a block under 4 GiB");
        body.extend_from_slice(&len.to_le_bytes());
    }
    for block in blocks {
        body.extend_from_slice(block);
    }
    frame
}

/// Splits a bundle of `k` blocks into windows onto it, copying nothing;
/// `None` when its header and its length disagree.
fn unbundle(msg: &Bytes, k: usize) -> Option<Vec<Bytes>> {
    let header = msg.get(..k.checked_mul(4)?)?;
    let mut at = header.len();
    let mut blocks = Vec::with_capacity(k);
    for len in header.chunks_exact(4) {
        let end = at + u32::from_le_bytes(len.try_into().ok()?) as usize;
        if end > msg.len() {
            return None;
        }
        blocks.push(msg.slice(at..end));
        at = end;
    }
    (at == msg.len()).then_some(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use Ranks::One;

    fn hw() -> HardwareProfile {
        HardwareProfile::paper_testbed()
    }

    fn op(src: Rank, dst: Rank, bytes: u64) -> SrOp {
        SrOp::carrying(
            &Topology::new(2, 2),
            src,
            dst,
            Blocks(One(src), One(dst)),
            bytes,
        )
    }

    #[test]
    fn single_phase_plan_runs_per_rank_sequentially() {
        let topo = Topology::new(1, 2);
        // Rank 0 does two intra pairs on Main: they serialize.
        let plan = A2aPlan::new("test", vec![vec![op(0, 1, 1_000_000); 2]]);
        let trace = plan.simulate(&topo, &hw()).unwrap();
        let one = hw().intra_sr(1_000_000);
        assert!((trace.makespan().as_secs() - 2.0 * one.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn secondary_stream_overlaps_with_main() {
        let topo = Topology::new(2, 2);
        let mk = |stream, dst| SrOp {
            stream,
            ..op(0, dst, 10_000_000)
        };
        let plan = A2aPlan::new(
            "test",
            vec![vec![
                mk(StreamAssignment::Main, 1),
                mk(StreamAssignment::Secondary, 2),
            ]],
        );
        let trace = plan.simulate(&topo, &hw()).unwrap();
        let intra = hw().intra_sr(10_000_000);
        let inter = hw().inter_sr(10_000_000);
        assert!(
            (trace.makespan().as_secs() - intra.max(inter).as_secs()).abs() < 1e-9,
            "streams must overlap"
        );
    }

    #[test]
    fn phase_barrier_serializes_and_costs_sync() {
        let topo = Topology::new(1, 2);
        let op = SrOp {
            exclusive_intra: true,
            ..op(0, 1, 1_000_000)
        };
        let plan = A2aPlan::new("test", vec![vec![op], vec![op]]);
        let trace = plan.simulate(&topo, &hw()).unwrap();
        let one = hw().intra_sr_exclusive(1_000_000);
        let expected = one.as_secs() * 2.0 + hw().phase_sync.as_secs();
        assert!((trace.makespan().as_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn exclusive_intra_rate_is_faster() {
        let topo = Topology::new(1, 2);
        let base = op(0, 1, 100_000_000);
        let shared = base.duration(&topo, &hw());
        let exclusive = SrOp {
            exclusive_intra: true,
            ..base
        }
        .duration(&topo, &hw());
        assert!(exclusive < shared);
    }

    #[test]
    fn block_sets_enumerate_origin_major() {
        let topo = Topology::new(3, 2);
        let rail = Blocks(One(4), Ranks::Rail(1)).list(&topo);
        assert_eq!(rail, vec![(4, 1), (4, 3), (4, 5)]);
        let nodes = Blocks(Ranks::Node(0), Ranks::Node(2));
        assert_eq!(nodes.list(&topo), vec![(0, 4), (0, 5), (1, 4), (1, 5)]);
        assert_eq!(Blocks(Ranks::All, One(3)).count(&topo), 6);
    }

    fn sample_blocks(lens: &[usize]) -> Vec<Bytes> {
        let block = |(i, &len): (usize, &usize)| Bytes::from(vec![i as u8 ^ 0x5A; len]);
        lens.iter().enumerate().map(block).collect()
    }

    fn packed(blocks: &[Bytes]) -> Bytes {
        let frames = FramePool::new(schemoe_cluster::BufPool::default(), true);
        bundle(&frames, blocks).into_payload()
    }

    #[test]
    fn a_bundle_splits_back_into_windows_onto_itself() {
        let blocks = sample_blocks(&[3, 0, 17, 1]);
        let msg = packed(&blocks);
        assert_eq!(msg.len(), 4 * 4 + 21);
        let got = unbundle(&msg, 4).unwrap();
        assert_eq!(got, blocks);
        assert_eq!(got[3].as_ptr(), msg[msg.len() - 1..].as_ptr(), "zero-copy");
        // The block count is the plan's, not the bundle's.
        assert_eq!(unbundle(&msg, 3), None);
        assert_eq!(unbundle(&msg, 5), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile bytes: a truncated, bit-flipped or arbitrary bundle is
        /// refused (the interpreter's `Corrupt`) or split at the same block
        /// boundaries — never a panic, never an allocation the plan did not
        /// size.
        #[test]
        fn hostile_bundles_are_refused_or_split_alike(
            lens in proptest::collection::vec(0usize..40, 2..6),
            cut in 1usize..64,
            flip in 0usize..4096,
            noise in proptest::collection::vec(0u8..=255, 0..96),
            k in 0usize..8,
        ) {
            let blocks = sample_blocks(&lens);
            let msg = packed(&blocks);
            let k0 = blocks.len();
            let truncated = msg.slice(0..msg.len().saturating_sub(cut));
            prop_assert_eq!(unbundle(&truncated, k0), None);
            let mut flipped = msg.to_vec();
            let bit = flip % (8 * flipped.len());
            flipped[bit / 8] ^= 1 << (bit % 8);
            match unbundle(&Bytes::from(flipped), k0) {
                None => prop_assert!(bit < 32 * k0, "a payload flip keeps the header valid"),
                Some(got) => {
                    let same: Vec<usize> = got.iter().map(Bytes::len).collect();
                    prop_assert_eq!(same, lens.clone(), "a flip moved a block boundary");
                }
            }
            if let Some(got) = unbundle(&Bytes::from(noise.clone()), k) {
                prop_assert_eq!(got.len(), k);
                let total: usize = got.iter().map(|b| 4 + b.len()).sum();
                prop_assert_eq!(total, noise.len());
            }
        }
    }
}
