//! The plans, checked as data.
//!
//! For every algorithm on every (nodes, gpus-per-node) shape of at most 8
//! ranks, a symbolic run moves block labels instead of bytes and holds the
//! plan to the rules the interpreter (`A2aPlan::execute`) relies on:
//!
//! * an op sends only blocks its source held when the phase began — so
//!   every send of a phase can be issued before any receive of it, which
//!   is why the interpreter's send-then-receive rule cannot deadlock;
//! * at most one op per (phase, src, dst), so a phase's tag names a
//!   message unambiguously;
//! * every block reaches its destination exactly once, and at the end each
//!   rank holds exactly the blocks addressed to it;
//! * an op's `bytes` are its blocks times the per-pair bytes;
//! * a plan has at most `MAX_PLAN_PHASES` phases, and every tag
//!   `tag_base + phase` stays inside the lane `tag_base` opens;
//! * a rank's own block `(r, r)` travels only under 1DH, and there only a
//!   non-leader's, out to its leader and back.

use std::collections::{HashMap, HashSet};

use schemoe_cluster::Topology;
use schemoe_collectives::lanes::{lane_name, LANE_BWD_RETURN, LANE_COMBINE};
use schemoe_collectives::{
    AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, TwoDimHierA2A, MAX_PLAN_PHASES, TAG_STRIDE,
};

const PER_PAIR: u64 = 1_000;

fn algorithms() -> Vec<Box<dyn AllToAll>> {
    vec![
        Box::new(NcclA2A),
        Box::new(PipeA2A::new()),
        Box::new(OneDimHierA2A),
        Box::new(TwoDimHierA2A),
    ]
}

/// Every shape with at most 8 ranks.
fn shapes() -> impl Iterator<Item = Topology> {
    (1..=8).flat_map(|n| (1..=8 / n).map(move |g| Topology::new(n, g)))
}

#[test]
fn every_plan_delivers_each_block_once_from_blocks_its_senders_hold() {
    for topo in shapes() {
        let p = topo.world_size();
        for alg in algorithms() {
            let plan = alg.plan(&topo, PER_PAIR * p as u64);
            let ctx = format!(
                "{} on {}x{}",
                alg.name(),
                topo.nodes(),
                topo.gpus_per_node()
            );
            // Where each block is: rank o starts with the blocks (o, _).
            let mut at: HashMap<(usize, usize), usize> = (0..p)
                .flat_map(|o| (0..p).map(move |d| ((o, d), o)))
                .collect();
            let mut arrivals: HashMap<(usize, usize), usize> = HashMap::new();
            for (phase, ops) in plan.phases().iter().enumerate() {
                let start = at.clone();
                let mut pairs = HashSet::new();
                for op in ops {
                    let (src, dst) = (op.src, op.dst);
                    let here = format!("{ctx}, phase {phase}, {src}->{dst}");
                    assert!(pairs.insert((src, dst)), "{here}: a second op");
                    let blocks = op.blocks.list(&topo);
                    assert_eq!(op.bytes, blocks.len() as u64 * PER_PAIR, "{here}: bytes");
                    for block in blocks {
                        assert_eq!(start[&block], src, "{here}: {block:?} not held at start");
                        assert_eq!(at[&block], src, "{here}: {block:?} already sent");
                        at.insert(block, dst);
                        if src != dst && dst == block.1 {
                            *arrivals.entry(block).or_default() += 1;
                        }
                    }
                }
            }
            for o in 0..p {
                for d in 0..p {
                    let times = arrivals.get(&(o, d)).copied().unwrap_or(0);
                    let once = if o == d { times <= 1 } else { times == 1 };
                    assert!(once, "{ctx}: block ({o}, {d}) arrived {times} times");
                }
            }
            for r in 0..p {
                let held: HashSet<_> = at
                    .iter()
                    .filter(|&(_, &h)| h == r)
                    .map(|(&b, _)| b)
                    .collect();
                let want: HashSet<_> = (0..p).map(|s| (s, r)).collect();
                assert_eq!(held, want, "{ctx}: rank {r}'s final blocks");
            }
            let phases = plan.phases().len();
            assert!(
                phases <= MAX_PLAN_PHASES,
                "{ctx}: {phases} phases overflow a chunk's tags"
            );
            let last = phases as u64 - 1;
            for base in [0, LANE_COMBINE, 3 * TAG_STRIDE + LANE_BWD_RETURN] {
                assert_eq!(
                    lane_name(base + last),
                    lane_name(base),
                    "{ctx}: tags leave the lane"
                );
                assert_eq!(
                    (base + last) / TAG_STRIDE,
                    base / TAG_STRIDE,
                    "{ctx}: window"
                );
            }
        }
    }
}

/// A rank's own block `(r, r)` stays home under every algorithm but 1DH,
/// whose gather ships a non-leader's whole payload, its own block
/// included, to the node leader (phase 0) and whose scatter brings that
/// block back (phase 2). Counted on the sending side of every rank's
/// [`A2aPlan::steps`](schemoe_collectives::A2aPlan::steps).
#[test]
fn only_1dh_carries_own_blocks_and_then_each_non_leaders_twice() {
    for topo in shapes() {
        let p = topo.world_size();
        for alg in algorithms() {
            let plan = alg.plan(&topo, PER_PAIR * p as u64);
            let mut carried: HashMap<usize, Vec<usize>> = HashMap::new();
            for me in 0..p {
                let steps = plan.steps(&topo, me, |_, _| true);
                for step in steps.iter().filter(|step| step.op.src == me) {
                    for &(o, _) in step.keys.iter().filter(|&&(o, d)| o == d) {
                        carried.entry(o).or_default().push(step.phase);
                    }
                }
            }
            let ctx = format!(
                "{} on {}x{}",
                alg.name(),
                topo.nodes(),
                topo.gpus_per_node()
            );
            for r in 0..p {
                let mut phases = carried.remove(&r).unwrap_or_default();
                phases.sort_unstable();
                let leader = topo.rank_of(topo.node_of(r), 0) == r;
                let want = match alg.name() == OneDimHierA2A.name() && !leader {
                    true => vec![0, 2],
                    false => vec![],
                };
                assert_eq!(phases, want, "{ctx}: phases carrying ({r}, {r})");
            }
        }
    }
}
