//! Executed as planned, exactly: over one exchange on the channel
//! transport, each rank's fabric counters equal its plan's non-self ops —
//! one message per op, carrying the op's blocks plus, for a bundle of `k`
//! blocks, its `4k`-byte length header.
//!
//! The `obs` counters are per rank and process-wide, so this binary holds
//! a single test.

use bytes::Bytes;
use schemoe_cluster::{Fabric, Topology, TransportKind};
use schemoe_collectives::{AllToAll, NcclA2A, OneDimHierA2A, PipeA2A, SrOp, TwoDimHierA2A};
use schemoe_obs as obs;

const PER_PAIR: usize = 24;

#[test]
fn each_rank_sends_exactly_what_its_plan_charges() {
    obs::enable();
    let algs: [Box<dyn AllToAll>; 4] = [
        Box::new(NcclA2A),
        Box::new(PipeA2A::new()),
        Box::new(OneDimHierA2A),
        Box::new(TwoDimHierA2A),
    ];
    let mut sent_at_2x2 = Vec::new();
    for (nodes, gpus) in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4)] {
        let topo = Topology::new(nodes, gpus);
        let p = topo.world_size();
        for alg in &algs {
            let sent = Fabric::run_on(TransportKind::Channel, topo, |mut h| {
                let me = h.rank();
                let block = |src: usize, dst: usize| vec![(src * p + dst) as u8; PER_PAIR];
                let chunks = (0..p).map(|j| Bytes::from(block(me, j))).collect();
                let counters = obs::counters_for_rank(me);
                let before = counters.snapshot();
                let got = alg.all_to_all(&mut h, chunks, 0).expect("healthy exchange");
                let after = counters.snapshot();
                for (j, payload) in got.iter().enumerate() {
                    assert_eq!(payload[..], block(j, me)[..], "rank {me} slot {j}");
                }
                let msgs = after.msgs_sent - before.msgs_sent;
                (msgs, after.bytes_sent - before.bytes_sent)
            });
            if (nodes, gpus) == (2, 2) {
                sent_at_2x2.push(sent.iter().map(|&(msgs, _)| msgs).sum::<u64>());
            }
            let plan = alg.plan(&topo, (PER_PAIR * p) as u64);
            let header = |op: &SrOp| match op.blocks.count(&topo) as u64 {
                1 => 0,
                k => 4 * k,
            };
            for (me, counted) in sent.into_iter().enumerate() {
                let ops = plan.phases().iter().flatten();
                let mine: Vec<&SrOp> = ops.filter(|op| op.src == me && op.dst != me).collect();
                let bytes = mine.iter().map(|op| op.bytes + header(op)).sum();
                let ctx = format!("{} on {nodes}x{gpus}, rank {me}", alg.name());
                assert_eq!(counted, (mine.len() as u64, bytes), "{ctx}: (msgs, bytes)");
            }
        }
    }
    // At 2 × 2, the topology of `perf`'s `collectives.*.a2a_ms` rows, the
    // hierarchical algorithms bundle: 1DH sends 6 messages, not P per hop
    // (24); 2DH 8, not 16.
    assert_eq!(sent_at_2x2, [12, 12, 6, 8], "nccl, pipe, 1dh, 2dh");
}
