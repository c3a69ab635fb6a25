//! One-to-all and all-to-one collective primitives.
//!
//! The hierarchical A2A algorithms and the data-parallel path are built
//! from broadcast / all-gather / reduce-scatter patterns; this module
//! provides them as first-class collectives with both functional and
//! simulated forms, completing the substrate a distributed training stack
//! needs (parameter broadcast at startup, all-gather for evaluation,
//! reduce-scatter as the first half of the ring all-reduce).

use bytes::Bytes;
use schemoe_cluster::{FabricError, Rank, RankHandle, Topology};
use schemoe_compression::{add_f32_le, Compressor, NoCompression};

use crate::plan::{A2aPlan, SrOp, StreamAssignment};

/// Broadcasts `payload` from `root` to every rank (binomial tree).
///
/// Returns the payload on every rank (including the root). The tree gives
/// `⌈log₂ P⌉` rounds instead of the root's `P−1` serialized sends.
pub fn broadcast(
    handle: &mut RankHandle,
    root: Rank,
    payload: Option<Bytes>,
    tag: u64,
) -> Result<Bytes, FabricError> {
    let p = handle.world_size();
    let me = handle.rank();
    // Work in a rotated space where the root is virtual rank 0. In round
    // j (k = 2^j), every virtual rank v < k that already holds the data
    // sends to v + k; v receives in the round where k is its highest set
    // bit, from v − k (v with that bit cleared).
    let vrank = (me + p - root) % p;
    let data = if vrank == 0 {
        payload.expect("root must supply the payload")
    } else {
        let msb = usize::BITS - 1 - vrank.leading_zeros();
        let parent_v = vrank & !(1usize << msb);
        let parent = (parent_v + root) % p;
        handle.recv(parent, tag)?
    };
    // Forward in the rounds after the one that delivered to us.
    let first_round = if vrank == 0 {
        1usize
    } else {
        1usize << (usize::BITS - vrank.leading_zeros())
    };
    let mut k = first_round;
    while k < p {
        let child_v = vrank + k;
        if child_v < p {
            let child = (child_v + root) % p;
            handle.send(child, tag, data.clone())?;
        }
        k <<= 1;
    }
    Ok(data)
}

/// All-gather: every rank contributes `mine`; returns all contributions in
/// rank order (ring algorithm, `P−1` rounds of neighbour forwarding).
pub fn all_gather(
    handle: &mut RankHandle,
    mine: Bytes,
    tag: u64,
) -> Result<Vec<Bytes>, FabricError> {
    let p = handle.world_size();
    let me = handle.rank();
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    let mut out: Vec<Option<Bytes>> = (0..p).map(|_| None).collect();
    out[me] = Some(mine.clone());
    let mut carry = mine;
    for step in 0..p - 1 {
        handle.send(next, tag + step as u64, carry)?;
        carry = handle.recv(prev, tag + step as u64)?;
        let origin = (me + p - 1 - step) % p;
        out[origin] = Some(carry.clone());
    }
    Ok(out
        .into_iter()
        .map(|o| o.expect("ring delivered all"))
        .collect())
}

/// Reduce-scatter over f32 buffers: after the call, this rank's slice
/// `chunks[rank]` holds the elementwise sum of every rank's `chunks[rank]`.
///
/// `data` is interpreted as `P` contiguous chunks (the last padded chunk
/// may be shorter); returns this rank's reduced chunk.
pub fn reduce_scatter(
    handle: &mut RankHandle,
    data: &[f32],
    tag: u64,
) -> Result<Vec<f32>, FabricError> {
    let p = handle.world_size();
    let me = handle.rank();
    if p == 1 {
        return Ok(data.to_vec());
    }
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    let bounds = chunk_bounds(data.len(), p);
    let mut work = data.to_vec();
    // Ring reduce-scatter: after P−1 steps rank r owns the sum of chunk r.
    for step in 0..p - 1 {
        let send_chunk = (me + p - step) % p;
        let recv_chunk = (me + p - step - 1) % p;
        let (s0, s1) = bounds[send_chunk];
        let chunk = NoCompression.compress(&work[s0..s1]);
        handle.send(next, tag + step as u64, chunk)?;
        let payload = handle.recv(prev, tag + step as u64)?;
        let (r0, r1) = bounds[recv_chunk];
        add_f32_le(&mut work[r0..r1], &payload);
    }
    // My owned chunk is (me + 1) % p after the rotation completes at...
    // After P−1 steps the chunk each rank holds fully reduced is
    // (me + p - (p-1)) % p = (me + 1) % p.
    let owned = (me + 1) % p;
    let (o0, o1) = bounds[owned];
    Ok(work[o0..o1].to_vec())
}

/// `P` contiguous chunk ranges covering `len`.
pub fn chunk_bounds(len: usize, p: usize) -> Vec<(usize, usize)> {
    let base = len / p;
    let rem = len % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let size = base + usize::from(i < rem);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Simulatable plan for a binomial-tree broadcast of `bytes` from rank 0.
pub fn broadcast_plan(topo: &Topology, bytes: u64) -> A2aPlan {
    let p = topo.world_size();
    let mut phases = Vec::new();
    let mut k = 1usize;
    while k < p {
        // Round k: every rank below k already holds the data and forwards.
        let ops: Vec<SrOp> = (0..k)
            .filter(|v| v + k < p)
            .map(|v| SrOp {
                owner: v,
                src: v,
                dst: v + k,
                bytes,
                stream: StreamAssignment::Main,
                exclusive_intra: false,
            })
            .collect();
        if !ops.is_empty() {
            phases.push(ops);
        }
        k <<= 1;
    }
    A2aPlan::new("binomial-broadcast", phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_cluster::{Fabric, HardwareProfile};

    #[test]
    fn broadcast_reaches_every_rank_from_any_root() {
        for (nodes, gpus) in [(1usize, 2usize), (2, 2), (2, 3), (1, 8)] {
            let topo = Topology::new(nodes, gpus);
            for root in [0usize, topo.world_size() - 1] {
                let results = Fabric::run(topo, |mut h| {
                    let payload = (h.rank() == root).then(|| Bytes::from(format!("from-{root}")));
                    broadcast(&mut h, root, payload, 3).unwrap()
                });
                for (r, got) in results.iter().enumerate() {
                    assert_eq!(
                        got.as_ref(),
                        format!("from-{root}").as_bytes(),
                        "rank {r} root {root} on {nodes}x{gpus}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_gather_collects_in_rank_order() {
        let topo = Topology::new(2, 3);
        let results = Fabric::run(topo, |mut h| {
            let mine = Bytes::from(vec![h.rank() as u8; 3]);
            all_gather(&mut h, mine, 0).unwrap()
        });
        for got in &results {
            for (j, payload) in got.iter().enumerate() {
                assert_eq!(payload.as_ref(), &[j as u8; 3]);
            }
        }
    }

    #[test]
    fn reduce_scatter_sums_owned_chunks() {
        let topo = Topology::new(1, 4);
        let len = 11; // uneven chunks exercise the remainder logic
        let results = Fabric::run(topo, |mut h| {
            let data: Vec<f32> = (0..len).map(|i| (h.rank() * 100 + i) as f32).collect();
            reduce_scatter(&mut h, &data, 0).unwrap()
        });
        let bounds = chunk_bounds(len, 4);
        for (me, got) in results.iter().enumerate() {
            let owned = (me + 1) % 4;
            let (o0, o1) = bounds[owned];
            assert_eq!(got.len(), o1 - o0);
            for (i, v) in got.iter().enumerate() {
                let idx = o0 + i;
                let want: f32 = (0..4).map(|r| (r * 100 + idx) as f32).sum();
                assert_eq!(*v, want, "rank {me} owned chunk {owned} idx {idx}");
            }
        }
    }

    #[test]
    fn broadcast_plan_is_logarithmic() {
        let topo = Topology::paper_testbed();
        let plan = broadcast_plan(&topo, 1_000_000);
        // 32 ranks -> 5 rounds.
        assert_eq!(plan.phases().len(), 5);
        let total_ops: usize = plan.phases().iter().map(Vec::len).sum();
        assert_eq!(total_ops, 31, "each non-root rank receives exactly once");
        // And it beats the root's sequential P-1 sends in the simulator.
        let hw = HardwareProfile::paper_testbed();
        let tree = plan.simulate(&topo, &hw).unwrap().makespan();
        let flat: f64 = 31.0 * hw.inter_sr(1_000_000).as_secs();
        assert!(tree.as_secs() < flat);
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for (len, p) in [(11usize, 4usize), (4, 4), (3, 5), (64, 8)] {
            let b = chunk_bounds(len, p);
            assert_eq!(b[0].0, 0);
            assert_eq!(b[p - 1].1, len);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }
}
