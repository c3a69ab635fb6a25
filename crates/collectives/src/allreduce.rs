//! All-reduce collectives for the data-parallel (dense) gradients.
//!
//! MoE models train the non-expert parameters data-parallel, so every
//! step also all-reduces dense gradients (the collective that Lina \[20\]
//! co-schedules with the MoE all-to-alls). Two algorithms are provided:
//! a naive root-gather/broadcast ([`allreduce_live`], which also runs
//! among the survivors of a degraded world) and the bandwidth-optimal ring.

use schemoe_cluster::{FabricError, RankHandle};
use schemoe_compression::{add_f32_le, copy_f32_le, Compressor, NoCompression};

/// A sum all-reduce over `f32` buffers.
pub trait AllReduce: Send + Sync {
    /// Stable algorithm name.
    fn name(&self) -> &'static str;

    /// Sums `data` elementwise across all ranks, in place, blocking.
    fn all_reduce(
        &self,
        handle: &mut RankHandle,
        data: &mut [f32],
        tag_base: u64,
    ) -> Result<(), FabricError>;
}

/// Sums `values` elementwise across all ranks in place (naive allreduce:
/// gather on rank 0, reduce, broadcast).
///
/// Used to keep replicated parameters (the gate) synchronized in
/// data-parallel training.
pub fn allreduce_inplace(
    h: &mut RankHandle,
    values: &mut [f32],
    tag: u64,
) -> Result<(), FabricError> {
    let live = vec![true; h.world_size()];
    allreduce_live(h, values, tag, &live)
}

/// [`allreduce_inplace`] restricted to the ranks marked `true` in `live`:
/// the sum is gathered on the lowest live rank and broadcast back to the
/// survivors only, so a dead rank (which can no longer participate) does
/// not wedge the reduction. The caller must itself be live. Occupies the
/// tags `tag` (gather) and `tag + 1` (broadcast).
///
/// # Panics
///
/// Panics if `live` disagrees with the world size, marks no rank, or marks
/// the caller dead.
pub fn allreduce_live(
    h: &mut RankHandle,
    values: &mut [f32],
    tag: u64,
    live: &[bool],
) -> Result<(), FabricError> {
    let p = h.world_size();
    let me = h.rank();
    assert_eq!(live.len(), p, "live mask must cover the world");
    assert!(live[me], "a dead rank cannot join an allreduce");
    let root = live
        .iter()
        .position(|&l| l)
        .expect("at least one live rank");
    if live.iter().filter(|&&l| l).count() <= 1 {
        return Ok(());
    }
    // Each message is encoded where it leaves from.
    let raw = |h: &RankHandle, values: &[f32]| {
        let mut frame = h.frames().checkout(4 * values.len());
        NoCompression.compress_into(values, frame.body_mut());
        frame
    };
    if me == root {
        for src in 0..p {
            if src == root || !live[src] {
                continue;
            }
            add_f32_le(values, &h.recv(src, tag)?);
        }
        for dst in 0..p {
            if dst != root && live[dst] {
                h.send_frame(dst, tag + 1, raw(h, values))?;
            }
        }
    } else {
        h.send_frame(root, tag, raw(h, values))?;
        copy_f32_le(values, &h.recv(root, tag + 1)?);
    }
    Ok(())
}

/// Root-based all-reduce, [`allreduce_inplace`] behind the trait: gather
/// on rank 0, reduce, broadcast.
///
/// Simple and latency-friendly at small sizes; rank 0's link serializes
/// `2(P−1)` full-size messages, so it scales poorly with `P`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveAllReduce;

impl AllReduce for NaiveAllReduce {
    fn name(&self) -> &'static str {
        "naive-allreduce"
    }

    fn all_reduce(
        &self,
        handle: &mut RankHandle,
        data: &mut [f32],
        tag_base: u64,
    ) -> Result<(), FabricError> {
        allreduce_inplace(handle, data, tag_base)
    }
}

/// Ring all-reduce: reduce-scatter then all-gather, `2(P−1)` steps of
/// `1/P`-size messages — the bandwidth-optimal classic.
#[derive(Clone, Copy, Debug, Default)]
pub struct RingAllReduce;

impl RingAllReduce {
    /// Chunk boundaries: `P` contiguous ranges covering `len`.
    fn bounds(len: usize, p: usize) -> Vec<(usize, usize)> {
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
}

impl AllReduce for RingAllReduce {
    fn name(&self) -> &'static str {
        "ring-allreduce"
    }

    fn all_reduce(
        &self,
        handle: &mut RankHandle,
        data: &mut [f32],
        tag_base: u64,
    ) -> Result<(), FabricError> {
        let p = handle.world_size();
        if p == 1 {
            return Ok(());
        }
        let me = handle.rank();
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let bounds = Self::bounds(data.len(), p);

        // Reduce-scatter: after P−1 steps, rank r owns the full sum of
        // chunk (r+1) mod p.
        for step in 0..p - 1 {
            let send_chunk = (me + p - step) % p;
            let recv_chunk = (me + p - step - 1) % p;
            let (s0, s1) = bounds[send_chunk];
            let chunk = NoCompression.compress(&data[s0..s1]);
            handle.send(next, tag_base + step as u64, chunk)?;
            let payload = handle.recv(prev, tag_base + step as u64)?;
            let (r0, r1) = bounds[recv_chunk];
            add_f32_le(&mut data[r0..r1], &payload);
        }
        // All-gather: circulate the finished chunks.
        for step in 0..p - 1 {
            let send_chunk = (me + 1 + p - step) % p;
            let recv_chunk = (me + p - step) % p;
            let (s0, s1) = bounds[send_chunk];
            let chunk = NoCompression.compress(&data[s0..s1]);
            handle.send(next, tag_base + (p + step) as u64, chunk)?;
            let payload = handle.recv(prev, tag_base + (p + step) as u64)?;
            let (r0, r1) = bounds[recv_chunk];
            copy_f32_le(&mut data[r0..r1], &payload);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_cluster::{Fabric, Topology};

    fn run_allreduce(alg: &dyn AllReduce, topo: Topology, len: usize) -> Vec<Vec<f32>> {
        Fabric::run(topo, |mut h| {
            let me = h.rank();
            // Distinct, recomputable values per (rank, index).
            let mut v: Vec<f32> = (0..len).map(|i| (me * 1000 + i) as f32 * 0.25).collect();
            alg.all_reduce(&mut h, &mut v, 0).unwrap();
            v
        })
    }

    fn expected(p: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (0..p).map(|r| (r * 1000 + i) as f32 * 0.25).sum())
            .collect()
    }

    #[test]
    fn naive_allreduce_sums_correctly() {
        let topo = Topology::new(2, 2);
        let results = run_allreduce(&NaiveAllReduce, topo, 10);
        let want = expected(4, 10);
        for (r, got) in results.iter().enumerate() {
            assert_eq!(got, &want, "rank {r}");
        }
    }

    /// The trait object and the free function are one protocol: on 1, 2
    /// and 5 ranks both produce, bit for bit, the sum accumulated on the
    /// root in ascending rank order.
    #[test]
    fn naive_allreduce_and_allreduce_inplace_agree_bit_for_bit() {
        let input = |rank: usize, len: usize| -> Vec<f32> {
            (0..len).map(|i| (rank * 37 + i) as f32 * 0.1).collect()
        };
        for p in [1usize, 2, 5] {
            let len = 9;
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut want = input(0, len);
            for rank in 1..p {
                for (w, x) in want.iter_mut().zip(input(rank, len)) {
                    *w += x;
                }
            }
            let results = Fabric::run(Topology::new(1, p), |mut h| {
                let mut by_trait = input(h.rank(), len);
                NaiveAllReduce.all_reduce(&mut h, &mut by_trait, 0).unwrap();
                let mut by_fn = input(h.rank(), len);
                allreduce_inplace(&mut h, &mut by_fn, 2).unwrap();
                (by_trait, by_fn)
            });
            for (rank, (by_trait, by_fn)) in results.iter().enumerate() {
                assert_eq!(bits(by_trait), bits(&want), "p={p} rank {rank}");
                assert_eq!(bits(by_fn), bits(&want), "p={p} rank {rank}");
            }
        }
    }

    #[test]
    fn ring_allreduce_sums_correctly() {
        for (nodes, gpus, len) in [(2usize, 2usize, 16usize), (3, 2, 7), (1, 5, 23), (1, 1, 4)] {
            let topo = Topology::new(nodes, gpus);
            let p = topo.world_size();
            let results = run_allreduce(&RingAllReduce, topo, len);
            let want = expected(p, len);
            for (r, got) in results.iter().enumerate() {
                for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    assert!(
                        (g - w).abs() < 1e-3,
                        "{nodes}x{gpus} len {len} rank {r} idx {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_handles_len_smaller_than_world() {
        // Chunks of size zero must not break the ring.
        let topo = Topology::new(1, 4);
        let results = run_allreduce(&RingAllReduce, topo, 2);
        let want = expected(4, 2);
        for got in results {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn bounds_partition_exactly() {
        for (len, p) in [(10usize, 3usize), (4, 4), (2, 5), (100, 7)] {
            let b = RingAllReduce::bounds(len, p);
            assert_eq!(b.len(), p);
            assert_eq!(b[0].0, 0);
            assert_eq!(b[p - 1].1, len);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }
}
