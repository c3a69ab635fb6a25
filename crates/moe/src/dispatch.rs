//! The per-step routing table and the one chunk format every dispatch,
//! combine and gradient message uses.
//!
//! A [`Routing`] says, for every global expert, which ranks serve it this
//! step. Each rank's *served list* (the ascending global expert ids it
//! serves) is the layout of every chunk sent to or from that rank: a count
//! per served expert, then the rows of all of them.

use schemoe_cluster::{FabricError, FrameBuf, FramePool, Pool};
use schemoe_compression::Compressor;
use schemoe_tensor::Tensor;

/// Who serves which expert during one step.
pub(crate) struct Routing {
    /// Per global expert: its serving ranks in replica order; slot `s` of
    /// the expert goes to `servers[s % g]`. Empty when the expert is masked
    /// out of the gate (dead owner, no failover host).
    pub servers: Vec<Vec<usize>>,
    /// Per rank: the ascending global expert ids it serves.
    pub served: Vec<Vec<usize>>,
    /// Per rank: whether it takes part in this step's exchanges.
    pub live: Vec<bool>,
}

impl Routing {
    /// Builds the table from each expert's serving ranks.
    pub fn new(servers: Vec<Vec<usize>>, live: Vec<bool>) -> Self {
        let mut served = vec![Vec::new(); live.len()];
        for (e, ranks) in servers.iter().enumerate() {
            for &rank in ranks {
                served[rank].push(e);
            }
        }
        Routing {
            servers,
            served,
            live,
        }
    }

    /// The ranks live rank `me` sends dispatched rows to (those serving
    /// anything) and receives them from (every live rank, if `me` serves
    /// anything), ascending.
    pub fn peers(&self, me: usize) -> (Vec<usize>, Vec<usize>) {
        let ranks = || 0..self.live.len();
        let to = ranks().filter(|&d| self.dispatches(me, d)).collect();
        (to, ranks().filter(|&o| self.dispatches(o, me)).collect())
    }

    /// Whether a step at degree `r` has nothing to overlap — one chunk, or
    /// no live peer — and so runs its graph on the calling thread.
    pub fn runs_inline(&self, r: usize) -> bool {
        r == 1 || self.live.iter().filter(|&&l| l).count() < 2
    }

    /// Whether a dispatch-direction leg carries block `(o, d)`: rank `o` is
    /// live and rank `d` serves something. A combine-direction leg carries
    /// `(o, d)` exactly when a dispatch leg carries `(d, o)`.
    pub fn dispatches(&self, o: usize, d: usize) -> bool {
        self.live[o] && !self.served[d].is_empty()
    }

    /// Position of expert `e` in `rank`'s served list.
    pub fn index_in(&self, rank: usize, e: usize) -> usize {
        self.served[rank]
            .binary_search(&e)
            .expect("rank serves the expert")
    }

    /// The slot indices, out of an expert's `len` admitted slots, that
    /// travel to `rank` in chunk `c` of `r`: `rank` holds position `i` of
    /// the expert's `g` servers, so its share is slots `i, i + g, …`, and
    /// chunk `c` is the `c`-th of `r` contiguous segments of that share.
    /// Concatenating the chunks in order restores the share; interleaving
    /// the shares restores slot order.
    pub fn segment(
        &self,
        e: usize,
        rank: usize,
        len: usize,
        c: usize,
        r: usize,
    ) -> impl ExactSizeIterator<Item = usize> {
        let ranks = &self.servers[e];
        let g = ranks.len();
        let i = ranks
            .iter()
            .position(|&s| s == rank)
            .expect("rank serves the expert");
        let share = if len > i { (len - i - 1) / g + 1 } else { 0 };
        (c * share / r..(c + 1) * share / r).map(move |q| i + q * g)
    }
}

/// A layer's recycled `f32` blocks: decode targets, an expert's gathered
/// input, its output and what it saves for the backward, the input grads.
/// No encode stages through it: every leg encodes its rows from where they
/// live ([`encode_into`]). Contents of a block fresh out of
/// [`take`](Pool::take) are stale; every user overwrites what it reads.
pub(crate) type Workspace = Pool<f32>;

/// A `[rows, m]` tensor over a block of `ws`, contents stale.
pub(crate) fn block(ws: &Workspace, rows: usize, m: usize) -> Tensor {
    Tensor::from_vec(ws.take(rows * m), &[rows, m]).expect("the block was taken at this size")
}

/// The row ranges `parts`, one after another, as a tensor over a block of
/// `ws`.
pub(crate) fn gather_block<'p>(
    ws: &Workspace,
    m: usize,
    parts: impl Iterator<Item = &'p [f32]> + Clone,
) -> Tensor {
    let mut rows = block(ws, parts.clone().map(<[f32]>::len).sum::<usize>() / m, m);
    let mut filled = 0;
    for part in parts {
        rows.data_mut()[filled..filled + part.len()].copy_from_slice(part);
        filled += part.len();
    }
    rows
}

/// Serializes the rows bound for one rank straight into a frame: a
/// little-endian `u32` row count per served expert, then the codec's
/// encoding of all rows concatenated. The `k`-th served expert has the
/// `k`-th of `counts` rows of width `m`, and `rows` yields their values in
/// that order as slices of wherever they live; the codec encodes each one
/// straight into the frame body, where the bytes leave from.
pub(crate) fn encode_into<'r>(
    compressor: &dyn Compressor,
    frames: &FramePool,
    m: usize,
    counts: impl Iterator<Item = usize> + Clone,
    mut rows: impl Iterator<Item = &'r [f32]>,
) -> FrameBuf {
    let n = counts.clone().sum::<usize>() * m;
    let mut buf = chunk_frame(frames, counts, compressor.compressed_len(n));
    compressor.compress_rows_into(&mut rows, n, buf.body_mut());
    buf
}

/// A frame holding a chunk's header — the `counts` — with room for a
/// `payload`-byte encoding after it.
pub(crate) fn chunk_frame(
    frames: &FramePool,
    counts: impl Iterator<Item = usize> + Clone,
    payload: usize,
) -> FrameBuf {
    let mut buf = frames.checkout(4 * counts.clone().count() + payload);
    for count in counts {
        buf.body_mut()
            .extend_from_slice(&(count as u32).to_le_bytes());
    }
    buf
}

/// A decoded chunk: every row in one block of the workspace, expert-major.
pub(crate) struct Rows {
    data: Vec<f32>,
    /// Rows `offs[k]..offs[k + 1]` are the `k`-th served expert's.
    offs: Vec<usize>,
    m: usize,
}

impl Rows {
    /// The chunk a rank that sent nothing would have sent.
    pub fn empty(experts: usize, m: usize) -> Self {
        Rows {
            data: Vec::new(),
            offs: vec![0; experts + 1],
            m,
        }
    }

    /// Row count over all experts.
    pub fn total(&self) -> usize {
        self.offs[self.offs.len() - 1]
    }

    /// Row count of the `k`-th served expert.
    pub fn count(&self, k: usize) -> usize {
        self.offs[k + 1] - self.offs[k]
    }

    /// The `k`-th served expert's rows, flat.
    pub fn expert(&self, k: usize) -> &[f32] {
        &self.data[self.offs[k] * self.m..self.offs[k + 1] * self.m]
    }

    /// Sends the block home.
    pub fn recycle(self, ws: &Workspace) {
        ws.put(self.data);
    }
}

/// Decodes a chunk received from `peer` under `tag` into one block of
/// `ws`. The bytes came off the wire, so anything inconsistent — a short
/// header, counts the payload cannot hold, a codec error — is
/// [`FabricError::Corrupt`], never a panic or a partial result.
pub(crate) fn decode_chunk_into(
    compressor: &dyn Compressor,
    ws: &Workspace,
    chunk: &[u8],
    (experts, m): (usize, usize),
    (peer, tag): (usize, u64),
) -> Result<Rows, FabricError> {
    let corrupt = FabricError::Corrupt { peer, tag };
    let Some((header, payload)) = experts
        .checked_mul(4)
        .and_then(|n| chunk.split_at_checked(n))
    else {
        return Err(corrupt);
    };
    let (mut total, mut offs) = (Some(0usize), vec![0usize]);
    for b in header.chunks_exact(4) {
        let count = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        total = total.and_then(|sum| sum.checked_add(count));
        offs.push(total.unwrap_or(0));
    }
    // Every codec spends at least a bit per value; bounding the element
    // count by the payload keeps a hostile header from sizing anything.
    let Some(elems) = total
        .and_then(|rows| rows.checked_mul(m))
        .filter(|&elems| elems <= payload.len().saturating_mul(8))
        .filter(|&elems| compressor.compressed_len(elems) == payload.len())
    else {
        return Err(corrupt);
    };
    let mut data = ws.take(elems);
    if compressor.decompress_into(payload, &mut data).is_err() {
        ws.put(data);
        return Err(corrupt);
    }
    Ok(Rows { data, offs, m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use schemoe_cluster::BufPool;
    use schemoe_compression::{Fp16Compressor, Int8Compressor, NoCompression, ZfpCompressor};

    const M: usize = 3;

    /// The allocating encoder the into-form replaced, kept as its oracle.
    fn encode_chunk(compressor: &dyn Compressor, per_expert_rows: &[Tensor]) -> Bytes {
        let elems = per_expert_rows.iter().map(Tensor::numel).sum();
        let mut flat: Vec<f32> = Vec::with_capacity(elems);
        let header_len = 4 * per_expert_rows.len();
        let mut chunk = Vec::with_capacity(header_len + compressor.compressed_len(elems));
        for rows in per_expert_rows {
            chunk.extend_from_slice(&(rows.dims()[0] as u32).to_le_bytes());
            flat.extend_from_slice(rows.data());
        }
        compressor.compress_into(&flat, &mut chunk);
        Bytes::from(chunk)
    }

    /// The allocating decoder the into-form replaced, kept as its oracle.
    fn decode_chunk(
        compressor: &dyn Compressor,
        chunk: &[u8],
        experts: usize,
        m: usize,
        peer: usize,
        tag: u64,
    ) -> Result<Vec<Tensor>, FabricError> {
        let corrupt = FabricError::Corrupt { peer, tag };
        let Some((header, payload)) = experts
            .checked_mul(4)
            .and_then(|n| chunk.split_at_checked(n))
        else {
            return Err(corrupt);
        };
        let counts: Vec<usize> = header
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
            .collect();
        let Some(elems) = counts
            .iter()
            .try_fold(0usize, |sum, &c| sum.checked_add(c))
            .and_then(|total| total.checked_mul(m))
            .filter(|&elems| elems <= payload.len().saturating_mul(8))
        else {
            return Err(corrupt);
        };
        let Ok(flat) = compressor.decompress(payload, elems) else {
            return Err(corrupt);
        };
        let mut off = 0usize;
        Ok(counts
            .iter()
            .map(|&c| {
                let rows = Tensor::from_vec(flat[off * m..(off + c) * m].to_vec(), &[c, m])
                    .expect("counts sum to the decoded length");
                off += c;
                rows
            })
            .collect())
    }

    /// A workspace whose shelf holds one poisoned block, so a decode that
    /// left an element unwritten would read a NaN.
    fn stale_workspace() -> Workspace {
        let ws = Workspace::default();
        let mut poisoned = ws.take(1 << 12);
        poisoned.fill(f32::NAN);
        ws.put(poisoned);
        ws
    }

    /// The into-form encoder over row blocks, fed one row at a time as
    /// the layer's dispatch feeds it, as a payload.
    fn encode_frame(compressor: &dyn Compressor, blocks: &[Tensor]) -> Bytes {
        let frames = FramePool::new(BufPool::default());
        let counts = blocks.iter().map(|b| b.dims()[0]);
        let rows = blocks.iter().flat_map(|b| b.data().chunks_exact(M));
        encode_into(compressor, &frames, M, counts, rows).into_payload()
    }

    /// The into-form decoder, its rows copied out as one tensor per expert.
    fn decode_into(
        compressor: &dyn Compressor,
        bytes: &[u8],
        experts: usize,
    ) -> Result<Vec<Tensor>, FabricError> {
        let ws = stale_workspace();
        let decoded = decode_chunk_into(compressor, &ws, bytes, (experts, M), (3, 9));
        // A refusal leaves nothing checked out, whatever it touched.
        assert!(decoded.is_ok() || ws.usage().0 == 0);
        decoded.map(|rows| {
            let tensor = |k| Tensor::from_vec(rows.expert(k).to_vec(), &[rows.count(k), M]);
            (0..experts).map(|k| tensor(k).unwrap()).collect()
        })
    }

    fn codec(idx: usize) -> Box<dyn Compressor> {
        match idx {
            0 => Box::new(NoCompression),
            1 => Box::new(Fp16Compressor),
            2 => Box::new(Int8Compressor),
            _ => Box::new(ZfpCompressor::new(8)),
        }
    }

    /// One row block per entry of `counts`, filled with small exact values.
    fn blocks(counts: &[usize]) -> Vec<Tensor> {
        let block = |&c: &usize| {
            let data = (0..c * M).map(|i| (i % 7) as f32 * 0.5).collect();
            Tensor::from_vec(data, &[c, M]).unwrap()
        };
        counts.iter().map(block).collect()
    }

    fn is_corrupt(result: &Result<Vec<Tensor>, FabricError>) -> bool {
        matches!(result, Err(FabricError::Corrupt { peer: 3, tag: 9 }))
    }

    /// Equal outcomes: both `Corrupt`, or the same rows bit for bit.
    fn same(a: &Result<Vec<Tensor>, FabricError>, b: &Result<Vec<Tensor>, FabricError>) -> bool {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(a, b)| a.dims() == b.dims() && bits(a) == bits(b))
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    #[test]
    fn gradient_chunks_keep_their_length_and_round_trip_exactly() {
        // Gradients ride the same framing under `NoCompression`: a count
        // per expert and four bytes per value, as the raw framing had.
        let rows = blocks(&[2, 0, 5]);
        let chunk = encode_frame(&NoCompression, &rows);
        assert_eq!(chunk.len(), 4 * rows.len() + 4 * (2 + 5) * M);
        let back = decode_into(&NoCompression, &chunk, rows.len()).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn an_absent_chunk_reads_as_zero_rows_per_expert() {
        let rows = Rows::empty(3, M);
        assert!((0..3).all(|k| rows.count(k) == 0 && rows.expert(k).is_empty()));
    }

    #[test]
    fn segments_partition_an_experts_slots_in_order() {
        // Servers [2, 0, 1] of expert 0: chunks concatenate to each share,
        // shares interleave back to slot order, at any degree.
        let routing = Routing::new(vec![vec![2, 0, 1]], vec![true; 3]);
        for len in 0..12 {
            for r in 1..5 {
                let mut seen = vec![usize::MAX; len];
                for (i, &rank) in routing.servers[0].iter().enumerate() {
                    let share: Vec<usize> = (0..r)
                        .flat_map(|c| routing.segment(0, rank, len, c, r))
                        .collect();
                    let want: Vec<usize> = (i..len).step_by(3).collect();
                    assert_eq!(share, want, "len {len} r {r} server {rank}");
                    share.iter().for_each(|&s| seen[s] = rank);
                }
                assert!(seen.iter().all(|&rank| rank != usize::MAX));
            }
        }
    }

    /// `Corrupt`, or exactly the row blocks the bytes' own header announces.
    fn rejected_or_whole(
        bytes: &[u8],
        experts: usize,
        result: &Result<Vec<Tensor>, FabricError>,
    ) -> bool {
        let Ok(rows) = result else {
            return is_corrupt(result);
        };
        let announced = bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        rows.len() == experts
            && rows
                .iter()
                .zip(announced)
                .all(|(block, count)| block.dims() == [count as usize, M])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bytes off the wire never panic the decoder and never yield a
        /// half-filled result. A truncated chunk is `Corrupt`; so is one
        /// with a header bit flipped, unless the codec is block-granular
        /// (zfp cannot see a count change inside its last block) and the
        /// result is then whole under the flipped header; arbitrary bytes
        /// are `Corrupt` or whole under their own header.
        #[test]
        fn hostile_chunks_are_rejected_not_trusted(
            codec_idx in 0usize..4,
            counts in proptest::collection::vec(0usize..6, 1..4),
            cut in 1usize..64,
            flip in 0usize..4096,
            noise in proptest::collection::vec(0u8..=255, 0..48),
        ) {
            let codec = codec(codec_idx);
            let experts = counts.len();
            let chunk = encode_frame(codec.as_ref(), &blocks(&counts));
            let decode = |bytes: &[u8]| decode_into(codec.as_ref(), bytes, experts);
            prop_assert!(decode(&chunk).is_ok());

            let truncated = &chunk[..chunk.len() - cut.min(chunk.len())];
            prop_assert!(is_corrupt(&decode(truncated)), "truncated by {}", cut);

            let mut flipped = chunk.to_vec();
            let bit = flip % (32 * experts);
            flipped[bit / 8] ^= 1 << (bit % 8);
            let result = decode(&flipped);
            prop_assert!(
                if codec_idx < 3 { is_corrupt(&result) } else { rejected_or_whole(&flipped, experts, &result) },
                "header bit {} flipped", bit
            );

            prop_assert!(rejected_or_whole(&noise, experts, &decode(&noise)));
        }

        /// The into-forms are the allocating forms they replaced: the same
        /// bytes out of the encoder, and out of the decoder the same rows
        /// bit for bit — or the same refusal — for clean, truncated,
        /// bit-flipped and arbitrary bytes, over every codec, zero-row
        /// experts included, decoding into a block that still holds someone
        /// else's values.
        #[test]
        fn the_into_forms_equal_the_allocating_oracles(
            codec_idx in 0usize..4,
            counts in proptest::collection::vec(0usize..6, 1..4),
            values in proptest::collection::vec(-4.0f32..4.0, 15 * M),
            cut in 1usize..64,
            flip in 0usize..1 << 16,
            noise in proptest::collection::vec(0u8..=255, 0..48),
        ) {
            let codec = codec(codec_idx);
            let experts = counts.len();
            let mut values = values.into_iter();
            let rows: Vec<Tensor> = counts
                .iter()
                .map(|&c| Tensor::from_vec(values.by_ref().take(c * M).collect(), &[c, M]).unwrap())
                .collect();
            let oracle = encode_chunk(codec.as_ref(), &rows);
            let chunk = encode_frame(codec.as_ref(), &rows);
            prop_assert_eq!(&chunk[..], &oracle[..]);

            let agree = |bytes: &[u8]| same(
                &decode_into(codec.as_ref(), bytes, experts),
                &decode_chunk(codec.as_ref(), bytes, experts, M, 3, 9),
            );
            prop_assert!(decode_into(codec.as_ref(), &chunk, experts).is_ok());
            prop_assert!(agree(&chunk));
            prop_assert!(agree(&chunk[..chunk.len() - cut.min(chunk.len())]), "cut {}", cut);
            let mut flipped = chunk.to_vec();
            let bit = flip % (8 * flipped.len());
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(agree(&flipped), "bit {} flipped", bit);
            prop_assert!(agree(&noise));
        }
    }
}
