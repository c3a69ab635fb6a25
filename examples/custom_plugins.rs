//! Extending ScheMoE with a custom compressor and A2A algorithm.
//!
//! ```bash
//! cargo run --release --example custom_plugins
//! ```
//!
//! The Rust analogue of the paper's Listing 1–2: implement the
//! `Compressor` and `AllToAll` traits and hand the values to a real MoE
//! layer and to the simulator — without touching any training logic.

use schemoe::prelude::*;
use schemoe_collectives::plan::A2aPlan;
use schemoe_compression::CompressionError;
use schemoe_moe::FfExpert;
use schemoe_tensor::rng::{self, seeded};

/// A user codec: keep only the sign and a shared 4-bit log-magnitude —
/// 1 byte per 2 values, 8× compression. Deliberately aggressive, to show
/// the convergence cost of going too far.
#[derive(Clone, Copy, Debug)]
struct SignLog4;

impl Compressor for SignLog4 {
    fn name(&self) -> &'static str {
        "sign-log4"
    }

    fn compress_into(&self, data: &[f32], out: &mut Vec<u8>) {
        let nibble = |v: f32| {
            let sign = if v < 0.0 { 8u8 } else { 0 };
            // 3-bit magnitude bucket: 2^-4 .. 2^2.
            let mag = if v == 0.0 {
                0
            } else {
                (v.abs().log2().clamp(-4.0, 2.0) + 5.0) as u8
            };
            sign | mag.min(7)
        };
        out.extend(data.chunks(2).map(|pair| {
            let high = pair.get(1).map_or(0, |&v| nibble(v) << 4);
            nibble(pair[0]) | high
        }));
    }

    fn decompress_into(&self, payload: &[u8], out: &mut [f32]) -> Result<(), CompressionError> {
        if payload.len() != self.compressed_len(out.len()) {
            return Err(CompressionError::CorruptPayload {
                codec: "sign-log4",
                expected: self.compressed_len(out.len()),
                actual: payload.len(),
            });
        }
        for (i, o) in out.iter_mut().enumerate() {
            let nib = (payload[i / 2] >> ((i % 2) * 4)) & 0xf;
            let sign = if nib & 8 != 0 { -1.0f32 } else { 1.0 };
            let mag = nib & 7;
            let v = if mag == 0 {
                0.0
            } else {
                (mag as f32 - 5.0).exp2()
            };
            *o = sign * v;
        }
        Ok(())
    }

    fn compressed_len(&self, n_elems: usize) -> usize {
        n_elems.div_ceil(2)
    }

    fn is_lossless(&self) -> bool {
        false
    }
}

/// A user A2A: Pipe-A2A with an extra-long stream-join budget, as a stand-
/// in for "my cluster needs different tuning". An algorithm is its plan:
/// the simulator times it, and a distributed layer runs it in every chunk.
#[derive(Clone, Copy, Debug)]
struct CautiousPipe;

impl AllToAll for CautiousPipe {
    fn name(&self) -> &'static str {
        "cautious-pipe"
    }

    fn plan(&self, topo: &Topology, input_bytes: u64) -> A2aPlan {
        PipeA2A::new()
            .with_join_overhead(SimTime::from_ms(1.0))
            .plan(topo, input_bytes)
    }
}

fn main() {
    // Use the custom codec inside a real MoE layer: the layer takes any
    // `Box<dyn Compressor>`.
    let mut exact = MoeLayer::new(16, 32, 4, 2, 2.0, &mut seeded(42));
    let mut lossy =
        MoeLayer::new(16, 32, 4, 2, 2.0, &mut seeded(42)).with_compressor(Box::new(SignLog4));
    let x = rng::uniform(&[32, 16], 1.0, &mut seeded(43));
    use schemoe_tensor::nn::Module;
    let y_exact = exact.forward(&x);
    let y_lossy = lossy.forward(&x);
    println!(
        "\nsign-log4 at 8x compression perturbs the layer output by {:.3} \
         (fp16 at 2x: {:.5})",
        y_exact.max_abs_diff(&y_lossy).expect("same shape"),
        {
            let mut fp16 = MoeLayer::new(16, 32, 4, 2, 2.0, &mut seeded(42))
                .with_compressor(Box::new(Fp16Compressor));
            y_exact.max_abs_diff(&fp16.forward(&x)).expect("same shape")
        }
    );

    // Hand the custom A2A to a real distributed layer: each chunk of a
    // pipelined (r = 2) step on a 2 x 2 cluster runs its plan. It moves the
    // same blocks as NCCL-A2A, so the output is the same bit for bit.
    let step = |a2a: fn() -> Box<dyn AllToAll>| {
        Fabric::run(Topology::new(2, 2), |mut h| {
            let seed = h.rank() as u64;
            let gate = TopKGate::new(16, 4, 2, 2.0, &mut seeded(42));
            let expert = Box::new(FfExpert::new(16, 32, &mut seeded(100 + seed)));
            let codec = Box::new(Fp16Compressor);
            let layer = DistributedMoeLayer::new(gate, vec![expert], codec, a2a());
            let x = rng::uniform(&[8, 16], 1.0, &mut seeded(43 + seed));
            let y = layer.with_partition_degree(2).forward(&mut h, &x, 0);
            y.expect("a healthy step").data().to_vec()
        })
    };
    assert_eq!(step(|| Box::new(CautiousPipe)), step(|| Box::new(NcclA2A)));
    println!("\ncautious pipe inside an r = 2 pipelined layer: output equals NCCL-A2A's");

    // And use the custom A2A in the performance simulator: every cost
    // function takes any `&dyn AllToAll`.
    let topo = Topology::paper_testbed();
    let hw = HardwareProfile::paper_testbed();
    let s = 64_000_000;
    println!(
        "\nsimulated 64 MB exchange: stock pipe {}, cautious pipe {}",
        schemoe_collectives::a2a_time(&PipeA2A::new(), &topo, &hw, s).expect("valid"),
        schemoe_collectives::a2a_time(&CautiousPipe, &topo, &hw, s).expect("valid"),
    );
}
