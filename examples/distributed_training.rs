//! Real expert-parallel training on the in-process fabric.
//!
//! ```bash
//! cargo run --release --example distributed_training
//! ```
//!
//! Four rank threads each own one expert; every training step runs the
//! full distributed pipeline with real data movement — gate, ZFP-compress,
//! Pipe-A2A dispatch, remote expert compute, Pipe-A2A combine, backward
//! gradient exchanges, and a gate-gradient allreduce — on a learnable toy
//! regression task. Watch the loss fall.

use bytes::Bytes;
use schemoe::prelude::*;
use schemoe_collectives::TAG_STRIDE;
use schemoe_moe::{allreduce_inplace, Expert, FfExpert};
use schemoe_tensor::optim::Sgd;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

const M: usize = 16;
const H: usize = 32;
const TOKENS_PER_RANK: usize = 24;
const STEPS: usize = 60;

/// The regression target: a fixed elementwise transform of the input.
fn target_of(x: &Tensor) -> Tensor {
    x.map(|v| 0.8 * (2.0 * v).sin())
}

fn main() {
    let topo = Topology::new(2, 2);
    let p = topo.world_size();
    println!(
        "training a distributed MoE layer on {} rank threads ({} experts, zfp + pipe-a2a)\n",
        p, p
    );

    let losses = Fabric::run(topo, |mut h| {
        let me = h.rank();
        // Identical gate on every rank (same seed); each rank gets its own
        // expert (seeded by expert id).
        let gate = TopKGate::new(M, p, 2, 4.0, &mut seeded(100));
        let expert: Box<dyn Expert> = Box::new(FfExpert::new(M, H, &mut seeded(200 + me as u64)));
        let mut layer = DistributedMoeLayer::new(
            gate,
            vec![expert],
            Box::new(ZfpCompressor::default()),
            Box::new(PipeA2A::new()),
        );
        let mut opt = Sgd::new(0.5);
        let mut data_rng = seeded(300 + me as u64);
        let mut tag = 0u64;
        let mut history = Vec::new();
        for step in 0..STEPS {
            let x = rng::uniform(&[TOKENS_PER_RANK, M], 1.0, &mut data_rng);
            let want = target_of(&x);
            let y = layer.forward(&mut h, &x, tag).expect("fabric healthy");
            // Mean-squared-error loss and gradient.
            let diff = y.sub(&want).expect("same shape");
            let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / diff.numel() as f32;
            let dy = diff.scale(2.0 / diff.numel() as f32);
            layer.backward(&mut h, &dy).expect("fabric healthy");
            // Keep the replicated gate in sync: allreduce its gradient.
            let mut gate_grad = Vec::new();
            layer.visit_params(&mut |prm| {
                if prm.name == "gate.wg" {
                    gate_grad = prm.grad.data().to_vec();
                }
            });
            allreduce_inplace(&mut h, &mut gate_grad, tag + TAG_STRIDE - 10)
                .expect("fabric healthy");
            layer.visit_params(&mut |prm| {
                if prm.name == "gate.wg" {
                    let scale = 1.0 / p as f32;
                    for (g, &r) in prm.grad.data_mut().iter_mut().zip(gate_grad.iter()) {
                        *g = r * scale;
                    }
                }
            });
            opt.step_params(&mut |f| layer.visit_params(f));
            tag += TAG_STRIDE;
            if step % 10 == 0 || step == STEPS - 1 {
                history.push((step, loss));
            }
        }
        // A final barrier keeps the printout tidy.
        h.barrier();
        let _ = Bytes::new();
        history
    });

    println!("{:>6} per-rank training loss", "step");
    let checkpoints = losses[0].len();
    for c in 0..checkpoints {
        let step = losses[0][c].0;
        let row: Vec<String> = losses.iter().map(|l| format!("{:.4}", l[c].1)).collect();
        println!("{:>6} {}", step, row.join("  "));
    }
    let first: f32 = losses.iter().map(|l| l[0].1).sum::<f32>() / losses.len() as f32;
    let last: f32 = losses.iter().map(|l| l[checkpoints - 1].1).sum::<f32>() / losses.len() as f32;
    println!("\nmean loss: {first:.4} -> {last:.4}");
    assert!(last < first, "training should reduce the loss");
}
