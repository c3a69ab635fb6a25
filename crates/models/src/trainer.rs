//! Training loops and metrics for the convergence experiments.

use rand::rngs::SmallRng;
use schemoe_cluster::{FabricError, RankHandle};
use schemoe_moe::{DistributedMoeLayer, GradAllreduce};
use schemoe_obs as obs;
use schemoe_tensor::optim::Adam;
use schemoe_tensor::rng::seeded;
use schemoe_tensor::Tensor;

use crate::data::{CopyTranslation, RegimeMarkov};
use crate::ft::ALLREDUCE_LANE;
use crate::lm::TinyMoeLm;

/// One whole distributed training step on an expert-parallel MoE layer:
/// forward, then backward with the replicated-gradient allreduce folded
/// into the backward task graph. At partition degrees > 1 both passes run
/// on the two-worker executor and the allreduce overlaps the backward
/// exchanges on the communication worker; at degree 1 the same graphs run
/// inline. The result is bit-identical at every degree.
///
/// The upstream gradient is the forward output itself (the `loss =
/// ½‖y‖²` convention the bit-identity tests and benchmarks use), so the
/// step is self-contained. `replicated` stands in for replicated-module
/// gradients: it must hold final values at call time and holds the
/// live-rank sum on return, reduced on the [`ALLREDUCE_LANE`] of this
/// step's tag window. Returns `(y, dx)`.
pub fn distributed_full_step(
    h: &mut RankHandle,
    layer: &mut DistributedMoeLayer,
    x: &Tensor,
    tag: u64,
    replicated: &mut [f32],
    live: &[bool],
) -> Result<(Tensor, Tensor), FabricError> {
    let y = layer.forward(h, x, tag)?;
    let dx = layer.backward_with_allreduce(
        h,
        &y,
        Some(GradAllreduce {
            values: replicated,
            tag: tag + ALLREDUCE_LANE,
            live,
        }),
    )?;
    Ok((y, dx))
}

/// Metrics from one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean training loss (nats) over the last eval window.
    pub final_loss: f32,
    /// Validation perplexity (`exp` of held-out cross-entropy).
    pub val_perplexity: f32,
    /// BLEU-proxy target accuracy on held-out copy-translation data, when
    /// the run used that task.
    pub bleu_proxy: Option<f32>,
    /// Loss at a few checkpoints for convergence-curve inspection.
    pub loss_curve: Vec<f32>,
}

/// Drives a [`TinyMoeLm`] on a synthetic task with Adam.
pub struct Trainer {
    /// Adam learning rate.
    pub lr: f32,
    /// Sequences per step.
    pub batch: usize,
    /// Optimization steps.
    pub steps: usize,
    /// Held-out sequences for validation.
    pub val_batch: usize,
    /// Data/sampling seed (distinct from the model seed).
    pub data_seed: u64,
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer {
            lr: 3e-3,
            batch: 16,
            steps: 300,
            val_batch: 64,
            data_seed: 99,
        }
    }
}

impl Trainer {
    /// The Adam loop both tasks share: `self.steps` steps on batches that
    /// `sample` draws from the data-seed RNG. Returns the last window's
    /// mean loss and the loss curve (one mean per tenth of the run).
    fn train(
        &self,
        lm: &mut TinyMoeLm,
        mut sample: impl FnMut(&mut SmallRng) -> Vec<usize>,
    ) -> (f32, Vec<f32>) {
        let mut rng = seeded(self.data_seed);
        let mut opt = Adam::new(self.lr).with_grad_clip(1.0);
        let mut curve = Vec::new();
        let mut window = Vec::new();
        for step in 0..self.steps {
            let _step_span = obs::span("step", format_args!("step{step}"));
            let tokens = sample(&mut rng);
            let loss = {
                let _s = obs::span("forward", "forward");
                lm.loss_on(&tokens)
            };
            {
                let _s = obs::span("backward", "backward");
                lm.backward();
            }
            {
                let _s = obs::span("optimizer", "adam");
                opt.step_params(&mut |f| lm.visit_params(f));
            }
            window.push(loss);
            if (step + 1) % (self.steps / 10).max(1) == 0 {
                curve.push(window.iter().sum::<f32>() / window.len() as f32);
                window.clear();
            }
        }
        (*curve.last().unwrap_or(&f32::NAN), curve)
    }

    /// Trains on the regime-Markov language-modelling task and reports
    /// validation perplexity.
    pub fn run_markov(&self, lm: &mut TinyMoeLm, data: &RegimeMarkov) -> TrainReport {
        let t = lm.config().seq_len;
        let (final_loss, curve) = self.train(lm, |rng| data.sample_batch(self.batch, t, rng));
        // Held-out evaluation with a fixed seed so every codec variant
        // sees the same validation set.
        let mut val_rng = seeded(self.data_seed + 1_000_000);
        let val_tokens = data.sample_batch(self.val_batch, t, &mut val_rng);
        let val_loss = lm.loss_on(&val_tokens);
        TrainReport {
            final_loss,
            val_perplexity: val_loss.exp(),
            bleu_proxy: None,
            loss_curve: curve,
        }
    }

    /// Trains on copy-translation and reports the BLEU-proxy target
    /// accuracy.
    pub fn run_translation(&self, lm: &mut TinyMoeLm, data: &CopyTranslation) -> TrainReport {
        assert_eq!(
            lm.config().seq_len,
            data.seq_len(),
            "model seq_len must match the task"
        );
        let (final_loss, curve) = self.train(lm, |rng| data.sample_batch(self.batch, rng));
        let mut val_rng = seeded(self.data_seed + 1_000_000);
        let mut acc_sum = 0.0f32;
        let val_loss = {
            let val_tokens = data.sample_batch(self.val_batch, &mut val_rng);
            lm.loss_on(&val_tokens)
        };
        let mut eval_rng: SmallRng = seeded(self.data_seed + 2_000_000);
        let eval_seqs = 32;
        for _ in 0..eval_seqs {
            let seq = data.sample(&mut eval_rng);
            let preds = lm.greedy_predictions(&seq);
            acc_sum += data.target_accuracy(&seq, &preds[..seq.len() - 1]);
        }
        TrainReport {
            final_loss,
            val_perplexity: val_loss.exp(),
            bleu_proxy: Some(acc_sum / eval_seqs as f32),
            loss_curve: curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::LmConfig;
    use schemoe_cluster::{Fabric, Topology};
    use schemoe_collectives::NcclA2A;
    use schemoe_compression::NoCompression;
    use schemoe_moe::{Expert, FfExpert, TopKGate};
    use schemoe_tensor::rng;

    #[test]
    fn full_step_is_bit_identical_across_degrees() {
        let topo = Topology::new(1, 2);
        let p = topo.world_size();
        let (m, n_local) = (6, 5);
        let x_global = rng::uniform(&[n_local * p, m], 0.7, &mut seeded(31));
        let run = |degree: usize| {
            Fabric::run(topo, |mut h| {
                let me = h.rank();
                let gate = TopKGate::new(m, p, 2, 8.0, &mut seeded(555));
                let experts: Vec<Box<dyn Expert>> = vec![Box::new(FfExpert::new(
                    m,
                    10,
                    &mut seeded(1000 + me as u64),
                ))];
                let mut layer = DistributedMoeLayer::new(
                    gate,
                    experts,
                    Box::new(NoCompression),
                    Box::new(NcclA2A),
                )
                .with_partition_degree(degree);
                let mut x = schemoe_tensor::Tensor::zeros(&[n_local, m]);
                for r in 0..n_local {
                    x.row_mut(r).copy_from_slice(x_global.row(me * n_local + r));
                }
                let live = vec![true; p];
                let mut replicated: Vec<f32> = (0..16).map(|i| (me * 16 + i) as f32).collect();
                let (y, dx) =
                    distributed_full_step(&mut h, &mut layer, &x, 0, &mut replicated, &live)
                        .unwrap();
                (y, dx, replicated)
            })
        };
        let serial = run(1);
        let overlapped = run(4);
        for me in 0..p {
            assert_eq!(
                overlapped[me].0.max_abs_diff(&serial[me].0).unwrap(),
                0.0,
                "rank {me} forward diverged"
            );
            assert_eq!(
                overlapped[me].1.max_abs_diff(&serial[me].1).unwrap(),
                0.0,
                "rank {me} dx diverged"
            );
            assert_eq!(
                overlapped[me].2, serial[me].2,
                "rank {me} reduced values diverged"
            );
        }
    }

    #[test]
    fn markov_training_beats_uniform() {
        let data = RegimeMarkov::new(16, 2, &mut seeded(50));
        let cfg = LmConfig::small(16, 12);
        let mut lm = TinyMoeLm::new(cfg, &mut seeded(51));
        let trainer = Trainer {
            steps: 150,
            ..Default::default()
        };
        let report = trainer.run_markov(&mut lm, &data);
        let uniform_ppl = 16.0;
        assert!(
            report.val_perplexity < uniform_ppl * 0.8,
            "perplexity {} should beat uniform {}",
            report.val_perplexity,
            uniform_ppl
        );
        assert_eq!(report.loss_curve.len(), 10);
        // The curve trends down.
        assert!(report.loss_curve.last().unwrap() < report.loss_curve.first().unwrap());
    }

    #[test]
    fn translation_training_learns_the_mapping() {
        let data = CopyTranslation::new(12, 5, &mut seeded(52));
        let cfg = LmConfig::small(data.total_vocab(), data.seq_len());
        let mut lm = TinyMoeLm::new(cfg, &mut seeded(53));
        let trainer = Trainer {
            steps: 250,
            ..Default::default()
        };
        let report = trainer.run_translation(&mut lm, &data);
        let acc = report.bleu_proxy.unwrap();
        // Chance is 1/12 ≈ 0.083; the mapping is learnable well beyond it.
        assert!(acc > 0.3, "target accuracy {acc} barely above chance");
    }
}
