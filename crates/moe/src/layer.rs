//! The single-process MoE layer: gate → dispatch → experts → combine.

use rand::rngs::SmallRng;
use schemoe_compression::Compressor;
use schemoe_tensor::gemm::Mat;
use schemoe_tensor::nn::{Module, Param, Segment};
use schemoe_tensor::Tensor;

use crate::expert::{Expert, FfExpert};
use crate::gating::{GateDecision, TopKGate};

/// A complete MoE layer with every expert local to the process.
///
/// Forward: the gate routes each token to its top-`k` experts (capacity
/// limited), admitted tokens are gathered per expert, each expert runs its
/// fflayer, and outputs are combined back per token weighted by the gate
/// probabilities. Dropped tokens contribute zero (the standard GShard
/// behaviour — the residual connection around the layer carries them).
///
/// An optional [`Compressor`] round-trips both the dispatched tokens and
/// the expert outputs through the codec, reproducing bit-exactly the
/// numeric effect of compressing the two all-to-alls in distributed
/// training. This is how the convergence-under-compression study (Table 6)
/// runs at single-process speed.
pub struct MoeLayer {
    gate: TopKGate,
    experts: Vec<Box<dyn Expert>>,
    compressor: Option<Box<dyn Compressor>>,
    cache: Option<Cache>,
}

struct Cache {
    decision: GateDecision,
    /// Per expert, in slot order: the (possibly compressed) inputs, what
    /// its forward saved for the backward, and the (possibly compressed)
    /// outputs.
    expert_inputs: Vec<Tensor>,
    saved: Vec<Vec<f32>>,
    expert_outputs: Vec<Tensor>,
    n: usize,
}

impl MoeLayer {
    /// Creates a layer with `experts` fresh [`FfExpert`]s.
    pub fn new(
        model_dim: usize,
        hidden_dim: usize,
        experts: usize,
        k: usize,
        capacity_factor: f64,
        rng: &mut SmallRng,
    ) -> Self {
        let gate = TopKGate::new(model_dim, experts, k, capacity_factor, rng);
        let experts: Vec<Box<dyn Expert>> = (0..experts)
            .map(|_| Box::new(FfExpert::new(model_dim, hidden_dim, rng)) as Box<dyn Expert>)
            .collect();
        MoeLayer {
            gate,
            experts,
            compressor: None,
            cache: None,
        }
    }

    /// Builds a layer from an explicit gate and expert set.
    ///
    /// # Panics
    ///
    /// Panics if the gate's expert count differs from `experts.len()`.
    pub fn from_parts(gate: TopKGate, experts: Vec<Box<dyn Expert>>) -> Self {
        assert_eq!(
            gate.num_experts(),
            experts.len(),
            "gate/expert count mismatch"
        );
        MoeLayer {
            gate,
            experts,
            compressor: None,
            cache: None,
        }
    }

    /// Round-trips dispatch and combine payloads through `codec`.
    pub fn set_compressor(&mut self, codec: Box<dyn Compressor>) {
        self.compressor = Some(codec);
    }

    /// [`set_compressor`](Self::set_compressor), builder style.
    pub fn with_compressor(mut self, codec: Box<dyn Compressor>) -> Self {
        self.set_compressor(codec);
        self
    }

    /// The gate.
    pub fn gate(&self) -> &TopKGate {
        &self.gate
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// The routing decision of the most recent forward.
    pub fn last_decision(&self) -> Option<&GateDecision> {
        self.cache.as_ref().map(|c| &c.decision)
    }

    /// Applies the configured codec as a lossy identity, if any.
    fn maybe_compress(&self, t: &Tensor) -> Tensor {
        match &self.compressor {
            Some(codec) => {
                let wire = codec.compress(t.data());
                let back = codec
                    .decompress(&wire, t.numel())
                    .expect("codec accepts its own output");
                Tensor::from_vec(back, t.dims()).expect("shape preserved")
            }
            None => t.clone(),
        }
    }
}

impl Module for MoeLayer {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let n = x.dims()[0];
        let m = x.dims()[1];
        let decision = self.gate.forward(x);

        // Dispatch: gather admitted rows per expert (the first A2A), with
        // the codec applied to what would cross the wire; then each
        // expert's one forward, whose outputs the second A2A carries back.
        let experts = self.experts.len();
        let mut expert_inputs = Vec::with_capacity(experts);
        let mut saved = Vec::with_capacity(experts);
        let mut expert_outputs = Vec::with_capacity(experts);
        for (e, slots) in decision.expert_slots.iter().enumerate() {
            let mut rows = Tensor::zeros(&[slots.len(), m]);
            for (s, &(t, _)) in slots.iter().enumerate() {
                rows.row_mut(s).copy_from_slice(x.row(t));
            }
            let input = self.maybe_compress(&rows);
            let body = &mut self.experts[e];
            let mut kept = vec![0.0; slots.len() * body.saved_width()];
            let mut out = Tensor::zeros(&[slots.len(), m]);
            body.forward_saving(Mat::of(&input), &mut kept, out.data_mut());
            expert_outputs.push(self.maybe_compress(&out));
            expert_inputs.push(input);
            saved.push(kept);
        }

        // Combine: weighted scatter back to token positions.
        let mut y = Tensor::zeros(&[n, m]);
        for (e, slots) in decision.expert_slots.iter().enumerate() {
            for (s, &(t, w)) in slots.iter().enumerate() {
                let orow = expert_outputs[e].row(s);
                let yrow = y.row_mut(t);
                for (yj, &oj) in yrow.iter_mut().zip(orow.iter()) {
                    *yj += w * oj;
                }
            }
        }
        self.cache = Some(Cache {
            decision,
            expert_inputs,
            saved,
            expert_outputs,
            n,
        });
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("moe backward without forward");
        let m = dy.dims()[1];
        assert_eq!(dy.dims()[0], cache.n, "gradient row count mismatch");

        // Combine backward: per admitted slot, d_out = w · dy[t]; then the
        // expert's backward over its one group, and the dispatch backward
        // (scatter to tokens).
        let mut dx = Tensor::zeros(&[cache.n, m]);
        for (e, slots) in cache.decision.expert_slots.iter().enumerate() {
            let mut d_out = Tensor::zeros(&[slots.len(), m]);
            for (s, &(t, w)) in slots.iter().enumerate() {
                for (d, &g) in d_out.row_mut(s).iter_mut().zip(dy.row(t)) {
                    *d = w * g;
                }
            }
            let body = &mut self.experts[e];
            let saved = Mat::new(&cache.saved[e], slots.len(), body.saved_width());
            let x = Mat::of(&cache.expert_inputs[e]);
            let mut d_in = Tensor::zeros(&[slots.len(), m]);
            let dy = Mat::of(&d_out);
            body.backward_from(&[Segment { x, saved, dy }], d_in.data_mut());
            for (s, &(t, _)) in slots.iter().enumerate() {
                for (xj, &dj) in dx.row_mut(t).iter_mut().zip(d_in.row(s)) {
                    *xj += dj;
                }
            }
        }
        // Weight gradients: <dy[t], expert_out[slot]> per admitted slot.
        let decision = &cache.decision;
        let mut d_weights = vec![0.0; decision.slots().count()];
        decision.weight_grads(dy, &cache.expert_outputs, &mut d_weights);
        let grads = decision.slots().zip(&d_weights);
        let mut dx_gate = Tensor::zeros(&[cache.n, m]);
        self.gate
            .backward_flat(grads.map(|((t, e), &w)| (t, e, w)), dx_gate.data_mut());
        for (a, &b) in dx.data_mut().iter_mut().zip(dx_gate.data()) {
            *a += b;
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gate.visit_params(f);
        for e in &mut self.experts {
            e.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_compression::{Fp16Compressor, ZfpCompressor};
    use schemoe_tensor::grad_check::check_module_gradients;
    use schemoe_tensor::rng::{self, seeded};

    fn layer(k: usize, f: f64) -> MoeLayer {
        MoeLayer::new(6, 12, 4, k, f, &mut seeded(91))
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let mut l = layer(2, 2.0);
        let x = rng::uniform(&[10, 6], 1.0, &mut seeded(92));
        let y = l.forward(&x);
        assert_eq!(y.dims(), &[10, 6]);
        assert!(y.all_finite());
        let d = l.last_decision().unwrap();
        assert_eq!(d.assignments.len(), 10);
    }

    #[test]
    fn dropped_tokens_produce_zero_output() {
        // Capacity 1 slot per expert: most tokens drop entirely with k=1.
        let mut l = MoeLayer::new(6, 12, 2, 1, 0.1, &mut seeded(93));
        let x = rng::uniform(&[20, 6], 1.0, &mut seeded(94));
        let y = l.forward(&x);
        let d = l.last_decision().unwrap().clone();
        for (t, assigns) in d.assignments.iter().enumerate() {
            if assigns.is_empty() {
                assert!(
                    y.row(t).iter().all(|&v| v == 0.0),
                    "dropped token {t} non-zero"
                );
            }
        }
        assert!(d.dropped > 0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Generous capacity keeps routing stable under the probe epsilon.
        let mut l = MoeLayer::new(4, 6, 3, 2, 4.0, &mut seeded(95));
        let x = rng::uniform(&[4, 4], 0.5, &mut seeded(96));
        check_module_gradients(&mut l, &x, 5e-2);
    }

    #[test]
    fn compressor_changes_output_within_bounds() {
        let x = rng::uniform(&[8, 6], 1.0, &mut seeded(97));
        let mut exact = layer(1, 4.0);
        let y_exact = exact.forward(&x);
        // Same parameters (same seed), with an FP16 round-trip.
        let mut lossy = layer(1, 4.0).with_compressor(Box::new(Fp16Compressor));
        let y_lossy = lossy.forward(&x);
        let diff = y_exact.max_abs_diff(&y_lossy).unwrap();
        assert!(diff > 0.0, "fp16 must perturb something");
        assert!(diff < 1e-2, "fp16 perturbation too large: {diff}");
        // ZFP: coarser but still bounded.
        let mut zfp = layer(1, 4.0).with_compressor(Box::new(ZfpCompressor::default()));
        let y_zfp = zfp.forward(&x);
        let diff = y_exact.max_abs_diff(&y_zfp).unwrap();
        assert!(diff < 0.2, "zfp perturbation too large: {diff}");
    }

    #[test]
    fn param_count_covers_gate_and_experts() {
        let mut l = layer(1, 1.0);
        // Gate 6*4; each expert 6*12+12+12*6+6.
        assert_eq!(l.num_params(), 6 * 4 + 4 * (6 * 12 + 12 + 12 * 6 + 6));
    }
}
