//! The learnable top-k gating function.

use rand::rngs::SmallRng;
use schemoe_tensor::gemm::{linear_backward, Mat};
use schemoe_tensor::nn::Param;
use schemoe_tensor::{rng, Tensor};

/// The routing decision for one batch of tokens.
#[derive(Clone, Debug)]
pub struct GateDecision {
    /// Per token: the `(expert, combine_weight)` pairs that were admitted
    /// (at most `k`; fewer if capacity dropped some).
    pub assignments: Vec<Vec<(usize, f32)>>,
    /// Per expert: admitted `(token_index, combine_weight)` in slot order.
    pub expert_slots: Vec<Vec<(usize, f32)>>,
    /// The per-expert capacity that was enforced.
    pub capacity: usize,
    /// Number of `(token, expert)` assignments dropped by capacity.
    pub dropped: usize,
}

impl GateDecision {
    /// Every admitted `(token, expert)`, expert-major in slot order.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let experts = self.expert_slots.iter().enumerate();
        experts.flat_map(|(e, slots)| slots.iter().map(move |&(t, _)| (t, e)))
    }

    /// The loss gradient of every admitted assignment's combine weight, in
    /// [`slots`](Self::slots) order, into `out`: `<dy[t], rows[e][s]>` given
    /// the output gradient `dy` and each expert's output rows in slot
    /// order. Each is the sequential sum `Iterator::sum` forms; eight are
    /// formed side by side, so the chains overlap instead of waiting on
    /// each other's latency.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold one value per admitted assignment.
    pub fn weight_grads(&self, dy: &Tensor, rows: &[Tensor], out: &mut [f32]) {
        const LANES: usize = 8;
        assert_eq!(
            out.len(),
            self.slots().count(),
            "one weight grad per assignment"
        );
        let m = dy.dims()[1];
        let start: f32 = std::iter::empty::<f32>().sum();
        let mut picks = self
            .expert_slots
            .iter()
            .enumerate()
            .flat_map(|(e, slots)| (0..slots.len()).map(move |s| (slots[s].0, e, s)));
        for grads in out.chunks_mut(LANES) {
            // Lanes past the last assignment repeat the first row, unread.
            let mut xs = [&dy.data()[..m]; LANES];
            let mut ys = xs;
            for ((x, y), (t, e, s)) in xs.iter_mut().zip(&mut ys).zip(picks.by_ref()) {
                (*x, *y) = (dy.row(t), &rows[e].row(s)[..m]);
            }
            let mut acc = [start; LANES];
            let blocked = m / 8 * 8;
            for j0 in (0..blocked).step_by(8) {
                let eight =
                    |row: &[f32]| -> [f32; 8] { row[j0..j0 + 8].try_into().expect("eight wide") };
                let (xb, yb) = (xs.map(eight), ys.map(eight));
                for j in 0..8 {
                    for q in 0..LANES {
                        acc[q] += xb[q][j] * yb[q][j];
                    }
                }
            }
            for j in blocked..m {
                for q in 0..LANES {
                    acc[q] += xs[q][j] * ys[q][j];
                }
            }
            grads.copy_from_slice(&acc[..grads.len()]);
        }
    }

    /// Fraction of assignments dropped by the capacity limit.
    pub fn drop_rate(&self, k: usize) -> f64 {
        let total = self.assignments.len() * k;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }

    /// Tokens routed to each expert (admitted only).
    pub fn expert_loads(&self) -> Vec<usize> {
        self.expert_slots.iter().map(Vec::len).collect()
    }
}

/// A learnable linear router with softmax probabilities and top-k routing.
///
/// Follows GShard/Switch: logits are `x · Wg`, probabilities are a row
/// softmax, each token picks its top-`k` experts, and tokens beyond an
/// expert's capacity (Eq. 1) are dropped (the residual connection carries
/// them). The combine weight of an admitted `(token, expert)`
/// pair is the softmax probability; gradients flow back through the
/// selected probabilities into `Wg` and the token embeddings, while
/// dropped assignments contribute nothing.
pub struct TopKGate {
    wg: Param,
    k: usize,
    capacity_factor: f64,
    cache: Option<Cache>,
}

/// What a forward leaves for the backward. Each forward overwrites it in
/// place, so its storage outlives the step.
struct Cache {
    x: Tensor,
    probs: Tensor,
    /// Per admitted assignment, token-major: `(token, expert)`.
    picks: Vec<(usize, usize)>,
    /// `dWg` before it is added to the gradient.
    dwg: Vec<f32>,
    /// What [`linear_backward`] reuses call to call.
    scratch: Vec<f32>,
    /// Whether a backward may still consume this forward.
    live: bool,
}

impl TopKGate {
    /// Creates a gate for `experts` experts over `model_dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the expert count.
    pub fn new(
        model_dim: usize,
        experts: usize,
        k: usize,
        capacity_factor: f64,
        rng_: &mut SmallRng,
    ) -> Self {
        assert!(k >= 1 && k <= experts, "need 1 <= k <= experts, got k={k}");
        TopKGate {
            wg: Param::new("gate.wg", rng::xavier(model_dim, experts, rng_)),
            k,
            capacity_factor,
            cache: None,
        }
    }

    /// Top-k value.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of experts routed to.
    pub fn num_experts(&self) -> usize {
        self.wg.value.dims()[1]
    }

    /// Capacity factor `f`.
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// Replaces the capacity factor — the placement controller's shed
    /// knob. Takes effect on the next forward; must be positive and
    /// finite so [`crate::expert_capacity`] stays well-defined.
    pub fn set_capacity_factor(&mut self, f: f64) {
        assert!(f.is_finite() && f > 0.0, "capacity factor must be positive");
        self.capacity_factor = f;
    }

    /// Routes a `[n, model_dim]` batch; returns the decision.
    ///
    /// Tokens are admitted to an expert in token order until its capacity
    /// fills, which matches the deterministic GShard dispatch.
    pub fn forward(&mut self, x: &Tensor) -> GateDecision {
        self.forward_masked(x, None)
    }

    /// Routes like [`forward`](Self::forward), but with an optional
    /// liveness mask: experts whose `masked[e]` is `true` are removed from
    /// routing *before* the softmax, so probabilities renormalize over the
    /// surviving experts and their combine weights stay a proper
    /// distribution. This is the degraded-mode router used when peer ranks
    /// die mid-training: the masked experts' tokens reroute to live ones.
    ///
    /// # Panics
    ///
    /// Panics if the mask length disagrees with the expert count or if it
    /// masks every expert.
    pub fn forward_masked(&mut self, x: &Tensor, masked: Option<&[bool]>) -> GateDecision {
        let n = x.dims()[0];
        let e = self.num_experts();
        if let Some(mask) = masked {
            assert_eq!(mask.len(), e, "mask length must equal expert count");
            assert!(!mask.iter().all(|&d| d), "cannot mask every expert");
        }
        let mut logits = x.matmul(&self.wg.value).expect("gate input shape");
        if let Some(mask) = masked {
            // A large negative logit (not -inf: keeps the softmax finite)
            // drives a masked expert's probability to exactly 0 after the
            // shift-by-max exponentiation.
            for t in 0..n {
                let row = logits.row_mut(t);
                for (j, &dead) in mask.iter().enumerate() {
                    if dead {
                        row[j] = -1e30;
                    }
                }
            }
        }
        let probs = logits.softmax_rows().expect("rank-2 logits");
        let capacity = crate::expert_capacity(self.capacity_factor, self.k, n, e);
        let decision = token_choice(&probs, self.k, capacity, masked);
        let cache = self.cache.get_or_insert_with(|| Cache {
            x: Tensor::zeros(&[0]),
            probs: Tensor::zeros(&[0]),
            picks: Vec::new(),
            dwg: Vec::new(),
            scratch: Vec::new(),
            live: false,
        });
        cache.x.clone_from(x);
        cache.probs = probs;
        cache.picks.clear();
        let picks = decision.assignments.iter().enumerate();
        let picks = picks.flat_map(|(t, a)| a.iter().map(move |&(e, _)| (t, e)));
        cache.picks.extend(picks);
        cache.live = true;
        decision
    }

    /// Backward pass given the gradient of the loss with respect to each
    /// admitted assignment's combine weight.
    ///
    /// `d_weights[t]` holds one entry per admitted assignment of token `t`,
    /// in the same order as `GateDecision::assignments[t]`. Returns the
    /// gradient with respect to the input tokens.
    ///
    /// # Panics
    ///
    /// Panics if called without a cached forward or with a ragged
    /// `d_weights` that disagrees with the cached decision.
    pub fn backward(&mut self, d_weights: &[Vec<f32>]) -> Tensor {
        let cache = self.cache.as_ref().filter(|c| c.live);
        let cache = cache.expect("gate backward without forward");
        let n = cache.probs.dims()[0];
        assert_eq!(d_weights.len(), n, "one weight-grad list per token");
        let mut picks = cache.picks.iter().peekable();
        let mut grads = Vec::with_capacity(cache.picks.len());
        for (t, dw) in d_weights.iter().enumerate() {
            for &w in dw {
                let Some(&(_, e)) = picks.next_if(|&&(tt, _)| tt == t) else {
                    panic!("token {t}: weight-grad arity mismatch");
                };
                grads.push((t, e, w));
            }
            let left = picks.peek().is_some_and(|&&(tt, _)| tt == t);
            assert!(!left, "token {t}: weight-grad arity mismatch");
        }
        let mut dx = Tensor::zeros(&[n, self.wg.value.dims()[0]]);
        self.backward_flat(grads, dx.data_mut());
        dx
    }

    /// [`backward`](Self::backward) over `(token, expert, weight grad)`
    /// triples, one per admitted assignment in any order — each adds to a
    /// probability of its own — writing the input gradient into `dx`
    /// (`[n, model_dim]`).
    ///
    /// # Panics
    ///
    /// Panics if called without a cached forward, or if the triples or `dx`
    /// disagree with it.
    pub fn backward_flat(
        &mut self,
        d_weights: impl IntoIterator<Item = (usize, usize, f32)>,
        dx: &mut [f32],
    ) {
        let cache = self.cache.as_mut().filter(|c| c.live);
        let cache = cache.expect("gate backward without forward");
        cache.live = false;
        let (n, e) = (cache.probs.dims()[0], cache.probs.dims()[1]);
        // dL/dprobs: scatter the admitted weight grads.
        let mut dprobs = Tensor::zeros(&[n, e]);
        let mut count = 0;
        for (t, ex, dw) in d_weights {
            dprobs.row_mut(t)[ex] += dw;
            count += 1;
        }
        assert_eq!(
            count,
            cache.picks.len(),
            "one weight grad per admitted assignment"
        );
        // Softmax backward per row: dlogit = p ⊙ (dp − Σ p·dp), in place.
        for t in 0..n {
            let p = cache.probs.row(t);
            let dp = dprobs.row_mut(t);
            let dot: f32 = p.iter().zip(dp.iter()).map(|(a, b)| a * b).sum();
            for j in 0..e {
                dp[j] = p[j] * (dp[j] - dot);
            }
        }
        // Linear backward: dWg += xᵀ · dlogits, formed whole from zero and
        // then added; dx = dlogits · Wgᵀ.
        cache.dwg.clear();
        cache.dwg.resize(self.wg.grad.numel(), 0.0);
        let (x, dlogits) = (Mat::of(&cache.x), Mat::of(&dprobs));
        let w = Mat::of(&self.wg.value);
        let grads = (&mut cache.dwg[..], &mut [][..]);
        linear_backward(x, dlogits, w, grads, dx, &mut cache.scratch);
        for (g, &d) in self.wg.grad.data_mut().iter_mut().zip(&cache.dwg) {
            *g += d;
        }
    }

    /// Visits the gate's learnable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wg);
    }

    /// Read-only access to the router weight.
    pub fn weight(&self) -> &Param {
        &self.wg
    }
}

/// Token-choice routing over `probs` (`[tokens, experts]`): each token
/// takes its top-`k` experts by score, stable in expert order on ties, and
/// an expert past `capacity` drops the overflow in token order. Masked
/// experts do not participate; with fewer than `k` unmasked experts each
/// missing preference counts as a drop.
pub(crate) fn token_choice(
    probs: &Tensor,
    k: usize,
    capacity: usize,
    masked: Option<&[bool]>,
) -> GateDecision {
    let (n, e) = (probs.dims()[0], probs.dims()[1]);
    let mut assignments: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
    let mut expert_slots: Vec<Vec<(usize, f32)>> = vec![Vec::new(); e];
    let mut dropped = 0usize;
    let mut order: Vec<usize> = Vec::with_capacity(e);
    for t in 0..n {
        let row = probs.row(t);
        // Expert preference order by probability (E is small).
        order.clear();
        order.extend((0..e).filter(|&j| masked.is_none_or(|m| !m[j])));
        order.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("finite probs"));
        for &ex in order.iter().take(k) {
            if expert_slots[ex].len() < capacity {
                let w = row[ex];
                expert_slots[ex].push((t, w));
                assignments[t].push((ex, w));
            } else {
                dropped += 1;
            }
        }
        dropped += k.saturating_sub(order.len());
    }
    GateDecision {
        assignments,
        expert_slots,
        capacity,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_tensor::rng::seeded;

    fn gate(k: usize, f: f64) -> TopKGate {
        TopKGate::new(8, 4, k, f, &mut seeded(77))
    }

    #[test]
    fn every_token_gets_up_to_k_assignments() {
        let mut g = gate(2, 10.0); // huge capacity: nothing drops
        let x = rng::uniform(&[16, 8], 1.0, &mut seeded(1));
        let d = g.forward(&x);
        assert_eq!(d.dropped, 0);
        for a in &d.assignments {
            assert_eq!(a.len(), 2);
            // Distinct experts per token.
            assert_ne!(a[0].0, a[1].0);
        }
    }

    #[test]
    fn capacity_limits_and_drops() {
        let mut g = gate(1, 0.5); // half capacity: some tokens must drop
        let x = rng::uniform(&[32, 8], 1.0, &mut seeded(2));
        let d = g.forward(&x);
        assert!(d.expert_loads().iter().all(|&l| l <= d.capacity));
        // With f=0.5 and any imbalance, something must drop.
        assert!(d.dropped > 0, "expected drops with tight capacity");
        assert!(d.drop_rate(1) > 0.0 && d.drop_rate(1) < 1.0);
    }

    #[test]
    fn tight_factors_never_zero_capacity_on_a_live_expert() {
        // Fewer tokens than experts AND a sub-1.0 factor: the capacity
        // floor must still grant every expert one slot, so a token whose
        // top choice is an otherwise-idle expert is admitted, not shed.
        let mut g = gate(1, 0.25);
        let x = rng::uniform(&[2, 8], 1.0, &mut seeded(9));
        let d = g.forward(&x);
        assert_eq!(d.capacity, 1, "floor holds at the boundary");
        assert!(
            d.assignments.iter().any(|a| !a.is_empty()),
            "at least one token must be admitted"
        );
        assert!(d.expert_loads().iter().all(|&l| l <= d.capacity));
    }

    #[test]
    fn set_capacity_factor_takes_effect_next_forward() {
        let mut g = gate(1, 10.0);
        let x = rng::uniform(&[32, 8], 1.0, &mut seeded(2));
        assert_eq!(g.forward(&x).dropped, 0, "generous base factor");
        g.set_capacity_factor(0.5);
        assert_eq!(g.capacity_factor(), 0.5);
        let shed = g.forward(&x);
        assert!(shed.dropped > 0, "the shed knob must bite");
        // Restoring the base factor restores the original decision.
        g.set_capacity_factor(10.0);
        assert_eq!(g.forward(&x).dropped, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn set_capacity_factor_rejects_zero() {
        gate(1, 1.0).set_capacity_factor(0.0);
    }

    #[test]
    fn weights_are_softmax_probabilities() {
        let mut g = gate(2, 10.0);
        let x = rng::uniform(&[4, 8], 1.0, &mut seeded(3));
        let d = g.forward(&x);
        for a in &d.assignments {
            for &(_, w) in a {
                assert!(w > 0.0 && w <= 1.0);
            }
            // Top-1 weight >= top-2 weight.
            assert!(a[0].1 >= a[1].1);
        }
    }

    #[test]
    fn slot_order_is_token_order() {
        let mut g = gate(1, 10.0);
        let x = rng::uniform(&[10, 8], 1.0, &mut seeded(4));
        let d = g.forward(&x);
        for slots in &d.expert_slots {
            let tokens: Vec<usize> = slots.iter().map(|s| s.0).collect();
            let mut sorted = tokens.clone();
            sorted.sort_unstable();
            assert_eq!(tokens, sorted, "slots must fill in token order");
        }
    }

    #[test]
    fn gate_gradients_match_finite_differences() {
        // Probe loss: sum over admitted assignments of weight * c(t, slot).
        let mut g = gate(2, 10.0);
        let x = rng::uniform(&[5, 8], 0.5, &mut seeded(5));
        let coeff = |t: usize, i: usize| 0.3 + 0.1 * ((t * 2 + i) % 5) as f32;

        let d = g.forward(&x);
        let d_weights: Vec<Vec<f32>> = (0..5)
            .map(|t| (0..d.assignments[t].len()).map(|i| coeff(t, i)).collect())
            .collect();
        let dx = g.backward(&d_weights);

        // Finite differences on Wg (routing is locally stable for small eps).
        let probe = |g: &mut TopKGate, x: &Tensor| -> f32 {
            let d = g.forward(x);
            let mut s = 0.0f32;
            for (t, a) in d.assignments.iter().enumerate() {
                for (i, &(_, w)) in a.iter().enumerate() {
                    s += w * coeff(t, i);
                }
            }
            s
        };
        let eps = 1e-3;
        let mut analytic = Tensor::zeros(&[8, 4]);
        g.visit_params(&mut |p| analytic = p.grad.clone());
        for i in 0..8 {
            for j in 0..4 {
                g.visit_params(&mut |p| p.value.row_mut(i)[j] += eps);
                let fp = probe(&mut g, &x);
                g.visit_params(&mut |p| p.value.row_mut(i)[j] -= 2.0 * eps);
                let fm = probe(&mut g, &x);
                g.visit_params(&mut |p| p.value.row_mut(i)[j] += eps);
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (analytic.row(i)[j] - fd).abs() < 2e-2,
                    "dWg[{i},{j}]: analytic {} vs fd {}",
                    analytic.row(i)[j],
                    fd
                );
            }
        }

        // Finite differences on x.
        for t in 0..5 {
            for j in 0..8 {
                let mut xp = x.clone();
                xp.row_mut(t)[j] += eps;
                let mut xm = x.clone();
                xm.row_mut(t)[j] -= eps;
                let fp = probe(&mut g, &xp);
                let fm = probe(&mut g, &xm);
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (dx.row(t)[j] - fd).abs() < 2e-2,
                    "dx[{t},{j}]: analytic {} vs fd {}",
                    dx.row(t)[j],
                    fd
                );
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn weight_grads_are_the_sequential_dot_products_bit_for_bit() {
        let mut g = gate(2, 1.0);
        let x = rng::uniform(&[19, 8], 1.0, &mut seeded(40));
        let d = g.forward(&x);
        let dy = rng::uniform(&[19, 21], 1.0, &mut seeded(41));
        let rows: Vec<Tensor> = (0..4)
            .map(|e| {
                rng::uniform(
                    &[d.expert_slots[e].len(), 21],
                    1.0,
                    &mut seeded(42 + e as u64),
                )
            })
            .collect();
        let mut want = Vec::new();
        for (e, slots) in d.expert_slots.iter().enumerate() {
            for (s, &(t, _)) in slots.iter().enumerate() {
                let pairs = dy.row(t).iter().zip(rows[e].row(s));
                want.push(pairs.map(|(a, b)| a * b).sum::<f32>());
            }
        }
        let mut got = vec![0.0; want.len()];
        d.weight_grads(&dy, &rows, &mut got);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn the_backward_is_the_textbook_formulas_bit_for_bit() {
        let mut g = gate(2, 1.0);
        g.visit_params(&mut |p| p.grad = rng::uniform(&[8, 4], 1.0, &mut seeded(50)));
        let x = rng::uniform(&[13, 8], 1.0, &mut seeded(51));
        let d = g.forward(&x);
        let d_weights: Vec<Vec<f32>> = (0..13)
            .map(|t| {
                (0..d.assignments[t].len())
                    .map(|i| 0.1 + (t + i) as f32)
                    .collect()
            })
            .collect();
        let mut want_grad = g.weight().grad.clone();
        let probs = x.matmul(&g.weight().value).unwrap().softmax_rows().unwrap();
        let mut dlogits = Tensor::zeros(&[13, 4]);
        for t in 0..13 {
            let mut dp = [0.0f32; 4];
            for (&(e, _), &dw) in d.assignments[t].iter().zip(&d_weights[t]) {
                dp[e] += dw;
            }
            let p = probs.row(t);
            let dot: f32 = p.iter().zip(dp.iter()).map(|(a, b)| a * b).sum();
            for j in 0..4 {
                dlogits.row_mut(t)[j] = p[j] * (dp[j] - dot);
            }
        }
        want_grad
            .add_assign(&x.t_matmul(&dlogits).unwrap())
            .unwrap();
        let want_dx = dlogits.matmul_t(&g.weight().value).unwrap();
        let dx = g.backward(&d_weights);
        assert_eq!(bits(dx.data()), bits(want_dx.data()));
        assert_eq!(bits(g.weight().grad.data()), bits(want_grad.data()));
    }

    #[test]
    #[should_panic(expected = "1 <= k <= experts")]
    fn k_larger_than_experts_is_rejected() {
        TopKGate::new(4, 2, 3, 1.0, &mut seeded(1));
    }

    #[test]
    fn masked_experts_receive_nothing_and_weights_renormalize() {
        let mut g = gate(2, 10.0);
        let x = rng::uniform(&[16, 8], 1.0, &mut seeded(31));
        // Mask expert 1: nothing routes there, and every token's admitted
        // weights are softmax probabilities over the 3 survivors.
        let d = g.forward_masked(&x, Some(&[false, true, false, false]));
        assert_eq!(d.expert_slots[1].len(), 0, "masked expert got tokens");
        for a in &d.assignments {
            assert_eq!(a.len(), 2);
            for &(ex, w) in a {
                assert_ne!(ex, 1);
                assert!(w > 0.0 && w <= 1.0);
            }
        }
        // Renormalization: a k = live-count decision sums to ~1.
        let mut g3 = gate(3, 10.0);
        let d3 = g3.forward_masked(&x, Some(&[false, true, false, false]));
        for a in &d3.assignments {
            let sum: f32 = a.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-4, "weights sum to {sum}, not 1");
        }
    }

    #[test]
    fn fewer_live_experts_than_k_count_one_drop_per_missing_preference() {
        // k = 2 with one live expert: each token's second preference does
        // not exist, and counts as dropped on top of capacity overflow.
        let mut g = gate(2, 0.5);
        let n = 16;
        let x = rng::uniform(&[n, 8], 1.0, &mut seeded(36));
        let d = g.forward_masked(&x, Some(&[true, true, false, true]));
        let cap = d.capacity;
        assert_eq!(cap, 4, "ceil(0.5 * 2 * 16 / 4)");
        let slots: Vec<usize> = d.expert_slots[2].iter().map(|&(t, _)| t).collect();
        assert_eq!(slots, (0..cap).collect::<Vec<_>>());
        for (t, a) in d.assignments.iter().enumerate() {
            if t < cap {
                assert_eq!(a.len(), 1);
                assert_eq!(a[0].0, 2);
                assert!((a[0].1 - 1.0).abs() < 1e-6, "lone survivor's weight");
            } else {
                assert!(a.is_empty(), "token {t} admitted past capacity");
            }
        }
        // One missing preference per token (k - live = 1), plus overflow.
        assert_eq!(d.dropped, n + (n - cap));
    }

    #[test]
    fn masked_gradients_stay_finite() {
        let mut g = gate(2, 10.0);
        let x = rng::uniform(&[8, 8], 0.5, &mut seeded(32));
        let d = g.forward_masked(&x, Some(&[false, false, true, false]));
        let d_weights: Vec<Vec<f32>> = d.assignments.iter().map(|a| vec![1.0; a.len()]).collect();
        let dx = g.backward(&d_weights);
        assert!(dx.all_finite());
    }

    #[test]
    #[should_panic(expected = "cannot mask every expert")]
    fn masking_every_expert_is_rejected() {
        let mut g = gate(1, 1.0);
        let x = rng::uniform(&[2, 8], 1.0, &mut seeded(33));
        g.forward_masked(&x, Some(&[true, true, true, true]));
    }

    #[test]
    fn no_mask_matches_plain_forward() {
        let x = rng::uniform(&[12, 8], 1.0, &mut seeded(34));
        let mut a = gate(2, 4.0);
        let mut b = gate(2, 4.0);
        let da = a.forward(&x);
        let db = b.forward_masked(&x, Some(&[false; 4]));
        for (x_, y_) in da.assignments.iter().zip(db.assignments.iter()) {
            assert_eq!(x_, y_);
        }
    }

    #[test]
    fn unmasking_restores_the_unmasked_decision_exactly() {
        // Re-expansion after a rank rejoin: masking is purely per-call
        // state, so a gate that routed around a dead expert produces the
        // original full-world decision — same assignments, same
        // renormalized weights — as soon as the mask is lifted.
        let x = rng::uniform(&[16, 8], 1.0, &mut seeded(35));
        let mut survivor = gate(2, 4.0);
        let masked = survivor.forward_masked(&x, Some(&[false, false, true, false]));
        assert_eq!(masked.expert_slots[2].len(), 0);
        let expanded = survivor.forward_masked(&x, None);
        let mut fresh = gate(2, 4.0);
        let want = fresh.forward(&x);
        assert_eq!(expanded.assignments, want.assignments);
        assert_eq!(expanded.expert_slots, want.expert_slots);
    }
}
