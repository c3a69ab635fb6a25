//! Alternative routing strategies and load-balance analysis.
//!
//! The paper's §8 surveys the algorithmic line of work on balanced
//! routing — BASE layers (token-to-expert assignment as matching),
//! expert-choice routing (Zhou et al.: experts pick tokens), and
//! stochastic routing — and notes ScheMoE composes with any of them.
//! This module provides those routers behind a common [`Router`] trait
//! (inference-style routing, no learned state) plus the imbalance
//! statistics that determine dispatch-buffer pressure: the quantity that
//! decides whether a Faster-MoE-style uncapped system survives (Table 8).

use rand::rngs::SmallRng;
use rand::Rng;
use schemoe_tensor::Tensor;

use crate::gating::GateDecision;

/// A routing strategy: scores tokens against experts and produces a
/// dispatch decision.
pub trait Router {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Routes `scores` (a `[tokens, experts]` affinity matrix, e.g. gate
    /// softmax probabilities) into a dispatch decision.
    fn route(&mut self, scores: &Tensor) -> GateDecision;
}

/// GShard/Switch token-choice routing: every token picks its top-k
/// experts, capacity drops the overflow in token order.
pub struct TokenChoiceRouter {
    k: usize,
    capacity_factor: f64,
}

impl TokenChoiceRouter {
    /// Creates the router.
    pub fn new(k: usize, capacity_factor: f64) -> Self {
        TokenChoiceRouter { k, capacity_factor }
    }
}

impl Router for TokenChoiceRouter {
    fn name(&self) -> &'static str {
        "token-choice"
    }

    /// The gate's own rule ([`TopKGate`](crate::TopKGate)), unmasked.
    fn route(&mut self, scores: &Tensor) -> GateDecision {
        let (n, e) = (scores.dims()[0], scores.dims()[1]);
        let capacity = crate::expert_capacity(self.capacity_factor, self.k, n, e);
        crate::gating::token_choice(scores, self.k, capacity, None)
    }
}

/// Expert-choice routing (Zhou et al., NeurIPS'22): each expert picks its
/// own top-`capacity` tokens. Perfect load balance by construction; a
/// token may be chosen by zero or many experts.
pub struct ExpertChoiceRouter {
    capacity_factor: f64,
    k: usize,
}

impl ExpertChoiceRouter {
    /// Creates the router; `k` only sizes the capacity budget
    /// (`C = f·k·n/E`) for fair comparison with token-choice.
    pub fn new(k: usize, capacity_factor: f64) -> Self {
        ExpertChoiceRouter { capacity_factor, k }
    }
}

impl Router for ExpertChoiceRouter {
    fn name(&self) -> &'static str {
        "expert-choice"
    }

    fn route(&mut self, scores: &Tensor) -> GateDecision {
        let (n, e) = (scores.dims()[0], scores.dims()[1]);
        let capacity = crate::expert_capacity(self.capacity_factor, self.k, n, e);
        let mut assignments: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
        let mut expert_slots: Vec<Vec<(usize, f32)>> = vec![Vec::new(); e];
        for ex in 0..e {
            // Expert ex picks its top-capacity tokens by score.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                scores.row(b)[ex]
                    .partial_cmp(&scores.row(a)[ex])
                    .expect("finite")
            });
            let mut picked: Vec<usize> = order.into_iter().take(capacity).collect();
            // Slot order stays token order, as the dispatch format expects.
            picked.sort_unstable();
            for t in picked {
                let w = scores.row(t)[ex];
                expert_slots[ex].push((t, w));
                assignments[t].push((ex, w));
            }
        }
        // Expert-choice never "drops" (experts always fill), but tokens
        // may be unrouted; report those as drops for comparability.
        let dropped = assignments.iter().filter(|a| a.is_empty()).count();
        GateDecision {
            assignments,
            expert_slots,
            capacity,
            dropped,
        }
    }
}

/// Stochastic routing (Zuo et al., ICLR'22 style): each token samples `k`
/// experts uniformly, ignoring scores. Balanced in expectation; used as a
/// generalization-improving baseline.
pub struct RandomRouter {
    k: usize,
    capacity_factor: f64,
    rng: SmallRng,
}

impl RandomRouter {
    /// Creates the router with its own routing RNG.
    pub fn new(k: usize, capacity_factor: f64, rng: SmallRng) -> Self {
        RandomRouter {
            k,
            capacity_factor,
            rng,
        }
    }
}

impl Router for RandomRouter {
    fn name(&self) -> &'static str {
        "stochastic"
    }

    fn route(&mut self, scores: &Tensor) -> GateDecision {
        let (n, e) = (scores.dims()[0], scores.dims()[1]);
        let capacity = crate::expert_capacity(self.capacity_factor, self.k, n, e);
        let mut assignments: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
        let mut expert_slots: Vec<Vec<(usize, f32)>> = vec![Vec::new(); e];
        let mut dropped = 0usize;
        for t in 0..n {
            let mut chosen = Vec::new();
            while chosen.len() < self.k.min(e) {
                let ex = self.rng.gen_range(0..e);
                if !chosen.contains(&ex) {
                    chosen.push(ex);
                }
            }
            for ex in chosen {
                if expert_slots[ex].len() < capacity {
                    // Uniform combine weight: the sampled expert's output
                    // is taken at 1/k.
                    let w = 1.0 / self.k as f32;
                    expert_slots[ex].push((t, w));
                    assignments[t].push((ex, w));
                } else {
                    dropped += 1;
                }
            }
        }
        GateDecision {
            assignments,
            expert_slots,
            capacity,
            dropped,
        }
    }
}

/// Load-balance statistics of a routing decision.
#[derive(Clone, Copy, Debug)]
pub struct BalanceStats {
    /// Max expert load divided by mean expert load (1.0 = perfect).
    pub imbalance: f64,
    /// Fraction of `(token, assignment)` slots dropped or unrouted.
    pub drop_rate: f64,
    /// Coefficient of variation of expert loads.
    pub load_cv: f64,
}

/// Computes balance statistics for a decision made over `n` tokens with
/// budget `k`.
pub fn balance_stats(decision: &GateDecision, k: usize) -> BalanceStats {
    let loads = decision.expert_loads();
    let e = loads.len().max(1) as f64;
    let total: usize = loads.iter().sum();
    let mean = total as f64 / e;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let var = loads
        .iter()
        .map(|&l| (l as f64 - mean).powi(2))
        .sum::<f64>()
        / e;
    BalanceStats {
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
        drop_rate: decision.drop_rate(k),
        load_cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_tensor::rng::{self, seeded};

    /// A skewed affinity matrix: most tokens prefer expert 0.
    fn skewed_scores(n: usize, e: usize) -> Tensor {
        let mut s = rng::uniform(&[n, e], 0.1, &mut seeded(5));
        for t in 0..n {
            if t % 4 != 0 {
                s.row_mut(t)[0] += 1.0;
            }
        }
        s.softmax_rows().expect("rank-2")
    }

    #[test]
    fn token_choice_suffers_under_skew() {
        let scores = skewed_scores(64, 8);
        let mut tc = TokenChoiceRouter::new(1, 1.0);
        let d = tc.route(&scores);
        let stats = balance_stats(&d, 1);
        assert!(stats.drop_rate > 0.2, "skew must cause drops: {stats:?}");
        // Capacity clamps the max load, so imbalance is bounded...
        assert!(d.expert_loads().iter().all(|&l| l <= d.capacity));
    }

    #[test]
    fn expert_choice_is_perfectly_balanced() {
        let scores = skewed_scores(64, 8);
        let mut ec = ExpertChoiceRouter::new(1, 1.0);
        let d = ec.route(&scores);
        let stats = balance_stats(&d, 1);
        assert!(
            (stats.imbalance - 1.0).abs() < 1e-9,
            "expert choice must fill every expert equally: {stats:?}"
        );
        // Every expert filled exactly to capacity.
        assert!(d.expert_loads().iter().all(|&l| l == d.capacity));
    }

    #[test]
    fn stochastic_routing_balances_in_expectation() {
        let scores = skewed_scores(512, 8);
        let mut rr = RandomRouter::new(1, 1.25, seeded(6));
        let d = rr.route(&scores);
        let stats = balance_stats(&d, 1);
        assert!(
            stats.imbalance < 1.35,
            "random routing too skewed: {stats:?}"
        );
        assert!(stats.drop_rate < 0.1);
    }

    #[test]
    fn expert_choice_slots_stay_in_token_order() {
        let scores = skewed_scores(32, 4);
        let mut ec = ExpertChoiceRouter::new(2, 1.0);
        let d = ec.route(&scores);
        for slots in &d.expert_slots {
            let toks: Vec<usize> = slots.iter().map(|s| s.0).collect();
            let mut sorted = toks.clone();
            sorted.sort_unstable();
            assert_eq!(toks, sorted);
        }
    }

    #[test]
    fn routers_spend_the_same_slot_budget() {
        // Expert-choice always fills E·C slots; token-choice admits at
        // most n·k. With balanced random scores and headroom both land on
        // the same total.
        let scores = rng::uniform(&[64, 8], 1.0, &mut seeded(9))
            .softmax_rows()
            .expect("rank-2");
        let mut tc = TokenChoiceRouter::new(1, 8.0); // capacity never binds
        let tc_total: usize = tc.route(&scores).expert_loads().iter().sum();
        assert_eq!(tc_total, 64);
        let mut ec = ExpertChoiceRouter::new(1, 1.0); // capacity = 8 each
        let ec_total: usize = ec.route(&scores).expert_loads().iter().sum();
        assert_eq!(ec_total, 64);
    }
}
