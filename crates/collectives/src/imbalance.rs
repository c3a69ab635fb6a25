//! Imbalanced all-to-all: plans from a per-pair traffic matrix.
//!
//! The uniform plans elsewhere in this crate assume every rank sends
//! `S/P` to every peer, but the paper's §2.1 is explicit that routing is
//! dynamic: "the number of assigned tokens for each expert is different
//! and the same expert may have a different number of tokens at different
//! training iterations ... the workloads of experts [can be] extremely
//! unbalanced". This module holds an explicit `[src][dst]` byte matrix
//! that re-costs any algorithm's plan ([`crate::A2aPlan::with_traffic`]),
//! generates skewed matrices from routing statistics, and quantifies the
//! straggler effect that motivates both the capacity factor (Eq. 1) and
//! Faster-MoE's BERT OOM.

use rand::rngs::SmallRng;
use rand::Rng;
use schemoe_cluster::{HardwareProfile, Topology};

use crate::{AllToAll, NcclA2A};

/// A per-pair traffic matrix: `bytes[src][dst]`.
#[derive(Clone, Debug)]
pub struct TrafficMatrix {
    bytes: Vec<Vec<u64>>,
}

impl TrafficMatrix {
    /// Builds a matrix; every row must have `world_size` entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn new(bytes: Vec<Vec<u64>>) -> Self {
        let p = bytes.len();
        assert!(
            bytes.iter().all(|row| row.len() == p),
            "matrix must be square"
        );
        TrafficMatrix { bytes }
    }

    /// The uniform matrix: every pair carries `total_per_rank / P`.
    pub fn uniform(p: usize, total_per_rank: u64) -> Self {
        let per = total_per_rank / p as u64;
        TrafficMatrix {
            bytes: vec![vec![per; p]; p],
        }
    }

    /// A hot-expert matrix: a fraction `hot_share` of every rank's traffic
    /// is routed to `hot_rank`'s expert, the rest spreads evenly.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= hot_share <= 1.0` and `hot_rank < p`.
    pub fn hot_expert(p: usize, total_per_rank: u64, hot_rank: usize, hot_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&hot_share), "hot_share out of range");
        assert!(hot_rank < p, "hot_rank out of range");
        let hot = (total_per_rank as f64 * hot_share) as u64;
        let rest = (total_per_rank - hot) / p as u64;
        let mut bytes = vec![vec![rest; p]; p];
        for row in bytes.iter_mut() {
            row[hot_rank] += hot;
        }
        TrafficMatrix { bytes }
    }

    /// A randomly skewed matrix: per-destination weights drawn from a
    /// heavy-tailed distribution (power of a uniform), normalized per row.
    pub fn random_skewed(
        p: usize,
        total_per_rank: u64,
        skew_power: f64,
        rng: &mut SmallRng,
    ) -> Self {
        let mut bytes = Vec::with_capacity(p);
        for _ in 0..p {
            let weights: Vec<f64> = (0..p)
                .map(|_| rng.gen_range(0.0f64..1.0).powf(skew_power))
                .collect();
            let sum: f64 = weights.iter().sum();
            let row: Vec<u64> = weights
                .iter()
                .map(|w| (total_per_rank as f64 * w / sum) as u64)
                .collect();
            bytes.push(row);
        }
        TrafficMatrix { bytes }
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes from `src` to `dst`.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src][dst]
    }

    /// Total bytes received by `dst` (its expert's inbound tokens).
    pub fn received_by(&self, dst: usize) -> u64 {
        self.bytes.iter().map(|row| row[dst]).sum()
    }

    /// Max-over-mean of per-destination inbound bytes (1.0 = balanced).
    pub fn imbalance(&self) -> f64 {
        let p = self.world_size();
        let inbound: Vec<u64> = (0..p).map(|d| self.received_by(d)).collect();
        let total: u64 = inbound.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / p as f64;
        inbound.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// Clamps every destination's inbound traffic to `cap` bytes,
    /// mirroring the capacity factor: each sender's contribution to an
    /// over-subscribed destination is scaled down proportionally.
    pub fn with_capacity(&self, cap: u64) -> TrafficMatrix {
        let p = self.world_size();
        let mut out = self.bytes.clone();
        for d in 0..p {
            let inbound = self.received_by(d);
            if inbound > cap {
                let scale = cap as f64 / inbound as f64;
                for row in out.iter_mut() {
                    row[d] = (row[d] as f64 * scale) as u64;
                }
            }
        }
        TrafficMatrix { bytes: out }
    }
}

/// The straggler factor of a matrix under an algorithm: makespan divided
/// by the makespan of the balanced matrix with the same total volume.
pub fn straggler_factor(matrix: &TrafficMatrix, topo: &Topology, hw: &HardwareProfile) -> f64 {
    let p = matrix.world_size() as u64;
    let total: u64 = (0..matrix.world_size())
        .map(|d| matrix.received_by(d))
        .sum();
    let uniform = TrafficMatrix::uniform(matrix.world_size(), total / p);
    let makespan = |m: &TrafficMatrix| {
        let plan = NcclA2A.plan(topo, 0).with_traffic(topo, m);
        plan.simulate(topo, hw).expect("valid").makespan()
    };
    makespan(matrix) / makespan(&uniform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemoe_tensor_seed::seeded;

    // A tiny local shim to avoid a dev-dependency cycle: the crate's tests
    // only need a deterministic SmallRng.
    mod schemoe_tensor_seed {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        pub fn seeded(seed: u64) -> SmallRng {
            SmallRng::seed_from_u64(seed)
        }
    }

    use crate::PipeA2A;

    fn env() -> (Topology, HardwareProfile) {
        (Topology::paper_testbed(), HardwareProfile::paper_testbed())
    }

    #[test]
    fn uniform_matrix_is_balanced() {
        let m = TrafficMatrix::uniform(8, 8_000_000);
        assert!((m.imbalance() - 1.0).abs() < 1e-9);
        assert_eq!(m.received_by(3), 8_000_000);
    }

    #[test]
    fn hot_expert_concentrates_inbound_traffic() {
        let m = TrafficMatrix::hot_expert(8, 8_000_000, 2, 0.5);
        assert!(m.imbalance() > 3.0, "imbalance {}", m.imbalance());
        assert!(m.received_by(2) > 4 * m.received_by(0));
    }

    #[test]
    fn capacity_clamp_restores_balance() {
        let p = 8;
        let total = 8_000_000u64;
        let m = TrafficMatrix::hot_expert(p, total, 0, 0.75);
        // Eq. 1 with f=1.25: cap = 1.25 × the balanced per-expert share.
        let fair_share = (total * p as u64) as f64 / p as f64;
        let cap = (1.25 * fair_share) as u64;
        let clamped = m.with_capacity(cap);
        // The hot expert's inbound drops to at most f × the fair share
        // (capacity drops traffic, so the post-clamp mean shrinks — the
        // bound is against the *original* fair share, as in Eq. 1).
        assert!(clamped.received_by(0) <= cap);
        assert!(clamped.received_by(0) as f64 / fair_share <= 1.26);
        // Non-hot destinations are untouched.
        assert_eq!(clamped.get(1, 3), m.get(1, 3));
    }

    #[test]
    fn stragglers_slow_the_whole_collective() {
        let (topo, hw) = env();
        let balanced = TrafficMatrix::uniform(32, 64_000_000);
        assert!((straggler_factor(&balanced, &topo, &hw) - 1.0).abs() < 1e-9);
        let skewed = TrafficMatrix::hot_expert(32, 64_000_000, 5, 0.6);
        let factor = straggler_factor(&skewed, &topo, &hw);
        assert!(factor > 1.5, "hot expert should straggle: {factor:.2}");
        // Capacity clamping (the paper's Eq. 1 defence) restores most of it.
        let cap = (1.2 * 64_000_000.0) as u64;
        let fixed = straggler_factor(&skewed.with_capacity(cap), &topo, &hw);
        assert!(
            fixed < factor * 0.75,
            "capacity should tame stragglers: {fixed:.2}"
        );
    }

    #[test]
    fn random_skew_grows_with_the_power() {
        let mut rng = seeded(5);
        let mild = TrafficMatrix::random_skewed(16, 1_000_000, 1.0, &mut rng);
        let harsh = TrafficMatrix::random_skewed(16, 1_000_000, 6.0, &mut rng);
        assert!(harsh.imbalance() > mild.imbalance());
    }

    #[test]
    fn matrix_plans_match_uniform_plans_on_uniform_traffic() {
        let (topo, hw) = env();
        let s = 64_000_000u64;
        let m = TrafficMatrix::uniform(32, s);
        let matrix_plan = NcclA2A.plan(&topo, 0).with_traffic(&topo, &m);
        let matrix_t = matrix_plan.simulate(&topo, &hw).unwrap().makespan();
        let uniform_t = NcclA2A
            .plan(&topo, s)
            .simulate(&topo, &hw)
            .unwrap()
            .makespan();
        let rel = (matrix_t.as_secs() - uniform_t.as_secs()).abs() / uniform_t.as_secs();
        assert!(rel < 1e-6, "matrix and uniform plans diverge: {rel}");
    }

    #[test]
    fn pipe_still_beats_nccl_under_skew() {
        let (topo, hw) = env();
        let m = TrafficMatrix::hot_expert(32, 640_000_000, 3, 0.4);
        let time = |plan: crate::A2aPlan| {
            let plan = plan.with_traffic(&topo, &m);
            plan.simulate(&topo, &hw).unwrap().makespan() + plan.join_overhead()
        };
        let nccl = time(NcclA2A.plan(&topo, 0));
        let pipe = time(PipeA2A::new().plan(&topo, 0));
        assert!(pipe < nccl);
    }
}
