//! Cost models mapping work sizes to simulated durations.
//!
//! Three models cover everything in the paper's task taxonomy:
//!
//! * [`LinkModel`] — α–β communication: `t = α + bytes / B`.
//! * [`ComputeModel`] — GPU kernels: `t = launch + flops / F`.
//! * [`LinearModel`] — the generic `t = a + b·x` form the ScheMoE profiler
//!   fits to measured task times (paper §3.2 "Profiler").

use crate::time::SimTime;

/// α–β model of a communication link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Per-message latency α in seconds.
    pub latency_s: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkModel {
    /// Creates a link from latency (seconds) and bandwidth (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive or latency negative.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        LinkModel {
            latency_s,
            bandwidth_bps,
        }
    }

    /// Time to move `bytes` over this link.
    pub fn time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(self.latency_s + bytes as f64 / self.bandwidth_bps)
    }
}

/// Throughput model of a GPU's compute pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeModel {
    /// Fixed kernel-launch overhead in seconds.
    pub launch_s: f64,
    /// Sustained effective FLOP/s for the workload class.
    pub flops_per_s: f64,
}

impl ComputeModel {
    /// Creates a compute model.
    ///
    /// # Panics
    ///
    /// Panics if `flops_per_s` is not strictly positive.
    pub fn new(launch_s: f64, flops_per_s: f64) -> Self {
        assert!(flops_per_s > 0.0, "throughput must be positive");
        ComputeModel {
            launch_s,
            flops_per_s,
        }
    }

    /// Time to execute `flops` floating-point operations.
    pub fn time(&self, flops: u64) -> SimTime {
        SimTime::from_secs(self.launch_s + flops as f64 / self.flops_per_s)
    }

    /// Time for a byte-throughput-bound kernel (e.g., compression) at
    /// `bytes_per_s`.
    pub fn memory_bound_time(&self, bytes: u64, bytes_per_s: f64) -> SimTime {
        SimTime::from_secs(self.launch_s + bytes as f64 / bytes_per_s)
    }
}

/// A fitted linear performance model `t = a + b·x`.
///
/// This is what the ScheMoE profiler builds per task type: `x` is the task
/// size (bytes or FLOPs) and `t` the predicted duration in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct LinearModel {
    /// Intercept (seconds).
    pub a: f64,
    /// Slope (seconds per unit of x).
    pub b: f64,
}

impl LinearModel {
    /// Least-squares fit through observation pairs `(x, seconds)`.
    ///
    /// Returns `None` for fewer than two points or a degenerate (constant
    /// `x`) design, where the slope is unidentifiable.
    pub fn fit(samples: &[(f64, f64)]) -> Option<LinearModel> {
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|s| s.0).sum();
        let sy: f64 = samples.iter().map(|s| s.1).sum();
        let sxx: f64 = samples.iter().map(|s| s.0 * s.0).sum();
        let sxy: f64 = samples.iter().map(|s| s.0 * s.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON * (1.0 + sxx.abs()) {
            return None;
        }
        let b = (n * sxy - sx * sy) / denom;
        let a = (sy - b * sx) / n;
        Some(LinearModel { a, b })
    }

    /// Predicted duration at size `x`, clamped to be non-negative.
    pub fn predict(&self, x: f64) -> SimTime {
        SimTime::from_secs((self.a + self.b * x).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_time_is_alpha_beta() {
        let l = LinkModel::new(10e-6, 1e9);
        let t = l.time(1_000_000);
        assert!((t.as_secs() - (10e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        LinkModel::new(0.0, 0.0);
    }

    #[test]
    fn compute_time_includes_launch_overhead() {
        let c = ComputeModel::new(5e-6, 1e12);
        let t = c.time(2_000_000_000_000);
        assert!((t.as_secs() - 2.000005).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_kernel_uses_byte_throughput() {
        let c = ComputeModel::new(0.0, 1e12);
        let t = c.memory_bound_time(500_000_000, 1e9);
        assert!((t.as_secs() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let samples: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 0.25 + 0.5 * i as f64)).collect();
        let m = LinearModel::fit(&samples).unwrap();
        assert!((m.a - 0.25).abs() < 1e-9, "a = {}", m.a);
        assert!((m.b - 0.5).abs() < 1e-9, "b = {}", m.b);
        assert!((m.predict(20.0).as_secs() - 10.25).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_rejects_degenerate_input() {
        assert!(LinearModel::fit(&[(1.0, 2.0)]).is_none());
        assert!(LinearModel::fit(&[(3.0, 1.0), (3.0, 2.0), (3.0, 3.0)]).is_none());
    }

    #[test]
    fn linear_fit_averages_noise() {
        // Symmetric noise around t = 1 + 2x must fit close to the truth.
        let mut samples = Vec::new();
        for i in 0..50 {
            let x = i as f64;
            let noise = if i % 2 == 0 { 0.1 } else { -0.1 };
            samples.push((x, 1.0 + 2.0 * x + noise));
        }
        let m = LinearModel::fit(&samples).unwrap();
        assert!((m.a - 1.0).abs() < 0.05);
        assert!((m.b - 2.0).abs() < 0.01);
    }

    #[test]
    fn prediction_clamps_negative_times() {
        let m = LinearModel { a: -1.0, b: 0.001 };
        assert_eq!(m.predict(10.0), SimTime::ZERO);
    }
}
