//! Backward-pass task scheduling.
//!
//! "During backpropagation, the data dependency between A2A communication
//! tasks and expert computing tasks is reversed" (paper §2.3). The
//! backward pass of one MoE layer mirrors the forward chain:
//!
//! ```text
//! forward : C1 → A1 → D1 → E  → C2 → A2 → D2
//! backward: C2ᵍ → A2ᵍ → D2ᵍ → Eᵍ → C1ᵍ → A1ᵍ → D1ᵍ
//! ```
//!
//! where the gradient of the *combine* A2A flows first and the gradient of
//! the *dispatch* A2A flows last, and the expert's backward costs roughly
//! twice its forward (the dX and dW GEMMs). Because the chain has the same
//! `comp → comm → comp → comp → comp → comm → comp` shape as the forward
//! pass, Theorem 1's argument applies verbatim with the roles relabelled —
//! which the test below re-verifies against the exhaustive oracle.

use crate::task::{TaskKind, TaskSet};

/// Builds the backward-pass task set from a forward task set.
///
/// Per chunk, compressing a gradient costs what compressing the activation
/// cost (same bytes), the A2As carry the same wire volume, and the expert
/// backward is `expert_backward_scale`× the forward (2.0 for the standard
/// dX+dW pair).
pub fn backward_task_set(forward: &TaskSet, expert_backward_scale: f64) -> TaskSet {
    let mut out = forward.clone();
    for chunk in 0..forward.r() {
        let expert = forward.duration(TaskKind::Expert, chunk);
        out.set_duration(TaskKind::Expert, chunk, expert * expert_backward_scale);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedules::{brute_force_best, optsche};
    use schemoe_netsim::SimTime;

    fn fwd(r: usize) -> TaskSet {
        TaskSet::uniform(
            r,
            SimTime::from_ms(1.5),
            SimTime::from_ms(9.0),
            SimTime::from_ms(2.0),
            SimTime::from_ms(5.0),
        )
    }

    #[test]
    fn backward_doubles_only_the_expert() {
        let f = fwd(2);
        let b = backward_task_set(&f, 2.0);
        assert_eq!(b.duration(TaskKind::Expert, 0), SimTime::from_ms(10.0));
        assert_eq!(
            b.duration(TaskKind::Compress1, 0),
            f.duration(TaskKind::Compress1, 0)
        );
        assert_eq!(
            b.duration(TaskKind::AllToAll1, 1),
            f.duration(TaskKind::AllToAll1, 1)
        );
    }

    #[test]
    fn backward_preserves_per_chunk_overrides() {
        let mut f = fwd(2);
        f.set_duration(TaskKind::AllToAll1, 1, SimTime::from_ms(20.0));
        let b = backward_task_set(&f, 2.0);
        assert_eq!(b.duration(TaskKind::AllToAll1, 1), SimTime::from_ms(20.0));
        assert_eq!(b.duration(TaskKind::AllToAll1, 0), SimTime::from_ms(9.0));
    }

    #[test]
    fn optsche_is_optimal_for_backward_durations_too() {
        // Not by symmetry — by exhaustive search on the backward task set.
        let b = backward_task_set(&fwd(2), 2.0);
        let (_, best) = brute_force_best(&b);
        let opt = optsche(2).makespan(&b).expect("valid");
        assert!((opt.as_secs() - best.as_secs()).abs() < 1e-12);
    }
}
