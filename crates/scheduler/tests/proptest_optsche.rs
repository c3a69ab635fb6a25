//! Property-based verification of Theorem 1: OptSche is optimal — and of
//! the one partition-degree chooser built on it.

use proptest::prelude::*;
use schemoe_netsim::SimTime;
use schemoe_scheduler::{
    brute_force_best, choose_degree, naive_makespan, optsche, stage_major, TaskSet, Uncovered,
};

fn random_tasks(r: usize) -> impl Strategy<Value = TaskSet> {
    (0.01f64..20.0, 0.01f64..50.0, 0.01f64..20.0, 0.01f64..50.0).prop_map(move |(c, a, d, e)| {
        TaskSet::uniform(
            r,
            SimTime::from_ms(c),
            SimTime::from_ms(a),
            SimTime::from_ms(d),
            SimTime::from_ms(e),
        )
    })
}

proptest! {
    /// Theorem 1 for r = 2: exhaustive search over all 252 valid orders
    /// never beats the OptSche order, for arbitrary task durations.
    #[test]
    fn optsche_is_optimal_for_r2(tasks in random_tasks(2)) {
        let (_, best) = brute_force_best(&tasks);
        let opt = optsche(2).makespan(&tasks).unwrap();
        prop_assert!(
            opt.as_secs() <= best.as_secs() + 1e-12,
            "optsche {} worse than brute-force {}",
            opt, best
        );
    }

    /// Theorem 1 for r = 3 (756k orders is too many to enumerate per case,
    /// so this samples fewer cases).
    #[test]
    #[ignore = "slow: enumerates 756k schedules per case; run with --ignored"]
    fn optsche_is_optimal_for_r3(tasks in random_tasks(3)) {
        let (_, best) = brute_force_best(&tasks);
        let opt = optsche(3).makespan(&tasks).unwrap();
        prop_assert!(opt.as_secs() <= best.as_secs() + 1e-12);
    }

    /// Sanity ordering for all r: optimal ≤ stage-major ≤ naive, and the
    /// makespan is bounded below by both stream totals.
    #[test]
    fn schedule_ordering_invariants(tasks in random_tasks(3)) {
        let opt = optsche(3).makespan(&tasks).unwrap();
        let stage = stage_major(3).makespan(&tasks).unwrap();
        let naive = naive_makespan(&tasks);
        prop_assert!(opt.as_secs() <= stage.as_secs() + 1e-12);
        prop_assert!(stage.as_secs() <= naive.as_secs() + 1e-12);
        prop_assert!(opt.as_secs() + 1e-12 >= tasks.comm_total().as_secs());
        prop_assert!(opt.as_secs() + 1e-12 >= tasks.comp_total().as_secs());
    }

    /// Exchanging any two adjacent computing tasks in the OptSche order
    /// (when still dependency-valid) never shortens the makespan — the
    /// paper's local-optimality argument in the proof of Theorem 1.
    #[test]
    fn optsche_is_locally_unimprovable(tasks in random_tasks(2), i in 0usize..9) {
        let base = optsche(2);
        let opt = base.makespan(&tasks).unwrap();
        let mut swapped = base.clone();
        swapped.comp_order.swap(i, i + 1);
        // An Err means the swap violated dependencies: not a valid rival.
        if let Ok(m) = swapped.makespan(&tasks) {
            prop_assert!(
                m.as_secs() >= opt.as_secs() - 1e-12,
                "swap at {} improved {} -> {}",
                i, opt, m
            );
        }
    }

    /// The degree chooser over arbitrary candidate lists and a predictor
    /// with few distinct makespans (so ties are common) and holes
    /// (`ms[r] == 0`: degree `r` cannot be predicted).
    #[test]
    fn degree_chooser_is_an_order_free_argmin_with_two_hole_policies(
        candidates in proptest::collection::vec(1usize..12, 1..8),
        ms in proptest::collection::vec(0u32..4, 12),
        rotate in 0usize..8,
    ) {
        let predict = |r: usize| (ms[r] > 0).then(|| SimTime::from_ms(f64::from(ms[r])));
        let skip = choose_degree(&candidates, Uncovered::Skip, predict);
        let keep = choose_degree(&candidates, Uncovered::Keep, predict);

        // Skip: the smallest makespan among the predictable candidates,
        // ties to the smallest degree; nothing predictable decides nothing
        // (the caller's `unwrap_or(1)` is serial).
        let want = candidates
            .iter()
            .filter(|&&r| ms[r] > 0)
            .min_by_key(|&&r| (ms[r], r))
            .copied();
        prop_assert_eq!(skip, want);

        // Keep: one hole anywhere decides nothing (the caller's
        // `unwrap_or(configured)`); with no hole the two policies agree.
        let hole = candidates.iter().any(|&r| ms[r] == 0);
        prop_assert_eq!(keep, if hole { None } else { want });

        // Neither depends on the order the candidates are listed in.
        let mut shuffled = candidates.clone();
        shuffled.reverse();
        shuffled.rotate_left(rotate % candidates.len());
        prop_assert_eq!(choose_degree(&shuffled, Uncovered::Skip, predict), skip);
        prop_assert_eq!(choose_degree(&shuffled, Uncovered::Keep, predict), keep);
    }
}
