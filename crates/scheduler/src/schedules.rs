//! The schedule zoo: naive, stage-major, OptSche, and brute force.

use schemoe_netsim::SimTime;

use crate::schedule::Schedule;
use crate::task::{TaskKind, TaskSet};

/// The no-overlap execution time (paper Eq. 10): every task serialized.
///
/// This is the "Naive" row of the ablation (Table 10) — the default
/// execution order with `r = 1` semantics, where no communication hides
/// behind computation.
pub fn naive_makespan(tasks: &TaskSet) -> SimTime {
    tasks.total()
}

/// The stage-major pipelined schedule: all `C1`s, all `D1`s, all `E`s, all
/// `C2`s, all `D2`s.
///
/// This is the natural order existing systems fall into when they pipeline
/// stage by stage (Fig. 3b): correct, and it overlaps some communication,
/// but it delays `C2^1` behind every other chunk's expert, so the combine
/// all-to-alls start later than necessary.
pub fn stage_major(r: usize) -> Schedule {
    let mut order = Vec::with_capacity(5 * r);
    for kind in TaskKind::COMPUTE {
        for chunk in 0..r {
            order.push((kind, chunk));
        }
    }
    Schedule::new(order)
}

/// **OptSche** (Theorem 1): the provably optimal order
/// `(C1^1..C1^r)(D1^1 E^1 C2^1)...(D1^r E^r C2^r)(D2^1..D2^r)`.
///
/// All first compressions run up front so the dispatch all-to-alls start
/// as early as possible; then each chunk's decompress→expert→compress runs
/// as a unit so its combine all-to-all is unblocked at the earliest
/// moment; final decompressions run last (nothing depends on them).
pub fn optsche(r: usize) -> Schedule {
    let mut order = Vec::with_capacity(5 * r);
    for chunk in 0..r {
        order.push((TaskKind::Compress1, chunk));
    }
    for chunk in 0..r {
        order.push((TaskKind::Decompress1, chunk));
        order.push((TaskKind::Expert, chunk));
        order.push((TaskKind::Compress2, chunk));
    }
    for chunk in 0..r {
        order.push((TaskKind::Decompress2, chunk));
    }
    Schedule::new(order)
}

/// The OptSche makespan of `tasks` at their own partition degree (the
/// order is dependency-valid for every `r`, so this cannot fail).
pub fn optsche_makespan(tasks: &TaskSet) -> SimTime {
    optsche(tasks.r())
        .makespan(tasks)
        .expect("optsche is dependency-valid")
}

/// What [`choose_degree`] does with a candidate whose makespan cannot be
/// predicted: an unmeasured stage is unknown, never free, so it can never
/// argue for more pipelining.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uncovered {
    /// Leave the candidate out of the comparison.
    Skip,
    /// Decide nothing (`None`): the caller keeps the degree it has.
    Keep,
}

/// The candidate partition degree with the smallest predicted makespan.
///
/// OptSche is optimal for any fixed `r` (Theorem 1); choosing `r` is the
/// orthogonal problem the paper defers to profiling. Candidates are tried
/// in ascending order and only a strictly smaller makespan displaces the
/// incumbent, so the smallest degree — serial, when it is a candidate —
/// wins ties. `None` when no candidate could be compared.
pub fn choose_degree(
    candidates: &[usize],
    uncovered: Uncovered,
    predict: impl Fn(usize) -> Option<SimTime>,
) -> Option<usize> {
    let mut ascending = candidates.to_vec();
    ascending.sort_unstable();
    let mut best: Option<(usize, SimTime)> = None;
    for r in ascending {
        let Some(makespan) = predict(r) else {
            match uncovered {
                Uncovered::Skip => continue,
                Uncovered::Keep => return None,
            }
        };
        if best.is_none_or(|(_, incumbent)| makespan < incumbent) {
            best = Some((r, makespan));
        }
    }
    best.map(|(r, _)| r)
}

/// Calls `visit` with every schedule that interleaves the `r` per-chunk
/// chains `C1 ≺ D1 ≺ E ≺ C2 ≺ D2` — the dependency-respecting computing
/// orders; any other order deadlocks and can never win. There are
/// `(5r)! / (5!)^r` of them (252 at `r = 2`).
pub fn chain_orders(r: usize, visit: &mut dyn FnMut(Schedule)) {
    fn rec(
        progress: &mut [usize],
        order: &mut Vec<(TaskKind, usize)>,
        visit: &mut dyn FnMut(Schedule),
    ) {
        if order.len() == 5 * progress.len() {
            return visit(Schedule::new(order.clone()));
        }
        for chunk in 0..progress.len() {
            if progress[chunk] < 5 {
                let kind = TaskKind::COMPUTE[progress[chunk]];
                progress[chunk] += 1;
                order.push((kind, chunk));
                rec(progress, order, visit);
                order.pop();
                progress[chunk] -= 1;
            }
        }
    }
    rec(&mut vec![0; r], &mut Vec::with_capacity(5 * r), visit);
}

/// Exhaustive search over every dependency-respecting computing order:
/// evaluates each of [`chain_orders`] and returns the best
/// `(schedule, makespan)`.
///
/// Exponential in `r` — this is the optimality *oracle* for tests and the
/// Fig. 5 reproduction, not a production scheduler.
pub fn brute_force_best(tasks: &TaskSet) -> (Schedule, SimTime) {
    let mut best: Option<(Schedule, SimTime)> = None;
    chain_orders(tasks.r(), &mut |s| {
        let m = s
            .makespan(tasks)
            .expect("chain-respecting orders are valid");
        if best.as_ref().is_none_or(|(_, bm)| m < *bm) {
            best = Some((s, m));
        }
    });
    best.expect("at least one valid order exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(r: usize, comm_ms: f64) -> TaskSet {
        TaskSet::uniform(
            r,
            SimTime::from_ms(1.0),
            SimTime::from_ms(comm_ms),
            SimTime::from_ms(1.5),
            SimTime::from_ms(4.0),
        )
    }

    #[test]
    fn optsche_matches_theorem_order_for_r3() {
        assert_eq!(
            optsche(3).describe(),
            "C1^1 C1^2 C1^3 D1^1 E^1 C2^1 D1^2 E^2 C2^2 D1^3 E^3 C2^3 D2^1 D2^2 D2^3"
        );
    }

    #[test]
    fn all_schedules_are_valid_permutations() {
        for r in 1..5 {
            assert!(optsche(r).is_permutation(r));
            assert!(stage_major(r).is_permutation(r));
        }
    }

    #[test]
    fn optsche_beats_or_ties_stage_major() {
        for comm_ms in [0.5, 2.0, 8.0, 30.0] {
            for r in [2usize, 3, 4] {
                let tasks = ts(r, comm_ms);
                let o = optsche(r).makespan(&tasks).unwrap();
                let s = stage_major(r).makespan(&tasks).unwrap();
                assert!(
                    o <= s + SimTime::from_us(0.001),
                    "r={r} comm={comm_ms}ms: optsche {o} > stage-major {s}"
                );
            }
        }
    }

    #[test]
    fn optsche_is_strictly_better_when_comm_matters() {
        // With comm comparable to compute and r=2, the stage-major order
        // delays A2^1 and loses outright.
        let tasks = ts(2, 6.0);
        let o = optsche(2).makespan(&tasks).unwrap();
        let s = stage_major(2).makespan(&tasks).unwrap();
        assert!(o < s, "optsche {o} should strictly beat stage-major {s}");
    }

    #[test]
    fn brute_force_confirms_theorem_1_r2() {
        // Over a grid of duration profiles, no valid order beats OptSche.
        for (c, a, d, e) in [
            (1.0, 8.0, 1.5, 4.0),
            (2.0, 2.0, 2.0, 2.0),
            (0.1, 20.0, 0.1, 1.0),
            (5.0, 1.0, 5.0, 10.0),
            (1.0, 15.0, 3.0, 0.5),
        ] {
            let tasks = TaskSet::uniform(
                2,
                SimTime::from_ms(c),
                SimTime::from_ms(a),
                SimTime::from_ms(d),
                SimTime::from_ms(e),
            );
            let (_best_s, best_m) = brute_force_best(&tasks);
            let opt_m = optsche(2).makespan(&tasks).unwrap();
            assert!(
                (opt_m.as_secs() - best_m.as_secs()).abs() < 1e-12,
                "profile ({c},{a},{d},{e}): optsche {opt_m} vs brute-force {best_m}"
            );
        }
    }

    #[test]
    fn naive_is_never_faster() {
        let tasks = ts(3, 5.0);
        let o = optsche(3).makespan(&tasks).unwrap();
        assert!(o <= naive_makespan(&tasks));
    }
}
