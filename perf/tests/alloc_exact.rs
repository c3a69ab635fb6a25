//! The counting allocator counts a known allocation pattern exactly.
//!
//! An integration test so that it owns its process: the counters are
//! process-wide, and unit tests of the library run on parallel threads
//! that would allocate inside the armed window.

use perf::alloc::{arm, totals, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn counts_a_known_pattern_exactly_and_nothing_while_disarmed() {
    let before = totals();
    let quiet: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&quiet);
    assert_eq!(totals(), before, "disarmed allocations were counted");

    arm(true);
    let mut boxes: Vec<Box<[u8; 100]>> = Vec::with_capacity(5); // 1 call, 5 pointers
    for _ in 0..5 {
        boxes.push(Box::new([1u8; 100])); // 5 calls, 100 B each
    }
    let mut grown: Vec<u64> = Vec::with_capacity(4); // 1 call, 32 B
    grown.extend_from_slice(&[1, 2, 3, 4]);
    grown.reserve_exact(4); // realloc: 1 call, 64 B
    arm(false);
    let after = totals();
    std::hint::black_box((&boxes, &grown));

    assert_eq!(after.0 - before.0, 8);
    let ptr = std::mem::size_of::<usize>() as u64;
    assert_eq!(after.1 - before.1, 5 * ptr + 500 + 32 + 64);
}
