//! The steady-state allocation guard: after warm-up, a whole MoE step —
//! forward, backward, folded allreduce — re-uses the buffers of the step
//! before instead of asking the allocator for new ones. What a step may
//! still allocate is what it hands to someone else (`y`, `dx`) and
//! bookkeeping; a reintroduced
//! staging copy of a chunk shows up as bytes here, in `cargo test`, not
//! only in `perf`'s `alloc.bytes_per_step`.
//!
//! This binary holds exactly one test: the counting allocator is
//! process-wide, and a second test running beside it would be counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use schemoe_cluster::{Fabric, RankHandle, Topology, TransportKind};
use schemoe_collectives::{NcclA2A, TAG_STRIDE};
use schemoe_compression::Fp16Compressor;
use schemoe_models::distributed_full_step;
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, TopKGate};
use schemoe_tensor::rng::{self, seeded};

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting what is requested of it while armed
/// (`perf/src/alloc.rs`, plus the largest single request).
struct Counting;

fn note(size: usize) {
    // Statistics only: nothing is published through these.
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LARGEST.fetch_max(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const M: usize = 256;
const H: usize = 8;
const TOKENS: usize = 128;
const LOCAL_EXPERTS: usize = 2;
const STEPS: usize = 7;
const WARM_UP: usize = 3;

fn layer(h: &RankHandle) -> DistributedMoeLayer {
    let p = h.world_size();
    let gate = TopKGate::new(M, p * LOCAL_EXPERTS, K, 1.25, &mut seeded(7));
    let experts: Vec<Box<dyn Expert>> = (0..LOCAL_EXPERTS)
        .map(|e| {
            let global = (h.rank() * LOCAL_EXPERTS + e) as u64;
            Box::new(FfExpert::new(M, H, &mut seeded(100 + global))) as Box<dyn Expert>
        })
        .collect();
    DistributedMoeLayer::new(gate, experts, Box::new(Fp16Compressor), Box::new(NcclA2A))
        .with_partition_degree(2)
}

/// Top-k of the gate: every token is sent to `K` experts.
const K: usize = 2;

#[test]
fn a_steady_state_step_reuses_its_buffers() {
    let per_step = Fabric::run_on(TransportKind::Channel, Topology::new(1, 2), |mut h| {
        let me = h.rank();
        let mut layer = layer(&h);
        let live = vec![true; h.world_size()];
        let mut replicated = vec![0.5f32; 4096];
        let x = rng::uniform(&[TOKENS, M], 1.0, &mut seeded(me as u64));
        let mut counted = Vec::new();
        for step in 0..STEPS {
            h.barrier();
            if me == 0 {
                BYTES.store(0, Ordering::Relaxed);
                LARGEST.store(0, Ordering::Relaxed);
                ARMED.store(true, Ordering::Relaxed);
            }
            h.barrier();
            let tag = step as u64 * TAG_STRIDE;
            distributed_full_step(&mut h, &mut layer, &x, tag, &mut replicated, &live).unwrap();
            h.barrier();
            if me == 0 {
                ARMED.store(false, Ordering::Relaxed);
                let (bytes, largest) = (&BYTES, &LARGEST);
                counted.push((
                    bytes.load(Ordering::Relaxed),
                    largest.load(Ordering::Relaxed),
                ));
            }
        }
        counted
    });
    // Both ranks' requests are counted. The quietest step after warm-up is
    // the steady state: a pool may still miss once in a while (which block
    // is free depends on how the two workers interleave), a staging copy
    // that came back would be in every step.
    let first = per_step[0][0].0;
    let &(bytes, largest) = per_step[0][WARM_UP..].iter().min().expect("steps remain");
    // What a step still allocates at tensor scale, whole world: per rank
    // the two `[TOKENS, M]` tensors it hands out, `y` and `dx`. Everything
    // else of that scale is recycled — gathered rows, encoded chunks,
    // frames, received records, decoded rows, the expert bodies' outputs,
    // saved activations and input grads, the backward's cache, the gate's
    // weight grads and `dx` — or kept in storage the gate and the bodies
    // retain across steps (the gate's input, their scratch). What is left
    // beyond that list is bookkeeping (routing lists, the gate's logits,
    // task closures), under one output's worth; the smallest staging copy
    // that could come back (one leg's fp16 chunks, two outputs' worth)
    // exceeds it.
    let output = (TOKENS * M * 4) as u64;
    let itemised = 2 * 2 * output;
    let bookkeeping = output;
    assert!(
        bytes <= itemised + bookkeeping,
        "a steady-state step requested {bytes} B (the first: {first} B); the tensors it \
         hands out account for {itemised} B and bookkeeping for at most {bookkeeping} B more"
    );
    assert!(
        bytes * 2 <= first,
        "the first step ({first} B) sizes the pools"
    );
    assert!(
        largest <= output,
        "a steady-state step made a single request of {largest} B, more than one \
         [{TOKENS}, {M}] output ({output} B)"
    );
}
