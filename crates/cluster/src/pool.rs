//! Recycled buffers: the free list every hop of the data path draws from.
//!
//! The ownership rule of the data path is *a buffer belongs to whoever
//! holds its last reference and goes home when that reference drops*. A
//! [`Pool`] is the home: a mutex-guarded free list of vectors, handed out
//! best-fit by capacity and taken back when their user is done. The byte
//! pool of a rank ([`BufPool`]) hands its vectors out inside a [`FrameBuf`]
//! guard, so "done" is the guard's `Drop` — including the drop of the last
//! clone or slice of a [`Bytes`] frozen from it, on whichever thread that
//! happens. A steady-state step therefore asks the allocator for nothing:
//! it re-uses the blocks of the step before.
//!
//! What a pool keeps is bounded without a knob: free capacity is capped at
//! [`RETAIN_FACTOR`] times the most that was ever checked out at once (one
//! step's high-water, in a training loop); past the cap the smallest free
//! blocks are released to the allocator.

use std::mem::size_of;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

/// Free capacity a pool may keep, as a multiple of its checked-out
/// high-water mark.
pub const RETAIN_FACTOR: usize = 2;

/// A fresh block's capacity is rounded up to this many bytes, past an
/// eighth of slack: a step whose chunk sizes wander by a few percent
/// still finds last step's blocks big enough.
const GRANULE_BYTES: usize = 4096;

/// A recycling free list of `Vec<T>`. Clones share the list.
#[derive(Clone, Default)]
pub struct Pool<T> {
    shelf: Arc<Mutex<Shelf<T>>>,
}

/// The free list and its accounting, in elements of `T`.
#[derive(Default)]
struct Shelf<T> {
    free: Vec<Vec<T>>,
    /// Summed capacity of `free`.
    retained: usize,
    /// Summed capacity currently checked out, and the most it has been.
    in_use: usize,
    high_water: usize,
}

impl<T: Copy + Default> Pool<T> {
    /// Checks out a vector of exactly `len` elements whose **contents are
    /// unspecified** — a recycled block still holds whatever its last user
    /// wrote, so the caller must overwrite every element it will read.
    /// Best fit: the smallest free block that holds `len` and is at most
    /// four times what a fresh one would be; a fresh block otherwise.
    pub fn take(&self, len: usize) -> Vec<T> {
        let granule = GRANULE_BYTES / size_of::<T>();
        let fresh = (len + len / 8).next_multiple_of(granule).max(granule);
        let recycled = {
            let mut shelf = self.shelf.lock();
            let fits = |cap: usize| cap >= len && cap <= 4 * fresh;
            let best = (0..shelf.free.len())
                .filter(|&i| fits(shelf.free[i].capacity()))
                .min_by_key(|&i| shelf.free[i].capacity());
            let block = best.map(|i| shelf.free.swap_remove(i));
            if let Some(block) = &block {
                shelf.retained -= block.capacity();
            }
            shelf.in_use += block.as_ref().map_or(fresh, Vec::capacity);
            shelf.high_water = shelf.high_water.max(shelf.in_use);
            block
        };
        // A miss allocates outside the lock.
        let mut block = recycled.unwrap_or_else(|| Vec::with_capacity(fresh));
        // Shrinking touches nothing; only growth past the old length fills.
        block.resize(len, T::default());
        block
    }

    /// Takes a block back. Past the retention cap — [`RETAIN_FACTOR`] times
    /// the high-water mark — the smallest free blocks (possibly this one)
    /// are released to the allocator.
    pub fn put(&self, block: Vec<T>) {
        let mut shelf = self.shelf.lock();
        shelf.in_use = shelf.in_use.saturating_sub(block.capacity());
        shelf.retained += block.capacity();
        shelf.free.push(block);
        while shelf.retained > RETAIN_FACTOR * shelf.high_water {
            let smallest = (0..shelf.free.len())
                .min_by_key(|&i| shelf.free[i].capacity())
                .expect("retained capacity implies a free block");
            shelf.retained -= shelf.free.swap_remove(smallest).capacity();
        }
    }

    /// `(checked out, free, the most free may be)`, in bytes of capacity.
    pub fn usage(&self) -> (usize, usize, usize) {
        let shelf = self.shelf.lock();
        let bytes = |elems: usize| elems * size_of::<T>();
        (
            bytes(shelf.in_use),
            bytes(shelf.retained),
            bytes(RETAIN_FACTOR * shelf.high_water),
        )
    }
}

/// A rank's pool of wire buffers.
pub type BufPool = Pool<u8>;

impl BufPool {
    /// Checks out a buffer of `len` bytes of unspecified content, the
    /// first `headroom` of them reserved for a frame header.
    pub fn checkout(&self, headroom: usize, len: usize) -> FrameBuf {
        FrameBuf {
            buf: self.take(len),
            headroom,
            pool: self.clone(),
        }
    }
}

/// A checked-out wire buffer: an outgoing payload under construction
/// behind `headroom` reserved bytes — so that sealing writes the frame
/// header *in place* in front of a payload that was encoded where it will
/// leave from — or a received record (no headroom). Dropping it, or the
/// last clone or slice of the [`Bytes`] it was [frozen](Self::freeze)
/// into, returns the bytes to their pool.
pub struct FrameBuf {
    buf: Vec<u8>,
    pub(crate) headroom: usize,
    pool: BufPool,
}

impl FrameBuf {
    /// The whole buffer. An outgoing payload is appended to it, and only
    /// appended: the bytes already there are the header room.
    pub fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Payload bytes so far.
    pub fn body_len(&self) -> usize {
        self.buf.len() - self.headroom
    }

    /// Makes the buffer immutable and shareable, copying nothing.
    pub fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }

    /// The payload alone, for a chunk that changes mailbox without
    /// touching the wire.
    pub fn into_payload(self) -> Bytes {
        let headroom = self.headroom;
        let all = self.freeze();
        all.slice(headroom..all.len())
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_returned_block_is_the_next_one_handed_out() {
        let pool: Pool<f32> = Pool::default();
        let block = pool.take(1000);
        let (ptr, cap) = (block.as_ptr(), block.capacity());
        assert!(cap >= 1125, "an eighth of slack, got {cap}");
        assert_eq!(pool.usage(), (cap * 4, 0, 2 * cap * 4));
        pool.put(block);
        assert_eq!(pool.usage(), (0, cap * 4, 2 * cap * 4));
        // A slightly larger request still fits; the length is exact.
        let again = pool.take(1100);
        assert_eq!((again.as_ptr(), again.len()), (ptr, 1100));
        assert_eq!(pool.usage().1, 0);
    }

    #[test]
    fn best_fit_leaves_the_big_block_for_the_big_request() {
        let pool = BufPool::default();
        let (small, big) = (pool.take(5000), pool.take(1 << 20));
        let (small_ptr, big_ptr) = (small.as_ptr(), big.as_ptr());
        pool.put(big);
        pool.put(small);
        let (small, big) = (pool.take(4000), pool.take(1 << 20));
        assert_eq!((small.as_ptr(), big.as_ptr()), (small_ptr, big_ptr));
        // With only the megabyte on the shelf, a 64-byte request gets a
        // fresh granule: nothing free is within 4x of what it needs.
        pool.put(big);
        assert_eq!(pool.take(64).capacity(), GRANULE_BYTES);
    }

    #[test]
    fn a_recycled_block_keeps_its_last_users_contents() {
        // Which is why every user overwrites what it reads: shrinking and
        // regrowing within the old length fills nothing.
        let pool: Pool<f32> = Pool::default();
        let mut block = pool.take(64);
        block.fill(7.0);
        pool.put(block);
        assert!(pool.take(48).iter().all(|&v| v == 7.0));
    }

    #[test]
    fn retention_is_capped_by_the_high_water_mark() {
        let pool = BufPool::default();
        // Ten blocks out one at a time: the high-water is one block, so at
        // most RETAIN_FACTOR blocks' worth stays on the shelf however many
        // distinct sizes pass through.
        for i in 0..10usize {
            let a = pool.take(100_000 * (i + 1));
            pool.put(a);
            let (_, retained, cap) = pool.usage();
            assert!(retained <= cap);
        }
        let (in_use, _, cap) = pool.usage();
        assert!(
            cap <= RETAIN_FACTOR * 1_200_000,
            "cap {cap} tracks the largest block"
        );
        assert_eq!(in_use, 0);
    }

    #[test]
    fn a_frozen_buffer_goes_home_when_its_last_window_drops() {
        let pool = BufPool::default();
        let mut buf = pool.checkout(0, 0);
        buf.body_mut().extend_from_slice(b"0123456789");
        let ptr = buf.as_ref().as_ptr();
        let whole = buf.freeze();
        let window = whole.slice(4..10);
        drop(whole);
        assert!(pool.usage().0 > 0);
        let on_thread = std::thread::spawn(move || assert_eq!(&window[..], b"456789"));
        on_thread.join().unwrap();
        assert_eq!(pool.usage().0, 0);
        let again = pool.take(8);
        assert_eq!(again.as_ptr(), ptr);
    }
}
