//! Shared-memory transport: one host, ranks as OS processes, links as
//! single-producer single-consumer ring buffers in `/dev/shm`.
//!
//! A session is a directory of plain files on a tmpfs (falling back to
//! the system temp dir when `/dev/shm` is absent):
//!
//! * `board` — one 64-byte slot per rank: a dead flag (the cluster
//!   liveness board), a done flag (set when the rank's endpoint drops,
//!   the analogue of a dropped channel), a barrier generation counter,
//!   and the attached process id.
//! * `link_{src}_{dst}` — one ring per directed link: a producer cursor
//!   (`head`, bytes ever written) at offset 0, a consumer cursor
//!   (`tail`, bytes ever read) at offset 64 — separate cache lines —
//!   and a byte-wrapped data region from offset 128. Records are
//!   `[tag u64-le][len u64-le][payload]`.
//!
//! Ranks access the files with positioned reads and writes
//! ([`std::os::unix::fs::FileExt`]); on a tmpfs these hit the shared
//! page cache directly, so the files *are* the shared memory — no
//! copies touch a disk. (A true `mmap` would shave the syscall per
//! access, but needs `libc`, which this workspace does not vendor; the
//! page-cache path keeps the backend std-only.) Cursors are 8-byte
//! aligned single-word writes, which Linux performs atomically through
//! the page cache, and each ring has exactly one producer and one
//! consumer, so `head`/`tail` publication needs no locks: a producer
//! writes payload bytes first and publishes `head` last, a consumer
//! reads payload first and publishes `tail` last.
//!
//! Real process death is detected by liveness-probing the registered
//! pid via `/proc/<pid>`: a vanished producer turns the link into
//! [`RawRecvError::Disconnected`], the same typed signal a dropped
//! channel gives in-process. Ring capacity defaults to 8 MiB per link
//! (sparse until touched) and is overridable via `SCHEMOE_SHM_RING_CAP`.

use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use super::{LinkClosed, RawRecvError, Transport};
use crate::pool::BufPool;
use crate::topology::Rank;

/// Per-rank slot size in the board file.
const SLOT: u64 = 64;
/// Slot offsets: dead flag, done flag, barrier generation, pid.
const SLOT_DEAD: u64 = 0;
const SLOT_DONE: u64 = 1;
const SLOT_GEN: u64 = 8;
const SLOT_PID: u64 = 16;

/// Ring file offsets: producer cursor, consumer cursor, data region.
const HEAD_OFF: u64 = 0;
const TAIL_OFF: u64 = 64;
const DATA_OFF: u64 = 128;
/// Record header: `[tag u64][len u64]`.
const REC_HEADER: u64 = 16;

/// Poll interval while a ring is empty or full.
const POLL: Duration = Duration::from_micros(100);
/// Empty polls between `/proc/<pid>` liveness probes (~6 ms apart).
const PID_PROBE_EVERY: u32 = 64;

/// Default per-link ring capacity; the file is sparse until touched.
const DEFAULT_RING_CAP: u64 = 8 * 1024 * 1024;

fn ring_cap() -> u64 {
    std::env::var("SCHEMOE_SHM_RING_CAP")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(DEFAULT_RING_CAP, |c| c.max(4096))
}

fn board_path(dir: &Path) -> PathBuf {
    dir.join("board")
}

fn link_path(dir: &Path, src: Rank, dst: Rank) -> PathBuf {
    dir.join(format!("link_{src}_{dst}"))
}

/// Creates a session directory with the board and all p×p link rings.
/// The launcher calls this once before spawning workers; in-process
/// meshes call it through [`mesh`].
pub fn init_session(dir: &Path, world: usize) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let board = File::create(board_path(dir))?;
    board.set_len(world as u64 * SLOT)?;
    let cap = ring_cap();
    for src in 0..world {
        for dst in 0..world {
            let ring = File::create(link_path(dir, src, dst))?;
            ring.set_len(DATA_OFF + cap)?;
        }
    }
    Ok(())
}

/// The base directory for fresh sessions: a tmpfs when available.
pub fn session_base() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

/// Removes the session directory when the last in-process endpoint
/// drops.
struct SessionGuard {
    dir: PathBuf,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A shared-memory session to attach to as one rank.
pub struct ShmBootstrap {
    dir: PathBuf,
    rank: Rank,
    world: usize,
    guard: Option<Arc<SessionGuard>>,
}

impl ShmBootstrap {
    /// Attaches to an existing session (created by [`init_session`]).
    /// Used by spawned worker processes; `dir` outlives the bootstrap.
    pub fn new(dir: impl Into<PathBuf>, rank: Rank, world: usize) -> Self {
        ShmBootstrap {
            dir: dir.into(),
            rank,
            world,
            guard: None,
        }
    }

    /// Opens the session files and registers this process.
    pub fn attach(self) -> ShmTransport {
        ShmTransport::attach(self).expect("shm session attach")
    }
}

/// Builds an in-process session and returns one bootstrap per rank. The
/// session directory is removed when the last endpoint drops.
pub fn mesh(world: usize) -> Vec<ShmBootstrap> {
    static NEXT_SESSION: AtomicU64 = AtomicU64::new(0);
    let n = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    let dir = session_base().join(format!("schemoe-{}-{}", std::process::id(), n));
    init_session(&dir, world).expect("shm session init");
    let guard = Arc::new(SessionGuard { dir: dir.clone() });
    (0..world)
        .map(|rank| ShmBootstrap {
            dir: dir.clone(),
            rank,
            world,
            guard: Some(Arc::clone(&guard)),
        })
        .collect()
}

fn read_u64(file: &File, off: u64) -> u64 {
    let mut buf = [0u8; 8];
    file.read_exact_at(&mut buf, off).expect("shm read");
    u64::from_le_bytes(buf)
}

fn write_u64(file: &File, off: u64, v: u64) {
    file.write_all_at(&v.to_le_bytes(), off).expect("shm write");
}

fn read_flag(file: &File, off: u64) -> bool {
    let mut buf = [0u8; 1];
    file.read_exact_at(&mut buf, off).expect("shm read");
    buf[0] != 0
}

fn write_flag(file: &File, off: u64, v: bool) {
    file.write_all_at(&[v as u8], off).expect("shm write");
}

/// One directed link's ring file plus its capacity.
struct Ring {
    file: File,
    cap: u64,
}

impl Ring {
    fn open(path: &Path) -> io::Result<Ring> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        assert!(len > DATA_OFF, "ring file too small: {path:?}");
        Ok(Ring {
            file,
            cap: len - DATA_OFF,
        })
    }

    /// Copies `bytes` into the data region at logical cursor `pos`,
    /// wrapping at the capacity boundary.
    fn write_wrapped(&self, pos: u64, bytes: &[u8]) {
        let off = pos % self.cap;
        let first = ((self.cap - off) as usize).min(bytes.len());
        self.file
            .write_all_at(&bytes[..first], DATA_OFF + off)
            .expect("shm ring write");
        if first < bytes.len() {
            self.file
                .write_all_at(&bytes[first..], DATA_OFF)
                .expect("shm ring write");
        }
    }

    /// Fills `buf` from the data region at logical cursor `pos`.
    fn read_wrapped(&self, pos: u64, buf: &mut [u8]) {
        let off = pos % self.cap;
        let first = ((self.cap - off) as usize).min(buf.len());
        let (head, tail) = buf.split_at_mut(first);
        self.file
            .read_exact_at(head, DATA_OFF + off)
            .expect("shm ring read");
        self.file
            .read_exact_at(tail, DATA_OFF)
            .expect("shm ring read");
    }

    /// Appends one record if the ring has room; `false` means full.
    fn try_push(&self, tag: u64, payload: &[u8]) -> bool {
        let rec = REC_HEADER + payload.len() as u64;
        assert!(
            rec <= self.cap,
            "record of {} bytes exceeds the {}-byte ring; raise SCHEMOE_SHM_RING_CAP",
            payload.len(),
            self.cap
        );
        let head = read_u64(&self.file, HEAD_OFF);
        let tail = read_u64(&self.file, TAIL_OFF);
        if head - tail + rec > self.cap {
            return false;
        }
        let mut header = [0u8; REC_HEADER as usize];
        header[..8].copy_from_slice(&tag.to_le_bytes());
        header[8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        self.write_wrapped(head, &header);
        self.write_wrapped(head + REC_HEADER, payload);
        // Publish last: a consumer that observes the new head is
        // guaranteed to observe the record bytes (positioned writes from
        // one process are ordered through the page cache).
        write_u64(&self.file, HEAD_OFF, head + rec);
        true
    }

    /// Removes and returns the next record, if any, read straight into a
    /// buffer of `pool`. The ring file is shared, so its cursors and
    /// headers are not trusted: a record that overruns what the producer
    /// published breaks the link, before anything is allocated or
    /// consumed for it.
    fn try_pop(&self, pool: &BufPool) -> Result<Option<(u64, Bytes)>, RawRecvError> {
        let head = read_u64(&self.file, HEAD_OFF);
        let tail = read_u64(&self.file, TAIL_OFF);
        if head == tail {
            return Ok(None);
        }
        let published = head.checked_sub(tail).filter(|&n| n <= self.cap);
        let published = published.ok_or(RawRecvError::Disconnected)?;
        let mut header = [0u8; REC_HEADER as usize];
        self.read_wrapped(tail, &mut header);
        let (tag, len) = header.split_at(8);
        let tag = u64::from_le_bytes(tag.try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(len.try_into().expect("8 bytes"));
        let rec = REC_HEADER.checked_add(len).filter(|&rec| rec <= published);
        let rec = rec.ok_or(RawRecvError::Disconnected)?;
        let mut payload = pool.checkout(0, len as usize);
        self.read_wrapped(tail + REC_HEADER, payload.body_mut());
        write_u64(&self.file, TAIL_OFF, tail + rec);
        Ok(Some((tag, payload.freeze())))
    }
}

/// One rank's endpoint into a shared-memory session.
pub struct ShmTransport {
    rank: Rank,
    world: usize,
    board: File,
    /// Rings this rank produces into (`rank -> j`).
    send_rings: Vec<Ring>,
    /// Rings this rank consumes from (`i -> rank`).
    recv_rings: Vec<Ring>,
    /// Barrier generation this endpoint has entered.
    barrier_gen: Cell<u64>,
    /// Per-peer empty-poll counters driving pid liveness probes.
    probe_countdown: Vec<Cell<u32>>,
    pool: BufPool,
    _guard: Option<Arc<SessionGuard>>,
}

impl ShmTransport {
    fn attach(b: ShmBootstrap) -> io::Result<ShmTransport> {
        let board = OpenOptions::new()
            .read(true)
            .write(true)
            .open(board_path(&b.dir))?;
        let send_rings = (0..b.world)
            .map(|j| Ring::open(&link_path(&b.dir, b.rank, j)))
            .collect::<io::Result<Vec<_>>>()?;
        let recv_rings = (0..b.world)
            .map(|i| Ring::open(&link_path(&b.dir, i, b.rank)))
            .collect::<io::Result<Vec<_>>>()?;
        let slot = b.rank as u64 * SLOT;
        // A respawned process re-attaching as a rejoiner resumes the
        // slot: it is producing again (clear done) but stays on the dead
        // board until the rejoin protocol re-admits it.
        write_flag(&board, slot + SLOT_DONE, false);
        write_u64(&board, slot + SLOT_PID, std::process::id() as u64);
        let gen = read_u64(&board, slot + SLOT_GEN);
        Ok(ShmTransport {
            rank: b.rank,
            world: b.world,
            board,
            send_rings,
            recv_rings,
            barrier_gen: Cell::new(gen),
            probe_countdown: (0..b.world).map(|_| Cell::new(PID_PROBE_EVERY)).collect(),
            pool: BufPool::default(),
            _guard: b.guard,
        })
    }

    fn slot(&self, rank: Rank) -> u64 {
        rank as u64 * SLOT
    }

    fn done(&self, rank: Rank) -> bool {
        read_flag(&self.board, self.slot(rank) + SLOT_DONE)
    }

    /// True when `rank`'s registered process has vanished from the host.
    /// Skipped for in-process peers (same pid) and unregistered slots.
    fn process_gone(&self, rank: Rank) -> bool {
        let pid = read_u64(&self.board, self.slot(rank) + SLOT_PID);
        if pid == 0 || pid == std::process::id() as u64 {
            return false;
        }
        !Path::new(&format!("/proc/{pid}")).exists()
    }
}

impl Transport for ShmTransport {
    fn world_size(&self) -> usize {
        self.world
    }

    fn send_raw(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), LinkClosed> {
        let ring = &self.send_rings[to];
        loop {
            if ring.try_push(tag, &payload) {
                return Ok(());
            }
            // Backpressure: the ring is full. A consumer that is done or
            // whose process is gone will never drain it.
            if self.done(to) || self.process_gone(to) {
                return Err(LinkClosed);
            }
            std::thread::sleep(POLL);
        }
    }

    fn recv_raw(
        &self,
        from: Rank,
        timeout: Option<Duration>,
    ) -> Result<(u64, Bytes), RawRecvError> {
        let ring = &self.recv_rings[from];
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(rec) = ring.try_pop(&self.pool)? {
                return Ok(rec);
            }
            // Empty and the producer will never push again: the typed
            // fast-fail a dropped channel gives in-process. The producer
            // sets the flag *after* its last push, so a record published
            // between the pop above and this read is still in the ring:
            // poll once more before declaring the link drained.
            if self.done(from) {
                return ring.try_pop(&self.pool)?.ok_or(RawRecvError::Disconnected);
            }
            let countdown = &self.probe_countdown[from];
            countdown.set(countdown.get().saturating_sub(1));
            if countdown.get() == 0 {
                countdown.set(PID_PROBE_EVERY);
                if self.process_gone(from) {
                    // A SIGKILLed producer: post it dead so every peer's
                    // deadline checks fail fast, then surface the same
                    // signal its closed channel would have.
                    self.post_death(from);
                    write_flag(&self.board, self.slot(from) + SLOT_DONE, true);
                    return ring.try_pop(&self.pool)?.ok_or(RawRecvError::Disconnected);
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(RawRecvError::Timeout);
                }
            }
            std::thread::sleep(POLL);
        }
    }

    fn pool(&self) -> BufPool {
        self.pool.clone()
    }

    fn barrier(&self) {
        let gen = self.barrier_gen.get() + 1;
        self.barrier_gen.set(gen);
        write_u64(&self.board, self.slot(self.rank) + SLOT_GEN, gen);
        for r in 0..self.world {
            while read_u64(&self.board, self.slot(r) + SLOT_GEN) < gen {
                std::thread::sleep(POLL);
            }
        }
    }

    fn post_death(&self, rank: Rank) {
        if rank < self.world {
            write_flag(&self.board, self.slot(rank) + SLOT_DEAD, true);
        }
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        rank < self.world && read_flag(&self.board, self.slot(rank) + SLOT_DEAD)
    }

    fn clear_death(&self, rank: Rank) {
        if rank < self.world {
            write_flag(&self.board, self.slot(rank) + SLOT_DEAD, false);
        }
    }

    fn always_framed(&self) -> bool {
        true
    }

    fn reconnectable(&self) -> bool {
        true
    }
}

impl Drop for ShmTransport {
    fn drop(&mut self) {
        // The analogue of dropping channel endpoints: peers' receives
        // drain what was queued, then fail typed instead of hanging.
        write_flag(&self.board, self.slot(self.rank) + SLOT_DONE, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Publishes a bare record header `[tag][len]` on the `0 -> 1` ring,
    /// with `extra` bytes of payload behind it, then lets rank 1 receive.
    fn recv_after_header(len: u64, extra: u64) -> Result<(u64, Bytes), RawRecvError> {
        let mut ends = mesh(2).into_iter().map(ShmBootstrap::attach);
        let (_producer, consumer) = (ends.next().unwrap(), ends.next().unwrap());
        let ring = &consumer.recv_rings[0];
        let mut header = [0u8; REC_HEADER as usize];
        header[..8].copy_from_slice(&7u64.to_le_bytes());
        header[8..].copy_from_slice(&len.to_le_bytes());
        ring.write_wrapped(0, &header);
        write_u64(&ring.file, HEAD_OFF, REC_HEADER + extra);
        consumer.recv_raw(0, Some(Duration::from_millis(50)))
    }

    #[test]
    fn a_record_header_that_overruns_the_published_bytes_breaks_the_link() {
        // An honest header for the bytes published is a record.
        let (tag, payload) = recv_after_header(3, 3).expect("an honest record");
        assert_eq!((tag, payload.len()), (7, 3));
        // A header claiming more than the producer published — a byte
        // more, the whole ring, or a length that overflows the cursor —
        // is damage: a typed error, never an allocation or a panic.
        for len in [4, DEFAULT_RING_CAP, u64::MAX] {
            let got = recv_after_header(len, 3).map(|(tag, _)| tag);
            assert_eq!(got, Err(RawRecvError::Disconnected), "len {len}");
        }
    }

    #[test]
    fn cursors_out_of_order_break_the_link() {
        let mut ends = mesh(2).into_iter().map(ShmBootstrap::attach);
        let (_producer, consumer) = (ends.next().unwrap(), ends.next().unwrap());
        let ring = &consumer.recv_rings[0];
        write_u64(&ring.file, TAIL_OFF, 64);
        write_u64(&ring.file, HEAD_OFF, 32);
        let got = consumer.recv_raw(0, Some(Duration::from_millis(50)));
        assert_eq!(got.map(|(tag, _)| tag), Err(RawRecvError::Disconnected));
    }
}
