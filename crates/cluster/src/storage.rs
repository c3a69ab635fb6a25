//! Durable storage: one atomic-commit helper and seeded *filesystem*
//! fault injection ([`ChaosFs`], the storage sibling of
//! [`ChaosTransport`](crate::transport::ChaosTransport)).
//!
//! Every durable artifact the system writes — the snapshot shards and the
//! snapshot manifest — goes through one discipline:
//! **write a sibling tmp file, fsync it, rename it over the target, and
//! fsync the parent directory**. A reader therefore observes either the
//! old complete file or the new complete file, never a torn hybrid, and
//! a crash at any instant leaves at worst an orphaned `.tmp` sibling.
//! [`write_atomic`] is that discipline; nothing else in the tree is
//! allowed to hand-roll it.
//!
//! The discipline is only trustworthy if it is *tested against the
//! failures it claims to survive*, which is what [`ChaosFs`] is for. It
//! decorates any [`StorageFs`] and injects the storage fault lattice:
//!
//! * **Torn writes** — only a prefix of the bytes reaches the file and
//!   the write fails as if the process died mid-`write(2)`.
//! * **ENOSPC** — the write fails typed after a partial prefix, the
//!   disk-full case that must not poison previously committed data.
//! * **Bitrot** — the write *succeeds* but one byte is silently flipped:
//!   the corruption class only an end-to-end checksum can catch, which
//!   is why every durable payload is CRC-sealed and parse-verified
//!   before any state is touched.
//! * **Crash-before-rename** — the rename fails and the tmp file is
//!   left orphaned, the exact window the atomic-commit rule exists for:
//!   the target keeps its previous committed content.
//!
//! # Determinism
//!
//! As with [`ChaosPlan`](crate::transport::ChaosPlan), every decision is
//! a pure function of `(seed, salt, per-op-kind index, fault kind)` via
//! the splitmix64 finalizer — no RNG state, no wall clock — so a storage
//! chaos campaign replays bit-identically from its seed. `salt` is the
//! decorator owner's identity (rank, in practice) so different ranks
//! draw independent lotteries from one shared plan, while index
//! *windows* hit every salt alike — the deterministic way to guarantee
//! a campaign exercises, say, a crash-before-rename on the third
//! rename no matter which rank performs it.
//!
//! Faults apply to *mutating* ops only (`write`, `rename`): reads are
//! never altered, so whatever a chaos run leaves on disk is exactly what
//! a later restore observes.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::faults::splitmix64;

/// The filesystem surface durable artifacts go through. Object-safe so
/// [`ChaosFs`] can decorate any backend.
pub trait StorageFs: Send + Sync {
    /// Creates (or truncates) `path`, writes `bytes`, and makes the file
    /// itself durable (fsync) before returning.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` over `to` and makes the *directory entry* durable
    /// (fsync of the parent) before returning.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Reads the full contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the entries of `dir`, sorted by file name for determinism.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Recursively creates `dir`.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem, with the fsync discipline the trait promises.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl RealFs {
    fn sync_parent(path: &Path) -> io::Result<()> {
        // Directory fsync is what makes a rename durable on POSIX; on
        // platforms where opening a directory fails, the rename itself
        // is the best available barrier.
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = File::open(parent) {
                    dir.sync_all()?;
                }
            }
        }
        Ok(())
    }
}

impl StorageFs for RealFs {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        Self::sync_parent(to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        out.sort();
        Ok(out)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
}

/// The tmp sibling `write_atomic` stages through: the target's file name
/// with `.tmp` appended (appended, not substituted, so targets with
/// meaningful extensions never collide).
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The one durable-commit helper: write-tmp → fsync → rename → fsync
/// parent. On success the target holds exactly `bytes`; on failure the
/// target is untouched (at worst a `.tmp` sibling is orphaned, which
/// readers ignore and a later commit overwrites).
pub fn write_atomic(fs: &dyn StorageFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    fs.write(&tmp, bytes)?;
    fs.rename(&tmp, path)
}

/// What the plan decided for one concrete write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    /// Write completes and is durable.
    Ok,
    /// Only a prefix reaches the file; the call fails as a mid-write
    /// crash would.
    Torn,
    /// Disk full: a prefix reaches the file and the call fails typed.
    Enospc,
    /// The write "succeeds" but one byte is silently flipped — the case
    /// only an end-to-end CRC catches.
    Bitrot,
}

/// What the plan decided for one concrete rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameFate {
    /// Rename commits.
    Ok,
    /// The process "crashed" before the rename: the call fails and the
    /// tmp file is left orphaned, target untouched.
    Crash,
}

/// A seeded, replayable description of how *storage* misbehaves.
///
/// Windows are half-open index ranges `[start, end)` over the
/// decorator's per-op-kind counter (the n-th write, the n-th rename) and
/// hit every salt alike; the per-kind probability lotteries are keyed by
/// `(seed, salt, kind, idx)` so different ranks draw independently.
#[derive(Debug, Clone, Default)]
pub struct ChaosFsPlan {
    seed: u64,
    torn: Vec<(u64, u64)>,
    enospc: Vec<(u64, u64)>,
    bitrot: Vec<(u64, u64)>,
    crash_rename: Vec<(u64, u64)>,
    torn_prob: f64,
    enospc_prob: f64,
    bitrot_prob: f64,
    crash_rename_prob: f64,
}

/// Lottery lanes, one per fault kind, so the draws never correlate.
const LANE_TORN: u64 = 0;
const LANE_ENOSPC: u64 = 1;
const LANE_BITROT: u64 = 2;
const LANE_CRASH: u64 = 3;
/// Lane for choosing *which* byte bitrot flips.
const LANE_BITPOS: u64 = 4;

impl ChaosFsPlan {
    /// A plan with the given replay seed and no faults configured yet.
    pub fn seeded(seed: u64) -> Self {
        ChaosFsPlan {
            seed,
            ..ChaosFsPlan::default()
        }
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Tears writes with index in `[start, end)`.
    pub fn torn_write_window(mut self, start: u64, end: u64) -> Self {
        self.torn.push((start, end));
        self
    }

    /// Fails writes with index in `[start, end)` with ENOSPC.
    pub fn enospc_window(mut self, start: u64, end: u64) -> Self {
        self.enospc.push((start, end));
        self
    }

    /// Silently flips one byte of writes with index in `[start, end)`.
    pub fn bitrot_window(mut self, start: u64, end: u64) -> Self {
        self.bitrot.push((start, end));
        self
    }

    /// Fails renames with index in `[start, end)`, orphaning the tmp —
    /// the crash-before-rename window.
    pub fn crash_rename_window(mut self, start: u64, end: u64) -> Self {
        self.crash_rename.push((start, end));
        self
    }

    /// Sets the per-write fault lotteries (torn / ENOSPC / bitrot).
    pub fn with_write_probs(mut self, torn: f64, enospc: f64, bitrot: f64) -> Self {
        self.torn_prob = torn;
        self.enospc_prob = enospc;
        self.bitrot_prob = bitrot;
        self
    }

    /// Sets the per-rename crash lottery.
    pub fn with_crash_rename_prob(mut self, p: f64) -> Self {
        self.crash_rename_prob = p;
        self
    }

    fn in_window(windows: &[(u64, u64)], idx: u64) -> bool {
        windows.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// Decides the fate of the `idx`-th write by the decorator salted
    /// with `salt`. Pure in `(plan, salt, idx)`. Precedence: torn >
    /// ENOSPC > bitrot; windows before lotteries.
    pub fn decide_write(&self, salt: u64, idx: u64) -> WriteFate {
        if Self::in_window(&self.torn, idx) {
            return WriteFate::Torn;
        }
        if Self::in_window(&self.enospc, idx) {
            return WriteFate::Enospc;
        }
        if Self::in_window(&self.bitrot, idx) {
            return WriteFate::Bitrot;
        }
        if self.torn_prob > 0.0 && self.roll(salt, LANE_TORN, idx) < self.torn_prob {
            return WriteFate::Torn;
        }
        if self.enospc_prob > 0.0 && self.roll(salt, LANE_ENOSPC, idx) < self.enospc_prob {
            return WriteFate::Enospc;
        }
        if self.bitrot_prob > 0.0 && self.roll(salt, LANE_BITROT, idx) < self.bitrot_prob {
            return WriteFate::Bitrot;
        }
        WriteFate::Ok
    }

    /// Decides the fate of the `idx`-th rename. Pure in
    /// `(plan, salt, idx)`.
    pub fn decide_rename(&self, salt: u64, idx: u64) -> RenameFate {
        if Self::in_window(&self.crash_rename, idx) {
            return RenameFate::Crash;
        }
        if self.crash_rename_prob > 0.0 && self.roll(salt, LANE_CRASH, idx) < self.crash_rename_prob
        {
            return RenameFate::Crash;
        }
        RenameFate::Ok
    }

    /// Which byte of a `len`-byte bitrotted write gets flipped. Pure.
    pub fn bitrot_position(&self, salt: u64, idx: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.key(salt, LANE_BITPOS, idx) % len as u64) as usize
    }

    fn key(&self, salt: u64, lane: u64, idx: u64) -> u64 {
        splitmix64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt << 48)
                .wrapping_add(idx.wrapping_mul(8).wrapping_add(lane)),
        )
    }

    /// A uniform roll in `[0, 1)` keyed by the op identity — the same
    /// splitmix64 finalizer discipline as the transport chaos plan.
    fn roll(&self, salt: u64, lane: u64, idx: u64) -> f64 {
        (self.key(salt, lane, idx) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Wraps any [`StorageFs`] in a [`ChaosFsPlan`].
///
/// One decorator per writer (per rank, in practice), salted with the
/// writer's identity. Mutating ops consult the plan; reads, listing, and
/// directory creation delegate untouched — whatever chaos leaves on disk
/// is exactly what a restore later observes.
pub struct ChaosFs {
    inner: Box<dyn StorageFs>,
    plan: Arc<ChaosFsPlan>,
    salt: u64,
    writes: AtomicU64,
    renames: AtomicU64,
}

impl ChaosFs {
    /// Wraps `inner` in `plan`, drawing lotteries for writer `salt`.
    pub fn new(inner: Box<dyn StorageFs>, plan: Arc<ChaosFsPlan>, salt: u64) -> Self {
        ChaosFs {
            inner,
            plan,
            salt,
            writes: AtomicU64::new(0),
            renames: AtomicU64::new(0),
        }
    }
}

impl StorageFs for ChaosFs {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let idx = self.writes.fetch_add(1, Ordering::Relaxed);
        match self.plan.decide_write(self.salt, idx) {
            WriteFate::Ok => self.inner.write(path, bytes),
            WriteFate::Torn => {
                let _ = self.inner.write(path, &bytes[..bytes.len() / 2]);
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "chaosfs: torn write (simulated crash mid-write)",
                ))
            }
            WriteFate::Enospc => {
                let _ = self.inner.write(path, &bytes[..bytes.len() / 2]);
                Err(io::Error::other("chaosfs: no space left on device"))
            }
            WriteFate::Bitrot => {
                let mut rotted = bytes.to_vec();
                if !rotted.is_empty() {
                    let pos = self.plan.bitrot_position(self.salt, idx, rotted.len());
                    rotted[pos] ^= 0x40;
                }
                self.inner.write(path, &rotted)
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let idx = self.renames.fetch_add(1, Ordering::Relaxed);
        match self.plan.decide_rename(self.salt, idx) {
            RenameFate::Ok => self.inner.rename(from, to),
            RenameFate::Crash => Err(io::Error::other("chaosfs: crash before rename")),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh per-test scratch directory under the system tmp root.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("schemoe-storage-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn decisions_are_pure_in_the_key() {
        let plan = ChaosFsPlan::seeded(11)
            .torn_write_window(2, 4)
            .crash_rename_window(1, 2)
            .with_write_probs(0.1, 0.1, 0.1)
            .with_crash_rename_prob(0.2);
        for salt in 0..4u64 {
            for idx in 0..64 {
                assert_eq!(
                    plan.decide_write(salt, idx),
                    plan.decide_write(salt, idx),
                    "write decision not stable for ({salt},{idx})"
                );
                assert_eq!(
                    plan.decide_rename(salt, idx),
                    plan.decide_rename(salt, idx),
                    "rename decision not stable for ({salt},{idx})"
                );
            }
        }
    }

    #[test]
    fn windows_are_half_open_and_precedence_holds() {
        let plan = ChaosFsPlan::seeded(1)
            .torn_write_window(3, 5)
            .enospc_window(4, 6)
            .bitrot_window(5, 7);
        assert_eq!(plan.decide_write(0, 2), WriteFate::Ok);
        assert_eq!(plan.decide_write(0, 3), WriteFate::Torn);
        assert_eq!(plan.decide_write(0, 4), WriteFate::Torn);
        assert_eq!(plan.decide_write(0, 5), WriteFate::Enospc);
        assert_eq!(plan.decide_write(0, 6), WriteFate::Bitrot);
        assert_eq!(plan.decide_write(0, 7), WriteFate::Ok);
    }

    #[test]
    fn lotteries_are_salt_dependent_and_roughly_honoured() {
        let plan = ChaosFsPlan::seeded(7).with_write_probs(0.25, 0.0, 0.0);
        let n = 10_000u64;
        let torn = (0..n)
            .filter(|&i| plan.decide_write(0, i) == WriteFate::Torn)
            .count();
        let rate = torn as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "torn rate {rate} far from 0.25");
        let seq = |salt: u64| -> Vec<WriteFate> {
            (0..256).map(|i| plan.decide_write(salt, i)).collect()
        };
        assert_ne!(seq(0), seq(1), "salts must draw independent lotteries");
    }

    #[test]
    fn torn_write_leaves_a_prefix_and_fails() {
        let dir = scratch("torn");
        let fs = ChaosFs::new(
            Box::new(RealFs),
            Arc::new(ChaosFsPlan::seeded(2).torn_write_window(0, 1)),
            0,
        );
        let path = dir.join("artifact");
        let err = fs.write(&path, &[7u8; 64]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(fs.read(&path).unwrap(), vec![7u8; 32]);
        // The next write is outside the window and heals the file.
        fs.write(&path, &[9u8; 64]).unwrap();
        assert_eq!(fs.read(&path).unwrap(), vec![9u8; 64]);
    }

    #[test]
    fn bitrot_flips_exactly_one_byte_and_reports_success() {
        let dir = scratch("bitrot");
        let fs = ChaosFs::new(
            Box::new(RealFs),
            Arc::new(ChaosFsPlan::seeded(3).bitrot_window(0, 1)),
            0,
        );
        let path = dir.join("artifact");
        let clean = vec![0u8; 128];
        fs.write(&path, &clean).unwrap();
        let rotted = fs.read(&path).unwrap();
        assert_eq!(rotted.len(), clean.len());
        let flipped: Vec<usize> = (0..clean.len())
            .filter(|&i| rotted[i] != clean[i])
            .collect();
        assert_eq!(flipped.len(), 1, "exactly one byte must differ");
    }

    #[test]
    fn crash_before_rename_orphans_tmp_and_keeps_the_old_target() {
        let dir = scratch("crash-rename");
        let path = dir.join("artifact");
        write_atomic(&RealFs, &path, b"generation-1").unwrap();
        let fs = ChaosFs::new(
            Box::new(RealFs),
            Arc::new(ChaosFsPlan::seeded(4).crash_rename_window(0, 1)),
            0,
        );
        assert!(write_atomic(&fs, &path, b"generation-2").is_err());
        // Old committed content survives; the tmp sibling is orphaned.
        assert_eq!(fs.read(&path).unwrap(), b"generation-1");
        assert_eq!(fs.read(&tmp_sibling(&path)).unwrap(), b"generation-2");
        // The next commit is outside the window and goes through.
        write_atomic(&fs, &path, b"generation-3").unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"generation-3");
    }

    #[test]
    fn write_atomic_commits_and_leaves_no_tmp_on_success() {
        let dir = scratch("atomic");
        let path = dir.join("store.bin");
        write_atomic(&RealFs, &path, b"payload").unwrap();
        assert_eq!(RealFs.read(&path).unwrap(), b"payload");
        assert!(!tmp_sibling(&path).exists());
        // tmp naming appends rather than replacing the extension, so
        // distinct targets never share a staging file.
        assert_eq!(
            tmp_sibling(Path::new("/x/a.bin")),
            PathBuf::from("/x/a.bin.tmp")
        );
    }

    #[test]
    fn list_is_sorted_and_reads_pass_through_chaos() {
        let dir = scratch("list");
        let fs = ChaosFs::new(Box::new(RealFs), Arc::new(ChaosFsPlan::seeded(5)), 0);
        fs.write(&dir.join("b"), b"b").unwrap();
        fs.write(&dir.join("a"), b"a").unwrap();
        let names: Vec<String> = fs
            .list(&dir)
            .unwrap()
            .iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(fs.read(&dir.join("a")).unwrap(), b"a");
        fs.remove(&dir.join("a")).unwrap();
        assert!(!dir.join("a").exists());
    }
}
