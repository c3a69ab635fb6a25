//! Durable snapshot formats: the generation-numbered, CRC-sealed shard
//! each rank persists and the manifest that commits a generation.
//!
//! This module is the *byte layout* only — pure functions from structs
//! to sealed buffers and back, with no filesystem dependency — so the
//! same codecs serve the training loop's snapshot writer, the restore
//! path, and the proptest suite that attacks them with truncation and
//! bitrot. Durability (write-tmp → fsync → rename) lives in
//! `schemoe-cluster::storage`; the commit *rule* lives in the training
//! loop: a manifest for generation `g` is written only after every
//! shard of `g` has acked durable, so a reader that finds a manifest
//! may trust the generation is complete, and an interrupted generation
//! is never loadable because its manifest never existed.
//!
//! A shard carries everything one rank needs to resume: the replicated
//! parameter payload (identical across ranks at a committed step), the
//! rank's own expert payload, and the buddy-replica payloads it hosts
//! for its wards. The hosted replicas are what make a *damaged* shard
//! survivable: if rank `r`'s shard is missing or corrupt, any valid
//! shard supplies the replicated half and the shard of `r`'s buddy
//! supplies `r`'s expert — FoMoE's partial-replication insight applied
//! to disk.
//!
//! Both codecs are [`record`](schemoe_compression::record)s: structural
//! parse first (so short reads surface as [`RecordError::Truncated`]), then
//! the trailing CRC32 seal is checked before anything is returned — a
//! decoded value is bit-exact or it does not exist.

use schemoe_compression::record::{Reader, RecordError, Writer};

use crate::checkpoint::crc32;

const SHARD_MAGIC: &[u8; 4] = b"SMSH";
const MANIFEST_MAGIC: &[u8; 4] = b"SMMF";
const VERSION: u32 = 1;

/// One hosted buddy replica embedded in a shard: the latest verified
/// expert payload of ward `ward`, as of replication quantum `quantum`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReplica {
    /// The rank whose expert this replica restores.
    pub ward: u32,
    /// The replication quantum the payload is current as of.
    pub quantum: u64,
    /// A sealed checkpoint payload of the ward's expert state.
    pub payload: Vec<u8>,
}

/// One rank's durable snapshot shard for one generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Monotone snapshot generation this shard belongs to.
    pub generation: u64,
    /// The rank that wrote the shard.
    pub rank: u32,
    /// World size at snapshot time.
    pub world: u32,
    /// The committed training step the state is exact at.
    pub step: u64,
    /// The job seed, so a resume refuses state from a different run.
    pub seed: u64,
    /// Sealed checkpoint payload of the replicated parameters
    /// (embedding, gate, head) — identical across ranks at a committed
    /// step.
    pub replicated: Vec<u8>,
    /// Sealed checkpoint payload of this rank's own expert weights.
    pub expert: Vec<u8>,
    /// Buddy replicas this rank hosts, one per ward.
    pub replicas: Vec<ShardReplica>,
}

impl Shard {
    /// Serializes the shard into a CRC-sealed buffer.
    pub fn encode(&self) -> Vec<u8> {
        // Sized up front: the sections are megabytes, and a buffer that
        // doubles its way there copies them again.
        let replicas: usize = self.replicas.iter().map(|r| 16 + r.payload.len()).sum();
        let mut w = Writer::sealed(
            SHARD_MAGIC,
            VERSION,
            44 + self.replicated.len() + self.expert.len() + replicas,
        );
        w.u64(self.generation).u32(self.rank).u32(self.world);
        w.u64(self.step).u64(self.seed);
        w.section(&self.replicated).section(&self.expert);
        w.u32(self.replicas.len() as u32);
        for r in &self.replicas {
            w.u32(r.ward).u64(r.quantum).section(&r.payload);
        }
        w.seal()
    }

    /// Parses and verifies a shard buffer. Returns the shard only if it
    /// is structurally complete *and* its CRC seal matches.
    pub fn decode(payload: &[u8]) -> Result<Shard, RecordError> {
        let mut r = Reader::sealed(payload, SHARD_MAGIC, VERSION)?;
        let (generation, rank, world) = (r.u64()?, r.u32()?, r.u32()?);
        let (step, seed) = (r.u64()?, r.u64()?);
        let replicated = r.section()?.to_vec();
        let expert = r.section()?.to_vec();
        let replicas = (0..r.count(16)?)
            .map(|_| {
                Ok(ShardReplica {
                    ward: r.u32()?,
                    quantum: r.u64()?,
                    payload: r.section()?.to_vec(),
                })
            })
            .collect::<Result<_, RecordError>>()?;
        r.finish()?;
        if rank >= world {
            return Err(RecordError::Mismatch {
                detail: format!("shard rank {rank} out of range for world {world}"),
            });
        }
        Ok(Shard {
            generation,
            rank,
            world,
            step,
            seed,
            replicated,
            expert,
            replicas,
        })
    }
}

/// One shard's entry in a manifest: enough to locate the file and to
/// verify, before any state is touched, that what is on disk is the
/// exact buffer whose durable ack the coordinator collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The rank whose shard this is.
    pub rank: u32,
    /// Shard file name, relative to the snapshot directory.
    pub name: String,
    /// Exact encoded length of the shard file.
    pub len: u32,
    /// CRC32 of the full shard file.
    pub crc: u32,
}

/// The commit record of one snapshot generation. Its *existence* is the
/// commit: the coordinator writes it atomically only after every listed
/// shard acked durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The generation this manifest commits.
    pub generation: u64,
    /// World size at snapshot time.
    pub world: u32,
    /// The committed training step the generation restores to.
    pub step: u64,
    /// The job seed; a resume refuses a manifest from a different run.
    pub seed: u64,
    /// One entry per participating rank.
    pub shards: Vec<ManifestEntry>,
    /// Encoded expert placement active at snapshot time (an opaque
    /// `PLMT` frame owned by the MoE layer), or empty for the static
    /// layout. Written as an optional trailing section: decoders accept
    /// manifests without it (older files read as static), and older
    /// decoders skip it unread — the seal covers it either way.
    pub placement: Vec<u8>,
}

impl Manifest {
    /// Serializes the manifest into a CRC-sealed buffer.
    pub fn encode(&self) -> Vec<u8> {
        let names: usize = self.shards.iter().map(|s| 16 + s.name.len()).sum();
        let mut w = Writer::sealed(MANIFEST_MAGIC, VERSION, 36 + names + self.placement.len());
        w.u64(self.generation).u32(self.world);
        w.u64(self.step).u64(self.seed);
        w.u32(self.shards.len() as u32);
        for s in &self.shards {
            w.u32(s.rank)
                .section(s.name.as_bytes())
                .u32(s.len)
                .u32(s.crc);
        }
        w.section(&self.placement).seal()
    }

    /// Parses and verifies a manifest buffer.
    pub fn decode(payload: &[u8]) -> Result<Manifest, RecordError> {
        let mut r = Reader::sealed(payload, MANIFEST_MAGIC, VERSION)?;
        let (generation, world) = (r.u64()?, r.u32()?);
        let (step, seed) = (r.u64()?, r.u64()?);
        let shards = (0..r.count(16)?)
            .map(|_| {
                Ok(ManifestEntry {
                    rank: r.u32()?,
                    name: String::from_utf8(r.section()?.to_vec())
                        .map_err(|_| RecordError::Malformed("shard name is not UTF-8"))?,
                    len: r.u32()?,
                    crc: r.u32()?,
                })
            })
            .collect::<Result<_, RecordError>>()?;
        // Optional trailing placement section: absent in older files,
        // which therefore read back as the static layout.
        let placement = if r.remaining() > 0 {
            r.section()?.to_vec()
        } else {
            Vec::new()
        };
        r.finish()?;
        Ok(Manifest {
            generation,
            world,
            step,
            seed,
            shards,
            placement,
        })
    }

    /// The manifest entry for `rank`, if it participated.
    pub fn entry(&self, rank: u32) -> Option<&ManifestEntry> {
        self.shards.iter().find(|s| s.rank == rank)
    }

    /// Verifies that `bytes` is exactly the shard file this entry
    /// committed: length and whole-file CRC must both match.
    pub fn entry_matches(entry: &ManifestEntry, bytes: &[u8]) -> bool {
        bytes.len() == entry.len as usize && crc32(bytes) == entry.crc
    }
}

/// Canonical shard file name for `(generation, rank)`. Zero-padded so a
/// lexicographic directory sort is also a generation sort.
pub fn shard_file_name(generation: u64, rank: usize) -> String {
    format!("shard-g{generation:08}-r{rank:04}.smsh")
}

/// Canonical manifest file name for a generation.
pub fn manifest_file_name(generation: u64) -> String {
    format!("manifest-g{generation:08}.smmf")
}

/// Parses the generation out of a [`manifest_file_name`]-shaped file
/// name; `None` for anything else (tmp siblings, shards, strangers).
pub fn manifest_generation(file_name: &str) -> Option<u64> {
    let rest = file_name.strip_prefix("manifest-g")?;
    let digits = rest.strip_suffix(".smmf")?;
    digits.parse().ok()
}

/// Parses `(generation, rank)` out of a [`shard_file_name`]-shaped file
/// name.
pub fn shard_file_parts(file_name: &str) -> Option<(u64, usize)> {
    let rest = file_name.strip_prefix("shard-g")?;
    let rest = rest.strip_suffix(".smsh")?;
    let (gen, rank) = rest.split_once("-r")?;
    Some((gen.parse().ok()?, rank.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_shard() -> Shard {
        Shard {
            generation: 7,
            rank: 2,
            world: 4,
            step: 120,
            seed: 99,
            replicated: vec![1, 2, 3, 4, 5],
            expert: vec![9, 8, 7],
            replicas: vec![
                ShardReplica {
                    ward: 1,
                    quantum: 15,
                    payload: vec![0xAA; 17],
                },
                ShardReplica {
                    ward: 3,
                    quantum: 14,
                    payload: vec![],
                },
            ],
        }
    }

    fn sample_manifest() -> Manifest {
        Manifest {
            generation: 7,
            world: 4,
            step: 120,
            seed: 99,
            shards: (0..4)
                .map(|r| ManifestEntry {
                    rank: r,
                    name: shard_file_name(7, r as usize),
                    len: 100 + r,
                    crc: 0xDEAD_0000 + r,
                })
                .collect(),
            placement: vec![],
        }
    }

    #[test]
    fn shard_and_manifest_round_trip() {
        let s = sample_shard();
        assert_eq!(Shard::decode(&s.encode()).unwrap(), s);
        let m = sample_manifest();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.entry(2).unwrap().name, shard_file_name(7, 2));
        assert!(back.entry(9).is_none());
    }

    #[test]
    fn manifest_placement_section_round_trips_and_tolerates_absence() {
        let mut m = sample_manifest();
        m.placement = vec![0x50, 0x4C, 0x4D, 0x54, 7, 7, 7];
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back.placement, m.placement);

        // A pre-placement manifest: same layout but no trailing section.
        // Re-encode by hand — everything up to the shards, then the seal.
        let plain = sample_manifest();
        let full = plain.encode();
        // Strip the empty placement section (4-byte length) and the old
        // seal, then re-seal.
        let mut old = full[..full.len() - 8].to_vec();
        let crc = crc32(&old);
        old.extend_from_slice(&crc.to_le_bytes());
        let back = Manifest::decode(&old).unwrap();
        assert!(back.placement.is_empty());
        assert_eq!(back.shards, plain.shards);
    }

    #[test]
    fn file_names_parse_back_and_sort_by_generation() {
        assert_eq!(manifest_generation(&manifest_file_name(42)), Some(42));
        assert_eq!(manifest_generation("manifest-g00000042.smmf.tmp"), None);
        assert_eq!(manifest_generation("shard-g00000001-r0000.smsh"), None);
        assert_eq!(shard_file_parts(&shard_file_name(3, 11)), Some((3, 11)));
        assert!(manifest_file_name(9) < manifest_file_name(10));
    }

    #[test]
    fn cross_magic_decode_is_refused() {
        let s = sample_shard();
        assert_eq!(
            Manifest::decode(&s.encode()).unwrap_err(),
            RecordError::BadHeader
        );
        let m = sample_manifest();
        assert_eq!(
            Shard::decode(&m.encode()).unwrap_err(),
            RecordError::BadHeader
        );
    }

    #[test]
    fn entry_matches_requires_exact_length_and_crc() {
        let bytes = sample_shard().encode();
        let entry = ManifestEntry {
            rank: 2,
            name: shard_file_name(7, 2),
            len: bytes.len() as u32,
            crc: crc32(&bytes),
        };
        assert!(Manifest::entry_matches(&entry, &bytes));
        let mut rotted = bytes.clone();
        rotted[10] ^= 0x40;
        assert!(!Manifest::entry_matches(&entry, &rotted));
        assert!(!Manifest::entry_matches(&entry, &bytes[..bytes.len() - 1]));
    }

    #[test]
    fn shard_with_rank_out_of_world_is_refused() {
        let mut s = sample_shard();
        s.rank = 4;
        assert!(matches!(
            Shard::decode(&s.encode()).unwrap_err(),
            RecordError::Mismatch { .. }
        ));
    }

    #[test]
    fn every_single_bit_flip_of_a_shard_and_of_a_manifest_is_refused() {
        let shard = sample_shard().encode();
        for bit in 0..shard.len() * 8 {
            let mut bad = shard.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Shard::decode(&bad).is_err(), "shard bit {bit} slipped");
        }
        let mut manifest = sample_manifest();
        manifest.placement = vec![0x50, 0x4C, 0x4D, 0x54, 1, 2, 3];
        let manifest = manifest.encode();
        for bit in 0..manifest.len() * 8 {
            let mut bad = manifest.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Manifest::decode(&bad).is_err(),
                "manifest bit {bit} slipped"
            );
        }
    }

    proptest! {
        /// Noise, and noise behind any prefix of a real shard or manifest
        /// (so the parser is led deep before the bytes turn hostile),
        /// never panics and never decodes.
        #[test]
        fn hostile_bytes_never_panic_and_never_decode(
            keep in 0usize..200,
            noise in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            for clean in [sample_shard().encode(), sample_manifest().encode()] {
                let mut bytes = clean[..keep.min(clean.len())].to_vec();
                bytes.extend_from_slice(&noise);
                if bytes != clean {
                    prop_assert!(Shard::decode(&bytes).is_err());
                    prop_assert!(Manifest::decode(&bytes).is_err());
                }
            }
        }

        #[test]
        fn shard_round_trips_for_arbitrary_contents(
            generation in 0u64..1_000_000,
            rank in 0u32..16,
            step in 0u64..100_000,
            seed in 0u64..=u64::MAX,
            replicated in proptest::collection::vec(0u8..=255, 0..256),
            expert in proptest::collection::vec(0u8..=255, 0..256),
            replicas in proptest::collection::vec(
                (0u32..16, 0u64..=u64::MAX, proptest::collection::vec(0u8..=255, 0..64)),
                0..4
            ),
        ) {
            let s = Shard {
                generation,
                rank,
                world: 16,
                step,
                seed,
                replicated,
                expert,
                replicas: replicas
                    .into_iter()
                    .map(|(ward, quantum, payload)| ShardReplica { ward, quantum, payload })
                    .collect(),
            };
            prop_assert_eq!(Shard::decode(&s.encode()).unwrap(), s);
        }

        #[test]
        fn any_truncation_of_a_shard_is_refused(cut in 0usize..100) {
            let bytes = sample_shard().encode();
            let cut = cut % bytes.len();
            prop_assert!(Shard::decode(&bytes[..cut]).is_err());
        }

        #[test]
        fn any_byte_flip_in_a_shard_is_refused(pos in 0usize..1000, bit in 0u8..8) {
            let mut bytes = sample_shard().encode();
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            prop_assert!(Shard::decode(&bytes).is_err(), "flip at {} slipped through", pos);
        }

        #[test]
        fn any_byte_flip_in_a_manifest_is_refused(pos in 0usize..1000, bit in 0u8..8) {
            let mut bytes = sample_manifest().encode();
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            prop_assert!(Manifest::decode(&bytes).is_err(), "flip at {} slipped through", pos);
        }

        #[test]
        fn any_truncation_of_a_manifest_is_refused(cut in 0usize..100) {
            let bytes = sample_manifest().encode();
            let cut = cut % bytes.len();
            prop_assert!(Manifest::decode(&bytes[..cut]).is_err());
        }
    }
}
