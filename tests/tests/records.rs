//! Golden bytes for the seven sealed record formats: one fixed sample of
//! each — checkpoint `SMOE`, shard `SMSH`, manifest `SMMF`, placement
//! `PLMT` / `PLPL` / `PLRP` and replica delta `SREP` — pinned as
//! `(len, digest)`. Any change to an encoder (a field's order or width, a
//! header, the seal) fails here, and each sample must still decode to what
//! was encoded. The unsealed control frames are pinned as hex beside their
//! codecs, in their own modules' tests.

use schemoe_moe::{DeltaEncoder, LoadReport, Placement, PlacementPlan, ReplicaStore};
use schemoe_tensor::checkpoint;
use schemoe_tensor::nn::Param;
use schemoe_tensor::snapshot::{Manifest, ManifestEntry, Shard, ShardReplica};
use schemoe_tensor::Tensor;

/// FNV-1a over every byte. Not a CRC: the CRC-32 of any sealed record,
/// seal included, is the same constant (the CRC residue).
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn assert_pinned(format: &str, bytes: &[u8], pin: (usize, u64)) {
    let (len, hash) = (bytes.len(), digest(bytes));
    assert!(
        (len, hash) == pin,
        "{format}: encoded bytes moved to ({len}, {hash:#018x})"
    );
}

fn params() -> Vec<Param> {
    let t = |v: Vec<f32>, dims: &[usize]| Tensor::from_vec(v, dims).expect("shape");
    vec![
        Param::new(
            "embed.w",
            t(vec![0.5, -1.25, 3.0, 0.0, 1e-3, -7.5], &[2, 3]),
        ),
        Param::new("head.b", t(vec![2.0, -0.0], &[2])),
    ]
}

fn checkpoint_sample() -> Vec<u8> {
    let mut params = params();
    checkpoint::save(&mut |f| params.iter_mut().for_each(f))
}

fn placement_sample() -> Placement {
    Placement::new(2, 7, vec![vec![0, 3], vec![0], vec![1, 2, 0], vec![1]])
}

#[test]
fn checkpoint_smoe() {
    let bytes = checkpoint_sample();
    assert_pinned("SMOE", &bytes, (89, 0xF19B_EED4_A452_E2D2));
    let mut back: Vec<Param> = params()
        .into_iter()
        .map(|p| Param::new(p.name, Tensor::zeros(p.value.dims())))
        .collect();
    checkpoint::load(&bytes, &mut |f| back.iter_mut().for_each(f)).expect("loads");
    for (a, b) in back.iter().zip(params()) {
        assert_eq!(a.value.data(), b.value.data());
    }
}

#[test]
fn shard_smsh() {
    let shard = Shard {
        generation: 7,
        rank: 2,
        world: 4,
        step: 120,
        seed: 99,
        replicated: checkpoint_sample(),
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
    };
    let bytes = shard.encode();
    assert_pinned("SMSH", &bytes, (197, 0xD702_BEE3_D390_B3D0));
    assert_eq!(Shard::decode(&bytes).expect("decodes"), shard);
}

#[test]
fn manifest_smmf() {
    let manifest = Manifest {
        generation: 7,
        world: 3,
        step: 120,
        seed: 99,
        shards: (0..3)
            .map(|r| ManifestEntry {
                rank: r,
                name: format!("shard-g00000007-r{r:04}.smsh"),
                len: 100 + r,
                crc: 0xDEAD_0000 + r,
            })
            .collect(),
        placement: placement_sample().encode(),
    };
    let bytes = manifest.encode();
    assert_pinned("SMMF", &bytes, (246, 0xDC1E_7A2E_8D4C_7EFD));
    assert_eq!(Manifest::decode(&bytes).expect("decodes"), manifest);
}

#[test]
fn placement_plmt_plpl_plrp() {
    let placement = placement_sample();
    let bytes = placement.encode();
    assert_pinned("PLMT", &bytes, (72, 0x595B_DD51_2FAA_8B74));
    assert_eq!(Placement::decode(&bytes).expect("decodes"), placement);

    let plan = PlacementPlan {
        placement,
        capacity_override: Some(1.25),
    };
    let bytes = plan.encode();
    assert_pinned("PLPL", &bytes, (97, 0xF1EE_0B09_A883_60E3));
    assert_eq!(PlacementPlan::decode(&bytes).expect("decodes"), plan);

    let report = LoadReport {
        rank: 3,
        loads: vec![60, 20, 5, 15],
        shed: 7,
        routed: 100,
        service_p99_us: 1234,
        stall_p99_us: vec![10, 40, 10, 10],
    };
    let bytes = report.encode();
    assert_pinned("PLRP", &bytes, (112, 0x1C8C_FF06_4B65_8C10));
    assert_eq!(LoadReport::decode(&bytes).expect("decodes"), report);
}

#[test]
fn replica_delta_srep() {
    let mut state: Vec<u8> = (0..700u32).map(|i| (i * 31) as u8).collect();
    let mut enc = DeltaEncoder::new();
    let mut store = ReplicaStore::new();
    let full = enc.encode(&state, 4);
    assert_pinned("SREP full", &full, (745, 0x2049_886A_C6D6_58DD));
    assert_eq!(store.apply(&full), Ok(4));
    state[300] ^= 0x5A;
    let delta = enc.encode(&state, 5);
    assert_pinned("SREP delta", &delta, (301, 0x6610_4101_39C8_DE6C));
    assert_eq!(store.apply(&delta), Ok(5));
    assert_eq!(store.replica(), Some((5, state.as_slice())));
}
