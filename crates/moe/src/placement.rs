//! Load-aware expert placement: which ranks serve which expert, and the
//! deterministic policy that decides it.
//!
//! Static expert parallelism pins expert `e` to rank `e / experts_per_rank`
//! forever. Under Zipf-skewed routing one rank saturates while the rest
//! idle, and a slow-but-alive ("gray") rank drags every step even though it
//! never dies. A [`Placement`] breaks that pin: each expert has an ordered
//! server list whose head is its current *home* and whose tail are *replicas*
//! that absorb a share of its tokens. The placement controller in
//! `schemoe-models` re-decides the table each placement quantum from
//! measured load and health:
//!
//! * **replicate** — an expert hotter than `hot_factor ×` the mean expert
//!   load gains replicas on the least-loaded healthy ranks; dispatch fans
//!   its capacity slots round-robin across the servers and backward reduces
//!   the replica gradients, so every copy steps identically.
//! * **migrate / demote** — an expert whose static home went gray (p99
//!   send-stall toward it blows past the healthy median, see
//!   [`gray_ranks`]) is re-homed onto a healthy rank *before* any burial
//!   vote; when the rank heals the expert migrates straight back.
//! * **shed** — when replication alone cannot absorb the skew (replica cap
//!   or healthy-rank count exhausted) the policy trims the gate's capacity
//!   factor, clamped to `shed_floor ×` the configured base so drops stay
//!   loss-bounded, counted, and deterministic.
//!
//! Everything here is pure and index-tiebroken: the same inputs produce the
//! same plan bit-for-bit, which is what lets a seeded chaos campaign replay
//! placement decisions exactly. Wire frames ([`Placement::encode`],
//! [`PlacementPlan::encode`], [`LoadReport::encode`]) follow the
//! CRC-sealed parse-then-verify-then-apply discipline of
//! [`replication`](crate::replication): a damaged or truncated frame is
//! rejected without side effects.

use std::collections::BTreeSet;

use schemoe_compression::record::{Reader, RecordError, Writer};

/// Replica lists longer than this are rejected as nonsense on the wire.
const MAX_SERVERS: usize = 64;
/// Expert counts larger than this are rejected as nonsense on the wire.
const MAX_EXPERTS: usize = 1 << 16;

const PLACEMENT_MAGIC: &[u8; 4] = b"PLMT";
const PLAN_MAGIC: &[u8; 4] = b"PLPL";
const REPORT_MAGIC: &[u8; 4] = b"PLRP";
const FORMAT_VERSION: u32 = 1;

/// The expert→servers table: `servers(e)[0]` is the expert's current home,
/// the rest are replicas. The *static home* `e / experts_per_rank` stays in
/// every sync group even while demoted, so it is never stale and every
/// transfer can source from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    experts_per_rank: usize,
    version: u64,
    servers: Vec<Vec<usize>>,
}

impl Placement {
    /// The canonical static layout: expert `e` served only by
    /// `e / experts_per_rank`, version 0.
    pub fn static_layout(n_experts: usize, experts_per_rank: usize) -> Self {
        assert!(experts_per_rank > 0, "experts_per_rank must be positive");
        Placement {
            experts_per_rank,
            version: 0,
            servers: (0..n_experts).map(|e| vec![e / experts_per_rank]).collect(),
        }
    }

    /// Builds a placement from an explicit server table (head = home).
    pub fn new(experts_per_rank: usize, version: u64, servers: Vec<Vec<usize>>) -> Self {
        assert!(experts_per_rank > 0, "experts_per_rank must be positive");
        assert!(
            servers.iter().all(|s| !s.is_empty()),
            "every expert needs at least one server"
        );
        Placement {
            experts_per_rank,
            version,
            servers,
        }
    }

    /// Same table, different version stamp.
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// The plan version stamp (monotone per placement quantum).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of experts covered.
    pub fn n_experts(&self) -> usize {
        self.servers.len()
    }

    /// The configured experts-per-rank of the static layout.
    pub fn experts_per_rank(&self) -> usize {
        self.experts_per_rank
    }

    /// True when every expert is served only by its static home — the
    /// layout the plain dispatch paths assume.
    pub fn is_static(&self) -> bool {
        self.servers
            .iter()
            .enumerate()
            .all(|(e, s)| s.len() == 1 && s[0] == e / self.experts_per_rank)
    }

    /// The static home of expert `e` (its owner under static layout).
    pub fn static_home(&self, e: usize) -> usize {
        e / self.experts_per_rank
    }

    /// The ordered server list of expert `e`; index 0 is the current home.
    pub fn servers(&self, e: usize) -> &[usize] {
        &self.servers[e]
    }

    /// Where capacity slot `slot` of expert `e` is dispatched: slots fan
    /// round-robin across the server list.
    pub fn serving_rank(&self, e: usize, slot: usize) -> usize {
        let s = &self.servers[e];
        s[slot % s.len()]
    }

    /// Experts served by `rank`, ascending.
    pub fn served_by(&self, rank: usize) -> Vec<usize> {
        (0..self.servers.len())
            .filter(|&e| self.servers[e].contains(&rank))
            .collect()
    }

    /// Experts `rank` serves as a *guest* (it is not their static home),
    /// ascending. These live in the layer's guest store, not its local
    /// expert slots.
    pub fn guests_of(&self, rank: usize) -> Vec<usize> {
        (0..self.servers.len())
            .filter(|&e| self.static_home(e) != rank && self.servers[e].contains(&rank))
            .collect()
    }

    /// The gradient-sync group of expert `e`: its servers plus its static
    /// home (which stays in sync even while demoted), sorted and deduped.
    pub fn sync_group(&self, e: usize) -> Vec<usize> {
        let mut g: BTreeSet<usize> = self.servers[e].iter().copied().collect();
        g.insert(self.static_home(e));
        g.into_iter().collect()
    }

    /// Ranks that need expert `e` streamed to them when moving from `old`
    /// to `self`: new servers that were not already in `old`'s sync group
    /// (members of the old sync group hold bit-identical state, so only
    /// true newcomers transfer; the static home is never a receiver).
    pub fn receivers_vs(&self, old: &Placement, e: usize) -> Vec<usize> {
        let have: BTreeSet<usize> = old.sync_group(e).into_iter().collect();
        self.servers[e]
            .iter()
            .copied()
            .filter(|r| !have.contains(r))
            .collect()
    }

    /// Encodes the table as a sealed `PLMT` frame.
    ///
    /// ```text
    /// [magic "PLMT"][format u32][version u64][epr u32][n_experts u32]
    /// [per expert: count u32, ranks u32...][crc32 u32]
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::sealed(PLACEMENT_MAGIC, FORMAT_VERSION, 16 + self.servers.len() * 8);
        w.u64(self.version).u32(self.experts_per_rank as u32);
        w.u32(self.servers.len() as u32);
        for s in &self.servers {
            w.u32(s.len() as u32);
            for &r in s {
                w.u32(r as u32);
            }
        }
        w.seal()
    }

    /// Parses a sealed `PLMT` frame. Parse-then-verify: structure and CRC
    /// must both pass before anything is returned.
    pub fn decode(frame: &[u8]) -> Result<Self, RecordError> {
        let mut r = Reader::sealed(frame, PLACEMENT_MAGIC, FORMAT_VERSION)?;
        let version = r.u64()?;
        let epr = r.u32()? as usize;
        let n = r.count(4)?;
        if epr == 0 {
            return Err(RecordError::Malformed("zero experts_per_rank"));
        }
        if n > MAX_EXPERTS {
            return Err(RecordError::Malformed("absurd expert count"));
        }
        let mut servers = Vec::with_capacity(n);
        for _ in 0..n {
            let cnt = r.count(4)?;
            if cnt == 0 || cnt > MAX_SERVERS {
                return Err(RecordError::Malformed("bad server count"));
            }
            let s = (0..cnt)
                .map(|_| Ok(r.u32()? as usize))
                .collect::<Result<Vec<_>, RecordError>>()?;
            if s.iter().collect::<BTreeSet<_>>().len() != s.len() {
                return Err(RecordError::Malformed("duplicate server"));
            }
            servers.push(s);
        }
        r.finish()?;
        Ok(Placement {
            experts_per_rank: epr,
            version,
            servers,
        })
    }
}

/// A coordinator's decision for one placement quantum: the new table plus
/// an optional capacity-factor override (the shed knob). `None` restores
/// the configured base factor.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// The table to install on commit.
    pub placement: Placement,
    /// Gate capacity factor to install, or `None` for the base factor.
    pub capacity_override: Option<f64>,
}

impl PlacementPlan {
    /// Encodes the plan as a sealed `PLPL` frame wrapping the placement's
    /// own sealed frame (the override travels as raw f64 bits so replay is
    /// bit-exact).
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.placement.encode();
        let mut w = Writer::sealed(PLAN_MAGIC, FORMAT_VERSION, 13 + inner.len());
        w.u8(self.capacity_override.is_some() as u8);
        w.u64(self.capacity_override.unwrap_or(0.0).to_bits());
        w.section(&inner).seal()
    }

    /// Parses a sealed `PLPL` frame.
    pub fn decode(frame: &[u8]) -> Result<Self, RecordError> {
        let mut r = Reader::sealed(frame, PLAN_MAGIC, FORMAT_VERSION)?;
        let flag = r.u8()?;
        if flag > 1 {
            return Err(RecordError::Malformed("bad override flag"));
        }
        let bits = r.u64()?;
        let cap = (flag == 1).then(|| f64::from_bits(bits));
        if cap.is_some_and(|c| !c.is_finite() || c <= 0.0) {
            return Err(RecordError::Malformed("non-finite capacity override"));
        }
        let inner = r.section()?;
        r.finish()?;
        Ok(PlacementPlan {
            placement: Placement::decode(inner)?,
            capacity_override: cap,
        })
    }
}

/// One rank's measurements for a placement quantum, gathered since the
/// previous quantum: what it routed, what it shed, how its experts and
/// links behaved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// The reporting rank.
    pub rank: usize,
    /// Tokens this rank's gate routed to each expert (length = experts).
    pub loads: Vec<u64>,
    /// Tokens this rank's gate dropped at the capacity edge.
    pub shed: u64,
    /// Total token assignments this rank's gate produced.
    pub routed: u64,
    /// p99, over this rank's forwards since the previous quantum, of the
    /// summed wall time of a forward's expert stages, in microseconds
    /// rounded up. Recorded at every partition degree and in every mode;
    /// a wall-clock reading, so reported, never fed to the policy.
    pub service_p99_us: u64,
    /// p99 send-stall toward each peer, microseconds (length = world);
    /// entry `[g]` is how long sends to rank `g` blocked on this rank.
    pub stall_p99_us: Vec<u64>,
}

impl LoadReport {
    /// Encodes the report as a sealed `PLRP` frame.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.loads.len() + self.stall_p99_us.len();
        let mut w = Writer::sealed(REPORT_MAGIC, FORMAT_VERSION, 36 + 8 * n);
        w.u32(self.rank as u32).u32(self.loads.len() as u32);
        w.u32(self.stall_p99_us.len() as u32);
        for &l in &self.loads {
            w.u64(l);
        }
        w.u64(self.shed).u64(self.routed).u64(self.service_p99_us);
        for &s in &self.stall_p99_us {
            w.u64(s);
        }
        w.seal()
    }

    /// Parses a sealed `PLRP` frame.
    pub fn decode(frame: &[u8]) -> Result<Self, RecordError> {
        let mut r = Reader::sealed(frame, REPORT_MAGIC, FORMAT_VERSION)?;
        let rank = r.u32()? as usize;
        let n_experts = r.count(8)?;
        let n_ranks = r.count(8)?;
        if n_experts > MAX_EXPERTS || n_ranks > MAX_EXPERTS {
            return Err(RecordError::Malformed("absurd report dimensions"));
        }
        let loads = (0..n_experts).map(|_| r.u64()).collect::<Result<_, _>>()?;
        let (shed, routed, service_p99_us) = (r.u64()?, r.u64()?, r.u64()?);
        let stall_p99_us = (0..n_ranks).map(|_| r.u64()).collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(LoadReport {
            rank,
            loads,
            shed,
            routed,
            service_p99_us,
            stall_p99_us,
        })
    }
}

/// Tunables of the placement policy; all pure thresholds, no state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// An expert is *hot* (replication candidate) when its load exceeds
    /// `hot_factor ×` the mean per-expert load.
    pub hot_factor: f64,
    /// A rank is *gray* when the median observed p99 send-stall toward it
    /// exceeds `gray_factor ×` the healthy median stall.
    pub gray_factor: f64,
    /// Hard cap on servers per expert (home + replicas).
    pub max_replicas: usize,
    /// Floor of the capacity-factor override, as a fraction of the base
    /// factor — bounds the worst-case shed rate.
    pub shed_floor: f64,
    /// Quanta that routed fewer total tokens than this keep the static
    /// layout (not enough signal to move experts).
    pub min_tokens: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            hot_factor: 1.75,
            gray_factor: 4.0,
            max_replicas: 3,
            shed_floor: 0.5,
            min_tokens: 1,
        }
    }
}

/// Absolute stall floor, microseconds: below this no rank is ever called
/// gray, however skewed the (tiny) numbers look on a fast local fabric.
const GRAY_STALL_FLOOR_US: u64 = 200;

/// Identifies gray ranks from the cross-rank stall matrix: rank `g`'s score
/// is the *median over live observers* of their p99 send-stall toward `g`
/// (median, so one confused observer cannot frame a healthy peer), and `g`
/// is gray when its score exceeds `gray_factor ×` the median score of the
/// cluster. At most enough ranks to keep a strict healthy majority are
/// demoted, worst first; ties break toward the lower rank. Returns the
/// gray set ascending.
pub fn gray_ranks(reports: &[Option<LoadReport>], live: &[bool], gray_factor: f64) -> Vec<usize> {
    let world = live.len();
    let mut score: Vec<Option<u64>> = vec![None; world];
    for (g, slot) in score.iter_mut().enumerate() {
        if !live[g] {
            continue;
        }
        let mut obs: Vec<u64> = reports
            .iter()
            .enumerate()
            .filter(|&(o, _)| o != g && o < world && live[o])
            .filter_map(|(_, r)| r.as_ref().and_then(|r| r.stall_p99_us.get(g).copied()))
            .collect();
        if obs.is_empty() {
            continue;
        }
        obs.sort_unstable();
        *slot = Some(obs[obs.len() / 2]);
    }
    let mut all: Vec<u64> = score.iter().flatten().copied().collect();
    if all.len() < 2 {
        return Vec::new();
    }
    all.sort_unstable();
    let cluster_median = all[all.len() / 2].max(1);
    let mut candidates: Vec<(u64, usize)> = score
        .iter()
        .enumerate()
        .filter_map(|(g, s)| s.map(|s| (s, g)))
        .filter(|&(s, _)| s > GRAY_STALL_FLOOR_US && s as f64 > gray_factor * cluster_median as f64)
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let live_count = live.iter().filter(|&&l| l).count();
    let mut grays = Vec::new();
    for (_, g) in candidates {
        // Keep a strict majority of live ranks healthy: if "most of the
        // cluster looks gray", the observers are the problem.
        if live_count - (grays.len() + 1) > live_count / 2 {
            grays.push(g);
        }
    }
    grays.sort_unstable();
    grays
}

/// Decides the placement for the next quantum. Pure in its inputs and
/// index-tiebroken throughout, so every rank (and every replay) computes
/// the identical plan from the identical reports.
///
/// Homes: each expert homes on its static rank when that rank is live and
/// healthy, otherwise on the least-loaded healthy rank (demotion /
/// failover-adjacent migration). Replicas: experts hotter than
/// `hot_factor × mean` gain servers up to `round(load / mean)` — but at
/// least one replica, so clearing the hot threshold always acts — capped
/// by `max_replicas` and the healthy-rank count, hottest first, each new
/// replica on the least-loaded healthy rank. Shed: when the busiest
/// *per-server* share still exceeds the hot threshold after replication,
/// the capacity factor is trimmed proportionally, clamped to
/// `[shed_floor × base, base]`.
pub fn decide_plan(
    n_experts: usize,
    experts_per_rank: usize,
    live: &[bool],
    reports: &[Option<LoadReport>],
    base_capacity_factor: f64,
    cfg: &PolicyConfig,
    next_version: u64,
) -> PlacementPlan {
    let world = live.len();
    let mut loads = vec![0u64; n_experts];
    let mut routed = 0u64;
    for r in reports.iter().flatten() {
        for (e, &l) in r.loads.iter().take(n_experts).enumerate() {
            loads[e] += l;
        }
        routed += r.routed;
    }
    let grays: BTreeSet<usize> = gray_ranks(reports, live, cfg.gray_factor)
        .into_iter()
        .collect();
    let healthy: Vec<usize> = (0..world)
        .filter(|&r| live[r] && !grays.contains(&r))
        .collect();
    let fallback = || PlacementPlan {
        placement: Placement::static_layout(n_experts, experts_per_rank).with_version(next_version),
        capacity_override: None,
    };
    if healthy.is_empty() || routed < cfg.min_tokens {
        return fallback();
    }
    let mean = loads.iter().sum::<u64>() as f64 / n_experts.max(1) as f64;
    let mut proj = vec![0.0f64; world];
    let mut servers: Vec<Vec<usize>> = Vec::with_capacity(n_experts);
    let least_loaded = |proj: &[f64], exclude: &[usize]| -> Option<usize> {
        healthy
            .iter()
            .copied()
            .filter(|r| !exclude.contains(r))
            .min_by(|&a, &b| proj[a].total_cmp(&proj[b]).then(a.cmp(&b)))
    };
    for (e, &load) in loads.iter().enumerate() {
        let sh = e / experts_per_rank;
        let home = if sh < world && live[sh] && !grays.contains(&sh) {
            sh
        } else {
            least_loaded(&proj, &[]).expect("healthy is non-empty")
        };
        proj[home] += load as f64;
        servers.push(vec![home]);
    }
    if mean > 0.0 {
        let mut order: Vec<usize> = (0..n_experts).collect();
        order.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
        for &e in &order {
            let l = loads[e] as f64;
            if l <= cfg.hot_factor * mean {
                break;
            }
            // An expert hot enough to clear the threshold gains at least
            // one replica even when `round(l/mean)` stays 1 (thresholds
            // below 1.5× would otherwise declare experts hot and then do
            // nothing about it).
            let cap = cfg.max_replicas.min(healthy.len()).max(1);
            let desired = ((l / mean).round() as usize).max(2).min(cap);
            while servers[e].len() < desired {
                let Some(extra) = least_loaded(&proj, &servers[e]) else {
                    break;
                };
                // The expert's load now splits one way wider.
                let g0 = servers[e].len() as f64;
                for &s in &servers[e] {
                    proj[s] -= l / g0;
                }
                servers[e].push(extra);
                let g1 = servers[e].len() as f64;
                for &s in &servers[e] {
                    proj[s] += l / g1;
                }
            }
        }
    }
    let capacity_override = if mean > 0.0 {
        let max_share = loads
            .iter()
            .enumerate()
            .map(|(e, &l)| l as f64 / servers[e].len() as f64)
            .fold(0.0f64, f64::max);
        (max_share > cfg.hot_factor * mean).then(|| {
            (base_capacity_factor * cfg.hot_factor * mean / max_share)
                .max(cfg.shed_floor * base_capacity_factor)
                .min(base_capacity_factor)
        })
    } else {
        None
    };
    PlacementPlan {
        placement: Placement::new(experts_per_rank, next_version, servers),
        capacity_override,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn report(rank: usize, loads: Vec<u64>, stalls: Vec<u64>) -> Option<LoadReport> {
        let routed = loads.iter().sum();
        Some(LoadReport {
            rank,
            loads,
            shed: 0,
            routed,
            service_p99_us: 100,
            stall_p99_us: stalls,
        })
    }

    #[test]
    fn static_layout_is_static_and_fans_trivially() {
        let p = Placement::static_layout(8, 2);
        assert!(p.is_static());
        assert_eq!(p.servers(5), &[2]);
        assert_eq!(p.serving_rank(5, 17), 2);
        assert_eq!(p.sync_group(5), vec![2]);
        assert_eq!(p.served_by(3), vec![6, 7]);
        assert!(p.guests_of(3).is_empty());
    }

    #[test]
    fn replicated_expert_fans_round_robin_and_syncs_with_home() {
        let p = Placement::new(1, 3, vec![vec![0, 2, 3], vec![1], vec![2], vec![1]]);
        assert!(!p.is_static());
        assert_eq!(p.serving_rank(0, 0), 0);
        assert_eq!(p.serving_rank(0, 1), 2);
        assert_eq!(p.serving_rank(0, 2), 3);
        assert_eq!(p.serving_rank(0, 3), 0);
        assert_eq!(p.sync_group(0), vec![0, 2, 3]);
        // Expert 3 demoted off rank 3 onto rank 1: static home stays in
        // the sync group, rank 1 is a guest.
        assert_eq!(p.sync_group(3), vec![1, 3]);
        assert_eq!(p.guests_of(1), vec![3]);
        assert_eq!(p.served_by(2), vec![0, 2]);
    }

    #[test]
    fn receivers_are_only_true_newcomers() {
        let old = Placement::new(1, 1, vec![vec![0, 2], vec![1]]);
        let new = Placement::new(1, 2, vec![vec![0, 2, 3], vec![2]]);
        // Rank 3 is new on expert 0; ranks 0 and 2 already hold it.
        assert_eq!(new.receivers_vs(&old, 0), vec![3]);
        // Expert 1's static home (1) was in the old group; only 2 is new.
        assert_eq!(new.receivers_vs(&old, 1), vec![2]);
        // Moving back to a rank that stayed in sync transfers nothing.
        let back = Placement::new(1, 3, vec![vec![0], vec![1]]);
        assert!(back.receivers_vs(&new, 0).is_empty());
    }

    #[test]
    fn placement_frames_round_trip_and_reject_damage() {
        let p = Placement::new(2, 9, vec![vec![1, 0], vec![1], vec![0], vec![1, 0]]);
        let frame = p.encode();
        assert_eq!(Placement::decode(&frame), Ok(p.clone()));
        let mut bad = frame.clone();
        bad[10] ^= 0x40;
        assert!(Placement::decode(&bad).is_err());
        assert!(Placement::decode(&frame[..frame.len() - 1]).is_err());
        assert_eq!(Placement::decode(b"nope"), Err(RecordError::Truncated));
    }

    #[test]
    fn plan_frames_carry_the_override_bit_exactly() {
        for cap in [None, Some(1.25f64), Some(0.5)] {
            let plan = PlacementPlan {
                placement: Placement::static_layout(4, 1).with_version(7),
                capacity_override: cap,
            };
            let frame = plan.encode();
            assert_eq!(PlacementPlan::decode(&frame), Ok(plan));
        }
    }

    #[test]
    fn report_frames_round_trip() {
        let r = LoadReport {
            rank: 3,
            loads: vec![10, 0, 99, 4],
            shed: 7,
            routed: 113,
            service_p99_us: 1234,
            stall_p99_us: vec![5, 6, 7, 8],
        };
        let frame = r.encode();
        assert_eq!(LoadReport::decode(&frame), Ok(r));
        let mut bad = frame.clone();
        let n = bad.len();
        bad[n - 2] ^= 1;
        assert!(matches!(
            LoadReport::decode(&bad),
            Err(RecordError::Corrupt { .. })
        ));
    }

    #[test]
    fn uniform_load_keeps_the_static_layout() {
        let live = [true; 4];
        let reports: Vec<_> = (0..4)
            .map(|r| report(r, vec![25, 25, 25, 25], vec![10, 10, 10, 10]))
            .collect();
        let plan = decide_plan(4, 1, &live, &reports, 2.0, &PolicyConfig::default(), 1);
        assert!(plan.placement.is_static());
        assert_eq!(plan.placement.version(), 1);
        assert_eq!(plan.capacity_override, None);
    }

    #[test]
    fn a_hot_expert_gains_replicas_on_the_idlest_ranks() {
        let live = [true; 4];
        // Expert 0 takes ~70% of all tokens.
        let reports: Vec<_> = (0..4)
            .map(|r| report(r, vec![70, 10, 10, 10], vec![10, 10, 10, 10]))
            .collect();
        let plan = decide_plan(4, 1, &live, &reports, 2.0, &PolicyConfig::default(), 2);
        let s = plan.placement.servers(0);
        assert_eq!(s[0], 0, "home stays static");
        assert_eq!(s.len(), 3, "load/mean = 2.8 rounds to 3 servers");
        // Cold experts stay home.
        for e in 1..4 {
            assert_eq!(plan.placement.servers(e), &[e]);
        }
    }

    #[test]
    fn cooling_off_returns_to_static() {
        let live = [true; 4];
        let hot: Vec<_> = (0..4)
            .map(|r| report(r, vec![70, 10, 10, 10], vec![10; 4]))
            .collect();
        let cold: Vec<_> = (0..4)
            .map(|r| report(r, vec![25, 25, 25, 25], vec![10; 4]))
            .collect();
        let p1 = decide_plan(4, 1, &live, &hot, 2.0, &PolicyConfig::default(), 1);
        assert!(!p1.placement.is_static());
        let p2 = decide_plan(4, 1, &live, &cold, 2.0, &PolicyConfig::default(), 2);
        assert!(
            p2.placement.is_static(),
            "replicas drop when load evens out"
        );
    }

    #[test]
    fn a_gray_rank_is_demoted_and_its_expert_rehomed() {
        let live = [true; 4];
        // Everyone observes huge stalls toward rank 2 only.
        let stalls = |g: usize| -> Vec<u64> {
            (0..4)
                .map(|d| if d == 2 { 50_000 } else { 10 })
                .collect::<Vec<_>>()
                .into_iter()
                .enumerate()
                .map(|(d, v)| if d == g { 0 } else { v })
                .collect()
        };
        let reports: Vec<_> = (0..4)
            .map(|r| report(r, vec![25, 25, 25, 25], stalls(r)))
            .collect();
        assert_eq!(gray_ranks(&reports, &live, 4.0), vec![2]);
        let plan = decide_plan(4, 1, &live, &reports, 2.0, &PolicyConfig::default(), 3);
        let home = plan.placement.servers(2)[0];
        assert_ne!(home, 2, "expert 2 moves off the gray rank");
        assert!(
            plan.placement.sync_group(2).contains(&2),
            "static home stays in sync"
        );
    }

    #[test]
    fn gray_demotion_never_takes_a_majority() {
        let live = [true; 4];
        // Three ranks look slow. The median-relative threshold already
        // rejects mass demotion (the cluster median is itself slow), and
        // the majority cap bounds whatever outliers remain.
        let stalls = |_g: usize| vec![90_000u64, 80_000, 70_000, 10];
        let reports: Vec<_> = (0..4).map(|r| report(r, vec![25; 4], stalls(r))).collect();
        let grays = gray_ranks(&reports, &live, 1.1);
        assert_eq!(grays, vec![0], "only the worst outlier clears the bar");
    }

    #[test]
    fn fast_fabrics_never_look_gray() {
        let live = [true; 4];
        // All stalls under the absolute floor, however skewed the ratio.
        let reports: Vec<_> = (0..4)
            .map(|r| report(r, vec![25; 4], vec![1, 1, 150, 1]))
            .collect();
        assert!(gray_ranks(&reports, &live, 4.0).is_empty());
    }

    #[test]
    fn shed_override_engages_only_past_replication_and_is_clamped() {
        let live = [true, true];
        // One expert with overwhelming load on a 2-rank world: replication
        // caps at the healthy-rank count, so the override must engage.
        let reports: Vec<_> = (0..2)
            .map(|r| report(r, vec![1000, 1, 1, 1], vec![10, 10]))
            .collect();
        let cfg = PolicyConfig {
            max_replicas: 2,
            ..PolicyConfig::default()
        };
        let plan = decide_plan(4, 2, &live, &reports, 2.0, &cfg, 1);
        let cap = plan.capacity_override.expect("pressure past replication");
        assert!(cap >= cfg.shed_floor * 2.0 && cap < 2.0, "cap = {cap}");
    }

    #[test]
    fn too_few_tokens_keeps_static() {
        let live = [true; 2];
        let reports: Vec<_> = (0..2).map(|r| report(r, vec![2, 0], vec![0, 0])).collect();
        let cfg = PolicyConfig {
            min_tokens: 100,
            ..PolicyConfig::default()
        };
        let plan = decide_plan(2, 1, &live, &reports, 2.0, &cfg, 1);
        assert!(plan.placement.is_static());
    }

    #[test]
    fn plans_are_deterministic_in_their_inputs() {
        let live = [true; 4];
        let reports: Vec<_> = (0..4)
            .map(|r| report(r, vec![60, 20, 5, 15], vec![10, 40, 10, 10]))
            .collect();
        let a = decide_plan(4, 1, &live, &reports, 2.0, &PolicyConfig::default(), 5);
        let b = decide_plan(4, 1, &live, &reports, 2.0, &PolicyConfig::default(), 5);
        assert_eq!(a, b);
    }

    /// A real frame and its decoder's verdict on arbitrary bytes.
    type Sample = (Vec<u8>, fn(&[u8]) -> bool);

    /// One sample of each frame kind.
    fn sample_frames() -> [Sample; 3] {
        let placement = Placement::new(2, 7, vec![vec![0, 3], vec![0], vec![1, 2, 0], vec![1]]);
        let plan = PlacementPlan {
            placement: placement.clone(),
            capacity_override: Some(1.25),
        };
        let load = report(3, vec![60, 20, 5, 15], vec![10, 40, 10, 10]).expect("a report");
        [
            (placement.encode(), |b| Placement::decode(b).is_ok()),
            (plan.encode(), |b| PlacementPlan::decode(b).is_ok()),
            (load.encode(), |b| LoadReport::decode(b).is_ok()),
        ]
    }

    #[test]
    fn every_single_bit_flip_of_a_placement_plan_and_report_is_rejected() {
        for (kind, (frame, decodes)) in sample_frames().into_iter().enumerate() {
            assert!(decodes(&frame));
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(!decodes(&bad), "frame kind {kind}: bit {bit} slipped");
            }
        }
    }

    proptest! {
        /// Noise, and noise behind any prefix of a real frame (so the
        /// parser is led deep before the bytes turn hostile), never panics
        /// and never decodes — for all three placement decoders.
        #[test]
        fn hostile_frames_never_panic_and_never_decode(
            kind in 0usize..3,
            keep in 0usize..160,
            noise in proptest::collection::vec(0u8..=255, 0..120),
        ) {
            let (frame, decodes) = sample_frames()[kind].clone();
            let mut bytes = frame[..keep.min(frame.len())].to_vec();
            bytes.extend_from_slice(&noise);
            if bytes != frame {
                prop_assert!(!decodes(&bytes));
            }
        }

        /// Placement frames round-trip for arbitrary tables, and any
        /// single corrupted byte is rejected.
        #[test]
        fn placement_codec_round_trips_and_rejects_corruption(
            epr in 1usize..4,
            tables in proptest::collection::vec(
                proptest::collection::vec(0usize..8, 1..4),
                1..12,
            ),
            corrupt_at in 0usize..4096,
            flip in 1u8..=255,
        ) {
            let servers: Vec<Vec<usize>> = tables
                .into_iter()
                .map(|t| {
                    let mut seen = BTreeSet::new();
                    t.into_iter().filter(|&r| seen.insert(r)).collect()
                })
                .collect();
            let p = Placement::new(epr, 42, servers);
            let frame = p.encode();
            prop_assert_eq!(Placement::decode(&frame), Ok(p));
            let mut bad = frame.clone();
            let n = bad.len();
            bad[corrupt_at % n] ^= flip;
            prop_assert!(Placement::decode(&bad).is_err());
        }

        /// The policy always produces a well-formed plan: every expert has
        /// at least one healthy live server, the static home is always in
        /// the sync group, and no server list exceeds the replica cap.
        #[test]
        fn plans_are_always_well_formed(
            seed_loads in proptest::collection::vec(0u64..1000, 4),
            dead in 0usize..4,
            kill in 0u8..2,
        ) {
            let mut live = [true; 4];
            if kill == 1 { live[dead] = false; }
            let reports: Vec<_> = (0..4)
                .map(|r| {
                    if live[r] {
                        report(r, seed_loads.clone(), vec![10; 4])
                    } else {
                        None
                    }
                })
                .collect();
            let cfg = PolicyConfig::default();
            let routed: u64 = reports.iter().flatten().map(|r| r.routed).sum();
            let plan = decide_plan(4, 1, &live, &reports, 2.0, &cfg, 1);
            if routed < cfg.min_tokens {
                // No signal: the policy must fall back to static.
                prop_assert!(plan.placement.is_static());
            } else {
            for e in 0..4 {
                let s = plan.placement.servers(e);
                prop_assert!(!s.is_empty());
                prop_assert!(s.len() <= cfg.max_replicas);
                prop_assert!(s.iter().all(|&r| live[r]));
                prop_assert!(plan.placement.sync_group(e).contains(&plan.placement.static_home(e)));
            }
            if let Some(cap) = plan.capacity_override {
                prop_assert!(cap >= cfg.shed_floor * 2.0 - 1e-12 && cap <= 2.0);
            }
            }
        }
    }
}
