//! The benchmark harness: two binaries over one library.
//!
//! | Binary | Does |
//! |---|---|
//! | `campaign <row>\|contract\|paper\|all` | runs rows of [`campaign::SCENARIOS`], prints their tables, writes `BENCH_<bench>.json`, exits non-zero when a row of the gate table fails. `contract` rows: `overlap`, `recovery`, `replication`, `partition`, `durability`, `placement`. `paper` rows ([`campaign::paper`]): `table1`, `table6`, `table7`, `table8`, `table10`, `fig5`, `fig8`, `fig9`, `ablation_degree`, `ablation_hardware`, `ablation_compression`, `ablation_routing`, `ablation_imbalance`, `scaling` — every table and figure of the paper plus the studies beyond it, each cell beside its published counterpart |
//! | `schemoe-launch` | one OS process per rank over tcp / shm: real `SIGKILL`s, respawn + rejoin, partitions, whole-job crash + `--resume` |
//!
//! Per-layer and end-to-end performance numbers live in the stand-alone
//! `perf/` crate, not here.

#![deny(unsafe_code)]

pub mod campaign;

#[cfg(test)]
mod tests {
    use crate::campaign::paper::{jittered, mean_std, sweep_config_fits, table4_grid};
    use schemoe::prelude::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 6.0]);
        assert!((m - 4.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
    }

    #[test]
    fn grid_has_675_configs() {
        assert_eq!(table4_grid().len(), 3 * 3 * 3 * 5 * 5);
    }

    #[test]
    fn jitter_changes_rates_slightly() {
        let hw = HardwareProfile::paper_testbed();
        let j = jittered(&hw, 0.01, 7);
        let a = hw.inter_link.bandwidth_bps;
        let b = j.inter_link.bandwidth_bps;
        assert!(a != b);
        assert!((a - b).abs() / a < 0.011);
    }

    #[test]
    fn sweep_fits_the_paper_testbed_but_not_smaller_gpus() {
        // §6.3 measures all 675 grid cases, including the Table 10 layer,
        // so everything must fit an 11 GB device...
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        for shape in table4_grid() {
            assert!(
                sweep_config_fits(&shape, &topo, &hw),
                "{shape:?} flagged OOM"
            );
        }
        // ...while a hypothetical 6 GB device would drop the big corners.
        let mut small_hw = hw.clone();
        small_hw.gpu_mem_bytes = 6 * 1024 * 1024 * 1024;
        let excluded = table4_grid()
            .iter()
            .filter(|s| !sweep_config_fits(s, &topo, &small_hw))
            .count();
        assert!(excluded > 0, "memory guard never triggers");
    }
}
