//! Quickstart: estimate MoE layer step times under different systems.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's 32-GPU testbed model, describes one MoE layer, and
//! compares the simulated execution time of the naive baseline, the Tutel
//! and Faster-MoE emulations, and the full ScheMoE system (ZFP + Pipe-A2A
//! + OptSche).

use schemoe::prelude::*;

fn main() {
    // 1. Describe the cluster: 8 nodes × 4 GPUs, PCIe intra-node, IB
    //    inter-node — the paper's testbed, with calibrated cost models.
    let topo = Topology::paper_testbed();
    let hw = HardwareProfile::paper_testbed();
    println!(
        "cluster: {} nodes x {} GPUs ({}), {} GiB/GPU",
        topo.nodes(),
        topo.gpus_per_node(),
        hw.name,
        hw.gpu_mem_bytes >> 30
    );

    // 2. Describe one MoE layer (the Table 10 ablation shape).
    let shape = LayerShape {
        tokens_per_gpu: 8 * 2048,
        model_dim: 8192,
        hidden_dim: 8192,
        experts: 32,
        k: 2,
        capacity_factor: 1.2,
    };
    println!(
        "layer: {} tokens/GPU, M={}, H={}, E={}, k={}, f={} -> {} A2A payload/GPU\n",
        shape.tokens_per_gpu,
        shape.model_dim,
        shape.hidden_dim,
        shape.experts,
        shape.k,
        shape.capacity_factor,
        human(shape.a2a_bytes()),
    );

    // 3. Compare systems.
    let systems: [MoeSystem; 5] = [
        NaiveSystem::new(),
        FasterMoeEmu::new(),
        TutelEmu::new(),
        ScheMoeSystem::without_compression(),
        ScheMoeSystem::default_config(),
    ];
    println!("{:>24} {:>12} {:>9}", "system", "layer fwd", "speedup");
    let baseline = systems[0].layer_time(&shape, &topo, &hw);
    for sys in &systems {
        let t = sys.layer_time(&shape, &topo, &hw);
        let label = if sys.compression_ratio() > 1.0 {
            format!("{} (+zfp)", sys.name())
        } else {
            sys.name().to_string()
        };
        println!("{label:>24} {t:>12} {:>8.2}x", baseline / t);
    }

    // 4. Whole-model estimate with memory accounting.
    println!();
    let model = MoeModelConfig::ct_moe(12);
    let est = model_step_time(&ScheMoeSystem::default_config(), &model, &topo, &hw)
        .expect("CT-MoE-12 fits the testbed");
    println!(
        "{}: step {} (A2A {} = {:.0}%), peak memory {:.2} GiB",
        model.name,
        est.step,
        est.a2a,
        est.a2a_ratio() * 100.0,
        est.memory.total() as f64 / (1u64 << 30) as f64
    );
}

fn human(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    }
}
