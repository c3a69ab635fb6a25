//! The paper's evidence: every table, figure and ablation as a campaign row.
//!
//! Each row runs its experiment — the discrete-event simulator on
//! `HardwareProfile::paper_testbed()`, or for Table 6 real training — and
//! returns `{bench, title, columns, rows, …}`: one table whose column
//! keys double as headings and whose cells are numbers, strings or, where
//! the paper published a counterpart, `{model, paper, err}` read from
//! `published` (`err` is the signed relative error, so calibration is a
//! column, not a program), plus *facts* — nested tables and the named
//! values the row's gates in [`super::SCENARIOS`] read. A time a system
//! could not produce because it ran out of memory is `NaN`: it prints as
//! `OOM`, is written as `null`, and fails every comparison it meets.
//! [`render`] turns a report into the markdown — table, nested tables,
//! every other fact — that is both the row's stdout and its block in
//! EXPERIMENTS.md. Rows take the campaign seed and ignore it: their seeds
//! are the fixed ones the committed tables were produced with.

use std::collections::BTreeMap;

use rand::Rng;
use schemoe::prelude::*;
use schemoe::AdaptiveScheMoe;
use schemoe_collectives::{a2a_fits_memory, a2a_time, analysis, straggler_factor, TrafficMatrix};
use schemoe_models::{CopyTranslation, RegimeMarkov};
use schemoe_moe::{balance_stats, ExpertChoiceRouter, RandomRouter, Router, TokenChoiceRouter};
use schemoe_netsim::cost::LinkModel;
use schemoe_obs::json::Json;
use schemoe_scheduler::schedules::{brute_force_best, chain_orders, naive_makespan, stage_major};
use schemoe_scheduler::{optsche_makespan, Schedule};
use schemoe_tensor::rng::{self, seeded};

use super::{obj, round};

/// The paper's numbers — the only copy in the tree.
mod published {
    /// Table 1 (CT-MoE-x on Tutel): layers, A2A ms, step ms, A2A share %.
    pub const TABLE1: [(usize, f64, f64, f64); 4] = [
        (12, 252.6, 497.1, 50.8),
        (16, 324.8, 623.0, 52.1),
        (20, 419.3, 768.9, 54.5),
        (24, 507.4, 863.6, 58.8),
    ];
    /// Table 6: method, wikitext-103 perplexity, wmt14_en_fr BLEU.
    pub const TABLE6: [(&str, f64, f64); 5] = [
        ("Base", 128.8, 45.51),
        ("MoE", 106.8, 46.61),
        ("MoE w/FP16", 106.85, 46.59),
        ("MoE w/INT8", 110.35, 46.68),
        ("MoE w/ZFP", 106.87, 46.58),
    ];
    /// Table 7: step ms (mean, std) of Tutel, Faster-MoE and ScheMoE at
    /// Table 1's four depths.
    pub const TABLE7: [[(f64, f64); 4]; 3] = [
        [(497.0, 9.0), (623.0, 2.0), (769.0, 3.0), (864.0, 3.0)],
        [(506.0, 7.0), (640.0, 8.0), (845.0, 10.0), (1003.0, 16.0)],
        [(454.0, 4.0), (552.0, 1.0), (658.0, 1.0), (774.0, 8.0)],
    ];
    /// Table 8 (BERT-Large-MoE): step ms (mean, std) of Tutel and ScheMoE
    /// — Faster-MoE ran out of memory; their ratio is the paper's 1.16x —
    /// and the percent of ScheMoE's gain owed to ZFP and to scheduling.
    pub const TABLE8: [(f64, f64); 2] = [(783.3, 11.8), (672.9, 28.4)];
    pub const TABLE8_GAIN_PCT: (f64, f64) = (70.0, 30.0);
    /// Table 10: variant, layer ms (mean, std), speedup over Naive.
    pub const TABLE10: [(&str, f64, f64, f64); 4] = [
        ("Naive", 2401.0, 22.0, 1.0),
        ("ScheMoE-Z (+ZFP)", 1264.0, 5.0, 1.9),
        ("ScheMoE-ZP (+Pipe-A2A)", 1110.0, 5.0, 2.2),
        ("ScheMoE (+OptSche)", 1019.0, 2.0, 2.4),
    ];
    /// Fig. 8: mean speedup over Tutel across the sweep.
    pub const FIG8_MEAN: f64 = 1.22;
    /// Fig. 9: Pipe-A2A's factor over (NCCL, 2DH) in the small, median
    /// and large panels ("3-5 %", "1.4x", "2x").
    pub const FIG9: [(f64, f64); 3] = [(1.04, 1.04), (1.04, 1.04), (1.4, 2.0)];
}

/// A row of cells from anything a [`Json`] is made from.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => {
        [$(Json::from($cell)),*]
    };
}

/// A model value beside its published counterpart.
fn vs(model: f64, paper: f64) -> Json {
    obj! { "model": model, "paper": paper, "err": model / paper - 1.0 }
}

/// The `mean ± std` of three jittered runs beside the paper's.
fn pm((m, s): (f64, f64), (p, ps): (f64, f64)) -> Json {
    obj! { "model": m, "std": s, "paper": p, "paper_std": ps, "err": m / p - 1.0 }
}

/// A table: `rows` of cells under the space-separated `keys`, which
/// double as headings — and, with `bench` among its `facts`, a report.
fn table<const C: usize>(
    title: &str,
    keys: &str,
    rows: impl IntoIterator<Item = [Json; C]>,
    facts: Json,
) -> Json {
    let keys: Vec<&str> = keys.split(' ').collect();
    assert_eq!(keys.len(), C, "{title}: one key per cell");
    let row = |cells: [Json; C]| Json::Obj(keys.iter().map(|k| k.to_string()).zip(cells).collect());
    let rows: Vec<Json> = rows.into_iter().map(row).collect();
    let columns: Vec<Json> = keys.iter().map(|&k| k.into()).collect();
    let mut doc = obj! { "title": title, "columns": columns, "rows": rows };
    if let (Json::Obj(doc), Json::Obj(facts)) = (&mut doc, facts) {
        doc.extend(facts);
    }
    doc
}

/// A value as text. A number the code computed prints with four
/// significant digits (a whole one as is, a `std` to its mean's
/// decimals) and `NaN` as `OOM`; a published one prints as published. A
/// `{model, paper, err}` cell reads `model (paper, err)`; a list is
/// comma-separated.
fn cell(value: &Json) -> String {
    let places = |like: f64| (3 - like.abs().log10().floor() as i32).clamp(0, 6) as usize;
    let num = |x: f64, like: f64| match (x.is_nan(), (like - like.round()).abs() < 1e-9) {
        (true, _) => "OOM".to_string(),
        (_, true) => format!("{x:.0}"),
        _ => format!("{x:.*}", places(like)),
    };
    let field = |key: &str| value.get(key).and_then(Json::as_f64);
    let pm = |std: Option<String>| std.map_or(String::new(), |std| format!("±{std}"));
    match (value, field("model")) {
        (Json::Num(x), _) => num(*x, *x),
        (Json::Str(s), _) => s.clone(),
        (Json::Arr(xs), _) => xs.iter().map(cell).collect::<Vec<_>>().join(", "),
        (Json::Obj(_), Some(model)) => {
            let finite = |key: &str| field(key).filter(|x| x.is_finite());
            let std = finite("std").map(|std| num(std, model));
            let err = finite("err").map_or(String::new(), |e| format!(", {:+.1}%", e * 100.0));
            let paper = value.get("paper").map_or(String::new(), Json::to_string);
            let paper_std = value.get("paper_std").map(Json::to_string);
            format!(
                "{}{} ({paper}{}{err})",
                num(model, model),
                pm(std),
                pm(paper_std)
            )
        }
        (other, _) => other.to_string(),
    }
}

/// The markdown of a report: its table under its keys as headings, its
/// other facts as a `key: value` list, then every nested table in key
/// order. `None` for a report that is not a table.
pub fn render(doc: &Json) -> Option<String> {
    let (Json::Obj(fields), columns) = (doc, doc.get("columns")?.as_array()?) else {
        return None;
    };
    let keys: Vec<&str> = columns.iter().filter_map(Json::as_str).collect();
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = format!("**{}**\n\n", doc.get("title")?.as_str()?);
    out += &line(keys.iter().map(|k| k.replace('_', " ")).collect());
    out += &line(vec!["---".to_string(); keys.len()]);
    for row in doc.get("rows")?.as_array()? {
        let cells = keys.iter().map(|k| row.get(k).map_or("—".into(), cell));
        out += &line(cells.collect());
    }
    let own = ["bench", "title", "columns", "rows"];
    let is_fact = |(k, v): &(&String, &Json)| !own.contains(&k.as_str()) && v.get("rows").is_none();
    let facts = fields.iter().filter(is_fact);
    let facts: Vec<String> = facts.map(|(k, v)| format!("{k}: {}", cell(v))).collect();
    let facts = (!facts.is_empty()).then(|| format!("- {}\n", facts.join("\n- ")));
    for section in facts.into_iter().chain(fields.values().filter_map(render)) {
        out += &format!("\n{section}");
    }
    Some(out)
}

fn testbed() -> (Topology, HardwareProfile) {
    (Topology::paper_testbed(), HardwareProfile::paper_testbed())
}

/// A `k = 2`, `f = 1.2` MoE layer: every study's shape but for the
/// capacity axis of the Table 4 sweep.
fn layer(tokens_per_gpu: usize, model_dim: usize, hidden_dim: usize, experts: usize) -> LayerShape {
    LayerShape {
        tokens_per_gpu,
        model_dim,
        hidden_dim,
        experts,
        k: 2,
        capacity_factor: 1.2,
    }
}

/// The OptSche makespan in ms of `shape` at partition degree `r` under
/// ZFP 4x + Pipe-A2A on the testbed; `r = 0` is the layer with no overlap.
fn optsche_ms(shape: &LayerShape, r: usize) -> f64 {
    let (topo, hw) = testbed();
    let costs = shape.costs(4.0);
    let tasks = costs.task_set(&topo, &hw, &PipeA2A::new(), r.max(1));
    match r {
        0 => naive_makespan(&tasks).as_ms(),
        _ => optsche_makespan(&tasks).as_ms(),
    }
}

/// The differences between consecutive values.
fn steps(xs: &[f64]) -> Vec<Json> {
    xs.windows(2).map(|w| Json::from(w[1] - w[0])).collect()
}

/// Mean and sample standard deviation of a series.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean, var.sqrt())
}

/// A copy of `hw` with every link bandwidth and the framework overhead
/// perturbed by up to `±sigma`.
///
/// The paper reports mean ± std over three real runs; the simulator is
/// deterministic, so run-to-run variance is modelled as small
/// multiplicative noise where real testbed variance comes from: network
/// jitter, and the driver, Python and allocator under every layer.
pub fn jittered(hw: &HardwareProfile, sigma: f64, seed: u64) -> HardwareProfile {
    let mut rng = seeded(seed);
    let mut noise = || 1.0 + sigma * (rng.gen_range(0.0f64..1.0) * 2.0 - 1.0);
    let mut bump = |l: LinkModel| LinkModel::new(l.latency_s, l.bandwidth_bps * noise());
    let mut out = hw.clone();
    out.intra_link = bump(out.intra_link);
    out.intra_link_exclusive = bump(out.intra_link_exclusive);
    out.inter_link = bump(out.inter_link);
    out.layer_overhead = out.layer_overhead * noise();
    out
}

/// `(mean, std)` step ms of `system` on the testbed under three jittered
/// profiles; `NaN` when it runs out of memory.
fn step_ms_3runs(system: &MoeSystem, model: &MoeModelConfig) -> (f64, f64) {
    let (topo, hw) = testbed();
    let run = |seed| model_step_time(system, model, &topo, &jittered(&hw, 0.01, seed));
    match [run(1234), run(1235), run(1236)] {
        [Ok(a), Ok(b), Ok(c)] => mean_std(&[a, b, c].map(|est| est.step.as_ms())),
        _ => (f64::NAN, f64::NAN),
    }
}

/// The Table 4 sweep grid: every (B, f, L, H, M) combination, as the
/// digits of a mixed-radix index with M the fastest.
pub fn table4_grid() -> Vec<LayerShape> {
    const DIMS: [usize; 5] = [512, 1024, 2048, 4096, 8192];
    let shape = |i: usize| {
        let tokens = [2, 4, 8][i / 225] * DIMS[i / 25 % 3];
        let mut shape = layer(tokens, DIMS[i % 5], DIMS[i / 5 % 5], 32);
        shape.capacity_factor = [1.0, 1.1, 1.2][i / 75 % 3];
        shape
    };
    (0..675).map(shape).collect()
}

/// Whether a sweep configuration fits in device memory (expert state +
/// activations + capacity-padded A2A buffers), mirroring the paper's OOM
/// exclusion of sweep cases (§6.1). The 3·3·3·5·5 grid is 675 cases and
/// §6.3 reports 675 valid measurements, so on the paper's own budget every
/// grid point fits a single MoE-layer microbenchmark; the check still
/// guards the sweep against profile variants with less memory.
pub fn sweep_config_fits(shape: &LayerShape, topo: &Topology, hw: &HardwareProfile) -> bool {
    let mut budget = MemoryBudget::new(hw.gpu_mem_bytes);
    budget.add("expert state", shape.expert_state_bytes(topo.world_size()));
    let activations = 4 * (shape.tokens_per_gpu * shape.model_dim * 4) as u64;
    budget.add("activations", activations);
    budget.add("a2a buffers", 2 * shape.a2a_bytes());
    budget.add("framework reserve", 1 << 30);
    budget.fits()
}

/// Table 1: step time and A2A time of CT-MoE-x on Tutel.
pub fn table1(_seed: u64) -> Json {
    let (topo, hw) = testbed();
    let mut a2a_ms = Vec::new();
    let rows = published::TABLE1.map(|(layers, a2a, step, share)| {
        let model = MoeModelConfig::ct_moe(layers);
        let est = model_step_time(&TutelEmu::new(), &model, &topo, &hw).expect("CT-MoE fits");
        a2a_ms.push(est.a2a.as_ms());
        let (a2a, step) = (vs(est.a2a.as_ms(), a2a), vs(est.step.as_ms(), step));
        let share = vs(est.a2a_ratio() * 100.0, share);
        cells![layers, model.total_params() as f64 / 1e6, a2a, step, share]
    });
    table(
        "Table 1: A2A time and step time of CT-MoE-x on Tutel, model (paper, error)",
        "layers params_M A2A_ms step_ms A2A_share_pct",
        rows,
        obj! { "bench": "table1", "a2a_growth_ms": steps(&a2a_ms) },
    )
}

/// Table 6: convergence under A2A compression.
///
/// The paper trains Transformer-MoE on wmt14_en_fr (BLEU) and
/// GPT2-Tiny-MoE on wikitext-103 (perplexity). Those corpora are
/// unavailable offline, so this trains *real* models on learnable
/// synthetic tasks with the same metric structure: regime-switching
/// Markov language modelling (validation perplexity) and deterministic
/// copy-translation (target-token accuracy as a BLEU proxy). Every method
/// trains 250 steps from the same three model seeds — single-seed
/// orderings on a toy task are noise — and only the codec on the MoE
/// dispatch/combine path differs.
pub fn table6(_seed: u64) -> Json {
    let markov = RegimeMarkov::new(24, 4, &mut seeded(7));
    let translation = CopyTranslation::new(40, 12, &mut seeded(8));
    let trainer = Trainer {
        steps: 250,
        ..Default::default()
    };
    // Markov perplexity, translation perplexity and BLEU proxy of one
    // method (a row of `published::TABLE6`) from one model seed.
    let train = |method: usize, seed: u64| {
        let lm = |vocab, seq_len| {
            let cfg = LmConfig {
                hidden_dim: 48,
                experts: (method > 0).then_some(8),
                ..LmConfig::small(vocab, seq_len)
            };
            let mut lm = TinyMoeLm::new(cfg, &mut seeded(2024 + seed * 7919));
            match method {
                2 => lm.set_compressor(|| Box::new(Fp16Compressor)),
                3 => lm.set_compressor(|| Box::new(Int8Compressor)),
                4 => lm.set_compressor(|| Box::new(ZfpCompressor::default())),
                _ => {}
            }
            lm
        };
        let lm_run = trainer.run_markov(&mut lm(24, 16), &markov);
        let mut tr = lm(translation.total_vocab(), translation.seq_len());
        let tr_run = trainer.run_translation(&mut tr, &translation);
        let bleu = tr_run.bleu_proxy.expect("translation reports the proxy");
        [lm_run.val_perplexity, tr_run.val_perplexity, bleu].map(f64::from)
    };
    let means = [0, 1, 2, 3, 4].map(|method| {
        let runs = [0, 1, 2].map(|seed| train(method, seed));
        [0, 1, 2].map(|metric| runs.iter().map(|run| run[metric]).sum::<f64>() / 3.0)
    });
    let rows = published::TABLE6.iter().zip(means);
    let gap = |method: usize| means[method][0] / means[1][0] - 1.0;
    let [fp16, int8, zfp] = outlier_rmse();
    let beside = |model: f64, paper: f64| obj! { "model": model, "paper": paper };
    table(
        "Table 6: convergence after 250 steps (mean of 3 seeds) beside the paper's corpora",
        "method Markov_ppl_(wikitext_ppl) translation_ppl BLEU_proxy_(wmt14_BLEU)",
        rows.map(|(&(method, ppl, bleu), m)| {
            cells![method, beside(m[0], ppl), m[1], beside(m[2], bleu)]
        }),
        obj! {
            "bench": "table6",
            "ppl_gap_vs_moe_base": gap(0),
            "ppl_gap_vs_moe_fp16": gap(2),
            "ppl_gap_vs_moe_zfp": gap(4),
            "uniform_ppl": 24.0,
            "markov_floor_ppl": markov.entropy_floor().exp(),
            "chance_accuracy": 1.0 / 40.0,
            "outlier_rmse": cells![fp16, int8, zfp].to_vec(),
            "outlier_rmse_int8_over_fp16": int8 / fp16,
            "outlier_rmse_int8_over_zfp": int8 / zfp,
        },
    )
}

/// The mechanism behind the paper's INT8 degradation: one per-tensor
/// scale collapses under activation outliers while FP16 (per value) and
/// the ZFP-style codec (per block) keep local precision. Large language
/// models develop rare 20-30x activation outliers; this synthesizes that
/// structure — unit-scale activations, 1 % of them scaled 30x — and
/// returns the round-trip RMSE of fp16, int8 and zfp on the rest.
fn outlier_rmse() -> [f64; 3] {
    let mut acts = rng::normal(&[4096], 0.0, 1.0, &mut seeded(99)).into_vec();
    for x in acts.iter_mut().step_by(100) {
        *x *= 30.0;
    }
    let codecs: [&dyn Compressor; 3] =
        [&Fp16Compressor, &Int8Compressor, &ZfpCompressor::default()];
    codecs.map(|codec| {
        let wire = codec.compress(&acts);
        let back = codec.decompress(&wire, acts.len()).expect("own output");
        let kept = (0..acts.len()).filter(|i| i % 100 != 0);
        let se: Vec<f64> = kept.map(|i| f64::from(acts[i] - back[i]).powi(2)).collect();
        (se.iter().sum::<f64>() / se.len() as f64).sqrt()
    })
}

/// Table 7: CT-MoE-x step time under three systems. ScheMoE runs with
/// scheduling + Pipe-A2A and no ZFP, the reading consistent with the
/// paper's own speedups (EXPERIMENTS.md); Table 10 isolates compression.
pub fn table7(_seed: u64) -> Json {
    let systems: [&MoeSystem; 3] = [
        &TutelEmu::new(),
        &FasterMoeEmu::new(),
        &ScheMoeSystem::without_compression(),
    ];
    let rows = [0, 1, 2, 3].map(|depth| {
        let layers = published::TABLE1[depth].0;
        let ms = systems.map(|sys| step_ms_3runs(sys, &MoeModelConfig::ct_moe(layers)));
        let paper = published::TABLE7.map(|system| system[depth]);
        let speedup = |sys: usize| vs(ms[0].0 / ms[sys].0, round(paper[0].0 / paper[sys].0, 3));
        let [tutel, faster, schemoe] = [0, 1, 2].map(|sys| pm(ms[sys], paper[sys]));
        cells![layers, tutel, faster, schemoe, speedup(1), speedup(2)]
    });
    table(
        "Table 7: CT-MoE-x step ms (3 jittered runs), speedups over Tutel, model (paper, error)",
        "layers Tutel Faster-MoE ScheMoE Faster-MoE_speedup ScheMoE_speedup",
        rows,
        obj! { "bench": "table7" },
    )
}

/// Table 8: BERT-Large-MoE end to end, with the gain attributed to
/// compression and to scheduling + Pipe-A2A, and the memory budget that
/// sinks Faster-MoE.
pub fn table8(_seed: u64) -> Json {
    let (topo, hw) = testbed();
    let model = MoeModelConfig::bert_large_moe();
    let tutel = step_ms_3runs(&TutelEmu::new(), &model);
    let faster = step_ms_3runs(&FasterMoeEmu::new(), &model);
    let schemoe = step_ms_3runs(&ScheMoeSystem::default_config(), &model);
    let sched_only = step_ms_3runs(&ScheMoeSystem::without_compression(), &model);
    let paper = published::TABLE8;
    let speedup = vs(tutel.0 / schemoe.0, round(paper[0].0 / paper[1].0, 2));
    let sched_pct = 100.0 * (tutel.0 - sched_only.0) / (tutel.0 - schemoe.0);
    let mib = |bytes: u64| bytes as f64 / f64::from(1 << 20);
    let mut memory = Vec::new();
    let oom = model_step_time(&FasterMoeEmu::new(), &model, &topo, &hw).err();
    if let Some(StepTimeError::OutOfMemory { budget }) = oom {
        for (item, bytes) in budget.components() {
            memory.push(cells![item.clone(), mib(*bytes)]);
        }
        memory.push(cells!["needed", mib(budget.total())]);
        memory.push(cells!["available", mib(budget.capacity())]);
    }
    let rows = [
        cells!["Tutel", pm(tutel, paper[0]), 1.0],
        cells!["Faster-MoE", faster.0, "—"],
        cells!["ScheMoE", pm(schemoe, paper[1]), speedup.clone()],
    ];
    let facts = obj! {
        "bench": "table8",
        "params_B": model.total_params() as f64 / 1e9,
        "a2a_message_bytes": model.a2a_bytes() / topo.world_size() as u64,
        "speedup": speedup,
        "faster_moe_fits": !faster.0.is_nan(),
        "gain_pct_zfp": vs(100.0 - sched_pct, published::TABLE8_GAIN_PCT.0),
        "gain_pct_sched": vs(sched_pct, published::TABLE8_GAIN_PCT.1),
        "memory": table("Faster-MoE's per-GPU memory", "item MiB", memory, obj! {}),
    };
    let title = "Table 8: BERT-Large-MoE step ms (3 jittered runs), model (paper, error)";
    table(title, "system step_ms speedup", rows, facts)
}

/// Table 10: the component ablation on one big MoE layer (B = 8,
/// L = 2048, M = H = 8192: 1.29 GB of A2A payload per GPU), each arm from
/// the same cost model, plus the same ablation through the system layer.
pub fn table10(_seed: u64) -> Json {
    let (topo, hw) = testbed();
    let shape = layer(8 * 2048, 8192, 8192, 32);
    // Arm `i` adds ZFP (i >= 1), Pipe-A2A (i >= 2) and OptSche over the
    // adaptive degree set (i >= 3) to the naive layer.
    let arm_ms = |arm: usize, hw: &HardwareProfile| {
        let costs = shape.costs(if arm >= 1 { 4.0 } else { 1.0 });
        let a2a: &dyn AllToAll = if arm >= 2 { &PipeA2A::new() } else { &NcclA2A };
        let tasks = |r| costs.task_set(&topo, hw, a2a, r);
        let scheduled = |r| optsche_makespan(&tasks(r)).as_ms();
        match arm >= 3 {
            true => scheduled(2).min(scheduled(4)).min(scheduled(8)),
            false => naive_makespan(&tasks(1)).as_ms(),
        }
    };
    let runs = |arm| [4321, 4322, 4323].map(|seed| arm_ms(arm, &jittered(&hw, 0.01, seed)));
    let ms = [0, 1, 2, 3].map(|arm| mean_std(&runs(arm)));
    let rows = published::TABLE10.iter().zip(ms);
    let naive = NaiveSystem::new().layer_time(&shape, &topo, &hw);
    let full = ScheMoeSystem::default_config().layer_time(&shape, &topo, &hw);
    table(
        "Table 10: MoE-layer ablation (B=8, f=1.2, L=2048, H=M=8192), ms of 3 jittered runs",
        "variant layer_ms speedup",
        rows.map(|(&(variant, p_ms, p_std, p_speedup), arm)| {
            let speedup = vs(ms[0].0 / arm.0, p_speedup);
            cells![variant, pm(arm, (p_ms, p_std)), speedup]
        }),
        obj! {
            "bench": "table10",
            "gain_ms_zfp": ms[0].0 - ms[1].0,
            "gain_ms_pipe": ms[1].0 - ms[2].0,
            "gain_ms_sched": ms[2].0 - ms[3].0,
            "system_naive_ms": vs(naive.as_ms(), published::TABLE10[0].1),
            "system_speedup": vs(naive / full, published::TABLE10[3].3),
        },
    )
}

/// Fig. 5: different schedules of one layer, and Theorem 1 checked
/// against the exhaustive oracle. Task durations put communication near
/// expert compute, the regime where the order matters.
pub fn fig5(_seed: u64) -> Json {
    let ms = SimTime::from_ms;
    let tasks = TaskSet::uniform(2, ms(2.0), ms(10.0), ms(2.5), ms(8.0));
    let whole = TaskSet::uniform(1, ms(4.0), ms(20.0), ms(5.0), ms(16.0));
    let mut valid_orders = 0u64;
    chain_orders(2, &mut |_| valid_orders += 1);
    let (best, best_ms) = brute_force_best(&tasks);
    let hidden = |s: &Schedule| s.hidden_time(&tasks).expect("valid").as_ms();
    let makespan = |s: &Schedule| s.makespan(&tasks).expect("valid").as_ms();
    let row = |name: &str, s: &Schedule| cells![name, s.describe(), makespan(s), hidden(s)];
    let serial_ms = naive_makespan(&whole).as_ms();
    let rows = [
        cells!["(a) default order, r=1", "—", serial_ms, 0.0],
        row("(b) stage-major, r=2", &stage_major(2)),
        row("(c) OptSche (Theorem 1), r=2", &optsche(2)),
        row("exhaustive optimum, r=2", &best),
    ];
    // Makespans rounded to 1e-12 s, the tolerance Theorem 1 is held to.
    let facts = obj! {
        "bench": "fig5",
        "valid_orders": valid_orders,
        "optsche_ms": round(makespan(&optsche(2)), 9),
        "best_ms": round(best_ms.as_ms(), 9),
        "optsche_hidden_ms": hidden(&optsche(2)),
        "stage_major_hidden_ms": hidden(&stage_major(2)),
    };
    let title = "Fig. 5: schedules of one MoE layer and the time each hides (Eq. 11)";
    table(title, "schedule order makespan_ms hidden_ms", rows, facts)
}

/// Fig. 8: ScheMoE over Tutel across the 675 MoE-layer configurations of
/// Table 4 (E = 32, k = 2), one layer forward + backward as in the layer
/// microbenchmark. As in Table 7 ScheMoE runs Pipe-A2A + OptSche without
/// ZFP: with 4x compression the sweep mean would be ~2.9x, far beyond
/// anything the paper reports.
pub fn fig8(_seed: u64) -> Json {
    let (topo, hw) = testbed();
    let grid = table4_grid();
    let speedup = |shape: &LayerShape, passes: &[f64]| {
        let time = |sys: &MoeSystem| -> SimTime {
            let pass = |&scale| sys.layer_time_scaled(shape, &topo, &hw, scale);
            passes.iter().map(pass).sum()
        };
        time(&TutelEmu::new()) / time(&ScheMoeSystem::without_compression())
    };
    let valid = || grid.iter().filter(|s| sweep_config_fits(s, &topo, &hw));
    let mut all: Vec<f64> = valid().map(|s| speedup(s, &[1.0, 2.0])).collect();
    all.sort_by(f64::total_cmp);
    let n = all.len();
    // Histogram over 0.1x buckets from 1.0x.
    let mut buckets = BTreeMap::new();
    for s in &all {
        let bucket = ((s - 1.0) / 0.1).max(0.0) as usize;
        *buckets.entry(bucket).or_insert(0usize) += 1;
    }
    let tallest = buckets.values().copied().max().unwrap_or(1);
    let histogram = buckets.iter().map(|(&b, &configs)| {
        let from = 1.0 + b as f64 * 0.1;
        let bar = "#".repeat((configs * 50).div_ceil(tallest));
        cells![format!("[{from:.1}, {:.1})", from + 0.1), configs, bar]
    });
    let quantiles = [0, n / 4, n / 2, 3 * n / 4, n - 1].map(|i| Json::from(all[i]));
    table(
        "Fig. 8: ScheMoE speedup over Tutel across the Table 4 grid, forward + backward",
        "speedup configs histogram",
        histogram,
        obj! {
            "bench": "fig8",
            "valid": n,
            "excluded": grid.len() - n,
            "losses_fwd": valid().filter(|s| speedup(s, &[1.0]) < 1.0).count(),
            "losses": all.iter().filter(|&&s| s < 1.0).count(),
            "mean": vs(all.iter().sum::<f64>() / n as f64, published::FIG8_MEAN),
            "min_p25_median_p75_max": quantiles.to_vec(),
        },
    )
}

/// Fig. 9's panels — small [1K, 1M], median [1M, 200M], large [200M, 2G]:
/// total input KiB per GPU.
const FIG9_KIB: [[u64; 6]; 3] = [
    [1, 4, 16, 64, 256, 1024],
    [1024, 4096, 16384, 51200, 102400, 204800],
    [204800, 409600, 819200, 1228800, 1638400, 2048000],
];

/// Fig. 9: the four A2A algorithms across message sizes on the 8x4
/// testbed, and Eq. 18's analytical ceiling for Pipe-A2A.
pub fn fig9(_seed: u64) -> Json {
    let (topo, hw) = testbed();
    // The 1 GiB reserve models the benchmark's own tensors resident
    // alongside the collective.
    let ms = |alg: &dyn AllToAll, bytes| match a2a_fits_memory(alg, &topo, &hw, bytes, 1 << 30) {
        true => a2a_time(alg, &topo, &hw, bytes).expect("valid").as_ms(),
        false => f64::NAN,
    };
    let panel = |i: usize, name: &str| {
        let rows = FIG9_KIB[i].map(|kib| {
            let bytes = kib << 10;
            let (nccl, h1d) = (ms(&NcclA2A, bytes), ms(&OneDimHierA2A, bytes));
            let (h2d, pipe) = (ms(&TwoDimHierA2A, bytes), ms(&PipeA2A::new(), bytes));
            let (p_nccl, p_2dh) = published::FIG9[i];
            let (vs_nccl, vs_2dh) = (vs(nccl / pipe, p_nccl), vs(h2d / pipe, p_2dh));
            cells![bytes, nccl, h1d, h2d, pipe, vs_nccl, vs_2dh]
        });
        let title = format!("Fig. 9, {name} messages: A2A ms and Pipe-A2A's factor");
        let keys = "bytes NCCL 1DH 2DH Pipe Pipe_vs_NCCL Pipe_vs_2DH";
        table(&title, keys, rows, obj! {})
    };
    let largest_first = FIG9_KIB[2].iter().rev();
    let oom_1dh = largest_first.take_while(|&&kib| ms(&OneDimHierA2A, kib << 10).is_nan());
    let eq18 = [1u64 << 20, 200 << 20, 2000 << 20].map(|bytes| {
        let ceiling = |hw: &HardwareProfile| analysis::max_speedup(&topo, hw, bytes);
        let nvlink = ceiling(&HardwareProfile::nvlink_dgx());
        cells![bytes, ceiling(&hw), nvlink]
    });
    table(
        "Fig. 9: Eq. 18's analytical maximum speedup of Pipe-A2A over sequential execution",
        "bytes paper_testbed NVLink_what-if",
        eq18,
        obj! {
            "bench": "fig9",
            "a_small": panel(0, "small"),
            "b_median": panel(1, "median"),
            "c_large": panel(2, "large"),
            "oom_1dh_largest": oom_1dh.count(),
        },
    )
}

/// Ablation: the partition degree `r`, the knob OptSche takes as given.
///
/// The paper defers choosing `r` to PipeMoE and Tutel's heuristic (§4).
/// The best degree moves with the layer shape — chunking buys overlap but
/// multiplies per-message latency — and the profiler-driven adaptive
/// system has to track the oracle.
pub fn ablation_degree(_seed: u64) -> Json {
    let (topo, hw) = testbed();
    let mut adaptive = AdaptiveScheMoe::new();
    adaptive.calibrate(&topo, &hw);
    let shapes = [
        (2048, 512, 512),
        (4096, 1024, 4096),
        (8192, 2048, 2048),
        (16384, 4096, 8192),
        (16384, 8192, 8192),
    ];
    let rows = shapes.map(|(tokens, m, h)| {
        let shape = layer(tokens, m, h, 32);
        let [serial, r1, r2, r4, r8, r16] = [0, 1, 2, 4, 8, 16].map(|r| optsche_ms(&shape, r));
        let best_r = adaptive.oracle_degree(&shape, &topo, &hw);
        let pick = adaptive.choose_degree(&shape);
        let regret = optsche_ms(&shape, pick) / optsche_ms(&shape, best_r) - 1.0;
        let name = format!("({tokens}, {m}, {h})");
        cells![name, serial, r1, r2, r4, r8, r16, best_r, pick, regret]
    });
    table(
        "Partition degree: OptSche ms of one layer (tokens, M, H) under ZFP 4x + Pipe-A2A by r",
        "layer no_overlap r=1 r=2 r=4 r=8 r=16 oracle_r adaptive_r regret",
        rows,
        obj! { "bench": "ablation_degree" },
    )
}

/// Ablation: Pipe-A2A's gain against the intra/inter balance. §7's
/// Eq. 18 puts the pipelining headroom at `(t_intra + t_inter) /
/// max(t_intra, t_inter)` — 2x when the two are equal, 1x when either
/// dominates; scaling the intra-node bandwidth across two decades must
/// trace that tent.
pub fn ablation_hardware(_seed: u64) -> Json {
    let (topo, base) = testbed();
    let bytes = 1_000_000_000;
    let sweep = [0.125, 0.25, 0.45, 0.62, 0.8, 1.0, 2.0, 4.0, 8.0, 64.0].map(|mult| {
        let mut hw = base.clone();
        hw.intra_link = LinkModel::new(hw.intra_link.latency_s, hw.intra_link.bandwidth_bps * mult);
        let time = |alg: &dyn AllToAll| a2a_time(alg, &topo, &hw, bytes).expect("valid");
        let intra = analysis::t_intra(&topo, &hw, bytes).as_ms();
        let inter = analysis::t_inter(&topo, &hw, bytes).as_ms();
        let sim = time(&NcclA2A) / time(&PipeA2A::new());
        let eq18 = analysis::max_speedup(&topo, &hw, bytes);
        [hw.intra_link.bandwidth_bps / 1e9, intra, inter, sim, eq18]
    });
    // The row where `score` is greatest.
    let peak = |score: fn(&[f64; 5]) -> f64| {
        let best = sweep.iter().map(score).fold(f64::NEG_INFINITY, f64::max);
        sweep.iter().position(|row| score(row) == best)
    };
    table(
        "Pipe-A2A over sequential A2A against intra-node bandwidth (1 GB, 8x4, inter 2 GB/s/GPU)",
        "intra_GB/s t_intra_ms t_inter_ms simulated Eq18 gap",
        sweep.map(|[gbps, intra, inter, sim, eq18]| {
            cells![gbps, intra, inter, sim, eq18, sim / eq18 - 1.0]
        }),
        obj! {
            "bench": "ablation_hardware",
            "fastest_row": peak(|row| row[3]).expect("a maximum"),
            "balanced_row": peak(|row| -(row[1] - row[2]).abs()).expect("a maximum"),
        },
    )
}

/// Ablation: when does A2A compression pay for its compute? §7: the
/// saved communication must cover the codec kernels, which fails on fast
/// interconnects. The full system (OptSche + Pipe-A2A at its best degree)
/// runs with and without ZFP across hardware profiles and payload sizes,
/// then inside a single NVLink node, where every exchange rides a
/// 200 GB/s fabric.
pub fn ablation_compression(_seed: u64) -> Json {
    let row = |hw: &HardwareProfile, topo: Topology, tokens: usize| {
        let system = ScheMoeSystem::default_config();
        let shape = layer(tokens, 4096, 4096, 32);
        let ms = |sys: MoeSystem| sys.layer_time(&shape, &topo, hw).as_ms();
        let (plain, zfp) = (ms(system.with_compression_ratio(1.0)), ms(system));
        let (name, gpus, gain) = (
            hw.name.clone(),
            topo.world_size(),
            (plain / zfp - 1.0) * 100.0,
        );
        cells![name, gpus, tokens, plain, zfp, gain]
    };
    let keys = "profile GPUs tokens_per_GPU plain_ms ZFP_ms gain_pct";
    let clusters = [
        HardwareProfile::paper_testbed(),
        HardwareProfile::nvlink_dgx(),
        HardwareProfile::ethernet_cluster(),
    ];
    let sizes = [512, 2048, 8192, 32768];
    let multi_node = clusters
        .iter()
        .flat_map(|hw| sizes.map(|tokens| row(hw, Topology::paper_testbed(), tokens)));
    let dgx = HardwareProfile::nvlink_dgx();
    let one_node = [8192, 32768].map(|tokens| row(&dgx, Topology::new(1, 8), tokens));
    table(
        "ZFP 4x on the full scheduled layer (OptSche + Pipe-A2A, M=H=4096), 8x4 clusters",
        keys,
        multi_node,
        obj! {
            "bench": "ablation_compression",
            "one_node": table("The same inside a single NVLink node", keys, one_node, obj! {}),
        },
    )
}

/// Ablation: routing strategy against load balance and buffer pressure.
/// §8's algorithmic direction — balanced routing attacks the imbalance
/// that capacity factors and Faster-MoE's uncapped buffers wrestle with
/// at the systems level. Identical skew-controlled scores (`skew` of the
/// mass prefers expert 0) go through each router; uncapped token-choice
/// (`tc-uncapped`) is what Faster-MoE in effect provisions for.
pub fn ablation_routing(_seed: u64) -> Json {
    let (n, e, k) = (4096, 32, 2);
    let mut rows = Vec::new();
    let (mut uncapped_mb, mut expert_choice) = (Vec::new(), Vec::new());
    for skew in [0.0f32, 0.15, 0.4] {
        let mut scores = rng::uniform(&[n, e], 0.3, &mut seeded(11));
        for t in 0..n {
            scores.row_mut(t)[0] += skew * 3.0;
        }
        let scores = scores.softmax_rows().expect("rank-2");
        let routers: [(&str, &mut dyn Router); 4] = [
            ("token-choice", &mut TokenChoiceRouter::new(k, 1.25)),
            ("tc-uncapped", &mut TokenChoiceRouter::new(k, 1e9)),
            ("expert-choice", &mut ExpertChoiceRouter::new(k, 1.25)),
            ("stochastic", &mut RandomRouter::new(k, 1.25, seeded(12))),
        ];
        for (name, router) in routers {
            let decision = router.route(&scores);
            let stats = balance_stats(&decision, k);
            // The dispatch buffer an uncapped system must provision: max
            // expert load x token bytes (M = 1024, fp32).
            let max_load = decision.expert_loads().iter().copied().max().unwrap_or(0);
            let (drops, mb) = (stats.drop_rate * 100.0, (max_load * 1024 * 4) as f64 / 1e6);
            match name {
                "tc-uncapped" => uncapped_mb.push(mb),
                "expert-choice" => expert_choice.push(Json::from(stats.imbalance)),
                _ => {}
            }
            let (imbalance, cv) = (stats.imbalance, stats.load_cv);
            rows.push(cells![skew, name, imbalance, cv, drops, mb]);
        }
    }
    table(
        "Routing 4096 tokens to 32 experts (k=2, f=1.25) under increasing skew",
        "skew router imbalance load_CV drops_pct buffer_need_MB",
        rows,
        obj! {
            "bench": "ablation_routing",
            "expert_choice_imbalance": expert_choice,
            "uncapped_buffer_growth_mb": steps(&uncapped_mb),
        },
    )
}

/// Ablation: dynamic routing imbalance and its straggler cost. §2.1: the
/// gate may route wildly unequal token counts and every rank's A2A then
/// waits for the hottest destination; the capacity factor (Eq. 1) bounds
/// it — why every capacity-bounded system survives BERT-Large-MoE while
/// Faster-MoE's uncapped buffers do not (Table 8).
pub fn ablation_imbalance(_seed: u64) -> Json {
    let (topo, hw) = testbed();
    let total = 64_000_000; // per-rank A2A payload
    let straggler = |m: &TrafficMatrix| straggler_factor(m, &topo, &hw);
    let hot = [0.0, 0.1, 0.25, 0.5, 0.75].map(|share| {
        let m = TrafficMatrix::hot_expert(32, total, 7, share);
        let capped = |f: f64| straggler(&m.with_capacity((f * total as f64) as u64));
        let (imbalance, uncapped) = (m.imbalance(), straggler(&m));
        cells![share, imbalance, uncapped, capped(1.2), capped(2.0)]
    });
    let random = [1.0, 3.0, 6.0].map(|power| {
        let draw = |seed| TrafficMatrix::random_skewed(32, total, power, &mut seeded(seed));
        let draws = [40, 41, 42, 43, 44].map(draw);
        let mean = |f: &dyn Fn(&TrafficMatrix) -> f64| draws.iter().map(f).sum::<f64>() / 5.0;
        cells![power, mean(&TrafficMatrix::imbalance), mean(&straggler)]
    });
    let title = "Random heavy-tailed routing (power-law weights), mean of 5 draws";
    table(
        "Straggler factor of a 64 MB/GPU A2A with one expert taking `share` of every rank's traffic",
        "share imbalance straggler capped_at_120pct capped_at_200pct",
        hot,
        obj! {
            "bench": "ablation_imbalance",
            "random": table(title, "power imbalance straggler", random, obj! {}),
        },
    )
}

/// Scaling study: the paper evaluates one 32-GPU cluster and leaves
/// larger machines as future work; the simulator holds the per-GPU
/// workload fixed (weak scaling, E = P) and grows the cluster from 1 to
/// 32 nodes.
pub fn scaling(_seed: u64) -> Json {
    let hw = HardwareProfile::paper_testbed();
    let rows = [1, 2, 4, 8, 16, 32].map(|nodes| {
        let topo = Topology::new(nodes, 4);
        let shape = layer(8 * 1024, 4096, 4096, topo.world_size());
        let ms = |sys: &MoeSystem| sys.layer_time(&shape, &topo, &hw).as_ms();
        let (naive, tutel) = (ms(&NaiveSystem::new()), ms(&TutelEmu::new()));
        let schemoe = ms(&ScheMoeSystem::default_config());
        let ceiling = analysis::max_speedup(&topo, &hw, shape.a2a_bytes());
        let (gpus, speedup) = (topo.world_size(), tutel / schemoe);
        cells![nodes, gpus, naive, tutel, schemoe, speedup, ceiling]
    });
    table(
        "Weak scaling: per-GPU work fixed (8K tokens, M=H=4096, E=P, k=2, f=1.2), layer ms",
        "nodes GPUs Naive Tutel ScheMoE speedup Eq18_ceiling",
        rows,
        obj! { "bench": "scaling" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_prints_four_digits_its_published_counterpart_and_oom() {
        assert_eq!(cell(&Json::from(675usize)), "675");
        assert_eq!(cell(&Json::from(0.000201)), "0.000201");
        assert_eq!(cell(&Json::from("—")), "—");
        assert_eq!(cell(&vs(301.23, 252.6)), "301.2 (252.6, +19.3%)");
        assert_eq!(cell(&vs(1.3891, 1.16)), "1.389 (1.16, +19.8%)");
        assert_eq!(
            cell(&obj! { "model": 5.4881, "paper": 106.85 }),
            "5.488 (106.85)"
        );
        let runs = pm((557.1, 1.87), (497.0, 9.0));
        assert_eq!(cell(&runs), "557.1±1.9 (497±9, +12.1%)");
        assert_eq!(cell(&steps(&[1.0, 3.5, 3.0]).into()), "2.500, -0.5000");
        // Out of memory: no number, no error, and no gate holds on it.
        assert_eq!(cell(&Json::from(f64::NAN)), "OOM");
        let oom = pm((f64::NAN, f64::NAN), (497.0, 9.0));
        assert_eq!(cell(&oom), "OOM (497±9)");
    }

    #[test]
    fn a_report_renders_its_table_then_its_facts_then_its_nested_tables() {
        let nested = table("Inner", "size", [cells![1024u64]], obj! {});
        let facts = obj! { "bench": "demo", "z_inner": nested, "losses": 0u64, "fits": false };
        let rows = [cells!["Tutel", 1.5], cells!["Faster-MoE", f64::NAN]];
        let doc = table("Outer", "system step_ms", rows, facts);
        let text = "**Outer**\n\n| system | step ms |\n| --- | --- |\n| Tutel | 1.500 |\n\
                    | Faster-MoE | OOM |\n\n- fits: false\n- losses: 0\n\n**Inner**\n\n\
                    | size |\n| --- |\n| 1024 |\n";
        assert_eq!(render(&doc).as_deref(), Some(text));
        assert_eq!(render(&obj! { "bench": "overlap", "chosen_r": 2u64 }), None);
    }

    #[test]
    #[should_panic(expected = "one key per cell")]
    fn a_table_refuses_a_row_its_keys_do_not_cover() {
        table("Short", "only", [cells![1.0, 2.0]], obj! {});
    }
}
