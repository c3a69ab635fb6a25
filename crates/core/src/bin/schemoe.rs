//! `schemoe` — the command-line front end to ScheMoE-RS.
//!
//! ```text
//! schemoe info
//! schemoe estimate --model ct-moe-12 --system schemoe
//! schemoe layer --tokens 16384 --m 8192 --h 8192 [--e 32 --k 2 --f 1.2]
//! schemoe a2a --bytes 640000000 [--profile paper|nvlink|ethernet]
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! admits no CLI crate); every flag is `--key value`.

use std::collections::HashMap;
use std::process::ExitCode;

use schemoe::prelude::*;
use schemoe::{A2aRegistry, CompressorRegistry, ScheduleRegistry};
use schemoe_collectives::a2a_time;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(),
        "estimate" => cmd_estimate(&flags),
        "layer" => cmd_layer(&flags),
        "a2a" => cmd_a2a(&flags),
        "trace" => cmd_trace(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "schemoe — MoE step-time estimation and A2A analysis

USAGE:
  schemoe info                               list profiles, models, plugins
  schemoe estimate --model <name> [--system <name>] [--profile <name>]
  schemoe layer --tokens <n> --m <n> --h <n> [--e 32] [--k 2] [--f 1.2]
  schemoe a2a --bytes <n> [--profile <name>]
  schemoe trace --tokens <n> --m <n> --h <n> [--r 2] [--out trace.json]
                                             export a chrome://tracing JSON
                                             of the OptSche schedule

MODELS:    transformer-moe, gpt2-tiny-moe, ct-moe-<layers>, bert-large-moe
SYSTEMS:   naive, tutel, faster-moe, schemoe, schemoe-nz (no compression)
PROFILES:  paper (default), nvlink, ethernet";

/// Parses `--key value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{key}'"));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn flag_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        None => default.ok_or_else(|| format!("missing required flag --{name}")),
    }
}

fn profile(flags: &HashMap<String, String>) -> Result<HardwareProfile, String> {
    match flags.get("profile").map(String::as_str).unwrap_or("paper") {
        "paper" => Ok(HardwareProfile::paper_testbed()),
        "nvlink" => Ok(HardwareProfile::nvlink_dgx()),
        "ethernet" => Ok(HardwareProfile::ethernet_cluster()),
        other => Err(format!("unknown profile '{other}'")),
    }
}

fn system(name: &str) -> Result<Box<dyn MoeSystem>, String> {
    match name {
        "naive" => Ok(Box::new(NaiveSystem::new())),
        "tutel" => Ok(Box::new(TutelEmu::new())),
        "faster-moe" => Ok(Box::new(FasterMoeEmu::new())),
        "schemoe" => Ok(Box::new(ScheMoeSystem::default_config())),
        "schemoe-nz" => Ok(Box::new(ScheMoeSystem::without_compression())),
        other => Err(format!("unknown system '{other}'")),
    }
}

fn model(name: &str) -> Result<MoeModelConfig, String> {
    match name {
        "transformer-moe" => Ok(MoeModelConfig::transformer_moe()),
        "gpt2-tiny-moe" => Ok(MoeModelConfig::gpt2_tiny_moe()),
        "bert-large-moe" => Ok(MoeModelConfig::bert_large_moe()),
        other => {
            if let Some(layers) = other.strip_prefix("ct-moe-") {
                let layers: usize = layers
                    .parse()
                    .map_err(|_| format!("bad layer count in '{other}'"))?;
                if layers == 0 {
                    return Err("ct-moe needs at least one layer".to_string());
                }
                Ok(MoeModelConfig::ct_moe(layers))
            } else {
                Err(format!("unknown model '{other}'"))
            }
        }
    }
}

fn cmd_info() -> Result<(), String> {
    println!("hardware profiles:");
    for hw in [
        HardwareProfile::paper_testbed(),
        HardwareProfile::nvlink_dgx(),
        HardwareProfile::ethernet_cluster(),
    ] {
        println!(
            "  {:<28} intra {:>6.2} GB/s  inter {:>6.2} GB/s  mem {} GiB",
            hw.name,
            hw.intra_link.bandwidth_bps / 1e9,
            hw.inter_link.bandwidth_bps / 1e9,
            hw.gpu_mem_bytes >> 30
        );
    }
    println!("\nmodels (Table 5):");
    for m in [
        MoeModelConfig::transformer_moe(),
        MoeModelConfig::gpt2_tiny_moe(),
        MoeModelConfig::ct_moe(12),
        MoeModelConfig::bert_large_moe(),
    ] {
        println!(
            "  {:<18} {:>3} layers  E={:<3} k={}  {:>7.1} M params  A2A {:>8} B/GPU",
            m.name,
            m.layers,
            m.experts,
            m.k,
            m.total_params() as f64 / 1e6,
            m.a2a_bytes()
        );
    }
    println!(
        "\nregistered compressors: {:?}",
        CompressorRegistry::with_builtins().names()
    );
    println!(
        "registered A2A algos:   {:?}",
        A2aRegistry::with_builtins().names()
    );
    println!(
        "registered schedules:   {:?}",
        ScheduleRegistry::with_builtins().names()
    );
    Ok(())
}

fn cmd_estimate(flags: &HashMap<String, String>) -> Result<(), String> {
    let model_name = flags.get("model").ok_or("missing required flag --model")?;
    let m = model(model_name)?;
    let hw = profile(flags)?;
    let topo = Topology::paper_testbed();
    let system_names: Vec<&str> = match flags.get("system") {
        Some(s) => vec![s.as_str()],
        None => vec!["naive", "faster-moe", "tutel", "schemoe-nz", "schemoe"],
    };
    println!(
        "{} on {} ({} GPUs): {:.1} M params, A2A payload {} bytes/GPU",
        m.name,
        hw.name,
        topo.world_size(),
        m.total_params() as f64 / 1e6,
        m.a2a_bytes()
    );
    println!(
        "{:>12} {:>12} {:>12} {:>8} {:>12}",
        "system", "step", "a2a", "ratio", "memory"
    );
    for name in system_names {
        let sys = system(name)?;
        match model_step_time(sys.as_ref(), &m, &topo, &hw) {
            Ok(est) => println!(
                "{:>12} {:>12} {:>12} {:>7.0}% {:>9.2} GiB",
                name,
                format!("{}", est.step),
                format!("{}", est.a2a),
                est.a2a_ratio() * 100.0,
                est.memory.total() as f64 / (1u64 << 30) as f64
            ),
            Err(StepTimeError::OutOfMemory { budget }) => {
                println!(
                    "{:>12} {:>12} {:>12} {:>8} {:>9.2} GiB",
                    name,
                    "OOM",
                    "-",
                    "-",
                    budget.total() as f64 / (1u64 << 30) as f64
                );
            }
        }
    }
    Ok(())
}

fn cmd_layer(flags: &HashMap<String, String>) -> Result<(), String> {
    let shape = LayerShape {
        tokens_per_gpu: flag_num(flags, "tokens", None)?,
        model_dim: flag_num(flags, "m", None)?,
        hidden_dim: flag_num(flags, "h", None)?,
        experts: flag_num(flags, "e", Some(32))?,
        k: flag_num(flags, "k", Some(2))?,
        capacity_factor: flag_num(flags, "f", Some(1.2))?,
    };
    let hw = profile(flags)?;
    let topo = Topology::paper_testbed();
    println!(
        "layer: {} assigned tokens/GPU, A2A {} bytes/GPU, {} expert GFLOPs",
        shape.assigned_tokens(),
        shape.a2a_bytes(),
        shape.expert_flops() / 1_000_000_000
    );
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "system", "fwd", "fwd+bwd", "speedup"
    );
    let base = NaiveSystem::new().layer_time(&shape, &topo, &hw);
    for name in ["naive", "faster-moe", "tutel", "schemoe-nz", "schemoe"] {
        let sys = system(name)?;
        let fwd = sys.layer_time(&shape, &topo, &hw);
        let both = fwd + sys.layer_time_scaled(&shape, &topo, &hw, 2.0);
        println!(
            "{:>12} {:>14} {:>14} {:>8.2}x",
            name,
            format!("{fwd}"),
            format!("{both}"),
            base / fwd
        );
    }
    Ok(())
}

fn cmd_a2a(flags: &HashMap<String, String>) -> Result<(), String> {
    let bytes: u64 = flag_num(flags, "bytes", None)?;
    let hw = profile(flags)?;
    let topo = Topology::paper_testbed();
    let reg = A2aRegistry::with_builtins();
    println!(
        "all-to-all of {bytes} bytes/GPU on {} ({} GPUs):",
        hw.name,
        topo.world_size()
    );
    for name in reg.names() {
        let alg = reg.create(&name).expect("listed");
        if !schemoe_collectives::a2a_fits_memory(alg.as_ref(), &topo, &hw, bytes, 1 << 30) {
            println!("  {name:>6}: OOM");
            continue;
        }
        let t = a2a_time(alg.as_ref(), &topo, &hw, bytes).map_err(|e| e.to_string())?;
        println!("  {name:>6}: {t}");
    }
    Ok(())
}

fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    let shape = LayerShape {
        tokens_per_gpu: flag_num(flags, "tokens", None)?,
        model_dim: flag_num(flags, "m", None)?,
        hidden_dim: flag_num(flags, "h", None)?,
        experts: flag_num(flags, "e", Some(32))?,
        k: flag_num(flags, "k", Some(2))?,
        capacity_factor: flag_num(flags, "f", Some(1.2))?,
    };
    let r: usize = flag_num(flags, "r", Some(2))?;
    let default_out = "trace.json".to_string();
    let out_path = flags.get("out").unwrap_or(&default_out);
    let hw = profile(flags)?;
    let topo = Topology::paper_testbed();
    let costs = shape.costs(4.0);
    let tasks = costs.task_set(&topo, &hw, &PipeA2A::new(), r);
    let trace = optsche(r).trace(&tasks).map_err(|e| e.to_string())?;
    let json = schemoe_netsim::chrome::to_chrome_trace(&trace, &["gpu", "network"]);
    std::fs::write(out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "wrote {} events ({} bytes) to {out_path}; open in chrome://tracing or ui.perfetto.dev",
        trace.records().len(),
        json.len()
    );
    println!("schedule: {}", optsche(r).describe());
    println!("makespan: {}", trace.makespan());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn flag_parsing_accepts_pairs_and_rejects_garbage() {
        let args: Vec<String> = ["--model", "ct-moe-12", "--system", "schemoe"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("model").unwrap(), "ct-moe-12");
        assert!(parse_flags(&["stray".to_string()]).is_err());
        assert!(parse_flags(&["--dangling".to_string()]).is_err());
    }

    #[test]
    fn model_names_resolve() {
        assert_eq!(model("ct-moe-16").unwrap().layers, 16);
        assert_eq!(model("bert-large-moe").unwrap().experts, 32);
        assert!(model("ct-moe-x").is_err());
        assert!(model("ct-moe-0").is_err());
        assert!(model("nope").is_err());
    }

    #[test]
    fn systems_and_profiles_resolve() {
        for s in ["naive", "tutel", "faster-moe", "schemoe", "schemoe-nz"] {
            assert!(system(s).is_ok(), "{s}");
        }
        assert!(system("deepspeed").is_err());
        assert!(profile(&flags(&[("profile", "nvlink")])).is_ok());
        assert!(profile(&flags(&[("profile", "tpu")])).is_err());
        assert_eq!(
            profile(&flags(&[])).unwrap().name,
            "rtx2080ti-8x4-pcie3-ib100"
        );
    }

    #[test]
    fn numeric_flags_parse_with_defaults() {
        let f = flags(&[("tokens", "4096")]);
        assert_eq!(flag_num::<usize>(&f, "tokens", None).unwrap(), 4096);
        assert_eq!(flag_num::<usize>(&f, "e", Some(32)).unwrap(), 32);
        assert!(flag_num::<usize>(&f, "m", None).is_err());
        let bad = flags(&[("tokens", "many")]);
        assert!(flag_num::<usize>(&bad, "tokens", None).is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        cmd_info().unwrap();
        cmd_estimate(&flags(&[("model", "ct-moe-12")])).unwrap();
        cmd_layer(&flags(&[("tokens", "4096"), ("m", "1024"), ("h", "2048")])).unwrap();
        cmd_a2a(&flags(&[("bytes", "64000000")])).unwrap();
        let out = std::env::temp_dir().join("schemoe-cli-test-trace.json");
        cmd_trace(&flags(&[
            ("tokens", "4096"),
            ("m", "1024"),
            ("h", "2048"),
            ("out", out.to_str().unwrap()),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"ph\":\"X\""));
        let _ = std::fs::remove_file(out);
    }
}
