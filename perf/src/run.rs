//! `perf run`: every workload and the layer section in one command.
//!
//! Each workload runs in a child process of its own — twice, timed and
//! then traced — so `setup_s` and `peak_rss_mb` belong to that workload
//! alone; the layer section runs once, in a third kind of child.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{members, num, obj, parse, string, to_string, Json};
use crate::metrics::GLOBAL_ROWS;
use crate::report::SCRATCH;
use crate::workloads::Workload;

pub const RESULT_PATH: &str = "perf/out/result.json";

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// Runs this binary with `args`, echoing its stdout line by line as it
/// comes, and returns those lines. A child that exits non-zero is an error.
fn child(args: &[String]) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!("\n== perf {}", args.join(" "));
    let mut proc = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout was piped");
    let mut lines = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("child stdout: {e}"))?;
        println!("{line}");
        lines.push(line);
    }
    let status = proc.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("perf {} exited with {status}", args.join(" ")));
    }
    Ok(lines)
}

fn last_json(lines: &[String]) -> Result<Json, String> {
    let last = lines.last().ok_or("child printed nothing")?;
    parse(last).map_err(|e| format!("result line: {e}"))
}

/// The line `prefix {json}` among `lines`.
fn tagged_json(lines: &[String], prefix: &str) -> Option<Json> {
    lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|rest| parse(rest.trim()).ok())
}

fn workload_args(w: Workload, o: &RunOpts, trace: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        w.name(),
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--layers",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if o.quick {
        args.push("--quick".to_string());
    }
    args
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were taken on.
pub fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    obj([
        ("nproc", num(nproc as f64)),
        ("cpu", string(cpu)),
        ("kernel", string(kernel)),
        ("rustc", string(command_line("rustc", &["--version"]))),
        ("git", string(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// Folds a timed child's quartile line into its metrics.
fn with_spreads(metrics: &Json, spreads: Option<&Json>) -> Json {
    let mut out = members(metrics);
    for (name, metric) in &mut out {
        let Some(s) = spreads.and_then(|s| s.get(name)) else {
            continue;
        };
        let mut m = members(metric);
        m.extend(members(s));
        *metric = Json::Obj(m);
    }
    Json::Obj(out)
}

/// Runs everything, writes [`RESULT_PATH`], and returns whether every
/// workload's outputs were correct.
pub fn run_all(o: &RunOpts) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let mut workloads = BTreeMap::new();
    let mut all_correct = true;
    let mut wide_losses = Vec::new();
    let flag = |j: &Json| j.get("correct") == Some(&Json::Bool(true));
    // Steps of the timed and the traced child together.
    let count = |t: &Json, tr: &Json, k: &str| {
        let of = |j: &Json| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        num(of(t) + of(tr))
    };
    for w in Workload::ALL {
        let timed = child(&workload_args(w, o, false))?;
        let traced = child(&workload_args(w, o, true))?;
        let (t, tr) = (last_json(&timed)?, last_json(&traced)?);
        all_correct &= flag(&t) && flag(&tr);
        let end_to_end = with_spreads(
            t.get("metrics").unwrap_or(&Json::Null),
            tagged_json(&timed, "SPREAD").as_ref(),
        );
        if !w.is_lm() {
            let loss = end_to_end.get("final_loss").and_then(|m| m.get("value"));
            wide_losses.push(loss.and_then(Json::as_f64));
        }
        workloads.insert(
            w.name().to_string(),
            obj([
                ("correct", Json::Bool(flag(&t) && flag(&tr))),
                ("attempted", count(&t, &tr, "attempted")),
                ("failed", count(&t, &tr, "failed")),
                ("end_to_end", end_to_end),
                (
                    "per_layer",
                    tr.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        );
    }
    // The same step on two transports must train the same model.
    if wide_losses
        .windows(2)
        .any(|p| p[0] != p[1] || p[0].is_none())
    {
        println!("moe_wide_tcp and moe_wide_shm disagree on final_loss: {wide_losses:?}");
        all_correct = false;
    }

    let mut layer_args = vec![
        "layers".to_string(),
        "--seed".to_string(),
        o.seed.to_string(),
    ];
    if o.quick {
        layer_args.push("--quick".to_string());
    }
    let layers = last_json(&child(&layer_args)?)?;
    all_correct &= flag(&layers);

    let result = obj([
        ("seed", num(o.seed as f64)),
        ("seconds", num(o.seconds)),
        ("quick", Json::Bool(o.quick)),
        ("correct", Json::Bool(all_correct)),
        ("wall_s", num(started.elapsed().as_secs_f64())),
        ("machine", machine()),
        ("workloads", Json::Obj(workloads)),
        (
            "layers",
            layers.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ]);
    std::fs::create_dir_all("perf/out").map_err(|e| format!("perf/out: {e}"))?;
    std::fs::write(RESULT_PATH, to_string(&result) + "\n")
        .map_err(|e| format!("{RESULT_PATH}: {e}"))?;
    println!(
        "\nwrote {RESULT_PATH} after {:.0} s; outputs {}",
        started.elapsed().as_secs_f64(),
        if all_correct { "correct" } else { "WRONG" }
    );
    Ok(all_correct)
}

/// The `layers` child: the layer section alone.
pub fn layers_only(seed: u64, quick: bool) -> Result<(), String> {
    let scratch = Path::new(SCRATCH);
    std::fs::create_dir_all(scratch).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let mut m = crate::layers::run_layers(seed, scratch, crate::layers::Scale { quick });
    let _ = std::fs::remove_dir(scratch);
    for row in m.absent(0..GLOBAL_ROWS) {
        m.wrong.push(format!("{row} was not measured"));
    }
    for note in &m.wrong {
        println!("WRONG layers: {note}");
    }
    println!(
        "{}",
        to_string(&obj([
            ("correct", Json::Bool(m.wrong.is_empty())),
            ("metrics", m.to_json(0..GLOBAL_ROWS, false)),
        ]))
    );
    Ok(())
}
