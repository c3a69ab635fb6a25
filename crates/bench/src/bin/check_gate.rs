//! CI performance gates over the benchmark JSON reports.
//!
//! One mode per report, selected by the first argument:
//!
//! * `--fullstep` — reads the report `fullstep` writes and enforces the
//!   whole-step contract: the best degree beats serial by the best-floor,
//!   *every* candidate degree holds at least the per-degree floor (the
//!   r=8 regression gate — overlap must never lose to serial), and the
//!   online chooser picked the measured oracle degree:
//!
//!   ```bash
//!   cargo run --release -p schemoe-bench --bin check_gate -- \
//!       --fullstep [path] [best-floor] [per-degree-floor]
//!   ```
//!
//!   Defaults: `BENCH_fullstep.json`, 1.6x, 1.0x.
//!
//! * `--partition` — reads the report the `partition` campaign writes
//!   and enforces the quorum contract per scenario: enough ranks parked,
//!   the rejoin count lands in its bracket, final epochs agree, nobody
//!   ends dead or buried, the seeded replay matched, and the loss gap
//!   against fault-free stays under the ceiling:
//!
//!   ```bash
//!   cargo run --release -p schemoe-bench --bin check_gate -- \
//!       --partition [path] [max-loss-gap]
//!   ```
//!
//!   Defaults: `BENCH_partition.json`, 0.05.
//!
//! * `--durability` — reads the report the `durability` campaign writes
//!   and enforces the crash-recovery contract: the asynchronous snapshot
//!   lane costs under the overhead ceiling, every resume (fault-free,
//!   both ChaosFs seeds including the crash-before-rename window, and
//!   the corrupted-shard buddy rebuild) lands within the loss-gap
//!   ceiling, at least one buddy reconstruction happened, and retention
//!   actually collected an old generation:
//!
//!   ```bash
//!   cargo run --release -p schemoe-bench --bin check_gate -- \
//!       --durability [path] [max-overhead] [max-loss-gap]
//!   ```
//!
//!   Defaults: `BENCH_durability.json`, 0.10, 0.05.
//!
//! * `--placement` — reads the report the `placement` campaign writes
//!   and enforces graceful degradation under skew: every seed's dynamic
//!   run beats the static layout by the speedup floor with at least two
//!   committed plans and one replication, the gray-rank run is demoted
//!   and stays within the step-time ratio of the healthy baseline, and
//!   token shedding is non-zero, under the fraction ceiling, counted by
//!   obs, and bit-identical on the seeded replay:
//!
//!   ```bash
//!   cargo run --release -p schemoe-bench --bin check_gate -- \
//!       --placement [path] [min-speedup] [max-gray-ratio] [max-shed-fraction]
//!   ```
//!
//!   Defaults: `BENCH_placement.json`, 1.15, 1.5, 0.01.
//!
//! Every mode parses with the workspace's own strict JSON reader, so a
//! malformed report also fails the gate instead of sneaking past it.

use schemoe_obs::json::{self, Json};

fn load(path: &str, producer: &str) -> Json {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run {producer} first)"));
    json::parse(&raw).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"))
}

fn fullstep_gate(mut args: impl Iterator<Item = String>) {
    let path = args.next().unwrap_or_else(|| "BENCH_fullstep.json".into());
    let best_floor: f64 = args.next().map_or(1.6, |a| a.parse().expect("best floor"));
    let each_floor: f64 = args
        .next()
        .map_or(1.0, |a| a.parse().expect("per-degree floor"));

    let doc = load(&path, "fullstep");
    let degrees = doc
        .get("degrees")
        .and_then(Json::as_array)
        .expect("report has a degrees array");
    let mut failed = false;
    let mut best = f64::NEG_INFINITY;
    for entry in degrees {
        let r = entry.get("r").and_then(Json::as_f64).expect("degree has r");
        if r <= 1.0 {
            continue;
        }
        let speedup = entry
            .get("speedup")
            .and_then(Json::as_f64)
            .expect("degree entry has a speedup");
        let ok = speedup >= each_floor;
        println!(
            "fullstep gate: r={r} -> {speedup:.3}x (per-degree floor {each_floor:.2}x) {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            eprintln!(
                "FAIL: degree {r} loses to the serial step ({speedup:.3}x < {each_floor:.2}x)"
            );
            failed = true;
        }
        best = best.max(speedup);
    }
    assert!(best.is_finite(), "report has no overlapped degrees");
    println!("fullstep gate: best {best:.3}x (best floor {best_floor:.2}x)");
    if best < best_floor {
        eprintln!("FAIL: best speedup {best:.3}x is below the {best_floor:.2}x floor");
        failed = true;
    }

    let chosen = doc
        .get("chosen_r")
        .and_then(Json::as_f64)
        .expect("report has chosen_r");
    let oracle = doc
        .get("oracle_r")
        .and_then(Json::as_f64)
        .expect("report has oracle_r");
    println!("fullstep gate: online chooser r={chosen} vs measured oracle r={oracle}");
    if chosen != oracle {
        eprintln!("FAIL: online chooser picked r={chosen}, oracle is r={oracle}");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}

fn partition_gate(mut args: impl Iterator<Item = String>) {
    let path = args.next().unwrap_or_else(|| "BENCH_partition.json".into());
    let max_gap: f64 = args
        .next()
        .map_or(0.05, |a| a.parse().expect("max loss gap"));

    let doc = load(&path, "partition");
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .expect("report has a scenarios array");
    assert!(!scenarios.is_empty(), "report has no scenarios");
    let mut failed = false;
    for s in scenarios {
        let name = s.get("name").and_then(Json::as_str).expect("scenario name");
        let num = |key: &str| -> f64 {
            s.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("scenario {name} lacks {key}"))
        };
        let flag = |key: &str| -> bool {
            match s.get(key) {
                Some(Json::Bool(b)) => *b,
                _ => panic!("scenario {name} lacks boolean {key}"),
            }
        };
        let parked = num("parked_ranks");
        let rejoined = num("rejoined_ranks");
        let loss_gap = num("loss_gap");
        let mut bad = Vec::new();
        if parked < num("min_parked") {
            bad.push(format!("only {parked} ranks parked"));
        }
        if rejoined < num("min_rejoined") || rejoined > num("max_rejoined") {
            bad.push(format!("{rejoined} ranks rejoined"));
        }
        if !flag("epochs_equal") {
            bad.push("final epochs diverged".to_string());
        }
        if !flag("converged") {
            bad.push("a rank ended dead or with peers still buried".to_string());
        }
        if !flag("replay_ok") {
            bad.push("the seeded campaign did not replay".to_string());
        }
        if loss_gap > max_gap {
            bad.push(format!(
                "loss gap {:.2}% exceeds {:.2}%",
                loss_gap * 100.0,
                max_gap * 100.0
            ));
        }
        println!(
            "partition gate: {name} parked={parked} rejoined={rejoined} \
             loss_gap={:.2}% replay={} {}",
            loss_gap * 100.0,
            s.get("replay").and_then(Json::as_str).unwrap_or("?"),
            if bad.is_empty() { "ok" } else { "FAIL" }
        );
        for b in &bad {
            eprintln!("FAIL: {name}: {b}");
        }
        failed |= !bad.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}

fn durability_gate(mut args: impl Iterator<Item = String>) {
    let path = args
        .next()
        .unwrap_or_else(|| "BENCH_durability.json".into());
    let max_overhead: f64 = args
        .next()
        .map_or(0.10, |a| a.parse().expect("max overhead"));
    let max_gap: f64 = args
        .next()
        .map_or(0.05, |a| a.parse().expect("max loss gap"));

    let doc = load(&path, "durability");
    let num = |key: &str| -> f64 {
        doc.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("report lacks {key}"))
    };
    let mut failed = false;

    let overhead = num("overhead");
    println!(
        "durability gate: snapshot overhead {:.2}% (ceiling {:.2}%)",
        overhead * 100.0,
        max_overhead * 100.0
    );
    if overhead >= max_overhead {
        eprintln!(
            "FAIL: the snapshot lane costs {:.2}% per step",
            overhead * 100.0
        );
        failed = true;
    }

    let loss_gap = num("loss_gap");
    println!(
        "durability gate: resume at step {} -> {:.2}% loss gap (ceiling {:.2}%)",
        num("resumed_step"),
        loss_gap * 100.0,
        max_gap * 100.0
    );
    if loss_gap > max_gap {
        eprintln!("FAIL: resume drifted {:.2}%", loss_gap * 100.0);
        failed = true;
    }

    let seeds = doc
        .get("seeds")
        .and_then(Json::as_array)
        .expect("report has a seeds array");
    assert!(seeds.len() >= 2, "need at least two ChaosFs seed verdicts");
    let mut saw_crash_window = false;
    for s in seeds {
        let seed = s.get("seed").and_then(Json::as_f64).expect("seed id");
        let gap = s
            .get("loss_gap")
            .and_then(Json::as_f64)
            .expect("seed loss_gap");
        let window = matches!(s.get("crash_window"), Some(Json::Bool(true)));
        let ok = matches!(s.get("ok"), Some(Json::Bool(true))) && gap <= max_gap;
        saw_crash_window |= window;
        println!(
            "durability gate: chaosfs seed {seed}{} -> {:.2}% gap {}",
            if window { " (crash window)" } else { "" },
            gap * 100.0,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            eprintln!("FAIL: chaosfs seed {seed} did not recover cleanly");
            failed = true;
        }
    }
    if !saw_crash_window {
        eprintln!("FAIL: no seed exercised a crash-before-rename window");
        failed = true;
    }

    let recon = doc
        .get("reconstruction")
        .expect("report has reconstruction");
    let rebuilds = recon
        .get("reconstructions")
        .and_then(Json::as_f64)
        .expect("reconstruction count");
    let recon_gap = recon
        .get("loss_gap")
        .and_then(Json::as_f64)
        .expect("reconstruction loss_gap");
    println!(
        "durability gate: {rebuilds} buddy rebuild(s), {:.2}% gap",
        recon_gap * 100.0
    );
    if rebuilds < 1.0 || recon_gap > max_gap {
        eprintln!("FAIL: the corrupted shard was not rebuilt from its buddy");
        failed = true;
    }

    let gc = num("gc_removed");
    println!("durability gate: {gc} old generation(s) collected");
    if gc < 1.0 {
        eprintln!("FAIL: retention never collected an old generation");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}

fn placement_gate(mut args: impl Iterator<Item = String>) {
    let path = args.next().unwrap_or_else(|| "BENCH_placement.json".into());
    let min_speedup: f64 = args
        .next()
        .map_or(1.15, |a| a.parse().expect("min speedup"));
    let max_gray_ratio: f64 = args
        .next()
        .map_or(1.5, |a| a.parse().expect("max gray ratio"));
    let max_shed: f64 = args
        .next()
        .map_or(0.01, |a| a.parse().expect("max shed fraction"));

    let doc = load(&path, "placement");
    let mut failed = false;

    let seeds = doc
        .get("seeds")
        .and_then(Json::as_array)
        .expect("report has a seeds array");
    assert!(seeds.len() >= 3, "need the three-seed skew suite");
    for s in seeds {
        let seed = s.get("seed").and_then(Json::as_f64).expect("seed id");
        let speedup = s.get("speedup").and_then(Json::as_f64).expect("speedup");
        let plans = s.get("plans").and_then(Json::as_f64).expect("plans");
        let repl = s
            .get("replications")
            .and_then(Json::as_f64)
            .expect("replications");
        let shed = s
            .get("shed_fraction")
            .and_then(Json::as_f64)
            .expect("shed_fraction");
        let ok = speedup >= min_speedup && plans >= 2.0 && repl >= 1.0 && shed < max_shed;
        println!(
            "placement gate: seed {seed} -> {speedup:.2}x over static, \
             {plans} plans, {repl} replications, shed {:.3}% {}",
            shed * 100.0,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            eprintln!(
                "FAIL: seed {seed} (need >= {min_speedup}x, >= 2 plans, \
                 >= 1 replication, shed < {:.2}%)",
                max_shed * 100.0
            );
            failed = true;
        }
    }

    let gray = doc.get("gray").expect("report has a gray section");
    let ratio = gray.get("ratio").and_then(Json::as_f64).expect("ratio");
    let demotions = gray
        .get("demotions")
        .and_then(Json::as_f64)
        .expect("demotions");
    println!(
        "placement gate: gray rank -> {ratio:.2}x of healthy steady step \
         (ceiling {max_gray_ratio:.2}x), {demotions} demotion(s)"
    );
    if ratio > max_gray_ratio || demotions < 1.0 {
        eprintln!("FAIL: the gray rank was not contained (ratio {ratio:.2}x)");
        failed = true;
    }

    let det = doc.get("determinism").expect("report has determinism");
    let det_ok = matches!(det.get("ok"), Some(Json::Bool(true)));
    let shed = det.get("shed").and_then(Json::as_f64).expect("shed count");
    let obs_ok = matches!(det.get("obs_shed_matches"), Some(Json::Bool(true)));
    println!(
        "placement gate: replay deterministic={det_ok}, \
         {shed} tokens shed, obs agrees={obs_ok}"
    );
    if !det_ok || !obs_ok || shed < 1.0 {
        eprintln!("FAIL: shed accounting must be non-zero, deterministic, and obs-counted");
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("--fullstep") => {
            args.next();
            fullstep_gate(args);
        }
        Some("--partition") => {
            args.next();
            partition_gate(args);
        }
        Some("--durability") => {
            args.next();
            durability_gate(args);
        }
        Some("--placement") => {
            args.next();
            placement_gate(args);
        }
        other => {
            eprintln!(
                "usage: check_gate --fullstep|--partition|--durability|--placement [args]; got {other:?}"
            );
            std::process::exit(2);
        }
    }
}
