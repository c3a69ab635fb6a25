//! The benchmark's command line. See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! perf run [--seed <n>] [--seconds <s>] [--quick]                 every workload and the layer section
//! perf layers [--seed <n>] [--quick]                              the layer section alone
//! perf compare A.json B.json [--benchmark BENCHMARK.json]         is B a regression from A?
//! perf manifest                                                   print BENCHMARK.json
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use perf::metrics::{benchmark_json, RUN_SECONDS};
use perf::report::{run_workload, Opts};
use perf::run::{layers_only, run_all, RunOpts};
use perf::workloads::Workload;

#[global_allocator]
static ALLOC: perf::alloc::Counting = perf::alloc::Counting;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// `--name value` pairs and bare words; `--quick` takes no value.
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("quick") => {
                    args.flags.insert("quick".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.insert(name.to_string(), value);
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn quick(&self) -> bool {
        self.flags.contains_key("quick")
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.get("seconds", f64::from(RUN_SECONDS))?;
        if !(s > 0.0 && s <= 3600.0) {
            return Err(format!("--seconds {s} is out of range"));
        }
        Ok(s)
    }
}

fn one_workload(args: &Args, name: &str) -> Result<bool, String> {
    let w = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let trace = args.get::<u8>("trace", 0)? != 0;
    let opts = Opts {
        seed: args.get("seed", 1)?,
        seconds: args.seconds()?,
        trace,
        layers: trace && args.get::<u8>("layers", 1)? != 0,
        quick: args.quick(),
    };
    let outcome = run_workload(w, &opts)?;
    for note in &outcome.notes {
        println!("WRONG {}: {note}", w.name());
    }
    if !outcome.spreads.is_empty() {
        println!("SPREAD {}", outcome.spread_line());
    }
    println!("{}", outcome.result_line());
    Ok(true)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if let Some(name) = args.flags.get("workload") {
        return one_workload(args, name);
    }
    match args.positional.first().map(String::as_str) {
        Some("run") => run_all(&RunOpts {
            seed: args.get("seed", 1)?,
            // The smoke mode runs everything at an eighth of the length.
            seconds: args.seconds()? / if args.quick() { 8.0 } else { 1.0 },
            quick: args.quick(),
        }),
        Some("layers") => layers_only(args.get("seed", 1)?, args.quick()).map(|()| true),
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: perf compare A.json B.json".to_string());
            };
            let read = |path: &str| -> Result<perf::json::Json, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                perf::json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let bench = args.get("benchmark", "BENCHMARK.json".to_string())?;
            let regressed = perf::compare::compare(&read(a)?, &read(b)?, &read(&bench)?)?;
            Ok(!regressed)
        }
        Some("manifest") => {
            println!("{}", perf::json::to_string(&benchmark_json()));
            Ok(true)
        }
        _ => Err(
            "usage: perf run | layers | compare A.json B.json | --workload <name> \
                  --seed <n> --seconds <s> --trace <0|1>"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|a| dispatch(&a));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
