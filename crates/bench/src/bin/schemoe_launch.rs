//! Multi-process launcher for the fault-tolerant trainer.
//!
//! `schemoe-launch` spawns one OS process per rank, wires them together
//! over a real transport, and runs [`run_ft_rank_durable`] in each — the same
//! trainer the in-process chaos tests drive, now with real process
//! boundaries: a `--kill-rank` is a genuine `SIGKILL`, the peers see a
//! socket reset (TCP) or a vanished pid (shared memory) instead of a
//! simulated kill latch, and `--respawn` brings the victim back as a
//! fresh process that rejoins through the same announce/invite protocol
//! a simulated revival uses.
//!
//! ```text
//! schemoe-launch --transport tcp --ranks 4 --steps 40
//! schemoe-launch --transport tcp --ranks 4 --steps 60 \
//!     --kill-rank 2 --kill-after-ms 800 --respawn --trace-dir traces/
//! ```
//!
//! Transports: `tcp` (the *launcher* hosts the rendezvous — killing any
//! rank, including rank 0, leaves the cluster formable) and `shm` (a
//! session directory of ring files under `/dev/shm`). Every worker prints
//! one parseable `SCHEMOE_REPORT` line; the launcher parses them all and
//! exits non-zero unless the run proves what it was asked to prove:
//! fault-free completion, degraded completion after a kill, and a
//! successful rejoin after a respawn.
//!
//! With `--snapshot-dir` every rank persists generation-numbered shards
//! through the durable snapshot lane (`--snapshot-interval` steps apart,
//! GC keeping `--snapshot-keep` complete generations), and `--resume`
//! cold-restarts the whole job from the newest complete generation —
//! pair it with `--kill-all-after-ms` (SIGKILL every rank mid-run, exit
//! reporting `SCHEMOE_LAUNCH KILLED`) to drive a crash/recovery cycle
//! from CI. `--chaosfs-seed` injects seeded storage faults (torn
//! writes, bitrot, crash-before-rename) beneath the snapshot writers.
//!
//! With `--trace-dir` each worker records its run with the span recorder
//! and writes `trace-rank<N>.json` in Trace Event Format (load at
//! <https://ui.perfetto.dev>).

#![deny(unsafe_code)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use schemoe_bench::campaign::chaosfs_plan;
use schemoe_cluster::{transport, ChaosPlan, RankHandle, Topology, Transport};
use schemoe_models::{run_ft_rank_durable, FtConfig, FtReport, SnapshotCfg};
use schemoe_obs as obs;
use schemoe_tensor::snapshot;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("worker") {
        worker_main(&args[1..])
    } else {
        launcher_main(&args)
    };
    std::process::exit(code);
}

fn usage() -> ! {
    let flags: Vec<String> = FLAGS
        .iter()
        .filter(|f| f.scope != Scope::Worker)
        .map(|f| format!("[{}{}]", f.name, if f.switch { "" } else { " V" }))
        .collect();
    eprintln!("usage: schemoe-launch {}", flags.join(" "));
    eprintln!("       --transport tcp|shm, --partition LO-HI,LO-HI");
    std::process::exit(64);
}

/// Parses a `--partition` spec — two comma-separated rank groups, each a
/// `LO-HI` range or a single rank — and checks the groups are disjoint
/// and cover every rank exactly once.
fn parse_partition(spec: &str, world: usize) -> Result<(Vec<usize>, Vec<usize>), String> {
    let group = |part: &str| -> Result<Vec<usize>, String> {
        let rank = |s: &str| s.parse::<usize>().map_err(|_| format!("bad rank {s:?}"));
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi) = (rank(lo)?, rank(hi)?);
        if lo > hi {
            return Err(format!("empty range {part:?}"));
        }
        Ok((lo..=hi).collect())
    };
    let groups: Vec<Vec<usize>> = spec.split(',').map(group).collect::<Result<_, _>>()?;
    let Ok([a, b]) = <[Vec<usize>; 2]>::try_from(groups) else {
        return Err("a partition needs exactly two groups".to_string());
    };
    let mut seen = vec![false; world];
    for &r in a.iter().chain(&b) {
        if r >= world {
            return Err(format!("rank {r} is outside the {world}-rank world"));
        }
        if seen[r] {
            return Err(format!("rank {r} appears in both groups"));
        }
        seen[r] = true;
    }
    if !seen.iter().all(|&s| s) {
        return Err("the two groups must cover every rank".to_string());
    }
    Ok((a, b))
}

/// The wall-clock partition plan every rank of a `--partition` run wraps
/// its endpoint in: all cross-group links are dark from the first send
/// until the heal deadline lifts every fault at once.
fn partition_plan(chaos_seed: u64, a: &[usize], b: &[usize], heal_after_ms: u64) -> ChaosPlan {
    ChaosPlan::seeded(chaos_seed)
        .partition(a, b, 0, u64::MAX)
        .heal_after(Duration::from_millis(heal_after_ms))
}

/// Who accepts a flag.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    Launcher,
    Worker,
    Both,
}

/// One command-line flag: the single description both the parser and the
/// worker-argv writer read.
struct Flag {
    name: &'static str,
    scope: Scope,
    /// A switch takes no value.
    switch: bool,
    /// Parses `value` into the field; false on a malformed value.
    set: fn(&mut Opts, &str) -> bool,
    /// The field as its flag value; `None` leaves the flag off the argv.
    get: fn(&Opts) -> Option<String>,
}

/// How a field of [`Opts`] travels as a flag value: a `bool` is a switch,
/// an `Option` is a flag that may be absent, anything else always has a
/// value.
trait FlagValue: Sized {
    const SWITCH: bool = false;
    fn parse(s: &str) -> Option<Self>;
    fn show(&self) -> Option<String>;
}

impl FlagValue for bool {
    const SWITCH: bool = true;
    fn parse(_: &str) -> Option<bool> {
        Some(true)
    }
    fn show(&self) -> Option<String> {
        self.then(String::new)
    }
}

impl<T: FromStr + ToString> FlagValue for Option<T> {
    fn parse(s: &str) -> Option<Self> {
        s.parse().ok().map(Some)
    }
    fn show(&self) -> Option<String> {
        self.as_ref().map(T::to_string)
    }
}

macro_rules! plain_flag_value {
    ($($t:ty)*) => {$(
        impl FlagValue for $t {
            fn parse(s: &str) -> Option<Self> {
                s.parse().ok()
            }
            fn show(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}
plain_flag_value!(String usize u64 u32);

/// Declares every option once — who takes it, its flag, its field and
/// default — and derives [`Opts`], its defaults and the [`FLAGS`] table.
macro_rules! opts {
    ($($scope:ident $flag:literal $field:ident: $ty:ty = $default:expr,)*) => {
        /// The options of the launcher and of a worker. The launcher
        /// parses its command line into one, then hands each worker a
        /// copy with the worker-only fields filled in ([`worker_opts`]).
        #[derive(Clone, Debug, PartialEq)]
        struct Opts {
            $($field: $ty,)*
        }

        impl Default for Opts {
            fn default() -> Self {
                Opts { $($field: $default,)* }
            }
        }

        const FLAGS: &[Flag] = &[$(Flag {
            name: $flag,
            scope: Scope::$scope,
            switch: <$ty>::SWITCH,
            set: |o, v| <$ty>::parse(v).map(|x| o.$field = x).is_some(),
            get: |o| o.$field.show(),
        },)*];
    };
}

opts! {
    Launcher "--transport" transport: String = "tcp".to_string(),
    Both "--ranks" ranks: usize = 4,
    Both "--steps" steps: usize = 20,
    Both "--seed" seed: u64 = 7,
    Both "--replica-interval" replica_interval: usize = 2,
    Launcher "--kill-rank" kill_rank: Option<usize> = None,
    Launcher "--kill-after-ms" kill_after_ms: u64 = 800,
    Launcher "--respawn" respawn: bool = false,
    Launcher "--respawn-after-ms" respawn_after_ms: u64 = 400,
    Launcher "--kill-all-after-ms" kill_all_after_ms: Option<u64> = None,
    Both "--partition" partition: Option<String> = None,
    Both "--heal-after-ms" heal_after_ms: u64 = 2000,
    Both "--chaos-seed" chaos_seed: u64 = 7,
    Both "--vote-timeout-ms" vote_timeout_ms: u64 = 500,
    Both "--retry-budget" retry_budget: u32 = 3,
    Launcher "--trace-dir" trace_dir: Option<String> = None,
    Both "--snapshot-dir" snapshot_dir: Option<String> = None,
    Both "--snapshot-interval" snapshot_interval: usize = 4,
    Both "--snapshot-keep" snapshot_keep: usize = 2,
    Both "--resume" resume: bool = false,
    Both "--chaosfs-seed" chaosfs_seed: u64 = 0,
    Worker "--rank" rank: usize = usize::MAX,
    Worker "--rejoin" rejoin: bool = false,
    Worker "--rendezvous" rendezvous: Option<String> = None,
    Worker "--shm-dir" shm_dir: Option<String> = None,
    Worker "--trace" trace: Option<String> = None,
}

/// Parses a launcher (`Scope::Launcher`) or worker command line.
fn parse_opts(mode: Scope, args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = FLAGS
            .iter()
            .find(|f| f.name == a && (f.scope == mode || f.scope == Scope::Both))
            .ok_or_else(|| format!("unknown flag {a}"))?;
        let value = match flag.switch {
            true => "",
            false => it.next().ok_or_else(|| format!("{a} needs a value"))?,
        };
        if !(flag.set)(&mut o, value) {
            return Err(format!("bad value {value:?} for {a}"));
        }
    }
    Ok(o)
}

/// The argv that makes a worker parse back exactly `o`.
fn worker_argv(o: &Opts) -> Vec<String> {
    let mut argv = vec!["worker".to_string()];
    for f in FLAGS.iter().filter(|f| f.scope != Scope::Launcher) {
        if let Some(value) = (f.get)(o) {
            argv.push(f.name.to_string());
            if !f.switch {
                argv.push(value);
            }
        }
    }
    argv
}

/// The trainer configuration and snapshot policy a command line asks for.
fn ft_setup(o: &Opts) -> (FtConfig, Option<SnapshotCfg>) {
    let mut cfg = FtConfig::tiny(o.steps)
        .with_seed(o.seed)
        .with_replica_interval(o.replica_interval);
    cfg.vote_timeout_ms = o.vote_timeout_ms;
    cfg.retry_budget = o.retry_budget;
    cfg.rejoin = o.rejoin;
    let snap = o.snapshot_dir.as_ref().map(|dir| {
        let mut s = SnapshotCfg::new(dir, o.snapshot_interval).with_keep(o.snapshot_keep);
        if o.resume {
            s = s.with_resume();
        }
        if o.chaosfs_seed != 0 {
            s = s.with_chaos(Arc::new(chaosfs_plan(o.chaosfs_seed, None)));
        }
        s
    });
    (cfg, snap)
}

/// The receive deadline a rank needs once peers can fall silent. A
/// SIGKILLed or partitioned-away peer abandons its step mid-exchange;
/// without a deadline a survivor blocks on that abandoned step forever,
/// misses the burial vote, and the cluster splits. The chaos tests get
/// this deadline from their chaos plan — a launched rank must install
/// the equivalent on the handle itself.
fn liveness_deadline(cfg: &FtConfig) -> Duration {
    Duration::from_millis(cfg.vote_timeout_ms.max(100) * 4)
}

// ---------------------------------------------------------------------------
// Worker mode: one rank in one process.
// ---------------------------------------------------------------------------

fn worker_main(args: &[String]) -> i32 {
    let o = parse_opts(Scope::Worker, args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    if o.rank >= o.ranks {
        usage();
    }

    let endpoint: Box<dyn Transport> = if let Some(dir) = &o.shm_dir {
        #[cfg(unix)]
        {
            Box::new(transport::shm::ShmBootstrap::new(dir, o.rank, o.ranks).attach())
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            eprintln!("shm transport requires a unix host");
            return 64;
        }
    } else {
        // The launcher hosts the rendezvous (persistent: late rejoiners
        // are answered with the current map) — every tcp worker,
        // including rank 0, dials it. No rank is a bootstrap SPOF.
        let Some(rendezvous) = o.rendezvous.clone() else {
            eprintln!("tcp workers need --rendezvous (the launcher hosts the rendezvous)");
            return 64;
        };
        match transport::tcp::TcpBootstrap::new(rendezvous, o.rank, o.ranks).connect() {
            Ok(t) => Box::new(t),
            Err(e) => {
                eprintln!("rank {}: tcp bootstrap failed: {e}", o.rank);
                return 69; // EX_UNAVAILABLE: the cluster never formed
            }
        }
    };

    // A `--partition` run attaches under a chaos plan so the *network*
    // misbehaves beneath a perfectly healthy process: all cross-group
    // sends vanish until the wall-clock heal lifts them.
    let plan = match &o.partition {
        None => None,
        Some(spec) => match parse_partition(spec, o.ranks) {
            Ok((a, b)) => Some(Arc::new(partition_plan(
                o.chaos_seed,
                &a,
                &b,
                o.heal_after_ms,
            ))),
            Err(e) => {
                eprintln!("rank {}: bad --partition: {e}", o.rank);
                return 64;
            }
        },
    };

    let mut h = RankHandle::attach(Topology::new(1, o.ranks), o.rank, endpoint, plan);
    let (cfg, snap) = ft_setup(&o);
    h.set_recv_deadline(Some(liveness_deadline(&cfg)));

    if o.trace.is_some() {
        obs::reset_counters();
        let _ = obs::take();
        obs::enable();
    }
    let report = run_ft_rank_durable(&mut h, &cfg, snap.as_ref());
    if let Some(path) = &o.trace {
        let trace = obs::take();
        obs::disable();
        if let Err(e) = std::fs::write(path, trace.to_chrome_trace()) {
            eprintln!("rank {}: failed to write trace {path:?}: {e}", o.rank);
        }
    }
    println!("{}", report_line(o.rank, &report));
    std::io::stdout().flush().expect("flush report line");
    i32::from(report.died_at_step.is_some()) * 2
}

fn report_line(rank: usize, r: &FtReport) -> String {
    // `-` stands for "none": no death, nobody buried, no resume.
    let step = |s: Option<usize>| s.map_or("-".to_string(), |s| s.to_string());
    let (died, resumed) = (step(r.died_at_step), step(r.resumed_at_step));
    let dead: Vec<String> = r.dead_ranks.iter().map(ToString::to_string).collect();
    let dead = if dead.is_empty() {
        "-".to_string()
    } else {
        dead.join(",")
    };
    format!(
        "SCHEMOE_REPORT rank={rank} died={died} dead={dead} rejoins={} restores={} \
         retries={} epoch={} loss={} parks={} resumed={resumed} snapgens={} snapshards={}",
        r.rejoins,
        r.restores,
        r.retries,
        r.final_epoch,
        r.final_loss,
        r.parks,
        r.snapshot_generations,
        r.snapshot_shards
    )
}

// ---------------------------------------------------------------------------
// Launcher mode: spawn, kill, respawn, assert.
// ---------------------------------------------------------------------------

/// One `SCHEMOE_REPORT` line, parsed back into numbers.
#[derive(Debug)]
struct ParsedReport {
    rank: usize,
    died: Option<usize>,
    dead: Vec<usize>,
    rejoins: u64,
    restores: u64,
    epoch: u64,
    parks: u64,
    resumed: Option<usize>,
}

fn parse_report(line: &str) -> Option<ParsedReport> {
    let fields: HashMap<&str, &str> = line
        .split_whitespace()
        .skip(1)
        .map(|field| field.split_once('='))
        .collect::<Option<_>>()?;
    let count = |key: &str| -> Option<u64> { fields.get(key)?.parse().ok() };
    let step = |key: &str| match *fields.get(key)? {
        "-" => Some(None),
        v => v.parse::<usize>().ok().map(Some),
    };
    Some(ParsedReport {
        rank: fields.get("rank")?.parse().ok()?,
        died: step("died")?,
        dead: match *fields.get("dead")? {
            "-" => Vec::new(),
            v => v
                .split(',')
                .map(|r| r.parse().ok())
                .collect::<Option<_>>()?,
        },
        rejoins: count("rejoins")?,
        restores: count("restores")?,
        epoch: count("epoch")?,
        parks: count("parks")?,
        resumed: step("resumed")?,
    })
}

/// A spawned worker plus the thread forwarding its output.
struct Worker {
    rank: usize,
    child: Child,
    forwarder: JoinHandle<()>,
}

fn launcher_main(args: &[String]) -> i32 {
    let o = parse_opts(Scope::Launcher, args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    if o.ranks == 0 || o.ranks > 64 {
        eprintln!("--ranks must be 1..=64");
        return 64;
    }
    if let Some(spec) = &o.partition {
        if o.kill_rank.is_some() {
            eprintln!("--partition and --kill-rank are separate scenarios");
            return 64;
        }
        if let Err(e) = parse_partition(spec, o.ranks) {
            eprintln!("bad --partition: {e}");
            return 64;
        }
    }
    if o.kill_all_after_ms.is_some() && (o.kill_rank.is_some() || o.partition.is_some()) {
        eprintln!("--kill-all-after-ms is its own scenario (no --kill-rank/--partition)");
        return 64;
    }
    // Any rank may be the kill victim: the launcher hosts the tcp
    // rendezvous, so killing rank 0 no longer takes the bootstrap down.
    if let Some(k) = o.kill_rank {
        if k >= o.ranks {
            eprintln!("--kill-rank out of range");
            return 64;
        }
    }
    if o.snapshot_dir.is_none() && (o.resume || o.chaosfs_seed != 0) {
        eprintln!("--resume/--chaosfs-seed need --snapshot-dir");
        return 64;
    }
    if let Some(dir) = &o.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --trace-dir {dir:?}: {e}");
            return 64;
        }
    }
    match o.transport.as_str() {
        "tcp" | "shm" => launch_processes(o),
        other => {
            eprintln!("unknown transport {other:?}");
            usage()
        }
    }
}

/// Prints the one-line outcome CI greps for.
fn announce(o: &Opts, status: &str, tail: &str) {
    println!(
        "SCHEMOE_LAUNCH {status} transport={} ranks={} steps={}{tail}",
        o.transport, o.ranks, o.steps
    );
}

/// Announces a verdict and turns it into the exit code.
fn conclude(o: &Opts, verdict: Result<(), String>, tail: &str) -> i32 {
    announce(o, if verdict.is_ok() { "OK" } else { "FAIL" }, tail);
    match verdict {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("[launch] {msg}");
            1
        }
    }
}

/// The options of one worker of launch `o`, which already names the
/// session (`rendezvous` or `shm_dir`) the workers meet in.
fn worker_opts(o: &Opts, rank: usize, rejoin: bool) -> Opts {
    let suffix = if rejoin { "-rejoin" } else { "" };
    Opts {
        rank,
        rejoin,
        // A respawned mid-run worker rejoins the live cluster through
        // announce/invite; only an initial spawn restores from disk.
        resume: o.resume && !rejoin,
        trace: o
            .trace_dir
            .as_ref()
            .map(|dir| format!("{dir}/trace-rank{rank}{suffix}.json")),
        ..o.clone()
    }
}

fn worker_command(o: &Opts, rank: usize, rejoin: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(worker_argv(&worker_opts(o, rank, rejoin)))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    cmd
}

/// Spawns a worker, wiring a forwarder thread that prefixes its stdout
/// lines and captures `SCHEMOE_REPORT` lines into `reports`.
fn spawn_worker(
    mut cmd: Command,
    rank: usize,
    reports: &Arc<Mutex<Vec<ParsedReport>>>,
) -> std::io::Result<Worker> {
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let reports = Arc::clone(reports);
    let forwarder = thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.starts_with("SCHEMOE_REPORT ") {
                if let Some(parsed) = parse_report(&line) {
                    reports.lock().expect("report list").push(parsed);
                }
            }
            println!("[rank {rank}] {line}");
        }
    });
    Ok(Worker {
        rank,
        child,
        forwarder,
    })
}

fn launch_processes(mut o: Opts) -> i32 {
    let reports: Arc<Mutex<Vec<ParsedReport>>> = Arc::new(Mutex::new(Vec::new()));

    // Session setup. For tcp the *launcher* hosts the rendezvous — it
    // outlives every worker, so killing any rank (rank 0 included)
    // leaves the bootstrap standing, and a respawned rank re-registers
    // with it under a fresh port.
    let _shm_guard = match o.transport.as_str() {
        "tcp" => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind rendezvous");
            let addr = listener.local_addr().expect("rendezvous addr").to_string();
            let world = o.ranks;
            thread::spawn(move || transport::tcp::serve_rendezvous(listener, world, true));
            println!("[launch] rendezvous at {addr}");
            o.rendezvous = Some(addr);
            None::<TempDir>
        }
        "shm" => {
            #[cfg(unix)]
            {
                let dir = transport::shm::session_base().join(format!(
                    "schemoe-launch-{}-{}",
                    std::process::id(),
                    o.seed
                ));
                if let Err(e) = transport::shm::init_session(&dir, o.ranks) {
                    eprintln!("cannot initialise shm session {dir:?}: {e}");
                    return 1;
                }
                o.shm_dir = Some(dir.display().to_string());
                Some(TempDir(dir))
            }
            #[cfg(not(unix))]
            {
                eprintln!("shm transport requires a unix host");
                return 64;
            }
        }
        _ => unreachable!("validated in launcher_main"),
    };
    let o = &o;

    let mut workers: Vec<Worker> = Vec::new();
    for rank in 0..o.ranks {
        match spawn_worker(worker_command(o, rank, false), rank, &reports) {
            Ok(w) => workers.push(w),
            Err(e) => {
                eprintln!("failed to spawn rank {rank}: {e}");
                for w in &mut workers {
                    let _ = w.child.kill();
                }
                return 1;
            }
        }
    }

    // Whole-job crash: SIGKILL every rank mid-run and stop — the point
    // is what a later `--resume` launch recovers from the snapshot dir.
    if let Some(after_ms) = o.kill_all_after_ms {
        thread::sleep(Duration::from_millis(after_ms));
        let mut still_running = 0usize;
        for w in &mut workers {
            if w.child.try_wait().expect("probe worker").is_none() {
                still_running += 1;
            }
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
        for w in workers {
            let _ = w.forwarder.join();
        }
        println!(
            "[launch] killed all {} ranks after {after_ms} ms ({still_running} were still running)",
            o.ranks
        );
        if still_running == 0 {
            let why = "every rank finished before the kill-all fired — nothing to resume";
            return conclude(o, Err(why.to_string()), "");
        }
        announce(o, "KILLED", "");
        return 0;
    }

    // The fault schedule: a real SIGKILL, then (optionally) a fresh
    // process claiming the victim's rank back.
    let mut killed: Option<usize> = None;
    if let Some(victim) = o.kill_rank {
        thread::sleep(Duration::from_millis(o.kill_after_ms));
        let w = &mut workers[victim];
        if w.child.try_wait().expect("probe victim").is_some() {
            eprintln!("kill victim rank {victim} exited before the kill fired");
            return 1;
        }
        w.child.kill().expect("SIGKILL victim");
        let _ = w.child.wait();
        println!("[launch] killed rank {victim} after {} ms", o.kill_after_ms);
        killed = Some(victim);
        if o.respawn {
            thread::sleep(Duration::from_millis(o.respawn_after_ms));
            match spawn_worker(worker_command(o, victim, true), victim, &reports) {
                Ok(w) => {
                    println!("[launch] respawned rank {victim} with --rejoin");
                    workers.push(w);
                }
                Err(e) => {
                    eprintln!("failed to respawn rank {victim}: {e}");
                    return 1;
                }
            }
        }
    }

    // Reap everything; the killed incarnation was already waited on.
    let mut failures = Vec::new();
    for w in workers {
        let Worker {
            rank,
            mut child,
            forwarder,
        } = w;
        if killed == Some(rank) {
            // The killed incarnation was already reaped after the SIGKILL;
            // its respawn sits later in the list and is waited on when its
            // own entry comes up.
            killed = None;
            let _ = forwarder.join();
            continue;
        }
        let status: ExitStatus = match child.wait() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("wait for rank {rank} failed: {e}");
                return 1;
            }
        };
        let _ = forwarder.join();
        if !status.success() {
            failures.push((rank, status));
        }
    }
    for (rank, status) in &failures {
        eprintln!("[launch] rank {rank} exited with {status}");
    }

    let reports = reports.lock().expect("report list");
    let verdict = assess(o, o.kill_rank, &reports, &failures);
    conclude(o, verdict, &format!(" reports={}", reports.len()))
}

/// Decides whether the run proved what it was asked to prove.
fn assess(
    o: &Opts,
    victim: Option<usize>,
    reports: &[ParsedReport],
    failures: &[(usize, ExitStatus)],
) -> Result<(), String> {
    if !failures.is_empty() {
        return Err(format!("{} worker(s) exited non-zero", failures.len()));
    }
    let expected = if victim.is_some() && !o.respawn {
        o.ranks - 1
    } else {
        o.ranks
    };
    if reports.len() != expected {
        return Err(format!(
            "expected {expected} reports, saw {}",
            reports.len()
        ));
    }
    for r in reports {
        if let Some(step) = r.died {
            return Err(format!("rank {} reported death at step {step}", r.rank));
        }
    }
    // Resume is all-or-nothing: every rank scans the same snapshot dir
    // and must pick the same committed generation — a split answer means
    // the deterministic restore diverged.
    if let Some(first) = reports.first() {
        if let Some(r) = reports.iter().find(|r| r.resumed != first.resumed) {
            return Err(format!(
                "ranks disagree on the resume point: rank {} saw {:?}, rank {} saw {:?}",
                first.rank, first.resumed, r.rank, r.resumed
            ));
        }
    }
    if o.resume {
        let has_manifest = o.snapshot_dir.as_ref().is_some_and(|dir| {
            std::fs::read_dir(dir).is_ok_and(|entries| {
                entries.flatten().any(|e| {
                    snapshot::manifest_generation(&e.file_name().to_string_lossy()).is_some()
                })
            })
        });
        if has_manifest && reports.iter().any(|r| r.resumed.is_none()) {
            return Err(
                "--resume found a committed manifest but a rank restarted from scratch".to_string(),
            );
        }
    }
    if let Some(spec) = &o.partition {
        return assess_partition(spec, o.ranks, reports);
    }
    let Some(victim) = victim else {
        return Ok(());
    };
    // Degraded completion: some survivor observed the death and restored.
    let survivors: Vec<&ParsedReport> = reports.iter().filter(|r| r.rank != victim).collect();
    if !survivors.iter().any(|r| r.restores > 0) {
        return Err("no survivor restored a checkpoint after the kill".to_string());
    }
    if o.respawn {
        let Some(rejoined) = reports.iter().find(|r| r.rank == victim) else {
            return Err(format!("no report from the respawned rank {victim}"));
        };
        if rejoined.rejoins == 0 {
            return Err(format!("respawned rank {victim} never rejoined"));
        }
        if survivors.iter().any(|r| r.dead.contains(&victim)) {
            return Err(format!(
                "a survivor still believes rank {victim} is dead after the rejoin"
            ));
        }
    } else if !survivors.iter().all(|r| r.dead.contains(&victim)) {
        return Err(format!(
            "not every survivor buried the killed rank {victim}"
        ));
    }
    Ok(())
}

/// Decides whether a `--partition` run proved the quorum contract: the
/// majority side continues degraded and the minority parks then rejoins,
/// or — on a tie — both sides park and resume with no membership change;
/// either way every rank converges to one epoch with no one left buried.
fn assess_partition(spec: &str, ranks: usize, reports: &[ParsedReport]) -> Result<(), String> {
    let (a, b) = parse_partition(spec, ranks).expect("validated in launcher_main");
    let by_rank = |rank: usize| -> Result<&ParsedReport, String> {
        reports
            .iter()
            .find(|r| r.rank == rank)
            .ok_or_else(|| format!("no report from rank {rank}"))
    };
    let epoch0 = by_rank(0)?.epoch;
    for r in reports {
        if r.epoch != epoch0 {
            return Err(format!(
                "rank {} ended on epoch {}, rank 0 on {epoch0} — membership diverged",
                r.rank, r.epoch
            ));
        }
        if !r.dead.is_empty() {
            return Err(format!(
                "rank {} still believes {:?} dead after the heal",
                r.rank, r.dead
            ));
        }
    }
    if a.len() == b.len() {
        // A tie has no majority: both sides must park, and nothing may
        // be buried — the epoch never moves.
        for r in reports {
            if r.parks == 0 {
                return Err(format!("tied rank {} never parked", r.rank));
            }
            if r.rejoins != 0 {
                return Err(format!(
                    "tied rank {} rejoined — something was buried",
                    r.rank
                ));
            }
        }
        if epoch0 != 0 {
            return Err(format!("a tied partition moved the epoch to {epoch0}"));
        }
        return Ok(());
    }
    let (majority, minority) = if a.len() > b.len() { (a, b) } else { (b, a) };
    for &rank in &minority {
        let r = by_rank(rank)?;
        if r.parks == 0 {
            return Err(format!("minority rank {rank} never parked"));
        }
        if r.rejoins == 0 {
            return Err(format!("minority rank {rank} never rejoined"));
        }
    }
    if !majority
        .iter()
        .any(|&rank| by_rank(rank).map(|r| r.restores > 0).unwrap_or(false))
    {
        return Err("no majority rank restored a checkpoint after burying the minority".into());
    }
    Ok(())
}

/// Removes the shm session directory when the launcher returns.
#[cfg_attr(not(unix), allow(dead_code))]
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn opts_to_worker_argv_and_back_is_the_identity() {
        // Every worker-visible flag off its default, in the combinations a
        // launch produces: partition + resume + tracing, first spawn and
        // respawn, over both session kinds.
        let launches = [
            "--ranks 8 --steps 600 --seed 11 --replica-interval 3 --partition 0-4,5-7 \
             --heal-after-ms 8000 --chaos-seed 5 --vote-timeout-ms 50 --retry-budget 1 \
             --trace-dir traces --snapshot-dir snaps --snapshot-interval 25 --snapshot-keep 3 \
             --resume --chaosfs-seed 23",
            "--ranks 4 --kill-rank 2 --kill-after-ms 10 --respawn --respawn-after-ms 20 \
             --trace-dir t --snapshot-dir s --resume",
            "--transport shm --kill-all-after-ms 1500 --snapshot-dir s",
            "",
        ];
        for (i, line) in launches.iter().enumerate() {
            let mut o = parse_opts(Scope::Launcher, &args(line)).expect(line);
            if i % 2 == 0 {
                o.rendezvous = Some("127.0.0.1:4100".to_string());
            } else {
                o.shm_dir = Some("/dev/shm/session".to_string());
            }
            for rejoin in [false, true] {
                let w = worker_opts(&o, o.ranks - 1, rejoin);
                let argv = worker_argv(&w);
                assert_eq!(argv[0], "worker");
                let back = parse_opts(Scope::Worker, &argv[1..]).expect("worker argv parses");
                // Launcher-only options never reach a worker; everything
                // else must survive the trip.
                let expected = Opts {
                    transport: back.transport.clone(),
                    kill_rank: None,
                    kill_after_ms: back.kill_after_ms,
                    respawn: false,
                    respawn_after_ms: back.respawn_after_ms,
                    kill_all_after_ms: None,
                    trace_dir: None,
                    ..w.clone()
                };
                assert_eq!(back, expected, "launch {line:?} rejoin {rejoin}");
                assert_eq!(back.resume, o.resume && !rejoin);
                assert_eq!(back.trace.is_some(), o.trace_dir.is_some());
            }
        }
    }

    #[test]
    fn every_field_of_opts_is_reachable_from_some_flag() {
        // Setting each flag to a non-default value must change the parsed
        // options, and a worker must refuse launcher-only flags (and the
        // reverse) instead of silently ignoring them.
        for f in FLAGS {
            let value = match f.name {
                "--transport" => "shm",
                "--partition" | "--trace-dir" | "--trace" | "--snapshot-dir" | "--rendezvous"
                | "--shm-dir" => "x",
                _ => "9",
            };
            let mut line = vec![f.name.to_string()];
            if !f.switch {
                line.push(value.to_string());
            }
            for mode in [Scope::Launcher, Scope::Worker] {
                let parsed = parse_opts(mode, &line);
                if f.scope == mode || f.scope == Scope::Both {
                    assert_ne!(
                        parsed.expect(f.name),
                        Opts::default(),
                        "{} is inert",
                        f.name
                    );
                } else {
                    assert!(parsed.is_err(), "{} crossed scopes", f.name);
                }
            }
        }
        assert!(parse_opts(Scope::Launcher, &args("--steps")).is_err());
        assert!(parse_opts(Scope::Launcher, &args("--steps many")).is_err());
        assert!(parse_opts(Scope::Launcher, &args("--world 4")).is_err());
    }

    #[test]
    fn a_report_line_parses_back_to_every_field_assess_reads() {
        let full = FtReport {
            died_at_step: Some(17),
            dead_ranks: vec![2, 5, 11],
            rejoins: 3,
            restores: 4,
            retries: 9,
            final_epoch: 6,
            final_loss: 2.5,
            parks: 2,
            resumed_at_step: Some(16),
            snapshot_generations: 7,
            snapshot_shards: 8,
            ..FtReport::default()
        };
        let quiet = FtReport {
            final_loss: f32::NAN,
            ..FtReport::default()
        };
        for (rank, r) in [(12usize, &full), (0, &quiet)] {
            let line = report_line(rank, r);
            assert!(line.starts_with("SCHEMOE_REPORT rank="), "{line}");
            let p = parse_report(&line).expect("own line parses");
            assert_eq!(p.rank, rank);
            assert_eq!(p.died, r.died_at_step);
            assert_eq!(p.dead, r.dead_ranks);
            assert_eq!(p.rejoins, r.rejoins);
            assert_eq!(p.restores, r.restores);
            assert_eq!(p.epoch, u64::from(r.final_epoch));
            assert_eq!(p.parks, r.parks);
            assert_eq!(p.resumed, r.resumed_at_step);
        }
        let cut = |from: &str, to: &str| parse_report(&report_line(1, &full).replace(from, to));
        assert!(cut("rank=1 ", "").is_none(), "no rank");
        assert!(
            cut("dead=2,5,11", "dead=2,x").is_none(),
            "a rank that is no number"
        );
        assert!(cut("parks=2", "parks").is_none(), "a field without a value");
    }
}
