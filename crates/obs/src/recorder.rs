//! The span recorder: thread-local span stacks behind one global switch.
//!
//! Every thread that opens a span gets a buffer registered in a global
//! table; [`take`] drains all buffers into one [`FuncTrace`]. The enabled
//! check is a single relaxed atomic load, and nothing else happens on a
//! disabled hot path — no allocation, no TLS initialization, no locking —
//! which is what keeps instrumented code free when tracing is off.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::chrome::ChromeTraceBuilder;
use crate::counters::{counter_snapshots, routing_snapshots, CounterSnapshot, RoutingSnapshot};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the recorder epoch (first [`enable`] call).
fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Category: a small stable vocabulary ("encode", "a2a", "expert",
    /// "decode", "optimizer", ...) used for aggregation.
    pub cat: &'static str,
    /// Instance name, e.g. `"E[c2]"` for chunk 2's expert task.
    pub name: String,
    /// The rank the recording thread was working for.
    pub rank: usize,
    /// The recording thread's display name.
    pub thread: String,
    /// Start, in microseconds since the recorder epoch.
    pub start_us: f64,
    /// Duration in microseconds; never negative.
    pub dur_us: f64,
    /// Task size (bytes, rows — unit chosen by the instrumentation site;
    /// the scheduler's profiler only needs recording and prediction to
    /// agree). Zero when not applicable.
    pub size: f64,
    /// Nesting depth at open time (0 = top level on its thread).
    pub depth: usize,
}

struct ThreadMeta {
    rank: Option<usize>,
    name: String,
}

struct ThreadBuf {
    meta: Mutex<ThreadMeta>,
    spans: Mutex<Vec<SpanRecord>>,
}

struct Frame {
    id: u64,
    cat: &'static str,
    name: String,
    size: f64,
    start_us: f64,
}

struct Tls {
    buf: Arc<ThreadBuf>,
    stack: Vec<Frame>,
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's recorder state, initializing and
/// registering it on first use. Returns `None` during thread teardown.
fn with_tls<R>(f: impl FnOnce(&mut Tls) -> R) -> Option<R> {
    TLS.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let tls = slot.get_or_insert_with(|| {
            let mut reg = REGISTRY.lock().expect("registry poisoned");
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("t{}", reg.len()));
            let buf = Arc::new(ThreadBuf {
                meta: Mutex::new(ThreadMeta { rank: None, name }),
                spans: Mutex::new(Vec::new()),
            });
            reg.push(Arc::clone(&buf));
            Tls {
                buf,
                stack: Vec::new(),
            }
        });
        f(tls)
    })
    .ok()
}

/// Whether recording is on. One relaxed atomic load: cheap enough for any
/// hot path to check before doing per-event work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on, clearing previously recorded spans so the next
/// [`take`] covers exactly the interval since this call.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    for buf in REGISTRY.lock().expect("registry poisoned").iter() {
        buf.spans.lock().expect("spans poisoned").clear();
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off. Spans already recorded remain available to
/// [`take`]; open guards close without recording new work started later.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Names this thread's track in exported traces (e.g. `"rank2/comm"`).
pub fn set_thread_name(name: impl Into<String>) {
    with_tls(|t| t.buf.meta.lock().expect("meta poisoned").name = name.into());
}

/// Attributes this thread's spans and exported track to `rank`.
pub fn set_thread_rank(rank: usize) {
    with_tls(|t| t.buf.meta.lock().expect("meta poisoned").rank = Some(rank));
}

/// The rank set via [`set_thread_rank`] on this thread, if any. Lets a
/// worker thread spawned inside a rank thread inherit its attribution.
pub fn thread_rank() -> Option<usize> {
    with_tls(|t| t.buf.meta.lock().expect("meta poisoned").rank).flatten()
}

/// RAII guard for an open span; records the interval on drop.
///
/// Guards are expected to drop in LIFO order per thread. Dropping a parent
/// before its children force-closes the children at the parent's close
/// time, so recorded traces always nest; a child guard dropped after its
/// parent already closed it records nothing further.
#[must_use = "a span is recorded when its guard drops"]
pub struct SpanGuard {
    /// 0 = no-op guard (recording was disabled at open).
    id: u64,
}

/// Opens a span of `cat`/`name` on the current thread.
///
/// Returns a no-op guard when recording is disabled, without formatting
/// `name`: pass `format_args!(..)` for a computed name and the disabled
/// path stays one relaxed load.
pub fn span(cat: &'static str, name: impl fmt::Display) -> SpanGuard {
    span_sized(cat, name, 0.0)
}

/// Like [`span`], with a task-size annotation (bytes, rows, ...).
pub fn span_sized(cat: &'static str, name: impl fmt::Display, size: f64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: 0 };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let start_us = now_us();
    with_tls(|t| {
        t.stack.push(Frame {
            id,
            cat,
            name: name.to_string(),
            size,
            start_us,
        });
    });
    SpanGuard { id }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_us = now_us();
        with_tls(|t| {
            // A guard dropped after its parent closed it finds no frame.
            let Some(pos) = t.stack.iter().rposition(|f| f.id == self.id) else {
                return;
            };
            // Force-close still-open children at this close time, deepest
            // first, so children never extend past their parent.
            while t.stack.len() > pos {
                let frame = t.stack.pop().expect("len > pos");
                let depth = t.stack.len();
                t.buf
                    .spans
                    .lock()
                    .expect("spans poisoned")
                    .push(SpanRecord {
                        cat: frame.cat,
                        name: frame.name,
                        rank: 0,
                        thread: String::new(),
                        start_us: frame.start_us,
                        dur_us: (end_us - frame.start_us).max(0.0),
                        size: frame.size,
                        depth,
                    });
            }
        });
    }
}

/// Everything one measured interval produced: spans from every thread plus
/// a snapshot of the per-rank counters.
#[derive(Clone, Debug, Default)]
pub struct FuncTrace {
    /// All recorded spans, sorted by `(rank, thread, start)`.
    pub spans: Vec<SpanRecord>,
    /// Per-rank counter totals at [`take`] time.
    pub counters: Vec<CounterSnapshot>,
    /// Per-rank routing tallies (expert loads, shed) at [`take`] time.
    pub routing: Vec<RoutingSnapshot>,
}

/// Drains every thread's recorded spans into one [`FuncTrace`].
///
/// Spans still open (guards not yet dropped) are not included; drop all
/// guards — e.g. join worker threads — before taking the trace.
pub fn take() -> FuncTrace {
    let mut spans = Vec::new();
    for buf in REGISTRY.lock().expect("registry poisoned").iter() {
        let mut drained = std::mem::take(&mut *buf.spans.lock().expect("spans poisoned"));
        let meta = buf.meta.lock().expect("meta poisoned");
        for s in &mut drained {
            s.rank = meta.rank.unwrap_or(0);
            s.thread = meta.name.clone();
        }
        spans.append(&mut drained);
    }
    spans.sort_by(|a, b| {
        (a.rank, &a.thread, a.start_us)
            .partial_cmp(&(b.rank, &b.thread, b.start_us))
            .expect("span times are finite")
    });
    FuncTrace {
        spans,
        counters: counter_snapshots(),
        routing: routing_snapshots(),
    }
}

impl FuncTrace {
    /// The distinct categories present, sorted.
    pub fn cats(&self) -> Vec<&'static str> {
        let mut cats: Vec<&'static str> = self.spans.iter().map(|s| s.cat).collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    }

    /// Serializes the trace as Trace Event Format JSON: one process per
    /// rank, one track per recording thread, complete (`"ph":"X"`) events
    /// carrying the category and size. Loadable in Perfetto alongside the
    /// simulator's `schemoe_netsim::chrome` output for overlay.
    pub fn to_chrome_trace(&self) -> String {
        let mut b = ChromeTraceBuilder::new();
        // Stable (rank, thread) -> tid mapping in first-seen order.
        let mut tracks: Vec<(usize, &str)> = Vec::new();
        for s in &self.spans {
            if !tracks.iter().any(|&(r, t)| r == s.rank && t == s.thread) {
                tracks.push((s.rank, &s.thread));
            }
        }
        let mut named_pids: Vec<usize> = Vec::new();
        for (tid, &(rank, thread)) in tracks.iter().enumerate() {
            if !named_pids.contains(&rank) {
                named_pids.push(rank);
                b.process_name(rank as u64, &format!("rank{rank}"));
            }
            b.thread_name(rank as u64, tid as u64, thread);
        }
        for s in &self.spans {
            let tid = tracks
                .iter()
                .position(|&(r, t)| r == s.rank && t == s.thread)
                .expect("track registered") as u64;
            let args: &[(&str, f64)] = &[("size", s.size)];
            b.complete_event(
                s.rank as u64,
                tid,
                &s.name,
                Some(s.cat),
                s.start_us,
                s.dur_us,
                if s.size != 0.0 { args } else { &[] },
            );
        }
        // Per-rank counter totals as counter tracks, sampled at the end of
        // the trace so they read as the interval's final tally.
        let end_us = self
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .fold(0.0f64, f64::max);
        for c in &self.counters {
            b.counter_event(
                c.rank as u64,
                "fabric",
                end_us,
                &[
                    ("bytes_sent", c.bytes_sent as f64),
                    ("bytes_recv", c.bytes_recv as f64),
                    ("msgs_sent", c.msgs_sent as f64),
                ],
            );
            b.counter_event(
                c.rank as u64,
                "resilience",
                end_us,
                &[
                    ("timeouts", c.timeouts as f64),
                    ("faults_injected", c.faults_injected as f64),
                    ("corrupt_frames", c.corrupt_frames as f64),
                    ("retries", c.retries as f64),
                    ("degraded_steps", c.degraded_steps as f64),
                    ("stale_epochs", c.stale_epochs as f64),
                ],
            );
            b.counter_event(
                c.rank as u64,
                "replication",
                end_us,
                &[
                    ("replica_bytes_sent", c.replica_bytes_sent as f64),
                    ("replica_quanta", c.replica_quanta as f64),
                    ("failover_activations", c.failover_activations as f64),
                    ("handbacks", c.handbacks as f64),
                ],
            );
            b.counter_event(
                c.rank as u64,
                "durability",
                end_us,
                &[
                    ("snapshot_bytes_written", c.snapshot_bytes_written as f64),
                    ("snapshot_shards", c.snapshot_shards as f64),
                    ("snapshot_generations", c.snapshot_generations as f64),
                    ("snapshot_restores", c.snapshot_restores as f64),
                    (
                        "snapshot_reconstructions",
                        c.snapshot_reconstructions as f64,
                    ),
                    ("snapshot_gc_removed", c.snapshot_gc_removed as f64),
                ],
            );
            b.counter_event(
                c.rank as u64,
                "placement",
                end_us,
                &[
                    ("placement_plans", c.placement_plans as f64),
                    ("placement_replications", c.placement_replications as f64),
                    ("placement_migrations", c.placement_migrations as f64),
                    ("placement_demotions", c.placement_demotions as f64),
                    (
                        "placement_transfer_bytes",
                        c.placement_transfer_bytes as f64,
                    ),
                ],
            );
        }
        // Per-expert routing load and shed as one "routing" track per rank,
        // so Perfetto shows the hot-set shift (and the controller's
        // response on the placement track above) on one timeline.
        for r in &self.routing {
            if r.loads.is_empty() && r.shed == 0 && r.routed == 0 {
                continue;
            }
            let mut names: Vec<String> = (0..r.loads.len()).map(|e| format!("expert{e}")).collect();
            names.push("shed".to_string());
            names.push("routed".to_string());
            let mut values: Vec<f64> = r.loads.iter().map(|&l| l as f64).collect();
            values.push(r.shed as f64);
            values.push(r.routed as f64);
            let args: Vec<(&str, f64)> = names
                .iter()
                .map(String::as_str)
                .zip(values.iter().copied())
                .collect();
            b.counter_event(r.rank as u64, "routing", end_us, &args);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::serial_tests as locked;

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = locked();
        disable();
        {
            let _s = span("test", "invisible");
        }
        enable();
        let t = take();
        assert!(t.spans.iter().all(|s| s.name != "invisible"));
        disable();
    }

    #[test]
    fn nested_spans_record_depth_and_order() {
        let _g = locked();
        enable();
        set_thread_rank(3);
        {
            let _outer = span("step", "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span_sized("expert", "inner", 64.0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = take();
        disable();
        let outer = t.spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = t.spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.rank, 3);
        assert_eq!(inner.size, 64.0);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1e-6);
        assert!(outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn parent_drop_force_closes_children() {
        let _g = locked();
        enable();
        let parent = span("p", "parent");
        let child = span("c", "child");
        drop(parent); // out-of-order: child still open
        drop(child); // must be a no-op
        let t = take();
        disable();
        let p = t.spans.iter().find(|s| s.name == "parent").expect("parent");
        let c = t.spans.iter().find(|s| s.name == "child").expect("child");
        assert_eq!(t.spans.iter().filter(|s| s.name == "child").count(), 1);
        let p_end = p.start_us + p.dur_us;
        let c_end = c.start_us + c.dur_us;
        assert!(c_end <= p_end + 1e-6, "child closed after parent");
    }

    #[test]
    fn spans_from_other_threads_are_collected() {
        let _g = locked();
        enable();
        std::thread::scope(|scope| {
            for r in 0..2 {
                scope.spawn(move || {
                    set_thread_rank(r);
                    set_thread_name(format!("worker{r}"));
                    let _s = span("work", format!("job{r}"));
                });
            }
        });
        let t = take();
        disable();
        for r in 0..2 {
            let s = t
                .spans
                .iter()
                .find(|s| s.name == format!("job{r}"))
                .expect("job span");
            assert_eq!(s.rank, r);
            assert_eq!(s.thread, format!("worker{r}"));
        }
    }

    #[test]
    fn chrome_export_parses_and_groups_by_rank() {
        let _g = locked();
        enable();
        set_thread_rank(1);
        {
            let _s = span_sized("a2a", "A1\"quoted\"", 10.0);
        }
        let t = take();
        disable();
        let json = t.to_chrome_trace();
        let v = crate::json::parse(&json).expect("valid JSON");
        let events = v.as_array().expect("array");
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("name").and_then(|n| n.as_str()) == Some("process_name")
        }));
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("complete event");
        assert_eq!(x.get("pid").and_then(|p| p.as_f64()), Some(1.0));
        assert_eq!(x.get("cat").and_then(|c| c.as_str()), Some("a2a"));
        assert_eq!(x.get("name").and_then(|n| n.as_str()), Some("A1\"quoted\""));
    }

    #[test]
    fn chrome_export_carries_per_rank_counter_tracks() {
        let _g = locked();
        enable();
        crate::counters::counters_for_rank(7).add_replica_sent(128);
        crate::counters::counters_for_rank(7).add_snapshot_write(256);
        crate::counters::counters_for_rank(7).add_snapshot_generation();
        set_thread_rank(7);
        {
            let _s = span("step", "s0");
        }
        let t = take();
        disable();
        let json = t.to_chrome_trace();
        let v = crate::json::parse(&json).expect("valid JSON");
        let events = v.as_array().expect("array");
        let c = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|n| n.as_str()) == Some("replication")
                    && e.get("pid").and_then(|p| p.as_f64()) == Some(7.0)
            })
            .expect("rank 7 replication counter track");
        let args = c.get("args").expect("args");
        assert_eq!(
            args.get("replica_bytes_sent").and_then(|b| b.as_f64()),
            Some(128.0)
        );
        assert_eq!(
            args.get("replica_quanta").and_then(|q| q.as_f64()),
            Some(1.0)
        );
        assert!(args.get("failover_activations").is_some());
        assert!(args.get("handbacks").is_some());
        let d = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|n| n.as_str()) == Some("durability")
                    && e.get("pid").and_then(|p| p.as_f64()) == Some(7.0)
            })
            .expect("rank 7 durability counter track");
        let args = d.get("args").expect("args");
        assert_eq!(
            args.get("snapshot_bytes_written").and_then(|b| b.as_f64()),
            Some(256.0)
        );
        assert_eq!(
            args.get("snapshot_generations").and_then(|g| g.as_f64()),
            Some(1.0)
        );
        assert!(args.get("snapshot_restores").is_some());
        assert!(args.get("snapshot_reconstructions").is_some());
        assert!(args.get("snapshot_gc_removed").is_some());
    }

    #[test]
    fn chrome_export_carries_routing_and_placement_tracks() {
        let _g = locked();
        enable();
        let board = crate::counters::routing_for_rank(11);
        board.add_expert_load(0, 40);
        board.add_expert_load(1, 10);
        board.add_shed(2);
        board.add_routed(52);
        crate::counters::counters_for_rank(11).add_placement_plan(1, 0, 1);
        set_thread_rank(11);
        {
            let _s = span("step", "s0");
        }
        let t = take();
        disable();
        let json = t.to_chrome_trace();
        let v = crate::json::parse(&json).expect("valid JSON");
        let events = v.as_array().expect("array");
        let r = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|n| n.as_str()) == Some("routing")
                    && e.get("pid").and_then(|p| p.as_f64()) == Some(11.0)
            })
            .expect("rank 11 routing counter track");
        let args = r.get("args").expect("args");
        assert_eq!(args.get("expert0").and_then(|x| x.as_f64()), Some(40.0));
        assert_eq!(args.get("expert1").and_then(|x| x.as_f64()), Some(10.0));
        assert_eq!(args.get("shed").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(args.get("routed").and_then(|x| x.as_f64()), Some(52.0));
        let p = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|n| n.as_str()) == Some("placement")
                    && e.get("pid").and_then(|p| p.as_f64()) == Some(11.0)
            })
            .expect("rank 11 placement counter track");
        let args = p.get("args").expect("args");
        assert_eq!(
            args.get("placement_plans").and_then(|x| x.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            args.get("placement_demotions").and_then(|x| x.as_f64()),
            Some(1.0)
        );
    }

    #[test]
    fn aggregation_helpers() {
        let _g = locked();
        enable();
        {
            let _a = span("alpha", "a");
            let _b = span("beta", "b");
        }
        let t = take();
        disable();
        let cats = t.cats();
        assert!(cats.contains(&"alpha") && cats.contains(&"beta"));
    }
}
