//! Self time of recorded spans.
//!
//! A span's self time is its duration minus the part its child spans
//! cover. Children are the spans directly nested in it *on the same
//! thread*: a span on another thread that overlaps in time (the comm
//! worker's exchange under the rank thread's step) is work of its own and
//! is never subtracted.

use std::collections::BTreeMap;

use schemoe_obs::SpanRecord;

/// Self time in microseconds of every span, in the order given.
pub fn self_times_us(spans: &[SpanRecord]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    let mut tracks: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        tracks.entry((s.rank, &s.thread)).or_default().push(i);
    }
    for idxs in tracks.values_mut() {
        // Parents before their children: by start, outermost first.
        idxs.sort_by(|&a, &b| {
            spans[a]
                .start_us
                .total_cmp(&spans[b].start_us)
                .then(spans[a].depth.cmp(&spans[b].depth))
        });
        // `open[d]` is the latest span seen at depth `d`; the recorder
        // guarantees children sit inside their parents, so a span's
        // parent is the open span one level up.
        let mut open: Vec<usize> = Vec::new();
        for &i in idxs.iter() {
            let d = spans[i].depth;
            open.truncate(d);
            if let Some(&parent) = d.checked_sub(1).and_then(|up| open.get(up)) {
                own[parent] -= spans[i].dur_us;
            }
            open.push(i);
        }
    }
    for v in &mut own {
        *v = v.max(0.0);
    }
    own
}

/// Self time in milliseconds per category, over the spans `keep` admits.
pub fn self_ms_by_cat(
    spans: &[SpanRecord],
    keep: impl Fn(&SpanRecord) -> bool,
) -> BTreeMap<&'static str, f64> {
    let own = self_times_us(spans);
    let mut by_cat = BTreeMap::new();
    for (s, us) in spans.iter().zip(own) {
        if keep(s) {
            *by_cat.entry(s.cat).or_insert(0.0) += us / 1e3;
        }
    }
    by_cat
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        cat: &'static str,
        thread: &str,
        start_us: f64,
        dur_us: f64,
        depth: usize,
    ) -> SpanRecord {
        SpanRecord {
            cat,
            name: cat.to_string(),
            rank: 0,
            thread: thread.to_string(),
            start_us,
            dur_us,
            size: 0.0,
            depth,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_from_their_direct_parent() {
        // step [0,100) > a2a [10,60) > coll [20,50); step > expert [60,90).
        let spans = vec![
            span("bench", "rank0", 0.0, 100.0, 0),
            span("a2a", "rank0", 10.0, 50.0, 1),
            span("coll", "rank0", 20.0, 30.0, 2),
            span("expert", "rank0", 60.0, 30.0, 1),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 20.0, 30.0, 30.0]);
        let by_cat = self_ms_by_cat(&spans, |_| true);
        let total: f64 = by_cat.values().sum();
        assert!((total - 0.1).abs() < 1e-12, "self times partition the step");
    }

    #[test]
    fn a_span_on_another_thread_is_not_a_child() {
        // The comm worker's a2a overlaps the rank thread's step entirely.
        let spans = vec![
            span("bench", "rank0", 0.0, 100.0, 0),
            span("a2a", "rank0/comm", 5.0, 90.0, 0),
            span("expert", "rank0", 10.0, 40.0, 1),
        ];
        assert_eq!(self_times_us(&spans), vec![60.0, 90.0, 40.0]);
    }

    #[test]
    fn siblings_and_input_order_do_not_matter() {
        // Two steps back to back, children listed before parents.
        let spans = vec![
            span("gate", "rank0", 105.0, 10.0, 1),
            span("gate", "rank0", 5.0, 10.0, 1),
            span("bench", "rank0", 100.0, 50.0, 0),
            span("bench", "rank0", 0.0, 50.0, 0),
        ];
        assert_eq!(self_times_us(&spans), vec![10.0, 10.0, 40.0, 40.0]);
        let only_bench = self_ms_by_cat(&spans, |s| s.cat == "bench");
        assert_eq!(only_bench.len(), 1);
        assert!((only_bench["bench"] - 0.08).abs() < 1e-12);
    }
}
