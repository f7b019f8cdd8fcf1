//! The measured phase shared by every workload. A run sets the workload
//! up [`SLICES`] times afresh; each set-up is timed, then measured
//! for an equal share of the run's ops, split into equal op-count
//! windows with wall and CPU marks (and, in a traced run, alternating
//! traced windows). The report turns the slices into end-to-end and
//! per-layer metrics.

use crate::bed::{Counters, Watched, SHARDS};
use crate::host;
use crate::stats::{self, median, percentile, ratio, windowed_percentile, windows};
use displaydb::common::trace::{self, Stage, TraceEvent, TraceSpan};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Independent set-ups per run. `setup_s` is the median of their times,
/// and measuring every set-up, not only the last, keeps one server
/// instance's luck (thread placement, hash seeds) from setting the run's
/// numbers.
pub const SLICES: usize = 5;

/// Windows per slice.
const SLICE_WINDOWS: usize = 4;

/// Windows per run. Every wall-clock metric is the median of its
/// per-window values.
pub const WINDOWS: usize = SLICES * SLICE_WINDOWS;

/// Trace ring capacity for a traced run: room for every stage stamp of
/// every traced window without wrapping.
const TRACE_RING: usize = 1 << 18;

/// How many ops one slice issues, and whether it alternates traced
/// windows.
#[derive(Clone, Debug)]
pub struct Plan {
    pub warmup: usize,
    pub measured: usize,
    pub traced: bool,
    bounds: Vec<Range<usize>>,
}

impl Plan {
    pub fn new(warmup: usize, measured: usize, traced: bool) -> Self {
        Self {
            warmup,
            measured,
            traced,
            bounds: windows(measured, SLICE_WINDOWS),
        }
    }

    /// Total ops, warm-up included.
    pub fn total(&self) -> usize {
        self.warmup + self.measured
    }

    /// The window holding global op `i`, if `i` is measured.
    fn window_of(&self, i: usize) -> Option<usize> {
        let m = i.checked_sub(self.warmup)?;
        self.bounds.iter().position(|r| r.contains(&m))
    }

    /// A traced run traces every odd window and leaves the even ones
    /// untraced, so one run yields the stage stamps and the tracing
    /// overhead side by side. (`SLICE_WINDOWS` is even, so the parity
    /// holds across the run's concatenated windows too.)
    fn window_traced(&self, w: usize) -> bool {
        self.traced && w % 2 == 1
    }

    /// Called by the issuing thread before it issues global op `i`:
    /// switches tracing on or off at window starts.
    pub fn before_op(&self, i: usize) {
        if !self.traced {
            return;
        }
        if i == self.warmup {
            trace::enable(TRACE_RING);
            trace::clear();
        }
        if let Some(w) = self.window_of(i) {
            if self.bounds[w].start == i - self.warmup {
                if self.window_traced(w) {
                    trace::enable(TRACE_RING);
                } else {
                    trace::disable();
                }
            }
        }
    }

    /// End a traced run: tracing off, its stamps taken and the ring
    /// emptied, so later code pays only the disabled-path cost.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        if !self.traced {
            return Vec::new();
        }
        trace::disable();
        let events = trace::events();
        trace::clear();
        events
    }
}

/// Records the outcome of every measured op, in issue order, and takes
/// a wall-clock and CPU mark each time a window completes.
pub struct Recorder {
    bounds: Vec<Range<usize>>,
    start: (Instant, Duration),
    marks: Vec<(Instant, Duration)>,
    /// Latency of each measured op in ms; `None` for a failed op.
    pub op_ms: Vec<Option<f64>>,
}

impl Recorder {
    /// Start recording `plan.measured` ops; `start` is when the first
    /// measured op was due.
    pub fn new(plan: &Plan, start: Instant) -> Self {
        Self {
            bounds: plan.bounds.clone(),
            start: (start, host::process_cpu()),
            marks: Vec::with_capacity(SLICE_WINDOWS),
            op_ms: Vec::with_capacity(plan.measured),
        }
    }

    /// Record the next measured op.
    pub fn record(&mut self, latency: Option<Duration>) {
        self.op_ms.push(latency.map(stats::ms));
        if let Some(w) = self.bounds.get(self.marks.len()) {
            if self.op_ms.len() == w.end {
                self.marks.push((Instant::now(), host::process_cpu()));
            }
        }
    }

    /// Per-window `(ops, wall, cpu)`.
    fn window_costs(&self) -> Vec<(usize, Duration, Duration)> {
        let mut prev = self.start;
        self.bounds
            .iter()
            .zip(&self.marks)
            .map(|(r, &mark)| {
                let cost = (r.len(), mark.0 - prev.0, mark.1.saturating_sub(prev.1));
                prev = mark;
                cost
            })
            .collect()
    }
}

/// A named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name, value, unit });
    }

    /// The metrics as one JSON object, `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Everything a workload measured; turned into metrics by
/// [`Phase::end_to_end`] and [`Phase::per_layer`]. Fields a workload
/// has no use for stay empty and report 0.
#[derive(Default)]
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub warmup: usize,
    pub warmup_failed: usize,
    pub op_ms: Vec<Option<f64>>,
    pub commit_ms: Vec<Option<f64>>,
    /// `(ops, wall, cpu)` of every window.
    window_costs: Vec<(usize, Duration, Duration)>,
    /// Heap live before the current slice's set-up: memory earlier
    /// slices left behind is not this slice's.
    pub heap_base: u64,
    /// Largest heap high-water of a slice above its `heap_base`.
    pub peak_heap_bytes: u64,
    pub counts: Counters,
    pub outbox_depth_max: u64,
    pub dlc_queue_depth_max: u64,
    pub log_bytes: u64,
    /// Cycles (reconnect) measured.
    pub cycles: usize,
    /// Bench-timed `Display::process_pending`, µs per event handled.
    pub apply_us: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub add_object_us: Vec<f64>,
    pub close_ms: Vec<f64>,
    pub display_bytes_per_do: Vec<f64>,
    pub cache_bytes_per_object: Vec<f64>,
    pub resume_ms: Vec<f64>,
    pub catchup_ms: Vec<f64>,
    /// How late the generator issued each op, µs (open loop only).
    pub late_us: Vec<f64>,
    pub trace: Vec<TraceEvent>,
    pub traced: bool,
    pub calib_ms: Vec<f64>,
}

/// Restart every high-water mark a slice reports and read the counters
/// its counts are taken against.
pub fn begin_phase(watched: &Watched) -> Counters {
    watched.reset_high_water();
    host::reset_peak_heap();
    watched.read()
}

fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

impl Phase {
    /// Close the slice begun by [`begin_phase`]: ops the workload never
    /// got to count as failed, and every counter, gauge and trace stamp
    /// is added to the run's.
    pub fn finish(&mut self, plan: &Plan, mut rec: Recorder, watched: &Watched, before: &Counters) {
        while rec.op_ms.len() < plan.measured {
            rec.record(None);
        }
        self.counts.add(&watched.read().since(before));
        let peak = host::peak_heap_bytes().saturating_sub(self.heap_base);
        self.peak_heap_bytes = self.peak_heap_bytes.max(peak);
        self.outbox_depth_max = self.outbox_depth_max.max(watched.outbox_depth_max());
        self.dlc_queue_depth_max = self.dlc_queue_depth_max.max(watched.dlc_queue_depth_max());
        self.log_bytes = self.log_bytes.max(watched.log_bytes());
        self.trace.extend(plan.take_trace());
        self.traced = plan.traced;
        self.window_costs.extend(rec.window_costs());
        self.op_ms.extend(rec.op_ms);
        self.warmup += plan.warmup;
    }

    /// Median across windows of a per-window figure.
    fn windowed(&self, f: impl Fn(usize, Duration, Duration) -> f64) -> f64 {
        let per: Vec<f64> = self
            .window_costs
            .iter()
            .map(|&(n, wall, cpu)| f(n, wall, cpu))
            .collect();
        p50(&per)
    }

    /// Measured ops.
    pub fn ops(&self) -> usize {
        self.op_ms.len()
    }

    /// The end-to-end metrics, every one of them on every workload.
    pub fn end_to_end(&self) -> Metrics {
        let ops = self.ops() as f64;
        let c = &self.counts;
        let wire =
            c.viewer_bytes_in + c.viewer_bytes_out + c.monitor_bytes_in + c.monitor_bytes_out;
        let mut m = Metrics::default();
        m.put("setup_s", p50(&self.setup_s), "s");
        m.put("op_p50_ms", self.windowed_op(0.5), "ms");
        m.put("op_p90_ms", self.windowed_op(0.9), "ms");
        m.put(
            "commit_p50_ms",
            windowed_percentile(&self.commit_ms, WINDOWS, 0.5).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "ops_per_s",
            self.windowed(|n, wall, _| ratio(n as f64, wall.as_secs_f64())),
            "1/s",
        );
        m.put(
            "cpu_ms_per_op",
            self.windowed(|n, _, cpu| ratio(stats::ms(cpu), n as f64)),
            "ms",
        );
        m.put("wire_bytes_per_op", ratio(wire as f64, ops), "B");
        m.put(
            "peak_heap_mb",
            self.peak_heap_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        m
    }

    fn windowed_op(&self, q: f64) -> f64 {
        windowed_percentile(&self.op_ms, WINDOWS, q).unwrap_or(0.0)
    }

    /// The per-layer metrics, every one of them on every workload (0
    /// where a layer does no work).
    pub fn per_layer(&self) -> Metrics {
        let ops = self.ops() as f64;
        let c = &self.counts;
        let commits = c.commits as f64;
        let cycles = self.cycles as f64;
        let mut m = Metrics::default();

        let obs = stage_gaps(&self.trace);
        m.put("obs.commit_to_intersect_us_p50", obs[0], "us");
        m.put("obs.intersect_to_enqueue_us_p50", obs[1], "us");
        m.put("obs.outbox_residence_us_p50", obs[2], "us");
        m.put("obs.drain_to_send_us_p50", obs[3], "us");
        m.put("obs.send_to_recv_us_p50", obs[4], "us");
        m.put("obs.recv_to_apply_us_p50", obs[5], "us");

        m.put("display.apply_us_p50", p50(&self.apply_us), "us");
        let refreshes = c.display_refreshes as f64;
        m.put(
            "display.refreshes_per_event",
            ratio(refreshes, c.display_events as f64),
            "ratio",
        );
        m.put(
            "display.delta_refresh_share",
            ratio(c.display_delta_refreshes as f64, refreshes),
            "ratio",
        );

        let notifications = c.notifications as f64;
        m.put(
            "dlm.notifications_per_commit",
            ratio(notifications, commits),
            "count",
        );
        m.put(
            "dlm.suppressed_per_commit",
            ratio(c.suppressed as f64, commits),
            "count",
        );
        m.put(
            "dlm.delta_share",
            ratio(c.delta_notifications as f64, notifications),
            "ratio",
        );
        m.put(
            "dlm.outbox.batches_per_commit",
            ratio(c.batches as f64, commits),
            "count",
        );
        m.put(
            "dlm.outbox.coalesced_per_commit",
            ratio(c.coalesced as f64, commits),
            "count",
        );
        m.put(
            "dlm.outbox.queue_depth_max",
            self.outbox_depth_max as f64,
            "count",
        );
        let routed: Vec<f64> = c.shard_updates.iter().map(|&u| u as f64).collect();
        let mean = routed.iter().sum::<f64>() / SHARDS as f64;
        m.put(
            "dlm.shard.routed_skew",
            ratio(routed.iter().copied().fold(0.0, f64::max), mean),
            "ratio",
        );
        m.put(
            "dlm.log.appended_per_commit",
            ratio(c.log_appended as f64, commits),
            "count",
        );
        m.put("dlm.log.bytes", self.log_bytes as f64, "B");

        m.put(
            "server.requests_per_op",
            ratio(c.requests as f64, ops),
            "count",
        );
        m.put(
            "server.callbacks_per_commit",
            ratio(c.callbacks as f64, commits),
            "count",
        );
        m.put("server.reads_per_op", ratio(c.reads as f64, ops), "count");

        m.put(
            "client.cache.hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        );
        m.put(
            "client.cache.evictions_per_op",
            ratio(c.cache_evictions as f64, ops),
            "count",
        );
        m.put(
            "client.dlc.lock_msgs_per_op",
            ratio(c.dlc_lock_msgs as f64, ops),
            "count",
        );
        m.put(
            "client.dlc.release_msgs_per_op",
            ratio(c.dlc_release_msgs as f64, ops),
            "count",
        );
        m.put(
            "client.dlc.dedup_ratio",
            ratio(c.dlc_local_locks as f64, c.dlc_lock_msgs as f64),
            "ratio",
        );
        m.put(
            "client.dlc.dispatched_per_notification",
            ratio(c.dlc_dispatched as f64, c.dlc_notifications_in as f64),
            "ratio",
        );
        m.put(
            "client.dlc.queue_depth_max",
            self.dlc_queue_depth_max as f64,
            "count",
        );

        m.put("display.open_ms_p50", p50(&self.open_ms), "ms");
        m.put("display.add_object_us_p50", p50(&self.add_object_us), "us");
        m.put("display.close_ms_p50", p50(&self.close_ms), "ms");
        m.put(
            "display.cache_bytes_per_do",
            p50(&self.display_bytes_per_do),
            "B",
        );
        m.put(
            "client.cache_bytes_per_object",
            p50(&self.cache_bytes_per_object),
            "B",
        );

        m.put(
            "lockmgr.display_grants_per_op",
            ratio(c.display_grants as f64, ops),
            "count",
        );
        m.put(
            "lockmgr.grants_per_commit",
            ratio(c.lock_grants as f64, commits),
            "count",
        );
        m.put("lockmgr.waits", c.lock_waits as f64, "count");
        m.put(
            "dlm.lock_requests_per_op",
            ratio(c.dlm_lock_requests as f64, ops),
            "count",
        );

        m.put(
            "storage.buffer.hit_ratio",
            ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
            "ratio",
        );
        m.put(
            "storage.buffer.misses_per_op",
            ratio(c.pool_misses as f64, ops),
            "count",
        );
        m.put(
            "storage.buffer.evictions_per_op",
            ratio(c.pool_evictions as f64, ops),
            "count",
        );

        m.put("wire.frames_per_op", ratio(c.frames as f64, ops), "count");
        m.put(
            "wire.bytes_to_viewer_per_op",
            ratio(c.viewer_bytes_in as f64, ops),
            "B",
        );
        m.put(
            "wire.bytes_from_monitor_per_op",
            ratio(c.monitor_bytes_out as f64, ops),
            "B",
        );
        m.put("alloc.allocs_per_op", ratio(c.allocs as f64, ops), "count");

        m.put("client.resume_ms_p50", p50(&self.resume_ms), "ms");
        m.put("client.catchup_ms_p50", p50(&self.catchup_ms), "ms");
        m.put(
            "recovery.replay_catchups_per_cycle",
            ratio(c.replay_catchups as f64, cycles),
            "count",
        );
        m.put(
            "recovery.resync_objects_per_cycle",
            ratio(c.resync_objects as f64, cycles),
            "count",
        );
        m.put(
            "dlm.log.replayed_events_per_cycle",
            ratio(c.log_replayed_events as f64, cycles),
            "count",
        );
        m.put(
            "dlm.log.truncated_replays",
            c.log_truncated_replays as f64,
            "count",
        );
        m.put("overload.resume_sheds", c.resume_sheds as f64, "count");

        m.put(
            "gen.late_us_p90",
            percentile(&self.late_us, 0.9).unwrap_or(0.0),
            "us",
        );
        let all: Vec<f64> = self.op_ms.iter().flatten().copied().collect();
        m.put(
            "tail.op_p99_ms",
            percentile(&all, 0.99).unwrap_or(0.0),
            "ms",
        );
        m.put("trace.overhead_pct", self.trace_overhead_pct(), "%");
        m.put("host.calib_ms", p50(&self.calib_ms), "ms");
        m
    }

    /// Traced against untraced windows of one traced run: the relative
    /// rise of the median per-window op p50, in percent.
    fn trace_overhead_pct(&self) -> f64 {
        if !self.traced {
            return 0.0;
        }
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (w, r) in windows(self.op_ms.len(), WINDOWS).into_iter().enumerate() {
            let window: Vec<f64> = self.op_ms[r].iter().flatten().copied().collect();
            if let Some(p) = median(&window) {
                if w % 2 == 1 {
                    on.push(p);
                } else {
                    off.push(p);
                }
            }
        }
        match (median(&on), median(&off)) {
            (Some(on), Some(off)) => (ratio(on, off) - 1.0) * 100.0,
            _ => 0.0,
        }
    }
}

/// Median µs of each consecutive stage gap along the notification path
/// (commit→intersect, intersect→enqueue, enqueue→drain, drain→send,
/// send→recv, recv→apply), over every trace that stamped all seven
/// stages. A trace fanned out to several shards or displays follows its
/// first stamp at each stage, as [`TraceSpan`] defines.
pub fn stage_gaps(events: &[TraceEvent]) -> [f64; 6] {
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| (e.trace, e.t_ns));
    let mut gaps: [Vec<f64>; 6] = Default::default();
    for group in sorted.chunk_by(|a, b| a.trace == b.trace) {
        let span = TraceSpan::of(group[0].trace, group);
        if !span.covers(Stage::ALL) || !span.is_monotone() {
            continue;
        }
        for (i, (_, _, ns)) in span.gaps().into_iter().enumerate() {
            gaps[i].push(ns as f64 / 1e3);
        }
    }
    gaps.map(|g| p50(&g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, stage: Stage, t_ns: u64) -> TraceEvent {
        TraceEvent { trace, stage, t_ns }
    }

    #[test]
    fn stage_gaps_use_complete_traces_only() {
        let mut events = Vec::new();
        for (id, base) in [(1u64, 0u64), (2, 10_000)] {
            for (i, &s) in Stage::ALL.iter().enumerate() {
                events.push(ev(id, s, base + 1_000 * i as u64 * id));
            }
        }
        // A partial trace (tracing switched off mid-flight) is ignored.
        events.push(ev(3, Stage::Commit, 0));
        events.push(ev(3, Stage::Intersect, 99_000));
        // Gaps: trace 1 is 1 µs per stage, trace 2 is 2 µs.
        assert_eq!(stage_gaps(&events), [1.5; 6]);
        assert_eq!(stage_gaps(&[]), [0.0; 6]);
    }

    #[test]
    fn plan_windows_cover_measured_ops_after_warmup() {
        let plan = Plan::new(5, 2 * SLICE_WINDOWS, true);
        assert_eq!(plan.window_of(4), None);
        assert_eq!(plan.window_of(5), Some(0));
        assert_eq!(plan.window_of(6), Some(0));
        assert_eq!(plan.window_of(7), Some(1));
        assert_eq!(
            plan.window_of(4 + 2 * SLICE_WINDOWS),
            Some(SLICE_WINDOWS - 1)
        );
        assert_eq!(plan.window_of(5 + 2 * SLICE_WINDOWS), None);
        assert!(!plan.window_traced(0) && plan.window_traced(1));
        assert!(!Plan::new(5, 20, false).window_traced(1));
    }

    #[test]
    fn recorder_marks_each_window_once() {
        let plan = Plan::new(0, 4, false);
        let mut rec = Recorder::new(&plan, Instant::now());
        for i in 0..4 {
            rec.record((i != 2).then(|| Duration::from_millis(2)));
        }
        assert_eq!(rec.marks.len(), 4);
        assert_eq!(rec.op_ms.iter().filter(|o| o.is_none()).count(), 1);
        assert_eq!(rec.window_costs().len(), 4);
        assert!(rec.window_costs().iter().all(|&(n, _, _)| n == 1));
    }
}
