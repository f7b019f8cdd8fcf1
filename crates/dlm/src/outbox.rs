//! Per-session bounded outboxes with coalescing and overflow-to-replay
//! (DESIGN.md § 9).
//!
//! The fan-out loop in [`crate::core::DlmCore`] delivers synchronously,
//! which is perfect for tests and for in-process sinks but means one
//! stalled consumer can block delivery to every healthy one and one
//! stalled *connection* can grow an unbounded send queue. Both
//! deployments therefore register their client sessions through an
//! [`OutboxSink`]:
//!
//! * **one queue per shard** — each DLM shard enqueues into its own
//!   bounded [`CoalescingQueue`] through [`OutboxSink::shard`]; `deliver`
//!   is a non-blocking push capped at the configured high-water mark,
//! * **one writer per session** — a single writer thread (`dlm-outbox`)
//!   drains the session's queues round-robin into one wire frame and
//!   performs the actual (possibly blocking) send,
//! * **coalescing** — a newer `Updated{oid}` replaces a queued one in
//!   place (latest state wins, queue position preserved so nothing
//!   reorders), and a `Resolved` cancels its still-queued `Marked`,
//! * **overflow-to-replay** — breaching a queue's high-water mark sweeps
//!   that queue into a single `ReplayNeeded{shard}` marker: the backlog
//!   is already retained in the shard's update log, so the client
//!   catches up by cursor replay, and memory stays bounded,
//! * **slow-consumer demotion** — after N consecutive sweeps of a queue
//!   the client is marked *lagging* and a single [`DlmEvent::Lagging`]
//!   tells the display layer to render staleness until it replays.
//!
//! Every per-shard queue keeps its own high-water mark, sweep, lagging
//! state and seqno frontier, so overload on one shard never interrupts
//! another shard's stream; only the writer thread and the inner sink are
//! shared.

use crate::core::EventSink;
use crate::proto::DlmEvent;
use displaydb_common::metrics::OverloadStats;
use displaydb_common::sync::{ranks, OrderedCondvar, OrderedMutex};
use displaydb_common::{DbError, DbResult, Oid, OverloadConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What [`CoalescingQueue::push`] did with an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pushed {
    /// Appended at the tail.
    Queued,
    /// Merged into an already-queued event (same-OID `Updated` replaced
    /// in place, or OIDs folded into a pending `ResyncRequired`).
    Coalesced,
    /// A queued `Marked` and this `Resolved` cancelled each other out.
    Cancelled,
    /// The push breached the high-water mark: the whole queue was swept
    /// into one `ReplayNeeded` marker.
    Overflowed,
}

/// A queued event tagged with the update-log seqno it carries (0 when
/// the event did not come off the commit path, e.g. control events).
#[derive(Debug)]
struct Entry {
    event: DlmEvent,
    seqno: u64,
}

/// A bounded notification queue with latest-state-wins coalescing, for
/// one DLM shard's events to one client.
///
/// Pure data structure (no threads, no I/O) so its invariants are
/// directly proptestable; [`OutboxSink`] owns one per shard behind a
/// mutex. Operations are linear scans over at most `high_water` entries,
/// which is deliberate: the bound is small (default 64) and a scan of a
/// short `VecDeque` beats maintaining index maps at these sizes.
///
/// Entries carry their log seqno so that replayed (older) events
/// interleaving with live commits can never clobber newer queued state:
/// on a coalesce, the higher-seqno payload wins.
#[derive(Debug)]
pub struct CoalescingQueue {
    queue: VecDeque<Entry>,
    high_water: usize,
    /// The shard whose events this queue holds; named in the
    /// `ReplayNeeded` marker an overflow sweep leaves behind.
    shard: u32,
}

impl CoalescingQueue {
    /// An empty queue for `shard`'s events that sweeps to one
    /// `ReplayNeeded{shard}` marker past `high_water` entries.
    pub fn new(shard: u32, high_water: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            high_water: high_water.max(2),
            shard,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Remove and return the oldest event.
    pub fn pop(&mut self) -> Option<DlmEvent> {
        self.queue.pop_front().map(|e| e.event)
    }

    /// Push one event, coalescing against the queued ones.
    pub fn push(&mut self, event: DlmEvent) -> Pushed {
        self.push_seq(event, 0)
    }

    /// Push one seqno-stamped event, coalescing against the queued ones.
    pub fn push_seq(&mut self, event: DlmEvent, seqno: u64) -> Pushed {
        let outcome = self.coalesce_or_queue(event, seqno);
        if self.queue.len() > self.high_water {
            self.sweep_to_marker();
            return Pushed::Overflowed;
        }
        outcome
    }

    /// Push without the overflow check. Used for replay catch-up, whose
    /// burst legitimately exceeds the live high-water mark but is still
    /// bounded by the watched set via coalescing.
    pub fn push_unbounded(&mut self, event: DlmEvent, seqno: u64) -> Pushed {
        self.coalesce_or_queue(event, seqno)
    }

    fn coalesce_or_queue(&mut self, event: DlmEvent, seqno: u64) -> Pushed {
        match &event {
            DlmEvent::Updated(info) => {
                // Latest state wins: replace a queued Updated for the
                // same OID *in place* so relative order is preserved.
                // "Latest" is decided by seqno, not arrival order: a
                // replayed old event must not clobber a newer live one.
                for queued in self.queue.iter_mut() {
                    match &mut queued.event {
                        DlmEvent::Updated(q) if q.oid == info.oid => {
                            if seqno >= queued.seqno {
                                queued.event = event;
                                queued.seqno = seqno;
                            }
                            return Pushed::Coalesced;
                        }
                        // A pending resync marker already covers any
                        // state change to its OIDs.
                        DlmEvent::ResyncRequired { oids } if oids.contains(&info.oid) => {
                            return Pushed::Coalesced;
                        }
                        _ => {}
                    }
                }
            }
            DlmEvent::Resolved { oid, txn, .. } => {
                // The intent never reached the client: drop the pair.
                let pos = self.queue.iter().position(|q| {
                    matches!(&q.event, DlmEvent::Marked { oid: m, txn: t } if m == oid && t == txn)
                });
                if let Some(pos) = pos {
                    self.queue.remove(pos);
                    return Pushed::Cancelled;
                }
            }
            DlmEvent::ResyncRequired { oids } => {
                // Fold into an existing marker rather than queue two.
                let fold: Vec<Oid> = oids.clone();
                for queued in self.queue.iter_mut() {
                    if let DlmEvent::ResyncRequired { oids: existing } = &mut queued.event {
                        for oid in fold {
                            if !existing.contains(&oid) {
                                existing.push(oid);
                            }
                        }
                        return Pushed::Coalesced;
                    }
                }
            }
            DlmEvent::ReplayNeeded { from, .. } => {
                // One replay round covers everything: keep the highest
                // `from` (purely diagnostic — the client replays from
                // its own cursor).
                for queued in self.queue.iter_mut() {
                    if let DlmEvent::ReplayNeeded { from: existing, .. } = &mut queued.event {
                        *existing = (*existing).max(*from);
                        return Pushed::Coalesced;
                    }
                }
            }
            DlmEvent::CursorAck { seqno: ack, .. } => {
                // Writer-synthesized, normally never queued; defensively
                // keep only the highest ack.
                for queued in self.queue.iter_mut() {
                    if let DlmEvent::CursorAck {
                        seqno: existing, ..
                    } = &mut queued.event
                    {
                        *existing = (*existing).max(*ack);
                        return Pushed::Coalesced;
                    }
                }
            }
            DlmEvent::Lagging => {
                // One staleness signal is as good as ten.
                if self
                    .queue
                    .iter()
                    .any(|q| matches!(q.event, DlmEvent::Lagging))
                {
                    return Pushed::Coalesced;
                }
            }
            DlmEvent::Delta {
                oid,
                version,
                changed,
                trace,
            } => {
                // Consecutive deltas for the same object merge: union of
                // the changed attribute sets, newest value per attribute.
                // Dropping the older delta outright (latest-wins, as
                // Updated does) would lose attributes the newer delta
                // does not mention. "Newest" is by seqno: a replayed
                // older delta only contributes attrs the newer queued
                // one does not already carry.
                for queued in self.queue.iter_mut() {
                    let entry_seqno = queued.seqno;
                    match &mut queued.event {
                        DlmEvent::Delta {
                            oid: q_oid,
                            version: q_version,
                            changed: q_changed,
                            trace: q_trace,
                        } if q_oid == oid && q_version == version => {
                            let newer = seqno >= entry_seqno;
                            for (attr, value) in changed {
                                match q_changed.iter_mut().find(|(a, _)| a == attr) {
                                    Some((_, v)) => {
                                        if newer {
                                            *v = value.clone();
                                        }
                                    }
                                    None => q_changed.push((*attr, value.clone())),
                                }
                            }
                            q_changed.sort_by_key(|(a, _)| *a);
                            // Latest commit wins the merged event's trace,
                            // matching the values it carries.
                            if newer && *trace != 0 {
                                *q_trace = *trace;
                            }
                            queued.seqno = entry_seqno.max(seqno);
                            return Pushed::Coalesced;
                        }
                        // A pending resync marker already forces a full
                        // re-read of this object.
                        DlmEvent::ResyncRequired { oids } if oids.contains(oid) => {
                            return Pushed::Coalesced;
                        }
                        _ => {}
                    }
                }
            }
            DlmEvent::Marked { .. } | DlmEvent::Ready { .. } | DlmEvent::Batch(_) => {}
        }
        self.queue.push_back(Entry { event, seqno });
        Pushed::Queued
    }

    /// Replace everything queued with a single `ReplayNeeded` marker.
    /// The swept backlog lives in the update log; `from` is the highest
    /// swept seqno, for diagnostics only (the client replays from its own
    /// cursor).
    fn sweep_to_marker(&mut self) {
        let mut from = 0u64;
        for entry in self.queue.drain(..) {
            from = from.max(entry.seqno);
            if let DlmEvent::ReplayNeeded { from: f, .. } = entry.event {
                from = from.max(f);
            }
        }
        self.queue.push_back(Entry {
            event: DlmEvent::ReplayNeeded {
                shard: self.shard,
                from,
            },
            seqno: 0,
        });
    }
}

/// One shard's queue plus the recovery state the writer and the DLM
/// drive for it.
struct ShardQueue {
    queue: CoalescingQueue,
    /// High-water sweeps since the client last replayed.
    consecutive_overflows: u32,
    /// Slow-consumer demotion, sticky until the client replays.
    lagging: bool,
    /// The backlog was swept to a `ReplayNeeded` marker; further live
    /// deliveries are dropped (the update log covers them) until
    /// `replay_restore` runs when the client comes back with its replay
    /// request.
    replay_pending: bool,
    /// Highest log seqno handed to this queue whose effect will reach
    /// the client (queued, coalesced into a newer entry, or marked
    /// current after replay). Dropped-while-replay-pending events do
    /// NOT advance it.
    last_seqno: u64,
    /// Highest seqno already acknowledged to the client via `CursorAck`.
    last_acked: u64,
}

struct OutboxState {
    shards: Vec<ShardQueue>,
    /// The shard the next drain starts at, so no shard's backlog can
    /// starve the others out of a frame.
    next: usize,
    /// Writer asked to exit (client unregistered / server shutdown).
    shutdown: bool,
    /// The inner sink failed; all further deliveries are refused.
    dead: bool,
    /// The writer has popped a frame it has not yet handed to the inner
    /// sink. Drainers must treat this as undelivered work: empty queues
    /// alone do not mean the tail reached the client.
    in_flight: bool,
}

impl OutboxState {
    fn queued(&self) -> bool {
        self.shards.iter().any(|q| !q.queue.is_empty())
    }

    fn deepest(&self) -> u64 {
        self.shards.iter().map(|q| q.queue.len()).max().unwrap_or(0) as u64
    }

    /// Pop the next frame: up to `batch_max` events taken round-robin
    /// across the shard queues, then a `CursorAck` for every shard whose
    /// queue is now drained and whose frontier moved. Returns the events
    /// and the `(shard, seqno)` acks they carry.
    fn take_frame(&mut self, batch_max: usize) -> (Vec<DlmEvent>, Vec<(u32, u64)>) {
        let n = self.shards.len();
        let start = self.next;
        let mut events = Vec::new();
        loop {
            let before = events.len();
            for i in 0..n {
                if events.len() >= batch_max {
                    break;
                }
                if let Some(e) = self.shards[(start + i) % n].queue.pop() {
                    events.push(e);
                }
            }
            if events.len() == before || events.len() >= batch_max {
                break;
            }
        }
        if !events.is_empty() {
            self.next = (start + 1) % n;
        }
        let mut acks = Vec::new();
        for (shard, q) in (0u32..).zip(self.shards.iter_mut()) {
            // A shard whose sweep awaits the client's replay is not
            // acknowledged: its drained "queue" was just the marker.
            if !q.queue.is_empty() || q.replay_pending {
                continue;
            }
            if q.last_seqno > q.last_acked {
                // Everything enqueued through last_seqno rides this very
                // frame or an earlier one: acknowledge it last.
                q.last_acked = q.last_seqno;
                acks.push((shard, q.last_acked));
                events.push(DlmEvent::CursorAck {
                    shard,
                    seqno: q.last_acked,
                });
            }
        }
        (events, acks)
    }
}

/// Called (outside every lock) with each `(shard, cursor)` the writer
/// just acknowledged to the client — the durable-frontier spill hook
/// (DESIGN.md § 14). It sees acks in the order the writer emitted them
/// and may block on I/O.
pub type FrontierRecorder = Arc<dyn Fn(u32, u64) + Send + Sync>;

struct OutboxShared {
    state: OrderedMutex<OutboxState>,
    /// Wakes the writer (work queued or shutdown).
    work: OrderedCondvar,
    /// Wakes drainers (queues just emptied or writer exited).
    idle: OrderedCondvar,
    config: OverloadConfig,
    stats: OverloadStats,
    recorder: Option<FrontierRecorder>,
}

/// One client session's bounded, coalescing outbox around a blocking
/// sink: one [`CoalescingQueue`] per DLM shard, one writer thread.
///
/// The per-shard handles from [`OutboxSink::shard`] never block and
/// never perform I/O: they coalesce into their shard's bounded queue and
/// wake the writer thread, which owns the only calls into the wrapped
/// sink. The DLM agent builds one around its wire-channel sink, the
/// integrated server one around each session sink.
pub struct OutboxSink {
    inner: Arc<dyn EventSink>,
    shared: Arc<OutboxShared>,
}

impl OutboxSink {
    /// Wrap `inner` with one queue per shard (`shards ≥ 1`), spawning the
    /// writer thread. Every `CursorAck` the writer emits is reported to
    /// `recorder` after the carrying frame reached the inner sink; the
    /// durable DLM passes a closure spilling the cursor to that shard's
    /// segment log so the client's frontier survives a restart.
    pub fn new(
        inner: Arc<dyn EventSink>,
        shards: usize,
        config: OverloadConfig,
        stats: OverloadStats,
        recorder: Option<FrontierRecorder>,
    ) -> Arc<Self> {
        let shards = (0..shards.max(1) as u32)
            .map(|shard| ShardQueue {
                queue: CoalescingQueue::new(shard, config.outbox_high_water),
                consecutive_overflows: 0,
                lagging: false,
                replay_pending: false,
                last_seqno: 0,
                last_acked: 0,
            })
            .collect();
        let shared = Arc::new(OutboxShared {
            state: OrderedMutex::new(
                ranks::OUTBOX_STATE,
                OutboxState {
                    shards,
                    next: 0,
                    shutdown: false,
                    dead: false,
                    in_flight: false,
                },
            ),
            work: OrderedCondvar::new(),
            idle: OrderedCondvar::new(),
            config,
            stats,
            recorder,
        });
        let sink = Arc::new(Self {
            inner: Arc::clone(&inner),
            shared: Arc::clone(&shared),
        });
        std::thread::Builder::new()
            .name("dlm-outbox".into())
            .spawn(move || writer_loop(&shared, &inner))
            .expect("spawn dlm-outbox");
        sink
    }

    /// The sink one DLM shard delivers this client's events through.
    ///
    /// # Panics
    ///
    /// If `shard` is not below the shard count the outbox was built for.
    pub fn shard(self: &Arc<Self>, shard: u32) -> Arc<dyn EventSink> {
        assert!(
            (shard as usize) < self.shared.state.lock().shards.len(),
            "outbox has no queue for shard {shard}"
        );
        Arc::new(ShardSink {
            outbox: Arc::clone(self),
            shard: shard as usize,
        })
    }

    /// Events currently queued across every shard.
    pub fn depth(&self) -> usize {
        let state = self.shared.state.lock();
        state.shards.iter().map(|q| q.queue.len()).sum()
    }

    /// Whether the client is demoted as lagging on any shard.
    pub fn is_lagging(&self) -> bool {
        self.shared.state.lock().shards.iter().any(|q| q.lagging)
    }

    /// Whether `shard`'s `ReplayNeeded` sweep is awaiting the client's
    /// replay request.
    pub fn is_replay_pending(&self, shard: u32) -> bool {
        self.shared.state.lock().shards[shard as usize].replay_pending
    }

    /// Shared delivery path for live (`seqno > 0` when logged) and
    /// control (`seqno == 0`) events.
    fn enqueue(&self, shard: usize, event: DlmEvent, seqno: u64) -> DbResult<()> {
        event.record_stage(displaydb_common::trace::Stage::OutboxEnqueue);
        let stats = &self.shared.stats;
        let mut state = self.shared.state.lock();
        if state.dead || state.shutdown {
            return Err(DbError::Disconnected);
        }
        stats.enqueued.inc();
        let q = &mut state.shards[shard];
        if q.replay_pending {
            // The backlog was swept to a ReplayNeeded marker and the
            // update log retains everything since: drop the event and
            // count it as coalesced into the pending marker. The seqno is
            // deliberately NOT acknowledged — the client learns it
            // through replay.
            stats.coalesced.inc();
            return Ok(());
        }
        match q.queue.push_seq(event, seqno) {
            Pushed::Queued => {}
            Pushed::Coalesced => stats.coalesced.inc(),
            Pushed::Cancelled => stats.cancelled_pairs.inc(),
            Pushed::Overflowed => {
                stats.overflows.inc();
                q.consecutive_overflows += 1;
                // The sweep left a ReplayNeeded marker; everything until
                // the client replays is covered by the log. Swept seqnos
                // reach the client only via the replay, and the ack
                // frontier never claimed them: it only advances through
                // `advance_frontier`, after a whole commit is enqueued,
                // and replay-pending blocks even that until the client's
                // replay request restores the queue.
                q.replay_pending = true;
                if !q.lagging
                    && q.consecutive_overflows >= self.shared.config.lagging_after_overflows
                {
                    q.lagging = true;
                    stats.lagging_transitions.inc();
                    // Queued after the marker: the client recovers, then
                    // learns it is lagging.
                    q.queue.push(DlmEvent::Lagging);
                }
            }
        }
        // Shared gauge: the high-water side is a monotonic max across
        // all queues, which is the quantity the experiments report.
        stats.queue_depth.set(q.queue.len() as u64);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Replay catch-up: push without the overflow sweep. The burst is
    /// bounded by the watched set (per-OID coalescing), and sweeping it
    /// back to a marker would loop the client forever.
    fn enqueue_replayed(&self, shard: usize, event: DlmEvent, seqno: u64) -> DbResult<()> {
        event.record_stage(displaydb_common::trace::Stage::OutboxEnqueue);
        let stats = &self.shared.stats;
        let mut state = self.shared.state.lock();
        if state.dead || state.shutdown {
            return Err(DbError::Disconnected);
        }
        // The frontier advance for replayed seqnos comes from
        // `mark_current_through(head)` at the end of the replay, never
        // per event — a drain racing with the burst must not ack a seqno
        // whose remaining events are still being replayed.
        stats.enqueued.inc();
        match state.shards[shard].queue.push_unbounded(event, seqno) {
            Pushed::Queued | Pushed::Overflowed => {}
            Pushed::Coalesced => stats.coalesced.inc(),
            Pushed::Cancelled => stats.cancelled_pairs.inc(),
        }
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    fn replay_restore(&self, shard: usize) {
        let mut state = self.shared.state.lock();
        let q = &mut state.shards[shard];
        q.replay_pending = false;
        q.lagging = false;
        q.consecutive_overflows = 0;
        // The storm's high-water mark describes the overload, not the
        // recovered client: reset it so post-recovery gauges start clean.
        self.shared.stats.queue_depth.reset_high_water();
        drop(state);
        self.shared.work.notify_one();
    }

    /// Advance `shard`'s ack frontier to `seqno` (monotone max) and wake
    /// the writer so it can acknowledge even with an empty queue.
    /// `respect_sweep` leaves the frontier alone while a sweep awaits the
    /// client's replay.
    fn advance(&self, shard: usize, seqno: u64, respect_sweep: bool) {
        let mut state = self.shared.state.lock();
        if state.dead || state.shutdown {
            return;
        }
        let q = &mut state.shards[shard];
        if respect_sweep && q.replay_pending {
            return;
        }
        q.last_seqno = q.last_seqno.max(seqno);
        drop(state);
        self.shared.work.notify_one();
    }

    /// Block until every queue is flushed to the inner sink or `timeout`
    /// elapses; returns whether it flushed. Used by server shutdown to
    /// give healthy clients their tail notifications without letting a
    /// stalled one wedge the process.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            let flushed = !state.queued() && !state.in_flight;
            if flushed || state.dead {
                return flushed;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if self
                .shared
                .idle
                .wait_for(&mut state, deadline - now)
                .timed_out()
            {
                return !state.queued() && !state.in_flight;
            }
        }
    }

    /// Stop the writer and release the inner sink. Does not join the
    /// writer: it may be blocked inside a stalled send, and closing must
    /// not inherit that stall.
    pub fn close(&self) {
        let mut state = self.shared.state.lock();
        state.shutdown = true;
        drop(state);
        self.shared.work.notify_one();
        self.shared.idle.notify_all();
        self.inner.close();
    }
}

impl Drop for OutboxSink {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for OutboxSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock();
        f.debug_struct("OutboxSink")
            .field("shards", &state.shards.len())
            .field("dead", &state.dead)
            .finish()
    }
}

/// The [`EventSink`] one shard delivers through: every call lands on
/// that shard's queue of the shared outbox.
struct ShardSink {
    outbox: Arc<OutboxSink>,
    shard: usize,
}

impl EventSink for ShardSink {
    fn deliver(&self, event: DlmEvent) -> DbResult<()> {
        self.outbox.enqueue(self.shard, event, 0)
    }

    fn deliver_logged(&self, event: DlmEvent, seqno: u64) -> DbResult<()> {
        self.outbox.enqueue(self.shard, event, seqno)
    }

    fn deliver_replayed(&self, event: DlmEvent, seqno: u64) -> DbResult<()> {
        self.outbox.enqueue_replayed(self.shard, event, seqno)
    }

    fn replay_restore(&self) {
        self.outbox.replay_restore(self.shard);
    }

    fn mark_current_through(&self, seqno: u64) {
        self.outbox.advance(self.shard, seqno, false);
    }

    fn advance_frontier(&self, seqno: u64) {
        // Part of this commit may have been swept mid-fan-out: the
        // client only gets it back through replay, so the frontier stays
        // put until `replay_restore` + `mark_current_through`.
        self.outbox.advance(self.shard, seqno, true);
    }

    fn close(&self) {
        self.outbox.close();
    }
}

fn writer_loop(shared: &Arc<OutboxShared>, inner: &Arc<dyn EventSink>) {
    let batch_max = shared.config.outbox_batch_max.max(1);
    loop {
        let (event, acks) = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    shared.idle.notify_all();
                    return;
                }
                // Drain everything pending (up to the batch cap) in one
                // wake: a consumer that fell behind receives its backlog,
                // across all shards, as a single wire frame instead of
                // one frame per event.
                let (mut events, acks) = state.take_frame(batch_max);
                if events.is_empty() {
                    shared.work.wait(&mut state);
                    continue;
                }
                state.in_flight = true;
                shared.stats.queue_depth.set(state.deepest());
                let event = if events.len() == 1 {
                    events.pop().expect("one event")
                } else {
                    shared.stats.batches_sent.inc();
                    DlmEvent::Batch(events)
                };
                break (event, acks);
            }
        };
        // The only potentially-blocking calls, outside every lock.
        event.record_stage(displaydb_common::trace::Stage::OutboxDrain);
        let delivered = inner.deliver(event).is_ok();
        if delivered {
            // The acks are on the wire: make the frontiers durable.
            // After a failed delivery the client is dead and its next
            // session replays from the previously recorded cursor —
            // strictly more data, never less.
            if let Some(rec) = shared.recorder.as_ref() {
                for (shard, cursor) in acks {
                    rec(shard, cursor);
                }
            }
        }
        let mut state = shared.state.lock();
        state.in_flight = false;
        if !delivered {
            state.dead = true;
            shared.idle.notify_all();
            return;
        }
        if !state.queued() {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::UpdateInfo;
    use crossbeam::channel::unbounded;
    use displaydb_common::{DbError, TxnId};
    use parking_lot::{Condvar, Mutex};

    fn o(i: u64) -> Oid {
        Oid::new(i)
    }

    fn upd(i: u64, payload: u8) -> DlmEvent {
        DlmEvent::Updated(UpdateInfo::eager(o(i), vec![payload]))
    }

    fn delta(i: u64, version: u32, changed: &[(u16, u8)]) -> DlmEvent {
        DlmEvent::Delta {
            oid: o(i),
            version,
            changed: changed.iter().map(|&(a, v)| (a, vec![v])).collect(),
            trace: 0,
        }
    }

    /// Undo writer-side batching: receivers see what a client would after
    /// flattening.
    fn flatten(events: impl IntoIterator<Item = DlmEvent>) -> Vec<DlmEvent> {
        let mut out = Vec::new();
        for e in events {
            match e {
                DlmEvent::Batch(inner) => out.extend(inner),
                e => out.push(e),
            }
        }
        out
    }

    #[test]
    fn updated_coalesces_latest_wins_in_place() {
        let mut q = CoalescingQueue::new(0, 16);
        assert_eq!(q.push(upd(1, 1)), Pushed::Queued);
        assert_eq!(q.push(upd(2, 1)), Pushed::Queued);
        assert_eq!(q.push(upd(1, 9)), Pushed::Coalesced);
        assert_eq!(q.len(), 2);
        // Position preserved: oid 1 still drains first, with the newest
        // payload.
        assert_eq!(q.pop(), Some(upd(1, 9)));
        assert_eq!(q.pop(), Some(upd(2, 1)));
    }

    #[test]
    fn resolved_cancels_queued_marked() {
        let mut q = CoalescingQueue::new(0, 16);
        let txn = TxnId::new(5);
        q.push(DlmEvent::Marked { oid: o(1), txn });
        q.push(upd(2, 1));
        assert_eq!(
            q.push(DlmEvent::Resolved {
                oid: o(1),
                txn,
                committed: false
            }),
            Pushed::Cancelled
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(upd(2, 1)));
    }

    #[test]
    fn resolved_without_queued_marked_queues() {
        let mut q = CoalescingQueue::new(0, 16);
        let txn = TxnId::new(5);
        // The Marked already drained: Resolved must still go out.
        assert_eq!(
            q.push(DlmEvent::Resolved {
                oid: o(1),
                txn,
                committed: true
            }),
            Pushed::Queued
        );
        // A different txn's mark is not cancelled by this txn.
        q.push(DlmEvent::Marked {
            oid: o(1),
            txn: TxnId::new(6),
        });
        assert_eq!(
            q.push(DlmEvent::Resolved {
                oid: o(1),
                txn: TxnId::new(7),
                committed: true
            }),
            Pushed::Queued
        );
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn updates_fold_into_pending_resync_marker() {
        let mut q = CoalescingQueue::new(0, 4);
        q.push(DlmEvent::ResyncRequired {
            oids: (0..5).map(o).collect(),
        });
        // An update for a covered OID disappears into the marker, a new
        // OID queues normally behind it.
        assert_eq!(q.push(upd(2, 7)), Pushed::Coalesced);
        assert_eq!(q.push(upd(42, 7)), Pushed::Queued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn delta_merge_unions_changed_attrs_latest_value_wins() {
        let mut q = CoalescingQueue::new(0, 16);
        assert_eq!(q.push(delta(1, 1, &[(0, 1), (2, 5)])), Pushed::Queued);
        assert_eq!(q.push(delta(2, 1, &[(0, 3)])), Pushed::Queued);
        // Same OID + version: union of attrs, newest value per attr,
        // position preserved (oid 1 still drains first).
        assert_eq!(q.push(delta(1, 1, &[(2, 9), (3, 4)])), Pushed::Coalesced);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(delta(1, 1, &[(0, 1), (2, 9), (3, 4)])));
        assert_eq!(q.pop(), Some(delta(2, 1, &[(0, 3)])));
    }

    #[test]
    fn delta_with_different_version_queues_separately() {
        let mut q = CoalescingQueue::new(0, 16);
        q.push(delta(1, 1, &[(0, 1)]));
        // A version bump means the attribute indices refer to a different
        // registration; merging across versions could fabricate a delta
        // neither registration produced.
        assert_eq!(q.push(delta(1, 2, &[(0, 2)])), Pushed::Queued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn delta_folds_into_pending_resync_marker() {
        let mut q = CoalescingQueue::new(0, 16);
        q.push(DlmEvent::ResyncRequired { oids: vec![o(1)] });
        assert_eq!(q.push(delta(1, 1, &[(0, 1)])), Pushed::Coalesced);
        assert_eq!(q.push(delta(2, 1, &[(0, 1)])), Pushed::Queued);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn resync_markers_merge() {
        let mut q = CoalescingQueue::new(0, 16);
        q.push(DlmEvent::ResyncRequired {
            oids: vec![o(1), o(2)],
        });
        assert_eq!(
            q.push(DlmEvent::ResyncRequired {
                oids: vec![o(2), o(3)]
            }),
            Pushed::Coalesced
        );
        assert_eq!(
            q.pop(),
            Some(DlmEvent::ResyncRequired {
                oids: vec![o(1), o(2), o(3)]
            })
        );
    }

    fn collecting_sink() -> (Arc<dyn EventSink>, crossbeam::channel::Receiver<DlmEvent>) {
        let (tx, rx) = unbounded();
        let f = move |e: DlmEvent| tx.send(e).map_err(|_| DbError::Disconnected);
        (Arc::new(f), rx)
    }

    fn quick_config(high_water: usize, lagging_after: u32) -> OverloadConfig {
        OverloadConfig {
            outbox_high_water: high_water,
            lagging_after_overflows: lagging_after,
            ..OverloadConfig::default()
        }
    }

    /// A one-shard outbox and the sink its shard delivers through.
    fn single(
        inner: Arc<dyn EventSink>,
        config: OverloadConfig,
        stats: OverloadStats,
    ) -> (Arc<OutboxSink>, Arc<dyn EventSink>) {
        let outbox = OutboxSink::new(inner, 1, config, stats, None);
        let sink = outbox.shard(0);
        (outbox, sink)
    }

    /// An inner sink that blocks every delivery until the gate opens.
    type Gate = Arc<(Mutex<bool>, Condvar)>;

    fn gated_sink() -> (
        Arc<dyn EventSink>,
        Gate,
        crossbeam::channel::Receiver<DlmEvent>,
    ) {
        let gate: Gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, rx) = unbounded();
        let inner: Arc<dyn EventSink> = {
            let gate = Arc::clone(&gate);
            Arc::new(move |e: DlmEvent| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                tx.send(e).map_err(|_| DbError::Disconnected)
            })
        };
        (inner, gate, rx)
    }

    fn open(gate: &Gate) {
        let (lock, cv) = &**gate;
        *lock.lock() = true;
        cv.notify_all();
    }

    #[test]
    fn outbox_delivers_in_order() {
        let (inner, rx) = collecting_sink();
        let (outbox, sink) = single(inner, quick_config(64, 3), OverloadStats::new());
        for i in 0..10 {
            sink.deliver(upd(i, i as u8)).unwrap();
        }
        assert!(outbox.drain(Duration::from_secs(5)));
        let got = flatten(rx.try_iter());
        assert_eq!(got.len(), 10);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(*e, upd(i as u64, i as u8));
        }
    }

    #[test]
    fn stalled_consumer_overflows_then_demotes_to_lagging() {
        // The writer wedges on the first event, everything else queues.
        let (inner, gate, rx) = gated_sink();
        let stats = OverloadStats::new();
        let (outbox, sink) = single(inner, quick_config(8, 1), stats.clone());

        // Storm: far more updates than the high-water mark.
        for round in 0..4u64 {
            for i in 0..40u64 {
                sink.deliver_logged(upd(i, round as u8), round * 40 + i + 1)
                    .expect("deliver must not block or fail");
            }
        }
        assert_eq!(stats.overflows.get(), 1, "one sweep per replay episode");
        assert!(outbox.is_lagging(), "an overflow past the limit demotes");
        assert_eq!(stats.lagging_transitions.get(), 1);
        // Memory bound: depth never exceeds high-water + the marker.
        assert!(
            stats.queue_depth.high_water() <= 8 + 1,
            "depth {} breached the bound",
            stats.queue_depth.high_water()
        );

        // Release the consumer: it gets the first event (pre-stall), one
        // replay marker, then Lagging. The demotion lasts until the
        // client replays.
        open(&gate);
        assert!(outbox.drain(Duration::from_secs(5)), "must drain");
        let got = flatten(rx.try_iter());
        assert!(got.iter().any(|e| matches!(e, DlmEvent::Lagging)));
        let markers = got
            .iter()
            .filter(|e| matches!(e, DlmEvent::ReplayNeeded { shard: 0, .. }))
            .count();
        assert_eq!(markers, 1);
        assert!(outbox.is_lagging());
        sink.replay_restore();
        assert!(!outbox.is_lagging(), "replay clears lagging mode");
    }

    #[test]
    fn close_stops_writer_without_flushing_stalled_queue() {
        // Inner sink blocks forever: close must still return promptly.
        let (release_tx, release_rx) = unbounded::<()>();
        let inner: Arc<dyn EventSink> = Arc::new(move |_e: DlmEvent| {
            let _ = release_rx.recv(); // blocks until test end
            Ok(())
        });
        let (outbox, sink) = single(inner, quick_config(8, 2), OverloadStats::new());
        sink.deliver(upd(1, 1)).unwrap();
        sink.deliver(upd(2, 2)).unwrap();
        let started = Instant::now();
        outbox.close();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "close must not wait on the stalled writer"
        );
        assert!(sink.deliver(upd(3, 3)).is_err(), "closed outbox refuses");
        drop(release_tx);
    }

    #[test]
    fn writer_drains_backlog_as_one_batch_frame() {
        // The writer wedges on the first event; the next four queue and
        // must go out together as a single Batch when the gate opens.
        let (inner, gate, rx) = gated_sink();
        let stats = OverloadStats::new();
        let (outbox, sink) = single(inner, quick_config(64, 3), stats.clone());
        sink.deliver(upd(0, 0)).unwrap();
        // Wait until the writer has taken the first event off the queue.
        let deadline = Instant::now() + Duration::from_secs(5);
        while outbox.depth() != 0 {
            assert!(Instant::now() < deadline, "writer never picked up");
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 1..5u64 {
            sink.deliver(upd(i, i as u8)).unwrap();
        }
        open(&gate);
        assert!(outbox.drain(Duration::from_secs(5)));
        let frames: Vec<DlmEvent> = rx.try_iter().collect();
        assert_eq!(frames.len(), 2, "one stalled single + one batch frame");
        assert_eq!(frames[0], upd(0, 0));
        match &frames[1] {
            DlmEvent::Batch(events) => {
                assert_eq!(
                    events,
                    &(1..5u64).map(|i| upd(i, i as u8)).collect::<Vec<_>>()
                );
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(stats.batches_sent.get(), 1);
    }

    #[test]
    fn one_writer_round_robins_shards_into_one_frame() {
        // Two shards' backlogs queue behind a wedged writer and leave in
        // one frame: events interleaved shard by shard, each shard's ack
        // after all of its events.
        let (inner, gate, rx) = gated_sink();
        let outbox = OutboxSink::new(inner, 2, quick_config(64, 3), OverloadStats::new(), None);
        let (s0, s1) = (outbox.shard(0), outbox.shard(1));
        s0.deliver(upd(100, 0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while outbox.depth() != 0 {
            assert!(Instant::now() < deadline, "writer never picked up");
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 1..=3u64 {
            s0.deliver_logged(upd(i, 0), i).unwrap();
            s0.advance_frontier(i);
            s1.deliver_logged(upd(10 + i, 1), i).unwrap();
            s1.advance_frontier(i);
        }
        open(&gate);
        assert!(outbox.drain(Duration::from_secs(5)));
        let frames: Vec<DlmEvent> = rx.try_iter().collect();
        assert_eq!(frames.len(), 2, "one stalled single + one merged frame");
        let DlmEvent::Batch(events) = &frames[1] else {
            panic!("expected batch, got {:?}", frames[1]);
        };
        assert_eq!(events.len(), 8, "{events:?}");
        let shard_of = |e: &DlmEvent| match e {
            DlmEvent::Updated(u) if u.oid.raw() >= 10 => 1,
            _ => 0,
        };
        for pair in events[..6].windows(2) {
            assert_ne!(shard_of(&pair[0]), shard_of(&pair[1]), "not round-robin");
        }
        let of = |shard| -> Vec<&DlmEvent> {
            events[..6]
                .iter()
                .filter(|e| shard_of(e) == shard)
                .collect()
        };
        assert_eq!(of(0), vec![&upd(1, 0), &upd(2, 0), &upd(3, 0)]);
        assert_eq!(of(1), vec![&upd(11, 1), &upd(12, 1), &upd(13, 1)]);
        assert_eq!(
            events[6..],
            [
                DlmEvent::CursorAck { shard: 0, seqno: 3 },
                DlmEvent::CursorAck { shard: 1, seqno: 3 },
            ]
        );
    }

    #[test]
    fn overflow_is_scoped_to_one_shard() {
        let (inner, gate, rx) = gated_sink();
        let outbox = OutboxSink::new(inner, 2, quick_config(4, 99), OverloadStats::new(), None);
        let (s0, s1) = (outbox.shard(0), outbox.shard(1));
        for i in 1..=12u64 {
            s1.deliver_logged(upd(i, 1), i).unwrap();
        }
        assert!(outbox.is_replay_pending(1));
        assert!(!outbox.is_replay_pending(0));
        s0.deliver_logged(upd(50, 0), 1).unwrap();
        s0.advance_frontier(1);
        open(&gate);
        assert!(outbox.drain(Duration::from_secs(5)));
        let got = flatten(rx.try_iter());
        assert!(got.contains(&upd(50, 0)), "shard 0 keeps delivering");
        assert!(got.contains(&DlmEvent::CursorAck { shard: 0, seqno: 1 }));
        let markers: Vec<&DlmEvent> = got
            .iter()
            .filter(|e| matches!(e, DlmEvent::ReplayNeeded { .. }))
            .collect();
        assert_eq!(markers.len(), 1);
        assert!(matches!(
            markers[0],
            DlmEvent::ReplayNeeded { shard: 1, .. }
        ));
        assert!(
            !got.iter()
                .any(|e| matches!(e, DlmEvent::CursorAck { shard: 1, .. })),
            "a swept shard is not acknowledged before its replay"
        );
    }

    #[test]
    fn seqno_coalescing_older_replay_never_clobbers_newer_live() {
        let mut q = CoalescingQueue::new(0, 16);
        // A live event at seqno 10 is queued; a replayed event at seqno 3
        // arrives late (replay raced a live commit) — the newer payload
        // must survive.
        assert_eq!(q.push_seq(upd(1, 9), 10), Pushed::Queued);
        assert_eq!(q.push_unbounded(upd(1, 1), 3), Pushed::Coalesced);
        assert_eq!(q.pop(), Some(upd(1, 9)));

        // Deltas: the older replayed delta only contributes attributes
        // the newer queued one does not already carry.
        assert_eq!(q.push_seq(delta(2, 1, &[(0, 5)]), 10), Pushed::Queued);
        assert_eq!(
            q.push_unbounded(delta(2, 1, &[(0, 1), (2, 7)]), 3),
            Pushed::Coalesced
        );
        assert_eq!(q.pop(), Some(delta(2, 1, &[(0, 5), (2, 7)])));
    }

    #[test]
    fn overflow_sweeps_to_single_replay_needed() {
        let mut q = CoalescingQueue::new(3, 4);
        for i in 0..4u64 {
            q.push_seq(upd(i, 0), i + 1);
        }
        assert_eq!(q.push_seq(upd(99, 0), 5), Pushed::Overflowed);
        assert_eq!(q.len(), 1);
        match q.pop().unwrap() {
            DlmEvent::ReplayNeeded { shard, from } => assert_eq!((shard, from), (3, 5)),
            other => panic!("expected replay marker, got {other:?}"),
        }
        // A second overflow sweeps again, naming the highest swept seqno.
        for i in 0..5u64 {
            q.push_seq(upd(i, 0), i + 6);
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(DlmEvent::ReplayNeeded { shard: 3, from: 10 }));
    }

    #[test]
    fn replay_pending_drops_live_events_until_restore() {
        // Writer wedged: the storm overflows, sweeps to ReplayNeeded, and
        // every further live delivery is dropped (the log covers it).
        let (inner, gate, rx) = gated_sink();
        let stats = OverloadStats::new();
        let (outbox, sink) = single(inner, quick_config(4, 99), stats.clone());
        for i in 0..12u64 {
            sink.deliver_logged(upd(i, 0), i + 1).unwrap();
        }
        assert!(stats.overflows.get() >= 1, "storm must overflow");
        assert!(outbox.is_replay_pending(0));
        let depth_before = outbox.depth();
        sink.deliver_logged(upd(50, 0), 100).unwrap();
        assert_eq!(
            outbox.depth(),
            depth_before,
            "live events while replay-pending must be dropped, not queued"
        );

        // The client replays: restore, then the replayed suffix arrives.
        sink.replay_restore();
        assert!(!outbox.is_replay_pending(0));
        for i in 0..12u64 {
            sink.deliver_replayed(upd(i, 0), i + 1).unwrap();
        }
        sink.mark_current_through(100);
        open(&gate);
        assert!(outbox.drain(Duration::from_secs(5)));
        let got = flatten(rx.try_iter());
        let replays = got
            .iter()
            .filter(|e| matches!(e, DlmEvent::ReplayNeeded { .. }))
            .count();
        assert_eq!(replays, 1, "exactly one replay marker per sweep episode");
        assert!(
            !got.iter()
                .any(|e| matches!(e, DlmEvent::ResyncRequired { .. })),
            "an overflow must never fall back to resync markers"
        );
        // The final cursor ack covers the marked-current frontier.
        match got.last() {
            Some(DlmEvent::CursorAck { shard, seqno }) => assert_eq!((*shard, *seqno), (0, 100)),
            other => panic!("expected trailing cursor ack, got {other:?}"),
        }
    }

    #[test]
    fn cursor_ack_rides_drain_to_empty_and_is_not_repeated() {
        let (inner, rx) = collecting_sink();
        let (outbox, sink) = single(inner, quick_config(64, 3), OverloadStats::new());
        sink.deliver_logged(upd(1, 1), 7).unwrap();
        sink.advance_frontier(7);
        assert!(outbox.drain(Duration::from_secs(5)));
        // The ack is synthesized by the writer when the queue drains; it
        // may ride the same frame or a follow-up one.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        loop {
            got = flatten(got.into_iter().chain(rx.try_iter()));
            if got
                .iter()
                .any(|e| matches!(e, DlmEvent::CursorAck { shard: 0, seqno: 7 }))
            {
                break;
            }
            assert!(Instant::now() < deadline, "ack never arrived: {got:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(got[0], upd(1, 1));
        // No further acks without new seqnos.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.try_iter().count(), 0, "spurious repeat ack");
        // A control event (seqno 0) does not move the cursor: no new ack.
        sink.deliver(DlmEvent::Ready { incarnation: 0 }).unwrap();
        assert!(outbox.drain(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(50));
        let tail = flatten(rx.try_iter());
        assert!(
            !tail.iter().any(|e| matches!(e, DlmEvent::CursorAck { .. })),
            "control events must not be acknowledged: {tail:?}"
        );
    }

    #[test]
    fn swept_seqnos_are_not_acked_before_replay_returns_them() {
        // Overflow sweeps seqnos 1..=12 into a ReplayNeeded marker. The
        // writer must NOT acknowledge those seqnos when the marker
        // drains — the client has not seen them; only the replay (and
        // its mark_current_through) may advance the ack frontier.
        let (inner, rx) = collecting_sink();
        let (outbox, sink) = single(inner, quick_config(4, 99), OverloadStats::new());
        // Deliver under the state lock faster than the writer can drain
        // is racy from a test; force the sweep deterministically by a
        // burst far over high-water. Each push is its own "commit":
        // frontier advanced right after, as notify_committed does.
        for i in 0..64u64 {
            sink.deliver_logged(upd(i, 0), i + 1).unwrap();
            sink.advance_frontier(i + 1);
        }
        assert!(outbox.drain(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(50));
        let got = flatten(rx.try_iter());
        if got
            .iter()
            .any(|e| matches!(e, DlmEvent::ReplayNeeded { .. }))
        {
            for e in &got {
                if let DlmEvent::CursorAck { seqno, .. } = e {
                    // Only seqnos actually delivered ahead of the ack in
                    // the stream may be acknowledged.
                    let delivered: Vec<u64> = got
                        .iter()
                        .filter_map(|e| match e {
                            DlmEvent::Updated(info) => Some(info.oid.raw() + 1),
                            _ => None,
                        })
                        .collect();
                    assert!(
                        delivered.iter().any(|&s| s >= *seqno),
                        "ack {seqno} claims undelivered (swept) seqnos: {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_restore_resets_high_water_gauge() {
        let (inner, gate, _rx) = gated_sink();
        let stats = OverloadStats::new();
        let (_outbox, sink) = single(inner, quick_config(4, 99), stats.clone());
        for i in 0..12u64 {
            sink.deliver_logged(upd(i, 0), i + 1).unwrap();
        }
        assert!(stats.queue_depth.high_water() > 1);
        sink.replay_restore();
        assert!(
            stats.queue_depth.high_water() <= 1,
            "restore must reset the high-water mark"
        );
        open(&gate);
    }

    #[test]
    fn dead_inner_sink_kills_outbox() {
        let (inner, rx) = collecting_sink();
        drop(rx);
        let (_outbox, sink) = single(inner, quick_config(8, 2), OverloadStats::new());
        sink.deliver(upd(1, 1)).unwrap();
        // The writer hits the dead sink and marks the outbox dead;
        // subsequent delivers fail so the DLM counts the client dead.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if sink.deliver(upd(2, 2)).is_err() {
                break;
            }
            assert!(Instant::now() < deadline, "outbox never died");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::proto::UpdateInfo;
    use displaydb_common::TxnId;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum In {
        Updated { oid: u64, version: u8 },
        Marked { oid: u64, txn: u64 },
        Resolved { oid: u64, txn: u64 },
        Delta { oid: u64, attr: u16, value: u8 },
    }

    fn arb_in() -> impl Strategy<Value = In> {
        let oid = 0u64..8;
        let txn = 0u64..4;
        prop_oneof![
            (oid.clone(), any::<u8>()).prop_map(|(oid, version)| In::Updated { oid, version }),
            (oid.clone(), txn.clone()).prop_map(|(oid, txn)| In::Marked { oid, txn }),
            (oid.clone(), txn).prop_map(|(oid, txn)| In::Resolved { oid, txn }),
            (oid, 0u16..4, any::<u8>()).prop_map(|(oid, attr, value)| In::Delta {
                oid,
                attr,
                value
            }),
        ]
    }

    fn to_event(i: &In) -> DlmEvent {
        match *i {
            In::Updated { oid, version } => {
                DlmEvent::Updated(UpdateInfo::eager(Oid::new(oid), vec![version]))
            }
            In::Marked { oid, txn } => DlmEvent::Marked {
                oid: Oid::new(oid),
                txn: TxnId::new(txn),
            },
            In::Resolved { oid, txn } => DlmEvent::Resolved {
                oid: Oid::new(oid),
                txn: TxnId::new(txn),
                committed: true,
            },
            In::Delta { oid, attr, value } => DlmEvent::Delta {
                oid: Oid::new(oid),
                version: 1,
                changed: vec![(attr, vec![value])],
                trace: 0,
            },
        }
    }

    proptest! {
        /// Without overflow, coalescing must (a) keep the *latest*
        /// payload for every OID that still has an Updated queued,
        /// (b) never emit a Resolved before its own Marked, and
        /// (c) only ever shrink the mark/resolve traffic by cancelling
        /// complete pairs.
        #[test]
        fn prop_coalescing_latest_wins_no_reorder(inputs in proptest::collection::vec(arb_in(), 1..120)) {
            // High-water above the input length: pure coalescing, no sweeps.
            let mut q = CoalescingQueue::new(0, 1024);
            for i in &inputs {
                q.push(to_event(i));
            }
            let mut drained = Vec::new();
            while let Some(e) = q.pop() {
                drained.push(e);
            }

            // (a) latest payload wins per OID.
            let mut last_payload: std::collections::HashMap<u64, u8> = Default::default();
            for i in &inputs {
                if let In::Updated { oid, version } = i {
                    last_payload.insert(*oid, *version);
                }
            }
            let mut seen_updated: std::collections::HashSet<u64> = Default::default();
            for e in &drained {
                if let DlmEvent::Updated(info) = e {
                    prop_assert!(seen_updated.insert(info.oid.raw()),
                        "two Updated for oid {} survived coalescing", info.oid.raw());
                    prop_assert_eq!(info.payload.as_deref(), Some(&[last_payload[&info.oid.raw()]][..]),
                        "stale payload survived for oid {}", info.oid.raw());
                }
            }

            // (a') deltas merge per OID: at most one Delta survives per
            // OID (same version throughout), carrying the union of the
            // changed attrs with the latest value for each.
            let mut last_attr_value: std::collections::HashMap<(u64, u16), u8> = Default::default();
            for i in &inputs {
                if let In::Delta { oid, attr, value } = i {
                    last_attr_value.insert((*oid, *attr), *value);
                }
            }
            let mut seen_delta: std::collections::HashSet<u64> = Default::default();
            let mut delta_attrs_out: std::collections::HashSet<(u64, u16)> = Default::default();
            for e in &drained {
                if let DlmEvent::Delta { oid, changed, .. } = e {
                    prop_assert!(seen_delta.insert(oid.raw()),
                        "two Deltas for oid {} survived merging", oid.raw());
                    for (attr, value) in changed {
                        delta_attrs_out.insert((oid.raw(), *attr));
                        prop_assert_eq!(value.as_slice(), &[last_attr_value[&(oid.raw(), *attr)]][..],
                            "stale delta value survived for oid {} attr {}", oid.raw(), attr);
                    }
                }
            }
            // Union: every attr ever mentioned for an OID survives.
            for &(oid, attr) in last_attr_value.keys() {
                prop_assert!(delta_attrs_out.contains(&(oid, attr)),
                    "delta attr {attr} for oid {oid} lost in the merge");
            }

            // (b) for each (oid, txn): counting Marked as +1 and
            // Resolved as -1, the running sum in the drained order never
            // goes more negative than in the input order — a Resolved
            // never jumped ahead of its Marked.
            let floor = |seq: &[(u64, u64, i32)], oid: u64, txn: u64| -> i32 {
                let mut run = 0;
                let mut min = 0;
                for &(o, t, d) in seq {
                    if o == oid && t == txn {
                        run += d;
                        min = min.min(run);
                    }
                }
                min
            };
            let project = |events: &[DlmEvent]| -> Vec<(u64, u64, i32)> {
                events.iter().filter_map(|e| match e {
                    DlmEvent::Marked { oid, txn } => Some((oid.raw(), txn.raw(), 1)),
                    DlmEvent::Resolved { oid, txn, .. } => Some((oid.raw(), txn.raw(), -1)),
                    _ => None,
                }).collect()
            };
            let in_seq = project(&inputs.iter().map(to_event).collect::<Vec<_>>());
            let out_seq = project(&drained);
            for oid in 0u64..8 {
                for txn in 0u64..4 {
                    prop_assert!(floor(&out_seq, oid, txn) >= floor(&in_seq, oid, txn),
                        "Resolved reordered ahead of Marked for oid {oid} txn {txn}");
                }
            }

            // (c) cancellation removes whole pairs: the mark/resolve
            // delta per (oid, txn) is unchanged.
            let total = |seq: &[(u64, u64, i32)], oid: u64, txn: u64| -> i32 {
                seq.iter().filter(|&&(o, t, _)| o == oid && t == txn).map(|&(_, _, d)| d).sum()
            };
            for oid in 0u64..8 {
                for txn in 0u64..4 {
                    prop_assert_eq!(total(&out_seq, oid, txn), total(&in_seq, oid, txn),
                        "unbalanced cancellation for oid {} txn {}", oid, txn);
                }
            }
        }

        /// With a small high-water mark, memory stays bounded and no
        /// state change is silently lost: every OID's last change is
        /// either drained as an event after it was pushed, or a
        /// `ReplayNeeded` marker drained after it sends the client to
        /// the update log.
        #[test]
        fn prop_overflow_loses_nothing(inputs in proptest::collection::vec(arb_in(), 1..200)) {
            let mut q = CoalescingQueue::new(0, 8);
            // (pushes seen when drained, event)
            let mut drained: Vec<(usize, DlmEvent)> = Vec::new();
            let mut last_push: std::collections::HashMap<u64, usize> = Default::default();
            for (n, i) in inputs.iter().enumerate() {
                q.push(to_event(i));
                if let In::Updated { oid, .. } | In::Delta { oid, .. } = i {
                    last_push.insert(*oid, n + 1);
                }
                prop_assert!(q.len() <= 9, "queue depth {} breached the bound", q.len());
                // Drain opportunistically every few pushes to mimic a
                // consumer that is slow, not dead.
                if n % 3 == 0 {
                    if let Some(e) = q.pop() {
                        drained.push((n + 1, e));
                    }
                }
            }
            while let Some(e) = q.pop() {
                drained.push((inputs.len(), e));
            }
            for (&oid, &pushed) in &last_push {
                let covered = drained.iter().any(|(at, e)| {
                    *at >= pushed
                        && match e {
                            DlmEvent::Updated(info) => info.oid.raw() == oid,
                            DlmEvent::Delta { oid: o, .. } => o.raw() == oid,
                            DlmEvent::ReplayNeeded { .. } => true,
                            _ => false,
                        }
                });
                prop_assert!(covered, "state change to oid {oid} lost");
            }
        }
    }
}
