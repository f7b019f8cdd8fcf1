//! One outbox writer per client session, and per-shard overflow.
//!
//! Kept in a test binary of its own: it counts the process's
//! `dlm-outbox` threads, and tests running in parallel in the same
//! binary would add writers of their own.
//!
//! On a 4-shard server every session gets one outbox with four queues
//! and a single writer thread. Overflowing one shard's queue sweeps only
//! that queue into a `ReplayNeeded{shard}` marker: the other shards keep
//! delivering, and the client converges by replaying the one shard.

use bytes::Bytes;
use displaydb::nms::nms_catalog;
use displaydb::prelude::*;
use displaydb::server::proto::{Envelope, ServerPush};
use displaydb::wire::{Channel, Decode};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const HIGH_WATER: usize = 8;

/// Records every DLM event the wrapped client channel receives (batches
/// flattened) before handing the frame on unchanged.
struct Tap {
    inner: Box<dyn Channel>,
    seen: Arc<Mutex<Vec<DlmEvent>>>,
}

impl Tap {
    fn record(&self, frame: &Bytes) {
        if let Ok(Envelope::Push(ServerPush::Dlm(event))) = Envelope::decode_from_bytes(frame) {
            let mut seen = self.seen.lock().unwrap();
            match event {
                DlmEvent::Batch(events) => seen.extend(events),
                event => seen.push(event),
            }
        }
    }
}

impl Channel for Tap {
    fn send(&self, payload: Bytes) -> DbResult<()> {
        self.inner.send(payload)
    }
    fn recv(&self) -> DbResult<Bytes> {
        let frame = self.inner.recv()?;
        self.record(&frame);
        Ok(frame)
    }
    fn recv_timeout(&self, timeout: Duration) -> DbResult<Bytes> {
        let frame = self.inner.recv_timeout(timeout)?;
        self.record(&frame);
        Ok(frame)
    }
    fn close(&self) {
        self.inner.close();
    }
}

/// Threads of this process named `name` (Linux: `/proc/self/task`).
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

fn await_value(display: &Display, id: DoId, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        display
            .wait_and_process(Duration::from_millis(100))
            .unwrap();
        if display.object(id).unwrap().attr("Utilization") == Some(&Value::Float(want)) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "display never reached {want}: {:?}",
            display.object(id).unwrap().attrs
        );
    }
}

fn watch(client: &Arc<DbClient>, oids: &[Oid], name: &str) -> (Arc<Display>, Vec<DoId>) {
    let display = Display::open(Arc::clone(client), Arc::new(DisplayCache::new()), name);
    let ids = oids
        .iter()
        .map(|&oid| {
            display
                .add_object(&width_coded_link("Utilization"), vec![oid])
                .unwrap()
        })
        .collect();
    (display, ids)
}

#[test]
fn one_writer_per_session_and_overflow_scoped_to_one_shard() {
    let catalog = Arc::new(nms_catalog());
    let fast_hub = LocalHub::new();
    let slow_hub = LocalHub::new();
    let plan = Arc::new(FaultPlan::new());
    let dir = std::env::temp_dir()
        .join("displaydb-it-outbox-writers")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(&dir);
    config.dlm.shards = SHARDS;
    config.dlm.overload.outbox_high_water = HIGH_WATER;
    // Async invalidation callbacks, so the storm below lands in one
    // burst instead of being paced by callback round-trips to the
    // stalled viewer.
    config.sync_callbacks = false;
    let server = Server::spawn(
        Arc::clone(&catalog),
        config,
        vec![
            Box::new(fast_hub.clone()),
            Box::new(FaultyListener::wrap(
                Box::new(slow_hub.clone()),
                Arc::clone(&plan),
            )),
        ],
    )
    .unwrap();

    let connect = |hub: &LocalHub, name: &str| {
        DbClient::connect(Box::new(hub.connect().unwrap()), ClientConfig::named(name)).unwrap()
    };
    let updater = connect(&fast_hub, "updater");
    let witness = connect(&fast_hub, "witness");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let viewer = DbClient::connect(
        Box::new(Tap {
            inner: Box::new(slow_hub.connect().unwrap()),
            seen: Arc::clone(&seen),
        }),
        ClientConfig::named("viewer"),
    )
    .unwrap();
    assert_eq!(
        threads_named("dlm-outbox"),
        3,
        "one writer per session, not one per (session, shard)"
    );

    // 30 links on shard 2 and one on each other shard. 30 is more than
    // one drained frame (`outbox_batch_max`, 16) plus a full queue, so
    // shard 2 overflows however much the writer takes before it parks.
    let map = server.core().dlm().map();
    let mut txn = updater.begin().unwrap();
    let mut by_shard: Vec<Vec<Oid>> = vec![Vec::new(); SHARDS];
    while by_shard[2].len() < 30 || by_shard.iter().any(Vec::is_empty) {
        let oid = txn.create(updater.new_object("Link").unwrap()).unwrap().oid;
        let shard = map.shard_of(oid) as usize;
        if by_shard[shard].len() < if shard == 2 { 30 } else { 1 } {
            by_shard[shard].push(oid);
        }
    }
    txn.commit().unwrap();
    let oids: Vec<Oid> = by_shard.concat();
    let (display, ids) = watch(&viewer, &oids, "viewer");
    let (witness_display, witness_ids) = watch(&witness, &oids, "witness");

    // Flush the viewer's cached copies and let every shard ack once, one
    // paced commit per link so no queue overflows before the storm.
    for &oid in &oids {
        let mut txn = updater.begin().unwrap();
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.01))
            .unwrap();
        txn.commit().unwrap();
    }
    for (i, &id) in ids.iter().enumerate() {
        await_value(&display, id, 0.01);
        await_value(&witness_display, witness_ids[i], 0.01);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while (0..SHARDS as u32).any(|s| viewer.dlc().cursor_of(s) == 0) {
        assert!(Instant::now() < deadline, "a shard never acked");
        std::thread::sleep(Duration::from_millis(10));
    }
    let before: Vec<u64> = (0..SHARDS as u32)
        .map(|s| viewer.dlc().cursor_of(s))
        .collect();
    seen.lock().unwrap().clear();

    // Park the viewer's writer in one 400 ms send and land the storm
    // behind it in one commit: shard 2's queue overflows, the others
    // hold one event each.
    plan.set_delay(1000, Duration::from_millis(400));
    let mut txn = updater.begin().unwrap();
    for &oid in &oids {
        txn.update(oid, |o| o.set(&catalog, "Utilization", 0.95))
            .unwrap();
    }
    txn.commit().unwrap();
    let overload = &server.core().dlm().stats().overload;
    assert!(overload.overflows.get() >= 1, "shard 2 never overflowed");
    plan.clear_delay();

    for (i, &id) in ids.iter().enumerate() {
        await_value(&display, id, 0.95);
        await_value(&witness_display, witness_ids[i], 0.95);
    }
    let seen = seen.lock().unwrap().clone();
    let markers: Vec<&DlmEvent> = seen
        .iter()
        .filter(|e| {
            matches!(
                e,
                DlmEvent::ReplayNeeded { .. } | DlmEvent::ResyncRequired { .. }
            )
        })
        .collect();
    assert_eq!(
        markers.len(),
        1,
        "exactly one marker, from shard 2: {markers:?}"
    );
    assert!(matches!(
        markers[0],
        DlmEvent::ReplayNeeded { shard: 2, .. }
    ));
    // Shards 0, 1 and 3 delivered their storm events live and acked past
    // them, without a replay.
    for shard in [0u32, 1, 3] {
        let oid = by_shard[shard as usize][0];
        assert!(
            seen.iter()
                .any(|e| matches!(e, DlmEvent::Delta { oid: o, .. } if *o == oid)),
            "shard {shard}'s update was not delivered live"
        );
        assert!(
            seen.iter().any(|e| matches!(
                e,
                DlmEvent::CursorAck { shard: s, seqno } if *s == shard && *seqno > before[shard as usize]
            )),
            "shard {shard} stopped acknowledging"
        );
    }
    assert_eq!(viewer.dlc().stats().replays_requested.get(), 1);
    assert_eq!(viewer.dlc().stats().resyncs_in.get(), 0);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
