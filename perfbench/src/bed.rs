//! The system under test, shared by every workload: one server over the
//! NMS schema on a `LocalHub`, metered client connections, seeded link
//! data, and snapshots of the stats counters the crates already export.

use crate::host::{self, Rng};
use displaydb::display::DisplayClassDef;
use displaydb::nms::nms_catalog;
use displaydb::nms::schema::boilerplate_notes;
use displaydb::prelude::*;
use displaydb::wire::Channel;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// DLM shards. Four make the multi-shard commit fan-out and the
/// per-(client, shard) outbox writers do real work.
pub const SHARDS: usize = 4;

/// How long one client call may take before it counts as failed.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// The server configuration every workload runs: `ServerConfig::new`
/// defaults except the shard count.
pub fn server_config(dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.dlm.shards = SHARDS;
    config
}

/// The configuration as recorded in the run's JSON header.
pub fn config_json() -> String {
    let c = server_config(Path::new("."));
    format!(
        "{{\"dlm.shards\": {}, \"dlm.protocol\": \"{:?}\", \"dlm.eager_shipping\": {}, \
         \"sync_callbacks\": {}, \"dlm.log.max_entries\": {}, \"durable_log\": {}, \
         \"buffer_frames\": {}, \"transport\": \"LocalHub\"}}",
        c.dlm.shards,
        c.dlm.protocol,
        c.dlm.eager_shipping,
        c.sync_callbacks,
        c.dlm.log.max_entries,
        c.durable_log.enabled,
        c.buffer_frames,
    )
}

/// A server data directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running server and its hub. Fields drop in order: the server shuts
/// down before its data directory is removed.
pub struct Bed {
    pub server: Server,
    pub hub: LocalHub,
    pub catalog: Arc<Catalog>,
    _dir: WorkDir,
}

impl Bed {
    /// Start a server with its data under `dir` (created fresh).
    pub fn start(dir: PathBuf) -> DbResult<Self> {
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Arc::new(nms_catalog());
        let hub = LocalHub::new();
        let server = Server::spawn_local(Arc::clone(&catalog), server_config(&dir), &hub)?;
        Ok(Self {
            server,
            hub,
            catalog,
            _dir: WorkDir(dir),
        })
    }

    /// Connect an unsupervised client whose traffic lands on `meter`.
    pub fn connect(
        &self,
        name: &str,
        cache_bytes: usize,
        meter: &Arc<WireMeter>,
    ) -> DbResult<Arc<DbClient>> {
        let inner: Box<dyn Channel> = Box::new(self.hub.connect()?);
        let channel = Box::new(MeteredChannel::wrap(inner, Arc::clone(meter)));
        DbClient::connect(channel, client_config(name, cache_bytes))
    }
}

/// A client configuration with the benchmark's call timeout.
pub fn client_config(name: &str, cache_bytes: usize) -> ClientConfig {
    ClientConfig {
        name: name.into(),
        cache_bytes,
        call_timeout: CALL_TIMEOUT,
        disk_cache: None,
    }
}

/// The client cache of the connections that do not study caching.
pub const DEFAULT_CACHE: usize = 16 << 20;

/// Loaded utilizations lie in `[0, LOADED_MAX)`; workloads that write
/// write larger values, so a shown value tells which write it came from.
pub const LOADED_MAX: f64 = 0.1;

/// Create `n` NMS links carrying the usual operational baggage, with
/// seeded initial utilizations. Returns their OIDs and utilizations.
pub fn load_links(
    client: &Arc<DbClient>,
    catalog: &Catalog,
    n: usize,
    rng: &mut Rng,
) -> DbResult<(Vec<Oid>, Vec<f64>)> {
    const PER_TXN: usize = 500;
    let mut oids = Vec::with_capacity(n);
    let mut utils = Vec::with_capacity(n);
    for chunk_start in (0..n).step_by(PER_TXN) {
        let mut txn = client.begin()?;
        for i in chunk_start..(chunk_start + PER_TXN).min(n) {
            let u = (rng.unit() * LOADED_MAX * 1e4).floor() / 1e4;
            let tag = format!("link-{i:05}");
            let obj = client
                .new_object("Link")?
                .with(catalog, "Name", tag.clone())?
                .with(catalog, "Notes", boilerplate_notes(&tag))?
                .with(catalog, "Utilization", u)?
                .with(catalog, "ErrorRate", 1e-9)?
                .with(catalog, "LatencyMs", 4.2)?
                .with(catalog, "Vendor", "Acme Optical Systems")?
                .with(catalog, "CircuitId", format!("CIRCUIT-{i:06}-A"))?;
            oids.push(txn.create(obj)?.oid);
            utils.push(u);
        }
        txn.commit()?;
    }
    Ok((oids, utils))
}

/// Commit one transaction setting `Utilization` on every `(oid, value)`.
/// Returns the latency of the `ClientTxn::commit` call alone.
pub fn commit_utilizations(
    client: &Arc<DbClient>,
    catalog: &Catalog,
    writes: &[(Oid, f64)],
) -> DbResult<Duration> {
    let mut txn = client.begin()?;
    for &(oid, value) in writes {
        txn.update(oid, |o| o.set(catalog, "Utilization", value))?;
    }
    let start = std::time::Instant::now();
    txn.commit()?;
    Ok(start.elapsed())
}

/// Commit one write of `Notes` to `oid`, an object no display holds.
/// Returns the latency of the `ClientTxn::commit` call alone.
pub fn commit_notes(
    client: &Arc<DbClient>,
    catalog: &Catalog,
    oid: Oid,
    n: usize,
) -> DbResult<Duration> {
    let mut txn = client.begin()?;
    txn.update(oid, |o| o.set(catalog, "Notes", format!("probe write {n}")))?;
    let start = std::time::Instant::now();
    txn.commit()?;
    Ok(start.elapsed())
}

/// The correctness oracle for one display object: its attributes must
/// equal what its class derives from a fresh server read of its sources.
pub fn matches_committed(
    reader: &Arc<DbClient>,
    class: &DisplayClassDef,
    object: &DisplayObject,
) -> DbResult<bool> {
    let sources = object
        .assoc
        .iter()
        .map(|&oid| reader.read_fresh(oid))
        .collect::<DbResult<Vec<_>>>()?;
    Ok(class.derive(reader.catalog(), &sources)? == object.attrs && !object.is_stale())
}

/// The `Utilization` a display object shows, if it shows one.
pub fn shown_utilization(display: &Display, id: DoId) -> Option<f64> {
    match display.object(id)?.attr("Utilization") {
        Some(Value::Float(f)) => Some(*f),
        _ => None,
    }
}

/// Declares [`Counters`] once, so a reading and a difference can never
/// disagree about the field list.
macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        /// Counter readings at one instant. Differences of two readings
        /// give a phase's counts.
        #[derive(Clone, Debug, Default)]
        pub struct Counters {
            $(pub $name: u64,)*
            pub shard_updates: [u64; SHARDS],
        }

        impl Counters {
            /// `self - earlier`, counter by counter.
            pub fn since(&self, earlier: &Counters) -> Counters {
                let mut shard_updates = [0; SHARDS];
                for (s, u) in shard_updates.iter_mut().enumerate() {
                    *u = self.shard_updates[s].saturating_sub(earlier.shard_updates[s]);
                }
                Counters {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                    shard_updates,
                }
            }

            /// Add `other`'s counts to these.
            pub fn add(&mut self, other: &Counters) {
                $(self.$name += other.$name;)*
                for (u, o) in self.shard_updates.iter_mut().zip(&other.shard_updates) {
                    *u += o;
                }
            }
        }
    };
}

counters! {
    requests, reads, commits, callbacks, dlm_lock_requests, notifications, delta_notifications, suppressed, batches,
    coalesced, resume_sheds, log_appended, log_replayed_events, log_truncated_replays, lock_grants,
    display_grants, lock_waits, pool_hits, pool_misses, pool_evictions, cache_hits, cache_misses,
    cache_evictions, dlc_local_locks, dlc_lock_msgs, dlc_release_msgs, dlc_notifications_in,
    dlc_dispatched, replay_catchups, resync_objects, display_events, display_refreshes,
    display_delta_refreshes, viewer_bytes_in, viewer_bytes_out, monitor_bytes_in,
    monitor_bytes_out, frames, allocs,
}

/// What a counter reading looks at: the server, the viewing client (the
/// one whose displays the workload measures), its displays, and the two
/// connection meters.
pub struct Watched<'a> {
    pub bed: &'a Bed,
    pub viewer: &'a DbClient,
    pub displays: &'a [&'a Display],
    pub viewer_meter: &'a WireMeter,
    pub monitor_meter: &'a WireMeter,
}

impl Watched<'_> {
    /// Read every counter now.
    pub fn read(&self) -> Counters {
        let core = self.bed.server.core();
        let server = core.stats();
        let dlm = core.dlm().stats();
        let locks = core.locks().stats();
        let pool = core.store().pool().stats();
        let cache = self.viewer.cache().stats();
        let dlc = self.viewer.dlc().stats();
        let recovery = &self.viewer.conn_stats().recovery;
        let mut shard_updates = [0; SHARDS];
        for (s, u) in shard_updates.iter_mut().enumerate() {
            *u = core.dlm().shard_stats().updates_of(s);
        }
        let sum = |f: fn(&Display) -> u64| self.displays.iter().map(|d| f(d)).sum();
        Counters {
            requests: server.requests.get(),
            reads: server.reads.get(),
            commits: server.commits.get(),
            callbacks: server.callbacks.get(),
            dlm_lock_requests: dlm.lock_requests.get(),
            notifications: dlm.notifications.get(),
            delta_notifications: dlm.delta_notifications.get(),
            suppressed: dlm.suppressed_notifications.get(),
            batches: dlm.overload.batches_sent.get(),
            coalesced: dlm.overload.coalesced.get(),
            resume_sheds: dlm.overload.resume_sheds.get(),
            log_appended: dlm.log.appended.get(),
            log_replayed_events: dlm.log.replayed_events.get(),
            log_truncated_replays: dlm.log.truncated_replays.get(),
            shard_updates,
            lock_grants: locks.grants.get(),
            display_grants: locks.display_grants.get(),
            lock_waits: locks.waits.get(),
            pool_hits: pool.hits.get(),
            pool_misses: pool.misses.get(),
            pool_evictions: pool.evictions.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            dlc_local_locks: dlc.local_lock_requests.get(),
            dlc_lock_msgs: dlc.dlm_lock_messages.get(),
            dlc_release_msgs: dlc.dlm_release_messages.get(),
            dlc_notifications_in: dlc.notifications_in.get(),
            dlc_dispatched: dlc.notifications_dispatched.get(),
            replay_catchups: recovery.replay_catchups.get(),
            resync_objects: recovery.resync_objects.get(),
            display_events: sum(|d| d.stats().events.get()),
            display_refreshes: sum(|d| d.stats().refreshes.get()),
            display_delta_refreshes: sum(|d| d.stats().delta_refreshes.get()),
            viewer_bytes_in: self.viewer_meter.bytes_received(),
            viewer_bytes_out: self.viewer_meter.bytes_sent(),
            monitor_bytes_in: self.monitor_meter.bytes_received(),
            monitor_bytes_out: self.monitor_meter.bytes_sent(),
            frames: self.viewer_meter.frames_sent()
                + self.viewer_meter.frames_received()
                + self.monitor_meter.frames_sent()
                + self.monitor_meter.frames_received(),
            allocs: host::allocs(),
        }
    }

    /// Restart the high-water gauges a phase reports.
    pub fn reset_high_water(&self) {
        let core = self.bed.server.core();
        core.dlm().stats().overload.queue_depth.reset_high_water();
        self.viewer
            .dlc()
            .stats()
            .display_queue_depth
            .reset_high_water();
    }

    /// Deepest outbox queue since the last reset.
    pub fn outbox_depth_max(&self) -> u64 {
        let core = self.bed.server.core();
        core.dlm().stats().overload.queue_depth.high_water()
    }

    /// Deepest per-display DLC queue since the last reset.
    pub fn dlc_queue_depth_max(&self) -> u64 {
        self.viewer.dlc().stats().display_queue_depth.high_water()
    }

    /// Bytes retained across every shard's update log. Summed entry by
    /// entry: the shards share one `log_bytes` gauge, which holds the
    /// last writer's figure rather than the total.
    pub fn log_bytes(&self) -> u64 {
        let dlm = self.bed.server.core().dlm();
        (0..dlm.shards())
            .map(|s| {
                let log = dlm.update_log_of(s);
                let first_missing = log.head().saturating_sub(log.len() as u64);
                match log.replay_from(first_missing) {
                    displaydb::dlm::ReplaySlice::Events { entries, .. } => {
                        entries.iter().map(|e| e.bytes as u64).sum::<u64>()
                    }
                    displaydb::dlm::ReplaySlice::Truncated { .. } => 0,
                }
            })
            .sum()
    }
}
