//! The partitioned DLM: N in-process shards by OID hash (DESIGN.md
//! § 16).
//!
//! The single-table [`DlmCore`] serializes every commit's interest
//! intersect behind one mutex — the single-box ceiling the paper's
//! DLM-placement study (§ "DLM deployments") measures. [`ShardedDlm`]
//! splits the table by a stable OID hash into independent shards, each
//! with its own interest table, holders map, outbox set, and update log
//! with an **independent seqno space**. Commits split their OID set by
//! shard and fan the intersects out in parallel; clients keep a cursor
//! *vector* (one entry per shard) and recovery replays shards in
//! parallel.
//!
//! A one-shard `ShardedDlm` wraps a plain [`DlmCore`] on the singleton
//! lock ranks and spills its durable log directly under the log
//! directory; its cursor vector has one entry.

use crate::core::{DlmConfig, DlmCore, DlmStats, EventSink, ReplayOutcome};
use crate::log::{DurableRecovery, UpdateLog};
use crate::proto::UpdateInfo;
use displaydb_common::metrics::{Counter, SegLogStats};
use displaydb_common::{ClientId, DbResult, DurableLogConfig, Oid, TxnId};
use std::path::Path;
use std::sync::Arc;

/// Stable OID → shard assignment, shared by the server and (via the
/// handshake's shard count) the DLC. Pure function of `(oid, shards)`:
/// both sides compute the same routing without exchanging a table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` partitions (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1) as u32,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard `oid` routes to. Fibonacci hashing on the raw OID: the
    /// multiplier spreads sequential OIDs (the common allocation
    /// pattern) uniformly, so hot contiguous ranges don't pile onto one
    /// shard.
    pub fn shard_of(&self, oid: Oid) -> u32 {
        if self.shards == 1 {
            return 0;
        }
        ((oid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.shards as u64) as u32
    }

    /// Partition `oids` into per-shard vectors (index = shard), order
    /// preserved within each shard.
    pub fn split(&self, oids: &[Oid]) -> Vec<Vec<Oid>> {
        let mut parts = vec![Vec::new(); self.shards as usize];
        for &oid in oids {
            parts[self.shard_of(oid) as usize].push(oid);
        }
        parts
    }
}

/// Shard-tagged fan-out counters: how many committed updates each shard
/// intersected. Static names keep [`displaydb_common::StatsSource`]'s
/// `'static` contract; shards past the table fold into the last row.
const SHARD_STAT_NAMES: &[&str] = &[
    "shard0_updates",
    "shard1_updates",
    "shard2_updates",
    "shard3_updates",
    "shard4_updates",
    "shard5_updates",
    "shard6_updates",
    "shard7_updates",
    "shard8_updates",
    "shard9_updates",
    "shard10_updates",
    "shard11_updates",
    "shard12_updates",
    "shard13_updates",
    "shard14_updates",
    "shard15_updates",
];

/// Per-shard routing counters for reports and the stats registry.
#[derive(Clone, Debug)]
pub struct ShardStats {
    updates: Arc<Vec<Counter>>,
}

impl ShardStats {
    fn new(shards: usize) -> Self {
        Self {
            updates: Arc::new((0..shards).map(|_| Counter::new()).collect()),
        }
    }

    fn routed(&self, shard: usize, n: u64) {
        self.updates[shard.min(self.updates.len() - 1)].add(n);
    }

    /// Updates routed to `shard` so far.
    pub fn updates_of(&self, shard: usize) -> u64 {
        self.updates.get(shard).map_or(0, Counter::get)
    }
}

impl displaydb_common::StatsSource for ShardStats {
    fn stat_values(&self) -> Vec<(&'static str, u64)> {
        self.updates
            .iter()
            .enumerate()
            .map(|(i, c)| (SHARD_STAT_NAMES[i.min(SHARD_STAT_NAMES.len() - 1)], c.get()))
            .collect()
    }
}

/// The partitioned display-lock manager (DESIGN.md § 16). All the
/// [`DlmCore`] entry points the integrated server uses, routed through
/// a [`ShardMap`]; multi-OID operations split their set and commits fan
/// the per-shard intersects out in parallel.
pub struct ShardedDlm {
    map: ShardMap,
    cores: Vec<Arc<DlmCore>>,
    config: DlmConfig,
    stats: DlmStats,
    shard_stats: ShardStats,
}

impl std::fmt::Debug for ShardedDlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDlm")
            .field("shards", &self.map.shards())
            .field("config", &self.config)
            .finish()
    }
}

impl ShardedDlm {
    /// Build an in-memory DLM with `config.shards` partitions. One
    /// shard wraps a classic [`DlmCore`] on the singleton lock ranks;
    /// more get per-shard ranked tables and logs sharing one stats
    /// handle.
    pub fn new(config: DlmConfig) -> Self {
        let map = ShardMap::new(config.shards);
        let (cores, stats) = if map.shards() == 1 {
            let core = Arc::new(DlmCore::new(config));
            let stats = core.stats().clone();
            (vec![core], stats)
        } else {
            let stats = DlmStats::default();
            let cores = (0..map.shards())
                .map(|_| Arc::new(DlmCore::new_shard(config, stats.clone())))
                .collect();
            (cores, stats)
        };
        let shard_stats = ShardStats::new(map.shards());
        Self {
            map,
            cores,
            config,
            stats,
            shard_stats,
        }
    }

    /// Build a DLM whose per-shard update logs spill to stable storage
    /// (DESIGN.md § 14, per-shard directories `dir/shard-<i>` when
    /// sharded, `dir` itself at one shard). Each
    /// shard gets its own durable incarnation (`fresh_incarnation + i`
    /// when freshly minted) because its seqno space is independent.
    /// Returns one recovery report per shard.
    pub fn new_durable(
        config: DlmConfig,
        dir: impl AsRef<Path>,
        durable: DurableLogConfig,
        seg_stats: SegLogStats,
        fresh_incarnation: u64,
        min_last_txn: u64,
    ) -> DbResult<(Self, Vec<DurableRecovery>)> {
        let map = ShardMap::new(config.shards);
        if map.shards() == 1 {
            let (core, rec) = DlmCore::new_durable(
                config,
                dir,
                durable,
                seg_stats,
                fresh_incarnation,
                min_last_txn,
            )?;
            let stats = core.stats().clone();
            let shard_stats = ShardStats::new(1);
            return Ok((
                Self {
                    map,
                    cores: vec![Arc::new(core)],
                    config,
                    stats,
                    shard_stats,
                },
                vec![rec],
            ));
        }
        let stats = DlmStats::default();
        let mut cores = Vec::with_capacity(map.shards());
        let mut recoveries = Vec::with_capacity(map.shards());
        for s in 0..map.shards() {
            let (core, rec) = DlmCore::new_shard_durable(
                config,
                stats.clone(),
                dir.as_ref().join(format!("shard-{s}")),
                durable,
                seg_stats.clone(),
                fresh_incarnation.wrapping_add(s as u64),
                min_last_txn,
            )?;
            cores.push(Arc::new(core));
            recoveries.push(rec);
        }
        let shard_stats = ShardStats::new(map.shards());
        Ok((
            Self {
                map,
                cores,
                config,
                stats,
                shard_stats,
            },
            recoveries,
        ))
    }

    /// The OID → shard routing function.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// One shard's core (tests, per-shard resume admission).
    pub fn core(&self, shard: usize) -> &Arc<DlmCore> {
        &self.cores[shard]
    }

    /// Active configuration.
    pub fn config(&self) -> DlmConfig {
        self.config
    }

    /// The shared statistics counters (one coherent view across shards).
    pub fn stats(&self) -> &DlmStats {
        &self.stats
    }

    /// Per-shard routing counters.
    pub fn shard_stats(&self) -> &ShardStats {
        &self.shard_stats
    }

    /// One shard's update log.
    pub fn update_log_of(&self, shard: usize) -> &UpdateLog {
        self.cores[shard].update_log()
    }

    /// Every shard's durable log incarnation, index = shard (0 = that
    /// shard has no durable log). The client echoes this vector back in
    /// its resume token so admission is provable per shard.
    pub fn log_incarnations(&self) -> Vec<u64> {
        self.cores
            .iter()
            .map(|c| c.update_log().incarnation().unwrap_or(0))
            .collect()
    }

    /// Register one sink for `client` on every shard (tests and
    /// in-process sinks that need no per-shard queues).
    pub fn register_client(&self, client: ClientId, sink: Arc<dyn EventSink>) {
        for core in &self.cores {
            core.register_client(client, Arc::clone(&sink));
        }
    }

    /// Register per-shard sinks for `client` (index = shard). The
    /// server passes the per-shard queues of the session's one outbox
    /// ([`crate::OutboxSink::shard`]), so one shard's backlog cannot
    /// block another's and every cursor ack names its seqno space.
    pub fn register_client_sinks(&self, client: ClientId, sinks: Vec<Arc<dyn EventSink>>) {
        assert_eq!(sinks.len(), self.cores.len(), "one sink per shard");
        for (core, sink) in self.cores.iter().zip(sinks) {
            core.register_client(client, sink);
        }
    }

    /// Drop `client` from every shard (sinks closed outside the table
    /// locks, as for [`DlmCore::unregister_client`]).
    pub fn unregister_client(&self, client: ClientId) {
        for core in &self.cores {
            core.unregister_client(client);
        }
    }

    /// Acquire display locks, split by shard.
    pub fn lock(&self, client: ClientId, oids: &[Oid]) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].lock(client, part);
            }
        }
    }

    /// Acquire projected display locks, split by shard.
    pub fn lock_projected(&self, client: ClientId, oids: &[Oid], attrs: &[u16], version: u32) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].lock_projected(client, part, attrs, version);
            }
        }
    }

    /// Release display locks, split by shard.
    pub fn release(&self, client: ClientId, oids: &[Oid]) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].release(client, part);
            }
        }
    }

    /// Current holder set for an object (routed to its shard).
    pub fn holders(&self, oid: Oid) -> Vec<ClientId> {
        self.cores[self.map.shard_of(oid) as usize].holders(oid)
    }

    /// Number of display-locked objects across all shards.
    pub fn locked_objects(&self) -> usize {
        self.cores.iter().map(|c| c.locked_objects()).sum()
    }

    /// Whether any client anywhere has a projected interest registered.
    pub fn has_projected_interest(&self) -> bool {
        self.cores.iter().any(|c| c.has_projected_interest())
    }

    /// Whether `client` holds a projected lock on `oid`.
    pub fn has_interest(&self, client: ClientId, oid: Oid) -> bool {
        self.cores[self.map.shard_of(oid) as usize].has_interest(client, oid)
    }

    /// Whether `client`'s projection on `oid` covers `changed`.
    pub fn interest_covers(&self, client: ClientId, oid: Oid, changed: &[u16]) -> bool {
        self.cores[self.map.shard_of(oid) as usize].interest_covers(client, oid, changed)
    }

    /// Partition `updates` by shard, order preserved within each shard.
    fn split_updates<'a>(&self, updates: &'a [UpdateInfo]) -> Vec<Vec<&'a UpdateInfo>> {
        let mut parts: Vec<Vec<&UpdateInfo>> = vec![Vec::new(); self.cores.len()];
        for u in updates {
            parts[self.map.shard_of(u.oid) as usize].push(u);
        }
        parts
    }

    /// [`DlmCore::notify_committed`] across shards; see
    /// [`Self::notify_committed_txn`].
    pub fn notify_committed(&self, origin: Option<ClientId>, updates: &[UpdateInfo]) {
        let _ = self.notify_committed_txn(origin, updates, 0);
    }

    /// Fan one committed batch out across the shards it touches: the
    /// OID set is split by shard and each involved shard runs its
    /// append + intersect + enqueue **in parallel** (this is the stage
    /// the R6 experiment shows scaling). An error from any shard's
    /// durable spill is reported (first one wins); the other shards
    /// still complete their fan-out.
    pub fn notify_committed_txn(
        &self,
        origin: Option<ClientId>,
        updates: &[UpdateInfo],
        txn: u64,
    ) -> DbResult<()> {
        let parts = self.split_updates(updates);
        let involved: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(s, _)| s)
            .collect();
        for &s in &involved {
            self.shard_stats.routed(s, parts[s].len() as u64);
        }
        match involved.len() {
            0 => Ok(()),
            1 => {
                let s = involved[0];
                let owned: Vec<UpdateInfo> = parts[s].iter().map(|u| (*u).clone()).collect();
                self.cores[s].notify_committed_txn(origin, &owned, txn)
            }
            _ => {
                let results: Vec<DbResult<()>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = involved
                        .iter()
                        .map(|&s| {
                            let core = &self.cores[s];
                            let part = &parts[s];
                            scope.spawn(move || {
                                let owned: Vec<UpdateInfo> =
                                    part.iter().map(|u| (*u).clone()).collect();
                                core.notify_committed_txn(origin, &owned, txn)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard fan-out thread panicked"))
                        .collect()
                });
                results.into_iter().find(|r| r.is_err()).unwrap_or(Ok(()))
            }
        }
    }

    /// Early-notify intent marks, split by shard.
    pub fn notify_intent(&self, origin: Option<ClientId>, oids: &[Oid], txn: TxnId) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].notify_intent(origin, part, txn);
            }
        }
    }

    /// Early-notify resolutions, split by shard.
    pub fn notify_resolution(
        &self,
        origin: Option<ClientId>,
        oids: &[Oid],
        txn: TxnId,
        committed: bool,
    ) {
        for (s, part) in self.map.split(oids).iter().enumerate() {
            if !part.is_empty() {
                self.cores[s].notify_resolution(origin, part, txn, committed);
            }
        }
    }

    /// Serve a replay request: replay each `(shard, cursor)` pair
    /// concurrently. Shards whose cursor fell off their log answer with a
    /// `ResyncRequired` over the client's watched set *in that shard* —
    /// truncation is contained, caught-up shards still replay. Pairs
    /// naming a shard this DLM does not have are ignored. Returns one
    /// outcome per served pair, in request order.
    pub fn replay_for(&self, client: ClientId, cursors: &[(u32, u64)]) -> Vec<ReplayOutcome> {
        let served: Vec<(usize, u64)> = cursors
            .iter()
            .filter(|(s, _)| (*s as usize) < self.cores.len())
            .map(|&(s, c)| (s as usize, c))
            .collect();
        if served.len() <= 1 {
            return served
                .iter()
                .map(|&(s, c)| self.cores[s].replay_for(client, c))
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = served
                .iter()
                .map(|&(s, c)| {
                    let core = &self.cores[s];
                    scope.spawn(move || core.replay_for(client, c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard replay thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DlmEvent;
    use crossbeam::channel::{unbounded, Receiver};
    use displaydb_common::DbError;

    fn c(i: u64) -> ClientId {
        ClientId::new(i)
    }

    fn o(i: u64) -> Oid {
        Oid::new(i)
    }

    fn sink() -> (Arc<dyn EventSink>, Receiver<DlmEvent>) {
        let (tx, rx) = unbounded();
        let f = move |e: DlmEvent| tx.send(e).map_err(|_| DbError::Disconnected);
        (Arc::new(f), rx)
    }

    fn sharded(n: usize) -> ShardedDlm {
        ShardedDlm::new(DlmConfig {
            shards: n,
            ..DlmConfig::default()
        })
    }

    #[test]
    fn shard_map_is_stable_and_total() {
        let map = ShardMap::new(8);
        for i in 0..1000 {
            let s = map.shard_of(o(i));
            assert!(s < 8);
            assert_eq!(s, map.shard_of(o(i)), "assignment must be stable");
        }
        // All shards get some OIDs (Fibonacci spread over a sequential
        // range).
        let mut seen = vec![false; 8];
        for i in 0..1000 {
            seen[map.shard_of(o(i)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard never used: {seen:?}");
        // One shard routes everything to 0.
        let single = ShardMap::new(1);
        assert!((0..100).all(|i| single.shard_of(o(i)) == 0));
    }

    #[test]
    fn split_preserves_order_within_shard() {
        let map = ShardMap::new(4);
        let oids: Vec<Oid> = (0..64).map(o).collect();
        let parts = map.split(&oids);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 64);
        for (s, part) in parts.iter().enumerate() {
            for w in part.windows(2) {
                assert!(w[0].raw() < w[1].raw(), "order broken in shard {s}");
            }
            for &oid in part {
                assert_eq!(map.shard_of(oid) as usize, s);
            }
        }
    }

    #[test]
    fn sharded_notifies_holders_across_shards() {
        let dlm = sharded(4);
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..32).map(o).collect();
        dlm.lock(c(1), &oids);
        assert_eq!(dlm.locked_objects(), 32);
        let updates: Vec<UpdateInfo> = oids.iter().map(|&oid| UpdateInfo::lazy(oid)).collect();
        dlm.notify_committed(None, &updates);
        assert_eq!(r1.try_iter().count(), 32);
        assert_eq!(dlm.stats().notifications.get(), 32);
        let routed: u64 = (0..4).map(|s| dlm.shard_stats().updates_of(s)).sum();
        assert_eq!(routed, 32);
    }

    #[test]
    fn originator_skipped_in_every_shard() {
        let dlm = sharded(4);
        let (s1, r1) = sink();
        let (s2, r2) = sink();
        dlm.register_client(c(1), s1);
        dlm.register_client(c(2), s2);
        let oids: Vec<Oid> = (0..16).map(o).collect();
        dlm.lock(c(1), &oids);
        dlm.lock(c(2), &oids);
        let updates: Vec<UpdateInfo> = oids.iter().map(|&oid| UpdateInfo::lazy(oid)).collect();
        dlm.notify_committed(Some(c(2)), &updates);
        assert_eq!(r1.try_iter().count(), 16);
        assert_eq!(r2.try_iter().count(), 0);
    }

    #[test]
    fn release_and_unregister_cover_all_shards() {
        let dlm = sharded(4);
        let (s1, _r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..16).map(o).collect();
        dlm.lock(c(1), &oids);
        dlm.release(c(1), &oids[..8]);
        assert_eq!(dlm.locked_objects(), 8);
        dlm.unregister_client(c(1));
        assert_eq!(dlm.locked_objects(), 0);
    }

    #[test]
    fn per_shard_seqno_spaces_are_independent() {
        let dlm = sharded(4);
        let (s1, _r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..64).map(o).collect();
        dlm.lock(c(1), &oids);
        for &oid in &oids {
            dlm.notify_committed(None, &[UpdateInfo::lazy(oid)]);
        }
        // Every shard assigned seqnos from its own space starting at 1:
        // head == number of updates routed there, not a global count.
        for s in 0..4 {
            let head = dlm.update_log_of(s).head();
            assert_eq!(head, dlm.shard_stats().updates_of(s));
            assert!(head > 0, "shard {s} never appended");
        }
        let total: u64 = (0..4).map(|s| dlm.update_log_of(s).head()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn shards_sum_into_one_log_bytes_gauge() {
        let dlm = sharded(4);
        let map = dlm.map();
        let pick = |shard: u32| {
            (0..)
                .map(o)
                .find(|&oid| map.shard_of(oid) == shard)
                .unwrap()
        };
        let fat = |oid| UpdateInfo::eager(oid, vec![0u8; 100]);
        dlm.notify_committed(None, &[fat(pick(1))]);
        dlm.notify_committed(None, &[fat(pick(1))]);
        dlm.notify_committed(None, &[fat(pick(3))]);
        let gauge = &dlm.stats().log;
        assert_eq!(gauge.log_entries.get(), 3);
        assert_eq!(gauge.log_bytes.get(), 3 * 124, "the gauge sums every shard");
        dlm.update_log_of(1).truncate_all();
        assert_eq!(gauge.log_entries.get(), 1);
        assert_eq!(gauge.log_bytes.get(), 124);
    }

    #[test]
    fn shard_parallel_replay_mixes_replay_and_resync() {
        let dlm = sharded(4);
        let (s1, r1) = sink();
        dlm.register_client(c(1), s1);
        let oids: Vec<Oid> = (0..64).map(o).collect();
        dlm.lock(c(1), &oids);
        let updates: Vec<UpdateInfo> = oids.iter().map(|&oid| UpdateInfo::lazy(oid)).collect();
        dlm.notify_committed(None, &updates);
        let live = r1.try_iter().count();
        assert_eq!(live, 64);
        // Truncate shard 2's log; replay all four shards from 0.
        dlm.update_log_of(2).truncate_all();
        let cursors: Vec<(u32, u64)> = (0..4).map(|s| (s, 0)).collect();
        let outcomes = dlm.replay_for(c(1), &cursors);
        assert_eq!(outcomes.len(), 4);
        let mut replayed = 0usize;
        let mut truncated = 0usize;
        for (s, outcome) in outcomes.iter().enumerate() {
            match outcome {
                ReplayOutcome::Replayed { events, .. } => {
                    assert_ne!(s, 2);
                    replayed += events;
                }
                ReplayOutcome::Truncated { .. } => {
                    assert_eq!(s, 2);
                    truncated += 1;
                }
                ReplayOutcome::UnknownClient => panic!("client known"),
            }
        }
        assert_eq!(truncated, 1, "exactly the truncated shard resyncs");
        let routed_to_2 = dlm.shard_stats().updates_of(2) as usize;
        assert_eq!(replayed, 64 - routed_to_2);
        // The client saw the replayed events plus exactly one resync
        // marker naming shard 2's watched objects.
        let mut resyncs = 0usize;
        let mut replays = 0usize;
        for e in r1.try_iter() {
            match e {
                DlmEvent::ResyncRequired { oids } => {
                    resyncs += 1;
                    assert_eq!(oids.len(), routed_to_2);
                }
                DlmEvent::Updated(_) => replays += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(resyncs, 1);
        assert_eq!(replays, replayed);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::proto::DlmEvent;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One recorded delivery, normalized for multiset comparison.
    /// Control events (acks, markers) are excluded — only the
    /// notification payload stream must be equivalent.
    type Recorded = (u64, String);

    fn recording_sink(
        client: u64,
        log: Arc<std::sync::Mutex<Vec<Recorded>>>,
    ) -> Arc<dyn EventSink> {
        Arc::new(move |e: DlmEvent| {
            match &e {
                DlmEvent::Updated(_) | DlmEvent::Delta { .. } => {
                    log.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((client, format!("{e:?}")));
                }
                _ => {}
            }
            Ok(())
        })
    }

    #[derive(Debug, Clone)]
    enum Op {
        Lock {
            client: u64,
            oids: Vec<u64>,
        },
        LockProjected {
            client: u64,
            oids: Vec<u64>,
            attrs: Vec<u16>,
        },
        Release {
            client: u64,
            oids: Vec<u64>,
        },
        Commit {
            origin: u64,
            oids: Vec<u64>,
            changed: bool,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let client = 0u64..5;
        let oids = proptest::collection::vec(0u64..24, 1..5);
        prop_oneof![
            (client.clone(), oids.clone()).prop_map(|(client, oids)| Op::Lock { client, oids }),
            (
                client.clone(),
                oids.clone(),
                proptest::collection::vec(0u16..4, 1..3)
            )
                .prop_map(|(client, oids, attrs)| Op::LockProjected {
                    client,
                    oids,
                    attrs
                }),
            (client.clone(), oids.clone()).prop_map(|(client, oids)| Op::Release { client, oids }),
            (client, oids, any::<bool>()).prop_map(|(origin, oids, changed)| Op::Commit {
                origin,
                oids,
                changed
            }),
        ]
    }

    /// Run `ops` against a DLM with `shards` partitions, returning the
    /// sorted multiset of recorded notification deliveries.
    fn run(shards: usize, ops: &[Op]) -> Vec<Recorded> {
        let dlm = ShardedDlm::new(DlmConfig {
            shards,
            ..DlmConfig::default()
        });
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for client in 0..5u64 {
            dlm.register_client(
                ClientId::new(client),
                recording_sink(client, Arc::clone(&log)),
            );
        }
        for op in ops {
            match op {
                Op::Lock { client, oids } => {
                    let oids: Vec<Oid> = oids.iter().map(|&o| Oid::new(o)).collect();
                    dlm.lock(ClientId::new(*client), &oids);
                }
                Op::LockProjected {
                    client,
                    oids,
                    attrs,
                } => {
                    let oids: Vec<Oid> = oids.iter().map(|&o| Oid::new(o)).collect();
                    dlm.lock_projected(ClientId::new(*client), &oids, attrs, 1);
                }
                Op::Release { client, oids } => {
                    let oids: Vec<Oid> = oids.iter().map(|&o| Oid::new(o)).collect();
                    dlm.release(ClientId::new(*client), &oids);
                }
                Op::Commit {
                    origin,
                    oids,
                    changed,
                } => {
                    let updates: Vec<UpdateInfo> = oids
                        .iter()
                        .map(|&o| {
                            let info = UpdateInfo::lazy(Oid::new(o));
                            if *changed {
                                info.with_changes(vec![(1, vec![7]), (5, vec![9])])
                            } else {
                                info
                            }
                        })
                        .collect();
                    dlm.notify_committed_txn(Some(ClientId::new(*origin)), &updates, 0)
                        .unwrap();
                }
            }
        }
        let mut recorded = log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        recorded.sort();
        recorded
    }

    proptest! {
        /// The sharded DLM is observationally equivalent to the
        /// single-shard DLM: same commit/interest schedule, same event
        /// multiset per client (projection suppression and deltas
        /// included), and within each shard seqnos stay monotone.
        #[test]
        fn prop_sharded_matches_single_shard(ops in proptest::collection::vec(arb_op(), 1..60)) {
            let single = run(1, &ops);
            for &shards in &[2usize, 4, 8] {
                let multi = run(shards, &ops);
                prop_assert_eq!(&multi, &single, "{} shards diverged", shards);
            }
        }

        /// Per-shard seqno order: every shard's log assigns contiguous
        /// ascending seqnos regardless of commit interleaving.
        #[test]
        fn prop_per_shard_seqnos_monotone(oids in proptest::collection::vec(0u64..64, 1..80)) {
            let dlm = ShardedDlm::new(DlmConfig { shards: 4, ..DlmConfig::default() });
            let mut appended: HashMap<usize, u64> = HashMap::new();
            for &o in &oids {
                let oid = Oid::new(o);
                let shard = dlm.map().shard_of(oid) as usize;
                dlm.notify_committed(None, &[UpdateInfo::lazy(oid)]);
                *appended.entry(shard).or_insert(0) += 1;
                prop_assert_eq!(dlm.update_log_of(shard).head(), appended[&shard]);
            }
        }
    }
}
