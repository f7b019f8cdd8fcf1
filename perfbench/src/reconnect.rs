//! `reconnect`: recovery, cycle after cycle.
//!
//! The viewer is supervised and holds the same two displays as `feed`.
//! Each cycle severs its channel (a fresh `FaultPlan` per connection),
//! has the monitor commit 32 four-link updates to watched links while
//! it is away, then lets it back in. The dialer blocks until the outage
//! ends instead of failing, so no reconnect backoff or jitter sleep
//! enters the timing. An op is one heal: from letting the viewer back in
//! until no display is marked stale and every display shows every
//! update of the outage. Every cycle must recover by cursor replay with
//! no object resynced.

use crate::bed::{self, Bed, Watched};
use crate::feed::{self, View};
use crate::host::Rng;
use crate::measure::{begin_phase, Phase, Plan, Recorder, SLICES};
use crate::stats;
use crate::Args;
use displaydb::client::ChannelFactory;
use displaydb::prelude::*;
use displaydb::wire::Channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const COMMITS_PER_OUTAGE: usize = 32;
/// Cycles per second of `--seconds`: a fixed cycle count, sized so a
/// run takes about `--seconds` on a 2-vCPU host.
const CYCLES_PER_S: usize = 28;
/// A heal, an outage notice or a cursor catch-up slower than this failed.
const DEADLINE: Duration = Duration::from_secs(5);
const PUMP_WAIT: Duration = Duration::from_millis(1);

/// Open or closed, with waiters: the dialer blocks while it is closed.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    changed: Condvar,
}

impl Gate {
    fn set(&self, open: bool) {
        *self.open.lock().expect("gate lock poisoned") = open;
        self.changed.notify_all();
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().expect("gate lock poisoned");
        while !*open {
            open = self.changed.wait(open).expect("gate lock poisoned");
        }
    }
}

type PlanSlot = Arc<Mutex<Arc<FaultPlan>>>;

struct World {
    bed: Bed,
    monitor: Arc<DbClient>,
    viewer: Arc<DbClient>,
    views: [View; 2],
    oids: Vec<Oid>,
    gate: Arc<Gate>,
    fault: PlanSlot,
    monitor_meter: Arc<WireMeter>,
    viewer_meter: Arc<WireMeter>,
}

impl Drop for World {
    fn drop(&mut self) {
        // A dialer still parked at the gate would outlive the run.
        self.gate.set(true);
        self.viewer.close();
    }
}

/// Reconnect at once, every time, for as long as it takes.
fn no_backoff() -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: u32::MAX,
        initial_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        multiplier: 1.0,
        jitter: 0.0,
        deadline: None,
        full_jitter: false,
        hard_cap: None,
    }
}

fn setup(args: &Args, attempt: usize) -> DbResult<World> {
    let bed = Bed::start(args.work_dir(attempt))?;
    let monitor_meter = WireMeter::new();
    let viewer_meter = WireMeter::new();
    let monitor = bed.connect("monitor", bed::DEFAULT_CACHE, &monitor_meter)?;
    let mut rng = Rng::new(args.seed);
    let (oids, _) = bed::load_links(&monitor, &bed.catalog, feed::LINKS, &mut rng)?;

    let gate = Arc::new(Gate::default());
    gate.set(true);
    let fault: PlanSlot = Arc::new(Mutex::new(Arc::new(FaultPlan::new())));
    let factory: ChannelFactory = {
        let hub = bed.hub.clone();
        let meter = Arc::clone(&viewer_meter);
        let gate = Arc::clone(&gate);
        let fault = Arc::clone(&fault);
        Arc::new(move || {
            gate.wait_open();
            let plan = Arc::new(FaultPlan::new());
            *fault.lock().expect("fault slot poisoned") = Arc::clone(&plan);
            let inner: Box<dyn Channel> = Box::new(hub.connect()?);
            let faulty: Box<dyn Channel> = Box::new(FaultyChannel::wrap(inner, plan));
            Ok(Box::new(MeteredChannel::wrap(faulty, Arc::clone(&meter))) as Box<dyn Channel>)
        })
    };
    let viewer = DbClient::connect_supervised(
        factory,
        no_backoff(),
        bed::client_config("viewer", bed::DEFAULT_CACHE),
    )?;
    let views = feed::open_views(&viewer, &oids)?;
    // Write every link once so the viewer holds a cursor on every shard:
    // a resume without one could not be served by replay.
    let rewrite: Vec<(Oid, f64)> = oids
        .iter()
        .map(|&oid| (oid, (rng.unit() * bed::LOADED_MAX * 1e4).floor() / 1e4))
        .collect();
    bed::commit_utilizations(&monitor, &bed.catalog, &rewrite)?;
    Ok(World {
        bed,
        monitor,
        viewer,
        views,
        oids,
        gate,
        fault,
        monitor_meter,
        viewer_meter,
    })
}

/// Pump both displays until `done` holds or `deadline` passes; returns
/// when it held.
fn pump_until(
    views: &[View; 2],
    deadline: Instant,
    mut done: impl FnMut() -> bool,
) -> Option<Instant> {
    loop {
        if done() {
            return Some(Instant::now());
        }
        if Instant::now() > deadline {
            return None;
        }
        // Display pumps report `Disconnected` while the viewer is away;
        // the supervisor's outage notice arrives as an event all the same.
        let _ = views[0].display.wait_and_process(PUMP_WAIT);
        let _ = views[1].display.process_pending();
    }
}

/// Whether every shard's notification cursor has reached its log head.
fn cursors_current(w: &World) -> bool {
    let dlm = w.bed.server.core().dlm();
    (0..dlm.shards()).all(|s| w.viewer.dlc().cursor_of(s as u32) >= dlm.update_log_of(s).head())
}

/// One heal's timings.
struct Healed {
    /// Heal → no display marked stale.
    resume: Duration,
    /// Heal → every outage update shown.
    current: Duration,
}

/// One outage and recovery. `None` if a step missed its deadline.
fn cycle(
    w: &World,
    outage: &[Vec<(usize, f64)>],
    commit_ms: &mut Vec<Option<f64>>,
) -> Option<Healed> {
    // Quiesce: the viewer has acknowledged everything logged so far, so
    // the replay carries exactly this outage's updates.
    pump_until(&w.views, Instant::now() + DEADLINE, || cursors_current(w))?;

    w.gate.set(false);
    w.fault.lock().expect("fault slot poisoned").kill_now();
    pump_until(&w.views, Instant::now() + DEADLINE, || {
        w.views.iter().all(|v| v.display.stale_count() > 0)
    })?;
    for writes in outage {
        let writes: Vec<(Oid, f64)> = writes.iter().map(|&(l, v)| (w.oids[l], v)).collect();
        commit_ms.push(
            bed::commit_utilizations(&w.monitor, &w.bed.catalog, &writes)
                .ok()
                .map(stats::ms),
        );
    }

    let healed_at = Instant::now();
    w.gate.set(true);
    let deadline = healed_at + DEADLINE;
    let resumed = pump_until(&w.views, deadline, || {
        w.views.iter().all(|v| v.display.stale_count() == 0)
    })?;
    let current = pump_until(&w.views, deadline, || {
        outage
            .iter()
            .flatten()
            .all(|&(l, x)| w.views.iter().all(|v| v.shows_at_least(l, x)))
    })?;
    Some(Healed {
        resume: resumed - healed_at,
        current: current.max(resumed) - healed_at,
    })
}

/// Run the workload.
pub fn run(args: &Args) -> DbResult<(Phase, bool)> {
    let plan = Plan::new(
        CYCLES_PER_S / SLICES,
        CYCLES_PER_S * args.seconds / SLICES,
        args.trace,
    );
    crate::run_slices(
        |slice| setup(args, slice),
        |world, slice, phase| measure(world, &plan, args.seed, slice, phase),
    )
}

/// Measure one slice on a fresh world.
fn measure(
    world: &World,
    plan: &Plan,
    seed: u64,
    slice: usize,
    phase: &mut Phase,
) -> DbResult<bool> {
    let mut rng = Rng::for_slice(seed ^ 0x2ec0, slice);
    let sched = feed::schedule(&mut rng, plan.total() * COMMITS_PER_OUTAGE);

    let displays: Vec<&Display> = world.views.iter().map(|v| &*v.display).collect();
    let watched = Watched {
        bed: &world.bed,
        viewer: &world.viewer,
        displays: &displays,
        viewer_meter: &world.viewer_meter,
        monitor_meter: &world.monitor_meter,
    };
    let mut before = None;
    let mut rec: Option<Recorder> = None;
    let mut correct = true;
    let mut commit_ms = Vec::new();

    for (i, outage) in sched.chunks(COMMITS_PER_OUTAGE).enumerate() {
        if i == plan.warmup {
            before = Some(begin_phase(&watched));
            rec = Some(Recorder::new(plan, Instant::now()));
            commit_ms.clear();
        }
        plan.before_op(i);
        let recovery = &world.viewer.conn_stats().recovery;
        let (catchups, resynced) = (
            recovery.replay_catchups.get(),
            recovery.resync_objects.get(),
        );
        let healed = cycle(world, outage, &mut commit_ms);
        // Every cycle must recover by replay alone.
        let by_replay = recovery.replay_catchups.get() == catchups + 1
            && recovery.resync_objects.get() == resynced;
        correct &= by_replay;
        let ok = by_replay && healed.is_some();
        match rec.as_mut() {
            Some(r) => {
                r.record(healed.as_ref().filter(|_| ok).map(|h| h.current));
                if let Some(h) = &healed {
                    phase.resume_ms.push(stats::ms(h.resume));
                    phase
                        .catchup_ms
                        .push(stats::ms(h.current.saturating_sub(h.resume)));
                }
            }
            None => phase.warmup_failed += usize::from(!ok),
        }
        if healed.is_none() {
            // The viewer may still be away; later cycles cannot be timed.
            break;
        }
    }

    let rec = rec.unwrap_or_else(|| Recorder::new(plan, Instant::now()));
    phase.finish(plan, rec, &watched, &before.unwrap_or_default());
    phase.commit_ms.extend(commit_ms);
    phase.cycles += plan.measured;

    for v in &world.views {
        correct &= v.all_committed(&world.monitor)?;
    }
    Ok(correct)
}
