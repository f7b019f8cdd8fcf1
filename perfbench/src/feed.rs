//! `feed`: the paper's headline path under an open-loop update stream.
//!
//! One monitor connection commits at a fixed offered rate, well under
//! saturation; each commit sets `Utilization` on four seeded-random links
//! out of 256. One viewer connection holds two displays on one
//! client-wide display cache: colour-coded links 0–191 and width-coded
//! links 64–255. An op is one commit's refresh, timed from the commit's
//! *due* time to the moment every display holding its links shows the
//! new value, so a stall also charges the ops queued behind it.

use crate::bed::{self, Bed, Watched};
use crate::host::Rng;
use crate::measure::{begin_phase, Phase, Plan, Recorder, SLICES};
use crate::stats;
use crate::Args;
use displaydb::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const LINKS: usize = 256;
const LINKS_PER_COMMIT: usize = 4;
/// Offered commit rate.
pub const RATE_PER_S: usize = 500;
/// A refresh that has not landed this long after its due time failed.
const DEADLINE: Duration = Duration::from_secs(1);
/// How long the viewer blocks on one display before re-checking.
const PUMP_WAIT: Duration = Duration::from_millis(2);

/// One display over a contiguous range of links.
pub struct View {
    pub display: Arc<Display>,
    pub class: Arc<DisplayClassDef>,
    /// Link index → display object.
    pub ids: HashMap<usize, DoId>,
}

impl View {
    /// Open a display of `class` over links `range`.
    pub fn open(
        viewer: &Arc<DbClient>,
        cache: &Arc<DisplayCache>,
        name: &str,
        class: Arc<DisplayClassDef>,
        oids: &[Oid],
        range: std::ops::Range<usize>,
    ) -> DbResult<Self> {
        let display = Display::open(Arc::clone(viewer), Arc::clone(cache), name);
        let mut ids = HashMap::with_capacity(range.len());
        for i in range {
            ids.insert(i, display.add_object(&class, vec![oids[i]])?);
        }
        Ok(Self {
            display,
            class,
            ids,
        })
    }

    /// Whether this view shows at least `value` for `link` (or does not
    /// hold the link at all).
    pub fn shows_at_least(&self, link: usize, value: f64) -> bool {
        self.ids
            .get(&link)
            .is_none_or(|&id| bed::shown_utilization(&self.display, id).is_some_and(|u| u >= value))
    }

    /// The oracle: every object equals a fresh derivation from committed
    /// state.
    pub fn all_committed(&self, reader: &Arc<DbClient>) -> DbResult<bool> {
        for &id in self.ids.values() {
            let Some(object) = self.display.object(id) else {
                return Ok(false);
            };
            if !bed::matches_committed(reader, &self.class, &object)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The two displays every feed-shaped viewer holds.
pub fn open_views(viewer: &Arc<DbClient>, oids: &[Oid]) -> DbResult<[View; 2]> {
    let cache = Arc::new(DisplayCache::new());
    Ok([
        View::open(
            viewer,
            &cache,
            "color",
            color_coded_link("Utilization"),
            oids,
            0..192,
        )?,
        View::open(
            viewer,
            &cache,
            "width",
            width_coded_link("Utilization"),
            oids,
            64..256,
        )?,
    ])
}

/// The `Utilization` commit `g` of `n` writes: above every loaded value
/// and increasing in `g`, so "shows at least this" proves commit `g` (or
/// a later one) reached the display.
pub fn commit_value(g: usize, n: usize) -> f64 {
    bed::LOADED_MAX + 0.85 * (g + 1) as f64 / (n + 1) as f64
}

/// Seeded commit schedule: `n` commits of four distinct links each.
pub fn schedule(rng: &mut Rng, n: usize) -> Vec<Vec<(usize, f64)>> {
    (0..n)
        .map(|g| {
            rng.distinct(LINKS_PER_COMMIT, LINKS as u64)
                .into_iter()
                .map(|l| (l as usize, commit_value(g, n)))
                .collect()
        })
        .collect()
}

struct World {
    bed: Bed,
    monitor: Arc<DbClient>,
    viewer: Arc<DbClient>,
    views: [View; 2],
    oids: Vec<Oid>,
    monitor_meter: Arc<WireMeter>,
    viewer_meter: Arc<WireMeter>,
}

fn setup(args: &Args, attempt: usize) -> DbResult<World> {
    let bed = Bed::start(args.work_dir(attempt))?;
    let monitor_meter = WireMeter::new();
    let viewer_meter = WireMeter::new();
    let monitor = bed.connect("monitor", bed::DEFAULT_CACHE, &monitor_meter)?;
    let mut rng = Rng::new(args.seed);
    let (oids, _) = bed::load_links(&monitor, &bed.catalog, LINKS, &mut rng)?;
    let viewer = bed.connect("viewer", bed::DEFAULT_CACHE, &viewer_meter)?;
    let views = open_views(&viewer, &oids)?;
    Ok(World {
        bed,
        monitor,
        viewer,
        views,
        oids,
        monitor_meter,
        viewer_meter,
    })
}

/// Run the workload.
pub fn run(args: &Args) -> DbResult<(Phase, bool)> {
    let plan = Plan::new(
        RATE_PER_S / SLICES,
        RATE_PER_S * args.seconds / SLICES,
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
    let mut rng = Rng::for_slice(seed ^ 0xfeed, slice);
    let sched = schedule(&mut rng, plan.total());
    let oid_writes: Vec<Vec<(Oid, f64)>> = sched
        .iter()
        .map(|c| c.iter().map(|&(l, v)| (world.oids[l], v)).collect())
        .collect();

    let displays: Vec<&Display> = world.views.iter().map(|v| &*v.display).collect();
    let watched = Watched {
        bed: &world.bed,
        viewer: &world.viewer,
        displays: &displays,
        viewer_meter: &world.viewer_meter,
        monitor_meter: &world.monitor_meter,
    };

    let period = Duration::from_secs(1) / RATE_PER_S as u32;
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + period * i as u32;
    let mut before = None;
    let mut rec: Option<Recorder> = None;
    let mut warm_failed = 0;
    let mut apply_us = Vec::new();

    let (commit_ms, late_us) = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            let mut commit_ms = Vec::with_capacity(plan.measured);
            let mut late_us = Vec::with_capacity(plan.measured);
            for (i, writes) in oid_writes.iter().enumerate() {
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                }
                plan.before_op(i);
                let late = Instant::now().saturating_duration_since(due(i));
                let result = bed::commit_utilizations(&world.monitor, &world.bed.catalog, writes);
                if i >= plan.warmup {
                    late_us.push(stats::us(late));
                    commit_ms.push(result.ok().map(stats::ms));
                }
            }
            (commit_ms, late_us)
        });

        // The viewer: pump both displays and retire commits in order.
        let mut next = 0;
        while next < plan.total() {
            if next == plan.warmup && rec.is_none() {
                before = Some(begin_phase(&watched));
                rec = Some(Recorder::new(plan, due(next)));
            }
            let pending = world
                .views
                .iter()
                .position(|v| sched[next].iter().any(|&(l, x)| !v.shows_at_least(l, x)));
            if let Some(w) = pending {
                let (first, second) = (&world.views[w], &world.views[1 - w]);
                let alive = first.display.wait_and_process(PUMP_WAIT).is_ok();
                let start = Instant::now();
                let handled = second.display.process_pending().unwrap_or(0);
                if handled > 0 {
                    apply_us.push(stats::us(start.elapsed()) / handled as f64);
                }
                if !alive {
                    break;
                }
            }
            let now = Instant::now();
            loop {
                let done = next < plan.total()
                    && world
                        .views
                        .iter()
                        .all(|v| sched[next].iter().all(|&(l, x)| v.shows_at_least(l, x)));
                let late = next < plan.total() && now > due(next) + DEADLINE;
                if !done && !late {
                    break;
                }
                let latency = done.then(|| now.saturating_duration_since(due(next)));
                match rec.as_mut() {
                    Some(r) => r.record(latency),
                    None => warm_failed += usize::from(!done),
                }
                next += 1;
                if next == plan.warmup {
                    break;
                }
            }
        }
        monitor.join().expect("monitor thread panicked")
    });

    let rec = rec.unwrap_or_else(|| Recorder::new(plan, Instant::now()));
    phase.finish(plan, rec, &watched, &before.unwrap_or_default());
    phase.commit_ms.extend(commit_ms);
    phase.late_us.extend(late_us);
    phase.apply_us.extend(apply_us);
    phase.warmup_failed += warm_failed;

    // Quiesced: every commit landed or missed its deadline. Drain what
    // is left and hold every display object against committed state.
    for v in &world.views {
        v.display.process_pending()?;
    }
    let mut correct = true;
    for v in &world.views {
        correct &= v.all_committed(&world.monitor)?;
    }
    Ok(correct)
}
