//! `browse`: the read and lock-acquire path, closed loop, no think time.
//!
//! One user connection with a 1 MiB client cache opens a display over a
//! window of 64 consecutive links, drawn 80/20 skewed from 8000 links
//! (about 4 MB with their operational notes: twice the server buffer
//! pool, four times the client cache), checks it, and closes it. An op
//! is the open: `Display::open` plus the 64 `add_object` calls. No
//! watched object is ever written, so the notification path stays idle;
//! after each op the writer connection commits one update to a probe
//! node no display holds, which times a commit that fans out to nobody.

use crate::bed::{self, Bed, Watched};
use crate::host::Rng;
use crate::measure::{begin_phase, Phase, Plan, Recorder, SLICES};
use crate::stats;
use crate::Args;
use displaydb::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LINKS: usize = 8000;
const WINDOW: usize = 64;
const USER_CACHE: usize = 1 << 20;
/// Closed-loop ops per second of `--seconds`: a fixed op count, sized
/// so a run takes about `--seconds` on a 2-vCPU host.
const OPS_PER_S: usize = 80;
/// An open slower than this failed.
const DEADLINE: Duration = Duration::from_secs(5);

struct World {
    bed: Bed,
    writer: Arc<DbClient>,
    user: Arc<DbClient>,
    cache: Arc<DisplayCache>,
    oids: Vec<Oid>,
    utils: Vec<f64>,
    probe: Oid,
    writer_meter: Arc<WireMeter>,
    user_meter: Arc<WireMeter>,
}

fn setup(args: &Args, attempt: usize) -> DbResult<World> {
    let bed = Bed::start(args.work_dir(attempt))?;
    let writer_meter = WireMeter::new();
    let user_meter = WireMeter::new();
    // The writer only loads and probes: a small cache keeps the loaded
    // links from sitting in a second client cache.
    let writer = bed.connect("writer", USER_CACHE, &writer_meter)?;
    let mut rng = Rng::new(args.seed);
    let (oids, utils) = bed::load_links(&writer, &bed.catalog, LINKS, &mut rng)?;
    let mut txn = writer.begin()?;
    let probe = txn
        .create(
            writer
                .new_object("Node")?
                .with(&bed.catalog, "Name", "probe")?,
        )?
        .oid;
    txn.commit()?;
    let user = bed.connect("user", USER_CACHE, &user_meter)?;
    Ok(World {
        bed,
        writer,
        user,
        cache: Arc::new(DisplayCache::new()),
        oids,
        utils,
        probe,
        writer_meter,
        user_meter,
    })
}

/// Seeded window starts, 80/20 skewed: a seeded hot fifth of the
/// possible starts receives four ops of every five; the fifth op, at a
/// seeded place in each block of five, starts in the cold remainder.
/// Fixing the share per block, rather than drawing it per op, keeps the
/// miss count, and so the bytes moved, from varying with the seed.
fn window_starts(rng: &mut Rng, n: usize) -> Vec<usize> {
    let starts = (LINKS - WINDOW + 1) as u64;
    let hot_len = starts / 5;
    let hot_at = rng.below(starts - hot_len);
    let mut cold_slot = 0;
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                cold_slot = rng.below(5) as usize;
            }
            let s = if i % 5 != cold_slot {
                hot_at + rng.below(hot_len)
            } else {
                // Uniform over the cold four fifths.
                let c = rng.below(starts - hot_len);
                if c < hot_at {
                    c
                } else {
                    c + hot_len
                }
            };
            s as usize
        })
        .collect()
}

/// One browse op's outcome.
struct Opened {
    display: Arc<Display>,
    ids: Vec<DoId>,
    add_us: Vec<f64>,
}

fn open_window(w: &World, class: &Arc<DisplayClassDef>, start: usize) -> DbResult<Opened> {
    let display = Display::open(Arc::clone(&w.user), Arc::clone(&w.cache), "browse");
    let mut ids = Vec::with_capacity(WINDOW);
    let mut add_us = Vec::with_capacity(WINDOW);
    for &oid in &w.oids[start..start + WINDOW] {
        let t = Instant::now();
        ids.push(display.add_object(class, vec![oid])?);
        add_us.push(stats::us(t.elapsed()));
    }
    Ok(Opened {
        display,
        ids,
        add_us,
    })
}

/// Every object shows the utilization its link was loaded with.
fn shows_loaded(w: &World, opened: &Opened, start: usize) -> bool {
    opened
        .ids
        .iter()
        .enumerate()
        .all(|(k, &id)| bed::shown_utilization(&opened.display, id) == Some(w.utils[start + k]))
}

/// Run the workload.
pub fn run(args: &Args) -> DbResult<(Phase, bool)> {
    // A longer warm-up than the other workloads: it fills the client
    // cache to its steady state before the slice is measured.
    let plan = Plan::new(OPS_PER_S / 2, OPS_PER_S * args.seconds / SLICES, args.trace);
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
    let mut rng = Rng::for_slice(seed ^ 0xb0a5e, slice);
    let starts = window_starts(&mut rng, plan.total());
    let class = color_coded_link("Utilization");

    let watched = Watched {
        bed: &world.bed,
        viewer: &world.user,
        displays: &[],
        viewer_meter: &world.user_meter,
        monitor_meter: &world.writer_meter,
    };
    let mut before = None;
    let mut rec: Option<Recorder> = None;
    let mut correct = true;
    let mut commit_ms = Vec::with_capacity(plan.measured);

    for (i, &start) in starts.iter().enumerate() {
        if i == plan.warmup {
            before = Some(begin_phase(&watched));
            rec = Some(Recorder::new(plan, Instant::now()));
        }
        plan.before_op(i);
        let t = Instant::now();
        let opened = open_window(world, &class, start);
        let open_time = t.elapsed();
        let mut ok = opened.is_ok() && open_time <= DEADLINE;
        if let Ok(opened) = &opened {
            // Correctness, outside the timed open: the window shows the
            // loaded state; the last window also against fresh reads.
            let matches = shows_loaded(world, opened, start)
                && (i + 1 < plan.total()
                    || opened.ids.iter().all(|&id| {
                        opened.display.object(id).is_some_and(|o| {
                            bed::matches_committed(&world.writer, &class, &o).unwrap_or(false)
                        })
                    }));
            correct &= matches;
            ok &= matches;
            if rec.is_some() {
                phase.open_ms.push(stats::ms(open_time));
                phase.add_object_us.extend_from_slice(&opened.add_us);
                let shown = world.cache.stats();
                phase
                    .display_bytes_per_do
                    .push(stats::ratio(shown.bytes as f64, shown.objects as f64));
                phase.cache_bytes_per_object.push(stats::ratio(
                    world.user.cache().used_bytes() as f64,
                    world.user.cache().len() as f64,
                ));
            }
            let t = Instant::now();
            ok &= opened.display.close().is_ok();
            if rec.is_some() {
                phase.close_ms.push(stats::ms(t.elapsed()));
            }
        }
        let probe = bed::commit_notes(&world.writer, &world.bed.catalog, world.probe, i);
        ok &= probe.is_ok();
        match rec.as_mut() {
            Some(r) => {
                r.record(ok.then_some(open_time));
                commit_ms.push(probe.ok().map(stats::ms));
            }
            None => phase.warmup_failed += usize::from(!ok),
        }
    }

    let rec = rec.expect("browse measures at least one op");
    phase.finish(plan, rec, &watched, &before.unwrap_or_default());
    phase.commit_ms.extend(commit_ms);
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_starts_are_seeded_skewed_and_in_range() {
        let a = window_starts(&mut Rng::new(9), 5000);
        assert_eq!(a, window_starts(&mut Rng::new(9), 5000));
        assert!(a.iter().all(|&s| s + WINDOW <= LINKS));
        // The densest fifth of the range holds about 80% of the starts.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let fifth = (LINKS - WINDOW + 1) / 5;
        let best = (0..sorted.len())
            .map(|i| sorted[i..].partition_point(|&s| s < sorted[i] + fifth))
            .max()
            .unwrap();
        let share = best as f64 / a.len() as f64;
        assert!((0.75..0.9).contains(&share), "hot share {share}");
    }
}
