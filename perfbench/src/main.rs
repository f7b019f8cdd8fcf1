//! End-to-end benchmark of the display-lock chain: commit → sharded DLM
//! intersect → outbox → wire → DLC → display refresh, over `LocalHub`
//! with real clients and displays.
//!
//! ```text
//! perfbench --workload <feed|browse|reconnect> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run does a fixed amount of work derived from `--seconds`, checks
//! every display against committed state, and prints two JSON lines: a
//! header (seed, op counts, server configuration) and, last, the result
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and metrics.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the Linux process CPU clock and assumes a 64-bit timespec");

mod bed;
mod browse;
mod feed;
mod host;
mod measure;
mod reconnect;
mod stats;

use displaydb::common::DbResult;
use measure::{Phase, SLICES};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Calibration loops timed at each end of a run.
const CALIBRATIONS: usize = 3;

const WORKLOADS: [&str; 3] = ["feed", "browse", "reconnect"];

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    work: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(bad)?,
                "--seconds" => seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds must be 1..=600, got {seconds}"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            work: PathBuf::from(".perfbench-work").join(std::process::id().to_string()),
        })
    }

    /// A fresh server data directory for set-up `attempt`, under the
    /// current directory.
    pub fn work_dir(&self, attempt: usize) -> PathBuf {
        self.work.join(format!("{}-{attempt}", self.workload))
    }
}

/// Run a workload slice by slice: set it up afresh (timed), measure
/// one slice on it, tear it down (untimed), [`SLICES`] times. Returns the
/// phase and whether every slice passed its correctness check.
pub fn run_slices<W>(
    mut setup: impl FnMut(usize) -> DbResult<W>,
    mut measure: impl FnMut(&W, usize, &mut Phase) -> DbResult<bool>,
) -> DbResult<(Phase, bool)> {
    let mut phase = Phase::default();
    let mut correct = true;
    for slice in 0..SLICES {
        phase.heap_base = host::live_heap_bytes();
        let start = Instant::now();
        let world = setup(slice)?;
        phase.setup_s.push(start.elapsed().as_secs_f64());
        correct &= measure(&world, slice, &mut phase)?;
    }
    Ok((phase, correct))
}

fn calibrate(into: &mut Vec<f64>) {
    for _ in 0..CALIBRATIONS {
        into.push(stats::ms(host::calibrate()));
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut calib = Vec::new();
    calibrate(&mut calib);
    let result = match args.workload.as_str() {
        "feed" => feed::run(&args),
        "browse" => browse::run(&args),
        _ => reconnect::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".perfbench-work");
    let (mut phase, correct) = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    calibrate(&mut calib);
    phase.calib_ms = calib;

    let failed = phase.warmup_failed + phase.op_ms.iter().filter(|o| o.is_none()).count();
    let attempted = phase.warmup + phase.ops();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"warmup_ops\": {}, \"ops\": {}, \"ops_failed\": {}, \"setups\": {SLICES}, \
         \"windows\": {}, \"setup_s_each\": {:?}, \"host.calib_ms\": {}, \"server\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        phase.warmup,
        phase.ops(),
        failed,
        measure::WINDOWS,
        phase.setup_s,
        stats::median(&phase.calib_ms).unwrap_or(0.0),
        bed::config_json(),
    );
    let metrics = if args.trace {
        phase.per_layer()
    } else {
        phase.end_to_end()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a display disagreed with committed state");
        ExitCode::FAILURE
    }
}
