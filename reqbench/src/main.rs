//! reqbench — request-path benchmark of the PolygraphMR reproduction.
//!
//! Runs one named workload under a seed, checks every output against a
//! sequential oracle, and prints its metrics; the last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`).
//!
//! ```text
//! cargo run --release --offline --manifest-path reqbench/Cargo.toml -- \
//!     --workload serve-digits --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `serve-digits`, `batch-objects`, `guarded-objects`. With
//! `--trace 0` the end-to-end metrics are reported: set-up time, peak
//! RSS, CPU milliseconds per request in the heavy and saturated phases,
//! and member activations per request. Wall-clock throughput, latency
//! percentiles and the light phase's CPU cost are printed as `info`
//! lines: on a shared virtual machine they follow the host's load (CPU
//! time leaves out the time the host takes the vCPUs away, but not a
//! neighbour slowing a half-idle core). With `--trace 1`
//! the traced run reports the per-layer metrics instead. The process
//! exits non-zero when any output check fails.

mod batch;
mod fixture;
mod report;
mod serve;
mod trace;
mod util;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["serve-digits", "batch-objects", "guarded-objects"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Fills the trained-member cache in a child process (training any
/// member that is missing), so that neither the training time nor its
/// memory shows in the measuring process. Returns the child's seconds.
fn prepare_cache_in_child() -> f64 {
    let t = util::now();
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let status = std::process::Command::new(exe)
        .arg(PREPARE_FLAG)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run the cache-filling child");
    assert!(status.success(), "filling the trained-member cache failed: {status}");
    util::secs_since(t)
}

/// The child mode of [`prepare_cache_in_child`].
const PREPARE_FLAG: &str = "--prepare-cache";

fn main() {
    if std::env::args().nth(1).as_deref() == Some(PREPARE_FLAG) {
        fixture::prepare_cache();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reqbench: {e}");
            std::process::exit(2);
        }
    };
    let prep_s = prepare_cache_in_child();
    // Warm now: points this process at the cache and reads every blob once.
    fixture::prepare_cache();
    println!(
        "reqbench workload {} seed {} seconds {} trace {} nproc {} scale {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc(),
        fixture::SCALE
    );
    let report = match (args.workload.as_str(), args.trace) {
        (w, true) => trace::run(w, args.seed, args.seconds),
        ("serve-digits", false) => serve::run(args.seed, args.seconds, prep_s),
        ("batch-objects", false) => batch::run(false, args.seed, args.seconds, prep_s),
        (_, false) => batch::run(true, args.seed, args.seconds, prep_s),
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("reqbench: metric {} is not finite", m.name);
        std::process::exit(1);
    }
    println!("{}", report.to_json());
    if report.failed > 0 {
        eprintln!(
            "reqbench: {} of {} operations failed their output check",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}
