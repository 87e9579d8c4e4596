//! Time-to-verdict benchmark for the arrayeq equivalence checker.
//!
//! ```text
//! perfbench --workload <deep-seq|wide-par|edit-loop|daemon-mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--workdir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! Every wrong verdict is named on standard error.  See `README.md`.

mod closed;
mod daemon;
mod inputs;
mod stats;

use stats::{cpu_ticks, median, quantile, Outcome, Probe};
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for the daemon's store and socket.
    pub workdir: PathBuf,
}

const WORKLOADS: [&str; 4] = ["deep-seq", "wide-par", "edit-loop", "daemon-mix"];

/// The per-layer metrics of a traced run, with their units.  A layer the
/// workload does not call reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("lang.parse_ms", "ms"),
    ("lang.check_ms", "ms"),
    ("addg.extract_ms", "ms"),
    ("addg.fingerprint_ms", "ms"),
    ("addg.nodes", "count"),
    ("core.check_ms", "ms"),
    ("core.flatten_ms", "ms"),
    ("core.match_ms", "ms"),
    ("core.compositions", "count"),
    ("core.flattenings", "count"),
    ("core.matchings", "count"),
    ("core.terms_flattened", "count"),
    ("core.paths_compared", "count"),
    ("core.table_lookups", "count"),
    ("core.table_hit_share", "share"),
    ("core.parallel_tasks", "count"),
    ("core.cone_positions", "count"),
    ("omega.composition_ms", "ms"),
    ("omega.feasibility_ms", "ms"),
    ("omega.simplify_ms", "ms"),
    ("omega.conjuncts_subsumed", "count"),
    ("omega.bigint_fallbacks", "count"),
    ("witness.extract_ms", "ms"),
    ("witness.confirmed_share", "share"),
    ("engine.baseline_parse_ms", "ms"),
    ("engine.baseline_hits", "count"),
    ("engine.export_baseline_ms", "ms"),
    ("engine.shared_hit_share", "share"),
    ("engine.feasibility_hit_share", "share"),
    ("engine.store_open_ms", "ms"),
    ("engine.store_flush_ms", "ms"),
    ("engine.store_hits", "count"),
    ("engine.unattributed_ms", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("bench.late_ms_p90", "ms"),
    ("bench.calib_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// A time and the instant it ended.
pub type Timed = (f64, Instant);

/// The six end-to-end metrics, from one run's set-up seconds, timed
/// verdicts (ms), timed seconds and peak memory.  Each set-up and verdict
/// time is scaled to the reference host's speed by the probe timed right
/// after it, and the rate by the same factor as the verdict times in sum;
/// the unscaled figures go to standard error.
pub fn end_to_end(
    setups: &[Timed],
    latencies: &[Timed],
    timed_s: f64,
    failed: u64,
    peak_rss_mb: f64,
    probe: &Probe,
) -> Vec<(&'static str, f64, &'static str)> {
    let scaled =
        |v: &[Timed]| -> Vec<f64> { v.iter().map(|&(x, at)| probe.scale(x, at)).collect() };
    let unscaled = |v: &[Timed]| -> Vec<f64> { v.iter().map(|t| t.0).collect() };
    let (raw, lat) = (unscaled(latencies), scaled(latencies));
    let n = lat.len() as f64;
    let slowdown = raw.iter().sum::<f64>() / lat.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let raw_setup = median(&unscaled(setups));
    eprintln!(
        "unscaled: setup_s {raw_setup:.4} s, p50 {:.3} ms, p90 {:.3} ms, {:.3} verdicts/s; \
         probe median {:.4} ms over {} timings",
        median(&raw),
        quantile(&raw, 0.9),
        n / timed_s,
        probe.median_ms(),
        probe.timings()
    );
    vec![
        ("setup_s", median(&scaled(setups)), "s"),
        ("verdict_ms_p50", median(&lat), "ms"),
        ("verdict_ms_p90", quantile(&lat, 0.9), "ms"),
        ("verdicts_per_s", n / timed_s * slowdown, "1/s"),
        ("ok_share", (n - failed as f64) / n.max(1.0), "share"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--workdir <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workdir: PathBuf::from(".perfbench-run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value),
            "--seconds" => args.seconds = parse(&flag, &value),
            "--trace" => {
                args.trace = match parse::<u8>(&flag, &value) {
                    0 => false,
                    1 => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--workdir" => args.workdir = PathBuf::from(&value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

fn main() {
    let args = parse_args();
    let ticks_before = cpu_ticks();
    let mut outcome: Outcome = if args.workload == "daemon-mix" {
        daemon::run(&args)
    } else {
        closed::run(&args)
    };
    if args.trace {
        let measured = std::mem::take(&mut outcome.metrics);
        outcome.metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = measured
                    .iter()
                    .find(|(n, ..)| n == name)
                    .map_or(0.0, |(_, v, _)| *v);
                (*name, value, *unit)
            })
            .collect();
    }
    let steal = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1} %", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_owned(),
    };
    eprintln!(
        "perfbench {} seed {}: hypervisor steal {steal} of machine CPU time",
        args.workload, args.seed
    );
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<30} {value:>14.4} {unit}");
    }
    println!("{}", outcome.to_json());
}
