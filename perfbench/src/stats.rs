//! Order statistics, host probes and the result line.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Linear-interpolated quantile of `values` (`q` in [0, 1]); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What the probe took on the reference host (2-vCPU Firecracker VM on an
/// Intel Xeon) in a typical phase.  End-to-end times are reported scaled
/// to it, so that a run reads as if the host had kept that speed.
pub const PROBE_REFERENCE_MS: f64 = 2.0;

const PROBE_ROWS: usize = 12_000;
const PROBE_ROW: usize = 8;
const PROBE_KEYS: usize = 4096;

/// A fixed task timed between requests to track the host's speed, which
/// drifts by a quarter or more over seconds to minutes.  It is shaped like
/// the checker's own work: rows of small integers hashed into a map of
/// about 1 MiB, looked up at random, and sorted keys.  A plain integer
/// loop does not see the memory-bound part of the drift.  The probe keeps
/// its memory for the whole run, so its time does not depend on what the
/// program left in the allocator.
///
/// On the reference host a request's time moved with the probe timed right
/// after it (r = 0.95 over windows of 40 deep-seq requests), so each time
/// is scaled by the first probe that follows it.
pub struct Probe {
    rows: Vec<i64>,
    map: HashMap<u64, usize>,
    keys: Vec<u64>,
    /// Each timing with the instant it ended.
    samples: Vec<(Instant, f64)>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            rows: vec![0; PROBE_ROWS * PROBE_ROW],
            map: HashMap::with_capacity(PROBE_ROWS),
            keys: vec![0; PROBE_KEYS],
            samples: Vec::new(),
        }
    }
}

impl Probe {
    /// Times the probe once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x: u64 = black_box(0x2545_F491_4F6C_DD1D);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.map.clear();
        for (r, row) in self.rows.chunks_mut(PROBE_ROW).enumerate() {
            for v in row.iter_mut() {
                *v = (next() % 1024) as i64 - 512;
            }
            self.map.insert(next(), r);
        }
        let keys: Vec<u64> = self.map.keys().copied().take(PROBE_KEYS).collect();
        let mut acc = 0i64;
        for i in 0..black_box(40_000) {
            let k = keys[(next() as usize) % keys.len()];
            let r = self.map[&k];
            acc = acc.wrapping_add(self.rows[r * PROBE_ROW + i % PROBE_ROW]);
        }
        for _ in 0..4 {
            for k in self.keys.iter_mut() {
                *k = next();
            }
            self.keys.sort_unstable();
            acc = acc.wrapping_add(self.keys[PROBE_KEYS / 2] as i64);
        }
        black_box(acc);
        self.samples.push((Instant::now(), ms_since(t)));
    }

    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&ms)
    }

    pub fn timings(&self) -> usize {
        self.samples.len()
    }

    /// `value`, a time that ended at `at`, at the reference host's speed.
    pub fn scale(&self, value: f64, at: Instant) -> f64 {
        let after = self.samples.iter().find(|s| s.0 >= at);
        match after.or(self.samples.last()) {
            Some(&(_, ms)) => value * PROBE_REFERENCE_MS / ms,
            None => value,
        }
    }

    /// Adds another probe's timings.
    pub fn extend(&mut self, other: Probe) {
        self.samples.extend(other.samples);
        self.samples.sort_by_key(|s| s.0);
    }
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`: on a
/// virtual machine, time the hypervisor gave our vCPUs to someone else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer accumulator of the traced run.  Times are summed over every
/// traced request and reported as a mean per request; the caller adds work
/// counts for a fixed number of first requests only, so that they do not
/// depend on how fast the host ran.
#[derive(Default)]
pub struct Layers {
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add_ms(&mut self, name: &'static str, ms: f64) {
        *self.ms.entry(name).or_default() += ms;
    }

    pub fn add_count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn mean_ms(&self, name: &str, requests: usize) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0) / requests.max(1) as f64
    }
}

/// The engine's metered phases as per-layer metric names with their total
/// milliseconds.
pub fn phase_ms(snap: &arrayeq_trace::MetricsSnapshot) -> Vec<(&'static str, f64)> {
    snap.metrics
        .iter()
        .filter_map(|m| {
            let name = match m.name {
                "flatten" => "core.flatten_ms",
                "match" => "core.match_ms",
                "composition" => "omega.composition_ms",
                "feasibility" => "omega.feasibility_ms",
                "simplify" => "omega.simplify_ms",
                _ => return None,
            };
            Some((name, m.sum_us as f64 / 1e3))
        })
        .collect()
}

/// `num / den`, 0 when nothing was attempted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The benchmark's result: the known-answer tally plus named metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failures outside the timed requests (set-up, warm-up).
    pub setup_failed: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && !self.setup_failed && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
