//! The closed-loop workloads: deep-seq, wide-par and edit-loop.
//!
//! One client sends the next request when the previous verdict is back.
//! Every request runs on a fresh thread with a fresh `Verifier`, as a CLI
//! process would: the omega crate scopes its thread-local feasibility memo
//! by the address of the installed cache, so a `Verifier` re-created on a
//! long-lived thread can land on a freed one's address and inherit its warm,
//! growing memo, which no CLI process sees.

use crate::inputs::{self, Expect, Pair};
use crate::stats::{ms_since, peak_rss_mb, phase_ms, quantile, share, Layers, Outcome, Probe};
use crate::{Args, Timed};
use arrayeq_addg::{extract, fingerprints};
use arrayeq_core::{
    verify_addgs_with_fps, BaselineProofs, CheckContext, CheckOptions, Report,
    SharedEquivalenceTable, SharedTableKey, Verdict,
};
use arrayeq_engine::{Baseline, BaselineStatus, Verifier, VerifyRequest, WitnessOptions};
use arrayeq_lang::classcheck::assert_in_class;
use arrayeq_lang::defuse::assert_def_use_correct;
use arrayeq_lang::parser::parse_program;
use arrayeq_omega::{with_feasibility_cache, FeasibilityCache};
use arrayeq_witness::extract_witnesses;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads per wide-par request: the 2 vCPUs of the reference host.
/// Fixed rather than read from the host so the work split, and with it the
/// table counters, does not change with the machine.
const WIDE_JOBS: usize = 2;

/// Distinct requests per pool; a run cycles through its pool.  A 25 s run
/// sends each deep-seq request about twice, so p50 and p90 are taken over
/// many distinct kernels rather than over one seed's few.
const POOL: usize = 160;
/// Baseline kernels of edit-loop.
const EDIT_KERNELS: usize = 6;
/// The traced run sums work counts over this many first requests.
const COUNTED: usize = 40;
/// Set-ups per plain run: one before the timed loop and one after each of
/// `setups - 1` equal slices of it, so that their median, `setup_s`,
/// samples the host over the whole run; each set-up is scaled by the probe
/// timed right after it.  A one-shot set-up (three warm-up requests) is
/// short, so those take many; an edit-loop set-up (six from-scratch checks
/// and exports) takes about 2 s, so those take few.
const ONE_SHOT_SETUPS: usize = 16;
const EDIT_SETUPS: usize = 5;

/// One closed-loop workload: its request pool and how to run one request.
struct Workload {
    pool: Vec<Pair>,
    /// Baseline document per request (edit-loop only).
    baselines: Vec<String>,
    jobs: usize,
    witnesses: bool,
}

impl Workload {
    fn request(&self, i: usize) -> (&Pair, Option<&str>) {
        let i = i % self.pool.len();
        (&self.pool[i], self.baselines.get(i).map(String::as_str))
    }
}

/// What one request came back with, judged outside its timer.
struct Done {
    ms: f64,
    report: Result<Report, String>,
    applied: bool,
}

fn judge(pair: &Pair, done: &Done) -> bool {
    let report = match &done.report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("WRONG {}: error: {e}", pair.name);
            return false;
        }
    };
    let ok = match pair.expect {
        Expect::Equivalent => report.verdict == Verdict::Equivalent,
        Expect::Witnessed => {
            report.verdict == Verdict::NotEquivalent && report.witnesses.iter().any(|w| w.confirmed)
        }
    };
    if !ok {
        eprintln!(
            "WRONG {}: expected {:?}, got {:?} ({} confirmed witnesses)",
            pair.name,
            pair.expect,
            report.verdict,
            report.witnesses.iter().filter(|w| w.confirmed).count()
        );
    }
    if !done.applied {
        eprintln!("WRONG {}: baseline was rejected", pair.name);
    }
    ok && done.applied
}

fn fresh_verifier(w: &Workload, metrics: bool) -> Verifier {
    Verifier::builder()
        .jobs(w.jobs)
        .witnesses(w.witnesses)
        .metrics(metrics)
        .build()
}

/// The untraced request: the engine's public entry point, timed whole.
fn run_plain(w: &Workload, pair: &Pair, baseline: Option<&str>) -> Done {
    let request = VerifyRequest::source(pair.original.clone(), pair.transformed.clone());
    std::thread::scope(|s| {
        s.spawn(|| {
            let t = Instant::now();
            let v = fresh_verifier(w, false);
            let (report, applied) = match baseline {
                None => (v.verify(&request).map(|o| o.report), true),
                Some(b) => match v.verify_incremental(&request, b) {
                    Ok(inc) => {
                        let applied = matches!(inc.baseline, BaselineStatus::Applied { .. });
                        (Ok(inc.outcome.report), applied)
                    }
                    Err(e) => (Err(e), true),
                },
            };
            Done {
                ms: ms_since(t),
                report: report.map_err(|e| e.to_string()),
                applied,
            }
        })
        .join()
        .expect("request thread never panics")
    })
}

/// The session caches a fresh `Verifier` installs around a request (its
/// shared equivalence table and feasibility memo), rebuilt here because the
/// engine's own are private: the traced pipeline publishes into and reads
/// from them as the engine's does, through plain mutex-guarded maps rather
/// than the engine's sharded ones.
#[derive(Default)]
struct Caches {
    table: Mutex<HashMap<SharedTableKey, bool>>,
    memo: Mutex<HashMap<u64, bool>>,
}

impl SharedEquivalenceTable for Caches {
    fn get(&self, key: &SharedTableKey) -> Option<bool> {
        self.table.lock().unwrap().get(key).copied()
    }

    fn put(&self, key: SharedTableKey, established: bool) {
        self.table.lock().unwrap().insert(key, established);
    }
}

impl FeasibilityCache for Caches {
    fn get(&self, key: u64) -> Option<bool> {
        self.memo.lock().unwrap().get(&key).copied()
    }

    fn put(&self, key: u64, feasible: bool) {
        self.memo.lock().unwrap().insert(key, feasible);
    }
}

/// The traced request: the engine's pipeline for one request, called stage
/// by stage from outside so every layer gets its own clock.  README.md
/// lists where it differs from `Verifier::verify` and `verify_incremental`.
fn run_traced(
    w: &Workload,
    pair: &Pair,
    baseline: Option<&str>,
    layers: &mut Layers,
    count: bool,
) -> Done {
    std::thread::scope(|s| {
        s.spawn(|| traced_pipeline(w, pair, baseline, layers, count))
            .join()
            .expect("request thread never panics")
    })
}

fn traced_pipeline(
    w: &Workload,
    pair: &Pair,
    baseline: Option<&str>,
    layers: &mut Layers,
    count: bool,
) -> Done {
    let t = Instant::now();
    let v = fresh_verifier(w, true);
    let mut named = 0.0;
    let caches = Arc::new(Caches::default());
    let result = with_feasibility_cache(caches.clone(), || {
        stages(w, &v, &caches, pair, baseline, layers, count, &mut named)
    });
    let ms = ms_since(t);
    layers.add_ms("engine.unattributed_ms", ms - named);
    if let Some(snap) = v.metrics_snapshot() {
        for (name, ms) in phase_ms(&snap) {
            layers.add_ms(name, ms);
        }
    }
    if let Ok((report, _)) = &result {
        let st = &report.stats;
        if count {
            for (name, n) in [
                ("core.compositions", st.compositions),
                ("core.flattenings", st.flattenings),
                ("core.matchings", st.matchings),
                ("core.terms_flattened", st.terms_flattened),
                ("core.paths_compared", st.paths_compared),
                ("core.table_lookups", st.table_lookups),
                ("core.table_hits", st.table_hits),
                ("core.parallel_tasks", st.parallel_tasks),
                ("core.cone_positions", st.cone_positions),
                ("engine.baseline_hits", st.baseline_hits),
                ("omega.conjuncts_subsumed", st.conjuncts_subsumed),
                ("omega.bigint_fallbacks", st.bigint_fallbacks),
            ] {
                layers.add_count(name, n as f64);
            }
        }
        if pair.expect == Expect::Witnessed {
            layers.add_count("witness.requests", 1.0);
            if report.witnesses.iter().any(|w| w.confirmed) {
                layers.add_count("witness.confirmed", 1.0);
            }
        }
    }
    let (report, applied) = match result {
        Ok((r, a)) => (Ok(r), a),
        Err(e) => (Err(e), true),
    };
    Done {
        ms,
        report,
        applied,
    }
}

/// Times `ms_since(since)` under `name` and adds it to the named total.
fn lap(layers: &mut Layers, named: &mut f64, name: &'static str, since: Instant) {
    let ms = ms_since(since);
    layers.add_ms(name, ms);
    *named += ms;
}

/// parse, class and def-use checks, extraction, fingerprints, the baseline
/// (edit-loop), the traversal and witness extraction, in the engine's order.
#[allow(clippy::too_many_arguments)]
fn stages(
    w: &Workload,
    v: &Verifier,
    caches: &Caches,
    pair: &Pair,
    baseline: Option<&str>,
    layers: &mut Layers,
    count: bool,
    named: &mut f64,
) -> Result<(Report, bool), String> {
    let s = Instant::now();
    let p1 = parse_program(&pair.original).map_err(|e| e.to_string())?;
    let p2 = parse_program(&pair.transformed).map_err(|e| e.to_string())?;
    lap(layers, named, "lang.parse_ms", s);
    let s = Instant::now();
    for p in [&p1, &p2] {
        assert_in_class(p).map_err(|e| e.to_string())?;
        assert_def_use_correct(p).map_err(|e| e.to_string())?;
    }
    lap(layers, named, "lang.check_ms", s);
    let s = Instant::now();
    let g1 = extract(&p1).map_err(|e| e.to_string())?;
    let g2 = extract(&p2).map_err(|e| e.to_string())?;
    lap(layers, named, "addg.extract_ms", s);
    let s = Instant::now();
    let (f1, f2) = (fingerprints(&g1), fingerprints(&g2));
    lap(layers, named, "addg.fingerprint_ms", s);
    if count {
        layers.add_count("addg.nodes", (g1.node_count() + g2.node_count()) as f64);
    }
    let mut applied = true;
    let mut opts: CheckOptions = v.options().clone();
    let mut proofs = None;
    if let Some(text) = baseline {
        let s = Instant::now();
        let parsed = Baseline::parse(text)?;
        lap(layers, named, "engine.baseline_parse_ms", s);
        applied = parsed.options_fp == v.options_fingerprint();
        let p = BaselineProofs::from_entries(parsed.entries.iter().copied());
        // A copy of the engine's clean-output rule (`run_incremental`):
        // both fingerprints unchanged and the output's root obligation
        // proven by the baseline.
        opts.assume_clean = parsed
            .outputs
            .iter()
            .filter(|(name, fa, fb, dh)| {
                *fa == f1.array(name)
                    && *fb == f2.array(name)
                    && dh.is_some_and(|h| p.contains(&(*fa, *fb, h, h)))
            })
            .map(|(name, ..)| name.clone())
            .collect();
        proofs = Some(p);
    }
    let ctx = CheckContext {
        shared_table: Some(caches),
        baseline: proofs.as_ref(),
        ..CheckContext::default()
    };
    let s = Instant::now();
    let mut report =
        verify_addgs_with_fps(&g1, &g2, &opts, &ctx, Some((f1, f2))).map_err(|e| e.to_string())?;
    lap(layers, named, "core.check_ms", s);
    if w.witnesses && report.verdict == Verdict::NotEquivalent {
        let s = Instant::now();
        report.witnesses = extract_witnesses(&p1, &p2, &report, &WitnessOptions::default())
            .map_err(|e| e.to_string())?;
        lap(layers, named, "witness.extract_ms", s);
    }
    Ok((report, applied))
}

/// The timed loop's record.
#[derive(Default)]
struct Loop {
    latencies: Vec<Timed>,
    /// Closed-loop lateness: from one verdict's return to the next
    /// request's start (verdict checking and thread start-up).
    late: Vec<f64>,
    failed: u64,
    seconds: f64,
}

impl Loop {
    fn verdicts_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.seconds
    }
}

/// Sends requests back to back for `seconds`, and until `out` holds at
/// least `min` of them; continues the request sequence where `out` ends.
/// The probe is timed after every verdict; its time is not part of the
/// timed phase.
fn closed_loop(
    w: &Workload,
    out: &mut Loop,
    probe: &mut Probe,
    seconds: f64,
    min: usize,
    mut run: impl FnMut(&Pair, Option<&str>) -> Done,
) {
    let start = Instant::now();
    let mut probing = 0.0;
    let mut last_end = start;
    let mut i = out.latencies.len();
    while i < min || start.elapsed().as_secs_f64() - probing < seconds {
        let (pair, baseline) = w.request(i);
        let issued = Instant::now();
        out.late.push((issued - last_end).as_secs_f64() * 1e3);
        let done = run(pair, baseline);
        let returned = Instant::now();
        out.latencies.push((done.ms, returned));
        if !judge(pair, &done) {
            out.failed += 1;
        }
        let checking = returned.elapsed();
        let t = Instant::now();
        probe.sample();
        probing += t.elapsed().as_secs_f64();
        // Lateness counts verdict checking and thread start-up, not the
        // probe.
        last_end = Instant::now() - checking;
        i += 1;
    }
    out.seconds += start.elapsed().as_secs_f64() - probing;
}

/// The workload's request pool, and edit-loop's kernels to set up.
fn workload(args: &Args) -> (Workload, Option<inputs::EditLoop>) {
    let (pool, jobs) = match args.workload.as_str() {
        "deep-seq" => (inputs::deep_seq(args.seed, POOL), 1),
        "wide-par" => (inputs::wide_par(args.seed, POOL), WIDE_JOBS),
        _ => {
            let edit = inputs::edit_loop(args.seed, EDIT_KERNELS, POOL);
            let w = Workload {
                pool: edit.edits.iter().map(|(_, p)| p.clone()).collect(),
                baselines: Vec::new(),
                jobs: 1,
                witnesses: true,
            };
            return (w, Some(edit));
        }
    };
    let w = Workload {
        pool,
        baselines: Vec::new(),
        jobs,
        witnesses: false,
    };
    (w, None)
}

/// One set-up: everything before the first timed verdict except input
/// generation.  For edit-loop that is the from-scratch checks and baseline
/// exports, which (re)install the baselines; for every workload it ends
/// with untimed warm-up requests.  Returns its seconds and whether
/// every verdict was right.
fn set_up(
    w: &mut Workload,
    edit: Option<&inputs::EditLoop>,
    warmup: &[Pair],
    layers: &mut Layers,
) -> (f64, bool) {
    let t = Instant::now();
    let mut ok = true;
    if let Some(edit) = edit {
        let mut exported = Vec::new();
        for k in &edit.kernels {
            // A one-shot check: a fresh thread and `Verifier`, as for every
            // timed request.
            let checked = std::thread::scope(|s| {
                s.spawn(|| {
                    let v = Verifier::new();
                    let request = VerifyRequest::source(k.original.clone(), k.transformed.clone());
                    match v.verify(&request) {
                        Ok(o) if o.report.verdict == Verdict::Equivalent => {
                            let s = Instant::now();
                            let baseline = v.export_baseline(&o.report);
                            Ok((baseline, ms_since(s)))
                        }
                        other => Err(other.map(|o| o.report.verdict)),
                    }
                })
                .join()
                .expect("set-up thread never panics")
            });
            match checked {
                Ok((baseline, export_ms)) => {
                    exported.push(baseline);
                    layers.add_ms("engine.export_baseline_ms", export_ms);
                    layers.add_count("engine.exports", 1.0);
                }
                Err(verdict) => {
                    eprintln!("WRONG {} (set-up): {verdict:?}", k.name);
                    ok = false;
                    exported.push(String::new());
                }
            }
        }
        w.baselines = edit
            .edits
            .iter()
            .map(|(k, _)| exported[*k].clone())
            .collect();
    }
    // edit-loop warms up on its first edits: they need the baselines.
    let warm: Vec<(&Pair, Option<&str>)> = if edit.is_some() {
        (0..3).map(|i| w.request(i)).collect()
    } else {
        warmup.iter().map(|p| (p, None)).collect()
    };
    for (pair, baseline) in warm {
        ok &= judge(pair, &run_plain(w, pair, baseline));
    }
    (t.elapsed().as_secs_f64(), ok)
}

pub fn run(args: &Args) -> Outcome {
    let mut layers = Layers::default();
    let (mut w, edit) = workload(args);
    let warmup = inputs::warmup(&args.workload);
    let mut probe = Probe::default();
    let mut setups: Vec<Timed> = Vec::new();
    let mut setup_failed = false;
    let mut set_up_once = |w: &mut Workload, layers: &mut Layers, probe: &mut Probe| {
        let (secs, ok) = set_up(w, edit.as_ref(), &warmup, layers);
        setups.push((secs, Instant::now()));
        setup_failed |= !ok;
        probe.sample();
    };
    if !args.trace {
        let slices = if edit.is_some() {
            EDIT_SETUPS
        } else {
            ONE_SHOT_SETUPS
        } - 1;
        let mut l = Loop::default();
        set_up_once(&mut w, &mut layers, &mut probe);
        for _ in 0..slices {
            let seconds = args.seconds / slices as f64;
            closed_loop(&w, &mut l, &mut probe, seconds, 1, |p, b| {
                run_plain(&w, p, b)
            });
            set_up_once(&mut w, &mut layers, &mut probe);
        }
        let shown: Vec<f64> = setups.iter().map(|s| s.0).collect();
        eprintln!("set-ups (s): {shown:.4?}");
        return Outcome {
            attempted: l.latencies.len() as u64,
            failed: l.failed,
            setup_failed,
            metrics: crate::end_to_end(
                &setups,
                &l.latencies,
                l.seconds,
                l.failed,
                peak_rss_mb(),
                &probe,
            ),
        };
    }
    set_up_once(&mut w, &mut layers, &mut probe);
    let exports = layers.count("engine.exports");
    let export_ms = layers.mean_ms("engine.export_baseline_ms", exports as usize);
    // Traced: an untraced half for the overhead reference, then the traced
    // half, which always completes the first `COUNTED` requests so the work
    // counts cover the same requests on every host.
    let half = args.seconds / 2.0;
    let mut plain = Loop::default();
    closed_loop(&w, &mut plain, &mut probe, half, 1, |p, b| {
        run_plain(&w, p, b)
    });
    let mut traced = Loop::default();
    let mut i = 0;
    closed_loop(&w, &mut traced, &mut probe, half, COUNTED, |p, b| {
        i += 1;
        run_traced(&w, p, b, &mut layers, i <= COUNTED)
    });
    arrayeq_trace::uninstall_metrics();
    let n = traced.latencies.len();
    let mut m = Vec::new();
    for name in [
        "lang.parse_ms",
        "lang.check_ms",
        "addg.extract_ms",
        "addg.fingerprint_ms",
        "core.check_ms",
        "core.flatten_ms",
        "core.match_ms",
        "omega.composition_ms",
        "omega.feasibility_ms",
        "omega.simplify_ms",
        "engine.baseline_parse_ms",
        "engine.unattributed_ms",
    ] {
        m.push((name, layers.mean_ms(name, n), "ms"));
    }
    let witnessed = layers.count("witness.requests");
    m.push((
        "witness.extract_ms",
        layers.mean_ms("witness.extract_ms", witnessed as usize),
        "ms",
    ));
    m.push((
        "witness.confirmed_share",
        share(layers.count("witness.confirmed"), witnessed),
        "share",
    ));
    m.push(("engine.export_baseline_ms", export_ms, "ms"));
    for name in [
        "addg.nodes",
        "core.compositions",
        "core.flattenings",
        "core.matchings",
        "core.terms_flattened",
        "core.paths_compared",
        "core.table_lookups",
        "core.parallel_tasks",
        "core.cone_positions",
        "engine.baseline_hits",
        "omega.conjuncts_subsumed",
        "omega.bigint_fallbacks",
    ] {
        m.push((name, layers.count(name), "count"));
    }
    m.push((
        "core.table_hit_share",
        share(
            layers.count("core.table_hits"),
            layers.count("core.table_lookups"),
        ),
        "share",
    ));
    m.push(("bench.late_ms_p90", quantile(&traced.late, 0.9), "ms"));
    m.push(("bench.calib_ms", probe.median_ms(), "ms"));
    m.push((
        "bench.trace_overhead",
        share(traced.verdicts_per_s(), plain.verdicts_per_s()),
        "ratio",
    ));
    Outcome {
        attempted: (plain.latencies.len() + n) as u64,
        failed: plain.failed + traced.failed,
        setup_failed,
        metrics: m,
    }
}
