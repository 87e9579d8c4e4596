//! daemon-mix: an in-process daemon on a Unix socket, driven by two
//! clients that each wait for their reply before sending the next request.
//! `run.py` pins the process to one CPU, so daemon and clients share it.
//!
//! The store is primed before any clock starts, as a previous daemon's life
//! would have left it.  A closed loop rather than requests at a fixed rate:
//! on the reference host, over runs of one build on the same seeds, p90 of
//! a 40 requests/s loop ranged over 34–70 ms against 30.5–36.8 ms closed,
//! because a fixed-rate loop charges a host stall to every request due
//! during it and an idle daemon pays a vCPU wake-up on every request.

use crate::inputs::{self, DaemonMix, Expect, Pair};
use crate::stats::{median, ms_since, peak_rss_mb, phase_ms, quantile, share, Outcome, Probe};
use crate::{Args, Timed};
use arrayeq_core::CheckOptions;
use arrayeq_engine::{options_fingerprint, JsonValue, ProofStore, SessionStats, Verifier};
use arrayeq_serve::client::{verify_request_line, Client, VerifyParams};
use arrayeq_serve::{ServeConfig, Server};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
/// A plain run takes one set-up before the timed loop, which starts the
/// daemon the loop drives, and one after every `SETUP_EVERY`-th timed
/// reply, so that their median, `setup_s`, samples the host over the whole
/// run.  Counted in replies rather than seconds, the set-ups before the
/// `RSS_AT`-th reply, and with them `peak_rss_mb`, do not depend on
/// throughput.
const SETUP_EVERY: usize = 400;
/// The probe is timed after every `PROBE_EVERY`-th reply while both
/// clients wait, so that no request is in flight.
const PROBE_EVERY: usize = 16;
/// The store is flushed after every `FLUSH_EVERY`-th reply on connection 0.
const FLUSH_EVERY: usize = 16;
/// `peak_rss_mb` is read when this many timed replies are in, and a timed
/// phase runs at least until then.  Perturbed requests keep adding
/// sub-proofs, so the daemon's state grows with the requests it answers;
/// read at a fixed request, the figure does not depend on throughput.
const RSS_AT: usize = 1500;

fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("read primed store") {
        let entry = entry.expect("read primed store entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
    }
}

/// Verifies the repeated pairs once and flushes: the store a previous
/// daemon would have left behind.
fn prime(dir: &Path, repeated: &[Pair]) -> bool {
    let v = Verifier::builder().store(dir).build();
    let mut ok = true;
    for p in repeated {
        if !v
            .verify_source(&p.original, &p.transformed)
            .is_ok_and(|o| o.report.is_equivalent())
        {
            eprintln!("WRONG {} (priming the store)", p.name);
            ok = false;
        }
    }
    v.flush_store().expect("flush the primed store");
    ok
}

fn request_line(id: u64, p: &Pair) -> String {
    verify_request_line(
        id,
        &p.original,
        &p.transformed,
        &VerifyParams {
            witnesses: Some(p.expect == Expect::Witnessed),
            ..VerifyParams::default()
        },
    )
}

/// A reply, parsed after the clock stopped.
struct Reply {
    ok: bool,
    wall_ms: f64,
    check_ms: f64,
    witness_ms: f64,
    witnessed: bool,
}

fn judge(p: &Pair, line: &str) -> Reply {
    let v = JsonValue::parse(line).ok();
    let report = v
        .as_ref()
        .and_then(|v| v.get("result"))
        .and_then(|r| r.get("report"));
    let verdict = report
        .and_then(|r| r.get("verdict"))
        .and_then(JsonValue::as_str);
    let confirmed = report
        .and_then(|r| r.get("witnesses"))
        .and_then(JsonValue::as_array)
        .is_some_and(|ws| {
            ws.iter()
                .any(|w| w.get("confirmed").and_then(JsonValue::as_bool) == Some(true))
        });
    let ok = match p.expect {
        Expect::Equivalent => verdict == Some("equivalent"),
        Expect::Witnessed => verdict == Some("not_equivalent") && confirmed,
    };
    if !ok {
        let shown: String = line.chars().take(200).collect();
        eprintln!("WRONG {}: expected {:?}, reply {shown}", p.name, p.expect);
    }
    let stat = |key: &str| {
        report
            .and_then(|r| r.get("stats"))
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_i64)
            .unwrap_or(0) as f64
            / 1e3
    };
    let wall_ms = v
        .as_ref()
        .and_then(|v| v.get("result"))
        .and_then(|r| r.get("wall_time_us"))
        .and_then(JsonValue::as_i64)
        .unwrap_or(0) as f64
        / 1e3;
    Reply {
        ok,
        wall_ms,
        check_ms: stat("check_time_us"),
        witness_ms: stat("witness_time_us"),
        witnessed: confirmed,
    }
}

/// A started daemon with its two client connections.
struct Daemon {
    server: Arc<Server>,
    socket: PathBuf,
    store: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Daemon {
    /// `SpawnedServer::stop`'s sequence: request shutdown, wake the
    /// acceptor, join.  Then removes the daemon's store.
    fn stop(self) {
        drop(self.clients);
        self.server.request_shutdown();
        let _ = UnixStream::connect(&self.socket);
        self.thread
            .join()
            .expect("daemon thread never panics")
            .expect("daemon shuts down cleanly");
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// One set-up: engine and store open, daemon start, connections, and the
/// warm-up requests.  Returns the daemon, its set-up seconds and whether
/// every warm-up verdict was right.
///
/// The daemon is started as `SpawnedServer::start` does, but its socket is
/// polled every 100 µs instead of every 10 ms, so that `setup_s` measures
/// the daemon rather than the poll interval.
fn start(store: PathBuf, socket: PathBuf, metrics: bool, warmup: &[Pair]) -> (Daemon, f64, bool) {
    let t = Instant::now();
    let verifier = Verifier::builder().store(&store).metrics(metrics).build();
    let server = Server::new(verifier, ServeConfig { flush_every: 0 });
    let thread = {
        let (server, socket) = (Arc::clone(&server), socket.clone());
        std::thread::spawn(move || server.run_unix(&socket))
    };
    let first = loop {
        match Client::connect(&socket) {
            Ok(c) => break c,
            Err(_) if t.elapsed() < Duration::from_secs(10) && !thread.is_finished() => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => panic!("daemon never came up on {}: {e}", socket.display()),
        }
    };
    let mut clients = vec![first];
    while clients.len() < CONNECTIONS {
        clients.push(Client::connect(&socket).expect("client connects"));
    }
    let replies: Vec<String> = warmup
        .iter()
        .enumerate()
        .map(|(i, p)| {
            clients[i % CONNECTIONS]
                .request(&request_line(i as u64, p))
                .expect("warm-up round trip")
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    let ok = warmup.iter().zip(&replies).all(|(p, r)| judge(p, r).ok);
    let daemon = Daemon {
        server,
        socket,
        store,
        thread,
        clients,
    };
    (daemon, secs, ok)
}

/// A set-up taken between timed requests: its seconds and whether its
/// verdicts were right.
type SetUp<'a> = &'a (dyn Fn(usize) -> (f64, bool) + Sync);

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    latencies: Vec<Timed>,
    late: Vec<f64>,
    overhead: Vec<f64>,
    failed: u64,
    seconds: f64,
    /// `VmHWM` when the `RSS_AT`-th reply came in.
    rss_mb: f64,
    /// The set-ups taken between timed requests, with their verdicts.
    setups: Vec<(Timed, bool)>,
    probe: Probe,
    flush_ms: Vec<f64>,
    check_ms: f64,
    wall_ms: f64,
    witness_ms: f64,
    witness_requests: f64,
    witnessed: f64,
}

/// Runs both clients closed-loop for `seconds` of timed requests, and
/// until `RSS_AT` replies are in: client `c` sends requests `c`,
/// `c + CONNECTIONS`, ... of the mix, each rendered before its clock
/// starts.  With `set_up`, a set-up is taken after every `SETUP_EVERY`-th
/// reply while both clients wait; its time is not part of the timed phase.
fn drive(d: &mut Daemon, mix: &DaemonMix, seconds: f64, set_up: Option<SetUp>) -> Phase {
    let server = &d.server;
    let answered = &AtomicUsize::new(0);
    let rss_mb = &OnceLock::new();
    // Requests hold the gate shared; an interleaved set-up or probe holds
    // it alone.
    let gate = &RwLock::new(());
    // Seconds both clients waited for set-ups and probes.
    let paused = &Mutex::new(0.0);
    let setups = &Mutex::new(Vec::<(Timed, bool)>::new());
    let probe = &Mutex::new(Probe::default());
    let start = Instant::now();
    let timed = move || start.elapsed().as_secs_f64() - *paused.lock().unwrap();
    // (pair, latency, lateness of the send, reply)
    type Rec = (Pair, Timed, f64, String);
    let (records, flush_ms): (Vec<Rec>, Vec<f64>) = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut recs = Vec::new();
                    let mut flushes = Vec::new();
                    let mut last = Instant::now();
                    let mut j = c;
                    while timed() < seconds || answered.load(Ordering::Relaxed) < RSS_AT {
                        let pair = mix.request(j);
                        let line = request_line(j as u64, &pair);
                        let open = gate.read().unwrap();
                        let sent = Instant::now();
                        let reply = client.request(&line).expect("daemon round trip");
                        let done = Instant::now();
                        let n = answered.fetch_add(1, Ordering::Relaxed) + 1;
                        if n == RSS_AT {
                            let _ = rss_mb.set(peak_rss_mb());
                        }
                        let late = (sent - last).as_secs_f64() * 1e3;
                        recs.push((pair, ((done - sent).as_secs_f64() * 1e3, done), late, reply));
                        if c == 0 && recs.len() % FLUSH_EVERY == 0 {
                            let t = Instant::now();
                            server.verifier().flush_store().expect("store flush");
                            flushes.push(ms_since(t));
                        }
                        drop(open);
                        if let Some(set_up) = set_up.filter(|_| n.is_multiple_of(SETUP_EVERY)) {
                            let _alone = gate.write().unwrap();
                            let t = Instant::now();
                            let (secs, ok) = set_up(n / SETUP_EVERY);
                            setups.lock().unwrap().push(((secs, Instant::now()), ok));
                            probe.lock().unwrap().sample();
                            *paused.lock().unwrap() += t.elapsed().as_secs_f64();
                        }
                        if n.is_multiple_of(PROBE_EVERY) {
                            let _alone = gate.write().unwrap();
                            let t = Instant::now();
                            probe.lock().unwrap().sample();
                            *paused.lock().unwrap() += t.elapsed().as_secs_f64();
                        }
                        last = Instant::now();
                        j += CONNECTIONS;
                    }
                    (recs, flushes)
                })
            })
            .collect();
        let mut records = Vec::new();
        let mut flushes = Vec::new();
        for h in handles {
            let (r, f) = h.join().expect("client thread never panics");
            records.extend(r);
            flushes.extend(f);
        }
        (records, flushes)
    });
    let mut phase = Phase {
        seconds: timed(),
        rss_mb: *rss_mb.get().expect("the loop runs until RSS_AT replies"),
        setups: std::mem::take(&mut *setups.lock().unwrap()),
        probe: std::mem::take(&mut *probe.lock().unwrap()),
        flush_ms,
        ..Phase::default()
    };
    for (pair, latency, late, line) in records {
        let r = judge(&pair, &line);
        phase.latencies.push(latency);
        phase.late.push(late);
        phase.overhead.push(latency.0 - r.wall_ms);
        phase.failed += u64::from(!r.ok);
        phase.check_ms += r.check_ms;
        phase.wall_ms += r.wall_ms;
        if pair.expect == Expect::Witnessed {
            phase.witness_ms += r.witness_ms;
            phase.witness_requests += 1.0;
            phase.witnessed += f64::from(u8::from(r.witnessed));
        }
    }
    phase
}

pub fn run(args: &Args) -> Outcome {
    let dir = args.workdir.join(format!("daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the daemon's work directory");
    let mix = inputs::daemon_mix(args.seed);
    let warmup = inputs::warmup("daemon-mix");
    let primed = dir.join("primed");
    let mut setup_failed = !prime(&primed, &mix.repeated);
    // Set-up `r` starts a daemon on its own copy of the primed store.
    let set_up = |r: usize, metrics: bool| {
        let store = dir.join(format!("store-{r}"));
        copy_store(&primed, &store);
        start(store, dir.join(format!("d{r}.sock")), metrics, &warmup)
    };

    let mut setups: Vec<Timed> = Vec::new();
    let mut probe = Probe::default();
    let mut phases = Vec::new();
    let mut store_open_ms = 0.0;
    let mut session = SessionStats::default();
    let mut metrics = None;
    if args.trace {
        // Two daemons, the first untraced and the second with metrics on.
        for r in 0..2 {
            let traced = r == 1;
            if traced {
                let probe = dir.join("probe");
                copy_store(&primed, &probe);
                let fp = options_fingerprint(&CheckOptions::default());
                let t = Instant::now();
                drop(ProofStore::open(&probe, fp).expect("open the primed store"));
                store_open_ms = ms_since(t);
            }
            let (mut daemon, secs, ok) = set_up(r, traced);
            setups.push((secs, Instant::now()));
            setup_failed |= !ok;
            phases.push(drive(&mut daemon, &mix, args.seconds / 2.0, None));
            if traced {
                let v = daemon.server.verifier();
                session = v.session_stats();
                metrics = v.metrics_snapshot();
            }
            daemon.stop();
        }
    } else {
        let (mut daemon, secs, ok) = set_up(0, false);
        setups.push((secs, Instant::now()));
        probe.sample();
        setup_failed |= !ok;
        let between = |r: usize| {
            let (d, secs, ok) = set_up(r, false);
            d.stop();
            (secs, ok)
        };
        let phase = drive(&mut daemon, &mix, args.seconds, Some(&between));
        daemon.stop();
        for &(timed, ok) in &phase.setups {
            setups.push(timed);
            setup_failed |= !ok;
        }
        phases.push(phase);
    }
    arrayeq_trace::uninstall_metrics();
    let _ = std::fs::remove_dir_all(&dir);
    let shown: Vec<f64> = setups.iter().map(|s| s.0).collect();
    eprintln!("set-ups (s): {shown:.4?}");

    let last = phases.last_mut().expect("at least one timed phase");
    probe.extend(std::mem::take(&mut last.probe));
    let last = phases.last().expect("at least one timed phase");
    let attempted: usize = phases.iter().map(|p| p.latencies.len()).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let verdicts_per_s = |p: &Phase| p.latencies.len() as f64 / p.seconds;
    if !args.trace {
        return Outcome {
            attempted: attempted as u64,
            failed,
            setup_failed,
            metrics: crate::end_to_end(
                &setups,
                &last.latencies,
                last.seconds,
                last.failed,
                last.rss_mb,
                &probe,
            ),
        };
    }
    let n = last.latencies.len() as f64;
    let mut m = vec![
        ("core.check_ms", last.check_ms / n, "ms"),
        (
            "engine.unattributed_ms",
            (last.wall_ms - last.check_ms - last.witness_ms) / n,
            "ms",
        ),
        (
            "witness.extract_ms",
            share(last.witness_ms, last.witness_requests),
            "ms",
        ),
        (
            "witness.confirmed_share",
            share(last.witnessed, last.witness_requests),
            "share",
        ),
        (
            "engine.shared_hit_share",
            share(
                session.shared_table_hits as f64,
                session.shared_table_lookups as f64,
            ),
            "share",
        ),
        (
            "engine.feasibility_hit_share",
            share(
                session.feasibility_hits as f64,
                (session.feasibility_hits + session.feasibility_misses) as f64,
            ),
            "share",
        ),
        ("engine.store_open_ms", store_open_ms, "ms"),
        (
            "engine.store_flush_ms",
            share(last.flush_ms.iter().sum(), last.flush_ms.len() as f64),
            "ms",
        ),
        ("engine.store_hits", session.store_hits as f64, "count"),
        ("serve.overhead_ms_p50", median(&last.overhead), "ms"),
        ("bench.late_ms_p90", quantile(&last.late, 0.9), "ms"),
        ("bench.calib_ms", probe.median_ms(), "ms"),
        (
            "bench.trace_overhead",
            share(verdicts_per_s(last), verdicts_per_s(&phases[0])),
            "ratio",
        ),
    ];
    // The registry was installed with the traced daemon, so it also holds
    // that daemon's warm-up requests.
    let metered = n + warmup.len() as f64;
    if let Some(snap) = metrics {
        for (name, ms) in phase_ms(&snap) {
            m.push((name, ms / metered, "ms"));
        }
    }
    Outcome {
        attempted: attempted as u64,
        failed,
        setup_failed,
        metrics: m,
    }
}
