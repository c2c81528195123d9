//! `serve-open`: an in-process `softwatt-serve` server under an open-loop,
//! seeded request schedule.
//!
//! One generator thread sends each request when it is due, whatever the
//! server is doing, over pipelined keep-alive connections; one reader
//! thread per connection times each response from its due time, so a
//! stall is charged to every request queued behind it. The last
//! connection carries the cold trickle (fresh specs), the others carry
//! warm hits, figures, replays and `/metrics` probes, because responses
//! on one connection come back in order and a capture would hold up
//! every warm hit behind it.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use softwatt::experiments::DiskSetup;
use softwatt::{
    json, Benchmark, BenchmarkSpec, CpuModel, ExperimentSuite, IoBurst, PhaseSpec, RunKey,
    SyscallRates, SystemConfig, TraceStore,
};
use softwatt_isa::stream::InstrSource;
use softwatt_serve::{ServeConfig, Server, ShutdownHandle};
use softwatt_stats::hash::fnv1a;
use softwatt_stats::StatsCollector;

use crate::report::Report;
use crate::stats::{self, percentile, tail_pct};
use crate::trace::{layer_times, Tracer};

/// Set-up repeats (bind, prewarm the paper grid from the filled store,
/// first response).
const SETUP_REPEATS: usize = 21;
/// Rounds over every grid key and figure in one HTTP pass: enough
/// requests that a pass measures the server's throughput rather than the
/// wake-ups of a few dozen round trips.
const PASS_ROUNDS: usize = 20;
/// Nominal open-loop rate of the mixed traffic.
const NOMINAL_RPS: f64 = 8000.0;
/// Fresh specs per second in the cold trickle.
const COLD_PER_S: f64 = 2.0;
/// Delay between a spec's cold request and its replays on other disks,
/// long enough for the capture to have finished.
const REPLAY_AFTER_S: f64 = 1.5;
/// Disk setups each captured spec is replayed on.
const REPLAY_DISKS: [DiskSetup; 3] = [
    DiskSetup::IdleOnly,
    DiskSetup::Standby2s,
    DiskSetup::Standby4s,
];
/// Share of the nominal traffic that asks for figures, and for `/metrics`.
const FIGURE_SHARE: f64 = 0.2;
const METRICS_SHARE: f64 = 0.0005;
/// Window of due times over which `req_p50_us` and `req_p99_us` are taken.
const WINDOW_NS: u64 = 500_000_000;
/// Rate ladder for `rps_at_slo` (warm traffic only), the requests sent per
/// step (a fixed count, so the run's memory does not depend on how far up
/// the ladder it gets), and the limits a step must meet.
const LADDER_RPS: [f64; 4] = [16000.0, 32000.0, 64000.0, 128000.0];
const LADDER_REQUESTS: f64 = 20000.0;
const SLO_P99_US: f64 = 5000.0;
const MAX_END_LAG_US: f64 = 1000.0;
/// 503 retries per request, and the first back-off.
const MAX_RETRIES: u32 = 3;
const RETRY_BACKOFF_MS: u64 = 50;
/// How long a phase may wait for its last responses.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Instructions drained per spec by the workload-generator probe.
const GEN_PROBE_INSTRS: u64 = 100_000;

/// A small seeded generator (SplitMix64): the schedule and specs depend
/// on the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential gap for a Poisson process of `rate` per second, in ns.
    pub fn gap_ns(&mut self, rate: f64) -> u64 {
        (-(1.0 - self.unit()).ln() / rate * 1e9) as u64
    }
}

/// `n` fresh workload specs. Data footprints are stratified on a log scale
/// from 16 KiB (inside the 32 KiB L1) to 4 MiB (four times the 1 MiB L2);
/// the mix, locality and length vary with the seed.
pub fn generate_specs(seed: u64, n: usize) -> Vec<BenchmarkSpec> {
    let mut rng = Rng::new(seed ^ 0x5bec_5eed_0000_0001);
    let mut specs: Vec<BenchmarkSpec> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n.max(1) as f64;
            let span_bytes = (16384.0 * 256f64.powf(u)) as u64;
            let hot_bytes = (span_bytes / 8).clamp(4096, 65536).min(span_bytes);
            let duration_s = rng.range(2.0, 3.0);
            BenchmarkSpec {
                name: format!("gen-{i}"),
                duration_s,
                assumed_ipc: 1.2,
                class_files: 8,
                class_file_bytes: 2048,
                startup_compute_frac: 0.05,
                cacheflush_per_kinstr: 0.001,
                phases: vec![PhaseSpec {
                    name: "main".into(),
                    frac: 1.0,
                    load: rng.range(0.22, 0.34),
                    store: rng.range(0.06, 0.12),
                    branch: rng.range(0.12, 0.20),
                    fp: rng.range(0.0, 0.05),
                    mul: 0.005,
                    dep_prob: rng.range(0.25, 0.45),
                    branch_stability: rng.range(0.85, 0.97),
                    hot_bytes,
                    span_bytes,
                    hot_frac: rng.range(0.80, 0.97),
                    loop_len: 48,
                    n_loops: 8,
                    stay_per_loop: 1024,
                    syscalls: SyscallRates {
                        read: 0.02,
                        write: 0.004,
                        io_bytes_mean: 1024,
                        ..SyscallRates::default()
                    },
                    fresh_per_kinstr: 0.03,
                }],
                io_bursts: vec![IoBurst {
                    at_s: duration_s * 0.5,
                    files: 2,
                    bytes_per_file: 8192,
                }],
            }
        })
        .collect();
    // Shuffled, so footprint does not grow with send time.
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i + 1));
    }
    specs
}

/// What a request asks for, so its expected body can be rendered
/// in-process afterwards.
#[derive(Debug, Clone, PartialEq)]
enum Target {
    Canned(RunKey),
    Spec(usize, DiskSetup),
    Figure(&'static str),
    Metrics,
}

/// One distinct request: its target and its wire bytes.
#[derive(Debug)]
struct Request {
    target: Target,
    bytes: Vec<u8>,
}

fn post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/run HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

fn spec_query(spec: &BenchmarkSpec, disk: DiskSetup) -> String {
    format!(
        "{{\"spec\": {}, \"cpu\": \"mxs\", \"disk\": \"{}\"}}",
        json::benchmark_spec(spec),
        disk.name()
    )
}

/// A request due at `due_ns` after the phase starts, on connection `conn`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub due_ns: u64,
    pub req: usize,
    pub conn: usize,
}

/// Every distinct request a run can send, and where each kind starts.
struct Catalog {
    requests: Vec<Request>,
    warm: Vec<usize>,
    figures: Vec<usize>,
    metrics: usize,
    canned_replays: Vec<usize>,
    /// Per spec: the cold request, then one per replay disk.
    specs: Vec<(usize, [usize; 3])>,
}

fn catalog(grid: &[RunKey], specs: &[BenchmarkSpec]) -> Catalog {
    let mut requests = Vec::new();
    let mut add = |target: Target, bytes: Vec<u8>| {
        requests.push(Request { target, bytes });
        requests.len() - 1
    };
    let warm = grid
        .iter()
        .map(|&k| add(Target::Canned(k), post(&json::run_key(k))))
        .collect();
    let figures = json::FIGURES
        .iter()
        .map(|&f| add(Target::Figure(f), get(&format!("/v1/figures/{f}"))))
        .collect();
    let metrics = add(Target::Metrics, get("/metrics"));
    // Canned keys outside the grid whose traces the prewarm loaded:
    // each is a replay on first request.
    let mut canned_replays = Vec::new();
    for b in Benchmark::ALL {
        for (cpu, disks) in [
            (CpuModel::MxsSingleIssue, &DiskSetup::ALL[1..]),
            (
                CpuModel::Mipsy,
                if b == Benchmark::Jess {
                    &DiskSetup::ALL[1..]
                } else {
                    &[][..]
                },
            ),
        ] {
            for &disk in disks {
                let key = RunKey::canned(b, cpu, disk);
                canned_replays.push(add(Target::Canned(key), post(&json::run_key(key))));
            }
        }
    }
    let specs = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let cold = add(
                Target::Spec(i, DiskSetup::Conventional),
                post(&spec_query(spec, DiskSetup::Conventional)),
            );
            let replays = REPLAY_DISKS.map(|d| add(Target::Spec(i, d), post(&spec_query(spec, d))));
            (cold, replays)
        })
        .collect();
    Catalog {
        requests,
        warm,
        figures,
        metrics,
        canned_replays,
        specs,
    }
}

/// Poisson traffic at `rps` for `seconds` over the first `conns - 1`
/// connections: warm grid keys, a `FIGURE_SHARE` of figures and a
/// `metrics_share` of `/metrics` probes.
fn warm_schedule(
    cat: &Catalog,
    rng: &mut Rng,
    rps: f64,
    seconds: f64,
    conns: usize,
    metrics_share: f64,
) -> Vec<Planned> {
    let end_ns = (seconds * 1e9) as u64;
    let mut plan = Vec::new();
    let mut t = rng.gap_ns(rps);
    while t < end_ns {
        let draw = rng.unit();
        let req = if draw < metrics_share {
            cat.metrics
        } else if draw < metrics_share + FIGURE_SHARE {
            cat.figures[rng.below(cat.figures.len())]
        } else {
            cat.warm[rng.below(cat.warm.len())]
        };
        plan.push(Planned {
            due_ns: t,
            req,
            conn: plan.len() % (conns - 1),
        });
        t += rng.gap_ns(rps);
    }
    plan
}

/// The nominal phase: warm traffic at `NOMINAL_RPS`, an evenly spaced
/// cold trickle on the last connection, each spec's replays
/// `REPLAY_AFTER_S` later, and the canned replay keys spread over the
/// phase.
fn nominal_schedule(cat: &Catalog, seed: u64, seconds: f64, conns: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x0A11_0C47_E5C4_ED01);
    let mut plan = warm_schedule(cat, &mut rng, NOMINAL_RPS, seconds, conns, METRICS_SHARE);
    let warm_conns = conns - 1;
    let spacing = 1e9 / COLD_PER_S;
    for (i, (cold, replays)) in cat.specs.iter().enumerate() {
        let due = ((i as f64 + 0.5) * spacing) as u64;
        plan.push(Planned {
            due_ns: due,
            req: *cold,
            conn: conns - 1,
        });
        for (j, &r) in replays.iter().enumerate() {
            let at = due + (REPLAY_AFTER_S * 1e9) as u64 + j as u64 * 20_000_000;
            plan.push(Planned {
                due_ns: at,
                req: r,
                conn: (i + j) % warm_conns,
            });
        }
    }
    let end_ns = (seconds * 1e9) as u64;
    let n = cat.canned_replays.len() as u64;
    for (i, &r) in cat.canned_replays.iter().enumerate() {
        let due = end_ns / (n + 1) * (i as u64 + 1);
        plan.push(Planned {
            due_ns: due,
            req: r,
            conn: i % warm_conns,
        });
    }
    plan.sort_by_key(|p| p.due_ns);
    plan
}

/// Every grid key and figure, `PASS_ROUNDS` times over, all due at once
/// and spread over all connections.
fn pass_schedule(cat: &Catalog, conns: usize) -> Vec<Planned> {
    let round = cat.warm.iter().chain(&cat.figures);
    (0..PASS_ROUNDS)
        .flat_map(|_| round.clone())
        .enumerate()
        .map(|(i, &req)| Planned {
            due_ns: 0,
            req,
            conn: i % conns,
        })
        .collect()
}

/// One response (or final failure), timed from its due time.
#[derive(Debug, Clone)]
struct Outcome {
    req: usize,
    due_ns: u64,
    done_ns: u64,
    status: u16,
    lane: Option<&'static str>,
    body_hash: u64,
}

impl Outcome {
    fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: usize,
    due_ns: u64,
    attempt: u32,
}

struct Response {
    status: u16,
    lane: Option<&'static str>,
    body: Vec<u8>,
}

/// Reads one HTTP/1.1 response; `Ok(None)` on a clean end of stream.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<Option<Response>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = 0usize;
    let mut lane = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("end of stream inside the response head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("malformed content-length"))?;
            } else if name.eq_ignore_ascii_case("x-softwatt-lane") {
                lane = ["inline", "replay", "cold", "surrogate"]
                    .into_iter()
                    .find(|l| *l == value)
                    .or(Some("other"));
            }
        }
    }
    if length > 64 << 20 {
        return Err(bad("response body over 64 MiB"));
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok(Some(Response { status, lane, body }))
}

/// Requests sent on one connection and not yet answered, in order;
/// `open` turns false when its reader stops, after which a send fails at
/// once instead of waiting for a response that cannot come.
#[derive(Debug)]
struct ConnQueue {
    open: bool,
    pending: VecDeque<Pending>,
}

/// A request that got no response: a transport failure, status 0.
fn failed(p: Pending, done_ns: u64) -> Outcome {
    Outcome {
        req: p.req,
        due_ns: p.due_ns,
        done_ns,
        status: 0,
        lane: None,
        body_hash: 0,
    }
}

/// Open connections to the server plus their reader threads.
struct Session {
    origin: Instant,
    writers: Vec<TcpStream>,
    queues: Vec<Arc<Mutex<ConnQueue>>>,
    outcomes: Arc<Mutex<Vec<Outcome>>>,
    outstanding: Arc<AtomicUsize>,
    retries: Arc<AtomicUsize>,
    retry_rx: mpsc::Receiver<(usize, Pending, u64)>,
    readers: Vec<JoinHandle<()>>,
}

impl Session {
    fn connect(addr: SocketAddr, conns: usize, origin: Instant) -> std::io::Result<Session> {
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let outstanding = Arc::new(AtomicUsize::new(0));
        let retries = Arc::new(AtomicUsize::new(0));
        let (retry_tx, retry_rx) = mpsc::channel();
        let mut session = Session {
            origin,
            writers: Vec::new(),
            queues: Vec::new(),
            outcomes,
            outstanding,
            retries,
            retry_rx,
            readers: Vec::new(),
        };
        for conn in 0..conns {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let queue = Arc::new(Mutex::new(ConnQueue {
                open: true,
                pending: VecDeque::new(),
            }));
            let reader_stream = stream.try_clone()?;
            let (queue2, outcomes, outstanding, retries, retry_tx) = (
                Arc::clone(&queue),
                Arc::clone(&session.outcomes),
                Arc::clone(&session.outstanding),
                Arc::clone(&session.retries),
                retry_tx.clone(),
            );
            session.readers.push(thread::spawn(move || {
                let mut reader = BufReader::with_capacity(256 * 1024, reader_stream);
                let now_ns = || origin.elapsed().as_nanos() as u64;
                loop {
                    let result = read_response(&mut reader);
                    let done_ns = now_ns();
                    let Ok(Some(resp)) = result else { break };
                    let Some(p) = queue2.lock().expect("connection queue").pending.pop_front()
                    else {
                        break;
                    };
                    if resp.status == 503 && p.attempt < MAX_RETRIES {
                        retries.fetch_add(1, Ordering::Relaxed);
                        let not_before = done_ns + (RETRY_BACKOFF_MS << p.attempt) * 1_000_000;
                        let retry = Pending {
                            attempt: p.attempt + 1,
                            ..p
                        };
                        if retry_tx.send((conn, retry, not_before)).is_err() {
                            break;
                        }
                        continue;
                    }
                    outcomes.lock().expect("outcomes").push(Outcome {
                        req: p.req,
                        due_ns: p.due_ns,
                        done_ns,
                        status: resp.status,
                        lane: resp.lane,
                        body_hash: fnv1a(&resp.body),
                    });
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                }
                // Transport end or error: whatever is still pending failed.
                let done_ns = now_ns();
                let mut queue = queue2.lock().expect("connection queue");
                queue.open = false;
                for p in queue.pending.drain(..) {
                    outcomes.lock().expect("outcomes").push(failed(p, done_ns));
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                }
            }));
            session.writers.push(stream);
            session.queues.push(queue);
        }
        Ok(session)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn send(&mut self, requests: &[Request], conn: usize, p: Pending) {
        let mut queue = self.queues[conn].lock().expect("connection queue");
        if !queue.open {
            drop(queue);
            let outcome = failed(p, self.now_ns());
            self.outcomes.lock().expect("outcomes").push(outcome);
            self.outstanding.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        queue.pending.push_back(p);
        drop(queue);
        // A failed write surfaces as the reader's end of stream, which
        // fails every request still pending on the connection.
        let _ = self.writers[conn].write_all(&requests[p.req].bytes);
    }

    /// Sends `plan` open-loop starting now and waits for every response.
    /// Returns the phase start (ns since the origin) and each send's lag
    /// behind its due time (µs).
    fn run(&mut self, requests: &[Request], plan: &[Planned]) -> (u64, Vec<f64>) {
        let start = self.now_ns() + 1_000_000;
        let mut lags = Vec::with_capacity(plan.len());
        let mut retries: Vec<(usize, Pending, u64)> = Vec::new();
        self.outstanding.fetch_add(plan.len(), Ordering::SeqCst);
        for p in plan {
            let due = start + p.due_ns;
            loop {
                self.send_due_retries(requests, &mut retries);
                let now = self.now_ns();
                if now >= due {
                    break;
                }
                let wake = retries.iter().map(|r| r.2).min().unwrap_or(due).min(due);
                thread::sleep(Duration::from_nanos(wake.saturating_sub(now)));
            }
            lags.push(self.now_ns().saturating_sub(due) as f64 / 1e3);
            self.send(
                requests,
                p.conn,
                Pending {
                    req: p.req,
                    due_ns: due,
                    attempt: 0,
                },
            );
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.outstanding.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            self.send_due_retries(requests, &mut retries);
            thread::sleep(Duration::from_micros(200));
        }
        (start, lags)
    }

    fn send_due_retries(&mut self, requests: &[Request], retries: &mut Vec<(usize, Pending, u64)>) {
        retries.extend(self.retry_rx.try_iter());
        let now = self.now_ns();
        let (due, later): (Vec<_>, Vec<_>) = retries.drain(..).partition(|r| r.2 <= now);
        *retries = later;
        for (conn, p, _) in due {
            self.send(requests, conn, p);
        }
    }

    fn take_outcomes(&self) -> Vec<Outcome> {
        std::mem::take(&mut *self.outcomes.lock().expect("outcomes"))
    }

    /// Closes the connections and joins the readers.
    fn close(self) {
        for w in &self.writers {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        for r in self.readers {
            r.join().expect("reader thread panicked");
        }
    }
}

/// Lets the generator's sleeps end within microseconds of their deadline
/// (the default 50 µs timer slack would add to every measured latency).
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// One blocking request on a fresh connection (set-up probes and
/// `/metrics` scrapes).
fn fetch(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(bytes)?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no response"))
}

struct Running {
    addr: SocketAddr,
    suite: Arc<ExperimentSuite>,
    handle: ShutdownHandle,
    thread: JoinHandle<()>,
}

impl Running {
    fn stop(self) {
        self.handle.trigger();
        self.thread.join().expect("server thread panicked");
    }
}

/// Fills a trace store at `dir` with the paper grid's captures.
fn fill_store(config: &SystemConfig, dir: &Path, cores: usize) -> Result<(), String> {
    let store = TraceStore::open(dir).map_err(|e| format!("trace store: {e}"))?;
    ExperimentSuite::new(config.clone())?
        .with_trace_store(store)
        .run_all(cores);
    Ok(())
}

/// Binds a server on loopback over the store at `dir`, prewarms the paper
/// grid (from the store, when it holds the grid's traces) and waits for
/// its first response. Replay workers run on every core and
/// cold workers on all but one, so a core stays free for the reactor
/// while captures run.
fn start_server(config: &SystemConfig, dir: &Path, cores: usize) -> Result<Running, String> {
    let store = TraceStore::open(dir).map_err(|e| format!("trace store: {e}"))?;
    let suite = Arc::new(ExperimentSuite::new(config.clone())?.with_trace_store(store));
    let serve_config = ServeConfig {
        workers: cores,
        cold_workers: cores.saturating_sub(1).max(1),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&suite), serve_config)?;
    let addr = server.local_addr()?;
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run());
    let running = Running {
        addr,
        suite,
        handle,
        thread,
    };
    running.suite.run_all(cores);
    match fetch(addr, &get("/healthz")) {
        Ok(r) if r.status == 200 => Ok(running),
        other => {
            running.stop();
            Err(format!(
                "first request failed: {:?}",
                other.map(|r| r.status)
            ))
        }
    }
}

/// What the traced run reads from the server's `/metrics`
/// (`softwatt-obs-v1`).
#[derive(Debug, Default)]
struct Scrape {
    /// Per lane, the latency histogram's `(bucket, count)` pairs: bucket
    /// `b` counts values in `[2^b, 2^(b+1))` microseconds.
    lanes: BTreeMap<&'static str, Vec<(u32, u64)>>,
    depth_max_replay: f64,
    depth_max_cold: f64,
    dedup_attached: f64,
}

fn scrape(addr: SocketAddr) -> Scrape {
    let mut out = Scrape::default();
    let Ok(resp) = fetch(addr, &get("/metrics")) else {
        return out;
    };
    let Ok(doc) = softwatt_serve::json::parse(&resp.body) else {
        return out;
    };
    let number = |v: &softwatt_serve::json::Value| v.as_f64().unwrap_or(0.0);
    let read = |section: &str, name: &str| {
        doc.get(section)
            .and_then(|g| g.get(name))
            .map_or(0.0, number)
    };
    for lane in ["inline", "replay", "cold"] {
        let buckets = doc
            .get("histograms")
            .and_then(|h| h.get(&format!("serve.lane.{lane}.latency_us")))
            .and_then(|h| h.get("buckets"))
            .and_then(|b| b.as_arr())
            .map(|arr| {
                arr.iter()
                    .filter_map(|pair| {
                        let pair = pair.as_arr()?;
                        Some((number(pair.first()?) as u32, number(pair.get(1)?) as u64))
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.lanes.insert(lane, buckets);
    }
    out.depth_max_replay = read("gauges", "serve.lane.replay.queue_depth_max");
    out.depth_max_cold = read("gauges", "serve.lane.cold.queue_depth_max");
    out.dedup_attached = read("counters", "serve.dedup_attached");
    out
}

/// Upper bound of the histogram bucket holding the `pct` percentile of
/// the samples added between two scrapes.
fn bucket_percentile(before: &[(u32, u64)], after: &[(u32, u64)], pct: f64) -> f64 {
    let mut counts: BTreeMap<u32, i64> = BTreeMap::new();
    for &(b, n) in after {
        *counts.entry(b).or_default() += n as i64;
    }
    for &(b, n) in before {
        *counts.entry(b).or_default() -= n as i64;
    }
    let total: i64 = counts.values().sum();
    let rank = ((pct / 100.0) * total as f64).ceil() as i64;
    let mut seen = 0;
    for (&b, &n) in &counts {
        seen += n;
        if seen >= rank.max(1) {
            return (1u64 << (b + 1)) as f64;
        }
    }
    0.0
}

/// Runs `serve-open` for about `seconds` of measurement.
pub fn run(seed: u64, seconds: f64, traced: bool, scratch: &Path) -> (Report, Option<Tracer>) {
    let mut report = Report::default();
    let origin = Instant::now();
    let tracer = traced.then(|| Tracer::new(origin));
    softwatt_obs::set_enabled(traced);
    let config = crate::config(seed);
    let cores = crate::host::nproc();
    let conns = cores.max(2);
    // Four tenths of the run are the open-loop nominal phase; half are
    // HTTP passes, in blocks before, between and after the other phases,
    // so `wall_s` samples the host's load over the whole run.
    let nominal_s = seconds * 0.4;
    let n_specs = ((nominal_s - REPLAY_AFTER_S - 0.5) * COLD_PER_S).max(1.0) as usize;
    let specs = generate_specs(seed, n_specs);
    for (i, spec) in specs.iter().enumerate() {
        report.check(spec.validate().is_ok(), || {
            format!("generated spec {i} is invalid")
        });
    }

    // Set-up: fill a store with the paper grid's traces (not timed), then
    // bind, prewarm the grid from that store and wait for the first
    // response, as a restarted server does; repeated.
    let store_dir = scratch.join("serve-store");
    if let Err(e) = fill_store(&config, &store_dir, cores) {
        report.check(false, || format!("store fill: {e}"));
        return (report, tracer);
    }
    let mut setups = Vec::new();
    let mut server: Option<Running> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            previous.stop();
        }
        let t0 = Instant::now();
        let started = start_server(&config, &store_dir, cores);
        setups.push(t0.elapsed().as_secs_f64());
        match started {
            Ok(s) => {
                let captures = s.suite.runs_executed();
                report.check(captures == 0, || {
                    format!("set-up captured {captures} traces the filled store holds")
                });
                server = Some(s);
            }
            Err(e) => {
                report.check(false, || format!("server set-up: {e}"));
                return (report, tracer);
            }
        }
    }
    let server = server.expect("at least one set-up");
    crate::host::reset_peak_rss();
    let suite = Arc::clone(&server.suite);
    let (captures0, replays0, loads0) = (
        suite.runs_executed(),
        suite.replays_derived(),
        suite.store_loads(),
    );

    let grid = suite.paper_grid();
    let cat = catalog(&grid, &specs);
    tighten_timer_slack();
    let mut session = match Session::connect(server.addr, conns, origin) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("connect: {e}"));
            server.stop();
            return (report, tracer);
        }
    };

    let mut checker = Checker {
        suite: &suite,
        cat: &cat,
        specs: &specs,
        expected: BTreeMap::new(),
    };
    let pass_plan = pass_schedule(&cat, conns);
    let mut passes = Passes::default();
    passes.run(
        &mut session,
        &pass_plan,
        seconds * 0.15,
        tracer.as_ref(),
        &mut checker,
        &mut report,
    );

    // Nominal phase.
    let scrape0 = traced.then(|| scrape(server.addr));
    let plan = nominal_schedule(&cat, seed, nominal_s, conns);
    let (phase_start, lags) = session.run(&cat.requests, &plan);
    let nominal = session.take_outcomes();
    let scrape1 = traced.then(|| scrape(server.addr));
    if let Some(t) = &tracer {
        record_phase(t, "nominal", format!("seed {seed}"), phase_start, &nominal);
    }

    passes.run(
        &mut session,
        &pass_plan,
        seconds * 0.2,
        tracer.as_ref(),
        &mut checker,
        &mut report,
    );

    // Ladder: warm traffic at rising rates until the p99 limit or the
    // generator's lag is exceeded.
    let mut ladder_rng = Rng::new(seed ^ 0x001A_DDE4);
    let mut rps_at_slo = 0.0;
    let mut ladder_notes = Vec::new();
    for rps in LADDER_RPS {
        let plan = warm_schedule(
            &cat,
            &mut ladder_rng,
            rps,
            LADDER_REQUESTS / rps,
            conns,
            0.0,
        );
        let (start, lags) = session.run(&cat.requests, &plan);
        let outcomes = session.take_outcomes();
        let lat: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.status == 200)
            .map(Outcome::latency_us)
            .collect();
        let p99 = percentile(&lat, 99.0).unwrap_or(f64::INFINITY);
        let tail = lags.len() / 10;
        let end_lag = stats::median(&lags[lags.len() - tail.max(1)..]);
        let last_done = outcomes.iter().map(|o| o.done_ns).max().unwrap_or(start);
        let achieved = lat.len() as f64 / ((last_done - start) as f64 / 1e9);
        let ok = p99 <= SLO_P99_US && end_lag <= MAX_END_LAG_US && lat.len() == outcomes.len();
        ladder_notes.push(format!(
            "ladder {rps:>6} req/s: achieved {achieved:.0}, p99 {p99:.0} us over {}, end lag {end_lag:.0} us -> {}",
            lat.len(),
            if ok { "meets" } else { "misses" }
        ));
        checker.check(&mut report, &outcomes);
        if !ok {
            break;
        }
        rps_at_slo = achieved;
    }

    passes.run(
        &mut session,
        &pass_plan,
        seconds * 0.15,
        tracer.as_ref(),
        &mut checker,
        &mut report,
    );
    let retries_503 = session.retries.load(Ordering::Relaxed);
    session.close();

    let counts = (
        suite.runs_executed() - captures0,
        suite.replays_derived() - replays0,
        suite.store_loads() - loads0,
    );
    server.stop();

    checker.check(&mut report, &nominal);
    report.check(counts.0 == specs.len(), || {
        format!(
            "{} captures during the run, expected one per spec ({})",
            counts.0,
            specs.len()
        )
    });

    // End-to-end.
    // Latency percentiles per half-second window of due times, reported as
    // the median over windows, so the host's occasional multi-millisecond
    // stalls, which land in a minority of windows, do not decide the run's
    // figure. The whole-phase tail is the per-layer `serve.inline.tail_us`.
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for o in &nominal {
        if matches!(o.lane, Some("inline" | "replay")) {
            let window = o.due_ns.saturating_sub(phase_start) / WINDOW_NS;
            windows.entry(window).or_default().push(o.latency_us());
        }
    }
    let window_pct = |pct: f64| -> Vec<f64> {
        windows
            .values()
            .filter_map(|w| percentile(w, pct))
            .collect()
    };
    report.set_repeats("setup_s", &setups);
    report.set_repeats("wall_s", &passes.walls);
    report.set_repeats("req_p50_us", &window_pct(50.0));
    let warm_lat: Vec<f64> = windows.values().flatten().copied().collect();
    report.set_percentile("req_p99_us", &warm_lat, 99.0);
    let cold_ms: Vec<f64> = lane_latencies(&nominal, "cold")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    report.set_percentile("cold_p50_ms", &cold_ms, 50.0);
    report.set("rps_at_slo", rps_at_slo);
    report.notes.push(format!(
        "req_p50_us over {} half-second windows of the nominal phase at {NOMINAL_RPS} req/s",
        windows.len()
    ));
    report.notes.extend(ladder_notes);

    if let Some(t) = &tracer {
        for (lane, names) in [
            (
                "inline",
                [
                    "serve.inline.p50_us",
                    "serve.inline.tail_us",
                    "serve.inline.tail_pct",
                    "serve.inline.server_tail_us",
                    "serve.inline.responses",
                ],
            ),
            (
                "replay",
                [
                    "serve.replay.p50_us",
                    "serve.replay.tail_us",
                    "serve.replay.tail_pct",
                    "serve.replay.server_tail_us",
                    "serve.replay.responses",
                ],
            ),
            (
                "cold",
                [
                    "serve.cold.p50_ms",
                    "serve.cold.tail_ms",
                    "serve.cold.tail_pct",
                    "serve.cold.server_tail_ms",
                    "serve.cold.responses",
                ],
            ),
        ] {
            let scale = if lane == "cold" { 1e3 } else { 1.0 };
            let lat: Vec<f64> = lane_latencies(&nominal, lane)
                .iter()
                .map(|v| v / scale)
                .collect();
            let pct = tail_pct(lat.len(), 99.0);
            report.set_percentile(names[0], &lat, 50.0);
            match pct {
                Some(p) => report.set_percentile(names[1], &lat, p),
                None => report.set(names[1], 0.0),
            }
            report.set(names[2], pct.unwrap_or(0.0));
            let server_tail = match (&scrape0, &scrape1, pct) {
                (Some(a), Some(b), Some(p)) => {
                    bucket_percentile(&a.lanes[lane], &b.lanes[lane], p) / scale
                }
                _ => 0.0,
            };
            report.set(names[3], server_tail);
            report.set(names[4], lat.len() as f64);
        }
        if let Some(s) = &scrape1 {
            report.set("serve.queue_depth_max.replay", s.depth_max_replay);
            report.set("serve.queue_depth_max.cold", s.depth_max_cold);
            report.set("serve.dedup_attached", s.dedup_attached);
        }
        report.set("serve.retries_503", retries_503 as f64);
        report.set("serve.rps_at_slo", rps_at_slo);
        report.set_percentile("gen.lag_p99_us", &lags, 99.0);
        report.set("suite.runs_executed", counts.0 as f64);
        report.set("suite.replays_derived", counts.1 as f64);
        report.set("suite.store_loads", counts.2 as f64);
        let mut keys: Vec<usize> = nominal
            .iter()
            .filter(|o| {
                matches!(
                    cat.requests[o.req].target,
                    Target::Canned(_) | Target::Spec(..)
                )
            })
            .map(|o| o.req)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        report.set(
            "suite.captures_per_key",
            counts.0 as f64 / keys.len().max(1) as f64,
        );
        report.set(
            "workloads.gen_ns_per_instr",
            spec_workload_probe(&config, &specs, t),
        );
        let (loaded, load_s, bytes_read) = store_load_probe(&config, &store_dir, &grid, t);
        let pairs = crate::grid::distinct_pairs(&grid).len();
        report.check(loaded == pairs, || {
            format!("the filled store gave {loaded} traces, expected {pairs}")
        });
        report.set("store.load_busy_s", load_s);
        report.set("store.bytes_read", bytes_read);
        report.set(
            "store.load_us_per_mb",
            load_s * 1e6 / (bytes_read / 1e6).max(1e-9),
        );
        report.set(
            "trace.overhead_pct",
            100.0 * (stats::median(&passes.traced_walls) / stats::median(&passes.walls) - 1.0),
        );
        for (name, (busy, own)) in layer_times(&t.spans()) {
            report.notes.push(format!(
                "span {name:<14} busy {busy:>10.6} s  self {own:>10.6} s"
            ));
        }
        for (name, _) in crate::report::PER_LAYER {
            if !report.metrics.contains_key(name) {
                report.set(name, 0.0);
            }
        }
    }
    softwatt_obs::set_enabled(false);
    (report, tracer)
}

/// HTTP passes over every grid key and figure, run in blocks spread over
/// the run so they sample more than one stretch of the host's load. In a
/// traced run they alternate between tracing (spans and the server's
/// registry) off and on.
#[derive(Default)]
struct Passes {
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    count: usize,
}

impl Passes {
    fn run(
        &mut self,
        session: &mut Session,
        plan: &[Planned],
        seconds: f64,
        tracer: Option<&Tracer>,
        checker: &mut Checker,
        report: &mut Report,
    ) {
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        let traced = tracer.is_some();
        let first = self.count;
        while self.count < first + 10 || Instant::now() < until {
            let traced_turn = traced && self.count % 2 == 1;
            softwatt_obs::set_enabled(traced_turn);
            let (start, _) = session.run(&checker.cat.requests, plan);
            let outcomes = session.take_outcomes();
            let end = outcomes.iter().map(|o| o.done_ns).max().unwrap_or(start);
            let wall = (end - start) as f64 / 1e9;
            checker.check(report, &outcomes);
            match tracer {
                Some(t) if traced_turn => {
                    record_phase(
                        t,
                        "grid-pass",
                        format!("pass {}", self.count),
                        start,
                        &outcomes,
                    );
                    self.traced_walls.push(wall);
                }
                _ => self.walls.push(wall),
            }
            self.count += 1;
        }
        softwatt_obs::set_enabled(traced);
    }
}

/// Records a phase span from its start to its last response, with one
/// child span per request from its due time to its response.
fn record_phase(t: &Tracer, name: &'static str, key: String, start: u64, outcomes: &[Outcome]) {
    let end = outcomes.iter().map(|o| o.done_ns).max().unwrap_or(start);
    let root = t.record(name, None, key, start, end);
    for (i, o) in outcomes.iter().enumerate() {
        let lane = o.lane.unwrap_or("none");
        t.record(
            "serve.request",
            Some(root),
            format!("{i} {lane} req{}", o.req),
            o.due_ns,
            o.done_ns,
        );
    }
}

fn lane_latencies(outcomes: &[Outcome], lane: &str) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.lane == Some(lane))
        .map(Outcome::latency_us)
        .collect()
}

/// Checks responses: every one is a 200, and every body equals an
/// in-process render of the same key on the server's own suite (memo
/// hits: nothing is simulated here). Expected bodies are rendered once per
/// distinct request and kept as hashes.
struct Checker<'a> {
    suite: &'a ExperimentSuite,
    cat: &'a Catalog,
    specs: &'a [BenchmarkSpec],
    expected: BTreeMap<usize, Option<u64>>,
}

impl Checker<'_> {
    fn check(&mut self, report: &mut Report, outcomes: &[Outcome]) {
        for o in outcomes {
            report.check(o.status == 200, || {
                format!("request {} answered {}", o.req, o.status)
            });
            if o.status != 200 {
                continue;
            }
            let (suite, cat, specs) = (self.suite, self.cat, self.specs);
            let want = *self.expected.entry(o.req).or_insert_with(|| {
                let body = match &cat.requests[o.req].target {
                    Target::Canned(key) => json::run_bundle(*key, &suite.run_key(*key)),
                    Target::Spec(i, disk) => {
                        let workload = suite
                            .register_spec(specs[*i].clone())
                            .expect("validated spec");
                        let key = RunKey {
                            workload,
                            cpu: CpuModel::Mxs,
                            disk: *disk,
                        };
                        json::run_bundle(key, &suite.run_key(key))
                    }
                    Target::Figure(name) => json::figure(suite, name).expect("advertised figure"),
                    Target::Metrics => return None,
                };
                Some(fnv1a(body.as_bytes()))
            });
            if let Some(want) = want {
                report.check(o.body_hash == want, || {
                    format!(
                        "body of request {} differs from the in-process render",
                        o.req
                    )
                });
            }
        }
    }
}

/// Loads the paper grid's traces from the filled store into a fresh
/// suite, the store reads of a server's set-up: traces loaded, seconds
/// and bytes read.
fn store_load_probe(
    config: &SystemConfig,
    dir: &Path,
    grid: &[RunKey],
    tracer: &Tracer,
) -> (usize, f64, f64) {
    let store = TraceStore::open(dir).expect("the filled store opens");
    let suite = ExperimentSuite::new(config.clone())
        .expect("valid configuration")
        .with_trace_store(store);
    let span = tracer.open("store.load", None, "paper grid");
    let loaded = suite.prewarm_from_store(grid);
    let busy_s = (tracer.now_ns() - span.start_ns) as f64 / 1e9;
    tracer.end(span);
    let store = suite.trace_store().expect("suite has a store");
    let pairs = crate::grid::distinct_pairs(grid);
    let bytes = crate::grid::entry_bytes(store, &suite, &pairs);
    (loaded, busy_s, bytes as f64)
}

/// Nanoseconds per instruction of the generated specs' workload
/// generators, drained with no CPU attached.
fn spec_workload_probe(config: &SystemConfig, specs: &[BenchmarkSpec], tracer: &Tracer) -> f64 {
    let clocking = config.clocking();
    let (mut instrs, mut busy_ns) = (0u64, 0u64);
    for spec in specs {
        let mut workload = softwatt_workloads::Workload::new(spec.clone(), clocking, config.seed);
        let mut stats = StatsCollector::new(clocking, config.sample_interval_cycles);
        let span = tracer.open("workloads", None, spec.name.clone());
        let mut n = 0;
        while n < GEN_PROBE_INSTRS
            && std::hint::black_box(workload.next_instr(&mut stats)).is_some()
        {
            n += 1;
        }
        busy_ns += tracer.now_ns() - span.start_ns;
        tracer.end(span);
        instrs += n;
    }
    busy_ns as f64 / instrs.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn test_catalog(seed: u64) -> (Catalog, Vec<BenchmarkSpec>) {
        let suite = ExperimentSuite::new(SystemConfig::default()).unwrap();
        let specs = generate_specs(seed, 12);
        (catalog(&suite.paper_grid(), &specs), specs)
    }

    #[test]
    fn a_seed_gives_the_same_schedule_and_specs() {
        let (a, specs_a) = test_catalog(7);
        let (b, specs_b) = test_catalog(7);
        assert_eq!(specs_a, specs_b);
        assert_eq!(
            nominal_schedule(&a, 7, 5.0, 2),
            nominal_schedule(&b, 7, 5.0, 2)
        );
        let bytes = |c: &Catalog| {
            c.requests
                .iter()
                .map(|r| r.bytes.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(bytes(&a), bytes(&b));
        let (c, specs_c) = test_catalog(8);
        assert_ne!(specs_a, specs_c);
        assert_ne!(
            nominal_schedule(&a, 7, 5.0, 2),
            nominal_schedule(&c, 8, 5.0, 2)
        );
    }

    #[test]
    fn generated_specs_pass_validation_and_span_the_caches() {
        for seed in 0..50 {
            let specs = generate_specs(seed, 30);
            for spec in &specs {
                spec.validate()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
            let spans: Vec<u64> = specs.iter().map(|s| s.phases[0].span_bytes).collect();
            assert!(
                spans.iter().any(|&b| b < 32 * 1024),
                "a footprint fits the L1"
            );
            assert!(
                spans.iter().any(|&b| b > 1024 * 1024),
                "a footprint exceeds the L2"
            );
        }
    }

    #[test]
    fn cold_trickle_uses_the_last_connection_only() {
        let (cat, _) = test_catalog(3);
        let cold: Vec<usize> = cat.specs.iter().map(|s| s.0).collect();
        for p in nominal_schedule(&cat, 3, 5.0, 2) {
            assert_eq!(cold.contains(&p.req), p.conn == 1, "{p:?}");
        }
    }

    /// A synthetic stall: a server that answers nothing for 50 ms, then
    /// everything at once. Requests due during the stall are charged the
    /// time they waited, not the moment their response was read.
    #[test]
    fn open_loop_timing_charges_a_stall_to_the_requests_behind_it() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let (mut got, mut buf) = (0, [0u8; 4096]);
            let t0 = Instant::now();
            while got < 5 {
                let n = conn.read(&mut buf).unwrap();
                got += buf[..n].windows(4).filter(|w| w == b"\r\n\r\n").count();
            }
            thread::sleep(Duration::from_millis(50).saturating_sub(t0.elapsed()));
            for _ in 0..5 {
                conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
            let _ = conn.read(&mut buf);
        });
        let requests = vec![Request {
            target: Target::Metrics,
            bytes: get("/metrics"),
        }];
        let mut session = Session::connect(addr, 1, Instant::now()).unwrap();
        // One request every 10 ms; all are answered at about 50 ms.
        let plan: Vec<Planned> = (0..5)
            .map(|i| Planned {
                due_ns: i * 10_000_000,
                req: 0,
                conn: 0,
            })
            .collect();
        let (start, lags) = session.run(&requests, &plan);
        let mut outcomes = session.take_outcomes();
        session.close();
        server.join().unwrap();
        outcomes.sort_by_key(|o| o.due_ns);
        assert_eq!(outcomes.len(), 5);
        assert!(
            lags.iter().all(|&l| l < 5_000.0),
            "the generator kept to its schedule: {lags:?}"
        );
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.due_ns, start + i as u64 * 10_000_000);
            let waited_ms = o.latency_us() / 1e3;
            let expect_ms = 50.0 - 10.0 * i as f64;
            assert!(
                waited_ms >= expect_ms - 1.0 && waited_ms < expect_ms + 40.0,
                "request {i} waited {waited_ms} ms, expected about {expect_ms}"
            );
        }
    }
}
