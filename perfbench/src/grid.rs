//! `grid-cold` and `grid-warm`: the paper grid and every figure through
//! a fresh [`ExperimentSuite`] over a trace store.
//!
//! `grid-cold` starts each pass from an empty memo and an empty store, so
//! 13 captures own the time. `grid-warm` starts each pass from a fresh
//! memo over a store filled during set-up, so every key replays and store
//! reads, replay, power and render own the time. The traced pass drives
//! the same work through each layer's public functions, one span per call.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use softwatt::experiments::DiskSetup;
use softwatt::{
    json, system_budget, CpuModel, DiskConfig, ExperimentSuite, IdleHandling, RunKey, Simulator,
    SystemConfig, TraceStore, WorkloadKey,
};
use softwatt_isa::stream::InstrSource;
use softwatt_stats::StatsCollector;

use crate::report::Report;
use crate::stats;
use crate::trace::{layer_times, Tracer};

/// Set-up repeats: `grid-cold` only opens a suite over an empty store,
/// so it repeats that before every pass; `grid-warm` fills the store with
/// a full cold pass, a few times before the first pass.
const COLD_SETUP_REPEATS: usize = 50;
const WARM_SETUP_REPEATS: usize = 3;
/// Instructions drained per benchmark by the workload-generator probe.
const GEN_PROBE_INSTRS: u64 = 300_000;

/// Which grid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    Cold,
    Warm,
}

/// One pass's rendered output: 37 run bodies, then the seven figures.
type Bodies = Vec<String>;

struct Ctx {
    config: SystemConfig,
    keys: Vec<RunKey>,
}

fn key_label(key: RunKey) -> String {
    format!("{}/{}/{}", key.workload, key.cpu.name(), key.disk.name())
}

/// Every run body and figure of a suite whose keys are resolved.
fn render_all(suite: &ExperimentSuite, keys: &[RunKey]) -> Bodies {
    let mut bodies: Bodies = keys
        .iter()
        .map(|&k| json::run_bundle(k, &suite.run_key(k)))
        .collect();
    for name in json::FIGURES {
        bodies.push(json::figure(suite, name).expect("every advertised figure renders"));
    }
    bodies
}

fn open_suite(ctx: &Ctx, dir: &Path) -> ExperimentSuite {
    let store = TraceStore::open(dir).expect("trace store directory is writable");
    ExperimentSuite::new(ctx.config.clone())
        .expect("default configuration is valid")
        .with_trace_store(store)
}

/// Removes a previous pass's store; opening the store recreates it.
fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove the previous store");
    }
}

/// The untraced pass: what a user of the library runs, on one thread.
/// With two, which thread reaches a shared (benchmark, CPU) capture first
/// decides how long the other waits, and pass times split into modes a
/// quarter apart that measure that race rather than the layers.
fn plain_pass(ctx: &Ctx, suite: &ExperimentSuite) -> (f64, Bodies) {
    let t0 = Instant::now();
    suite.run_all(1);
    let bodies = render_all(suite, &ctx.keys);
    (t0.elapsed().as_secs_f64(), bodies)
}

/// Per-layer figures of one traced pass.
#[derive(Debug, Default)]
struct LayerPass {
    wall_s: f64,
    captures: usize,
    capture_busy_ns: [u64; 3],
    cycles: [u64; 3],
    committed: u64,
    bytes_written: u64,
    bytes_read: u64,
    run_bytes: u64,
    figure_bytes: u64,
    /// Busy and self seconds per span name, this pass only.
    times: BTreeMap<&'static str, (f64, f64)>,
}

fn cpu_index(cpu: CpuModel) -> usize {
    match cpu {
        CpuModel::Mxs => 0,
        CpuModel::MxsSingleIssue => 1,
        CpuModel::Mipsy => 2,
    }
}

pub(crate) fn distinct_pairs(keys: &[RunKey]) -> Vec<(WorkloadKey, CpuModel)> {
    let mut pairs = Vec::new();
    for k in keys {
        if !pairs.contains(&(k.workload, k.cpu)) {
            pairs.push((k.workload, k.cpu));
        }
    }
    pairs
}

pub(crate) fn entry_bytes(
    store: &TraceStore,
    suite: &ExperimentSuite,
    pairs: &[(WorkloadKey, CpuModel)],
) -> u64 {
    pairs
        .iter()
        .map(|&(w, cpu)| {
            std::fs::metadata(store.entry_path(&suite.trace_key(w, cpu))).map_or(0, |m| m.len())
        })
        .sum()
}

/// The traced pass: the plain pass's work, driven layer by layer with a
/// span around every call and in the order `run_all(1)` takes it (keys in
/// grid order; the first key of a (benchmark, CPU) pair resolves its
/// trace). The trace comes from a capture saved to the store
/// (`grid-cold`) or from the store alone (`grid-warm`); either way it is
/// then loaded into the suite, so a cold traced pass reads back what it
/// wrote, which the plain pass does not.
fn traced_pass(
    ctx: &Ctx,
    grid: Grid,
    dir: &Path,
    tracer: &Tracer,
    label: String,
) -> (LayerPass, Bodies) {
    let suite = open_suite(ctx, dir);
    let store = suite.trace_store().expect("suite has a store").clone();
    let pairs = distinct_pairs(&ctx.keys);
    let mut resolved = vec![false; pairs.len()];
    let mut captured = Vec::new();
    let t0 = Instant::now();
    let root = tracer.open("pass", None, label);
    let parent = Some(root.id);

    for &key in &ctx.keys {
        let (workload, cpu) = (key.workload, key.cpu);
        let pair = pairs
            .iter()
            .position(|p| *p == (workload, cpu))
            .expect("pair of a grid key");
        if !resolved[pair] {
            resolved[pair] = true;
            let id = format!("{workload}/{}", cpu.name());
            if grid == Grid::Cold {
                let benchmark = workload.canned().expect("the paper grid is canned");
                let mut config = ctx.config.clone();
                config.cpu = cpu;
                config.idle = IdleHandling::Analytic;
                let sim = Simulator::new(config).expect("valid configuration");
                let span = tracer.open("capture", parent, id.clone());
                let (run, trace) = sim.run_benchmark_traced(benchmark);
                let capture_ns = tracer.now_ns() - span.start_ns;
                tracer.end(span);
                let trace_key = suite.trace_key(workload, cpu);
                tracer.wrap("store.save", parent, id.clone(), || {
                    store.store(&trace_key, &trace)
                });
                captured.push((cpu, capture_ns, run.cycles, run.committed));
            }
            let loaded = tracer.wrap("store.load", parent, id, || {
                suite.prewarm_from_store(&[key])
            });
            assert_eq!(
                loaded, 1,
                "the trace of {workload} on {cpu:?} is in the store"
            );
        }
        tracer.wrap("replay", parent, key_label(key), || suite.run_key(key));
    }

    let mut bodies = Bodies::new();
    for &key in &ctx.keys {
        let bundle = suite.run_key(key);
        bodies.push(tracer.wrap("render.run", parent, key_label(key), || {
            json::run_bundle(key, &bundle)
        }));
    }
    for name in json::FIGURES {
        bodies.push(tracer.wrap("render.figure", parent, name, || {
            json::figure(&suite, name).expect("every advertised figure renders")
        }));
    }
    let root_id = root.id;
    tracer.end(root);

    let mut layer = LayerPass {
        wall_s: t0.elapsed().as_secs_f64(),
        bytes_read: entry_bytes(&store, &suite, &pairs),
        ..LayerPass::default()
    };
    for (cpu, ns, cycles, committed) in captured {
        layer.captures += 1;
        layer.capture_busy_ns[cpu_index(cpu)] += ns;
        layer.cycles[cpu_index(cpu)] += cycles;
        layer.committed += committed;
    }
    if grid == Grid::Cold {
        layer.bytes_written = layer.bytes_read;
    }
    let spans: Vec<_> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.id == root_id || s.parent == Some(root_id))
        .collect();
    layer.times = layer_times(&spans);
    let runs = ctx.keys.len();
    layer.run_bytes = bodies[..runs].iter().map(|b| b.len() as u64).sum();
    layer.figure_bytes = bodies[runs..].iter().map(|b| b.len() as u64).sum();
    (layer, bodies)
}

/// Seconds the power post-processing of every grid key takes on its own:
/// the budget, the per-window profile and the per-mode table.
fn power_probe(ctx: &Ctx, suite: &ExperimentSuite, tracer: &Tracer) -> f64 {
    let mut busy_ns = 0;
    for &key in &ctx.keys {
        let bundle = suite.run_key(key);
        let span = tracer.open("power", None, key_label(key));
        std::hint::black_box(system_budget(&bundle.model, &bundle.run));
        std::hint::black_box(bundle.model.profile(&bundle.run.log));
        std::hint::black_box(bundle.model.mode_table(&bundle.run.log));
        busy_ns += tracer.now_ns() - span.start_ns;
        tracer.end(span);
    }
    busy_ns as f64 / 1e9
}

/// Nanoseconds per instruction the workload generators need on their own,
/// with no CPU attached.
fn workload_probe(ctx: &Ctx, tracer: &Tracer) -> f64 {
    let clocking = ctx.config.clocking();
    let mut instrs = 0u64;
    let mut busy_ns = 0u64;
    for benchmark in softwatt::Benchmark::ALL {
        let mut workload = benchmark.workload(clocking, ctx.config.seed);
        let mut stats = StatsCollector::new(clocking, ctx.config.sample_interval_cycles);
        let span = tracer.open("workloads", None, benchmark.name());
        let start = tracer.now_ns();
        let mut n = 0;
        while n < GEN_PROBE_INSTRS {
            if std::hint::black_box(workload.next_instr(&mut stats)).is_none() {
                break;
            }
            n += 1;
        }
        busy_ns += tracer.now_ns() - start;
        tracer.end(span);
        instrs += n;
    }
    busy_ns as f64 / instrs.max(1) as f64
}

/// Seconds `softwatt_disk::replay_requests` takes on its own for every
/// key of the grid, over the traces in `dir`.
fn disk_replay_probe(ctx: &Ctx, dir: &Path, tracer: &Tracer) -> f64 {
    let suite = open_suite(ctx, dir);
    let store = suite.trace_store().expect("suite has a store");
    let clocking = ctx.config.clocking();
    let mut busy_ns = 0;
    for &key in &ctx.keys {
        let trace = store
            .load(&suite.trace_key(key.workload, key.cpu))
            .expect("trace stored by the pass");
        let disk = DiskConfig {
            policy: key.disk.policy(),
            ..ctx.config.disk
        };
        let span = tracer.open("disk.replay", None, key_label(key));
        let start = tracer.now_ns();
        std::hint::black_box(softwatt_disk::replay_requests(
            disk,
            clocking,
            &trace.requests,
            trace.work_cycles,
        ));
        busy_ns += tracer.now_ns() - start;
        tracer.end(span);
    }
    busy_ns as f64 / 1e9
}

fn compare(report: &mut Report, reference: &[String], bodies: &[String], what: &str) {
    for (i, (want, got)) in reference.iter().zip(bodies).enumerate() {
        report.check(want == got, || {
            format!("{what}: body {i} differs from the reference")
        });
    }
    report.check(reference.len() == bodies.len(), || {
        format!(
            "{what}: {} bodies, expected {}",
            bodies.len(),
            reference.len()
        )
    });
}

/// Runs one grid workload for about `seconds` of measurement.
pub fn run(
    grid: Grid,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> (Report, Option<Tracer>) {
    let config = crate::config(seed);
    let keys = ExperimentSuite::new(config.clone())
        .expect("default configuration is valid")
        .paper_grid();
    let ctx = Ctx { config, keys };
    let mut report = Report::default();
    let origin = Instant::now();
    let tracer = traced.then(|| Tracer::new(origin));
    let pairs = distinct_pairs(&ctx.keys).len();
    let store_dir: PathBuf = scratch.join("store");

    // Set-up: grid-cold opens a suite over an empty store (before every
    // pass, and repeated here); grid-warm fills the store, several times,
    // and keeps the cold bodies as the reference every warm pass must
    // reproduce byte for byte.
    let mut setups = Vec::new();
    let mut reference: Option<Bodies> = None;
    if grid == Grid::Warm {
        for _ in 0..WARM_SETUP_REPEATS {
            let t0 = Instant::now();
            fresh_dir(&store_dir);
            let suite = open_suite(&ctx, &store_dir);
            suite.run_all(1);
            setups.push(t0.elapsed().as_secs_f64());
            report.check(suite.runs_executed() == pairs, || {
                format!(
                    "store fill ran {} captures, expected {pairs}",
                    suite.runs_executed()
                )
            });
            let bodies = render_all(&suite, &ctx.keys);
            if let Some(first) = &reference {
                compare(&mut report, first, &bodies, "store fill");
            }
            reference = Some(bodies);
        }
    }

    crate::host::reset_peak_rss();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers: Vec<LayerPass> = Vec::new();
    let mut suite_counts = (0, 0, 0);
    let mut last_suite = None;
    let measure_start = Instant::now();
    let mut pass = 0usize;
    while pass == 0
        || measure_start.elapsed().as_secs_f64() < seconds
        || (traced && layers.is_empty())
    {
        let traced_turn = traced && pass % 2 == 1;
        if grid == Grid::Cold && !traced_turn {
            // Each repeat opens an empty store directory of its own, made
            // beforehand: the timing is the suite's set-up, not directory
            // creation and removal, whose deferred file-system work would
            // land in whichever repeat came next.
            let dirs: Vec<PathBuf> = (0..COLD_SETUP_REPEATS)
                .map(|i| scratch.join(format!("setup-{i}")))
                .collect();
            for dir in &dirs {
                std::fs::create_dir_all(dir).expect("create a store directory");
            }
            for dir in &dirs {
                let t0 = Instant::now();
                drop(open_suite(&ctx, dir));
                setups.push(t0.elapsed().as_secs_f64());
            }
            for dir in &dirs {
                fresh_dir(dir);
            }
        }
        if grid == Grid::Cold {
            fresh_dir(&store_dir);
        }
        if traced_turn {
            let tracer = tracer.as_ref().expect("traced run has a tracer");
            let label = format!(
                "{}#{pass}",
                if grid == Grid::Cold {
                    "grid-cold"
                } else {
                    "grid-warm"
                }
            );
            let (layer, bodies) = traced_pass(&ctx, grid, &store_dir, tracer, label);
            traced_walls.push(layer.wall_s);
            layers.push(layer);
            compare(
                &mut report,
                reference.as_ref().expect("reference from the first pass"),
                &bodies,
                "traced pass",
            );
        } else {
            let suite = open_suite(&ctx, &store_dir);
            let (wall, bodies) = plain_pass(&ctx, &suite);
            walls.push(wall);
            let (captures, replays, loads) = (
                suite.runs_executed(),
                suite.replays_derived(),
                suite.store_loads(),
            );
            let want_captures = if grid == Grid::Cold { pairs } else { 0 };
            report.check(captures == want_captures, || {
                format!("pass {pass}: {captures} captures, expected {want_captures}")
            });
            report.check(replays == ctx.keys.len(), || {
                format!(
                    "pass {pass}: {replays} replays, expected {}",
                    ctx.keys.len()
                )
            });
            let want_loads = pairs - want_captures;
            report.check(loads == want_loads, || {
                format!("pass {pass}: {loads} store loads, expected {want_loads}")
            });
            suite_counts = (captures, replays, loads);
            let reference = reference.get_or_insert_with(|| {
                report.attempted_ok(bodies.len() as u64);
                bodies.clone()
            });
            compare(&mut report, reference, &bodies, "pass");
            last_suite = Some(suite);
        }
        pass += 1;
    }

    let suite = last_suite.expect("at least one plain pass");
    if grid == Grid::Cold {
        // A few microseconds of system calls: their median follows the
        // host's load by more than half between runs, their fastest does
        // not.
        report.set_fastest("setup_s", &setups);
    } else {
        report.set_repeats("setup_s", &setups);
    }
    report.set_repeats("wall_s", &walls);
    if grid == Grid::Cold {
        let cycles: u64 = distinct_pairs(&ctx.keys)
            .iter()
            .map(|&(w, cpu)| {
                suite
                    .run_key(RunKey {
                        workload: w,
                        cpu,
                        disk: DiskSetup::Conventional,
                    })
                    .run
                    .cycles
            })
            .sum();
        let per_pass: Vec<f64> = walls.iter().map(|w| cycles as f64 / 1e6 / w).collect();
        report.set_repeats("sim_mcycles_per_s", &per_pass);
    }

    if let Some(tracer) = &tracer {
        set_layers(&mut report, ctx.keys.len(), &layers, suite_counts);
        report.set("workloads.gen_ns_per_instr", workload_probe(&ctx, tracer));
        report.set(
            "disk.replay_busy_s",
            disk_replay_probe(&ctx, &store_dir, tracer),
        );
        let power_s = power_probe(&ctx, &suite, tracer);
        report.set("power.busy_s", power_s);
        report.set("power.us_per_key", power_s * 1e6 / ctx.keys.len() as f64);
        let overhead = 100.0 * (stats::median(&traced_walls) / stats::median(&walls) - 1.0);
        report.set("trace.overhead_pct", overhead);
        let times = layer_times(&tracer.spans());
        for (name, (busy, own)) in &times {
            report.notes.push(format!("span {name:<14} busy {busy:>10.6} s  self {own:>10.6} s (all traced passes and probes)"));
        }
    }
    (report, tracer)
}

fn set_layers(
    report: &mut Report,
    keys: usize,
    layers: &[LayerPass],
    suite: (usize, usize, usize),
) {
    let med =
        |f: &dyn Fn(&LayerPass) -> f64| stats::median(&layers.iter().map(f).collect::<Vec<_>>());
    let busy = |name: &'static str| med(&|l: &LayerPass| l.times.get(name).map_or(0.0, |t| t.0));
    report.set("capture.calls", med(&|l| l.captures as f64));
    report.set("capture.busy_s", busy("capture"));
    let cpus = [
        ("capture.ns_per_cycle.mxs", "sim.cycles.mxs"),
        ("capture.ns_per_cycle.mxs1", "sim.cycles.mxs1"),
        ("capture.ns_per_cycle.mipsy", "sim.cycles.mipsy"),
    ];
    for (i, (per_cycle, cycles)) in cpus.into_iter().enumerate() {
        report.set(
            per_cycle,
            med(&|l| l.capture_busy_ns[i] as f64 / l.cycles[i].max(1) as f64),
        );
        report.set(cycles, med(&|l| l.cycles[i] as f64));
        report.check(
            layers.iter().all(|l| l.cycles[i] == layers[0].cycles[i]),
            || format!("{cycles} differs between passes of one seed"),
        );
    }
    report.set("sim.committed", med(&|l| l.committed as f64));
    report.set("store.save_busy_s", busy("store.save"));
    report.set("store.bytes_written", med(&|l| l.bytes_written as f64));
    let load_s = busy("store.load");
    let bytes_read = med(&|l| l.bytes_read as f64);
    report.set("store.load_busy_s", load_s);
    report.set("store.bytes_read", bytes_read);
    report.set(
        "store.load_us_per_mb",
        load_s * 1e6 / (bytes_read / 1e6).max(1e-9),
    );
    let replay_s = busy("replay");
    report.set("replay.calls", keys as f64);
    report.set("replay.busy_s", replay_s);
    report.set("replay.us_per_call", replay_s * 1e6 / keys as f64);
    let (captures, replays, loads) = suite;
    report.set("suite.runs_executed", captures as f64);
    report.set("suite.replays_derived", replays as f64);
    report.set("suite.store_loads", loads as f64);
    report.set("suite.captures_per_key", captures as f64 / keys as f64);
    report.set("render.run_busy_s", busy("render.run"));
    report.set("render.run_bytes", med(&|l| l.run_bytes as f64));
    report.set("render.figure_busy_s", busy("render.figure"));
    report.set("render.figure_bytes", med(&|l| l.figure_bytes as f64));
    report.set(
        "pass.self_s",
        med(&|l| l.times.get("pass").map_or(0.0, |t| t.1)),
    );
}
