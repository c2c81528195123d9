//! The `full` fidelity contract of [`ExperimentSuite::run_full`]: a memo
//! miss runs a fresh simulation even when the trace for a replay is
//! ready, its bundle is bit-identical to the replayed one, and a memo hit
//! returns the shared bundle without simulating again.

use std::sync::Arc;

use softwatt::experiments::{DiskSetup, ExperimentSuite, RunKey};
use softwatt::{Benchmark, CpuModel, IdleHandling, RunResult, SystemConfig};

fn analytic_config() -> SystemConfig {
    SystemConfig {
        time_scale: 500_000.0,
        idle: IdleHandling::Analytic,
        ..SystemConfig::default()
    }
}

/// Bit-for-bit equality of everything a run produces (the same gate
/// `replay_equivalence.rs` applies).
fn assert_exact(full: &RunResult, replayed: &RunResult) {
    assert_eq!(full.cycles, replayed.cycles, "cycles");
    assert_eq!(full.committed, replayed.committed, "committed");
    assert_eq!(full.user_instrs, replayed.user_instrs, "user instrs");
    assert_eq!(full.log, replayed.log, "sampled log");
    assert_eq!(full.disk, replayed.disk, "disk report");
    assert_eq!(
        full.disk.energy_j.to_bits(),
        replayed.disk.energy_j.to_bits(),
        "disk energy"
    );
    assert_eq!(
        full.services.aggregates(),
        replayed.services.aggregates(),
        "kernel-service profile"
    );
    assert_eq!(
        full.duration_s.to_bits(),
        replayed.duration_s.to_bits(),
        "duration"
    );
}

#[test]
fn run_full_simulates_a_miss_and_shares_a_hit() {
    let sibling = RunKey::canned(
        Benchmark::Db,
        CpuModel::MxsSingleIssue,
        DiskSetup::Conventional,
    );
    let key = RunKey::canned(Benchmark::Db, CpuModel::MxsSingleIssue, DiskSetup::IdleOnly);
    let suite = ExperimentSuite::new(analytic_config()).unwrap();

    // Capture the (db, mxs1) trace through a sibling disk policy, so the
    // key under test could be answered by a replay.
    suite.run_key(sibling);
    assert!(suite.trace_ready(key.workload, key.cpu));
    let (runs, replays) = (suite.runs_executed(), suite.replays_derived());

    let full = suite.run_full(key);
    assert_eq!(suite.runs_executed(), runs + 1, "a fresh simulation ran");
    assert_eq!(suite.replays_derived(), replays, "no replay was derived");

    let replaying = ExperimentSuite::new(analytic_config()).unwrap();
    let replayed = replaying.run_key(key);
    assert_eq!(replaying.replays_derived(), 1, "the reference is a replay");
    assert_exact(&full.run, &replayed.run);

    // Memo hits share the bundle, whichever entry point memoized it.
    assert!(Arc::ptr_eq(&suite.run_full(key), &full));
    assert!(Arc::ptr_eq(&suite.run_key(key), &full));
    assert!(Arc::ptr_eq(
        &suite.run_full(sibling),
        &suite.run_key(sibling)
    ));
    assert_eq!(suite.runs_executed(), runs + 1, "hits never simulate");
    assert_eq!(suite.replays_derived(), replays);
}
