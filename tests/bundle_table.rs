//! A bundle's memoized power table is exactly the table its model computes
//! from its log, and it is computed once: every call hands back the same
//! table.

use std::ptr;

use softwatt::experiments::{DiskSetup, ExperimentSuite, RunKey};
use softwatt::{Benchmark, CpuModel, IdleHandling, Mode, SystemConfig, UnitGroup};
use softwatt_power::ModePowerTable;

fn config() -> SystemConfig {
    SystemConfig {
        time_scale: 50_000.0,
        idle: IdleHandling::Analytic,
        ..SystemConfig::default()
    }
}

/// Field-by-field bit equality: `PartialEq` on `f64` would let `0.0`
/// stand in for `-0.0`.
fn assert_bits_equal(memo: &ModePowerTable, direct: &ModePowerTable, label: &str) {
    assert_eq!(memo.mode_cycles, direct.mode_cycles, "{label}: mode cycles");
    assert_eq!(
        memo.freq_hz.to_bits(),
        direct.freq_hz.to_bits(),
        "{label}: frequency"
    );
    for mode in Mode::ALL {
        for group in UnitGroup::ALL {
            assert_eq!(
                memo.mode_energy_j[mode.index()].get(group).to_bits(),
                direct.mode_energy_j[mode.index()].get(group).to_bits(),
                "{label}: {} energy of {}",
                mode.label(),
                group.label()
            );
        }
    }
}

fn check_suite(suite: &ExperimentSuite, what: &str) {
    let mut spec = Benchmark::Jess.spec();
    spec.name = "jess-table-memo".to_string();
    let workload = suite.register_spec(spec).expect("valid spec");
    let mut keys = suite.paper_grid();
    keys.push(RunKey {
        workload,
        cpu: CpuModel::Mxs,
        disk: DiskSetup::IdleOnly,
    });
    for key in keys {
        let bundle = suite.run_key(key);
        let label = format!("{what} {key:?}");
        let first = bundle.mode_table();
        assert_bits_equal(first, &bundle.model.mode_table(&bundle.run.log), &label);
        assert!(
            ptr::eq(first, bundle.mode_table()),
            "{label}: the table is computed once"
        );
        assert!(
            ptr::eq(first, suite.run_key(key).mode_table()),
            "{label}: a memo hit shares the bundle's table"
        );
    }
}

#[test]
fn replayed_bundles_memoize_the_exact_table() {
    check_suite(&ExperimentSuite::new(config()).unwrap(), "replay");
}

#[test]
fn fully_simulated_bundles_memoize_the_exact_table() {
    check_suite(
        &ExperimentSuite::with_full_simulation(config()).unwrap(),
        "full",
    );
}
