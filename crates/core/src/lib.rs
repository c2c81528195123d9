//! # SoftWatt — complete-machine simulation for software power estimation
//!
//! A from-scratch Rust reproduction of *"Using Complete Machine Simulation
//! for Software Power Estimation: The SoftWatt Approach"* (Gurumurthi et
//! al., HPCA 2002). This crate is the facade tying the substrate crates
//! into the paper's full system:
//!
//! - [`SystemConfig`]: the machine description (defaults = the paper's
//!   Table 1: 4-wide R10000-like core, 32 KB split L1s, 1 MB L2, 64-entry
//!   software-managed TLB, 128 MB memory, 0.35 µm / 3.3 V / 200 MHz);
//! - [`Simulator`]: boots the OS model over a workload, runs the selected
//!   CPU model cycle by cycle, and collects the sampled simulation log,
//!   kernel-service profile, and online disk-energy accounting;
//! - [`softwatt_power::PowerModel`]: post-processes the log into Watts;
//! - [`experiments`]: one entry point per table and figure of the paper's
//!   evaluation (see `DESIGN.md` §5 for the experiment index);
//! - the six SPEC JVM98-like workloads re-exported as [`Benchmark`].
//!
//! # Quickstart
//!
//! ```
//! use softwatt::{Benchmark, Simulator, SystemConfig};
//! use softwatt_power::PowerModel;
//!
//! // Shrink the run for doc-test speed; default scale is 2000.
//! let mut config = SystemConfig::default();
//! config.time_scale = 50_000.0;
//!
//! let sim = Simulator::new(config.clone())?;
//! let run = sim.run_benchmark(Benchmark::Jess);
//! let model = PowerModel::new(&config.power_params());
//! let budget = softwatt::budget::system_budget(&model, &run);
//! assert!(budget.total_w() > 1.0, "a running machine burns watts");
//! # Ok::<(), String>(())
//! ```

pub mod budget;
pub mod config;
pub mod experiments;
pub mod json;
pub mod report;
pub mod sim;
pub mod store;

pub use budget::{budget_from_table, system_budget, SystemBudget};
pub use config::{CpuModel, IdleHandling, SystemConfig};
pub use experiments::{ExperimentSuite, Fidelity, RunKey, WorkloadKey};
pub use sim::{RunResult, Simulator};
pub use store::{PeerSource, TraceKey, TraceStore};

// The public API surface re-exports the pieces users need.
pub use softwatt_disk::{DiskConfig, DiskPolicy};
pub use softwatt_power::{GroupPower, PowerModel, PowerParams, UnitGroup};
pub use softwatt_stats::{Clocking, Mode, SimLog};
pub use softwatt_workloads::{Benchmark, BenchmarkSpec, IoBurst, PhaseSpec, SyscallRates};
