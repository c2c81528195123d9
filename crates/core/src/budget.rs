//! Whole-system power budgets: processor/memory groups plus the disk
//! (Figures 5 and 7).

use std::fmt;

use softwatt_power::{GroupPower, ModePowerTable, PowerModel, UnitGroup};

use crate::sim::RunResult;

/// The system-wide average-power budget of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemBudget {
    /// Processor + memory-subsystem average power per group (W).
    pub groups: GroupPower,
    /// Disk average power over the run (W).
    pub disk_w: f64,
}

impl SystemBudget {
    /// Total system power (W).
    pub fn total_w(&self) -> f64 {
        self.groups.total() + self.disk_w
    }

    /// The disk's share of the budget, in percent (the paper's headline:
    /// 34% conventional, 23% with the IDLE-capable disk). A zero-power
    /// budget (empty trace, degenerate config) has no shares: every
    /// percentage is 0, never NaN.
    pub fn disk_pct(&self) -> f64 {
        Self::share_pct(self.disk_w, self.total_w())
    }

    /// One group's share of the budget, in percent (0 when the budget
    /// itself is zero).
    pub fn group_pct(&self, group: UnitGroup) -> f64 {
        Self::share_pct(self.groups.get(group), self.total_w())
    }

    fn share_pct(part: f64, total: f64) -> f64 {
        if total > 0.0 {
            100.0 * part / total
        } else {
            0.0
        }
    }

    /// Averages several budgets (the paper averages over all benchmarks).
    /// Returns `None` for an empty slice — an empty benchmark selection is
    /// a caller error to surface, not a panic.
    pub fn mean_of(budgets: &[SystemBudget]) -> Option<SystemBudget> {
        if budgets.is_empty() {
            return None;
        }
        let n = budgets.len() as f64;
        let mut groups = GroupPower::new();
        let mut disk_w = 0.0;
        for b in budgets {
            groups.merge(&b.groups);
            disk_w += b.disk_w;
        }
        Some(SystemBudget {
            groups: groups.scaled(1.0 / n),
            disk_w: disk_w / n,
        })
    }
}

impl fmt::Display for SystemBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (g, w) in self.groups.iter() {
            writeln!(
                f,
                "{:<12} {:7.3} W  {:5.1}%",
                g.label(),
                w,
                self.group_pct(g)
            )?;
        }
        writeln!(
            f,
            "{:<12} {:7.3} W  {:5.1}%",
            "Disk",
            self.disk_w,
            self.disk_pct()
        )?;
        write!(f, "{:<12} {:7.3} W", "Total", self.total_w())
    }
}

/// Computes a run's system budget: processor/memory power from the log via
/// the analytical models, disk power from its online energy accounting.
pub fn system_budget(model: &PowerModel, run: &RunResult) -> SystemBudget {
    budget_from_table(&model.mode_table(&run.log), run)
}

/// [`system_budget`] from a run's already-computed per-mode power table
/// (`model.mode_table(&run.log)`), for callers that keep the table.
pub fn budget_from_table(table: &ModePowerTable, run: &RunResult) -> SystemBudget {
    SystemBudget {
        groups: table.overall_average_power_w(),
        disk_w: if run.duration_s > 0.0 {
            run.disk.energy_j / run.duration_s
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(l1i: f64, disk: f64) -> SystemBudget {
        let mut groups = GroupPower::new();
        groups.add(UnitGroup::L1I, l1i);
        SystemBudget {
            groups,
            disk_w: disk,
        }
    }

    #[test]
    fn percentages_sum_to_one_hundred() {
        let b = budget(6.0, 4.0);
        let sum: f64 = UnitGroup::ALL.iter().map(|&g| b.group_pct(g)).sum::<f64>() + b.disk_pct();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!((b.disk_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn mean_averages_componentwise() {
        let m = SystemBudget::mean_of(&[budget(2.0, 4.0), budget(4.0, 2.0)]).unwrap();
        assert!((m.groups.get(UnitGroup::L1I) - 3.0).abs() < 1e-12);
        assert!((m.disk_w - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert!(SystemBudget::mean_of(&[]).is_none());
    }

    #[test]
    fn zero_power_budget_has_zero_percentages_not_nan() {
        let b = budget(0.0, 0.0);
        assert_eq!(b.total_w(), 0.0);
        assert_eq!(b.disk_pct(), 0.0);
        for g in UnitGroup::ALL {
            assert_eq!(b.group_pct(g), 0.0, "{}", g.label());
        }
        // The Display impl must render without NaN poisoning the report.
        let rendered = format!("{b}");
        assert!(!rendered.contains("NaN"), "{rendered}");
    }
}
