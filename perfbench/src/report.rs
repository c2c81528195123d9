//! Metric catalogue and the result a run prints.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test keeps them
//! in step). Every run reports every metric of its list; a per-layer
//! metric whose layer a workload does not exercise reads 0. `EXTRA` holds
//! figures the benchmark prints by name for the workloads they apply to,
//! but which cannot be a gated end-to-end metric: they exist on one
//! workload only (`sim_mcycles_per_s`, and the serving latencies), read
//! 0 on a healthy run (`error_share`, which the `failed` / `attempted`
//! pair also carries), or move too much between runs of the same code on
//! a shared host (the serving latencies: an open-loop median from due
//! time moved by more than its own value between runs on two cores).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::Host;
use crate::stats::{percentile, Spread};

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Printed by name where they apply; never gated.
pub const EXTRA: &[(&str, &str)] = &[
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("cold_p50_ms", "ms"),
    ("rps_at_slo", "req/s"),
    ("error_share", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ns_per_instr", "ns"),
    ("capture.calls", "count"),
    ("capture.busy_s", "s"),
    ("capture.ns_per_cycle.mxs", "ns"),
    ("capture.ns_per_cycle.mxs1", "ns"),
    ("capture.ns_per_cycle.mipsy", "ns"),
    ("sim.cycles.mxs", "count"),
    ("sim.cycles.mxs1", "count"),
    ("sim.cycles.mipsy", "count"),
    ("sim.committed", "count"),
    ("store.save_busy_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.load_busy_s", "s"),
    ("store.bytes_read", "bytes"),
    ("store.load_us_per_mb", "us/MB"),
    ("replay.calls", "count"),
    ("replay.busy_s", "s"),
    ("replay.us_per_call", "us"),
    ("disk.replay_busy_s", "s"),
    ("power.busy_s", "s"),
    ("power.us_per_key", "us"),
    ("suite.runs_executed", "count"),
    ("suite.replays_derived", "count"),
    ("suite.store_loads", "count"),
    ("suite.captures_per_key", "ratio"),
    ("render.run_busy_s", "s"),
    ("render.run_bytes", "bytes"),
    ("render.figure_busy_s", "s"),
    ("render.figure_bytes", "bytes"),
    ("pass.self_s", "s"),
    ("serve.inline.p50_us", "us"),
    ("serve.inline.tail_us", "us"),
    ("serve.inline.tail_pct", "pct"),
    ("serve.inline.server_tail_us", "us"),
    ("serve.inline.responses", "count"),
    ("serve.replay.p50_us", "us"),
    ("serve.replay.tail_us", "us"),
    ("serve.replay.tail_pct", "pct"),
    ("serve.replay.server_tail_us", "us"),
    ("serve.replay.responses", "count"),
    ("serve.cold.p50_ms", "ms"),
    ("serve.cold.tail_ms", "ms"),
    ("serve.cold.tail_pct", "pct"),
    ("serve.cold.server_tail_ms", "ms"),
    ("serve.cold.responses", "count"),
    ("serve.queue_depth_max.replay", "count"),
    ("serve.queue_depth_max.cold", "count"),
    ("serve.dedup_attached", "count"),
    ("serve.retries_503", "count"),
    ("serve.rps_at_slo", "req/s"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_pct", "pct"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(EXTRA)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// One measured figure, with the spread of the repeats behind it or the
/// number of samples behind a percentile.
#[derive(Debug, Clone, Default)]
pub struct Metric {
    pub value: f64,
    pub spread: Option<Spread>,
    pub samples: Option<usize>,
    /// Every repeat behind `spread`, in the order measured.
    pub repeats: Vec<f64>,
    /// `value` is the fastest repeat rather than the median.
    pub fastest: bool,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Extra human-readable lines (self time per layer, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a single-valued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.insert(
            name,
            Metric {
                value,
                ..Metric::default()
            },
        );
    }

    /// Records the `pct` percentile of `samples` (0 when the samples are
    /// too few for it), keeping the sample count.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], pct: f64) {
        unit_of(name);
        self.metrics.insert(
            name,
            Metric {
                value: percentile(samples, pct).unwrap_or(0.0),
                samples: Some(samples.len()),
                ..Metric::default()
            },
        );
    }

    /// Records the median of repeated measurements, keeping their spread.
    pub fn set_repeats(&mut self, name: &'static str, repeats: &[f64]) {
        unit_of(name);
        let spread = Spread::of(repeats);
        self.metrics.insert(
            name,
            Metric {
                value: spread.map_or(0.0, |s| s.median),
                spread,
                repeats: repeats.to_vec(),
                ..Metric::default()
            },
        );
    }

    /// Records the fastest of repeated measurements, keeping their spread.
    pub fn set_fastest(&mut self, name: &'static str, repeats: &[f64]) {
        self.set_repeats(name, repeats);
        let fastest = repeats.iter().copied().fold(f64::INFINITY, f64::min);
        if let Some(m) = self.metrics.get_mut(name) {
            m.value = if fastest.is_finite() { fastest } else { 0.0 };
            m.fastest = true;
        }
    }

    /// Counts one checked operation; a failed check is an error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Counts `n` operations that were attempted and completed.
    pub fn attempted_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The names the JSON result line carries for this run.
    pub fn gated(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The human-readable table: every metric this run measured, by name,
    /// with its unit, median, quartiles and repeat count.
    pub fn table(&self, workload: &str, seed: u64, traced: bool, host: &Host) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "# workload {workload}  seed {seed}  trace {}  host: {} x{}  {}  rev {}",
            u8::from(traced),
            host.cpu_model,
            host.nproc,
            host.rustc,
            host.git_rev
        )
        .expect("write to string");
        for (name, metric) in &self.metrics {
            let unit = unit_of(name);
            match (metric.spread, metric.samples) {
                (Some(s), _) if s.n > 1 => writeln!(
                    out,
                    "{name:<34} {:>14.6} {unit:<10} {} of {} (q1 {:.6}, median {:.6}, q3 {:.6})",
                    metric.value,
                    if metric.fastest { "fastest" } else { "median" },
                    s.n,
                    s.q1,
                    s.median,
                    s.q3
                ),
                (_, Some(n)) => writeln!(
                    out,
                    "{name:<34} {:>14.6} {unit:<10} over {n} samples",
                    metric.value
                ),
                _ => writeln!(out, "{name:<34} {:>14.6} {unit}", metric.value),
            }
            .expect("write to string");
        }
        writeln!(
            out,
            "{:<34} {:>14.6} ratio      ({} failed of {} attempted)",
            "error_share",
            self.error_share(),
            self.failed,
            self.attempted
        )
        .expect("write to string");
        for note in &self.notes {
            writeln!(out, "  {note}").expect("write to string");
        }
        for e in &self.errors {
            writeln!(out, "  CHECK FAILED: {e}").expect("write to string");
        }
        out
    }

    /// The full record (host, every metric with its spread) as JSON.
    pub fn record_json(&self, workload: &str, seed: u64, traced: bool, host: &Host) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"schema\": \"softwatt-perfbench-v1\", \"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {traced}, \
             \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"rustc\": {}, \"git_rev\": {}}}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            json_str(&host.cpu_model),
            host.nproc,
            json_str(&host.rustc),
            json_str(&host.git_rev),
            self.attempted,
            self.failed
        )
        .expect("write to string");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"",
                json_num(m.value),
                unit_of(name)
            )
            .expect("write to string");
            if let Some(s) = m.spread {
                write!(
                    out,
                    ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}",
                    s.n,
                    json_num(s.q1),
                    json_num(s.median),
                    json_num(s.q3)
                )
                .expect("write to string");
            }
            if !m.repeats.is_empty() {
                let values: Vec<String> = m.repeats.iter().map(|&v| json_num(v)).collect();
                write!(out, ", \"values\": [{}]", values.join(", ")).expect("write to string");
            }
            if let Some(n) = m.samples {
                write!(out, ", \"samples\": {n}").expect("write to string");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// run's gated metrics.
    pub fn result_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in Self::gated(traced).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self.metrics.get(name).map_or(0.0, |m| m.value);
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(EXTRA)
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let doc = softwatt_serve::json::parse(json.as_bytes()).expect("BENCHMARK.json parses");
        for (list, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(list).and_then(|v| v.as_arr()).expect(list);
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(|v| v.as_str()).expect("name"),
                        e.get("unit").and_then(|v| v.as_str()).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, catalogue.to_vec(), "{list}");
        }
    }

    #[test]
    fn fastest_repeat_is_reported_beside_the_spread() {
        let mut r = Report::default();
        r.set_fastest("setup_s", &[3.0, 1.0, 2.0]);
        let m = &r.metrics["setup_s"];
        assert_eq!(m.value, 1.0);
        assert_eq!(m.spread.map(|s| s.median), Some(2.0));
        assert!(m.fastest);
        assert_eq!(m.repeats, [3.0, 1.0, 2.0]);
    }

    #[test]
    fn result_line_carries_every_gated_metric() {
        let mut r = Report::default();
        r.set("wall_s", 1.5);
        r.check(true, String::new);
        let line = r.result_line(false);
        let doc = softwatt_serve::json::parse(line.as_bytes()).expect("valid JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
        }
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(1.0));
    }
}
