//! The sampled simulation log consumed by the power post-processor.
//!
//! Mirroring the paper's design, the simulator does not evaluate power models
//! while running. Instead the [`crate::StatsCollector`] appends a delta
//! [`Sample`] to a [`SimLog`] every `sample_interval` cycles; the
//! `softwatt-power` crate later replays the log through the analytical
//! models. This loses per-cycle information (as the paper acknowledges) but
//! adds no simulation slowdown.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use crate::{Mode, ModeCounters, UnitEvent};

/// One sampling window of the simulation log.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cycle at which the window ends (exclusive).
    pub end_cycle: u64,
    /// Cycles spent in each mode during the window, indexed by
    /// [`Mode::index`].
    pub mode_cycles: [u64; Mode::COUNT],
    /// Event-count deltas accumulated during the window, per mode.
    ///
    /// Frozen once the sample is emitted: nothing mutates a published
    /// block, so clones of a sample (a trace's segments, a replayed log)
    /// share one allocation instead of copying the counters.
    pub events: Arc<ModeCounters>,
}

// A sample is a handle, not a counter block: copying one must stay a
// few words, or replay goes back to moving kilobytes per window.
const _: () = assert!(std::mem::size_of::<Sample>() <= 64);

impl Sample {
    /// Total cycles covered by this sample window.
    pub fn cycles(&self) -> u64 {
        self.mode_cycles.iter().sum()
    }
}

/// An append-only sequence of [`Sample`]s plus whole-run metadata.
///
/// # Examples
///
/// ```
/// use softwatt_stats::{Clocking, Mode, StatsCollector, UnitEvent};
///
/// let mut stats = StatsCollector::new(Clocking::full_speed(200.0e6), 4);
/// for _ in 0..10 {
///     stats.record(UnitEvent::AluOp);
///     stats.tick();
/// }
/// let log = stats.finish();
/// assert_eq!(log.total_cycles(), 10);
/// // Two full windows of 4 cycles plus the 2-cycle remainder.
/// assert_eq!(log.samples().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimLog {
    clocking: crate::Clocking,
    sample_interval: u64,
    samples: Vec<Sample>,
}

impl SimLog {
    pub(crate) fn new(clocking: crate::Clocking, sample_interval: u64) -> SimLog {
        SimLog {
            clocking,
            sample_interval,
            samples: Vec::new(),
        }
    }

    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.samples.reserve_exact(additional);
    }

    pub(crate) fn push(&mut self, sample: Sample) {
        debug_assert!(
            self.samples
                .last()
                .is_none_or(|s| s.end_cycle < sample.end_cycle),
            "samples must be appended in cycle order"
        );
        self.samples.push(sample);
    }

    /// The clocking the run was performed under.
    pub fn clocking(&self) -> crate::Clocking {
        self.clocking
    }

    /// Nominal sampling window length in cycles (the final sample may be
    /// shorter).
    pub fn sample_interval(&self) -> u64 {
        self.sample_interval
    }

    /// All samples in cycle order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Total simulated cycles across all samples.
    pub fn total_cycles(&self) -> u64 {
        self.samples.iter().map(Sample::cycles).sum()
    }

    /// Total cycles attributed to `mode`.
    pub fn mode_cycles(&self, mode: Mode) -> u64 {
        self.samples
            .iter()
            .map(|s| s.mode_cycles[mode.index()])
            .sum()
    }

    /// Writes the log as CSV — the on-disk "simulation log file" of the
    /// paper's Figure 1 pipeline. Columns: `end_cycle`, one cycle column
    /// per mode, then one column per `(mode, event)` pair.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "# softwatt simlog v1 hz={} scale={} interval={}",
            self.clocking.hz(),
            self.clocking.scale(),
            self.sample_interval
        )?;
        write!(w, "end_cycle")?;
        for m in Mode::ALL {
            write!(w, ",cycles_{}", m.label())?;
        }
        for m in Mode::ALL {
            for e in UnitEvent::ALL {
                write!(w, ",{}_{}", m.label(), e.label())?;
            }
        }
        writeln!(w)?;
        for s in &self.samples {
            write!(w, "{}", s.end_cycle)?;
            for m in Mode::ALL {
                write!(w, ",{}", s.mode_cycles[m.index()])?;
            }
            for m in Mode::ALL {
                for e in UnitEvent::ALL {
                    write!(w, ",{}", s.events.mode(m).get(e))?;
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }

    /// Reads a log previously written by [`SimLog::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or a malformed file (wrong
    /// header, wrong column count, unparsable numbers).
    pub fn from_csv<R: BufRead>(r: R) -> io::Result<SimLog> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad("empty log file"))??;
        let rest = header
            .strip_prefix("# softwatt simlog v1 ")
            .ok_or_else(|| bad("missing simlog header"))?;
        let mut hz = None;
        let mut scale = None;
        let mut interval = None;
        for field in rest.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad("malformed header field"))?;
            match key {
                "hz" => hz = value.parse::<f64>().ok(),
                "scale" => scale = value.parse::<f64>().ok(),
                "interval" => interval = value.parse::<u64>().ok(),
                _ => {}
            }
        }
        let (hz, scale, interval) = match (hz, scale, interval) {
            (Some(h), Some(s), Some(i)) => (h, s, i),
            _ => return Err(bad("incomplete simlog header")),
        };
        let _columns = lines.next().ok_or_else(|| bad("missing column header"))??;
        let mut log = SimLog::new(crate::Clocking::scaled(hz, scale), interval);
        let expected = 1 + Mode::COUNT + Mode::COUNT * UnitEvent::COUNT;
        for line in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            let mut next_u64 = || -> io::Result<u64> {
                fields
                    .next()
                    .ok_or_else(|| bad("short row"))?
                    .parse()
                    .map_err(|_| bad("unparsable count"))
            };
            let end_cycle = next_u64()?;
            let mut mode_cycles = [0u64; Mode::COUNT];
            for mc in &mut mode_cycles {
                *mc = next_u64()?;
            }
            let mut events = ModeCounters::new();
            for m in Mode::ALL {
                for e in UnitEvent::ALL {
                    events.mode_mut(m).add(e, next_u64()?);
                }
            }
            if line.split(',').count() != expected {
                return Err(bad("wrong column count"));
            }
            log.push(Sample {
                end_cycle,
                mode_cycles,
                events: Arc::new(events),
            });
        }
        Ok(log)
    }

    /// Sums event counters over the whole run, per mode.
    pub fn total_events(&self) -> ModeCounters {
        let mut out = ModeCounters::new();
        for s in &self.samples {
            for m in Mode::ALL {
                out.mode_mut(m).merge(s.events.mode(m));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clocking, CounterSet, UnitEvent};

    fn sample(end: u64, user_cycles: u64, alu: u64) -> Sample {
        let mut events = ModeCounters::new();
        events.mode_mut(Mode::User).add(UnitEvent::AluOp, alu);
        let mut mode_cycles = [0; Mode::COUNT];
        mode_cycles[Mode::User.index()] = user_cycles;
        Sample {
            end_cycle: end,
            mode_cycles,
            events: Arc::new(events),
        }
    }

    #[test]
    fn aggregates_cycles_and_events() {
        let mut log = SimLog::new(Clocking::default(), 100);
        log.push(sample(100, 100, 40));
        log.push(sample(200, 100, 60));
        assert_eq!(log.total_cycles(), 200);
        assert_eq!(log.mode_cycles(Mode::User), 200);
        assert_eq!(log.mode_cycles(Mode::Idle), 0);
        let totals = log.total_events();
        assert_eq!(totals.mode(Mode::User).get(UnitEvent::AluOp), 100);
        assert_eq!(totals.combined(), {
            let mut c = CounterSet::new();
            c.add(UnitEvent::AluOp, 100);
            c
        });
    }

    #[test]
    fn csv_round_trip_preserves_the_log() {
        let mut log = SimLog::new(Clocking::scaled(200.0e6, 2000.0), 100);
        log.push(sample(100, 100, 40));
        log.push(sample(200, 100, 60));
        let mut buf = Vec::new();
        log.to_csv(&mut buf).unwrap();
        let back = SimLog::from_csv(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn csv_rejects_garbage() {
        let garbage = b"not a log
1,2,3
";
        assert!(SimLog::from_csv(std::io::BufReader::new(&garbage[..])).is_err());
    }

    #[test]
    fn empty_log_is_zero() {
        let log = SimLog::new(Clocking::default(), 10);
        assert_eq!(log.total_cycles(), 0);
        assert!(log.samples().is_empty());
    }
}
