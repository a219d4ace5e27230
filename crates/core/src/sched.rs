//! Thermal-aware schedulers for the multi-core simulator.
//!
//! A [`SchedulerKind`] places pending workload segments onto cores using
//! nothing but a per-core [`CoreView`] (current hottest-block temperature
//! and whether the core is free) and one state word
//! ([`SchedulerKind::select`]). Three policies ship, spanning the design
//! space the related work stakes out:
//!
//! * [`SchedulerKind::RoundRobin`] — thermally blind rotation. The
//!   baseline every thermal-aware policy is measured against, and the
//!   adversarial case in the oracle-bound tests: on an alternating
//!   hot/cool arrival sequence it pins every hot job to the same core.
//! * [`SchedulerKind::CoolestFirst`] — Hung-style predicted-temperature
//!   allocation: always place on the coolest free core, so heat spreads
//!   over the die and each core cools between hot segments.
//! * [`SchedulerKind::Threshold`] — a Chrobak-style admission policy:
//!   behave like Coolest-First but *refuse* to start work on any core
//!   above a temperature threshold θ, deferring the segment instead.
//!   Under the abstract cooling model `T' = (T + h)/2` (run) /
//!   `T' = T/2` (idle), admission below θ caps the post-step peak at
//!   `(θ + h_max)/2` — a closed-form bound the test suite pins.
//!
//! The module is deliberately free of simulator dependencies: policies
//! see only `&[CoreView]`, and a [`Task`] is generic over its payload
//! (the simulator threads its trace sources through it). That is what
//! lets `tests/oracle_bounds.rs` drive the *same* placement rule with the
//! abstract Chrobak recurrence and compare against analytic fixed points.

use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// Scheduler selector vocabulary: config files, CLI `--scheduler`, and
/// the fuzzer draw from this list. On the wire a kind is its
/// [`name`](Self::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Thermally blind rotation over the cores.
    #[default]
    RoundRobin,
    /// Place each segment on the coolest free core (Hung-style).
    CoolestFirst,
    /// Coolest-first admission, but defer rather than start a segment on
    /// a core hotter than the threshold (Chrobak-style).
    Threshold,
}

impl SchedulerKind {
    /// Every kind, in the order sweeps and the fuzzer enumerate them.
    pub const ALL: [SchedulerKind; 3] =
        [SchedulerKind::RoundRobin, SchedulerKind::CoolestFirst, SchedulerKind::Threshold];

    /// Stable wire/CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::CoolestFirst => "coolest-first",
            SchedulerKind::Threshold => "threshold",
        }
    }

    /// Inverse of [`name`](Self::name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<SchedulerKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Picks a core for the next pending segment, or `None` to defer it.
    /// Deferral blocks the queue head — segments are dispatched in FIFO
    /// order, never reordered around a deferred one.
    ///
    /// The rule is a pure function of its arguments, so the multi-core
    /// engine stays reproducible (and the fuzzer's replay exact).
    /// `theta` is the admission temperature θ (kelvin in the simulator,
    /// model units in the abstract tests); only
    /// [`SchedulerKind::Threshold`] reads it. `word` is the policy's whole
    /// state, which the engine snapshots: RoundRobin keeps the next core
    /// of its rotation there, and the other kinds leave it alone.
    pub fn select(self, theta: f64, word: &mut u64, cores: &[CoreView]) -> Option<usize> {
        match self {
            SchedulerKind::RoundRobin => {
                // The word comes back from snapshots: reduce it before
                // adding, so no restored value can overflow.
                let n = cores.len() as u64;
                let c =
                    (0..n).map(|off| (*word % n + off) % n).find(|&c| cores[c as usize].free)?;
                *word = (c + 1) % n;
                Some(c as usize)
            }
            SchedulerKind::CoolestFirst => coolest_free(cores, f64::INFINITY),
            SchedulerKind::Threshold => coolest_free(cores, theta),
        }
    }
}

impl Serialize for SchedulerKind {
    fn serialize(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl<'de> Deserialize<'de> for SchedulerKind {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let name = value.as_str()?;
        Self::from_name(name).ok_or_else(|| Error::custom(format!("unknown scheduler '{name}'")))
    }
}

/// What a scheduler is allowed to know about one core at a decision
/// point: its current hottest-block temperature and whether it is free
/// to accept a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreView {
    /// Hottest-block temperature of the core's floorplan slice.
    pub temp: f64,
    /// `true` when the core has no running segment (and no pending
    /// migration stall) and can accept work.
    pub free: bool,
}

/// Index of the coolest free core strictly below `limit`, ties to the
/// lowest index.
fn coolest_free(cores: &[CoreView], limit: f64) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (c, view) in cores.iter().enumerate() {
        if !view.free || view.temp >= limit {
            continue;
        }
        match best {
            Some(b) if cores[b].temp <= view.temp => {}
            _ => best = Some(c),
        }
    }
    best
}

/// How long a segment is for scheduling purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentLen {
    /// Drain the payload completely (or run until the campaign's cycle
    /// budget expires).
    Unbounded,
    /// Fetch at most this many micro-ops, then retire the segment.
    Ops(u64),
}

/// One schedulable workload segment. `P` is the payload the simulator
/// runs (a trace source); the scheduler layer never looks inside it.
#[derive(Debug)]
pub struct Task<P> {
    /// Job identity: segments sharing a job id are phases of one logical
    /// job, and moving a job between cores is a migration (charged a
    /// fetch-stall penalty by the engine).
    pub job: u64,
    /// Segment length.
    pub len: SegmentLen,
    /// The workload itself.
    pub payload: P,
}

impl<P> Task<P> {
    /// A segment of `job` running `payload` to completion.
    pub fn unbounded(job: u64, payload: P) -> Self {
        Task { job, len: SegmentLen::Unbounded, payload }
    }

    /// A segment of `job` fetching at most `ops` micro-ops of `payload`.
    pub fn ops(job: u64, ops: u64, payload: P) -> Self {
        Task { job, len: SegmentLen::Ops(ops), payload }
    }
}

/// Default migration penalty: cycles the destination core spends
/// fetch-stalled (quiesced at idle power) before a migrated job's
/// segment starts, modeling pipeline drain plus a cold front-end.
pub const DEFAULT_MIGRATION_STALL: u64 = 2_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn views(temps: &[f64], free: &[bool]) -> Vec<CoreView> {
        temps.iter().zip(free).map(|(&temp, &free)| CoreView { temp, free }).collect()
    }

    #[test]
    fn kinds_round_trip_names() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_name("fifo"), None);
    }

    #[test]
    fn the_wire_form_is_the_cli_name() {
        for kind in SchedulerKind::ALL {
            let json = serde::json::to_string(&kind);
            assert_eq!(json, format!("\"{}\"", kind.name()));
            assert_eq!(serde::json::from_str::<SchedulerKind>(&json), Ok(kind));
        }
        let err = serde::json::from_str::<SchedulerKind>("\"hottest\"").unwrap_err();
        assert!(err.to_string().contains("unknown scheduler 'hottest'"), "{err}");
    }

    #[test]
    fn round_robin_rotates_and_skips_busy() {
        let rr = |word: &mut u64, cores: &[CoreView]| {
            SchedulerKind::RoundRobin.select(350.0, word, cores)
        };
        let mut word = 0;
        let free = views(&[0.0; 3], &[true, true, true]);
        assert_eq!(rr(&mut word, &free), Some(0));
        assert_eq!(rr(&mut word, &free), Some(1));
        assert_eq!(rr(&mut word, &free), Some(2));
        assert_eq!(rr(&mut word, &free), Some(0));
        let busy1 = views(&[0.0; 3], &[false, false, true]);
        assert_eq!(rr(&mut word, &busy1), Some(2));
        assert_eq!(rr(&mut word, &views(&[0.0; 3], &[false, false, false])), None);
    }

    #[test]
    fn round_robin_state_word_round_trips() {
        let rr = SchedulerKind::RoundRobin;
        let free = views(&[0.0; 4], &[true; 4]);
        let mut word = 0;
        rr.select(0.0, &mut word, &free);
        rr.select(0.0, &mut word, &free);
        assert_eq!(word, 2, "the word is the next core of the rotation");
        let mut copy = word;
        assert_eq!(rr.select(0.0, &mut copy, &free), rr.select(0.0, &mut word, &free));
        assert_eq!(copy, word);
        // The stateless kinds leave the word alone.
        for kind in [SchedulerKind::CoolestFirst, SchedulerKind::Threshold] {
            kind.select(1.0, &mut word, &free);
            assert_eq!(word, copy, "{kind:?}");
        }
        // A word restored from a damaged snapshot still names a core.
        let mut word = u64::MAX;
        assert_eq!(rr.select(0.0, &mut word, &free), Some(3), "u64::MAX % 4");
        assert_eq!(word, 0);
    }

    #[test]
    fn coolest_first_picks_min_temp_ties_to_lowest_index() {
        let mut word = 0;
        let mut cf = |cores: &[CoreView]| SchedulerKind::CoolestFirst.select(0.0, &mut word, cores);
        assert_eq!(cf(&views(&[5.0, 3.0, 4.0], &[true; 3])), Some(1));
        assert_eq!(cf(&views(&[5.0, 3.0, 3.0], &[true; 3])), Some(1));
        assert_eq!(cf(&views(&[5.0, 3.0, 4.0], &[true, false, true])), Some(2));
        assert_eq!(cf(&views(&[5.0], &[false])), None);
    }

    #[test]
    fn threshold_defers_above_theta() {
        let mut word = 0;
        let mut th = |cores: &[CoreView]| SchedulerKind::Threshold.select(4.0, &mut word, cores);
        assert_eq!(th(&views(&[5.0, 3.0], &[true; 2])), Some(1));
        assert_eq!(th(&views(&[5.0, 4.0], &[true; 2])), None, "at θ is refused");
        assert_eq!(th(&views(&[3.9, 3.5], &[true, false])), Some(0));
    }
}
