//! Thermal zones and trip-point tables (the sensing layer).
//!
//! This module turns the scattered threshold constants of the original
//! manager (`RF_GUARD`, the toggle proximity band, the re-enable margin)
//! into *data*: every monitored block becomes a [`ThermalZone`] carrying an
//! ordered [`TripTable`] whose [`TripPoint`]s pair a trip temperature with
//! a clear (hysteresis) temperature and a severity. The shape follows the
//! `ThermalZone`/`TripPoint`/`CoolingDevice` split of OS thermal
//! frameworks; the decision reads the tables instead of recomputing
//! thresholds. A zone is only a block and its table: [`Zones`] groups
//! them by resource, and that position says which actuator cools them.
//!
//! Two kinds of tables exist:
//!
//! * **Zone tables** are derived from [`Thresholds`] by [`Zones::new`] with
//!   the exact arithmetic the pre-refactor manager used, so the spatial
//!   techniques' comparisons stay bit-identical to the original
//!   hard-coded ones.
//! * **Policy tables** ship inside the global-policy parameters
//!   ([`crate::DvfsParams`], [`crate::GateParams`]) and drive the throttle
//!   ladders; these are user-configurable and validated (see
//!   [`TripTable::validate`]).

use crate::{InlineList, MitigationConfig, Sensors, Thresholds};
use serde::{Deserialize, Serialize};

/// Maximum trip points per table.
pub const MAX_TRIPS: usize = 4;

/// How urgent a tripped point is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TripSeverity {
    /// Early warning: preventive balancing (toggling, throttle ladder
    /// step-downs) engages here.
    Passive,
    /// The resource is overheating: shut it off / throttle hard.
    Hot,
    /// The thermal limit itself: the temporal freeze backstop fires.
    Critical,
}

/// One trip point: trip at `temp`, clear (with hysteresis) at `clear_temp`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TripPoint {
    /// Severity class of this point.
    pub severity: TripSeverity,
    /// Temperature (K) at or above which the point trips.
    pub temp: f64,
    /// Temperature (K) at or below which the point clears. Must be below
    /// `temp`; the gap is the hysteresis band.
    pub clear_temp: f64,
}

impl TripPoint {
    /// A trip point.
    #[must_use]
    pub const fn new(severity: TripSeverity, temp: f64, clear_temp: f64) -> Self {
        TripPoint { severity, temp, clear_temp }
    }

    /// Validates this point: finite temperatures and `clear_temp < temp`.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem, naming the severity so a
    /// multi-point table error is attributable.
    pub fn validate(&self) -> Result<(), String> {
        if !self.temp.is_finite() || !self.clear_temp.is_finite() {
            return Err(format!("{:?} trip point has non-finite temperatures", self.severity));
        }
        if self.clear_temp >= self.temp {
            return Err(format!(
                "{:?} trip point clears at {} K which is not below its trip temperature {} K \
                 (hysteresis would be inverted)",
                self.severity, self.clear_temp, self.temp
            ));
        }
        Ok(())
    }
}

impl Default for TripPoint {
    /// An inert point (tripping at 0 K) filling a table's unused slots.
    fn default() -> Self {
        TripPoint::new(TripSeverity::Passive, 0.0, -1.0)
    }
}

/// An ordered trip-point table (ascending trip temperatures).
pub type TripTable = InlineList<TripPoint, MAX_TRIPS>;

impl TripTable {
    /// Validates the table: non-empty, every point valid, temperatures
    /// non-decreasing.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("trip table must contain at least one point".into());
        }
        for p in self.as_slice() {
            p.validate()?;
        }
        for w in self.as_slice().windows(2) {
            if w[1].temp < w[0].temp {
                return Err(format!(
                    "trip points out of order: {} K before {} K",
                    w[0].temp, w[1].temp
                ));
            }
        }
        Ok(())
    }

    /// The highest-temperature point tripped by `temp`, if any.
    #[must_use]
    pub fn highest_tripped(&self, temp: f64) -> Option<&TripPoint> {
        self.as_slice().iter().rev().find(|p| temp >= p.temp)
    }

    /// Whether a point of the given severity is tripped by `temp`.
    #[must_use]
    pub fn tripped(&self, severity: TripSeverity, temp: f64) -> bool {
        self.as_slice().iter().any(|p| p.severity == severity && temp >= p.temp)
    }

    /// Whether `temp` is at or below every non-critical point's clear
    /// temperature (the ladder may relax).
    #[must_use]
    pub fn all_clear(&self, temp: f64) -> bool {
        self.as_slice()
            .iter()
            .filter(|p| p.severity != TripSeverity::Critical)
            .all(|p| temp <= p.clear_temp)
    }
}

/// One monitored block with its trip table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalZone {
    /// Floorplan block index (indexes the temperature vector).
    pub block: usize,
    /// Trip points, ascending.
    pub trips: TripTable,
}

impl ThermalZone {
    /// This zone's current temperature from the floorplan-indexed vector.
    #[must_use]
    pub fn temp(&self, temps: &[f64]) -> f64 {
        temps[self.block]
    }
}

/// All thermal zones of a core, resolved from the floorplan sensors.
///
/// The layout mirrors [`Sensors`] so the decision can address zones
/// structurally; [`Zones::iter`] walks every zone for the global ladders,
/// which only care about the hottest reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Zones {
    /// Integer issue-queue halves (block order matches `Sensors::int_q`).
    pub int_q: [ThermalZone; 2],
    /// FP issue-queue halves.
    pub fp_q: [ThermalZone; 2],
    /// Integer ALUs.
    pub int_alus: Vec<ThermalZone>,
    /// FP adders.
    pub fp_adders: Vec<ThermalZone>,
    /// The FP multiplier.
    pub fp_mul: ThermalZone,
    /// Integer register-file copies.
    pub int_reg: [ThermalZone; 2],
}

impl Zones {
    /// Builds the zone set for `sensors` with trip tables derived from the
    /// config's [`Thresholds`].
    ///
    /// The derived trip temperatures use the *same floating-point
    /// arithmetic* as the pre-refactor manager's inline comparisons
    /// (`max_temp - toggle_proximity`, `max_temp - guard`,
    /// `max_temp - reenable_margin`), which is what keeps the spatial
    /// techniques bit-identical to the original implementation.
    #[must_use]
    pub fn new(sensors: &Sensors, cfg: &MitigationConfig) -> Self {
        let th = &cfg.thresholds;
        let iq = |block| ThermalZone { block, trips: iq_trips(th) };
        let unit = |&block: &usize| ThermalZone { block, trips: unit_trips(th) };
        // The register-file shutdown threshold depends on the staleness
        // solution: solution 1 (default) holds a guard band below critical
        // so writes can continue into the cooling copy; solution 2 gates
        // writes instead and shuts off at critical itself.
        let guard = if cfg.rf_stale_copy { 0.0 } else { crate::RF_GUARD };
        let rf = |block| ThermalZone { block, trips: rf_trips(th, guard) };
        Zones {
            int_q: sensors.int_q.map(iq),
            fp_q: sensors.fp_q.map(iq),
            int_alus: sensors.int_alus.iter().map(unit).collect(),
            fp_adders: sensors.fp_adders.iter().map(unit).collect(),
            fp_mul: unit(&sensors.fp_mul),
            int_reg: sensors.int_reg.map(rf),
        }
    }

    /// Every zone, in a fixed order (int IQ halves, FP IQ halves, integer
    /// ALUs, FP adders, FP multiplier, register-file copies).
    pub fn iter(&self) -> impl Iterator<Item = &ThermalZone> {
        self.int_q
            .iter()
            .chain(self.fp_q.iter())
            .chain(self.int_alus.iter())
            .chain(self.fp_adders.iter())
            .chain(std::iter::once(&self.fp_mul))
            .chain(self.int_reg.iter())
    }

    /// The hottest reading across all zones.
    #[must_use]
    pub fn hottest(&self, temps: &[f64]) -> f64 {
        self.iter().map(|z| z.temp(temps)).fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Issue-queue half table: toggling engages within the proximity band
/// (Passive); an overheated half cannot be turned off, so the critical
/// point is the freeze trigger.
fn iq_trips(th: &Thresholds) -> TripTable {
    TripTable::new(&[
        TripPoint::new(
            TripSeverity::Passive,
            th.max_temp - th.toggle_proximity,
            th.max_temp - th.toggle_proximity - th.toggle_delta,
        ),
        TripPoint::new(TripSeverity::Critical, th.max_temp, th.max_temp - th.reenable_margin),
    ])
    .expect("two points fit")
}

/// Functional-unit table: turn off at the limit (Hot), re-enable below the
/// hysteresis margin; the limit is also the freeze trigger when turnoff is
/// not enabled.
fn unit_trips(th: &Thresholds) -> TripTable {
    TripTable::new(&[
        TripPoint::new(TripSeverity::Hot, th.max_temp, th.max_temp - th.reenable_margin),
        TripPoint::new(TripSeverity::Critical, th.max_temp, th.max_temp - th.reenable_margin),
    ])
    .expect("two points fit")
}

/// Register-file copy table: shutdown sits `guard` kelvin below critical
/// (the staleness solution 1 write-through band).
fn rf_trips(th: &Thresholds, guard: f64) -> TripTable {
    TripTable::new(&[
        TripPoint::new(TripSeverity::Hot, th.max_temp - guard, th.max_temp - th.reenable_margin),
        TripPoint::new(TripSeverity::Critical, th.max_temp, th.max_temp - th.reenable_margin),
    ])
    .expect("two points fit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_thermal::ev6;

    fn table(points: &[TripPoint]) -> TripTable {
        TripTable::new(points).expect("fits")
    }

    #[test]
    fn empty_table_is_rejected_at_validation() {
        let t = table(&[]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn single_trip_table_is_valid() {
        let t = table(&[TripPoint::new(TripSeverity::Hot, 358.0, 357.0)]);
        t.validate().expect("single point is a legitimate table");
    }

    #[test]
    fn inverted_hysteresis_is_rejected_per_severity() {
        // Satellite requirement: clear temperature at or above the trip
        // temperature must be rejected, for every severity level.
        for severity in [TripSeverity::Passive, TripSeverity::Hot, TripSeverity::Critical] {
            let equal = table(&[TripPoint::new(severity, 356.0, 356.0)]);
            assert!(equal.validate().is_err(), "{severity:?}: clear == trip must be rejected");
            let above = table(&[TripPoint::new(severity, 356.0, 357.0)]);
            assert!(above.validate().is_err(), "{severity:?}: clear > trip must be rejected");
            let ok = table(&[TripPoint::new(severity, 356.0, 355.0)]);
            ok.validate().unwrap_or_else(|e| panic!("{severity:?}: valid point rejected: {e}"));
        }
    }

    #[test]
    fn out_of_order_points_are_rejected() {
        let t = table(&[
            TripPoint::new(TripSeverity::Hot, 358.0, 357.0),
            TripPoint::new(TripSeverity::Passive, 356.0, 355.0),
        ]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn too_many_points_rejected_at_construction() {
        let p = TripPoint::new(TripSeverity::Passive, 350.0, 349.0);
        assert!(TripTable::new(&[p; MAX_TRIPS + 1]).is_err());
    }

    #[test]
    fn trip_queries() {
        let t = table(&[
            TripPoint::new(TripSeverity::Passive, 356.0, 355.0),
            TripPoint::new(TripSeverity::Critical, 358.0, 357.0),
        ]);
        assert!(t.highest_tripped(354.0).is_none());
        assert_eq!(t.highest_tripped(356.5).expect("tripped").severity, TripSeverity::Passive);
        assert_eq!(t.highest_tripped(358.2).expect("tripped").severity, TripSeverity::Critical);
        assert!(t.tripped(TripSeverity::Critical, 358.0));
        assert!(!t.tripped(TripSeverity::Critical, 357.9));
        assert!(t.all_clear(354.9), "below the passive clear");
        assert!(!t.all_clear(355.5), "inside the hysteresis band");
    }

    #[test]
    fn table_round_trips_through_json() {
        let t = table(&[
            TripPoint::new(TripSeverity::Passive, 356.0, 355.5),
            TripPoint::new(TripSeverity::Hot, 357.8, 357.0),
            TripPoint::new(TripSeverity::Critical, 358.0, 357.0),
        ]);
        let json = serde::json::to_string(&t);
        let back: TripTable = serde::json::from_str(&json).expect("deserialize");
        assert_eq!(back, t);
    }

    #[test]
    fn zone_tables_match_the_legacy_threshold_arithmetic() {
        let plan = ev6::baseline();
        let sensors = Sensors::new(&plan).expect("ev6 names");
        let cfg = MitigationConfig::spatial_all();
        let th = cfg.thresholds;
        let zones = Zones::new(&sensors, &cfg);

        // Bit-exact equality with the expressions the manager historically
        // inlined — the spatial policy's comparisons depend on this.
        let passive = zones.int_q[0].trips.as_slice()[0];
        assert_eq!(passive.temp.to_bits(), (th.max_temp - th.toggle_proximity).to_bits());
        let unit_hot = zones.int_alus[3].trips.as_slice()[0];
        assert_eq!(unit_hot.temp.to_bits(), th.max_temp.to_bits());
        assert_eq!(unit_hot.clear_temp.to_bits(), (th.max_temp - th.reenable_margin).to_bits());
        let rf_hot = zones.int_reg[0].trips.as_slice()[0];
        assert_eq!(rf_hot.temp.to_bits(), (th.max_temp - crate::RF_GUARD).to_bits());

        // Solution 2 removes the guard band.
        let mut stale = cfg;
        stale.rf_stale_copy = true;
        let zones2 = Zones::new(&sensors, &stale);
        let rf_hot2 = zones2.int_reg[0].trips.as_slice()[0];
        assert_eq!(rf_hot2.temp.to_bits(), th.max_temp.to_bits());
    }

    #[test]
    fn zones_cover_every_sensor() {
        let plan = ev6::baseline();
        let sensors = Sensors::new(&plan).expect("ev6 names");
        let zones = Zones::new(&sensors, &MitigationConfig::spatial_all());
        assert_eq!(zones.iter().count(), 4 + sensors.int_alus.len() + sensors.fp_adders.len() + 3);
        let mut temps = vec![300.0; plan.blocks().len()];
        temps[sensors.fp_mul] = 359.0;
        assert!((zones.hottest(&temps) - 359.0).abs() < 1e-12);
    }
}
