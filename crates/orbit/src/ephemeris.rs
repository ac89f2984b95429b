//! Precomputed satellite ephemerides: propagate once, serve every site.
//!
//! Pass prediction is observer-*dependent* (elevation masks, look
//! angles) but the satellite trajectory it consumes is
//! observer-*independent*: a 27-site campaign that propagates the same
//! satellite 27 times recomputes identical SGP4 states, GMST values,
//! and TEME→ECEF rotations 26 times too many. An [`EphemerisGrid`]
//! removes that waste in the shape of an inference-stack KV-cache —
//! compute once, serve many:
//!
//! 1. propagate SGP4 over the scan window once, at a coarse cadence
//!    ([`DEFAULT_STEP_S`]), storing the **ECEF** position *and* velocity
//!    of every sample (the velocity falls out of [`teme_to_ecef`] for
//!    free and is the *exact* time derivative of the ECEF position —
//!    the transport theorem's `−ω×r` term is what makes it so);
//! 2. answer any `state_at(t)` query by **cubic Hermite** interpolation
//!    between the two bracketing samples — no SGP4, no `gmst_rad`, no
//!    frame rotation on the per-site hot path;
//! 3. feed the interpolated state to the observer's cheap
//!    [`look_at_ecef`](crate::topo::Observer::look_at_ecef) projection.
//!
//! ## Accuracy contract
//!
//! Hermite interpolation with exact endpoint derivatives has error
//! `‖f − H‖ ≤ h⁴/384 · max‖f⁗‖`. A LEO ECEF trajectory is dominated by
//! a rotation at orbital rate `ω ≈ 1.1×10⁻³ rad/s` with radius
//! `r ≈ 7000 km`, so `max‖f⁗‖ ≈ r·ω⁴` and the bound evaluates to
//! ~0.35 m at `h = 60 s` — *sub-metre* at the default cadence, and
//! still ≈ 28 m at the [`MAX_STEP_S`] clamp used for multi-month
//! windows. Slant ranges are ≥ 400 km for any above-horizon LEO
//! geometry, so even the clamped worst case perturbs elevation by
//! < 0.004°, comfortably inside the documented contract:
//!
//! * interpolated **position** within [`MAX_POSITION_ERROR_KM`] of
//!   direct SGP4 (asserted by [`EphemerisGrid::validate`], which
//!   probes the hardest points — inter-sample midpoints);
//! * interpolated **elevation** within [`MAX_ELEVATION_ERROR_DEG`] of
//!   direct SGP4 from any ground observer (checked across the Table-3
//!   constellations by the `ephemeris_check` CI binary and by the
//!   `prop_orbit` property tests).
//!
//! ## The lattice kernel
//!
//! Cold grid builds are the largest cost of a full-scale campaign, so
//! [`EphemerisGrid::build`] runs a lean kernel whose output is bit for
//! bit that of `teme_to_ecef(&sgp4.propagate_at(t)?, t)`:
//!
//! * SGP4's per-element-set invariants (`ao`, `sin`/`cos` of the
//!   inclination) are computed once at construction, not per sample;
//! * the six angle wraps per sample (five in SGP4, one in GMST) use
//!   [`crate::rem_tau`] instead of libm `fmod`. It is exact: once its
//!   quotient `n` is right, the true remainder `|x| − n·τ` is
//!   representable, so the single rounding of `(-n).mul_add(τ, |x|)`
//!   returns it unchanged, and a wrong `n` shows as a result outside
//!   `[0, τ)` and is corrected by one step;
//! * the propagation counters and the Kepler-iteration histogram are
//!   updated once per grid, not once per sample, so the two pool
//!   threads no longer share a cache line on every sample. The totals
//!   are those of `n` counted propagations.
//!
//! ### Lane kernel and shared lattice
//!
//! Two more levers keep every bit:
//!
//! * **Lanes.** Eight consecutive instants go through SGP4 together
//!   (`Sgp4::propagate_lanes`). Each arithmetic expression is the
//!   scalar one, in the same order, over fixed `[f64; 8]` arrays, so
//!   it vectorises, and it runs in an AVX2/FMA body when the CPU has
//!   one (runtime dispatch, as in [`visibility`](crate::visibility)).
//!   IEEE-754 `+ − × ÷ √` round each lane exactly as scalar code does;
//!   Rust never contracts `a * b + c` into an FMA; `mul_add` rounds once
//!   with or without hardware FMA; and every `sin`, `cos`, `powf` and
//!   `atan2` stays one libm call per lane. The Kepler loop runs per
//!   lane. A lane the scalar code would reject before Kepler's
//!   equation (eccentricity out of range) is not tallied; every failed
//!   lane stores NaN. The scalar `Sgp4::propagate` serves the last
//!   `n mod 8` samples and every direct query.
//! * **Shared lattice.** Every satellite's grid over one window samples
//!   the same instants, bit for bit, so they share one [`Lattice`]:
//!   `t0`, the step, and the `(-gmst).sin_cos()` that rotates each
//!   instant from TEME to ECEF, computed once per window instead of once
//!   per satellite. It is memoised under its exact window,
//!   `(start bits, end bits)`, which fixes every instant, so it cannot
//!   serve another window. The memo holds only weak references: a
//!   lattice lives as long as some grid holds it, and dropping the
//!   grids (`satiot_core::sweep::clear`) frees it.
//!
//! Unit tests run every dispatch body the CPU supports against scalar
//! `propagate` (drag and `isimp` orbits, batches mixing Ok and failed
//! lanes, angles past `rem_tau`'s fast range, Kepler tallies), and grid
//! tests compare every sample of lattices of every length modulo 8
//! with direct propagation. CI runs the orbit tests in release too,
//! the only build in which the kernel vectorises.
//!
//! ## The `SATIOT_EPHEMERIS` knob
//!
//! * `SATIOT_EPHEMERIS=0` (or `off`) — direct SGP4 everywhere.
//! * unset / any other value — grids on (the default).
//! * `SATIOT_EPHEMERIS=validate` — grids on, and every grid built
//!   through `satiot_core::sweep` is probed against direct SGP4 at
//!   build time, panicking if the position contract is violated.
//!
//! The knob is parsed once by `satiot_core::RunOptions::from_env()`,
//! and a campaign hands its one [`EphemerisMode`] to every predictor it
//! builds, so its phases can never mix backends mid-run (which would
//! break bit-determinism). This module holds no mode of its own.

use crate::frames::{teme_to_ecef, teme_to_ecef_by, StateEcef};
use crate::sgp4::{count_propagations, KeplerTally, Sgp4, LANES};
use crate::time::JulianDate;
use crate::vec3::Vec3;
use satiot_obs::metrics::Counter;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Grids built process-wide (metrics).
static GRIDS_BUILT: Counter = Counter::new("orbit.ephemeris.grids_built");
/// SGP4 samples stored across all grids (metrics).
static GRID_SAMPLES: Counter = Counter::new("orbit.ephemeris.grid_samples");
/// `state_at` queries answered by interpolation (metrics).
static INTERPOLATIONS: Counter = Counter::new("orbit.ephemeris.interpolations");
/// `state_at` queries outside the grid or over invalid samples (metrics).
static GRID_MISSES: Counter = Counter::new("orbit.ephemeris.grid_misses");

/// Default sample spacing, seconds. 60 s keeps the Hermite error
/// sub-metre for any LEO orbit (see the module docs).
pub const DEFAULT_STEP_S: f64 = 60.0;

/// Widest spacing a grid will ever use, seconds. Multi-month windows
/// stretch the step (capping samples near [`TARGET_MAX_SAMPLES`]) but
/// never beyond this, keeping the position error ≤ ~28 m ≪ the mask
/// refinement scale.
pub const MAX_STEP_S: f64 = 180.0;

/// Soft cap on samples per grid (2¹⁷ ≈ 131 k ≈ 6 MB of f64 state); the
/// step widens toward [`MAX_STEP_S`] before the count may grow past it.
pub const TARGET_MAX_SAMPLES: usize = 1 << 17;

/// Position-error contract: interpolated ECEF position stays within
/// this of direct SGP4, at any step up to [`MAX_STEP_S`].
pub const MAX_POSITION_ERROR_KM: f64 = 0.05;

/// Elevation-error contract versus direct SGP4, degrees, for any
/// ground observer with the satellite above the horizon.
pub const MAX_ELEVATION_ERROR_DEG: f64 = 0.01;

/// How pass prediction uses ephemeris grids (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EphemerisMode {
    /// Direct SGP4 everywhere (the A/B baseline).
    Off,
    /// Shared grids on the predict path (the default).
    On,
    /// Grids on, plus a build-time probe of the position contract.
    Validate,
}

/// A worst-case probe report from [`EphemerisGrid::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// Largest interpolated-vs-direct position error seen, km.
    pub max_position_error_km: f64,
    /// Largest interpolated-vs-direct velocity error seen, km/s.
    pub max_velocity_error_km_s: f64,
    /// Midpoints probed.
    pub probes: usize,
}

impl ValidationReport {
    /// Whether the probe stayed inside the position contract.
    pub fn within_contract(&self) -> bool {
        self.max_position_error_km <= MAX_POSITION_ERROR_KM
    }
}

/// The sample instants of one scan window and the TEME→ECEF rotation
/// at each, shared by every grid built over that window.
///
/// Every satellite's grid over a window samples the same instants, bit
/// for bit, so they share one GMST rotation per instant. Lattices are
/// memoised by their exact window, `(start bits, end bits)`, which
/// fixes `t0`, the step and the length; the memo holds only weak
/// references, so a lattice lives exactly as long as some grid holds
/// it and needs no clearing of its own.
#[derive(Debug)]
pub struct Lattice {
    /// Time of sample 0 (the window start minus the edge padding).
    t0: JulianDate,
    /// Sample spacing, seconds.
    step_s: f64,
    /// `(-gmst).sin_cos()` at every instant, as [`teme_to_ecef`]
    /// computes it; one entry per sample.
    rotation: Vec<(f64, f64)>,
}

/// Weak references to lattices, keyed by exact window (see [`Lattice`]).
type LatticeMemo = Vec<((u64, u64), Weak<Lattice>)>;

/// The process-wide lattice memo.
static LATTICES: Mutex<LatticeMemo> = Mutex::new(Vec::new());

impl Lattice {
    /// The lattice for `[start, end]`: two steps of padding on each
    /// side at [`EphemerisGrid::step_for_span`]'s cadence, or no
    /// instants at all for a degenerate window.
    fn new(start: JulianDate, end: JulianDate) -> Lattice {
        let span_s = end.seconds_since(start);
        if !(span_s.is_finite() && span_s > 0.0 && start.0.is_finite()) {
            return Lattice {
                t0: start,
                step_s: DEFAULT_STEP_S,
                rotation: Vec::new(),
            };
        }
        let step_s = EphemerisGrid::step_for_span(span_s);
        let padded_span = span_s + 4.0 * step_s;
        let mut lattice = Lattice {
            t0: start.plus_seconds(-2.0 * step_s),
            step_s,
            rotation: Vec::new(),
        };
        let n = (padded_span / step_s).ceil() as usize + 1;
        lattice.rotation = (0..n)
            .map(|k| (-lattice.time(k).gmst_rad()).sin_cos())
            .collect();
        lattice
    }

    /// The memoised lattice for `[start, end]`, built on first use.
    fn shared(start: JulianDate, end: JulianDate) -> Arc<Lattice> {
        let key = (start.0.to_bits(), end.0.to_bits());
        let mut memo = LATTICES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(lattice) = Self::lookup(&memo, key) {
            return lattice;
        }
        memo.retain(|(_, weak)| weak.strong_count() > 0);
        let lattice = Arc::new(Lattice::new(start, end));
        memo.push((key, Arc::downgrade(&lattice)));
        lattice
    }

    fn lookup(memo: &LatticeMemo, key: (u64, u64)) -> Option<Arc<Lattice>> {
        memo.iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, weak)| weak.upgrade())
    }

    /// Number of instants.
    fn len(&self) -> usize {
        self.rotation.len()
    }

    /// The instant of lattice point `k`.
    fn time(&self, k: usize) -> JulianDate {
        self.t0.plus_seconds(k as f64 * self.step_s)
    }
}

/// A precomputed, Hermite-interpolable ECEF trajectory of one satellite
/// over one scan window.
///
/// ```
/// use satiot_orbit::elements::Elements;
/// use satiot_orbit::ephemeris::EphemerisGrid;
/// use satiot_orbit::time::JulianDate;
///
/// let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
/// let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
/// let grid = EphemerisGrid::build(&sgp4, epoch, epoch + 1.0);
/// let t = epoch.plus_seconds(1234.5);
/// let interp = grid.state_at(t).unwrap();
/// let direct = satiot_orbit::frames::teme_to_ecef(&sgp4.propagate_at(t).unwrap(), t);
/// assert!((interp.position_km - direct.position_km).norm() < 1e-3); // sub-metre
/// ```
#[derive(Debug, Clone)]
pub struct EphemerisGrid {
    /// The window's instants and GMST rotations, shared with every
    /// other grid over the same window.
    lattice: Arc<Lattice>,
    /// One `(position, velocity)` ECEF sample per lattice point. A
    /// sample whose propagation failed stores NaN components; queries
    /// bracketed by one degrade to `None` (callers fall back to direct
    /// propagation, which reports the same failure its own way).
    samples: Vec<StateEcef>,
    /// Maximum geocentric radius over the samples, km (NaN when any
    /// sample is degenerate). Grid-only aggregate consumed by the
    /// spatial pre-cull; computed once here instead of once per
    /// (site, satellite) pair.
    max_radius_km: f64,
    /// Maximum `|v|/|r|` over the samples, rad/s (NaN when any sample
    /// is degenerate) — bounds how fast the satellite's ECEF direction
    /// can swing, which bounds the Earth-central angle it can close
    /// within one step.
    max_angular_rate: f64,
}

impl EphemerisGrid {
    /// Sample spacing for a window of `span_s` seconds: the default
    /// cadence, widened toward [`MAX_STEP_S`] so multi-month grids stay
    /// near [`TARGET_MAX_SAMPLES`] samples.
    pub fn step_for_span(span_s: f64) -> f64 {
        let fitted = span_s / (TARGET_MAX_SAMPLES as f64 - 1.0);
        fitted.clamp(DEFAULT_STEP_S, MAX_STEP_S)
    }

    /// Propagate `sgp4` across `[start, end]` and build the grid.
    ///
    /// The lattice is padded by two steps on each side so refinement
    /// probes at the window edges — and the 1 s look-ahead the Doppler
    /// rate sampler uses at LOS — stay on-grid. Degenerate windows
    /// (non-finite or `end ≤ start`) yield an empty grid whose
    /// `state_at` always answers `None`.
    pub fn build(sgp4: &Sgp4, start: JulianDate, end: JulianDate) -> EphemerisGrid {
        let lattice = Lattice::shared(start, end);
        let n = lattice.len();
        if n == 0 {
            return EphemerisGrid {
                lattice,
                samples: Vec::new(),
                max_radius_km: f64::NAN,
                max_angular_rate: f64::NAN,
            };
        }
        let nan = Vec3::new(f64::NAN, f64::NAN, f64::NAN);
        let failed = StateEcef {
            position_km: nan,
            velocity_km_s: nan,
        };
        let mut kepler = KeplerTally::default();
        let mut samples: Vec<StateEcef> = Vec::with_capacity(n);
        let mut k = 0;
        while k + LANES <= n {
            let t = core::array::from_fn(|i| lattice.time(k + i).minutes_since(sgp4.epoch));
            let teme = sgp4.propagate_lanes(&t, &mut kepler);
            let ([px, py, pz], [vx, vy, vz]) = (teme.position_km, teme.velocity_km_s);
            for i in 0..LANES {
                samples.push(if teme.ok[i] {
                    teme_to_ecef_by(
                        Vec3::new(px[i], py[i], pz[i]),
                        Vec3::new(vx[i], vy[i], vz[i]),
                        lattice.rotation[k + i],
                    )
                } else {
                    failed
                });
            }
            k += LANES;
        }
        for k in k..n {
            let t = lattice.time(k).minutes_since(sgp4.epoch);
            samples.push(match sgp4.propagate_uncounted(t, &mut kepler) {
                Ok(state) => {
                    teme_to_ecef_by(state.position_km, state.velocity_km_s, lattice.rotation[k])
                }
                Err(_) => failed,
            });
        }
        count_propagations(n as u64);
        kepler.record();
        GRIDS_BUILT.inc();
        GRID_SAMPLES.add(samples.len() as u64);
        let mut max_radius_km = 0.0_f64;
        let mut max_angular_rate = 0.0_f64;
        for st in &samples {
            let r = st.position_km.norm();
            let rate = st.velocity_km_s.norm() / r;
            if !(r.is_finite() && r > 0.0 && rate.is_finite()) {
                max_radius_km = f64::NAN;
                max_angular_rate = f64::NAN;
                break;
            }
            max_radius_km = max_radius_km.max(r);
            max_angular_rate = max_angular_rate.max(rate);
        }
        EphemerisGrid {
            lattice,
            samples,
            max_radius_km,
            max_angular_rate,
        }
    }

    /// The interpolated ECEF state at `t`, or `None` when `t` falls
    /// outside the lattice or a bracketing sample is invalid.
    pub fn state_at(&self, t: JulianDate) -> Option<StateEcef> {
        let n = self.samples.len();
        if n < 2 {
            GRID_MISSES.inc();
            return None;
        }
        let x = t.seconds_since(self.lattice.t0) / self.lattice.step_s;
        if !(x >= 0.0 && x <= (n - 1) as f64) {
            GRID_MISSES.inc();
            return None;
        }
        let i = (x as usize).min(n - 2);
        let s = x - i as f64;
        let a = &self.samples[i];
        let b = &self.samples[i + 1];
        if !(a.position_km.x.is_finite() && b.position_km.x.is_finite()) {
            GRID_MISSES.inc();
            return None;
        }
        INTERPOLATIONS.inc();

        // Cubic Hermite on [0, 1] with tangents scaled by the step. At
        // s = 0 and s = 1 the basis reproduces the stored samples
        // (position and velocity) exactly, so on-lattice queries carry
        // no interpolation error — only time-arithmetic rounding.
        let h = self.lattice.step_s;
        let s2 = s * s;
        let s3 = s2 * s;
        let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
        let h10 = s3 - 2.0 * s2 + s;
        let h01 = -2.0 * s3 + 3.0 * s2;
        let h11 = s3 - s2;
        let position_km = a.position_km * h00
            + a.velocity_km_s * (h * h10)
            + b.position_km * h01
            + b.velocity_km_s * (h * h11);
        // d/dt = (d/ds)/h; the basis derivatives at s ∈ {0, 1} are
        // (0, 1, 0, 0) and (0, 0, 0, 1), so endpoint velocities are
        // exact too.
        let d00 = 6.0 * s2 - 6.0 * s;
        let d10 = 3.0 * s2 - 4.0 * s + 1.0;
        let d01 = -6.0 * s2 + 6.0 * s;
        let d11 = 3.0 * s2 - 2.0 * s;
        let velocity_km_s = a.position_km * (d00 / h)
            + a.velocity_km_s * d10
            + b.position_km * (d01 / h)
            + b.velocity_km_s * d11;
        Some(StateEcef {
            position_km,
            velocity_km_s,
        })
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the grid holds no usable lattice (degenerate window).
    pub fn is_empty(&self) -> bool {
        self.samples.len() < 2
    }

    /// Sample spacing, seconds.
    pub fn step_s(&self) -> f64 {
        self.lattice.step_s
    }

    /// Maximum geocentric radius over the stored samples, km — `NaN`
    /// when the grid is empty or any sample is degenerate. The spatial
    /// pre-cull ([`cull`](crate::cull)) sizes its visibility cone from
    /// this instead of re-scanning the samples per (site, sat) pair.
    pub fn max_radius_km(&self) -> f64 {
        self.max_radius_km
    }

    /// Maximum `|v|/|r|` over the stored samples, rad/s — `NaN` when
    /// the grid is empty or any sample is degenerate. Bounds the
    /// Earth-central angular rate of the satellite's ECEF direction
    /// (`|d r̂/dt| ≤ |v|/|r|`), hence how far it can move between
    /// samples.
    pub fn max_angular_rate(&self) -> f64 {
        self.max_angular_rate
    }

    /// The lattice this grid samples, shared with every grid over the
    /// same window.
    pub fn lattice(&self) -> &Arc<Lattice> {
        &self.lattice
    }

    /// The instant of lattice point `k`.
    pub fn sample_time(&self, k: usize) -> JulianDate {
        self.lattice.time(k)
    }

    /// The raw lattice samples, one ECEF state per point (sample `k`
    /// is at [`Self::sample_time`]`(k)`). Column-sweep kernels
    /// ([`visibility`](crate::visibility)) consume these directly
    /// instead of interpolating point queries.
    pub fn samples(&self) -> &[StateEcef] {
        &self.samples
    }

    /// Probe the grid against direct SGP4 at the inter-sample midpoints
    /// (the worst case for Hermite error), at most `max_probes` of
    /// them, spread across the whole lattice.
    pub fn validate(&self, sgp4: &Sgp4, max_probes: usize) -> ValidationReport {
        let mut report = ValidationReport {
            max_position_error_km: 0.0,
            max_velocity_error_km_s: 0.0,
            probes: 0,
        };
        if self.is_empty() || max_probes == 0 {
            return report;
        }
        let intervals = self.samples.len() - 1;
        let stride = intervals.div_ceil(max_probes).max(1);
        for i in (0..intervals).step_by(stride) {
            let t = self
                .lattice
                .t0
                .plus_seconds((i as f64 + 0.5) * self.lattice.step_s);
            let (Some(interp), Ok(state)) = (self.state_at(t), sgp4.propagate_at(t)) else {
                continue;
            };
            let direct = teme_to_ecef(&state, t);
            let dp = (interp.position_km - direct.position_km).norm();
            let dv = (interp.velocity_km_s - direct.velocity_km_s).norm();
            report.max_position_error_km = report.max_position_error_km.max(dp);
            report.max_velocity_error_km_s = report.max_velocity_error_km_s.max(dv);
            report.probes += 1;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Elements;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
    }

    fn leo(alt_km: f64, incl_deg: f64) -> Sgp4 {
        Elements::circular(alt_km, incl_deg, epoch())
            .to_sgp4()
            .unwrap()
    }

    #[test]
    fn interpolation_is_sub_metre_at_default_step() {
        let sgp4 = leo(550.0, 97.6);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 1.0);
        assert!((grid.step_s() - DEFAULT_STEP_S).abs() < 1e-12);
        // Probe every 37 s (never on-lattice) across the window.
        let mut worst = 0.0_f64;
        let mut t = epoch();
        while t < epoch() + 1.0 {
            let interp = grid.state_at(t).expect("in-window query");
            let direct = teme_to_ecef(&sgp4.propagate_at(t).unwrap(), t);
            worst = worst.max((interp.position_km - direct.position_km).norm());
            t = t.plus_seconds(37.0);
        }
        assert!(worst < 1e-3, "worst position error {} km", worst);
    }

    #[test]
    fn on_sample_queries_match_direct_propagation() {
        // On-lattice queries reproduce the stored samples exactly in
        // exact arithmetic (the Hermite basis is interpolatory); in
        // practice `JulianDate` time arithmetic quantises the query
        // instant to ~50 µs ≈ 0.4 m of along-track motion, which is
        // the floor here — still sub-metre.
        let sgp4 = leo(700.0, 55.0);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 0.25);
        for k in [0, 1, 7, grid.len() - 2, grid.len() - 1] {
            let t = grid.sample_time(k);
            let interp = grid.state_at(t).expect("lattice point");
            let direct = teme_to_ecef(&sgp4.propagate_at(t).unwrap(), t);
            assert!((interp.position_km - direct.position_km).norm() < 1e-3);
            assert!((interp.velocity_km_s - direct.velocity_km_s).norm() < 1e-5);
        }
    }

    /// Every lattice sample of `grid` is bit for bit what direct
    /// propagation plus `teme_to_ecef` gives at its instant; failed
    /// samples stay NaN. Returns the number of failed samples.
    fn assert_samples_equal_direct(name: &str, sgp4: &Sgp4, grid: &EphemerisGrid) -> usize {
        let mut failed = 0;
        for (k, sample) in grid.samples().iter().enumerate() {
            let t = grid.sample_time(k);
            let got = [sample.position_km, sample.velocity_km_s];
            match sgp4.propagate_at(t) {
                Ok(state) => {
                    let direct = teme_to_ecef(&state, t);
                    let want = [direct.position_km, direct.velocity_km_s];
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            [g.x.to_bits(), g.y.to_bits(), g.z.to_bits()],
                            [w.x.to_bits(), w.y.to_bits(), w.z.to_bits()],
                            "{name}: sample {k}"
                        );
                    }
                }
                Err(_) => {
                    failed += 1;
                    assert!(
                        got.iter()
                            .all(|v| v.x.is_nan() && v.y.is_nan() && v.z.is_nan()),
                        "{name}: failed sample {k} is not NaN"
                    );
                }
            }
        }
        failed
    }

    fn circular_with_drag(alt_km: f64, bstar: f64) -> Sgp4 {
        use crate::sgp4::{EARTH_RADIUS_KM, MU_KM3_S2};
        let a = EARTH_RADIUS_KM + alt_km;
        let n = (MU_KM3_S2 / (a * a * a)).sqrt() * 60.0;
        Sgp4::from_elements(n, 0.001, 0.9, 0.3, 0.2, 0.1, bstar, epoch()).unwrap()
    }

    #[test]
    fn lattice_samples_equal_direct_propagation_bit_for_bit() {
        use crate::tle::Tle;
        // Perigee above 220 km: the full drag polynomials.
        let drag = circular_with_drag(550.0, 2e-4);
        // The Spacetrack #3 orbit (perigee ≈ 200 km) and a circular one
        // at 180 km: the simplified-drag (`isimp`) branch.
        let classic = Sgp4::new(
            &Tle::parse_lines(
                "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    87",
                "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  1058",
            )
            .unwrap(),
        )
        .unwrap();
        let simple = circular_with_drag(180.0, 1e-4);
        // Heavy drag: decays about 0.9 days after epoch.
        let decaying = circular_with_drag(300.0, 0.05);
        for (name, sgp4, days) in [
            ("drag", &drag, 1.0),
            ("classic", &classic, 1.0),
            ("isimp", &simple, 0.5),
            ("decaying", &decaying, 1.5),
        ] {
            let start = sgp4.epoch;
            let grid = EphemerisGrid::build(sgp4, start, start + days);
            let failed = assert_samples_equal_direct(name, sgp4, &grid);
            if name == "decaying" {
                assert!(failed > 0 && failed < grid.len(), "{failed} failed samples");
            } else {
                assert_eq!(failed, 0, "{name}");
            }
        }
    }

    /// Lattices of every length modulo the kernel's lane count, short
    /// ones (tail only) included, and a window that decays part-way.
    #[test]
    fn lattice_lengths_off_the_lane_count_stay_bit_for_bit() {
        use crate::sgp4::LANES;
        let drag = circular_with_drag(550.0, 2e-4);
        let decaying = circular_with_drag(300.0, 0.05);
        let mut residues = [false; LANES];
        let mut mixed = false;
        for minutes in 1..=3 * LANES {
            // About m + 5 samples at 60 s (rounding may add one).
            let start = epoch() + 0.37;
            let grid = EphemerisGrid::build(&drag, start, start.plus_minutes(minutes as f64));
            residues[grid.len() % LANES] = true;
            assert_eq!(assert_samples_equal_direct("drag", &drag, &grid), 0);
            // Straddling the decay (at 1322 min) and, later, the first
            // out-of-range eccentricity (at 2796 min), so batches mix
            // Ok, decayed and never-tallied lanes.
            for from in [1_315.0, 2_790.0] {
                let start = decaying.epoch.plus_minutes(from);
                let end = start.plus_minutes(minutes as f64);
                let grid = EphemerisGrid::build(&decaying, start, end);
                let failed = assert_samples_equal_direct("decaying", &decaying, &grid);
                mixed |= failed > 0 && failed < grid.len();
            }
        }
        assert!(residues.iter().all(|&r| r));
        assert!(mixed, "no window mixed Ok and failed samples");
    }

    /// Grids over one window share one lattice; windows one bit apart
    /// never do; and once the last grid over a window is gone, the memo
    /// serves nothing for it.
    #[test]
    fn lattices_are_shared_by_exact_window_and_die_with_their_grids() {
        // A window no other test uses.
        let start = epoch() + 3.125;
        let end = start + 0.75;
        let nudged = JulianDate(f64::from_bits(end.0.to_bits() + 1));
        let key = |s: JulianDate, e: JulianDate| (s.0.to_bits(), e.0.to_bits());
        let memo = || LATTICES.lock().unwrap_or_else(PoisonError::into_inner);
        let a = EphemerisGrid::build(&leo(550.0, 97.6), start, end);
        let b = EphemerisGrid::build(&leo(700.0, 55.0), start, end);
        let c = EphemerisGrid::build(&leo(550.0, 97.6), start, nudged);
        assert!(Arc::ptr_eq(a.lattice(), b.lattice()));
        assert!(!Arc::ptr_eq(a.lattice(), c.lattice()));
        assert!(Lattice::lookup(&memo(), key(start, end)).is_some());
        // The memo holds no strong reference of its own.
        assert_eq!(Arc::strong_count(a.lattice()), 2);
        let weak = Arc::downgrade(a.lattice());
        drop((a, b, c));
        assert!(weak.upgrade().is_none());
        assert!(Lattice::lookup(&memo(), key(start, end)).is_none());
        assert!(Lattice::lookup(&memo(), key(start, nudged)).is_none());
        // A rebuild after that makes a fresh lattice with the same bits.
        let again = EphemerisGrid::build(&leo(550.0, 97.6), start, end);
        assert_eq!(again.len(), Lattice::new(start, end).len());
    }

    #[test]
    fn window_edges_are_covered_with_padding() {
        let sgp4 = leo(550.0, 97.6);
        let start = epoch();
        let end = epoch() + 1.0;
        let grid = EphemerisGrid::build(&sgp4, start, end);
        // The scan window itself, its exact edges, and the 1 s Doppler
        // look-ahead past LOS are all on-grid…
        for t in [
            start,
            end,
            start.plus_seconds(-DEFAULT_STEP_S),
            end.plus_seconds(1.0),
            end.plus_seconds(2.0 * DEFAULT_STEP_S - 1.0),
        ] {
            assert!(grid.state_at(t).is_some(), "uncovered t = {:?}", t);
        }
        // …while far-outside queries answer None instead of extrapolating.
        assert!(grid.state_at(start.plus_seconds(-1_000.0)).is_none());
        assert!(grid.state_at(end.plus_seconds(1_000.0)).is_none());
    }

    #[test]
    fn degenerate_windows_build_empty_grids() {
        let sgp4 = leo(550.0, 97.6);
        for (s, e) in [
            (epoch(), epoch()),
            (epoch() + 1.0, epoch()),
            (JulianDate(f64::NAN), epoch()),
            (epoch(), JulianDate(f64::INFINITY)),
        ] {
            let grid = EphemerisGrid::build(&sgp4, s, e);
            assert!(grid.is_empty());
            assert!(grid.state_at(epoch()).is_none());
        }
    }

    #[test]
    fn long_windows_widen_the_step_within_contract() {
        // A 212-day passive-campaign window would need 305 k samples at
        // 60 s; the step widens to keep the grid near the target size.
        let span = 212.0 * 86_400.0;
        let step = EphemerisGrid::step_for_span(span);
        assert!(step > DEFAULT_STEP_S && step <= MAX_STEP_S, "step {step}");
        // Short windows stay at the default cadence.
        assert_eq!(EphemerisGrid::step_for_span(86_400.0), DEFAULT_STEP_S);
    }

    #[test]
    fn validate_reports_contract_compliance() {
        let sgp4 = leo(440.0, 97.61); // The lowest Table-3 shell.
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 2.0);
        let report = grid.validate(&sgp4, 256);
        assert!(report.probes > 0);
        assert!(
            report.within_contract(),
            "position error {} km breaks the contract",
            report.max_position_error_km
        );
        // At the default step the real error is ~3 orders tighter than
        // the contract constant.
        assert!(report.max_position_error_km < 1e-3);
    }
}
