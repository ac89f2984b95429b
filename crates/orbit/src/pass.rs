//! Contact-window (pass) prediction.
//!
//! A *pass* is the interval during which a satellite sits above a minimum
//! elevation mask as seen from a ground site — the paper's "theoretical
//! contact window". Prediction uses a coarse scan (default 30 s) to
//! bracket horizon crossings, then bisection to refine AOS/LOS to ~10 ms,
//! and a golden-section search for the culmination (maximum elevation).
//!
//! Every elevation/look-angle query flows through one pluggable sampling
//! backend: direct SGP4 propagation (the default), or a shared
//! [`EphemerisGrid`](crate::ephemeris::EphemerisGrid) attached with
//! [`PassPredictor::with_ephemeris`] — in which case the coarse scan,
//! the crossing bisections, and the culmination search all interpolate
//! instead of propagating, and multiple observers amortise one
//! trajectory.

use crate::ephemeris::EphemerisGrid;
use crate::error::OrbitError;
use crate::frames::{teme_to_ecef, Geodetic, StateEcef};
use crate::sgp4::Sgp4;
use crate::time::JulianDate;
use crate::topo::Observer;
use crate::visibility::{self, SweepEventKind, SweepOutcome, VisibilityMode};
use satiot_obs::metrics::Counter;
use std::sync::Arc;

/// Completed contact windows emitted by all predictors (metrics).
static PASSES_PREDICTED: Counter = Counter::new("orbit.pass.passes_predicted");
/// Pass scans rejected for non-finite bounds or masks (metrics).
static NON_FINITE_SCANS: Counter = Counter::new("orbit.pass.non_finite_scans");
/// Moving-observer legs scanned (metrics).
static LEGS_SCANNED: Counter = Counter::new("orbit.pass.legs_scanned");

/// One leg of a moving observer's itinerary: the observer holds
/// `position` throughout `[start, end]`. Mobility tracks (ships, asset
/// trackers) are discretised into legs upstream — within a leg the pass
/// geometry is that of a fixed site, so each leg reuses the whole
/// fixed-observer machinery (adaptive scan, margin sweeps, shared
/// ephemeris grids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserverLeg {
    /// Leg start (inclusive).
    pub start: JulianDate,
    /// Leg end.
    pub end: JulianDate,
    /// Observer position held for the duration of the leg.
    pub position: Geodetic,
}

/// One predicted contact window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Acquisition of signal: elevation rises through the mask.
    pub aos: JulianDate,
    /// Loss of signal: elevation falls back through the mask.
    pub los: JulianDate,
    /// Time of culmination (maximum elevation).
    pub tca: JulianDate,
    /// Maximum elevation reached, radians.
    pub max_elevation_rad: f64,
    /// Slant range at culmination, km.
    pub tca_range_km: f64,
}

impl Pass {
    /// Window duration in minutes.
    pub fn duration_min(&self) -> f64 {
        self.los.minutes_since(self.aos)
    }

    /// Window duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.los.seconds_since(self.aos)
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: JulianDate) -> bool {
        t >= self.aos && t <= self.los
    }

    /// Normalised position of `t` within the window ∈ [0, 1]
    /// (used for the paper's Figure 9 analysis).
    pub fn normalized_position(&self, t: JulianDate) -> f64 {
        let d = self.los.seconds_since(self.aos);
        if d <= 0.0 {
            return 0.0;
        }
        (t.seconds_since(self.aos) / d).clamp(0.0, 1.0)
    }
}

/// Predicts passes of one satellite over one ground site.
///
/// ```
/// use satiot_orbit::elements::Elements;
/// use satiot_orbit::frames::Geodetic;
/// use satiot_orbit::pass::PassPredictor;
/// use satiot_orbit::time::JulianDate;
///
/// let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
/// let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
/// let hk = Geodetic::from_degrees(22.32, 114.17, 0.05);
/// let predictor = PassPredictor::new(sgp4, hk, 0.0);
/// let passes = predictor.passes(epoch, epoch + 1.0);
/// assert!(!passes.is_empty());
/// assert!(passes[0].duration_min() < 16.0);
/// ```
#[derive(Debug, Clone)]
pub struct PassPredictor {
    sgp4: Sgp4,
    observer: Observer,
    /// Elevation mask, radians.
    pub min_elevation_rad: f64,
    /// Coarse scan step, seconds. 30 s cannot skip over a LEO pass above
    /// a ≤ 10° mask; lower it for very high masks.
    pub coarse_step_s: f64,
    /// Optional shared ephemeris backend (see [`Self::with_ephemeris`]).
    ephemeris: Option<Arc<EphemerisGrid>>,
    /// How the coarse scan runs (see [`Self::with_visibility`]).
    visibility: VisibilityMode,
}

impl PassPredictor {
    /// Create a predictor for `sgp4` as seen from `site` with the given
    /// elevation mask (radians). Samples by direct SGP4 propagation;
    /// attach a grid with [`Self::with_ephemeris`] to interpolate
    /// instead.
    pub fn new(sgp4: Sgp4, site: Geodetic, min_elevation_rad: f64) -> Self {
        PassPredictor {
            sgp4,
            observer: Observer::new(site),
            min_elevation_rad,
            coarse_step_s: 30.0,
            ephemeris: None,
            visibility: VisibilityMode::Off,
        }
    }

    /// Sample through `grid` instead of propagating: queries the grid
    /// covers are Hermite-interpolated (no SGP4, no GMST, no frame
    /// rotation); queries outside it fall back to direct propagation,
    /// so attaching a grid never changes *which* instants are
    /// answerable — only how cheaply.
    pub fn with_ephemeris(mut self, grid: Arc<EphemerisGrid>) -> Self {
        self.ephemeris = Some(grid);
        self
    }

    /// The attached ephemeris backend, if any.
    pub fn ephemeris(&self) -> Option<&Arc<EphemerisGrid>> {
        self.ephemeris.as_ref()
    }

    /// Choose how the coarse scan runs. [`VisibilityMode::Scalar`] and
    /// [`VisibilityMode::On`] replace the adaptive elevation scan with
    /// a bit-identical pair of margin sweeps over the attached
    /// ephemeris grid's columns (see the [`visibility`] module docs);
    /// they take effect only when a grid is attached *and* covers the
    /// scan window *and* the mask sits inside `(−π/2, π/2)` — the scan
    /// falls back to the legacy loop otherwise, so enabling a sweep
    /// never changes which windows are answerable. Raw constructors
    /// default to [`VisibilityMode::Off`] (the legacy scan);
    /// `satiot_core::sweep::predictor_with_mode` threads the run's
    /// mode through here.
    pub fn with_visibility(mut self, mode: VisibilityMode) -> Self {
        self.visibility = mode;
        self
    }

    /// The configured scan mode.
    pub fn visibility(&self) -> VisibilityMode {
        self.visibility
    }

    /// The satellite's ECEF state at `t` through the sampling backend:
    /// grid interpolation when a grid is attached and covers `t`,
    /// direct SGP4 + frame rotation otherwise.
    fn state_ecef_at(&self, t: JulianDate) -> Option<StateEcef> {
        if let Some(grid) = &self.ephemeris {
            if let Some(state) = grid.state_at(t) {
                return Some(state);
            }
        }
        self.sgp4
            .propagate_at(t)
            .ok()
            .map(|state| teme_to_ecef(&state, t))
    }

    /// Elevation above the horizon at `t`, radians. Propagation failures
    /// (decayed elements, …) report as far below the horizon so scanning
    /// code treats them as "not visible".
    pub fn elevation_at(&self, t: JulianDate) -> f64 {
        match self.state_ecef_at(t) {
            Some(state) => {
                self.observer
                    .look_at_ecef(state.position_km, state.velocity_km_s)
                    .elevation_rad
            }
            None => -core::f64::consts::FRAC_PI_2,
        }
    }

    /// Look angles at `t`, if the satellite state is computable.
    pub fn look_at(&self, t: JulianDate) -> Option<crate::topo::LookAngles> {
        self.state_ecef_at(t).map(|state| {
            self.observer
                .look_at_ecef(state.position_km, state.velocity_km_s)
        })
    }

    /// Re-site the predictor: same satellite, sampling backend, mask
    /// and scan configuration, new observer position. Moving-observer
    /// scans re-use one satellite ephemeris grid across every leg this
    /// way — the grid stores the *satellite* trajectory, which is
    /// observer-independent.
    pub fn with_observer_position(mut self, site: Geodetic) -> Self {
        self.observer = Observer::new(site);
        self
    }

    /// Passes seen by a *moving* observer described as piecewise legs:
    /// each leg pins the observer at its position and scans its own
    /// window through [`Self::try_passes`]; the per-leg lists
    /// concatenate in time order.
    ///
    /// Legs must be chronological and non-overlapping (gaps are fine —
    /// nothing is scanned inside them). A contact that straddles a leg
    /// boundary is reported as two truncated passes, one per observer
    /// position — the geometry genuinely changed at the waypoint, and
    /// splitting keeps the result deterministic and driver-independent.
    pub fn passes_over_legs(&self, legs: &[ObserverLeg]) -> Result<Vec<Pass>, OrbitError> {
        for (i, pair) in legs.windows(2).enumerate() {
            if pair[1].start < pair[0].end {
                return Err(OrbitError::UnorderedLegs { index: i + 1 });
            }
        }
        let mut out = Vec::new();
        for leg in legs {
            let sited = self.clone().with_observer_position(leg.position);
            out.extend(sited.try_passes(leg.start, leg.end)?);
            LEGS_SCANNED.inc();
        }
        Ok(out)
    }

    /// The underlying propagator.
    pub fn sgp4(&self) -> &Sgp4 {
        &self.sgp4
    }

    /// The observer site.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Find every pass in `[start, end]`, in chronological order.
    ///
    /// A pass already in progress at `start` is reported with `aos = start`;
    /// one still in progress at `end` is truncated at `end`.
    ///
    /// The coarse scan is *adaptive*: while the satellite sits far below
    /// the horizon the step grows with angular distance (a LEO satellite's
    /// elevation rate as seen from the ground never exceeds ~0.25°/s near
    /// the horizon, so a satellite at −E° needs at least `E/0.25` seconds
    /// to reach it — stepping a quarter of that with a 600 s cap cannot
    /// skip a pass). Multi-month campaign scans become ~6× cheaper.
    ///
    /// Non-finite bounds or masks degrade to an empty pass list (and a
    /// bump of the `orbit.pass.non_finite_scans` metric); callers that
    /// must distinguish the degenerate case use [`Self::try_passes`].
    pub fn passes(&self, start: JulianDate, end: JulianDate) -> Vec<Pass> {
        self.try_passes(start, end).unwrap_or_default()
    }

    /// Fallible sibling of [`Self::passes`]: rejects non-finite scan
    /// bounds and elevation masks with a typed error instead of
    /// degrading to an empty list. A NaN bound is not merely a wrong
    /// answer — `t >= end` never becomes true, so the coarse scan of
    /// the infallible path would otherwise never terminate.
    pub fn try_passes(&self, start: JulianDate, end: JulianDate) -> Result<Vec<Pass>, OrbitError> {
        for (field, value) in [
            ("start", start.0),
            ("end", end.0),
            ("mask", self.min_elevation_rad),
        ] {
            if !value.is_finite() {
                NON_FINITE_SCANS.inc();
                return Err(OrbitError::NonFiniteScan { field, value });
            }
        }
        Ok(self.scan_passes(start, end))
    }

    /// The coarse-scan + refinement loop (bounds already validated).
    fn scan_passes(&self, start: JulianDate, end: JulianDate) -> Vec<Pass> {
        let mut result = Vec::new();
        if end <= start {
            return result;
        }
        // Margin sweep first, when configured and applicable. The mask
        // gate keeps the margin ⟺ elevation equivalence valid (asin is
        // only monotone on (−π/2, π/2)); `sweep_one` itself answers
        // `None` when the grid is absent or does not cover the window,
        // in which case the legacy scan below takes over.
        if self.visibility != VisibilityMode::Off
            && self.min_elevation_rad.abs() < core::f64::consts::FRAC_PI_2
        {
            if let Some(grid) = &self.ephemeris {
                if let Some(sweep) = visibility::sweep_one(
                    grid,
                    &self.observer,
                    self.min_elevation_rad,
                    start,
                    end,
                    self.visibility,
                ) {
                    return self.refine_sweep(&sweep, start, end);
                }
            }
        }
        let mask = self.min_elevation_rad;

        let mut t_prev = start;
        let mut el_prev = self.elevation_at(t_prev);
        let mut above_prev = el_prev > mask;
        let mut aos: Option<JulianDate> = if above_prev { Some(start) } else { None };

        loop {
            let step_s = self.adaptive_step_s(el_prev);
            let t = JulianDate(t_prev.0 + step_s / 86_400.0);
            let t_clamped = if t > end { end } else { t };
            let el = self.elevation_at(t_clamped);
            let above = el > mask;
            if above && !above_prev {
                aos = Some(self.refine_crossing(t_prev, t_clamped));
            } else if !above && above_prev {
                let los = self.refine_crossing(t_prev, t_clamped);
                if let Some(a) = aos.take() {
                    if let Some(pass) = self.finish_pass(a, los) {
                        result.push(pass);
                    }
                }
            }
            above_prev = above;
            el_prev = el;
            t_prev = t_clamped;
            if t_prev >= end {
                break;
            }
        }
        // Pass still in progress at `end`.
        if let Some(a) = aos {
            if let Some(pass) = self.finish_pass(a, end) {
                result.push(pass);
            }
        }
        result
    }

    /// Turn a margin sweep's sparse event list into refined passes,
    /// through the same bisection ([`Self::refine_crossing`]) and
    /// golden-section ([`Self::finish_pass`]) machinery as the legacy
    /// scan — only the *bracketing* changed, from adaptive elevation
    /// probes to grid-column sign changes.
    fn refine_sweep(&self, sweep: &SweepOutcome, start: JulianDate, end: JulianDate) -> Vec<Pass> {
        let mut result = Vec::new();
        let mut aos: Option<JulianDate> = sweep.above_at_start.then_some(start);
        for event in &sweep.events {
            match event.kind {
                SweepEventKind::Rising => {
                    if aos.is_none() {
                        aos = Some(self.refine_crossing(event.t_lo, event.t_hi));
                    }
                }
                SweepEventKind::Falling => {
                    if let Some(a) = aos.take() {
                        let los = self.refine_crossing(event.t_lo, event.t_hi);
                        if let Some(pass) = self.finish_pass(a, los) {
                            result.push(pass);
                        }
                    }
                }
                SweepEventKind::Candidate => {
                    // A pass shorter than one lattice interval may hide
                    // between two below-mask samples; probe the
                    // elevation peak before committing to bisection.
                    if aos.is_none() {
                        let (t_peak, el_peak) = self.peak_probe(event.t_lo, event.t_hi);
                        if el_peak > self.min_elevation_rad {
                            let a = self.refine_crossing(event.t_lo, t_peak);
                            let los = self.refine_crossing(t_peak, event.t_hi);
                            if let Some(pass) = self.finish_pass(a, los) {
                                result.push(pass);
                            }
                        }
                    }
                }
            }
        }
        // Pass still in progress at `end`.
        if let Some(a) = aos {
            if let Some(pass) = self.finish_pass(a, end) {
                result.push(pass);
            }
        }
        result
    }

    /// Golden-section probe for the elevation peak inside `[lo, hi]`
    /// (one lattice interval): the elevation profile of a LEO pass is
    /// unimodal, and a ≤ 180 s below-horizon window holds at most one
    /// approach — the same assumption [`Self::finish_pass`] rests on.
    fn peak_probe(&self, lo: JulianDate, hi: JulianDate) -> (JulianDate, f64) {
        const INV_PHI: f64 = 0.618_033_988_749_894_9; // (√5 − 1) / 2
        let mut lo = lo;
        let mut hi = hi;
        let mut m1 = JulianDate(hi.0 - INV_PHI * (hi.0 - lo.0));
        let mut m2 = JulianDate(lo.0 + INV_PHI * (hi.0 - lo.0));
        let mut e1 = self.elevation_at(m1);
        let mut e2 = self.elevation_at(m2);
        for _ in 0..80 {
            if hi.seconds_since(lo) < 0.05 {
                break;
            }
            if e1 < e2 {
                lo = m1;
                m1 = m2;
                e1 = e2;
                m2 = JulianDate(lo.0 + INV_PHI * (hi.0 - lo.0));
                e2 = self.elevation_at(m2);
            } else {
                hi = m2;
                m2 = m1;
                e2 = e1;
                m1 = JulianDate(hi.0 - INV_PHI * (hi.0 - lo.0));
                e1 = self.elevation_at(m1);
            }
        }
        let t_peak = JulianDate(0.5 * (lo.0 + hi.0));
        (t_peak, self.elevation_at(t_peak))
    }

    /// Coarse-scan step given the current elevation (see [`Self::passes`]).
    ///
    /// Safety argument: a ground observer never sees a LEO satellite's
    /// elevation rise faster than ~0.25°/s (the rate peaks near the
    /// horizon at v/d ≈ 7.6 km/s / 2 300 km). Climbing a deficit of `E`
    /// degrees therefore takes at least `4E` seconds; stepping `2E`
    /// seconds can consume at most half the deficit, so the satellite is
    /// still below the mask at the next sample and no crossing is skipped.
    /// The step never drops below `coarse_step_s` and never exceeds the
    /// 600 s safety cap — even when a caller raises the public
    /// `coarse_step_s` above the cap (`f64::clamp` would panic on an
    /// inverted `min > max` range there).
    fn adaptive_step_s(&self, elevation_rad: f64) -> f64 {
        let deficit_deg = (self.min_elevation_rad - elevation_rad).to_degrees();
        (2.0 * deficit_deg).max(self.coarse_step_s).min(600.0)
    }

    /// Bisection: elevation crosses the mask somewhere in `(lo, hi)`.
    fn refine_crossing(&self, mut lo: JulianDate, mut hi: JulianDate) -> JulianDate {
        let mask = self.min_elevation_rad;
        let lo_above = self.elevation_at(lo) > mask;
        for _ in 0..40 {
            if hi.seconds_since(lo) < 0.01 {
                break;
            }
            let mid = JulianDate(0.5 * (lo.0 + hi.0));
            if (self.elevation_at(mid) > mask) == lo_above {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        JulianDate(0.5 * (lo.0 + hi.0))
    }

    /// Locate culmination within `[aos, los]` and assemble the pass.
    fn finish_pass(&self, aos: JulianDate, los: JulianDate) -> Option<Pass> {
        if los.seconds_since(aos) < 1.0 {
            return None; // Grazing contact below timing resolution.
        }
        // Golden-section search for the elevation maximum (the elevation
        // profile of a LEO pass is unimodal). Unlike the ternary search
        // this replaces, each iteration reuses one interior probe and
        // evaluates only one new point, and the interval shrinks by
        // 0.618 per evaluation instead of 0.667 per two — about a third
        // fewer elevation samples to the same 0.05 s bracket.
        const INV_PHI: f64 = 0.618_033_988_749_894_9; // (√5 − 1) / 2
        let mut lo = aos;
        let mut hi = los;
        let mut m1 = JulianDate(hi.0 - INV_PHI * (hi.0 - lo.0));
        let mut m2 = JulianDate(lo.0 + INV_PHI * (hi.0 - lo.0));
        let mut e1 = self.elevation_at(m1);
        let mut e2 = self.elevation_at(m2);
        for _ in 0..80 {
            if hi.seconds_since(lo) < 0.05 {
                break;
            }
            if e1 < e2 {
                lo = m1;
                m1 = m2;
                e1 = e2;
                m2 = JulianDate(lo.0 + INV_PHI * (hi.0 - lo.0));
                e2 = self.elevation_at(m2);
            } else {
                hi = m2;
                m2 = m1;
                e2 = e1;
                m1 = JulianDate(hi.0 - INV_PHI * (hi.0 - lo.0));
                e1 = self.elevation_at(m1);
            }
        }
        let tca = JulianDate(0.5 * (lo.0 + hi.0));
        let la = self.look_at(tca)?;
        satiot_obs::invariants::check_elevation_rad(
            "pass::finish_pass max elevation",
            la.elevation_rad,
        );
        satiot_obs::invariants::check_non_negative(
            "pass::finish_pass duration",
            los.seconds_since(aos),
        );
        PASSES_PREDICTED.inc();
        Some(Pass {
            aos,
            los,
            tca,
            max_elevation_rad: la.elevation_rad,
            tca_range_km: la.range_km,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgp4::{EARTH_RADIUS_KM, MU_KM3_S2};

    /// A circular polar-ish LEO satellite built from raw elements.
    fn leo_sgp4(alt_km: f64, incl_deg: f64) -> Sgp4 {
        let a = EARTH_RADIUS_KM + alt_km;
        let n = (MU_KM3_S2 / (a * a * a)).sqrt() * 60.0; // rad/min
        Sgp4::from_elements(
            n,
            0.001,
            incl_deg.to_radians(),
            1.0,
            0.0,
            0.0,
            1e-5,
            JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0),
        )
        .unwrap()
    }

    fn hk() -> Geodetic {
        Geodetic::from_degrees(22.3193, 114.1694, 0.05)
    }

    #[test]
    fn finds_passes_within_a_day() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        // A 550 km polar orbit passes over a mid-latitude site ~2–6×/day.
        assert!(
            (2..=8).contains(&passes.len()),
            "found {} passes",
            passes.len()
        );
        for pass in &passes {
            assert!(pass.los > pass.aos);
            assert!(pass.tca >= pass.aos && pass.tca <= pass.los);
            // LEO pass durations above a 0° mask: tens of seconds to ~15 min.
            assert!(pass.duration_min() < 16.0, "dur = {}", pass.duration_min());
            assert!(pass.max_elevation_rad > 0.0);
        }
        // Chronological, non-overlapping.
        for w in passes.windows(2) {
            assert!(w[1].aos >= w[0].los);
        }
    }

    #[test]
    fn elevation_at_mask_boundary_is_tight() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 5.0_f64.to_radians());
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        assert!(!passes.is_empty());
        for pass in &passes {
            let el_aos = p.elevation_at(pass.aos).to_degrees();
            let el_los = p.elevation_at(pass.los).to_degrees();
            assert!((el_aos - 5.0).abs() < 0.05, "AOS elevation {el_aos}");
            assert!((el_los - 5.0).abs() < 0.05, "LOS elevation {el_los}");
        }
    }

    #[test]
    fn higher_mask_gives_fewer_shorter_passes() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let p0 = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let p25 = PassPredictor::new(sgp4, hk(), 25.0_f64.to_radians());
        let total0: f64 = p0
            .passes(start, start + 2.0)
            .iter()
            .map(|p| p.duration_min())
            .sum();
        let total25: f64 = p25
            .passes(start, start + 2.0)
            .iter()
            .map(|p| p.duration_min())
            .sum();
        assert!(total25 < total0, "{total25} !< {total0}");
    }

    #[test]
    fn max_elevation_is_actually_maximum() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        for pass in passes {
            // Sample the window; nothing should beat max_elevation by more
            // than numerical slack.
            for k in 0..=20 {
                let t = JulianDate(pass.aos.0 + (pass.los.0 - pass.aos.0) * k as f64 / 20.0);
                assert!(p.elevation_at(t) <= pass.max_elevation_rad + 1e-6);
            }
        }
    }

    /// Pinned from `tests/prop_orbit.proptest-regressions` (seed
    /// `1ddc6ac2…`): a 0° mask at an equatorial site, where AOS/LOS
    /// refinement must still land within 0.5° of the mask for every
    /// interior pass.
    #[test]
    fn regression_zero_mask_aos_seed() {
        use crate::elements::Elements;
        let epoch = JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0);
        let e = Elements::circular(565.6677817861646, 45.0, epoch);
        let predictor = PassPredictor::new(
            e.to_sgp4().unwrap(),
            Geodetic::from_degrees(0.0, 24.753319049866068, 0.0),
            0.0,
        );
        let start = epoch;
        let end = start + 1.0;
        let passes = predictor.passes(start, end);
        assert!(!passes.is_empty());
        for p in &passes {
            assert!(p.aos <= p.tca && p.tca <= p.los);
            assert!(p.duration_min() < 20.0);
            assert!(p.max_elevation_rad.to_degrees() >= -0.2);
            if p.aos > start && p.los < end {
                let el_aos = predictor.elevation_at(p.aos).to_degrees();
                let el_los = predictor.elevation_at(p.los).to_degrees();
                assert!(el_aos.abs() < 0.5, "AOS elevation {el_aos}");
                assert!(el_los.abs() < 0.5, "LOS elevation {el_los}");
            }
        }
        for w in passes.windows(2) {
            assert!(w[1].aos >= w[0].los);
        }
    }

    /// A `coarse_step_s` above the 600 s adaptive cap used to panic in
    /// `adaptive_step_s` (`f64::clamp` with min > max); it must instead
    /// saturate at the cap and still find passes.
    #[test]
    fn coarse_step_above_cap_does_not_panic() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let mut p = PassPredictor::new(sgp4, hk(), 0.0);
        p.coarse_step_s = 900.0;
        assert!(p.adaptive_step_s(-0.5) <= 600.0);
        assert!(p.adaptive_step_s(0.5) <= 600.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        // Must not panic; a 600 s effective step can still skip short
        // passes, so only sanity-check what it does find.
        for pass in p.passes(start, start + 1.0) {
            assert!(pass.los > pass.aos);
        }
    }

    /// A NaN scan bound used to hang the coarse scan forever (`t >= end`
    /// never turns true); it must now degrade to an empty list on the
    /// infallible path and a typed error on the fallible one.
    #[test]
    fn non_finite_scan_bounds_are_rejected_not_hung() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(p.passes(JulianDate(bad), start + 1.0).is_empty());
            assert!(p.passes(start, JulianDate(bad)).is_empty());
            // matches!, not assert_eq: NaN payloads are never equal.
            assert!(matches!(
                p.try_passes(start, JulianDate(bad)),
                Err(OrbitError::NonFiniteScan { field: "end", .. })
            ));
        }
        let mut nan_mask = PassPredictor::new(sgp4, hk(), 0.0);
        nan_mask.min_elevation_rad = f64::NAN;
        assert!(nan_mask.passes(start, start + 1.0).is_empty());
        assert!(matches!(
            nan_mask.try_passes(start, start + 1.0),
            Err(OrbitError::NonFiniteScan { field: "mask", .. })
        ));
    }

    #[test]
    fn try_passes_agrees_with_passes_on_healthy_input() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let infallible = p.passes(start, start + 1.0);
        let fallible = p.try_passes(start, start + 1.0).expect("finite bounds");
        assert_eq!(infallible, fallible);
    }

    #[test]
    fn empty_interval_yields_no_passes() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        assert!(p.passes(start, start).is_empty());
        assert!(p.passes(start + 1.0, start).is_empty());
    }

    #[test]
    fn equatorial_orbit_never_visible_from_high_latitude() {
        // A 0°-inclination orbit at 500 km stays within ±~21° of the
        // equator's horizon; London (51.5°N) never sees it above 0°.
        let sgp4 = leo_sgp4(500.0, 0.0);
        let london = Geodetic::from_degrees(51.5074, -0.1278, 0.01);
        let p = PassPredictor::new(sgp4, london, 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        assert!(p.passes(start, start + 2.0).is_empty());
    }

    #[test]
    fn normalized_position_endpoints() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        let pass = passes[0];
        assert_eq!(pass.normalized_position(pass.aos), 0.0);
        assert_eq!(pass.normalized_position(pass.los), 1.0);
        let mid = JulianDate(0.5 * (pass.aos.0 + pass.los.0));
        assert!((pass.normalized_position(mid) - 0.5).abs() < 1e-9);
        assert!(pass.contains(mid));
        assert!(!pass.contains(JulianDate(pass.los.0 + 1.0)));
    }

    /// The old two-probe ternary search, kept as the reference the
    /// golden-section replacement is regression-tested against.
    fn ternary_tca(p: &PassPredictor, aos: JulianDate, los: JulianDate) -> JulianDate {
        let mut lo = aos;
        let mut hi = los;
        for _ in 0..60 {
            if hi.seconds_since(lo) < 0.05 {
                break;
            }
            let m1 = JulianDate(lo.0 + (hi.0 - lo.0) / 3.0);
            let m2 = JulianDate(hi.0 - (hi.0 - lo.0) / 3.0);
            if p.elevation_at(m1) < p.elevation_at(m2) {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        JulianDate(0.5 * (lo.0 + hi.0))
    }

    /// Golden-section culmination must land where the old ternary search
    /// did (< 0.05 s — both brackets converge on the same unimodal
    /// maximum) while `max_elevation_is_actually_maximum` above keeps
    /// holding for the new search.
    #[test]
    fn golden_section_tca_matches_ternary_search() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 2.0);
        assert!(!passes.is_empty());
        for pass in &passes {
            let reference = ternary_tca(&p, pass.aos, pass.los);
            let drift_s = pass.tca.seconds_since(reference).abs();
            assert!(drift_s < 0.05, "TCA moved {drift_s} s vs ternary search");
            // The reported maximum still beats the reference probe (to
            // the curvature slack of the two ≤ 0.05 s brackets).
            assert!(p.elevation_at(reference) <= pass.max_elevation_rad + 1e-6);
        }
    }

    /// A grid-backed predictor must reproduce direct prediction within
    /// the documented ephemeris contract: same pass count, boundaries
    /// within the refinement tolerance, elevation within 0.01°.
    #[test]
    fn grid_backend_matches_direct_within_contract() {
        use crate::ephemeris::EphemerisGrid;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let end = start + 1.0;
        let direct = PassPredictor::new(sgp4.clone(), hk(), 5.0_f64.to_radians());
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        let gridded = PassPredictor::new(sgp4, hk(), 5.0_f64.to_radians()).with_ephemeris(grid);
        let a = direct.passes(start, end);
        let b = gridded.passes(start, end);
        assert_eq!(a.len(), b.len(), "pass counts diverged");
        for (x, y) in a.iter().zip(&b) {
            assert!(y.aos.seconds_since(x.aos).abs() < 0.05, "AOS drifted");
            assert!(y.los.seconds_since(x.los).abs() < 0.05, "LOS drifted");
            let dmax = (y.max_elevation_rad - x.max_elevation_rad)
                .to_degrees()
                .abs();
            assert!(dmax < 0.01, "max elevation drifted {dmax}°");
        }
        // Pointwise elevations agree within the contract too.
        for k in 0..100 {
            let t = start.plus_seconds(864.0 * k as f64);
            let d = (gridded.elevation_at(t) - direct.elevation_at(t))
                .to_degrees()
                .abs();
            assert!(d < 0.01, "elevation drifted {d}° at sample {k}");
        }
    }

    /// Queries outside the attached grid fall back to direct SGP4 —
    /// attaching a grid never changes which instants are answerable.
    #[test]
    fn grid_backend_falls_back_outside_the_window() {
        use crate::ephemeris::EphemerisGrid;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, start + 0.5));
        let direct = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let gridded = PassPredictor::new(sgp4, hk(), 0.0).with_ephemeris(grid);
        let far = start + 10.0; // Ten days past the grid.
        let a = direct.look_at(far).expect("direct");
        let b = gridded.look_at(far).expect("fallback");
        assert_eq!(a, b, "fallback must be bit-identical to direct");
    }

    /// The margin sweep must find the same passes as the legacy scan
    /// over the same grid, to refinement tolerance: equal counts,
    /// boundaries within the bisection bracket, elevations within the
    /// grid contract.
    #[test]
    fn sweep_scan_matches_legacy_scan_within_tolerance() {
        use crate::ephemeris::EphemerisGrid;
        use crate::visibility::VisibilityMode;
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let end = start + 2.0;
        for (alt, incl, mask_deg) in [(550.0, 97.6, 0.0), (550.0, 97.6, 10.0), (700.0, 55.0, 5.0)] {
            let sgp4 = leo_sgp4(alt, incl);
            let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
            let mask = (mask_deg as f64).to_radians();
            let legacy = PassPredictor::new(sgp4.clone(), hk(), mask)
                .with_ephemeris(Arc::clone(&grid))
                .with_visibility(VisibilityMode::Off);
            let swept = PassPredictor::new(sgp4, hk(), mask)
                .with_ephemeris(grid)
                .with_visibility(VisibilityMode::On);
            let a = legacy.passes(start, end);
            let b = swept.passes(start, end);
            assert_eq!(a.len(), b.len(), "pass counts diverged at mask {mask_deg}");
            assert!(!a.is_empty(), "test geometry has no passes");
            for (x, y) in a.iter().zip(&b) {
                assert!(y.aos.seconds_since(x.aos).abs() < 0.05, "AOS drifted");
                assert!(y.los.seconds_since(x.los).abs() < 0.05, "LOS drifted");
                let dmax = (y.max_elevation_rad - x.max_elevation_rad)
                    .to_degrees()
                    .abs();
                assert!(dmax < 0.01, "max elevation drifted {dmax}°");
            }
        }
    }

    /// Scalar and chunked sweeps must agree to the bit — same margin
    /// expression, same events, same bisection brackets, same passes.
    #[test]
    fn scalar_and_vector_sweeps_yield_bit_identical_passes() {
        use crate::ephemeris::EphemerisGrid;
        use crate::visibility::VisibilityMode;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let end = start + 2.0;
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        let scalar = PassPredictor::new(sgp4.clone(), hk(), 5.0_f64.to_radians())
            .with_ephemeris(Arc::clone(&grid))
            .with_visibility(VisibilityMode::Scalar);
        let vector = PassPredictor::new(sgp4, hk(), 5.0_f64.to_radians())
            .with_ephemeris(grid)
            .with_visibility(VisibilityMode::On);
        let a = scalar.passes(start, end);
        let b = vector.passes(start, end);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.aos.0.to_bits(), y.aos.0.to_bits());
            assert_eq!(x.los.0.to_bits(), y.los.0.to_bits());
            assert_eq!(x.tca.0.to_bits(), y.tca.0.to_bits());
            assert_eq!(x.max_elevation_rad.to_bits(), y.max_elevation_rad.to_bits());
            assert_eq!(x.tca_range_km.to_bits(), y.tca_range_km.to_bits());
        }
    }

    /// A mask raised to just under a pass's culmination shrinks the
    /// contact to less than one grid step; the candidate windows must
    /// still surface it instead of stepping over it.
    #[test]
    fn sweep_finds_passes_shorter_than_one_grid_step() {
        use crate::ephemeris::EphemerisGrid;
        use crate::visibility::VisibilityMode;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let end = start + 1.0;
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        // Find the day's best culmination with an open mask…
        let open = PassPredictor::new(sgp4.clone(), hk(), 0.0)
            .with_ephemeris(Arc::clone(&grid))
            .with_visibility(VisibilityMode::On);
        let best = open
            .passes(start, end)
            .iter()
            .map(|p| p.max_elevation_rad)
            .fold(f64::MIN, f64::max);
        // …then mask 0.15° below it: the surviving contact lasts well
        // under the 60 s grid step. (The legacy adaptive scan's
        // no-skip guarantee only covers masks ≤ 10°, and it can
        // genuinely step over this contact — the sweep's candidate
        // windows must not.)
        let mask = best - 0.15_f64.to_radians();
        let swept = PassPredictor::new(sgp4, hk(), mask)
            .with_ephemeris(grid)
            .with_visibility(VisibilityMode::On);
        let passes = swept.passes(start, end);
        assert!(!passes.is_empty(), "short pass missed by the sweep");
        for pass in &passes {
            assert!(pass.duration_s() < 60.0, "contact should be sub-step");
            // The found window is genuine: its culmination clears the
            // mask, its boundaries sit on it.
            assert!(pass.max_elevation_rad > mask);
            let el_aos = swept.elevation_at(pass.aos);
            assert!((el_aos - mask).abs().to_degrees() < 0.05, "AOS off mask");
        }
    }

    /// Without a grid (or with a mask outside (−π/2, π/2)) the sweep
    /// modes must fall back to the legacy scan, bit-identically.
    #[test]
    fn sweep_without_grid_falls_back_to_legacy_scan() {
        use crate::ephemeris::EphemerisGrid;
        use crate::visibility::VisibilityMode;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let end = start + 1.0;
        let legacy = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let gridless =
            PassPredictor::new(sgp4.clone(), hk(), 0.0).with_visibility(VisibilityMode::On);
        let a = legacy.passes(start, end);
        let b = gridless.passes(start, end);
        assert_eq!(a, b, "no grid ⇒ sweep must defer to the legacy scan");
        // A grid that covers only half the window also defers — to the
        // legacy scan *over that same grid* (covered instants still
        // interpolate; the sweep itself refuses the partial window).
        let half = Arc::new(EphemerisGrid::build(&sgp4, start, start + 0.5));
        let partial_off = PassPredictor::new(sgp4.clone(), hk(), 0.0)
            .with_ephemeris(Arc::clone(&half))
            .with_visibility(VisibilityMode::Off);
        let partial_on = PassPredictor::new(sgp4.clone(), hk(), 0.0)
            .with_ephemeris(half)
            .with_visibility(VisibilityMode::On);
        assert_eq!(
            partial_off.passes(start, end),
            partial_on.passes(start, end)
        );
        // An always-above mask below −π/2 defers too (and stays one
        // whole-window pass under both paths).
        let wide_open = PassPredictor::new(sgp4, hk(), -2.0).with_visibility(VisibilityMode::On);
        let passes = wide_open.passes(start, end);
        assert_eq!(passes.len(), 1);
        assert!((passes[0].aos.0 - start.0).abs() < 1e-12);
    }

    /// A moving-observer scan whose legs all sit at one position must
    /// reproduce the fixed-observer scan over the union window (to
    /// refinement precision), except for contacts split at leg
    /// boundaries.
    #[test]
    fn legs_at_a_fixed_position_match_the_fixed_scan() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let fixed = p.passes(start, start + 1.0);
        // Split at a quiet instant — the between-pass gap midpoint
        // closest to mid-window, so no contact straddles the boundary.
        let gap = fixed
            .windows(2)
            .map(|w| JulianDate(0.5 * (w[0].los.0 + w[1].aos.0)))
            .min_by(|a, b| {
                let mid = start.0 + 0.5;
                (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs())
            })
            .expect("a between-pass gap");
        let legs = [
            ObserverLeg {
                start,
                end: gap,
                position: hk(),
            },
            ObserverLeg {
                start: gap,
                end: start + 1.0,
                position: hk(),
            },
        ];
        let moving = p.passes_over_legs(&legs).expect("ordered legs");
        assert_eq!(fixed.len(), moving.len());
        // The coarse sampling grid is anchored at each leg's start, so
        // each boundary may land anywhere inside its own bisection
        // bracket — compare at the scan's stated ~10 ms resolution
        // (5e-7 d ≈ 43 ms).
        for (a, b) in fixed.iter().zip(&moving) {
            assert!((a.aos.0 - b.aos.0).abs() < 5e-7);
            assert!((a.los.0 - b.los.0).abs() < 5e-7);
            assert!((a.tca.0 - b.tca.0).abs() < 5e-7);
        }
    }

    /// A leg far from the first position sees different passes, and
    /// out-of-order legs are rejected with a typed error.
    #[test]
    fn legs_change_geometry_and_must_be_ordered() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let sydney = Geodetic::from_degrees(-33.87, 151.21, 0.05);
        let legs = [
            ObserverLeg {
                start,
                end: start + 0.5,
                position: hk(),
            },
            ObserverLeg {
                start: start + 0.5,
                end: start + 1.0,
                position: sydney,
            },
        ];
        let moving = p.passes_over_legs(&legs).expect("ordered legs");
        let fixed = p.passes(start, start + 1.0);
        assert_ne!(moving, fixed, "relocation must change the pass list");
        // Chronological across the boundary.
        for w in moving.windows(2) {
            assert!(w[1].aos >= w[0].los);
        }
        let swapped = [legs[1], legs[0]];
        assert!(matches!(
            p.passes_over_legs(&swapped),
            Err(OrbitError::UnorderedLegs { index: 1 })
        ));
    }

    #[test]
    fn pass_in_progress_at_start_is_reported() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        let pass = passes[0];
        // Restart the search from the middle of the first pass.
        let mid = JulianDate(0.5 * (pass.aos.0 + pass.los.0));
        let from_mid = p.passes(mid, start + 1.0);
        assert_eq!(from_mid.len(), passes.len());
        assert!((from_mid[0].aos.0 - mid.0).abs() < 1e-9);
        assert!((from_mid[0].los.0 - pass.los.0).abs() < 1.0 / 86_400.0);
    }
}
