//! Keplerian-element helpers and the synthetic-TLE builder.
//!
//! The reproduced study used real TLEs from the four constellations it
//! measured; this toolkit regenerates equivalent catalogs from the orbital
//! parameters the paper publishes (Table 3: altitude bands, inclinations,
//! satellite counts). This module provides the element → TLE conversion;
//! constellation layout lives in `satiot-scenarios`.

use crate::error::OrbitError;
use crate::sgp4::{Sgp4, EARTH_RADIUS_KM, MU_KM3_S2};
use crate::time::JulianDate;
use crate::tle::Tle;

use core::f64::consts::TAU;

/// Mean motion (rad/min) of a circular orbit with semi-major axis `a_km`.
pub fn mean_motion_rad_min(a_km: f64) -> f64 {
    (MU_KM3_S2 / (a_km * a_km * a_km)).sqrt() * 60.0
}

/// Semi-major axis (km) for a circular orbit at `alt_km` above the
/// (spherical, WGS-72) Earth.
pub fn sma_for_altitude_km(alt_km: f64) -> f64 {
    EARTH_RADIUS_KM + alt_km
}

/// Orbital period (minutes) of a circular orbit at `alt_km`.
pub fn period_min_for_altitude(alt_km: f64) -> f64 {
    TAU / mean_motion_rad_min(sma_for_altitude_km(alt_km))
}

/// Circular orbital speed (km/s) at `alt_km`.
pub fn circular_speed_km_s(alt_km: f64) -> f64 {
    (MU_KM3_S2 / sma_for_altitude_km(alt_km)).sqrt()
}

/// Earth-central half-angle λ (radians) of the visibility cone from a
/// satellite at `alt_km` above a spherical Earth, for a ground observer
/// with elevation mask `min_elevation_rad`:
///
/// `λ = acos(re/(re+h) · cos ε) − ε`
///
/// A ground point sees the satellite above the mask iff the central
/// angle between the subsatellite point and the observer is ≤ λ. The
/// spatial pre-cull stage ([`crate::cull`]) and the stochastic-geometry
/// availability closed form both build on this angle.
pub fn footprint_half_angle_rad(alt_km: f64, min_elevation_rad: f64) -> f64 {
    let re = EARTH_RADIUS_KM;
    ((re / (re + alt_km)) * min_elevation_rad.cos()).acos() - min_elevation_rad
}

/// Ground footprint area (km²) visible from `alt_km` above a minimum
/// elevation mask — the spherical-cap area the paper's Table 3 reports.
pub fn footprint_area_km2(alt_km: f64, min_elevation_rad: f64) -> f64 {
    let re = EARTH_RADIUS_KM;
    let lam = footprint_half_angle_rad(alt_km, min_elevation_rad);
    // Spherical cap area = 2πR²(1 − cos λ).
    TAU * re * re * (1.0 - lam.cos())
}

/// A set of mean Keplerian elements plus the bookkeeping needed to emit a
/// valid TLE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elements {
    /// Semi-major axis, km.
    pub sma_km: f64,
    /// Eccentricity ∈ [0, 1).
    pub eccentricity: f64,
    /// Inclination, radians.
    pub inclination_rad: f64,
    /// RAAN, radians.
    pub raan_rad: f64,
    /// Argument of perigee, radians.
    pub arg_perigee_rad: f64,
    /// Mean anomaly at epoch, radians.
    pub mean_anomaly_rad: f64,
    /// B* drag term, 1/earth-radii.
    pub bstar: f64,
    /// Element-set epoch.
    pub epoch: JulianDate,
}

impl Elements {
    /// A near-circular orbit at `alt_km` / `incl_deg`, everything else zero.
    pub fn circular(alt_km: f64, incl_deg: f64, epoch: JulianDate) -> Self {
        Elements {
            sma_km: sma_for_altitude_km(alt_km),
            eccentricity: 0.0005,
            inclination_rad: incl_deg.to_radians(),
            raan_rad: 0.0,
            arg_perigee_rad: 0.0,
            mean_anomaly_rad: 0.0,
            bstar: 2.0e-5,
            epoch,
        }
    }

    /// Mean motion implied by the semi-major axis, rad/min.
    pub fn mean_motion_rad_min(&self) -> f64 {
        mean_motion_rad_min(self.sma_km)
    }

    /// Mean altitude above the spherical Earth, km.
    pub fn altitude_km(&self) -> f64 {
        self.sma_km - EARTH_RADIUS_KM
    }

    /// Validate and convert to a [`Tle`] carrying `norad_id` and `name`.
    pub fn to_tle(&self, norad_id: u32, name: &str) -> Result<Tle, OrbitError> {
        if self.sma_km <= EARTH_RADIUS_KM {
            return Err(OrbitError::InvalidElements { field: "sma_km" });
        }
        if !(0.0..1.0).contains(&self.eccentricity) {
            return Err(OrbitError::InvalidElements {
                field: "eccentricity",
            });
        }
        if !(0.0..=core::f64::consts::PI).contains(&self.inclination_rad) {
            return Err(OrbitError::InvalidElements {
                field: "inclination",
            });
        }
        let (year, _, _, _, _, _) = self.epoch.to_calendar();
        let jan1 = JulianDate::from_calendar(year, 1, 1, 0, 0, 0.0);
        let epoch_day = self.epoch.days_since(jan1) + 1.0;
        Ok(Tle {
            name: Some(name.to_string()),
            norad_id,
            classification: 'U',
            intl_designator: String::new(),
            epoch: self.epoch,
            epoch_year: (year.rem_euclid(100)) as u32,
            epoch_day,
            ndot_over_2: 0.0,
            nddot_over_6: 0.0,
            bstar: self.bstar,
            element_number: 1,
            inclination_rad: self.inclination_rad,
            raan_rad: wrap_tau(self.raan_rad),
            eccentricity: self.eccentricity,
            arg_perigee_rad: wrap_tau(self.arg_perigee_rad),
            mean_anomaly_rad: wrap_tau(self.mean_anomaly_rad),
            mean_motion_rad_min: self.mean_motion_rad_min(),
            rev_number: 1,
        })
    }

    /// Build an SGP4 propagator directly from these elements.
    pub fn to_sgp4(&self) -> Result<Sgp4, OrbitError> {
        Sgp4::from_elements(
            self.mean_motion_rad_min(),
            self.eccentricity,
            self.inclination_rad,
            wrap_tau(self.raan_rad),
            wrap_tau(self.arg_perigee_rad),
            wrap_tau(self.mean_anomaly_rad),
            self.bstar,
            self.epoch,
        )
    }
}

/// Normalise an angle into `[0, 2π)`.
///
/// Synthetic catalogs accumulate angles well past τ (Walker phasing,
/// golden-angle jitter, per-shell RAAN offsets), and TLE fields are
/// formatted as degrees in `[0, 360)`; every angle is pushed through
/// this before formatting or propagator initialisation. The final guard
/// handles the boundary case where `x % τ` is a sub-ulp negative value
/// and adding τ rounds back up to exactly τ — without it the function
/// could return τ itself, which is outside the half-open range and
/// would survive a *second* wrap as `0.0` (a bit-identity hazard
/// between once- and twice-normalised pipelines).
pub fn wrap_tau(x: f64) -> f64 {
    let mut w = crate::rem_tau(x);
    if w < 0.0 {
        w += TAU;
    }
    if w >= TAU {
        w = 0.0;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
    }

    #[test]
    fn iss_altitude_period_is_about_92_minutes() {
        let p = period_min_for_altitude(420.0);
        assert!((p - 92.8).abs() < 0.5, "period {p}");
    }

    #[test]
    fn circular_speed_at_500km_is_7_6_km_s() {
        let v = circular_speed_km_s(500.0);
        assert!((v - 7.61).abs() < 0.02, "speed {v}");
    }

    #[test]
    fn footprint_matches_paper_order_of_magnitude() {
        // Paper Table 3 reports 1.27e7 km² for FOSSA (~510 km) and 3.27e7 km²
        // for Tianqi's high shell (~857 km). The paper does not state its
        // elevation mask; a 0° spherical cap brackets FOSSA from above
        // (1.9e7) and a ~5° mask from below (1.2e7), so we assert the
        // decade, monotonicity in altitude, and shrinkage with the mask.
        let fossa = footprint_area_km2(510.0, 0.0);
        assert!(
            (1.0e7..2.5e7).contains(&fossa),
            "FOSSA footprint {fossa:.3e}"
        );
        let fossa_masked = footprint_area_km2(510.0, 5.0_f64.to_radians());
        assert!(
            (1.0e7..1.5e7).contains(&fossa_masked),
            "FOSSA 5° footprint {fossa_masked:.3e}"
        );
        let tianqi = footprint_area_km2(857.0, 0.0);
        assert!(
            (2.5e7..3.6e7).contains(&tianqi),
            "Tianqi footprint {tianqi:.3e}"
        );
        // Higher orbits see more ground.
        assert!(tianqi > fossa);
        // A mask shrinks the footprint.
        assert!(footprint_area_km2(510.0, 10.0_f64.to_radians()) < fossa_masked);
    }

    #[test]
    fn elements_to_tle_round_trip() {
        let mut e = Elements::circular(550.0, 97.6, epoch());
        e.raan_rad = 1.25;
        e.mean_anomaly_rad = 2.5;
        let tle = e.to_tle(40001, "SYN-1").unwrap();
        assert_eq!(tle.norad_id, 40001);
        assert_eq!(tle.name.as_deref(), Some("SYN-1"));
        // Format and reparse: the full TLE text pipeline must agree.
        let (l1, l2) = tle.format_lines();
        let back = Tle::parse_lines(&l1, &l2).unwrap();
        assert!((back.inclination_rad - e.inclination_rad).abs() < 1e-5);
        assert!((back.raan_rad - e.raan_rad).abs() < 1e-5);
        assert!((back.mean_anomaly_rad - e.mean_anomaly_rad).abs() < 1e-5);
        assert!((back.mean_motion_rad_min - e.mean_motion_rad_min()).abs() < 1e-7);
        assert!((back.epoch.0 - e.epoch.0).abs() < 1e-6);
    }

    #[test]
    fn to_sgp4_altitude_is_respected() {
        let e = Elements::circular(550.0, 97.6, epoch());
        let sgp4 = e.to_sgp4().unwrap();
        let state = sgp4.propagate(30.0).unwrap();
        let alt = state.position_km.norm() - EARTH_RADIUS_KM;
        assert!((alt - 550.0).abs() < 25.0, "altitude {alt}");
    }

    #[test]
    fn tle_and_direct_sgp4_agree() {
        let mut e = Elements::circular(700.0, 50.0, epoch());
        e.raan_rad = 0.7;
        e.mean_anomaly_rad = 4.0;
        let direct = e.to_sgp4().unwrap();
        let tle = e.to_tle(40002, "SYN-2").unwrap();
        let (l1, l2) = tle.format_lines();
        let via_tle = Sgp4::new(&Tle::parse_lines(&l1, &l2).unwrap()).unwrap();
        for t in [0.0, 47.0, 1440.0] {
            let a = direct.propagate(t).unwrap().position_km;
            let b = via_tle.propagate(t).unwrap().position_km;
            // TLE text has ~1e-4 deg / 1e-8 rev/day quantisation; states stay
            // within tens of metres over a day.
            assert!((a - b).norm() < 0.2, "t={t}: {} km apart", (a - b).norm());
        }
    }

    #[test]
    fn invalid_elements_are_rejected() {
        let mut e = Elements::circular(550.0, 97.6, epoch());
        e.sma_km = 100.0;
        assert!(matches!(
            e.to_tle(1, "X").unwrap_err(),
            OrbitError::InvalidElements { field: "sma_km" }
        ));
        let mut e = Elements::circular(550.0, 97.6, epoch());
        e.eccentricity = 1.2;
        assert!(e.to_tle(1, "X").is_err());
        let mut e = Elements::circular(550.0, 97.6, epoch());
        e.inclination_rad = -0.1;
        assert!(e.to_tle(1, "X").is_err());
    }

    #[test]
    fn wrap_tau_behaviour() {
        assert!((wrap_tau(-0.5) - (TAU - 0.5)).abs() < 1e-12);
        assert!((wrap_tau(TAU + 0.25) - 0.25).abs() < 1e-12);
        assert_eq!(wrap_tau(0.0), 0.0);
        // Half-open range: τ itself and sub-ulp negatives must land in
        // [0, τ), never *at* τ.
        assert_eq!(wrap_tau(TAU), 0.0);
        let w = wrap_tau(-1e-20);
        assert!((0.0..TAU).contains(&w), "wrap_tau(-1e-20) = {w}");
        for hostile in [37.2, -41.9, 6.0 * TAU + 1.0, -3.0 * TAU - 2.5] {
            let w = wrap_tau(hostile);
            assert!((0.0..TAU).contains(&w), "wrap_tau({hostile}) = {w}");
            // Idempotent: a second wrap is bit-identical.
            assert_eq!(wrap_tau(w).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn footprint_half_angle_matches_area() {
        // The extracted half-angle must reproduce the area formula.
        for (alt, mask) in [(510.0, 0.0), (857.0, 0.0), (600.0, 0.26)] {
            let lam = footprint_half_angle_rad(alt, mask);
            let area = TAU * EARTH_RADIUS_KM * EARTH_RADIUS_KM * (1.0 - lam.cos());
            assert_eq!(area.to_bits(), footprint_area_km2(alt, mask).to_bits());
            assert!(lam > 0.0 && lam < core::f64::consts::FRAC_PI_2);
        }
        // Higher orbits see further; masks shrink the cone.
        assert!(footprint_half_angle_rad(900.0, 0.0) > footprint_half_angle_rad(500.0, 0.0));
        assert!(footprint_half_angle_rad(600.0, 0.0) > footprint_half_angle_rad(600.0, 0.3));
    }
}

/// J₂ nodal-precession rate (rad/day) of a near-circular orbit at
/// `alt_km` altitude and `incl_rad` inclination.
///
/// `Ω̇ = −(3/2) · J₂ · (Re/p)² · n · cos i`
///
/// Retrograde orbits near 97–98° precess *eastward* ~0.9856°/day, exactly
/// tracking the mean Sun — which is why every cubesat constellation in
/// the paper's Table 3 (FOSSA/PICO/CSTP at 97.36–97.72°) sits there.
pub fn nodal_precession_rad_per_day(alt_km: f64, incl_rad: f64, ecc: f64) -> f64 {
    let a = sma_for_altitude_km(alt_km);
    let p = a * (1.0 - ecc * ecc);
    let n_rad_day = mean_motion_rad_min(a) * 1_440.0;
    -1.5 * crate::sgp4::J2 * (EARTH_RADIUS_KM / p).powi(2) * n_rad_day * incl_rad.cos()
}

/// J₂ apsidal-precession rate (rad/day): how fast the argument of perigee
/// rotates. `ω̇ = (3/4)·J₂·(Re/p)²·n·(5cos²i − 1)`; zero at the critical
/// inclination 63.43°.
pub fn apsidal_precession_rad_per_day(alt_km: f64, incl_rad: f64, ecc: f64) -> f64 {
    let a = sma_for_altitude_km(alt_km);
    let p = a * (1.0 - ecc * ecc);
    let n_rad_day = mean_motion_rad_min(a) * 1_440.0;
    0.75 * crate::sgp4::J2
        * (EARTH_RADIUS_KM / p).powi(2)
        * n_rad_day
        * (5.0 * incl_rad.cos().powi(2) - 1.0)
}

/// The Earth's mean motion around the Sun, rad/day — the precession rate
/// a sun-synchronous orbit must match.
pub const SUN_RATE_RAD_PER_DAY: f64 = 0.985_647_4 * core::f64::consts::PI / 180.0;

/// The inclination (radians) making an orbit at `alt_km` sun-synchronous,
/// or `None` if no inclination achieves it (altitude too high for SSO).
pub fn sun_synchronous_inclination_rad(alt_km: f64) -> Option<f64> {
    let a = sma_for_altitude_km(alt_km);
    let n_rad_day = mean_motion_rad_min(a) * 1_440.0;
    let cos_i =
        -SUN_RATE_RAD_PER_DAY / (1.5 * crate::sgp4::J2 * (EARTH_RADIUS_KM / a).powi(2) * n_rad_day);
    if cos_i.abs() > 1.0 {
        None
    } else {
        Some(cos_i.acos())
    }
}

#[cfg(test)]
mod precession_tests {
    use super::*;

    #[test]
    fn table_3_cubesats_are_sun_synchronous() {
        // The paper's Table 3 inclinations are not arbitrary: at each
        // constellation's altitude, the J2-predicted sun-synchronous
        // inclination matches the published value to a fraction of a
        // degree — a strong independent check of the precession model.
        let cases = [
            (510.4, 97.36), // FOSSA at 508.7–512.0 km
            (515.0, 97.72), // PICO at 507.9–522.1 km (mid)
            (496.0, 97.45), // CSTP at 468.3–523.7 km (mid)
        ];
        for (alt, published_deg) in cases {
            let sso = sun_synchronous_inclination_rad(alt)
                .expect("LEO altitudes always admit an SSO inclination")
                .to_degrees();
            assert!(
                (sso - published_deg).abs() < 0.6,
                "alt {alt}: SSO {sso:.2}° vs published {published_deg}°"
            );
        }
    }

    #[test]
    fn sso_orbit_precesses_at_the_sun_rate() {
        let alt = 510.0;
        let incl = sun_synchronous_inclination_rad(alt).unwrap();
        let rate = nodal_precession_rad_per_day(alt, incl, 0.001);
        assert!(
            (rate - SUN_RATE_RAD_PER_DAY).abs() / SUN_RATE_RAD_PER_DAY < 1e-3,
            "rate {rate}"
        );
    }

    #[test]
    fn prograde_orbits_precess_westward() {
        // ISS-like: Ω̇ ≈ −5°/day.
        let rate = nodal_precession_rad_per_day(420.0, 51.6_f64.to_radians(), 0.001);
        assert!(rate < 0.0);
        assert!(
            (rate.to_degrees() + 5.0).abs() < 0.3,
            "rate {}",
            rate.to_degrees()
        );
        // Polar orbits barely precess.
        let polar = nodal_precession_rad_per_day(500.0, 90.0_f64.to_radians(), 0.0);
        assert!(polar.abs() < 1e-6);
    }

    #[test]
    fn sgp4_node_drift_matches_the_analytic_rate() {
        // Propagate a Tianqi-shell orbit for 10 days and compare the
        // ascending-node drift of the actual SGP4 integration against the
        // first-order J2 formula.
        let alt = 857.0;
        let incl = 49.97_f64.to_radians();
        let epoch = JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0);
        let e = Elements::circular(alt, 49.97, epoch);
        let sgp4 = e.to_sgp4().unwrap();
        // Extract the node direction from the angular-momentum vector.
        let node_lon = |t: f64| -> f64 {
            let s = sgp4.propagate(t).unwrap();
            let h = s.position_km.cross(s.velocity_km_s);
            // Ascending node direction = ẑ × h.
            (-h.x).atan2(h.y)
        };
        let days = 10.0;
        let mut drift = node_lon(days * 1_440.0) - node_lon(0.0);
        while drift > core::f64::consts::PI {
            drift -= TAU;
        }
        while drift < -core::f64::consts::PI {
            drift += TAU;
        }
        let analytic = nodal_precession_rad_per_day(alt, incl, 0.0005) * days;
        assert!(
            (drift - analytic).abs() < 0.01,
            "drift {drift} vs analytic {analytic}"
        );
    }

    #[test]
    fn apsidal_precession_vanishes_at_critical_inclination() {
        let critical = (1.0_f64 / 5.0_f64.sqrt()).acos(); // 63.43°.
        let at_critical = apsidal_precession_rad_per_day(600.0, critical, 0.01);
        assert!(at_critical.abs() < 1e-12, "rate {at_critical}");
        // Below the critical inclination perigee advances; above, it regresses.
        assert!(apsidal_precession_rad_per_day(600.0, 0.5, 0.01) > 0.0);
        assert!(apsidal_precession_rad_per_day(600.0, 1.5, 0.01) < 0.0);
        // ISS-class: ω̇ ≈ +3.6°/day.
        let iss = apsidal_precession_rad_per_day(420.0, 51.6_f64.to_radians(), 0.001);
        assert!((iss.to_degrees() - 3.6).abs() < 0.4, "{}", iss.to_degrees());
    }

    #[test]
    fn high_orbits_cannot_be_sun_synchronous() {
        assert!(sun_synchronous_inclination_rad(500.0).is_some());
        assert!(sun_synchronous_inclination_rad(40_000.0).is_none());
    }
}
