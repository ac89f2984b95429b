//! # satiot-orbit
//!
//! Orbital-mechanics substrate for the satiot toolkit.
//!
//! This crate implements everything needed to turn a Two-Line Element set
//! (TLE) into the ground-truth geometry a satellite-IoT measurement study
//! depends on:
//!
//! * [`time`] — Julian dates, TLE epochs, and Greenwich sidereal time.
//! * [`tle`] — TLE parsing, checksum validation, and formatting (the
//!   formatter is used by `satiot-scenarios` to emit synthetic catalogs).
//! * [`sgp4`] — a from-scratch implementation of the SGP4 analytical
//!   propagator (WGS-72 constants, near-earth branch, including the
//!   low-perigee "simple drag" mode), validated against the classic
//!   Spacetrack Report #3 test vectors.
//! * [`frames`] — TEME → ECEF rotation, WGS-84 geodetic conversions.
//! * [`topo`] — topocentric look angles (azimuth, elevation, slant range,
//!   range-rate) and Doppler shift for a ground observer.
//! * [`pass`] — contact-window (pass) prediction via coarse search plus
//!   bisection refinement of AOS/LOS times.
//! * [`ephemeris`] — per-satellite precomputed ECEF grids with cubic
//!   Hermite interpolation, so multi-site sweeps propagate each
//!   satellite once instead of once per observer.
//! * [`visibility`] — chunked, auto-vectorisable horizon-margin
//!   kernels that sweep ephemeris-grid columns for all observers of
//!   one satellite and emit only sign-change windows for refinement.
//! * [`cull`] — conservative spatial pre-culling of (site, satellite)
//!   pairs (latitude-band reachability plus a footprint-cone scan over
//!   raw grid samples), with always-on proof counters, so
//!   mega-constellation sweeps cost O(visible pairs).
//! * [`elements`] — Keplerian element helpers and a builder for synthetic
//!   TLEs (circular-ish shells at a given altitude/inclination).
//! * [`sun`] — a low-precision solar ephemeris: daylight fractions for
//!   the energy model's harvesting extension and LEO eclipse checks.
//!
//! Deep-space propagation (SDP4) is intentionally **not** implemented:
//! every satellite measured by the reproduced paper is LEO with an orbital
//! period well under 225 minutes. [`sgp4::Sgp4::new`] returns
//! [`OrbitError::DeepSpaceUnsupported`] rather than silently
//! mis-propagating a deep-space object.
//!
//! ## Quick example
//!
//! ```
//! use satiot_orbit::{tle::Tle, sgp4::Sgp4};
//!
//! // The classic Spacetrack Report #3 test element set.
//! let tle = Tle::parse_lines(
//!     "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    87",
//!     "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  1058",
//! ).unwrap();
//! let sgp4 = Sgp4::new(&tle).unwrap();
//! let state = sgp4.propagate(0.0).unwrap();
//! assert!(state.position_km.norm() > 6500.0);
//! ```

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cull;
pub mod elements;
pub mod ephemeris;
pub mod error;
pub mod frames;
pub mod pass;
pub mod sgp4;
pub mod sun;
pub mod time;
pub mod tle;
pub mod topo;
pub mod vec3;
pub mod visibility;

pub use ephemeris::EphemerisGrid;
pub use error::OrbitError;
pub use frames::Geodetic;
pub use pass::{Pass, PassPredictor};
pub use sgp4::{Sgp4, StateTeme};
pub use time::JulianDate;
pub use tle::Tle;
pub use vec3::Vec3;
pub use visibility::VisibilityMode;

/// Speed of light in km/s, used for Doppler computations.
pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;

/// Magnitude below which [`rem_tau`] takes its fast path: 2⁴⁰·τ, exact.
pub(crate) const REM_TAU_FAST_LIMIT: f64 = 1_099_511_627_776.0 * core::f64::consts::TAU;

/// `x % TAU`, bit for bit, without libm's `fmod` on the common path.
///
/// SGP4 and GMST wrap angles six times per propagated sample; `fmod`
/// (what `%` lowers to) costs several times this fast path. The result
/// equals `x % TAU` in every bit, sign of zero included:
///
/// * for finite `|x| < 2⁴⁰·τ`, the quotient `n = trunc(|x|/τ)` is off
///   by at most one, since `|x|/τ` carries a relative rounding error of
///   at most 2⁻⁵³ against a value below 2⁴⁰;
/// * the true remainder `|x| − n·τ` is exactly representable (as
///   `fmod`'s always is), so the single rounding of
///   `(-n).mul_add(τ, |x|)` returns it exactly once `n` is right — the
///   two-rounding `|x| − n*τ` does not;
/// * a wrong `n` leaves the result outside `[0, τ)` (rounding is
///   monotone and `τ` is representable), so one correction step fixes
///   it;
/// * NaN, ±∞ and larger magnitudes take the `%` fallback.
#[inline]
pub fn rem_tau(x: f64) -> f64 {
    use core::f64::consts::TAU;
    let a = x.abs();
    if a < REM_TAU_FAST_LIMIT {
        let mut n = (a / TAU) as i64 as f64;
        let mut r = (-n).mul_add(TAU, a);
        if r < 0.0 {
            n -= 1.0;
            r = (-n).mul_add(TAU, a);
        } else if r >= TAU {
            n += 1.0;
            r = (-n).mul_add(TAU, a);
        }
        return r.copysign(x);
    }
    x % TAU
}

#[cfg(test)]
mod tests {
    use super::rem_tau;
    use core::f64::consts::TAU;

    fn same(x: f64) {
        assert_eq!(
            rem_tau(x).to_bits(),
            (x % TAU).to_bits(),
            "rem_tau({x:e}) = {:e}, % gives {:e}",
            rem_tau(x),
            x % TAU
        );
    }

    #[test]
    fn rem_tau_matches_fmod_on_special_values() {
        let limit = 1_099_511_627_776.0 * TAU;
        for x in [
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::EPSILON,
            1.0,
            TAU,
            TAU / 2.0,
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
            limit,
            limit * (1.0 - f64::EPSILON),
            limit * 1.5,
            1e300,
        ] {
            same(x);
            same(-x);
        }
    }

    #[test]
    fn rem_tau_matches_fmod_around_multiples_of_tau() {
        // Near k·τ the quotient rounds across an integer and the fast
        // path must take its correction step.
        for k in 0..100_000_u64 {
            let bits = (k as f64 * TAU).to_bits();
            for d in -2_i64..=2 {
                let x = f64::from_bits(bits.saturating_add_signed(d));
                same(x);
                same(-x);
            }
        }
    }
}
