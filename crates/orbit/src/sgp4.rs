//! A from-scratch implementation of the SGP4 analytical orbit propagator.
//!
//! This follows the near-earth branch of the algorithm described in
//! Spacetrack Report #3 (Hoots & Roehrich, 1980) as revised by Vallado,
//! Crawford, Hujsak & Kelso, *"Revisiting Spacetrack Report #3"* (AIAA
//! 2006-6753) — the reference the reproduced paper itself cites for
//! contact-window prediction. WGS-72 gravitational constants are used, as
//! in the reference implementation, so the classic test vectors apply.
//!
//! The deep-space branch (SDP4, periods ≥ 225 min) is deliberately
//! unimplemented: every IoT constellation in the study orbits at
//! 440–900 km (periods ≈ 93–103 min). Deep-space element sets are rejected
//! at construction time with a typed error.
//!
//! Output states are in the TEME (True Equator, Mean Equinox) inertial
//! frame, in km and km/s; see [`crate::frames`] for conversion to
//! Earth-fixed and geodetic coordinates.

use crate::error::OrbitError;
use crate::time::JulianDate;
use crate::tle::Tle;
use crate::vec3::Vec3;

use core::f64::consts::TAU;
use satiot_obs::metrics::{Counter, Histogram};

/// Total [`Sgp4::propagate`] invocations (metrics).
static PROPAGATE_CALLS: Counter = Counter::new("orbit.sgp4.propagate_calls");
// The `orbit.sgp4.propagations` proof counter: a plain always-on atomic
// (unlike the metrics-gated counter above) so benchmark harnesses can
// verify SGP4-call savings without enabling the whole metrics registry.
// Lattice builds count a whole grid with one add
// ([`count_propagations`]), keeping this shared cache line off the
// per-sample path.
static PROPAGATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total propagations performed by this process (the always-on
/// `orbit.sgp4.propagations` counter; see [`reset_propagations`]).
pub fn propagations() -> u64 {
    PROPAGATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Zero the [`propagations`] counter (benchmark phase boundaries).
pub fn reset_propagations() {
    PROPAGATIONS.store(0, std::sync::atomic::Ordering::Relaxed);
}

/// Count `n` propagations made through [`Sgp4::propagate_uncounted`],
/// exactly as `n` [`Sgp4::propagate`] calls would have.
pub(crate) fn count_propagations(n: u64) {
    PROPAGATE_CALLS.add(n);
    PROPAGATIONS.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
}

/// Newton iterations Kepler's equation needed per propagation (metrics).
static KEPLER_ITERATIONS: Histogram = Histogram::new(
    "orbit.sgp4.kepler_iterations",
    &[1.0, 2.0, 3.0, 5.0, 8.0, 10.0],
);

/// Kepler-solver iteration counts of a run of propagations, indexed by
/// iterations (1–10). Lattice builds tally a whole grid and record it
/// once, keeping the histogram's shared atomics off the per-sample path.
#[derive(Default)]
pub(crate) struct KeplerTally([u64; 11]);

impl KeplerTally {
    /// Record the tally into `orbit.sgp4.kepler_iterations`.
    pub(crate) fn record(&self) {
        for (iterations, &n) in self.0.iter().enumerate() {
            if n > 0 {
                KEPLER_ITERATIONS.record_n(iterations as f64, n);
            }
        }
    }
}

/// WGS-72 gravitational parameter, km³/s².
pub const MU_KM3_S2: f64 = 398_600.8;
/// WGS-72 Earth equatorial radius, km.
pub const EARTH_RADIUS_KM: f64 = 6_378.135;
/// √(μ)/√(Re³) expressed per minute (the `ke` constant).
pub const XKE: f64 = 0.074_366_916_133_173_4;
/// Second zonal harmonic J₂ (WGS-72).
pub const J2: f64 = 0.001_082_616;
/// Third zonal harmonic J₃ (WGS-72).
pub const J3: f64 = -0.000_002_538_81;
/// Fourth zonal harmonic J₄ (WGS-72).
pub const J4: f64 = -0.000_001_655_97;

const X2O3: f64 = 2.0 / 3.0;

/// A propagated state in the TEME inertial frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTeme {
    /// Position, km.
    pub position_km: Vec3,
    /// Velocity, km/s.
    pub velocity_km_s: Vec3,
    /// Minutes since the element-set epoch at which this state holds.
    pub tsince_min: f64,
}

/// An initialised SGP4 propagator for one element set.
///
/// Construction performs the (comparatively expensive) initialisation of
/// all secular and periodic coefficients; [`Sgp4::propagate`] is then cheap
/// and can be called millions of times, which the campaign simulators
/// rely on. On a 2-core Xeon (glibc 2.36) one call takes about 0.34 µs
/// (the `sgp4_propagate` criterion bench, one thread). Ephemeris grids
/// sample through the lane kernel instead (`propagate_lanes`, eight
/// instants per call, bit for bit the same) over a shared GMST table:
/// one satellite's 212-day grid costs about 0.31–0.36 µs per sample
/// on one thread (`grid_build_212day`; large offsets make samples
/// dearer than within a day), and a traced `perfbench` `paper_full`
/// run builds its grids at about 0.15–0.19 µs of wall time per sample
/// on two threads (`orbit.sgp4.ns_per_call`, propagation plus the
/// TEME→ECEF rotation).
#[derive(Debug, Clone)]
pub struct Sgp4 {
    // Elements.
    ecco: f64,
    inclo: f64,
    nodeo: f64,
    argpo: f64,
    mo: f64,
    no_unkozai: f64,
    bstar: f64,
    /// Element-set epoch.
    pub epoch: JulianDate,

    // Derived init constants.
    /// `(XKE / no_unkozai)^(2/3)`, the Brouwer semi-major axis in Earth
    /// radii; `propagate` rescales it by the drag factor.
    ao: f64,
    /// `sin`/`cos` of `inclo`, which the near-earth branch never
    /// perturbs before the short-period terms.
    sinio: f64,
    cosio: f64,
    isimp: bool,
    aycof: f64,
    con41: f64,
    cc1: f64,
    cc4: f64,
    cc5: f64,
    d2: f64,
    d3: f64,
    d4: f64,
    delmo: f64,
    eta: f64,
    argpdot: f64,
    omgcof: f64,
    sinmao: f64,
    t2cof: f64,
    t3cof: f64,
    t4cof: f64,
    t5cof: f64,
    x1mth2: f64,
    x7thm1: f64,
    mdot: f64,
    nodedot: f64,
    xlcof: f64,
    xmcof: f64,
    nodecf: f64,
}

impl Sgp4 {
    /// Initialise the propagator from a parsed TLE.
    ///
    /// # Errors
    ///
    /// * [`OrbitError::DeepSpaceUnsupported`] if the un-Kozai'd period is
    ///   ≥ 225 minutes (SDP4 territory).
    /// * [`OrbitError::EccentricityOutOfRange`] for pathological elements.
    pub fn new(tle: &Tle) -> Result<Sgp4, OrbitError> {
        Self::from_elements(
            tle.mean_motion_rad_min,
            tle.eccentricity,
            tle.inclination_rad,
            tle.raan_rad,
            tle.arg_perigee_rad,
            tle.mean_anomaly_rad,
            tle.bstar,
            tle.epoch,
        )
    }

    /// Initialise directly from mean elements (Kozai mean motion in
    /// rad/min, angles in radians). Used by the synthetic-constellation
    /// builder to skip TLE round-trips in hot paths.
    #[allow(clippy::too_many_arguments)]
    pub fn from_elements(
        no_kozai: f64,
        ecco: f64,
        inclo: f64,
        nodeo: f64,
        argpo: f64,
        mo: f64,
        bstar: f64,
        epoch: JulianDate,
    ) -> Result<Sgp4, OrbitError> {
        if !(0.0..1.0).contains(&ecco) {
            return Err(OrbitError::EccentricityOutOfRange { eccentricity: ecco });
        }
        if no_kozai <= 0.0 {
            return Err(OrbitError::MeanMotionNonPositive);
        }

        // ---- initl: recover the original (un-Kozai'd) mean motion. ----
        let eccsq = ecco * ecco;
        let omeosq = 1.0 - eccsq;
        let rteosq = omeosq.sqrt();
        let cosio = inclo.cos();
        let cosio2 = cosio * cosio;

        let ak = (XKE / no_kozai).powf(X2O3);
        let d1 = 0.75 * J2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq);
        let mut del = d1 / (ak * ak);
        let adel = ak * (1.0 - del * del - del * (1.0 / 3.0 + 134.0 * del * del / 81.0));
        del = d1 / (adel * adel);
        let no_unkozai = no_kozai / (1.0 + del);

        let period_min = TAU / no_unkozai;
        if period_min >= 225.0 {
            return Err(OrbitError::DeepSpaceUnsupported { period_min });
        }

        let ao = (XKE / no_unkozai).powf(X2O3);
        let sinio = inclo.sin();
        let po = ao * omeosq;
        let con42 = 1.0 - 5.0 * cosio2;
        let con41 = -con42 - cosio2 - cosio2;
        let posq = po * po;
        let rp = ao * (1.0 - ecco);

        // ---- sgp4init: drag and secular coefficients. ----
        let isimp = rp < 220.0 / EARTH_RADIUS_KM + 1.0;

        let mut sfour = 78.0 / EARTH_RADIUS_KM + 1.0;
        let mut qzms24 = ((120.0 - 78.0) / EARTH_RADIUS_KM).powi(4);
        let perige = (rp - 1.0) * EARTH_RADIUS_KM;
        if perige < 156.0 {
            sfour = perige - 78.0;
            if perige < 98.0 {
                sfour = 20.0;
            }
            qzms24 = ((120.0 - sfour) / EARTH_RADIUS_KM).powi(4);
            sfour = sfour / EARTH_RADIUS_KM + 1.0;
        }
        let pinvsq = 1.0 / posq;

        let tsi = 1.0 / (ao - sfour);
        let eta = ao * ecco * tsi;
        let etasq = eta * eta;
        let eeta = ecco * eta;
        let psisq = (1.0 - etasq).abs();
        let coef = qzms24 * tsi.powi(4);
        let coef1 = coef / psisq.powf(3.5);
        let cc2 = coef1
            * no_unkozai
            * (ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
                + 0.375 * J2 * tsi / psisq * con41 * (8.0 + 3.0 * etasq * (8.0 + etasq)));
        let cc1 = bstar * cc2;
        let mut cc3 = 0.0;
        if ecco > 1.0e-4 {
            cc3 = -2.0 * coef * tsi * (J3 / J2) * no_unkozai * sinio / ecco;
        }
        let x1mth2 = 1.0 - cosio2;
        let cc4 = 2.0
            * no_unkozai
            * coef1
            * ao
            * omeosq
            * (eta * (2.0 + 0.5 * etasq) + ecco * (0.5 + 2.0 * etasq)
                - J2 * tsi / (ao * psisq)
                    * (-3.0 * con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                        + 0.75
                            * x1mth2
                            * (2.0 * etasq - eeta * (1.0 + etasq))
                            * (2.0 * argpo).cos()));
        let cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);

        let cosio4 = cosio2 * cosio2;
        let temp1 = 1.5 * J2 * pinvsq * no_unkozai;
        let temp2 = 0.5 * temp1 * J2 * pinvsq;
        let temp3 = -0.46875 * J4 * pinvsq * pinvsq * no_unkozai;
        let mdot = no_unkozai
            + 0.5 * temp1 * rteosq * con41
            + 0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4);
        let argpdot = -0.5 * temp1 * con42
            + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
            + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4);
        let xhdot1 = -temp1 * cosio;
        let nodedot = xhdot1
            + (0.5 * temp2 * (4.0 - 19.0 * cosio2) + 2.0 * temp3 * (3.0 - 7.0 * cosio2)) * cosio;

        let omgcof = bstar * cc3 * argpo.cos();
        let mut xmcof = 0.0;
        if ecco > 1.0e-4 {
            xmcof = -X2O3 * coef * bstar / eeta;
        }
        let nodecf = 3.5 * omeosq * xhdot1 * cc1;
        let t2cof = 1.5 * cc1;

        // Long-period coefficients; guard the (i ≈ 180°) singularity.
        let xlcof = if (cosio + 1.0).abs() > 1.5e-12 {
            -0.25 * (J3 / J2) * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio)
        } else {
            -0.25 * (J3 / J2) * sinio * (3.0 + 5.0 * cosio) / 1.5e-12
        };
        let aycof = -0.5 * (J3 / J2) * sinio;

        let delmo = (1.0 + eta * mo.cos()).powi(3);
        let sinmao = mo.sin();
        let x7thm1 = 7.0 * cosio2 - 1.0;

        let (mut d2, mut d3, mut d4) = (0.0, 0.0, 0.0);
        let (mut t3cof, mut t4cof, mut t5cof) = (0.0, 0.0, 0.0);
        if !isimp {
            let cc1sq = cc1 * cc1;
            d2 = 4.0 * ao * tsi * cc1sq;
            let temp = d2 * tsi * cc1 / 3.0;
            d3 = (17.0 * ao + sfour) * temp;
            d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * cc1;
            t3cof = d2 + 2.0 * cc1sq;
            t4cof = 0.25 * (3.0 * d3 + cc1 * (12.0 * d2 + 10.0 * cc1sq));
            t5cof = 0.2
                * (3.0 * d4 + 12.0 * cc1 * d3 + 6.0 * d2 * d2 + 15.0 * cc1sq * (2.0 * d2 + cc1sq));
        }

        Ok(Sgp4 {
            ecco,
            inclo,
            nodeo,
            argpo,
            mo,
            no_unkozai,
            bstar,
            epoch,
            ao,
            sinio,
            cosio,
            isimp,
            aycof,
            con41,
            cc1,
            cc4,
            cc5,
            d2,
            d3,
            d4,
            delmo,
            eta,
            argpdot,
            omgcof,
            sinmao,
            t2cof,
            t3cof,
            t4cof,
            t5cof,
            x1mth2,
            x7thm1,
            mdot,
            nodedot,
            xlcof,
            xmcof,
            nodecf,
        })
    }

    /// Orbital period of the un-Kozai'd mean motion, minutes.
    pub fn period_min(&self) -> f64 {
        TAU / self.no_unkozai
    }

    /// Mean inclination of the element set, radians.
    ///
    /// The spatial pre-cull ([`crate::cull`]) bounds the satellite's
    /// reachable latitude band from this without propagating.
    pub fn inclination_rad(&self) -> f64 {
        self.inclo
    }

    /// Mean eccentricity of the element set.
    pub fn eccentricity(&self) -> f64 {
        self.ecco
    }

    /// Brouwer-mean semi-major axis implied by the un-Kozai'd mean
    /// motion, km.
    pub fn semi_major_axis_km(&self) -> f64 {
        self.ao * EARTH_RADIUS_KM
    }

    /// Mean apogee radius `a·(1+e)`, km from the geocentre.
    ///
    /// An upper bound (to within short-period J₂ oscillations — callers
    /// pad, see [`crate::cull::RADIUS_PAD_KM`]) on how far from Earth's
    /// centre the propagated satellite can be, and therefore on its
    /// visibility-cone half-angle.
    pub fn apogee_radius_km(&self) -> f64 {
        self.semi_major_axis_km() * (1.0 + self.ecco)
    }

    /// Propagate to `tsince_min` minutes after the element-set epoch.
    ///
    /// Returns the TEME position/velocity, or a typed error if the element
    /// set degenerates (eccentricity blow-up, decay, …) at this offset.
    pub fn propagate(&self, tsince_min: f64) -> Result<StateTeme, OrbitError> {
        count_propagations(1);
        let mut kepler = KeplerTally::default();
        let state = self.propagate_uncounted(tsince_min, &mut kepler);
        kepler.record();
        state
    }

    /// [`Self::propagate`] without touching any shared counter: Kepler
    /// iterations go to the caller's `kepler` tally. Lattice builds
    /// count and record a whole grid at once ([`count_propagations`],
    /// [`KeplerTally::record`]).
    #[inline]
    pub(crate) fn propagate_uncounted(
        &self,
        tsince_min: f64,
        kepler: &mut KeplerTally,
    ) -> Result<StateTeme, OrbitError> {
        let t = tsince_min;

        // ---- Secular gravity and atmospheric drag. ----
        let xmdf = self.mo + self.mdot * t;
        let argpdf = self.argpo + self.argpdot * t;
        let nodedf = self.nodeo + self.nodedot * t;
        let mut argpm = argpdf;
        let mut mm = xmdf;
        let t2 = t * t;
        let mut nodem = nodedf + self.nodecf * t2;
        let mut tempa = 1.0 - self.cc1 * t;
        let mut tempe = self.bstar * self.cc4 * t;
        let mut templ = self.t2cof * t2;

        if !self.isimp {
            let delomg = self.omgcof * t;
            let delmtemp = 1.0 + self.eta * xmdf.cos();
            let delm = self.xmcof * (delmtemp.powi(3) - self.delmo);
            let temp = delomg + delm;
            mm = xmdf + temp;
            argpm = argpdf - temp;
            let t3 = t2 * t;
            let t4 = t3 * t;
            tempa = tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4;
            tempe += self.bstar * self.cc5 * (mm.sin() - self.sinmao);
            templ = templ + self.t3cof * t3 + t4 * (self.t4cof + t * self.t5cof);
        }

        let mut nm = self.no_unkozai;
        let mut em = self.ecco;
        if nm <= 0.0 {
            return Err(OrbitError::MeanMotionNonPositive);
        }
        let am = self.ao * tempa * tempa;
        nm = XKE / am.powf(1.5);
        em -= tempe;
        #[allow(clippy::manual_range_contains)] // Mirrors the reference SGP4 code.
        if em >= 1.0 || em < -0.001 {
            return Err(OrbitError::EccentricityOutOfRange { eccentricity: em });
        }
        if em < 1.0e-6 {
            em = 1.0e-6;
        }
        mm += self.no_unkozai * templ;
        let mut xlm = mm + argpm + nodem;

        nodem = crate::rem_tau(nodem);
        argpm = crate::rem_tau(argpm);
        xlm = crate::rem_tau(xlm);
        mm = crate::rem_tau(xlm - argpm - nodem);

        // ---- Long-period periodics. ----
        let ep = em;
        let xincp = self.inclo;
        let argpp = argpm;
        let nodep = nodem;
        let mp = mm;
        let sinip = self.sinio;
        let cosip = self.cosio;

        let axnl = ep * argpp.cos();
        let temp = 1.0 / (am * (1.0 - ep * ep));
        let aynl = ep * argpp.sin() + temp * self.aycof;
        let xl = mp + argpp + nodep + temp * self.xlcof * axnl;

        // ---- Kepler's equation (modified for long-period terms). ----
        let u = crate::rem_tau(xl - nodep);
        let mut eo1 = u;
        let mut tem5: f64 = 9999.9;
        let mut ktr: usize = 1;
        // The loop always runs (`tem5` starts at 9999.9) and overwrites
        // these before any use.
        let (mut sineo1, mut coseo1) = (0.0, 0.0);
        while tem5.abs() >= 1.0e-12 && ktr <= 10 {
            sineo1 = eo1.sin();
            coseo1 = eo1.cos();
            tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl;
            tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5;
            if tem5.abs() >= 0.95 {
                tem5 = 0.95 * tem5.signum();
            }
            eo1 += tem5;
            ktr += 1;
        }
        kepler.0[ktr - 1] += 1;

        // ---- Short-period preliminary quantities. ----
        let ecose = axnl * coseo1 + aynl * sineo1;
        let esine = axnl * sineo1 - aynl * coseo1;
        let el2 = axnl * axnl + aynl * aynl;
        let pl = am * (1.0 - el2);
        if pl < 0.0 {
            return Err(OrbitError::SemiLatusRectumNegative);
        }

        let rl = am * (1.0 - ecose);
        let rdotl = am.sqrt() * esine / rl;
        let rvdotl = pl.sqrt() / rl;
        let betal = (1.0 - el2).sqrt();
        let temp = esine / (1.0 + betal);
        let sinu = am / rl * (sineo1 - aynl - axnl * temp);
        let cosu = am / rl * (coseo1 - axnl + aynl * temp);
        let su = sinu.atan2(cosu);
        let sin2u = (cosu + cosu) * sinu;
        let cos2u = 1.0 - 2.0 * sinu * sinu;
        let temp = 1.0 / pl;
        let temp1 = 0.5 * J2 * temp;
        let temp2 = temp1 * temp;

        // ---- Short-period periodics. ----
        let mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41) + 0.5 * temp1 * self.x1mth2 * cos2u;
        let su = su - 0.25 * temp2 * self.x7thm1 * sin2u;
        let xnode = nodep + 1.5 * temp2 * cosip * sin2u;
        let xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u;
        let mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / XKE;
        let rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u + 1.5 * self.con41) / XKE;

        // ---- Orientation vectors and final state. ----
        let sinsu = su.sin();
        let cossu = su.cos();
        let snod = xnode.sin();
        let cnod = xnode.cos();
        let sini = xinc.sin();
        let cosi = xinc.cos();
        let xmx = -snod * cosi;
        let xmy = cnod * cosi;
        let ux = xmx * sinsu + cnod * cossu;
        let uy = xmy * sinsu + snod * cossu;
        let uz = sini * sinsu;
        let vx = xmx * cossu - cnod * sinsu;
        let vy = xmy * cossu - snod * sinsu;
        let vz = sini * cossu;

        if mrt < 1.0 {
            return Err(OrbitError::Decayed { tsince_min: t });
        }

        let vkmpersec = EARTH_RADIUS_KM * XKE / 60.0;
        let position_km = Vec3::new(ux, uy, uz) * (mrt * EARTH_RADIUS_KM);
        let velocity_km_s =
            (Vec3::new(ux, uy, uz) * mvt + Vec3::new(vx, vy, vz) * rvdot) * vkmpersec;

        Ok(StateTeme {
            position_km,
            velocity_km_s,
            tsince_min: t,
        })
    }

    /// Propagate to an absolute instant.
    pub fn propagate_at(&self, when: JulianDate) -> Result<StateTeme, OrbitError> {
        self.propagate(when.minutes_since(self.epoch))
    }

    /// [`Self::propagate_uncounted`] at [`LANES`] offsets at once, bit
    /// for bit per lane, through the widest kernel the CPU supports.
    pub(crate) fn propagate_lanes(&self, t: &Lanes, kepler: &mut KeplerTally) -> TemeLanes {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: guarded by the runtime AVX2/FMA detection above.
                return unsafe { propagate_lanes_avx2(self, t, kepler) };
            }
        }
        propagate_lanes_body(self, t, kepler)
    }
}

/// Offsets per [`Sgp4::propagate_lanes`] call.
pub(crate) const LANES: usize = 8;

/// One `f64` per lane.
pub(crate) type Lanes = [f64; LANES];

/// The TEME states of one [`Sgp4::propagate_lanes`] batch, one lane
/// per offset. A lane whose propagation failed has `ok == false` and
/// unspecified components.
pub(crate) struct TemeLanes {
    /// Position x, y, z, km.
    pub(crate) position_km: [Lanes; 3],
    /// Velocity x, y, z, km/s.
    pub(crate) velocity_km_s: [Lanes; 3],
    /// Whether the lane's propagation succeeded.
    pub(crate) ok: [bool; LANES],
}

/// `f(i)` for every lane. A fixed trip count over plain arrays, so
/// arithmetic-only closures compile to straight-line SIMD.
#[inline(always)]
fn lanes(mut f: impl FnMut(usize) -> f64) -> Lanes {
    let mut out = [0.0; LANES];
    for (i, o) in out.iter_mut().enumerate() {
        *o = f(i);
    }
    out
}

/// [`crate::rem_tau`] on every lane, bit for bit: the fast path on all
/// lanes, then the same `%` fallback for lanes beyond its bound (or
/// NaN). Of `rem_tau`'s two corrections only "quotient one too large"
/// can fire — `|x| ≥ n·τ` for the true quotient `n`, and rounding is
/// monotone, so `|x|/τ` never rounds below `n` — and here it is a
/// select that leaves a right quotient unchanged.
#[inline(always)]
fn rem_tau_lanes(x: &Lanes) -> Lanes {
    let mut out = lanes(|i| {
        let a = x[i].abs();
        let n = (a / TAU) as i64 as f64;
        let r = (-n).mul_add(TAU, a);
        let n = if r < 0.0 { n - 1.0 } else { n };
        (-n).mul_add(TAU, a).copysign(x[i])
    });
    for (o, &xi) in out.iter_mut().zip(x) {
        if xi.abs() >= crate::REM_TAU_FAST_LIMIT || xi.is_nan() {
            *o = rem_tau_fallback(xi);
        }
    }
    out
}

/// `rem_tau`'s `%` fallback, kept out of line: inline, the vectoriser
/// would if-convert the fallback loop and run `fmod` on every lane.
#[cold]
#[inline(never)]
fn rem_tau_fallback(x: f64) -> f64 {
    x % TAU
}

/// The lane kernel: [`Sgp4::propagate_uncounted`] restated lane-wise.
/// Every arithmetic expression is the scalar one, in the same order,
/// run over fixed arrays so it vectorises; every transcendental (`sin`,
/// `cos`, `powf`, `atan2`) stays one libm call per lane, and the Kepler
/// loop runs per lane. Rust never contracts `a * b + c` into an FMA, so
/// each lane rounds exactly as the scalar code does under any target
/// features. A lane that fails the eccentricity check never reaches
/// the Kepler loop and is not tallied, as in the scalar code.
#[inline(always)]
fn propagate_lanes_body(s: &Sgp4, t: &Lanes, kepler: &mut KeplerTally) -> TemeLanes {
    if s.no_unkozai <= 0.0 {
        return TemeLanes {
            position_km: [[f64::NAN; LANES]; 3],
            velocity_km_s: [[f64::NAN; LANES]; 3],
            ok: [false; LANES],
        };
    }

    // ---- Secular gravity and atmospheric drag. ----
    let xmdf = lanes(|i| s.mo + s.mdot * t[i]);
    let argpdf = lanes(|i| s.argpo + s.argpdot * t[i]);
    let nodedf = lanes(|i| s.nodeo + s.nodedot * t[i]);
    let mut argpm = argpdf;
    let mut mm = xmdf;
    let t2 = lanes(|i| t[i] * t[i]);
    let nodem = lanes(|i| nodedf[i] + s.nodecf * t2[i]);
    let mut tempa = lanes(|i| 1.0 - s.cc1 * t[i]);
    let mut tempe = lanes(|i| s.bstar * s.cc4 * t[i]);
    let mut templ = lanes(|i| s.t2cof * t2[i]);

    if !s.isimp {
        let cos_xmdf = lanes(|i| xmdf[i].cos());
        for i in 0..LANES {
            let delomg = s.omgcof * t[i];
            let delmtemp = 1.0 + s.eta * cos_xmdf[i];
            let delm = s.xmcof * (delmtemp.powi(3) - s.delmo);
            let temp = delomg + delm;
            mm[i] = xmdf[i] + temp;
            argpm[i] = argpdf[i] - temp;
            let t3 = t2[i] * t[i];
            let t4 = t3 * t[i];
            tempa[i] = tempa[i] - s.d2 * t2[i] - s.d3 * t3 - s.d4 * t4;
            templ[i] = templ[i] + s.t3cof * t3 + t4 * (s.t4cof + t[i] * s.t5cof);
        }
        let sin_mm = lanes(|i| mm[i].sin());
        for i in 0..LANES {
            tempe[i] += s.bstar * s.cc5 * (sin_mm[i] - s.sinmao);
        }
    }

    let am = lanes(|i| s.ao * tempa[i] * tempa[i]);
    let am_pow = lanes(|i| am[i].powf(1.5));
    let nm = lanes(|i| XKE / am_pow[i]);
    let em = lanes(|i| s.ecco - tempe[i]);
    let reached_kepler: [bool; LANES] = core::array::from_fn(|i| !(em[i] >= 1.0 || em[i] < -0.001));
    let em = lanes(|i| if em[i] < 1.0e-6 { 1.0e-6 } else { em[i] });
    let mm = lanes(|i| mm[i] + s.no_unkozai * templ[i]);
    let xlm = lanes(|i| mm[i] + argpm[i] + nodem[i]);

    let nodem = rem_tau_lanes(&nodem);
    let argpm = rem_tau_lanes(&argpm);
    let xlm = rem_tau_lanes(&xlm);
    let mm = rem_tau_lanes(&lanes(|i| xlm[i] - argpm[i] - nodem[i]));

    // ---- Long-period periodics (`xincp == inclo`, see `sinio`). ----
    let (ep, argpp, nodep, mp) = (em, argpm, nodem, mm);
    let cos_argpp = lanes(|i| argpp[i].cos());
    let sin_argpp = lanes(|i| argpp[i].sin());
    let axnl = lanes(|i| ep[i] * cos_argpp[i]);
    let temp = lanes(|i| 1.0 / (am[i] * (1.0 - ep[i] * ep[i])));
    let aynl = lanes(|i| ep[i] * sin_argpp[i] + temp[i] * s.aycof);
    let xl = lanes(|i| mp[i] + argpp[i] + nodep[i] + temp[i] * s.xlcof * axnl[i]);

    // ---- Kepler's equation, per lane. ----
    let u = rem_tau_lanes(&lanes(|i| xl[i] - nodep[i]));
    let mut sineo1 = [0.0; LANES];
    let mut coseo1 = [0.0; LANES];
    for i in 0..LANES {
        if !reached_kepler[i] {
            continue;
        }
        let (axnl, aynl, u) = (axnl[i], aynl[i], u[i]);
        let mut eo1 = u;
        let mut tem5: f64 = 9999.9;
        let mut ktr: usize = 1;
        while tem5.abs() >= 1.0e-12 && ktr <= 10 {
            sineo1[i] = eo1.sin();
            coseo1[i] = eo1.cos();
            tem5 = 1.0 - coseo1[i] * axnl - sineo1[i] * aynl;
            tem5 = (u - aynl * coseo1[i] + axnl * sineo1[i] - eo1) / tem5;
            if tem5.abs() >= 0.95 {
                tem5 = 0.95 * tem5.signum();
            }
            eo1 += tem5;
            ktr += 1;
        }
        kepler.0[ktr - 1] += 1;
    }

    // ---- Short-period preliminary quantities. ----
    let ecose = lanes(|i| axnl[i] * coseo1[i] + aynl[i] * sineo1[i]);
    let esine = lanes(|i| axnl[i] * sineo1[i] - aynl[i] * coseo1[i]);
    let el2 = lanes(|i| axnl[i] * axnl[i] + aynl[i] * aynl[i]);
    let pl = lanes(|i| am[i] * (1.0 - el2[i]));

    let rl = lanes(|i| am[i] * (1.0 - ecose[i]));
    let rdotl = lanes(|i| am[i].sqrt() * esine[i] / rl[i]);
    let rvdotl = lanes(|i| pl[i].sqrt() / rl[i]);
    let betal = lanes(|i| (1.0 - el2[i]).sqrt());
    let temp = lanes(|i| esine[i] / (1.0 + betal[i]));
    let sinu = lanes(|i| am[i] / rl[i] * (sineo1[i] - aynl[i] - axnl[i] * temp[i]));
    let cosu = lanes(|i| am[i] / rl[i] * (coseo1[i] - axnl[i] + aynl[i] * temp[i]));
    let su = lanes(|i| sinu[i].atan2(cosu[i]));
    let sin2u = lanes(|i| (cosu[i] + cosu[i]) * sinu[i]);
    let cos2u = lanes(|i| 1.0 - 2.0 * sinu[i] * sinu[i]);
    let temp = lanes(|i| 1.0 / pl[i]);
    let temp1 = lanes(|i| 0.5 * J2 * temp[i]);
    let temp2 = lanes(|i| temp1[i] * temp[i]);

    // ---- Short-period periodics. ----
    let mrt = lanes(|i| {
        rl[i] * (1.0 - 1.5 * temp2[i] * betal[i] * s.con41) + 0.5 * temp1[i] * s.x1mth2 * cos2u[i]
    });
    let su = lanes(|i| su[i] - 0.25 * temp2[i] * s.x7thm1 * sin2u[i]);
    let xnode = lanes(|i| nodep[i] + 1.5 * temp2[i] * s.cosio * sin2u[i]);
    let xinc = lanes(|i| s.inclo + 1.5 * temp2[i] * s.cosio * s.sinio * cos2u[i]);
    let mvt = lanes(|i| rdotl[i] - nm[i] * temp1[i] * s.x1mth2 * sin2u[i] / XKE);
    let rvdot =
        lanes(|i| rvdotl[i] + nm[i] * temp1[i] * (s.x1mth2 * cos2u[i] + 1.5 * s.con41) / XKE);

    // ---- Orientation vectors and final state. ----
    let sinsu = lanes(|i| su[i].sin());
    let cossu = lanes(|i| su[i].cos());
    let snod = lanes(|i| xnode[i].sin());
    let cnod = lanes(|i| xnode[i].cos());
    let sini = lanes(|i| xinc[i].sin());
    let cosi = lanes(|i| xinc[i].cos());
    let xmx = lanes(|i| -snod[i] * cosi[i]);
    let xmy = lanes(|i| cnod[i] * cosi[i]);
    let ux = lanes(|i| xmx[i] * sinsu[i] + cnod[i] * cossu[i]);
    let uy = lanes(|i| xmy[i] * sinsu[i] + snod[i] * cossu[i]);
    let uz = lanes(|i| sini[i] * sinsu[i]);
    let vx = lanes(|i| xmx[i] * cossu[i] - cnod[i] * sinsu[i]);
    let vy = lanes(|i| xmy[i] * cossu[i] - snod[i] * sinsu[i]);
    let vz = lanes(|i| sini[i] * cossu[i]);

    let vkmpersec = EARTH_RADIUS_KM * XKE / 60.0;
    let scale = lanes(|i| mrt[i] * EARTH_RADIUS_KM);
    TemeLanes {
        position_km: [
            lanes(|i| ux[i] * scale[i]),
            lanes(|i| uy[i] * scale[i]),
            lanes(|i| uz[i] * scale[i]),
        ],
        velocity_km_s: [
            lanes(|i| (ux[i] * mvt[i] + vx[i] * rvdot[i]) * vkmpersec),
            lanes(|i| (uy[i] * mvt[i] + vy[i] * rvdot[i]) * vkmpersec),
            lanes(|i| (uz[i] * mvt[i] + vz[i] * rvdot[i]) * vkmpersec),
        ],
        // The scalar code's three failure exits.
        ok: core::array::from_fn(|i| reached_kepler[i] && !(pl[i] < 0.0 || mrt[i] < 1.0)),
    }
}

/// [`propagate_lanes_body`] compiled with AVX2 and FMA enabled: wider
/// registers for the lane arithmetic and an inline `mul_add` in the
/// angle wraps. `mul_add` rounds once with or without hardware FMA, and
/// nothing else is contracted, so every lane's bits are unchanged.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn propagate_lanes_avx2(s: &Sgp4, t: &Lanes, kepler: &mut KeplerTally) -> TemeLanes {
    propagate_lanes_body(s, t, kepler)
}

#[cfg(test)]
#[allow(clippy::inconsistent_digit_grouping)] // Reference vectors keep their published digits.
mod tests {
    use super::*;
    use crate::tle::Tle;

    const L1: &str = "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    87";
    const L2: &str = "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  1058";

    fn classic() -> Sgp4 {
        Sgp4::new(&Tle::parse_lines(L1, L2).unwrap()).unwrap()
    }

    /// Reference ephemeris from Spacetrack Report #3 (WGS-72).
    /// Position tolerance of 50 m comfortably distinguishes a correct
    /// implementation (agrees to metres) from a broken one (off by km).
    #[test]
    fn spacetrack_report_3_test_case() {
        let cases: &[(f64, [f64; 3], [f64; 3])] = &[
            (
                0.0,
                [2328.970_489_51, -5995.220_764_16, 1719.970_672_61],
                [2.912_072_30, -0.983_415_46, -7.090_817_03],
            ),
            (
                360.0,
                [2456.107_055_66, -6071.938_537_60, 1222.897_277_83],
                [2.679_389_92, -0.448_290_41, -7.228_792_31],
            ),
            (
                720.0,
                [2567.561_950_68, -6112.503_845_22, 713.963_974_00],
                [2.440_245_99, 0.098_108_69, -7.319_959_16],
            ),
            (
                1080.0,
                [2663.090_789_80, -6115.482_299_80, 196.398_757_94],
                [2.196_119_58, 0.652_419_95, -7.362_824_32],
            ),
            (
                1440.0,
                [2742.551_330_57, -6079.671_447_75, -326.380_958_56],
                [1.948_502_29, 1.211_062_51, -7.356_193_72],
            ),
        ];
        let sgp4 = classic();
        for (t, r_ref, v_ref) in cases {
            let s = sgp4.propagate(*t).unwrap();
            let dr = (s.position_km - Vec3::new(r_ref[0], r_ref[1], r_ref[2])).norm();
            let dv = (s.velocity_km_s - Vec3::new(v_ref[0], v_ref[1], v_ref[2])).norm();
            assert!(dr < 0.05, "t={t}: position off by {dr} km");
            assert!(dv < 5e-4, "t={t}: velocity off by {dv} km/s");
        }
    }

    #[test]
    fn rejects_deep_space_elements() {
        // A 12-hour Molniya-type orbit (period 720 min ≥ 225 min).
        let no_kozai = TAU / 720.0;
        let err = Sgp4::from_elements(
            no_kozai,
            0.7,
            63.4_f64.to_radians(),
            0.0,
            270.0_f64.to_radians(),
            0.0,
            0.0,
            JulianDate::from_calendar(2024, 1, 1, 0, 0, 0.0),
        )
        .unwrap_err();
        match err {
            OrbitError::DeepSpaceUnsupported { period_min } => {
                assert!((period_min - 720.0).abs() < 1.0);
            }
            other => panic!("expected DeepSpaceUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_eccentricity() {
        let err = Sgp4::from_elements(
            0.06,
            1.5,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            JulianDate::from_calendar(2024, 1, 1, 0, 0, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, OrbitError::EccentricityOutOfRange { .. }));
    }

    #[test]
    fn radius_stays_in_leo_band() {
        let sgp4 = classic();
        // Perigee ≈ 6640 km, apogee ≈ 6750 km for this element set; allow
        // generous drag drift over a day.
        for i in 0..1440 {
            let s = sgp4.propagate(i as f64).unwrap();
            let r = s.position_km.norm();
            assert!((6500.0..6900.0).contains(&r), "t={i}: r={r}");
        }
    }

    #[test]
    fn velocity_matches_vis_viva() {
        // v² ≈ μ(2/r − 1/a) to within the J2 perturbation scale.
        let sgp4 = classic();
        let a = (XKE / sgp4.no_unkozai).powf(X2O3) * EARTH_RADIUS_KM;
        for t in [0.0, 45.0, 200.0, 777.5] {
            let s = sgp4.propagate(t).unwrap();
            let r = s.position_km.norm();
            let v2 = s.velocity_km_s.norm_sq();
            let vis_viva = MU_KM3_S2 * (2.0 / r - 1.0 / a);
            let rel = (v2 - vis_viva).abs() / vis_viva;
            assert!(rel < 5e-3, "t={t}: rel error {rel}");
        }
    }

    #[test]
    fn angular_momentum_direction_is_stable_over_one_orbit() {
        let sgp4 = classic();
        let s0 = sgp4.propagate(0.0).unwrap();
        let h0 = s0.position_km.cross(s0.velocity_km_s).normalized().unwrap();
        let period = sgp4.period_min();
        for k in 1..=8 {
            let s = sgp4.propagate(period * k as f64 / 8.0).unwrap();
            let h = s.position_km.cross(s.velocity_km_s).normalized().unwrap();
            // J2 precesses the node slowly; within one orbit drift is tiny.
            assert!(h.dot(h0) > 0.999, "k={k}: h·h0 = {}", h.dot(h0));
        }
    }

    #[test]
    fn propagate_at_uses_epoch() {
        let sgp4 = classic();
        let s0 = sgp4.propagate(0.0).unwrap();
        let s1 = sgp4.propagate_at(sgp4.epoch).unwrap();
        assert!((s0.position_km - s1.position_km).norm() < 1e-9);
        let s2 = sgp4.propagate_at(sgp4.epoch.plus_minutes(90.0)).unwrap();
        let s3 = sgp4.propagate(90.0).unwrap();
        assert!((s2.position_km - s3.position_km).norm() < 1e-9);
    }

    #[test]
    fn period_matches_mean_motion() {
        let sgp4 = classic();
        // 16.058 rev/day → ~89.7 min period.
        assert!((sgp4.period_min() - 1440.0 / 16.058_245_18).abs() < 0.1);
    }

    #[test]
    fn low_perigee_triggers_simple_mode() {
        // Circular orbit at ~180 km: rp < 220 km ⇒ isimp.
        let n = mean_motion_for_altitude(180.0);
        let sgp4 = Sgp4::from_elements(
            n,
            0.0001,
            51.6_f64.to_radians(),
            0.0,
            0.0,
            0.0,
            1e-4,
            JulianDate::from_calendar(2024, 1, 1, 0, 0, 0.0),
        )
        .unwrap();
        assert!(sgp4.isimp);
        // Still propagates sanely for a few orbits.
        let s = sgp4.propagate(180.0).unwrap();
        assert!(s.position_km.norm() > 6400.0);
    }

    /// Kozai-ish mean motion (rad/min) for a circular orbit at `alt` km.
    fn mean_motion_for_altitude(alt: f64) -> f64 {
        let a = EARTH_RADIUS_KM + alt;
        (MU_KM3_S2 / (a * a * a)).sqrt() * 60.0
    }

    #[test]
    fn backwards_propagation_works() {
        let sgp4 = classic();
        let s = sgp4.propagate(-120.0).unwrap();
        assert!(s.position_km.norm() > 6400.0);
        assert_eq!(s.tsince_min, -120.0);
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use crate::tle::Tle;

    type Body = fn(&Sgp4, &Lanes, &mut KeplerTally) -> TemeLanes;

    /// Every lane-kernel body this CPU can run, called directly.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = vec![("portable", propagate_lanes_body)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: guarded by the runtime AVX2/FMA detection above.
            bodies.push(("avx2", |s, t, k| unsafe { propagate_lanes_avx2(s, t, k) }));
        }
        bodies
    }

    /// Run `t` through every body and through scalar
    /// `propagate_uncounted` lane by lane: Ok lanes must match bit for
    /// bit, failed lanes must fail, and the Kepler tallies must agree.
    /// Returns the scalar outcomes.
    fn check(name: &str, sgp4: &Sgp4, t: &Lanes) -> Vec<Result<StateTeme, OrbitError>> {
        let mut want_tally = KeplerTally::default();
        let want: Vec<_> = t
            .iter()
            .map(|&t| sgp4.propagate_uncounted(t, &mut want_tally))
            .collect();
        for (body, run) in bodies() {
            let mut tally = KeplerTally::default();
            let got = run(sgp4, t, &mut tally);
            assert_eq!(tally.0, want_tally.0, "{name}/{body}: Kepler tally");
            for (i, want) in want.iter().enumerate() {
                let Ok(state) = want else {
                    assert!(!got.ok[i], "{name}/{body}: lane {i} should fail");
                    continue;
                };
                assert!(got.ok[i], "{name}/{body}: lane {i} should succeed");
                let lane = |v: &[Lanes; 3]| [v[0][i], v[1][i], v[2][i]].map(f64::to_bits);
                let bits = |v: Vec3| [v.x, v.y, v.z].map(f64::to_bits);
                assert_eq!(
                    (lane(&got.position_km), lane(&got.velocity_km_s)),
                    (bits(state.position_km), bits(state.velocity_km_s)),
                    "{name}/{body}: lane {i} at t = {}",
                    t[i]
                );
            }
        }
        want
    }

    fn circular(alt_km: f64, ecco: f64, bstar: f64) -> Sgp4 {
        let a = EARTH_RADIUS_KM + alt_km;
        let n = (MU_KM3_S2 / (a * a * a)).sqrt() * 60.0;
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        Sgp4::from_elements(n, ecco, 0.9, 0.3, 0.2, 0.1, bstar, epoch).unwrap()
    }

    /// Eight consecutive offsets from `t0`, `dt` apart.
    fn run(t0: f64, dt: f64) -> Lanes {
        core::array::from_fn(|i| t0 + i as f64 * dt)
    }

    #[test]
    fn drag_and_isimp_lanes_equal_scalar_bit_for_bit() {
        // Perigee above 220 km: the full drag polynomials.
        let drag = circular(550.0, 0.01, 2e-4);
        // The Spacetrack #3 orbit (perigee ≈ 200 km) and a circular one
        // at 180 km take the simplified-drag (`isimp`) branch.
        let classic = Sgp4::new(
            &Tle::parse_lines(
                "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    87",
                "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  1058",
            )
            .unwrap(),
        )
        .unwrap();
        let simple = circular(180.0, 0.0001, 1e-4);
        assert!(!drag.isimp && classic.isimp && simple.isimp);
        for (name, sgp4) in [("drag", &drag), ("classic", &classic), ("isimp", &simple)] {
            for t0 in [-1_440.0, -0.5, 0.0, 97.3, 1_440.0, 10_080.0] {
                for dt in [0.25, 1.0, 7.0] {
                    let outcomes = check(name, sgp4, &run(t0, dt));
                    assert!(outcomes.iter().all(Result::is_ok), "{name} at {t0}");
                }
            }
            check(
                name,
                sgp4,
                &[0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 45.0, -45.0],
            );
        }
    }

    #[test]
    fn failed_lanes_mix_with_ok_lanes_and_stay_out_of_the_tally() {
        use OrbitError::{Decayed, EccentricityOutOfRange};
        // Heavy drag: fine at first, then alternately decayed and out of
        // eccentricity range (see the scalar outcomes below).
        let decaying = circular(300.0, 0.001, 0.05);
        let kind = |r: &Result<StateTeme, OrbitError>| match r {
            Ok(_) => 0,
            Err(Decayed { .. }) => 1,
            Err(EccentricityOutOfRange { .. }) => 2,
            Err(e) => panic!("unexpected {e:?}"),
        };
        let mut seen = [[false; 3]; 3];
        let mut t0 = 0.0;
        while t0 < 3_200.0 {
            let outcomes = check("decaying", &decaying, &run(t0, 1.0));
            let mut in_batch = [false; 3];
            for r in &outcomes {
                in_batch[kind(r)] = true;
            }
            for a in 0..3 {
                for b in 0..3 {
                    seen[a][b] |= in_batch[a] && in_batch[b];
                }
            }
            t0 += 8.0;
        }
        assert!(seen[0][1], "no batch mixed Ok and Decayed lanes");
        assert!(seen[1][2], "no batch mixed Decayed and out-of-range lanes");
        // One batch with all three outcomes: out-of-range lanes must not
        // count toward the tally while the others do (`check` compares
        // the tallies).
        let mixed = [0.0, 2_796.0, 10.0, 2_824.0, 2_797.0, 20.0, 2_825.0, 30.0];
        let outcomes = check("mixed", &decaying, &mixed);
        assert_eq!(
            outcomes.iter().map(kind).collect::<Vec<_>>(),
            [0, 2, 0, 1, 2, 0, 1, 0]
        );
        let mut tally = KeplerTally::default();
        propagate_lanes_body(&decaying, &mixed, &mut tally);
        assert_eq!(tally.0.iter().sum::<u64>(), 6);
    }

    #[test]
    fn angles_beyond_the_fast_wrap_range_take_the_fallback_bit_for_bit() {
        // Drag-free, so propagation stays valid at any offset; from
        // ~1e14 minutes on, the mean anomaly passes 2⁴⁰·τ.
        let sgp4 = circular(550.0, 0.001, 0.0);
        let huge = crate::REM_TAU_FAST_LIMIT / sgp4.mdot;
        let t = [
            0.0,
            huge * 0.999_999,
            huge,
            huge * 1.000_001,
            -huge * 2.0,
            huge * 1e3,
            3.0,
            -huge,
        ];
        assert!(t
            .iter()
            .any(|t| (sgp4.mo + sgp4.mdot * t).abs() >= crate::REM_TAU_FAST_LIMIT));
        let outcomes = check("huge", &sgp4, &t);
        assert!(outcomes.iter().all(Result::is_ok));
    }

    #[test]
    fn lane_angle_wraps_equal_fmod_bit_for_bit() {
        /// # Safety
        ///
        /// The CPU must support AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn rem_tau_lanes_avx2(x: &Lanes) -> Lanes {
            rem_tau_lanes(x)
        }
        type Wrap = fn(&Lanes) -> Lanes;
        let mut wraps: Vec<(&str, Wrap)> = vec![("portable", |x| rem_tau_lanes(x))];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: guarded by the runtime AVX2/FMA detection above.
            wraps.push(("avx2", |x| unsafe { rem_tau_lanes_avx2(x) }));
        }
        let limit = crate::REM_TAU_FAST_LIMIT;
        let mut xs = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            TAU,
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
            1e300,
            limit,
            limit * (1.0 - f64::EPSILON),
            limit * 1.5,
        ];
        // Near k·τ the quotient rounds up across an integer, so the
        // correction fires.
        for k in 0..100_000_u64 {
            let bits = (k as f64 * TAU).to_bits();
            xs.extend((-2..=2).map(|d| f64::from_bits(bits.saturating_add_signed(d))));
        }
        let xs: Vec<f64> = xs.iter().flat_map(|&x| [x, -x]).collect();
        for chunk in xs.chunks(LANES) {
            let mut x = [0.0; LANES];
            x[..chunk.len()].copy_from_slice(chunk);
            for (body, wrap) in &wraps {
                let got = wrap(&x);
                for (g, x) in got.iter().zip(x) {
                    assert_eq!(g.to_bits(), (x % TAU).to_bits(), "{body}: x = {x:e}");
                }
            }
        }
    }

    #[test]
    fn histogram_totals_equal_per_sample_records() {
        // A batch recorded once adds to each Kepler-iteration bucket
        // what one record per sample would.
        let sgp4 = circular(550.0, 0.01, 1e-4);
        let mut batch = KeplerTally::default();
        let mut single = KeplerTally::default();
        let mut samples = 0;
        for k in 0..64 {
            let t = run(k as f64 * 13.0, 1.5);
            sgp4.propagate_lanes(&t, &mut batch);
            for &t in &t {
                let mut one = KeplerTally::default();
                sgp4.propagate_uncounted(t, &mut one).unwrap();
                assert_eq!(one.0.iter().sum::<u64>(), 1);
                for (s, o) in single.0.iter_mut().zip(one.0) {
                    *s += o;
                }
                samples += 1;
            }
        }
        assert_eq!(batch.0, single.0);
        assert_eq!(batch.0.iter().sum::<u64>(), samples);
    }
}

#[cfg(test)]
#[allow(clippy::inconsistent_digit_grouping)]
mod eccentric_tests {
    use super::*;
    use crate::tle::Tle;

    /// Vallado's distribution test case #00005 (the 1958-002B object):
    /// a *highly eccentric* near-earth orbit (e = 0.186) that exercises
    /// the long-period and Kepler-solver paths our near-circular
    /// constellation tests barely touch. Reference states from the
    /// "Revisiting Spacetrack Report #3" verification output; the
    /// tolerance is loose enough to absorb last-digit transcription
    /// drift while still catching any real algorithmic error (which
    /// shows up as tens of km on this orbit).
    #[test]
    fn vallado_case_00005_eccentric_orbit() {
        let l1 = "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
        let l2 = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";
        let tle = Tle::parse_lines(l1, l2).expect("distribution TLE parses");
        assert!((tle.eccentricity - 0.185_966_7).abs() < 1e-9);
        let sgp4 = Sgp4::new(&tle).expect("near-earth (period ≈ 133 min)");
        assert!((sgp4.period_min() - 1_440.0 / 10.824_191_57).abs() < 0.5);

        let s0 = sgp4.propagate(0.0).unwrap();
        let r0_ref = Vec3::new(7_022.465_292_66, -1_400.082_967_55, 0.039_951_55);
        let v0_ref = Vec3::new(1.893_841_015, 6.405_893_759, 4.534_807_250);
        assert!(
            (s0.position_km - r0_ref).norm() < 1.0,
            "t=0 position off by {} km",
            (s0.position_km - r0_ref).norm()
        );
        assert!((s0.velocity_km_s - v0_ref).norm() < 1e-2);

        let s360 = sgp4.propagate(360.0).unwrap();
        let r360_ref = Vec3::new(-7_154.031_202_02, -3_783.176_825_04, -3_536.194_122_94);
        assert!(
            (s360.position_km - r360_ref).norm() < 2.0,
            "t=360 position off by {} km",
            (s360.position_km - r360_ref).norm()
        );

        // Physical invariants across a full day of the eccentric orbit:
        // radius swings between perigee and apogee, and vis-viva holds.
        let a = (XKE / tle.mean_motion_rad_min).powf(2.0 / 3.0) * EARTH_RADIUS_KM;
        let mut r_min = f64::MAX;
        let mut r_max = 0.0_f64;
        for t in 0..1_440 {
            let s = sgp4.propagate(t as f64).unwrap();
            let r = s.position_km.norm();
            r_min = r_min.min(r);
            r_max = r_max.max(r);
            let vis_viva = MU_KM3_S2 * (2.0 / r - 1.0 / a);
            assert!(
                (s.velocity_km_s.norm_sq() - vis_viva).abs() / vis_viva < 0.02,
                "vis-viva violated at t={t}"
            );
        }
        // e = 0.186: apogee/perigee ratio ≈ (1+e)/(1−e) ≈ 1.46.
        assert!(
            (r_max / r_min - 1.456).abs() < 0.03,
            "ratio {}",
            r_max / r_min
        );
    }
}
