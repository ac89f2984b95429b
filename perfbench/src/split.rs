//! The traced run's split of a passive campaign into its layers.
//!
//! `PassiveCampaign::run` predicts and simulates in one call. The traced
//! run first calls the prediction layers itself, in campaign order and
//! with the campaign's own cache keys, each phase in its own span:
//!
//! 1. `orbit.ephemeris.build`: `sweep::grid_for` + `EphemerisGrid::build`
//!    for every satellite window a pair needs after the latitude-band
//!    test;
//! 2. `orbit.cull`: `sweep::predictor_with_mode` for every pair;
//! 3. `orbit.pass.predict`: `PassPredictor::passes` through
//!    `sweep::passes_for` for every pair.
//!
//! As in the campaign, a pair whose pass list is already cached is
//! skipped: a sweep job that reads cached predictions primes nothing.
//!
//! The campaign call that follows finds every grid and pass list cached,
//! so its span holds simulate + merge only; [`served_from_cache`] proves
//! it. Between steps 2 and 3 a probe span (`probe.visibility`) runs the
//! coarse visibility sweep alone on every kept pair step 3 will
//! predict, so step 3 can be split into sweep and refinement. Another
//! (`probe.resolve`) builds the propagators the split needs. Probes
//! repeat work the campaign does once, so they are excluded from the
//! traced wall.

use crate::trace::{Counters, TraceCtx};
use satiot_core::calib::THEORETICAL_MASK_RAD;
use satiot_core::passive::PassiveConfig;
use satiot_core::sweep::{self, GridKey, PassKey};
use satiot_core::RunOptions;
use satiot_orbit::cull::{self, CullingMode};
use satiot_orbit::ephemeris::{EphemerisGrid, EphemerisMode};
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_orbit::visibility;
use satiot_scenarios::sites::{campaign_epoch, Site};
use satiot_sim::pool;
use std::collections::HashSet;

/// One catalog satellite with its propagator, flattened across
/// constellations in configuration order, as the campaign does.
#[derive(Debug, Clone)]
pub struct Sat {
    pub constellation: &'static str,
    pub sat_id: u32,
    pub sgp4: Sgp4,
}

/// Build every configured satellite's propagator.
pub fn flatten_sats(cfg: &PassiveConfig) -> Result<Vec<Sat>, String> {
    let epoch = campaign_epoch();
    let mut out = Vec::new();
    for spec in &cfg.constellations {
        for sat in spec.catalog(epoch) {
            let sgp4 = sat
                .sgp4()
                .map_err(|e| format!("{}/{}: {e}", sat.constellation, sat.sat_id))?;
            out.push(Sat {
                constellation: sat.constellation,
                sat_id: sat.sat_id,
                sgp4,
            });
        }
    }
    Ok(out)
}

/// A site's simulated window under the campaign's day cap (the
/// campaign's own `site_range`).
pub fn site_window(site: &Site, max_days: f64) -> (JulianDate, JulianDate) {
    let start = site.start();
    (start, start + site.active_days().min(max_days))
}

/// The campaign's pass-cache key for one pair.
pub fn pass_key(site: &Site, sat: &Sat, max_days: f64) -> PassKey {
    let (start, end) = site_window(site, max_days);
    PassKey::new(
        site.code,
        sat.constellation,
        sat.sat_id,
        start,
        end,
        THEORETICAL_MASK_RAD,
    )
}

/// The campaign's grid key for one pair.
pub fn grid_key(site: &Site, sat: &Sat, max_days: f64) -> GridKey {
    let (start, end) = site_window(site, max_days);
    GridKey::new(sat.constellation, sat.sat_id, start, end)
}

/// Run steps 1–3 for `cfg` (see the module docs), warming the caches
/// exactly as the campaign's predict phase would. Like that phase, it
/// skips pairs whose pass list is already cached: those of a (site,
/// window, constellation) group this traced run primed before. The
/// propagators are built in a probe span, since the campaign builds its
/// own; a catalog that fails to build primes nothing and fails in the
/// campaign call.
pub fn prime_passive(cfg: &PassiveConfig, opts: &RunOptions, t: &mut TraceCtx) {
    let Ok(sats) = t.probe("probe.resolve", || flatten_sats(cfg)) else {
        return;
    };
    let sats = &sats[..];
    let threads = opts.threads.unwrap_or_else(pool::thread_count);
    let mask = THEORETICAL_MASK_RAD;
    let pair = |&(si, qi): &(usize, usize)| (&cfg.sites[si], &sats[qi]);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (si, site) in cfg.sites.iter().enumerate() {
        let (start, end) = site_window(site, cfg.max_days);
        let mut fresh: Vec<(&'static str, bool)> = Vec::new();
        for (qi, sat) in sats.iter().enumerate() {
            let c = sat.constellation;
            let is_fresh = match fresh.iter().find(|(label, _)| *label == c) {
                Some(&(_, f)) => f,
                None => {
                    let group = (site.code, start.0.to_bits(), end.0.to_bits(), c);
                    let f = t.primed.insert(group);
                    fresh.push((c, f));
                    f
                }
            };
            if is_fresh {
                pairs.push((si, qi));
            }
        }
    }

    // 1. Grids for every window a pair reaches after the latitude-band
    // test (the cull's only step that needs no grid).
    let before = Counters::read();
    t.tr.span("orbit.ephemeris.build", || {
        if opts.ephemeris == EphemerisMode::Off {
            return;
        }
        let mut seen = HashSet::new();
        let mut builds: Vec<(GridKey, usize)> = Vec::new();
        for p in &pairs {
            let (site, sat) = pair(p);
            let lat_culled = opts.culling == CullingMode::On
                && cull::never_in_latitude_band(
                    site.geodetic(),
                    sat.sgp4.inclination_rad(),
                    sat.sgp4.apogee_radius_km(),
                    mask,
                );
            let key = grid_key(site, sat, cfg.max_days);
            if !lat_culled && seen.insert(key) {
                builds.push((key, p.1));
            }
        }
        pool::parallel_map_with(&builds, threads, |_, &(key, qi)| {
            let (start, end) = key.range();
            sweep::grid_for(key, || EphemerisGrid::build(&sats[qi].sgp4, start, end));
        });
    });
    t.grid_build_sgp4_calls += Counters::read()
        .since(&before)
        .get("orbit.sgp4.propagate_calls");

    // 2. The cull decision (and predictor construction) per pair.
    let preds: Vec<Option<PassPredictor>> = t.tr.span("orbit.cull", || {
        pool::parallel_map_with(&pairs, threads, |_, p| {
            let (site, sat) = pair(p);
            sweep::predictor_with_mode(
                opts.ephemeris,
                opts.visibility,
                opts.culling,
                grid_key(site, sat, cfg.max_days),
                &sat.sgp4,
                site.geodetic(),
                mask,
            )
        })
    });

    // Probe: the coarse sweep alone, on every kept pair.
    t.probe("probe.visibility", || {
        pool::parallel_map_with(&pairs, threads, |i, p| {
            let (site, _) = pair(p);
            let (start, end) = site_window(site, cfg.max_days);
            preds[i].as_ref().and_then(|pred| {
                let grid = pred.ephemeris()?;
                let outcome = visibility::sweep_one(
                    grid,
                    pred.observer(),
                    mask,
                    start,
                    end,
                    pred.visibility(),
                );
                std::hint::black_box(outcome).map(|_| ())
            })
        });
    });

    // 3. Pass lists through the shared cache, from the step-2
    // predictors (so no pair is culled twice).
    t.tr.span("orbit.pass.predict", || {
        pool::parallel_map_with(&pairs, threads, |i, p| {
            let (site, sat) = pair(p);
            sweep::passes_for(pass_key(site, sat, cfg.max_days), || preds[i].clone());
        });
    });
}

/// Run `f` and report whether it added no pass or grid computes to the
/// shared caches: the attribution check of the split.
pub fn served_from_cache<R>(f: impl FnOnce() -> R) -> (R, Result<(), String>) {
    let (p0, g0) = (sweep::stats(), sweep::grid_stats());
    let out = f();
    let (p1, g1) = (sweep::stats(), sweep::grid_stats());
    let (dp, dg) = (p1.computes - p0.computes, g1.computes - g0.computes);
    let check = if dp == 0 && dg == 0 {
        Ok(())
    } else {
        Err(format!(
            "campaign call after the split computed {dp} pass lists and {dg} grids"
        ))
    };
    (out, check)
}
