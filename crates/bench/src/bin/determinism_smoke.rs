//! CI determinism smoke: one in-process run that pins every
//! bit-identity contract of the passive campaign, each mode selected by
//! an explicit `RunOptions` (the environment is not read). Every check
//! below runs under each ephemeris backend (grids, direct SGP4) crossed
//! with each visibility scan (chunked, scalar, legacy adaptive) and each
//! culling mode (on, off):
//!
//! * **Drivers.** A quick multi-site campaign run twice on the sweep
//!   pool and once serially must produce bit-identical traces and pass
//!   records, with every pass list and ephemeris grid computed exactly
//!   once.
//! * **Visibility kernels.** The chunked (auto-vectorised)
//!   horizon-margin sweep must yield campaigns bit-identical to its
//!   scalar twin, with culling on and off.
//! * **Spatial pre-cull.** The culled campaign must be bit-identical to
//!   the unculled one under every visibility scan, with the
//!   `orbit.cull.*` proof counters balancing exactly when the stage is
//!   on and not moving when it is off.
//! * **Bounded-memory sink.** The aggregating mode retains zero traces
//!   (obs-counter-audited) yet sketches identically across drivers, with
//!   quantiles inside the documented error band.
//! * **Scenario file.** The committed `tianqi_hk.scenario.json` loads
//!   back to the compiled-in scenario and drives an identical campaign
//!   under both drivers.
//!
//! The pass cache does not key on the prediction modes, so it is
//! cleared before each mode. Exits non-zero (panics) on any divergence,
//! so the CI step is just
//! `cargo run --release -p satiot-bench --bin determinism_smoke`.

use satiot_core::prelude::*;
use satiot_core::sweep;
use satiot_measure::stats::nearest_rank_sorted;
use satiot_obs::metrics::{self, Counter};
use satiot_orbit::cull;

// Shared-slot view of the sink's retention counter (name-keyed).
static SINK_RETAINED: Counter = Counter::new("measure.sink.traces_retained");

fn config(parallel: bool) -> PassiveConfig {
    // The smoke campaign is itself expressed as a scenario spec — the
    // same typed front door the experiment binaries use — so the
    // determinism gates below also pin the spec→config path.
    let mut spec = ScenarioSpec::paper_passive();
    spec.max_days = Some(1.0);
    spec.sites = ["HK", "GZ", "SH"]
        .iter()
        .map(|code| SiteRef::Named((*code).to_string()))
        .collect();
    let scenario = spec.build().expect("catalog site codes resolve");
    let mut cfg = PassiveConfig::from_scenario(&scenario);
    cfg.parallel = parallel;
    cfg
}

fn assert_identical(label: &str, a: &PassiveResults, b: &PassiveResults) {
    assert_eq!(a.traces.len(), b.traces.len(), "{label}: trace counts");
    assert_eq!(a.passes.len(), b.passes.len(), "{label}: pass counts");
    for (x, y) in a.traces.traces.iter().zip(&b.traces.traces) {
        assert_eq!(x, y, "{label}: trace diverged");
    }
    for (x, y) in a.passes.iter().zip(&b.passes) {
        assert_eq!(
            x.covered_s.to_bits(),
            y.covered_s.to_bits(),
            "{label}: coverage diverged"
        );
        assert_eq!(x.station_up, y.station_up, "{label}: station_up diverged");
        assert_eq!(
            (x.window.received, x.window.transmitted),
            (y.window.received, y.window.transmitted),
            "{label}: window counts diverged"
        );
    }
    println!(
        "{label}: identical ({} traces, {} passes)",
        a.traces.len(),
        a.passes.len()
    );
}

/// Run the smoke campaign pooled twice and serially under `opts`, from
/// a cleared cache and zeroed cull counters. All three runs must agree
/// bit for bit, every pass list and grid must have been computed
/// exactly once, and the cull proof counters must balance exactly
/// (considered == culled + kept) when the stage is on and not move at
/// all when it is off. Returns the first pooled run.
fn pool_pool_serial(label: &str, opts: &RunOptions) -> PassiveResults {
    sweep::clear();
    cull::reset_stats();
    let pooled_a = PassiveCampaign::new(config(true)).run(opts).unwrap();
    let pooled_b = PassiveCampaign::new(config(true)).run(opts).unwrap();
    let serial = PassiveCampaign::new(config(false)).run(opts).unwrap();
    assert_identical(&format!("{label}: pool vs pool"), &pooled_a, &pooled_b);
    assert_identical(&format!("{label}: pool vs serial"), &pooled_a, &serial);

    let cache = sweep::stats();
    println!(
        "{label}: pass cache {} lookups, {} computed, {} served from cache ({} entries)",
        cache.lookups,
        cache.computes,
        cache.hits(),
        cache.entries
    );
    assert_eq!(
        cache.computes, cache.entries as u64,
        "{label}: a pass list was predicted more than once"
    );
    assert!(
        cache.hits() > 0,
        "{label}: repeat runs never hit the cache — keying is broken"
    );
    let grids = sweep::grid_stats();
    println!(
        "{label}: ephemeris grids {} lookups, {} built, {} served shared ({} entries)",
        grids.lookups,
        grids.computes,
        grids.hits(),
        grids.entries
    );
    assert_eq!(
        grids.computes, grids.entries as u64,
        "{label}: an ephemeris grid was sampled more than once"
    );
    if opts.ephemeris != EphemerisMode::Off {
        // HK and GZ start the same campaign day, so their satellites
        // share (satellite, window) grids across sites.
        assert!(
            grids.hits() > 0,
            "{label}: no grid was ever shared across observers — keying is broken"
        );
    }
    let stats = cull::stats();
    println!(
        "{label}: cull {} considered, {} culled, {} kept",
        stats.pairs_considered,
        stats.pairs_culled(),
        stats.pairs_kept
    );
    match opts.culling {
        CullingMode::Off => assert_eq!(
            (
                stats.pairs_considered,
                stats.pairs_culled(),
                stats.pairs_kept
            ),
            (0, 0, 0),
            "{label}: culling off must not touch the proof counters"
        ),
        CullingMode::On => {
            assert!(
                stats.pairs_considered > 0,
                "{label}: cull stage never consulted"
            );
            assert_eq!(
                stats.pairs_considered,
                stats.pairs_culled() + stats.pairs_kept,
                "{label}: cull proof counters do not balance"
            );
        }
    }
    pooled_a
}

/// Bounded-memory mode: the aggregating sink must not perturb the
/// simulation, must retain nothing (obs-counter-audited), and must
/// sketch identically across the serial and pooled drivers — the sketch
/// merge happens per site in configuration order, exactly like the
/// trace merge it replaces. `full` is the pooled full-sink run under
/// the same `opts`.
fn sink_section(label: &str, opts: &RunOptions, full: &PassiveResults) {
    // Audit the bounded runs from a clean counter slate (the full runs
    // legitimately retained everything).
    metrics::set_enabled(true);
    metrics::reset();
    let agg_opts = opts.with_sink(SinkMode::Aggregate);
    let agg_pooled = PassiveCampaign::new(config(true)).run(&agg_opts).unwrap();
    let agg_serial = PassiveCampaign::new(config(false)).run(&agg_opts).unwrap();
    assert!(
        agg_pooled.traces.traces.is_empty(),
        "{label}: aggregate sink retained traces"
    );
    assert_eq!(
        agg_pooled.sink.retained, 0,
        "{label}: SinkStats counted retention"
    );
    assert_eq!(
        SINK_RETAINED.value(),
        0,
        "{label}: obs counter says the bounded mode retained traces"
    );
    metrics::set_enabled(false);
    assert_eq!(
        agg_pooled.sink.emitted,
        full.traces.len() as u64,
        "{label}: aggregate run emitted a different trace count than the full run"
    );
    assert_eq!(
        agg_pooled.sketch, agg_serial.sketch,
        "{label}: serial and pooled aggregate sketches diverged"
    );
    assert_eq!(
        agg_pooled.sketch, full.sketch,
        "{label}: aggregate sketch diverged from the full run's own sketch"
    );
    assert_eq!(agg_pooled.passes.len(), full.passes.len());

    // Spot-check the accuracy contract: sketch quantiles within half a
    // bucket width of the exact nearest-rank statistic.
    let sketch = agg_pooled.sketch.as_ref().expect("aggregate run sketches");
    let g = &sketch.groups[0];
    let mut exact: Vec<f64> = full
        .traces
        .traces
        .iter()
        .filter(|t| t.constellation == g.constellation)
        .map(|t| t.rssi_dbm)
        .collect();
    exact.sort_by(|a, b| a.total_cmp(b));
    let band = g.rssi_dbm.quantiles.width() / 2.0 + 1e-9;
    for p in [10.0, 50.0, 90.0] {
        let est = g.rssi_dbm.quantiles.quantile(p);
        let truth = nearest_rank_sorted(&exact, p);
        assert!(
            (est - truth).abs() <= band,
            "{label}: {}: p{p} sketch {est} vs exact {truth} exceeds band {band}",
            g.constellation
        );
    }
    println!(
        "{label}: aggregate sink 0 retained, {} emitted, sketches identical across drivers",
        agg_pooled.sink.emitted
    );
}

/// The campaign the committed `tianqi_hk.scenario.json` configures must
/// be bit-identical to the compiled-in one under both the pooled and
/// serial drivers.
fn scenario_section(
    label: &str,
    opts: &RunOptions,
    loaded: &ResolvedScenario,
    builtin: &ResolvedScenario,
) {
    let from_file_pooled = PassiveCampaign::new(PassiveConfig::from_scenario(loaded))
        .run(opts)
        .unwrap();
    let from_file_serial = {
        let mut cfg = PassiveConfig::from_scenario(loaded);
        cfg.parallel = false;
        PassiveCampaign::new(cfg).run(opts).unwrap()
    };
    let from_builtin = PassiveCampaign::new(PassiveConfig::from_scenario(builtin))
        .run(opts)
        .unwrap();
    assert_identical(
        &format!("{label}: scenario file vs builtin"),
        &from_file_pooled,
        &from_builtin,
    );
    assert_identical(
        &format!("{label}: scenario file pool vs serial"),
        &from_file_pooled,
        &from_file_serial,
    );
}

/// Every (visibility, culling) pair, run under each ephemeris backend.
const MODES: [(VisibilityMode, CullingMode); 6] = [
    (VisibilityMode::On, CullingMode::On),
    (VisibilityMode::Scalar, CullingMode::On),
    (VisibilityMode::Off, CullingMode::On),
    (VisibilityMode::On, CullingMode::Off),
    (VisibilityMode::Scalar, CullingMode::Off),
    (VisibilityMode::Off, CullingMode::Off),
];

fn main() {
    let opts = RunOptions::default().apply();

    // Scenario-file determinism: the committed `tianqi_hk.scenario.json`
    // must load back to exactly the compiled-in scenario — equal spec,
    // equal fingerprint. This is the contract that lets sweep
    // checkpoints key on scenario fingerprints; the campaigns the two
    // configure are compared under every mode below.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/tianqi_hk.scenario.json"
    );
    let loaded = ScenarioSpec::from_file(path).expect("committed scenario file loads");
    let builtin = ScenarioSpec::tianqi_hk();
    assert_eq!(loaded, builtin, "committed scenario drifted from builtin");
    assert_eq!(
        loaded.fingerprint(),
        builtin.fingerprint(),
        "scenario fingerprints diverged"
    );
    let loaded_scenario = loaded.build().expect("committed scenario resolves");
    let builtin_scenario = builtin.build().expect("builtin scenario resolves");
    assert_eq!(
        loaded_scenario.fingerprint, builtin_scenario.fingerprint,
        "resolved scenario fingerprints diverged"
    );
    println!(
        "scenario file: tianqi_hk fingerprint {:#018x} matches builtin",
        loaded.fingerprint()
    );

    // Drivers, sink and scenario file under every ephemeris backend ×
    // visibility scan × culling mode, then two equivalences across
    // modes per backend:
    //
    // * The chunked sweep and its scalar twin evaluate the same inlined
    //   margin arithmetic per lane, so whole campaigns must match bit
    //   for bit, culled or not. (Without a grid the sweep has no columns
    //   to walk and both run the legacy scan.) The legacy scan refines
    //   from different brackets, so it matches the sweeps only to
    //   refinement tolerance and is compared across drivers alone.
    // * Culling only ever drops (site, sat) pairs that geometry proves
    //   can never clear the horizon, so the culled campaign must match
    //   the unculled one bit for bit under every visibility scan.
    for ephemeris in [EphemerisMode::On, EphemerisMode::Off] {
        let runs: Vec<PassiveResults> = MODES
            .into_iter()
            .map(|(visibility, culling)| {
                let label = format!(
                    "ephemeris {ephemeris:?}, visibility {visibility:?}, culling {culling:?}"
                );
                let mode_opts = opts
                    .with_ephemeris(ephemeris)
                    .with_visibility(visibility)
                    .with_culling(culling);
                let run = pool_pool_serial(&label, &mode_opts);
                sink_section(&label, &mode_opts, &run);
                scenario_section(&label, &mode_opts, &loaded_scenario, &builtin_scenario);
                run
            })
            .collect();
        for (scalar, vector) in [(1, 0), (4, 3)] {
            let (_, culling) = MODES[vector];
            assert_identical(
                &format!(
                    "ephemeris {ephemeris:?}, culling {culling:?}: visibility scalar vs vector"
                ),
                &runs[scalar],
                &runs[vector],
            );
        }
        for (off, on) in [(3, 0), (4, 1), (5, 2)] {
            let (visibility, _) = MODES[on];
            assert_identical(
                &format!("ephemeris {ephemeris:?}, visibility {visibility:?}: culling off vs on"),
                &runs[off],
                &runs[on],
            );
        }
    }

    println!("determinism smoke: OK");
}
