//! Predict-phase benchmark report: cold/warm × direct/ephemeris.
//!
//! Reproduces the campaign predict phase — every observer × every
//! satellite of a constellation over a shared scan window, driven
//! through the sweep pool and the shared pass cache exactly like
//! `PassiveCampaign`/`ActiveCampaign` — under both sampling backends:
//!
//! * **direct** (`SATIOT_EPHEMERIS=0` equivalent): every elevation query
//!   runs SGP4 + GMST + frame rotation.
//! * **ephemeris**: each satellite is propagated once onto a shared
//!   [`EphemerisGrid`]; all observers interpolate.
//!
//! Each backend is measured cold (empty pass cache and grid store) and
//! warm (immediately re-run, everything served from the cache). Work is
//! counted two ways: wall time and the always-on
//! `orbit.sgp4.propagations` proof counter, which cannot be fooled by
//! caching layers.
//!
//! Writes `BENCH_pass_prediction.json` and asserts the headline claim —
//! the ephemeris backend performs at least 3× fewer SGP4 propagations
//! than direct on the cold multi-observer sweep — so CI fails if the
//! optimisation regresses. `--smoke` runs a smaller catalog for CI.
//!
//! A second matrix measures the **simulate** phase: a warm-cache passive
//! sweep (pass lists precomputed, so wall time is the per-beacon
//! geometry and channel work) with the simulate-phase geometry sampled
//! by direct SGP4 (`direct`, ephemeris off) versus interpolated from
//! ephemeris grids (`grid`, ephemeris on), both through the batched
//! channel kernels. Writes `BENCH_simulate.json` and asserts the grid
//! cell is at least 2× faster (1.5× under `--smoke`, where the sweep is
//! too short to amortise).
//!
//! A third matrix measures the **coarse-scan** phase in isolation: the
//! [`VisibilitySweep`] horizon-margin kernel over every satellite's
//! ephemeris grid with all observers in one SoA arena, scalar
//! (`SATIOT_VISIBILITY=scalar`) versus chunked/auto-vectorised lanes,
//! each cold (first sweep) and warm (best of repeats). The two kernels
//! must emit identical sign-change windows; writes
//! `BENCH_visibility.json` and asserts the chunked kernel clears a 2×
//! wall-time floor (1.4× under `--smoke`). The predict matrix above
//! pins `SATIOT_VISIBILITY=0` so both of its backends run the same
//! legacy coarse scan and stay pass-count-comparable.
//!
//! A fourth matrix measures the **spatial pre-cull** stage at
//! mega-constellation scale: a 10×36 Walker shell against 200
//! uniform-on-sphere sites (4×9 × 60 under `--smoke`), predicted with
//! `RunOptions::culling` off versus on. The two legs must agree
//! bit-for-bit on every pass; the `orbit.cull.*` proof counters must
//! show at least 5× fewer pairs surviving to grid interpolation, with a
//! wall-clock floor on the warm sweep. Writes `BENCH_culling.json`.
//!
//! A fifth matrix measures the **sweep server**: the same multi-seed
//! job queue run as sequential cold batches (caches cleared before
//! every job, the one-process-per-job workflow) versus one
//! `SweepServer` pass sharing pass lists and ephemeris grids across
//! jobs. Both legs must produce bit-identical job records and merged
//! sketches; writes `BENCH_sweep.json` and asserts the server clears a
//! 2× throughput floor (1.5× under `--smoke`).

use satiot_core::prelude::*;
use satiot_core::{calib, sweep};
use satiot_orbit::cull;
use satiot_orbit::ephemeris::{EphemerisGrid, EphemerisMode};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::Pass;
use satiot_orbit::sgp4;
use satiot_orbit::time::JulianDate;
use satiot_orbit::topo::Observer;
use satiot_orbit::visibility::{SweepOutcome, VisibilitySweep};
use satiot_scenarios::constellations::{fossa, tianqi, SatelliteDef};
use satiot_scenarios::sites::{tianqi_ground_stations, yunnan_farm};
use satiot_scenarios::walker::WalkerShell;
use satiot_sim::pool;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One measured cell of the cold/warm × direct/ephemeris matrix.
struct Cell {
    backend: &'static str,
    phase: &'static str,
    wall_ms: f64,
    propagations: u64,
    pass_lists: usize,
    passes: usize,
}

/// Run the predict workload once under `opts`' prediction modes: every
/// (observer, satellite) pair through the shared pass cache on the
/// sweep pool, mirroring the campaign predict phases.
fn predict_all(
    opts: &RunOptions,
    observers: &[(&'static str, Geodetic)],
    sats: &[(SatelliteDef, satiot_orbit::sgp4::Sgp4)],
    start: JulianDate,
    end: JulianDate,
    mask_rad: f64,
) -> Vec<Arc<Vec<Pass>>> {
    let tasks: Vec<(usize, usize)> = (0..observers.len())
        .flat_map(|o| (0..sats.len()).map(move |s| (o, s)))
        .collect();
    pool::parallel_map(&tasks, |_, &(o, s)| {
        let (name, site) = observers[o];
        let (sat, sgp4) = &sats[s];
        sweep::passes_for(
            sweep::PassKey::new(name, sat.constellation, sat.sat_id, start, end, mask_rad),
            || {
                sweep::predictor_with_mode(
                    opts.ephemeris,
                    opts.visibility,
                    opts.culling,
                    sweep::GridKey::new(sat.constellation, sat.sat_id, start, end),
                    sgp4,
                    site,
                    mask_rad,
                )
            },
        )
    })
}

fn measure(
    backend: &'static str,
    opts: &RunOptions,
    observers: &[(&'static str, Geodetic)],
    sats: &[(SatelliteDef, satiot_orbit::sgp4::Sgp4)],
    start: JulianDate,
    end: JulianDate,
    mask_rad: f64,
) -> (Cell, Cell) {
    sweep::clear();
    let mut cells = Vec::with_capacity(2);
    for phase in ["cold", "warm"] {
        sgp4::reset_propagations();
        let t0 = Instant::now();
        let lists = predict_all(opts, observers, sats, start, end, mask_rad);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let propagations = sgp4::propagations();
        let passes: usize = lists.iter().map(|l| l.len()).sum();
        println!(
            "{backend:9} {phase:4}: {wall_ms:9.1} ms, {propagations:>9} propagations, \
             {} lists, {passes} passes",
            lists.len(),
        );
        cells.push(Cell {
            backend,
            phase,
            wall_ms,
            propagations,
            pass_lists: lists.len(),
            passes,
        });
    }
    let warm = cells.pop().expect("warm cell");
    let cold = cells.pop().expect("cold cell");
    (cold, warm)
}

/// One measured cell of the simulate matrix: a warm-cache passive sweep,
/// so wall time is dominated by the per-beacon simulate phase.
struct SimCell {
    config: &'static str,
    wall_ms: f64,
    propagations: u64,
    traces: usize,
    passes: usize,
}

fn simulate_config(smoke: bool) -> PassiveConfig {
    // Smoke keeps three sites over two days — long enough that the
    // measured walls dwarf scheduler jitter on a loaded CI runner.
    let mut cfg = PassiveConfig::quick(if smoke { 2.0 } else { 3.0 });
    if smoke {
        cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ" | "SH"));
    }
    cfg.parallel = true;
    cfg
}

fn measure_simulate(config: &'static str, opts: &RunOptions, smoke: bool) -> SimCell {
    // The pass cache is not keyed on the ephemeris backend, so each cell
    // starts from a clean slate and warms its own caches with a
    // throwaway run before the measured one. Visibility is pinned to the
    // legacy coarse scan so every cell simulates the identical pass
    // workload (the sweep finds short passes the adaptive scan misses,
    // which would skew the grid-backed cells).
    let opts = &opts.with_visibility(VisibilityMode::Off);
    sweep::clear();
    let warmup = PassiveCampaign::new(simulate_config(smoke))
        .run(opts)
        .expect("simulate-matrix config is valid");
    // Best of three repeats: the minimum wall is the least contaminated
    // by scheduler noise, which matters on shared CI runners.
    let mut wall_ms = f64::INFINITY;
    let mut propagations = 0;
    let mut results = warmup;
    for _ in 0..3 {
        sgp4::reset_propagations();
        let t0 = Instant::now();
        let rep = PassiveCampaign::new(simulate_config(smoke))
            .run(opts)
            .expect("simulate-matrix config is valid");
        let rep_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            rep.traces.len(),
            results.traces.len(),
            "{config}: repeat runs diverged"
        );
        if rep_ms < wall_ms {
            wall_ms = rep_ms;
            propagations = sgp4::propagations();
        }
        results = rep;
    }
    println!(
        "{config:9} warm: {wall_ms:9.1} ms, {propagations:>9} propagations, \
         {} traces, {} passes",
        results.traces.len(),
        results.passes.len(),
    );
    SimCell {
        config,
        wall_ms,
        propagations,
        traces: results.traces.len(),
        passes: results.passes.len(),
    }
}

/// One measured cell of the visibility coarse-scan matrix.
struct VisCell {
    kernel: &'static str,
    phase: &'static str,
    wall_ms: f64,
    points: usize,
    events: usize,
}

/// One measured cell of the mega-scale culling matrix.
struct CullCell {
    leg: &'static str,
    phase: &'static str,
    wall_ms: f64,
    pairs_considered: u64,
    pairs_culled: u64,
    pairs_kept: u64,
    passes: usize,
}

fn main() {
    let opts = RunOptions::from_env().apply();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke { fossa() } else { tianqi() };
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let days = 1.0;
    let mask_rad = calib::THEORETICAL_MASK_RAD;

    // The active campaign's observer set: 12 Tianqi ground stations plus
    // the Yunnan farm — 13 observers sharing each satellite's window.
    let mut observers = tianqi_ground_stations();
    observers.push(("YUNNAN_FARM", yunnan_farm()));

    let sats: Vec<(SatelliteDef, satiot_orbit::sgp4::Sgp4)> = spec
        .catalog(epoch)
        .into_iter()
        .map(|sat| {
            let sgp4 = sat.sgp4().expect("catalog elements propagate");
            (sat, sgp4)
        })
        .collect();
    println!(
        "bench_report: {} × {} sats × {} observers × {days} day(s)",
        spec.name,
        sats.len(),
        observers.len(),
    );

    let (start, end) = (epoch, epoch + days);
    // Pin the legacy coarse scan for both backends: the visibility sweep
    // legitimately finds short passes the adaptive scan can step over,
    // which would break this matrix's pass-count-equality check.
    let predict_opts = opts.with_visibility(VisibilityMode::Off);
    let (d_cold, d_warm) = measure(
        "direct",
        &predict_opts.with_ephemeris(EphemerisMode::Off),
        &observers,
        &sats,
        start,
        end,
        mask_rad,
    );
    let (e_cold, e_warm) = measure(
        "ephemeris",
        &predict_opts.with_ephemeris(EphemerisMode::On),
        &observers,
        &sats,
        start,
        end,
        mask_rad,
    );
    assert_eq!(
        d_cold.passes, e_cold.passes,
        "backends disagree on total pass count"
    );
    let ratio = d_cold.propagations as f64 / (e_cold.propagations.max(1)) as f64;
    let speedup = d_cold.wall_ms / e_cold.wall_ms.max(1e-9);
    println!("cold propagation ratio (direct/ephemeris): {ratio:.2}×, wall speedup {speedup:.2}×");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scenario\": {{");
    let _ = writeln!(json, "    \"constellation\": \"{}\",", spec.name);
    let _ = writeln!(json, "    \"satellites\": {},", sats.len());
    let _ = writeln!(json, "    \"observers\": {},", observers.len());
    let _ = writeln!(json, "    \"days\": {days},");
    let _ = writeln!(json, "    \"mask_deg\": {},", mask_rad.to_degrees());
    let _ = writeln!(json, "    \"smoke\": {smoke}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    let cells = [&d_cold, &d_warm, &e_cold, &e_warm];
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"phase\": \"{}\", \"wall_ms\": {:.3}, \
             \"sgp4_propagations\": {}, \"pass_lists\": {}, \"passes\": {}}}{}",
            c.backend,
            c.phase,
            c.wall_ms,
            c.propagations,
            c.pass_lists,
            c.passes,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"cold_propagation_ratio\": {ratio:.3},\n  \"cold_wall_speedup\": {speedup:.3}\n}}"
    );
    std::fs::write("BENCH_pass_prediction.json", &json).expect("write BENCH_pass_prediction.json");
    println!("wrote BENCH_pass_prediction.json");

    assert!(
        ratio >= 3.0,
        "ephemeris backend must cut SGP4 propagations at least 3× on the cold \
         multi-observer sweep (got {ratio:.2}×)"
    );
    assert!(
        e_warm.propagations == 0 && d_warm.propagations == 0,
        "warm re-runs must be served entirely from the pass cache"
    );

    // --- Visibility matrix: scalar vs chunked horizon-margin kernels. ---
    println!(
        "\nvisibility matrix ({} coarse scan, {} sats × {} observers):",
        if smoke { "smoke" } else { "full" },
        sats.len(),
        observers.len(),
    );
    let grids: Vec<EphemerisGrid> = sats
        .iter()
        .map(|(_, sgp4)| EphemerisGrid::build(sgp4, start, end))
        .collect();
    let mut arena = VisibilitySweep::new();
    for &(_, site) in &observers {
        arena.push(&Observer::new(site), mask_rad);
    }
    let sweep_all = |mode: VisibilityMode| -> Vec<Vec<SweepOutcome>> {
        grids
            .iter()
            .map(|grid| {
                arena
                    .run(grid, start, end, mode)
                    .expect("fully covered window sweeps")
            })
            .collect()
    };
    let repeats = if smoke { 5 } else { 3 };
    let mut vis_cells: Vec<VisCell> = Vec::new();
    let mut per_kernel: Vec<Vec<Vec<SweepOutcome>>> = Vec::new();
    for (kernel, mode) in [
        ("scalar", VisibilityMode::Scalar),
        ("chunked", VisibilityMode::On),
    ] {
        let t0 = Instant::now();
        let outcomes = sweep_all(mode);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut warm_ms = f64::INFINITY;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let rep = sweep_all(mode);
            warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(rep, outcomes, "{kernel}: repeat sweeps diverged");
        }
        let points: usize = outcomes.iter().flatten().map(|o| o.points).sum();
        let events: usize = outcomes.iter().flatten().map(|o| o.events.len()).sum();
        for (phase, wall_ms) in [("cold", cold_ms), ("warm", warm_ms)] {
            println!(
                "{kernel:9} {phase:4}: {wall_ms:9.1} ms, {points:>9} margins, {events} events",
            );
            vis_cells.push(VisCell {
                kernel,
                phase,
                wall_ms,
                points,
                events,
            });
        }
        per_kernel.push(outcomes);
    }
    // The chunked kernel is an elementwise regrouping of the scalar
    // margin arithmetic, so the emitted windows must match exactly.
    assert_eq!(
        per_kernel[0], per_kernel[1],
        "scalar and chunked sweeps disagree on sign-change windows"
    );
    let vis_speedup = vis_cells[1].wall_ms / vis_cells[3].wall_ms.max(1e-9);
    println!("coarse-scan wall speedup (scalar/chunked, warm): {vis_speedup:.2}×");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scenario\": {{");
    let _ = writeln!(json, "    \"constellation\": \"{}\",", spec.name);
    let _ = writeln!(json, "    \"satellites\": {},", sats.len());
    let _ = writeln!(json, "    \"observers\": {},", observers.len());
    let _ = writeln!(json, "    \"days\": {days},");
    let _ = writeln!(json, "    \"mask_deg\": {},", mask_rad.to_degrees());
    let _ = writeln!(json, "    \"smoke\": {smoke}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in vis_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"phase\": \"{}\", \"wall_ms\": {:.3}, \
             \"margins\": {}, \"events\": {}}}{}",
            c.kernel,
            c.phase,
            c.wall_ms,
            c.points,
            c.events,
            if i + 1 < vis_cells.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"warm_wall_speedup\": {vis_speedup:.3}\n}}");
    std::fs::write("BENCH_visibility.json", &json).expect("write BENCH_visibility.json");
    println!("wrote BENCH_visibility.json");

    let vis_floor = if smoke { 1.4 } else { 2.0 };
    assert!(
        vis_speedup >= vis_floor,
        "chunked visibility kernel must be at least {vis_floor}× faster than \
         the scalar sweep on the warm coarse scan (got {vis_speedup:.2}×)"
    );

    // --- Culling matrix: mega-scale Walker shell, pre-cull off vs on. ---
    // A dense mid-inclination shell against sites spread uniformly over
    // the sphere: most (site, sat) pairs either sit outside the shell's
    // latitude band or never enter the footprint cone during the short
    // window, so the conservative pre-cull should retire the bulk of the
    // pair matrix before any grid interpolation. Both legs drive
    // `predictor_with_mode` exactly like the campaign predict phase
    // (shared per-satellite grids, per-pair coarse scans); the legacy
    // coarse scan is pinned so the legs stay comparable.
    let shell = WalkerShell {
        planes: if smoke { 4 } else { 10 },
        sats_per_plane: if smoke { 9 } else { 36 },
        altitude_km: 600.0,
        inclination_deg: 53.0,
        phasing: 1,
    };
    shell
        .validate()
        .expect("culling-matrix shell is well-formed");
    let mega: Vec<satiot_orbit::sgp4::Sgp4> = shell
        .elements(epoch)
        .iter()
        .map(|e| e.to_sgp4().expect("walker shell propagates"))
        .collect();
    let n_sites = if smoke { 60 } else { 200 };
    // Equal-area latitudes (uniform in sin φ) with golden-angle
    // longitudes: a deterministic stand-in for uniform global sites.
    let cull_sites: Vec<Geodetic> = (0..n_sites)
        .map(|k| {
            let z = 1.0 - 2.0 * (k as f64 + 0.5) / n_sites as f64;
            let lon = (k as f64 * 2.399_963_229_728_653) % std::f64::consts::TAU;
            Geodetic::new(z.asin(), lon, 0.0)
        })
        .collect();
    // The mask is authored in degrees and stays in degrees all the way
    // to the report; converting only at the predictor call site keeps
    // round-trip noise (14.999999999999998°) out of the committed JSON.
    let cull_mask_deg = 15.0_f64;
    let cull_mask = cull_mask_deg.to_radians();
    let (cs, ce) = (epoch, epoch + 0.03);
    println!(
        "\nculling matrix ({} Walker {}×{} @ {} km / {}° × {} sites, {cull_mask_deg}° mask):",
        if smoke { "smoke" } else { "full" },
        shell.planes,
        shell.sats_per_plane,
        shell.altitude_km,
        shell.inclination_deg,
        n_sites,
    );
    let predict_mega = |culling: CullingMode| -> Vec<Vec<Pass>> {
        let mut lists = Vec::with_capacity(cull_sites.len() * mega.len());
        for &site in &cull_sites {
            for (s, sgp4) in mega.iter().enumerate() {
                let predictor = sweep::predictor_with_mode(
                    EphemerisMode::On,
                    VisibilityMode::Off,
                    culling,
                    sweep::GridKey::new("MEGA", s as u32, cs, ce),
                    sgp4,
                    site,
                    cull_mask,
                );
                lists.push(predictor.map(|p| p.passes(cs, ce)).unwrap_or_default());
            }
        }
        lists
    };
    let cull_repeats = if smoke { 5 } else { 3 };
    let mut cull_cells: Vec<CullCell> = Vec::new();
    let mut per_leg: Vec<Vec<Vec<Pass>>> = Vec::new();
    for (leg, culling) in [("unculled", CullingMode::Off), ("culled", CullingMode::On)] {
        sweep::clear();
        cull::reset_stats();
        let t0 = Instant::now();
        let lists = predict_mega(culling);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Warm repeats are served the shared grids from the cache, so
        // the measured wall is the per-pair cull + coarse-scan work the
        // pre-cull exists to avoid.
        let mut warm_ms = f64::INFINITY;
        for _ in 0..cull_repeats {
            cull::reset_stats();
            let t0 = Instant::now();
            let rep = predict_mega(culling);
            warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(rep, lists, "{leg}: repeat sweeps diverged");
        }
        let stats = cull::stats();
        let passes: usize = lists.iter().map(|l| l.len()).sum();
        for (phase, wall_ms) in [("cold", cold_ms), ("warm", warm_ms)] {
            println!(
                "{leg:9} {phase:4}: {wall_ms:9.1} ms, {:>6} considered, {:>6} culled, \
                 {:>6} kept, {passes} passes",
                stats.pairs_considered,
                stats.pairs_culled(),
                stats.pairs_kept,
            );
            cull_cells.push(CullCell {
                leg,
                phase,
                wall_ms,
                pairs_considered: stats.pairs_considered,
                pairs_culled: stats.pairs_culled(),
                pairs_kept: stats.pairs_kept,
                passes,
            });
        }
        per_leg.push(lists);
    }
    sweep::clear();
    // The cull is conservative, so the two legs must agree bit-for-bit
    // on every (site, sat) pair's pass list — culled pairs included,
    // whose unculled lists must come back empty.
    for (i, (a, b)) in per_leg[0].iter().zip(&per_leg[1]).enumerate() {
        assert_eq!(a.len(), b.len(), "pair {i}: culling changed the pass count");
        for (x, y) in a.iter().zip(b) {
            assert!(
                x.aos.0.to_bits() == y.aos.0.to_bits()
                    && x.los.0.to_bits() == y.los.0.to_bits()
                    && x.tca.0.to_bits() == y.tca.0.to_bits()
                    && x.max_elevation_rad.to_bits() == y.max_elevation_rad.to_bits()
                    && x.tca_range_km.to_bits() == y.tca_range_km.to_bits(),
                "pair {i}: culled pass diverged from unculled"
            );
        }
    }
    let on_stats = (
        cull_cells[3].pairs_considered,
        cull_cells[3].pairs_culled,
        cull_cells[3].pairs_kept,
    );
    assert_eq!(
        on_stats.0,
        (cull_sites.len() * mega.len()) as u64,
        "cull stage saw a different pair matrix than the sweep"
    );
    assert_eq!(
        on_stats.0,
        on_stats.1 + on_stats.2,
        "proof counters do not balance"
    );
    assert_eq!(
        (
            cull_cells[0].pairs_considered,
            cull_cells[0].pairs_culled,
            cull_cells[0].pairs_kept
        ),
        (0, 0, 0),
        "culling off must not touch the proof counters"
    );
    let pair_ratio = on_stats.0 as f64 / on_stats.2.max(1) as f64;
    let cull_speedup = cull_cells[1].wall_ms / cull_cells[3].wall_ms.max(1e-9);
    println!(
        "pair ratio (considered/kept): {pair_ratio:.2}×, warm wall speedup {cull_speedup:.2}×"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scenario\": {{");
    let _ = writeln!(
        json,
        "    \"shell\": {{\"planes\": {}, \"sats_per_plane\": {}, \"altitude_km\": {}, \
         \"inclination_deg\": {}, \"phasing\": {}}},",
        shell.planes, shell.sats_per_plane, shell.altitude_km, shell.inclination_deg, shell.phasing,
    );
    let _ = writeln!(json, "    \"satellites\": {},", mega.len());
    let _ = writeln!(json, "    \"sites\": {n_sites},");
    let _ = writeln!(json, "    \"pairs\": {},", cull_sites.len() * mega.len());
    let _ = writeln!(json, "    \"window_days\": 0.03,");
    let _ = writeln!(json, "    \"mask_deg\": {cull_mask_deg},");
    let _ = writeln!(json, "    \"smoke\": {smoke}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cull_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"leg\": \"{}\", \"phase\": \"{}\", \"wall_ms\": {:.3}, \
             \"pairs_considered\": {}, \"pairs_culled\": {}, \"pairs_kept\": {}, \
             \"passes\": {}}}{}",
            c.leg,
            c.phase,
            c.wall_ms,
            c.pairs_considered,
            c.pairs_culled,
            c.pairs_kept,
            c.passes,
            if i + 1 < cull_cells.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"pair_ratio\": {pair_ratio:.3},\n  \"warm_wall_speedup\": {cull_speedup:.3}\n}}"
    );
    std::fs::write("BENCH_culling.json", &json).expect("write BENCH_culling.json");
    println!("wrote BENCH_culling.json");

    assert!(
        pair_ratio >= 5.0,
        "the spatial pre-cull must retire at least 5× the surviving pair count \
         on the mega-scale matrix (got {pair_ratio:.2}×)"
    );
    let cull_floor = if smoke { 1.2 } else { 1.5 };
    assert!(
        cull_speedup >= cull_floor,
        "culling must be at least {cull_floor}× faster than the unculled sweep \
         on the warm mega-scale matrix (got {cull_speedup:.2}×)"
    );

    // --- Simulate matrix: direct-SGP4 vs grid-interpolated geometry. ---
    println!(
        "\nsimulate matrix ({} passive sweep, warm pass cache):",
        if smoke { "smoke" } else { "full" }
    );
    let direct = measure_simulate("direct", &opts.with_ephemeris(EphemerisMode::Off), smoke);
    let grid = measure_simulate("grid", &opts.with_ephemeris(EphemerisMode::On), smoke);
    sweep::clear();
    let sim_speedup = direct.wall_ms / grid.wall_ms.max(1e-9);
    println!("simulate wall speedup (direct/grid): {sim_speedup:.2}×");

    let sim_cfg = simulate_config(smoke);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scenario\": {{");
    let _ = writeln!(json, "    \"sites\": {},", sim_cfg.sites.len());
    let _ = writeln!(
        json,
        "    \"constellations\": {},",
        sim_cfg.constellations.len()
    );
    let _ = writeln!(json, "    \"days\": {},", sim_cfg.max_days);
    let _ = writeln!(json, "    \"smoke\": {smoke}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    let cells = [&direct, &grid];
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"config\": \"{}\", \"wall_ms\": {:.3}, \"sgp4_propagations\": {}, \
             \"traces\": {}, \"passes\": {}}}{}",
            c.config,
            c.wall_ms,
            c.propagations,
            c.traces,
            c.passes,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"simulate_wall_speedup\": {sim_speedup:.3}\n}}");
    std::fs::write("BENCH_simulate.json", &json).expect("write BENCH_simulate.json");
    println!("wrote BENCH_simulate.json");

    let floor = if smoke { 1.5 } else { 2.0 };
    assert!(
        sim_speedup >= floor,
        "grid-backed simulate must be at least {floor}× faster than direct SGP4 \
         on the warm passive sweep (got {sim_speedup:.2}×)"
    );

    // --- Sweep matrix: sequential cold batches vs the warm sweep server. ---
    // The same seed sweep run two ways. The cold leg models the
    // pre-server workflow — one OS process per job, so every job pays
    // the full predict phase again (emulated by clearing the process
    // caches before each job). The warm leg hands the whole queue to
    // `SweepServer`, whose jobs share pass lists and ephemeris grids.
    // Both legs must produce bit-identical per-job records and merged
    // sketches; the win is pure cache amortisation (this box pins the
    // pool to one core, so no parallelism is hiding in the numbers).
    let n_jobs: u64 = if smoke { 4 } else { 8 };
    let sweep_days = if smoke { 0.5 } else { 2.0 };
    let jobs: Vec<SweepJob> = (0..n_jobs)
        .map(|i| SweepJob::new(format!("bench-{i}"), 0xB0B + i).with_max_days(sweep_days))
        .collect();
    let sweep_cfg = jobs[0].to_config().expect("bench sweep job is valid");
    println!(
        "\nsweep matrix ({} {n_jobs} jobs × {} sites × {} constellations × {sweep_days} days):",
        if smoke { "smoke" } else { "full" },
        sweep_cfg.sites.len(),
        sweep_cfg.constellations.len(),
    );
    // Checkpointing off: a spill dir inherited from the environment
    // would let the warm leg resume the cold leg's results and measure
    // nothing.
    let server = SweepServer::new(opts).with_spill_dir(None).with_shard(None);
    let t0 = Instant::now();
    let mut cold_records: Vec<JobRecord> = Vec::new();
    for job in &jobs {
        sweep::clear();
        let outcome = server
            .run(std::slice::from_ref(job))
            .expect("cold sweep job runs");
        cold_records.extend(outcome.records);
    }
    let sweep_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut cold_merged = satiot_measure::sketch::TraceAggregate::new();
    for r in &cold_records {
        cold_merged.merge(r.sketch.as_ref().expect("aggregate sink sketches"));
    }

    sweep::clear();
    let t0 = Instant::now();
    let warm = server.run(&jobs).expect("warm sweep runs");
    let sweep_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    sweep::clear();

    assert_eq!(warm.records.len(), jobs.len());
    for (cold, warm) in cold_records.iter().zip(&warm.records) {
        assert!(
            cold.same_results(warm),
            "sweep server changed job {:?}'s results",
            cold.job.tag
        );
    }
    assert_eq!(
        cold_merged, warm.merged,
        "merged sketches must be bit-identical across the two legs"
    );
    for record in &warm.records[1..] {
        assert_eq!(
            record.cache.pass_computes, 0,
            "warm job {:?} re-predicted pass lists",
            record.job.tag
        );
    }

    let attribution = |records: &[JobRecord]| -> (u64, u64, u64, u64) {
        records.iter().fold((0, 0, 0, 0), |acc, r| {
            (
                acc.0 + r.cache.pass_computes,
                acc.1 + r.cache.pass_hits(),
                acc.2 + r.cache.grid_computes,
                acc.3 + r.cache.grid_hits(),
            )
        })
    };
    let sweep_speedup = sweep_cold_ms / sweep_warm_ms.max(1e-9);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scenario\": {{");
    let _ = writeln!(json, "    \"jobs\": {n_jobs},");
    let _ = writeln!(json, "    \"sites\": {},", sweep_cfg.sites.len());
    let _ = writeln!(
        json,
        "    \"constellations\": {},",
        sweep_cfg.constellations.len()
    );
    let _ = writeln!(json, "    \"days\": {sweep_days},");
    let _ = writeln!(json, "    \"smoke\": {smoke}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, (leg, wall_ms, records)) in [
        ("sequential-cold", sweep_cold_ms, &cold_records),
        ("server-warm", sweep_warm_ms, &warm.records),
    ]
    .into_iter()
    .enumerate()
    {
        let (pass_computes, pass_hits, grid_computes, grid_hits) = attribution(records);
        let jobs_per_s = n_jobs as f64 / (wall_ms / 1e3).max(1e-12);
        println!(
            "{leg:15}: {wall_ms:9.1} ms, {jobs_per_s:8.2} jobs/s, \
             {pass_computes:>5} pass computes, {pass_hits:>5} hits, \
             {grid_computes:>4} grid computes, {grid_hits:>4} hits"
        );
        let _ = writeln!(
            json,
            "    {{\"leg\": \"{leg}\", \"wall_ms\": {wall_ms:.3}, \
             \"jobs_per_s\": {jobs_per_s:.3}, \"pass_computes\": {pass_computes}, \
             \"pass_hits\": {pass_hits}, \"grid_computes\": {grid_computes}, \
             \"grid_hits\": {grid_hits}}}{}",
            if i == 0 { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"throughput_speedup\": {sweep_speedup:.3}\n}}");
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("wrote BENCH_sweep.json");
    println!("sweep throughput speedup (server-warm/sequential-cold): {sweep_speedup:.2}×");

    let sweep_floor = if smoke { 1.5 } else { 2.0 };
    assert!(
        sweep_speedup >= sweep_floor,
        "the sweep server must push at least {sweep_floor}× the throughput of \
         sequential cold jobs on the shared-scenario sweep (got {sweep_speedup:.2}×)"
    );

    println!("bench_report: OK");
}
