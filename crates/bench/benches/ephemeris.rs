//! Ephemeris-grid performance: build cost, interpolation vs direct
//! propagation, and the headline multi-site predict-phase speedup (one
//! shared grid serving all eight measurement sites).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use satiot_orbit::elements::Elements;
use satiot_orbit::ephemeris::EphemerisGrid;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::time::JulianDate;
use std::sync::Arc;

/// The eight measurement-site locations (Table 1 of the paper).
fn sites() -> Vec<Geodetic> {
    [
        (40.4406, -79.9959, 0.3),
        (51.5074, -0.1278, 0.02),
        (31.2304, 121.4737, 0.01),
        (23.1291, 113.2644, 0.02),
        (-33.8688, 151.2093, 0.02),
        (22.3193, 114.1694, 0.05),
        (28.6820, 115.8579, 0.03),
        (38.4872, 106.2309, 1.1),
    ]
    .iter()
    .map(|&(lat, lon, alt)| Geodetic::from_degrees(lat, lon, alt))
    .collect()
}

fn bench_ephemeris(c: &mut Criterion) {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let leo = Elements::circular(860.0, 45.0, epoch).to_sgp4().unwrap();
    let sites = sites();
    let grid = Arc::new(EphemerisGrid::build(&leo, epoch, epoch + 1.0));

    c.bench_function("grid_build_1day", |b| {
        b.iter(|| EphemerisGrid::build(black_box(&leo), epoch, epoch + 1.0))
    });

    // The passive campaign's longest window: 212 days at a 139.7 s
    // step, so SGP4 runs at large `t` (drag polynomials, wide angle
    // wraps), where a sample costs ~40 % more than within a day. As in
    // a campaign, another grid over the window keeps its shared lattice
    // alive, so this times one satellite's share of the build.
    let long = EphemerisGrid::build(&leo, epoch, epoch + 212.0);
    c.bench_function("grid_build_212day", |b| {
        b.iter(|| EphemerisGrid::build(black_box(&leo), epoch, epoch + 212.0))
    });
    drop(long);

    c.bench_function("grid_state_at", |b| {
        let mut k = 0u64;
        b.iter(|| {
            // Walk the window so every iteration hits a fresh segment.
            k = (k + 1) % 86_000;
            grid.state_at(black_box(epoch.plus_seconds(k as f64)))
        })
    });

    // The A/B the grid exists for: predicting one satellite's passes
    // over all eight sites, re-propagating per site vs interpolating
    // from one shared grid (grid build cost included via amortisation —
    // it is rebuilt every iteration to keep the comparison honest).
    c.bench_function("predict_8sites_direct", |b| {
        b.iter(|| {
            sites
                .iter()
                .map(|&s| {
                    PassPredictor::new(leo.clone(), s, 0.0)
                        .passes(black_box(epoch), epoch + 1.0)
                        .len()
                })
                .sum::<usize>()
        })
    });

    c.bench_function("predict_8sites_ephemeris", |b| {
        b.iter(|| {
            let grid = Arc::new(EphemerisGrid::build(&leo, epoch, epoch + 1.0));
            sites
                .iter()
                .map(|&s| {
                    PassPredictor::new(leo.clone(), s, 0.0)
                        .with_ephemeris(Arc::clone(&grid))
                        .passes(black_box(epoch), epoch + 1.0)
                        .len()
                })
                .sum::<usize>()
        })
    });
}

criterion_group!(benches, bench_ephemeris);
criterion_main!(benches);
