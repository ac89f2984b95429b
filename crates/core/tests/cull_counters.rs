//! The spatial pre-cull drops provably invisible (site, satellite)
//! pairs, keeps visible ones with their pass sets intact, and moves the
//! `orbit.cull.*` proof counters by exactly its own decisions.
//!
//! Its own test binary, because it asserts deltas of the process-wide
//! cull counters that any other test predicting passes would move.

use satiot_core::sweep::{predictor_with_mode, GridKey};
use satiot_orbit::cull::{self, CullingMode};
use satiot_orbit::elements::Elements;
use satiot_orbit::ephemeris::EphemerisMode;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::time::JulianDate;
use satiot_orbit::visibility::VisibilityMode;

#[test]
fn culling_drops_invisible_pairs_and_keeps_visible_ones() {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let start = epoch;
    let end = epoch + 0.5;
    // Low-inclination shell: never visible from a polar site.
    let sgp4 = Elements::circular(550.0, 20.0, epoch).to_sgp4().unwrap();
    let polar = Geodetic::from_degrees(80.0, 10.0, 0.0);
    let equatorial = Geodetic::from_degrees(0.0, 10.0, 0.0);
    let key = GridKey::new("TEST_CULL", 0, start, end);

    let before = cull::stats();
    let culled = predictor_with_mode(
        EphemerisMode::On,
        VisibilityMode::On,
        CullingMode::On,
        key,
        &sgp4,
        polar,
        0.0,
    );
    assert!(culled.is_none(), "polar pair survived the lat-band cull");
    let kept = predictor_with_mode(
        EphemerisMode::On,
        VisibilityMode::On,
        CullingMode::On,
        key,
        &sgp4,
        equatorial,
        0.0,
    );
    let kept = kept.expect("equatorial pair must be kept");
    let after = cull::stats();
    assert_eq!(after.pairs_considered - before.pairs_considered, 2);
    assert_eq!(after.pairs_culled() - before.pairs_culled(), 1);
    assert_eq!(after.pairs_kept - before.pairs_kept, 1);

    // The kept pair's pass set is bit-identical to the unculled one.
    let unculled = predictor_with_mode(
        EphemerisMode::On,
        VisibilityMode::On,
        CullingMode::Off,
        key,
        &sgp4,
        equatorial,
        0.0,
    )
    .expect("culling off never drops a pair");
    assert_eq!(kept.passes(start, end), unculled.passes(start, end));
    // Culling off moves no counters.
    assert_eq!(cull::stats(), after);
}
