//! The shared ephemeris lattice behind the sweep's grid store: grids of
//! different satellites over one window share one lattice, and
//! `sweep::clear()` leaves none alive.
//!
//! Its own test binary, because `sweep::clear()` empties the
//! process-wide caches that other tests read.

use satiot_core::sweep::{self, GridKey};
use satiot_orbit::elements::Elements;
use satiot_orbit::ephemeris::EphemerisGrid;
use satiot_orbit::time::JulianDate;
use std::sync::Arc;

#[test]
fn grids_over_one_window_share_a_lattice_until_the_sweep_clears() {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let (start, end) = (epoch, epoch + 0.5);
    let nudged = JulianDate(f64::from_bits(end.0.to_bits() + 1));
    let grid = |sat_id: u32, end: JulianDate| {
        let sgp4 = Elements::circular(500.0 + 50.0 * f64::from(sat_id), 97.6, epoch)
            .to_sgp4()
            .unwrap();
        sweep::grid_for(GridKey::new("LATTICE_TEST", sat_id, start, end), || {
            EphemerisGrid::build(&sgp4, start, end)
        })
    };
    let (a, b, c) = (grid(1, end), grid(2, end), grid(3, nudged));
    assert!(Arc::ptr_eq(a.lattice(), b.lattice()));
    assert!(!Arc::ptr_eq(a.lattice(), c.lattice()));
    let lattices = [a.lattice(), c.lattice()].map(Arc::downgrade);
    drop((a, b, c));
    // The grid store still holds the grids, and so their lattices.
    assert!(lattices.iter().all(|l| l.upgrade().is_some()));
    sweep::clear();
    assert!(lattices.iter().all(|l| l.upgrade().is_none()));
}
