//! One-stop imports for campaign binaries and examples.
//!
//! The bench/reproduction binaries used to deep-import half a dozen
//! module paths each (`satiot_core::passive::PassiveCampaign`,
//! `satiot_core::sweep::PassKey`, …). The prelude flattens the public
//! campaign surface so a binary needs exactly one line:
//!
//! ```
//! use satiot_core::prelude::*;
//!
//! let mut spec = ScenarioSpec::tianqi_hk();
//! spec.max_days = Some(0.2);
//! let scenario = spec.build().expect("catalog names resolve");
//! let opts = RunOptions::default();
//! let results =
//!     PassiveCampaign::new(PassiveConfig::from_scenario(&scenario)).run(&opts);
//! assert!(results.is_ok());
//! ```

pub use crate::active::{ActiveCampaign, ActiveConfig, ActiveResults};
pub use crate::error::{Fault, FaultLog, SatIotError};
pub use crate::options::{RunOptions, Scale};
pub use crate::passive::{PassiveCampaign, PassiveConfig, PassiveResults, SchedulerKind};
pub use crate::sink::{SinkMode, SinkStats};
pub use crate::sweep::PassKey;
pub use crate::sweep_server::{
    CacheAttribution, ConstellationOutcome, JobRecord, SweepConfig, SweepJob, SweepOutcome,
    SweepServer,
};
pub use satiot_orbit::cull::CullingMode;
pub use satiot_orbit::ephemeris::EphemerisMode;
pub use satiot_orbit::visibility::VisibilityMode;
pub use satiot_scenarios::{
    ConstellationRef, MobilityTrack, OutageWindow, ResolvedScenario, ScenarioError, ScenarioSpec,
    SiteRef, SiteSpec, TerrestrialSpec, TrafficSpec, Waypoint,
};
