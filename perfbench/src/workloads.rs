//! The three workloads: what each sets up, runs and cross-checks.
//!
//! * `paper_full` — the full-scale paper reproduction in
//!   `reproduce_all`'s order from cold caches: passive campaign, twelve
//!   active campaigns, the terrestrial baseline, every report.
//! * `sweep_mixed` — the repository's own sweep-server consumers
//!   (`exp_ablation_scheduler`, `exp_extension_cost` and
//!   `bench_report`'s sweep matrix) replayed with seeded job seeds:
//!   each batch fills the caches once and its other jobs read them.
//! * `megashell` — a passive campaign over an inline 10×36 Walker shell
//!   and seeded global inline sites with culling on, where per-pair cull
//!   and coarse visibility work dominate.
//!
//! Every input derives from the run's seed through forks of one
//! [`Rng`].

use crate::digest;
use crate::split;
use crate::trace::TraceCtx;
use satiot_bench::reports;
use satiot_channel::antenna::AntennaPattern;
use satiot_channel::weather::Weather;
use satiot_core::passive::{PassiveConfig, SchedulerKind};
use satiot_core::sweep;
use satiot_core::sweep_server::{JobRecord, SweepJob, SweepServer};
use satiot_core::{
    ActiveCampaign, ActiveConfig, ActiveResults, PassiveCampaign, PassiveResults, RunOptions, Scale,
};
use satiot_orbit::cull::CullingMode;
use satiot_scenarios::{
    Climate, ConstellationRef, ScenarioSpec, SiteRef, SiteSpec, WalkerConstellation, WalkerShell,
};
use satiot_sim::rng::Rng;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig, TerrestrialResults};
use std::time::Instant;

/// The seed whose operation digests are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Rounds of the three consumer batches in one `sweep_mixed` queue.
pub const SWEEP_ROUNDS: usize = 4;

/// Inline sites in one `megashell` scenario.
pub const MEGA_SITES: usize = 400;

/// Ground stations at each `megashell` site. Each station is up or
/// down for hours at a time, so over the short campaign the decoded
/// trace count follows how many stations happen to be up; several per
/// site keep that count steady across seeds.
pub const MEGA_STATIONS: u32 = 4;

/// Simulated days of the `megashell` campaign.
pub const MEGA_DAYS: f64 = 0.03;

/// The run's generator for one input, independent of the others.
pub fn stream(seed: u64, label: &str) -> Rng {
    Rng::from_seed(seed).fork(label)
}

/// A campaign or job seed drawn from `rng`, kept to 53 bits.
fn draw_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

/// One operation's output, digested after the timed region.
#[derive(Debug)]
pub enum Payload {
    Passive(Box<PassiveResults>),
    Active(Box<ActiveResults>),
    Terrestrial(Box<TerrestrialResults>),
    Job(Box<JobRecord>),
    Text(String),
    Failed(String),
}

/// An operation awaiting its digest.
#[derive(Debug)]
pub struct PendingOp {
    pub name: String,
    pub latency_s: f64,
    pub payload: Payload,
}

impl PendingOp {
    /// The output digest, or the operation's error.
    pub fn digest(&self) -> Result<u64, String> {
        match &self.payload {
            Payload::Passive(r) => Ok(digest::passive(r)),
            Payload::Active(r) => Ok(digest::active(r)),
            Payload::Terrestrial(r) => Ok(digest::terrestrial(r)),
            Payload::Job(r) => Ok(digest::job(r)),
            Payload::Text(t) => Ok(digest::text(t)),
            Payload::Failed(e) => Err(e.clone()),
        }
    }
}

/// Work a unit produced: pass records and decoded beacon traces.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Volume {
    pub passes: u64,
    pub traces: u64,
}

/// Pass records and decoded traces across `ops`. Passive campaigns
/// count every pass record; sweep jobs count their covered passes,
/// the only pass records a job record keeps.
pub fn volume(ops: &[PendingOp]) -> Volume {
    let mut v = Volume::default();
    for op in ops {
        match &op.payload {
            Payload::Passive(r) => {
                v.passes += r.passes.len() as u64;
                v.traces += r.sink.emitted;
            }
            Payload::Job(r) => {
                v.passes += r
                    .constellations
                    .iter()
                    .map(|c| c.covered_passes)
                    .sum::<u64>();
                v.traces += r.traces_total;
            }
            _ => {}
        }
    }
    v
}

/// Cache lookups and computes of one unit, both caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheWork {
    pub pass_lookups: u64,
    pub pass_computes: u64,
    pub grid_lookups: u64,
    pub grid_computes: u64,
}

/// The cache work of the unit that produced `ops`, read right after it.
/// The sweep clears the caches, and with them the process counters,
/// between batches, so for sweep jobs this sums each job's own
/// attribution; other units read the process counters.
pub fn cache_work(ops: &[PendingOp]) -> CacheWork {
    let jobs: Vec<&JobRecord> = ops
        .iter()
        .filter_map(|op| match &op.payload {
            Payload::Job(r) => Some(&**r),
            _ => None,
        })
        .collect();
    if jobs.is_empty() {
        let (pass, grid) = (sweep::stats(), sweep::grid_stats());
        return CacheWork {
            pass_lookups: pass.lookups,
            pass_computes: pass.computes,
            grid_lookups: grid.lookups,
            grid_computes: grid.computes,
        };
    }
    jobs.iter().fold(CacheWork::default(), |w, r| CacheWork {
        pass_lookups: w.pass_lookups + r.cache.pass_lookups,
        pass_computes: w.pass_computes + r.cache.pass_computes,
        grid_lookups: w.grid_lookups + r.cache.grid_lookups,
        grid_computes: w.grid_computes + r.cache.grid_computes,
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn op(name: impl Into<String>, latency_s: f64, payload: Payload) -> PendingOp {
    PendingOp {
        name: name.into(),
        latency_s,
        payload,
    }
}

/// Run a passive campaign: directly, or in the traced run after the
/// layer split with the attribution check.
fn passive_op(
    cfg: &PassiveConfig,
    opts: &RunOptions,
    trace: Option<&mut TraceCtx>,
) -> (Result<PassiveResults, String>, f64) {
    let run = || timed(|| PassiveCampaign::new(cfg.clone()).run(opts));
    let (r, s) = match trace {
        None => run(),
        Some(t) => {
            split::prime_passive(cfg, opts, t);
            let (out, check) =
                t.tr.span("core.passive.simulate", || split::served_from_cache(run));
            if let Err(e) = check {
                t.attribution.push(e);
            }
            out
        }
    };
    (r.map_err(|e| e.to_string()), s)
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFull,
    SweepMixed,
    Megashell,
}

/// A workload's inputs, built by [`Workload::setup`].
pub enum Setup {
    Paper(PaperSetup),
    Sweep(SweepSetup),
    Mega(MegaSetup),
}

/// `paper_full` inputs: the scenario's three campaign configurations.
pub struct PaperSetup {
    fingerprint: u64,
    passive: PassiveConfig,
    active: ActiveConfig,
    terrestrial: TerrestrialConfig,
}

/// `sweep_mixed` inputs: the queue and the server.
pub struct SweepSetup {
    batches: Vec<Batch>,
    server: SweepServer,
}

/// `megashell` inputs: the resolved campaign.
pub struct MegaSetup {
    fingerprint: u64,
    passive: PassiveConfig,
}

/// An active-campaign variant of `reproduce_all`.
type Tweak = fn(&mut ActiveConfig);

/// `reproduce_all`'s twelve active campaigns, in its order.
const ACTIVE_VARIANTS: [(&str, Tweak); 12] = [
    ("active:default", |_| {}),
    ("active:no-retx", |c| c.max_attempts = 1),
    ("active:58wave-sunny", |c| {
        c.node_antenna = AntennaPattern::FiveEighthsWaveMonopole;
        c.weather_override = Some(Weather::Sunny);
    }),
    ("active:58wave-rainy", |c| {
        c.node_antenna = AntennaPattern::FiveEighthsWaveMonopole;
        c.weather_override = Some(Weather::Rainy);
    }),
    ("active:14wave-sunny", |c| {
        c.node_antenna = AntennaPattern::QuarterWaveMonopole;
        c.weather_override = Some(Weather::Sunny);
    }),
    ("active:14wave-rainy", |c| {
        c.node_antenna = AntennaPattern::QuarterWaveMonopole;
        c.weather_override = Some(Weather::Rainy);
    }),
    ("active:payload-10", |c| c.payload_bytes = 10),
    ("active:payload-60", |c| c.payload_bytes = 60),
    ("active:payload-120", |c| c.payload_bytes = 120),
    ("active:nodes-1", |c| c.nodes = 1),
    ("active:nodes-2", |c| c.nodes = 2),
    ("active:nodes-3", |c| c.nodes = 3),
];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFull,
        Workload::SweepMixed,
        Workload::Megashell,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper_full",
            Workload::SweepMixed => "sweep_mixed",
            Workload::Megashell => "megashell",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Build the workload's inputs from `seed`: what the program does
    /// before its first campaign call. That is the scenario resolve and
    /// the campaign configurations, or for the sweep the queue and the
    /// server. The campaigns build their own propagators when called.
    pub fn setup(self, seed: u64, opts: &RunOptions) -> Result<Setup, String> {
        match self {
            Workload::PaperFull => paper_setup(seed).map(Setup::Paper),
            Workload::SweepMixed => Ok(Setup::Sweep(SweepSetup {
                batches: sweep_queue(seed),
                server: SweepServer::new(*opts),
            })),
            Workload::Megashell => mega_setup(seed).map(Setup::Mega),
        }
    }

    /// Run the workload once on its inputs. With `trace`, passive
    /// campaigns go through the layer split and each phase gets a span.
    pub fn run(
        self,
        setup: &Setup,
        opts: &RunOptions,
        trace: Option<&mut TraceCtx>,
    ) -> Vec<PendingOp> {
        match setup {
            Setup::Paper(s) => paper_run(s, opts, trace),
            Setup::Sweep(s) => sweep_run(s, opts, trace),
            Setup::Mega(s) => {
                let (r, secs) = passive_op(&s.passive, opts, trace);
                vec![op("passive", secs, passive_payload(r))]
            }
        }
    }

    /// Reference-free cross-checks of the last run's outputs, made
    /// outside the timed region on the still-warm caches. Returns extra
    /// operations to record and `(operation name, reason)` failures.
    pub fn cross_check(
        self,
        setup: &Setup,
        ops: &[PendingOp],
        opts: &RunOptions,
        seed: u64,
    ) -> (Vec<PendingOp>, Vec<(String, String)>) {
        match setup {
            Setup::Paper(s) => (
                Vec::new(),
                check_pass_lists(&s.passive, opts, seed, 24, "passive"),
            ),
            Setup::Sweep(s) => sweep_solo_check(s, ops, opts, seed),
            Setup::Mega(s) => (
                Vec::new(),
                check_pass_lists(&s.passive, opts, seed, 256, "passive"),
            ),
        }
    }

    /// Scenario fingerprints for the result stamp: the scenario spec's
    /// for scenario-built workloads, each job's for the sweep.
    pub fn fingerprints(setup: &Setup) -> Vec<u64> {
        match setup {
            Setup::Paper(s) => vec![s.fingerprint],
            Setup::Sweep(s) => s
                .batches
                .iter()
                .flat_map(|b| &b.jobs)
                .map(SweepJob::fingerprint)
                .collect(),
            Setup::Mega(s) => vec![s.fingerprint],
        }
    }
}

fn passive_payload(r: Result<PassiveResults, String>) -> Payload {
    match r {
        Ok(r) => Payload::Passive(Box::new(r)),
        Err(e) => Payload::Failed(e),
    }
}

// ---------------------------------------------------------------------------
// paper_full
// ---------------------------------------------------------------------------

fn paper_setup(seed: u64) -> Result<PaperSetup, String> {
    let spec = ScenarioSpec {
        seed: Some(draw_seed(&mut stream(seed, "paper"))),
        ..ScenarioSpec::paper_passive()
    };
    let scenario = spec.build().map_err(|e| e.to_string())?;
    Ok(PaperSetup {
        fingerprint: scenario.fingerprint,
        passive: PassiveConfig::from_scenario(&scenario),
        active: ActiveConfig::from_scenario(&scenario),
        terrestrial: TerrestrialConfig::from_scenario(&scenario),
    })
}

fn paper_run(
    s: &PaperSetup,
    opts: &RunOptions,
    mut trace: Option<&mut TraceCtx>,
) -> Vec<PendingOp> {
    let mut ops = Vec::new();
    let (passive, secs) = passive_op(&s.passive, opts, trace.as_deref_mut());

    let run_active = |tweak: Tweak| {
        let mut cfg = s.active.clone();
        tweak(&mut cfg);
        timed(|| {
            ActiveCampaign::new(cfg)
                .run(opts)
                .map_err(|e| e.to_string())
        })
    };
    let mut actives: Vec<(&str, Result<ActiveResults, String>, f64)> = Vec::new();
    for (i, (name, tweak)) in ACTIVE_VARIANTS.iter().enumerate() {
        let (r, secs) = match trace.as_deref_mut() {
            None => run_active(*tweak),
            // The first campaign predicts the farm and ground-station
            // passes cold; a rerun of it on warm caches isolates the
            // event-driven simulation. The rerun is extra work, so it
            // is a probe span outside the traced wall, and its output
            // is checked against the cold run's as a repeat.
            Some(t) if i == 0 => {
                let cold = t.tr.span("core.active.cold", || run_active(*tweak));
                let (warm, warm_s) = t.probe("probe.active_warm", || run_active(*tweak));
                ops.push(op(*name, warm_s, active_payload(warm)));
                cold
            }
            Some(t) => t.tr.span("core.active.variants", || run_active(*tweak)),
        };
        actives.push((name, r, secs));
    }

    let run_terrestrial = || {
        timed(|| {
            TerrestrialCampaign::new(s.terrestrial.clone())
                .run()
                .map_err(|e| e.to_string())
        })
    };
    let (terr, terr_s) = match trace.as_deref_mut() {
        None => run_terrestrial(),
        Some(t) => t.tr.span("terrestrial", run_terrestrial),
    };

    let reports = match trace {
        None => render_reports(&passive, &actives, &terr),
        Some(t) => t.tr.span("reports.render", || {
            render_reports(&passive, &actives, &terr)
        }),
    };

    ops.push(op("passive", secs, passive_payload(passive)));
    for (name, r, secs) in actives {
        ops.push(op(name, secs, active_payload(r)));
    }
    ops.push(op(
        "terrestrial",
        terr_s,
        match terr {
            Ok(r) => Payload::Terrestrial(Box::new(r)),
            Err(e) => Payload::Failed(e),
        },
    ));
    ops.extend(reports);
    ops
}

fn active_payload(r: Result<ActiveResults, String>) -> Payload {
    match r {
        Ok(r) => Payload::Active(Box::new(r)),
        Err(e) => Payload::Failed(e),
    }
}

/// Every report `reproduce_all` renders (the ASCII site map aside), in
/// its order, each an operation of its own.
fn render_reports(
    passive: &Result<PassiveResults, String>,
    actives: &[(&str, Result<ActiveResults, String>, f64)],
    terr: &Result<TerrestrialResults, String>,
) -> Vec<PendingOp> {
    let a = |name: &str| {
        actives
            .iter()
            .find(|(n, _, _)| *n == name)
            .and_then(|(_, r, _)| r.as_ref().ok())
    };
    type Render<'a> = Box<dyn Fn() -> String + 'a>;
    let renders: Option<Vec<(&str, Render)>> = (|| {
        let passive = passive.as_ref().ok()?;
        let terr = terr.as_ref().ok()?;
        let active = a("active:default")?;
        let no_retx = a("active:no-retx")?;
        let fig5b = [
            ("5/8-wave, sunny", a("active:58wave-sunny")?),
            ("5/8-wave, rainy", a("active:58wave-rainy")?),
            ("1/4-wave, sunny", a("active:14wave-sunny")?),
            ("1/4-wave, rainy", a("active:14wave-rainy")?),
        ];
        let payloads = [
            (10usize, a("active:payload-10")?),
            (60, a("active:payload-60")?),
            (120, a("active:payload-120")?),
        ];
        let nodes = [
            (1u32, a("active:nodes-1")?),
            (2, a("active:nodes-2")?),
            (3, a("active:nodes-3")?),
        ];
        Some(vec![
            (
                "report:table1",
                Box::new(move || reports::table1(passive)) as Render,
            ),
            ("report:table2", Box::new(reports::table2)),
            ("report:table3", Box::new(move || reports::table3(passive))),
            (
                "report:fig3a",
                Box::new(|| reports::fig3a(Scale::Full.availability_days())),
            ),
            ("report:fig3b", Box::new(move || reports::fig3b(passive))),
            ("report:fig3c", Box::new(move || reports::fig3c(passive))),
            ("report:fig3d", Box::new(move || reports::fig3d(passive))),
            ("report:fig4a", Box::new(move || reports::fig4a(passive))),
            ("report:fig4b", Box::new(move || reports::fig4b(passive))),
            (
                "report:fig5a",
                Box::new(move || reports::fig5a(terr, no_retx, active)),
            ),
            ("report:fig5b", Box::new(move || reports::fig5b(&fig5b))),
            (
                "report:fig5c",
                Box::new(move || reports::fig5c(terr, active)),
            ),
            ("report:fig5d", Box::new(move || reports::fig5d(active))),
            ("report:fig6", Box::new(move || reports::fig6(active, terr))),
            ("report:fig8", Box::new(move || reports::fig8(passive))),
            ("report:fig9", Box::new(move || reports::fig9(passive))),
            ("report:fig10", Box::new(reports::fig10)),
            ("report:fig11", Box::new(move || reports::fig11(terr))),
            (
                "report:fig12a",
                Box::new(move || reports::fig12a(&payloads)),
            ),
            ("report:fig12b", Box::new(move || reports::fig12b(&nodes))),
        ])
    })();
    match renders {
        Some(renders) => renders
            .into_iter()
            .map(|(name, render)| {
                let (text, secs) = timed(render);
                op(name, secs, Payload::Text(text))
            })
            .collect(),
        None => vec![op(
            "report:all",
            0.0,
            Payload::Failed("an upstream campaign failed".to_string()),
        )],
    }
}

// ---------------------------------------------------------------------------
// sweep_mixed
// ---------------------------------------------------------------------------

/// One consumer's sweep, run as the consumer runs it: in a process of
/// its own, so on caches that start empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The repository binary whose sweep this batch replays.
    pub consumer: &'static str,
    pub jobs: Vec<SweepJob>,
}

/// The `sweep_mixed` queue: [`SWEEP_ROUNDS`] rounds of the repository's
/// three sweep-server consumers. Each batch keeps its consumer's shape
/// (job count, sites, day cap, schedulers, seed pattern); the run's
/// seed draws the base seed.
///
/// * `exp_ablation_scheduler`: one seed under the predictive scheduler
///   and the vanilla one with 600 s and 1800 s dwells, Hong Kong only,
///   over the day cap it uses at full scale (14 days);
/// * `exp_extension_cost`: five consecutive seeds, Hong Kong only,
///   2 days;
/// * `bench_report`'s sweep matrix: eight consecutive seeds over every
///   catalog site, 2 days.
///
/// In each batch the first job fills the caches and the others read
/// them (no cache is keyed by scheduler or seed): 3 fills and 13 reads
/// per round.
pub fn sweep_queue(seed: u64) -> Vec<Batch> {
    let mut rng = stream(seed, "sweep");
    let ablation_days = Scale::Full.passive_days().min(14.0);
    let mut batches = Vec::with_capacity(3 * SWEEP_ROUNDS);
    for round in 0..SWEEP_ROUNDS {
        let base = draw_seed(&mut rng);
        let schedulers = [
            SchedulerKind::Predictive,
            SchedulerKind::Vanilla { dwell_s: 600.0 },
            SchedulerKind::Vanilla { dwell_s: 1_800.0 },
        ];
        batches.push(Batch {
            consumer: "exp_ablation_scheduler",
            jobs: schedulers
                .into_iter()
                .enumerate()
                .map(|(i, kind)| {
                    SweepJob::new(format!("r{round}-ablation-{i}"), base)
                        .with_max_days(ablation_days)
                        .with_scheduler(kind)
                        .with_sites(["HK"])
                })
                .collect(),
        });
        let base = draw_seed(&mut rng);
        batches.push(Batch {
            consumer: "exp_extension_cost",
            jobs: (0..5)
                .map(|i| {
                    SweepJob::new(format!("r{round}-cost-{i}"), base + i)
                        .with_max_days(2.0)
                        .with_sites(["HK"])
                })
                .collect(),
        });
        let base = draw_seed(&mut rng);
        batches.push(Batch {
            consumer: "bench_report",
            jobs: (0..8)
                .map(|i| SweepJob::new(format!("r{round}-bench-{i}"), base + i).with_max_days(2.0))
                .collect(),
        });
    }
    batches
}

fn job_op(
    job: &SweepJob,
    secs: f64,
    r: Result<satiot_core::sweep_server::SweepOutcome, String>,
) -> PendingOp {
    let payload = match r {
        Ok(mut out) if out.records.len() == 1 => {
            Payload::Job(Box::new(out.records.pop().expect("one record")))
        }
        Ok(out) => Payload::Failed(format!("{} records for one job", out.records.len())),
        Err(e) => Payload::Failed(e),
    };
    op(format!("job:{}", job.tag), secs, payload)
}

/// Run each batch from empty caches, feeding its jobs to the server one
/// at a time so each job's latency is its own. The consumers hand the
/// server a batch in one call instead; that call also validates the
/// whole batch up front and merges the job sketches, work this
/// workload does not time.
fn sweep_run(
    s: &SweepSetup,
    opts: &RunOptions,
    mut trace: Option<&mut TraceCtx>,
) -> Vec<PendingOp> {
    let mut ops = Vec::new();
    for batch in &s.batches {
        match trace.as_deref_mut() {
            None => sweep::clear(),
            Some(t) => {
                t.tr.span("core.sweep.clear", sweep::clear);
                t.primed.clear();
            }
        }
        for job in &batch.jobs {
            let run = || {
                timed(|| {
                    s.server
                        .run(std::slice::from_ref(job))
                        .map_err(|e| e.to_string())
                })
            };
            let (r, secs) = match trace.as_deref_mut() {
                None => run(),
                Some(t) => {
                    // The server resolves the job itself; an invalid job
                    // primes nothing and fails in its call.
                    if let Ok(cfg) = t.probe("probe.resolve", || job.to_config()) {
                        split::prime_passive(&cfg, opts, t);
                    }
                    let (out, check) =
                        t.tr.span("core.passive.simulate", || split::served_from_cache(run));
                    if let Err(e) = check {
                        t.attribution.push(format!("{}: {e}", job.tag));
                    }
                    out
                }
            };
            ops.push(job_op(job, secs, r));
        }
    }
    ops
}

/// A seeded sample job, re-run alone on cleared caches by a fresh
/// server, must reproduce its record from the shared-cache run.
fn sweep_solo_check(
    s: &SweepSetup,
    ops: &[PendingOp],
    opts: &RunOptions,
    seed: u64,
) -> (Vec<PendingOp>, Vec<(String, String)>) {
    let jobs: Vec<&SweepJob> = s.batches.iter().flat_map(|b| &b.jobs).collect();
    let job = jobs[stream(seed, "check").index(jobs.len())];
    sweep::clear();
    let (r, secs) = timed(|| {
        SweepServer::new(*opts)
            .run(std::slice::from_ref(job))
            .map_err(|e| e.to_string())
    });
    let solo = job_op(job, secs, r);
    let mut failures = Vec::new();
    let shared = ops.iter().find(|o| o.name == solo.name).map(|o| &o.payload);
    if let (Some(Payload::Job(a)), Payload::Job(b)) = (shared, &solo.payload) {
        if !a.same_results(b) {
            failures.push((
                solo.name.clone(),
                "solo run on cleared caches differs from the shared-cache run".to_string(),
            ));
        }
    }
    (vec![solo], failures)
}

// ---------------------------------------------------------------------------
// megashell
// ---------------------------------------------------------------------------

/// The `megashell` scenario: a 10×36 Walker shell at 600 km / 53°
/// against [`MEGA_SITES`] sites spread evenly over the sphere: a
/// Fibonacci lattice (equal-area latitude strata, golden-angle
/// longitudes) whose points the seed jitters, each within its latitude
/// stratum and by up to a degree in longitude, so every seed covers
/// the globe alike.
pub fn mega_spec(seed: u64) -> ScenarioSpec {
    let mut g = stream(seed, "mega-sites");
    let sites = (0..MEGA_SITES)
        .map(|k| {
            let z = 1.0 - 2.0 * (k as f64 + g.next_f64()) / MEGA_SITES as f64;
            let lat = z.clamp(-1.0, 1.0).asin().to_degrees();
            let lon =
                (137.507_764_050_037_85 * k as f64 + 2.0 * g.next_f64() - 1.0) % 360.0 - 180.0;
            SiteRef::Inline(SiteSpec {
                code: format!("M{k:03}"),
                name: format!("mega site {k}"),
                lat_deg: lat,
                lon_deg: lon,
                alt_km: 0.0,
                stations: MEGA_STATIONS,
                start_day: 0.0,
                climate: Climate::TemperateOceanic,
                track: None,
            })
        })
        .collect();
    ScenarioSpec {
        name: "megashell".to_string(),
        seed: Some(draw_seed(&mut stream(seed, "mega"))),
        max_days: Some(MEGA_DAYS),
        constellations: vec![ConstellationRef::Inline {
            walker: WalkerConstellation {
                name: "MEGA".to_string(),
                shells: vec![WalkerShell {
                    planes: 10,
                    sats_per_plane: 36,
                    altitude_km: 600.0,
                    inclination_deg: 53.0,
                    phasing: 1,
                }],
                frequency_mhz: 401.7,
                beacon_interval_s: 30.0,
            },
            tx_power_dbm: 22.0,
        }],
        sites,
        ..ScenarioSpec::default()
    }
}

fn mega_setup(seed: u64) -> Result<MegaSetup, String> {
    let scenario = mega_spec(seed).build().map_err(|e| e.to_string())?;
    Ok(MegaSetup {
        fingerprint: scenario.fingerprint,
        passive: PassiveConfig::from_scenario(&scenario),
    })
}

// ---------------------------------------------------------------------------
// Pass-list cross-check
// ---------------------------------------------------------------------------

/// On `samples` seeded (site, satellite) pairs, the pass list the
/// campaign left in the cache must equal a fresh unculled prediction:
/// culling is conservative and the cache serves what was computed.
fn check_pass_lists(
    cfg: &PassiveConfig,
    opts: &RunOptions,
    seed: u64,
    samples: usize,
    op_name: &str,
) -> Vec<(String, String)> {
    let sats = match split::flatten_sats(cfg) {
        Ok(sats) => sats,
        Err(e) => return vec![(op_name.to_string(), e)],
    };
    let mut g = stream(seed, "pass-lists");
    let mut failures = Vec::new();
    for _ in 0..samples {
        let site = &cfg.sites[g.index(cfg.sites.len())];
        let sat = &sats[g.index(sats.len())];
        let before = sweep::stats().computes;
        let cached = sweep::passes_for(split::pass_key(site, sat, cfg.max_days), || None);
        if sweep::stats().computes != before {
            failures.push((
                op_name.to_string(),
                format!(
                    "{}×{}/{} missing from the pass cache",
                    site.code, sat.constellation, sat.sat_id
                ),
            ));
            continue;
        }
        let (start, end) = split::site_window(site, cfg.max_days);
        let fresh = sweep::predictor_with_mode(
            opts.ephemeris,
            opts.visibility,
            CullingMode::Off,
            split::grid_key(site, sat, cfg.max_days),
            &sat.sgp4,
            site.geodetic(),
            satiot_core::calib::THEORETICAL_MASK_RAD,
        )
        .map(|p| p.passes(start, end))
        .unwrap_or_default();
        if *cached != fresh {
            failures.push((
                op_name.to_string(),
                format!(
                    "{}×{}/{}: cached {} passes, unculled prediction {}",
                    site.code,
                    sat.constellation,
                    sat.sat_id,
                    cached.len(),
                    fresh.len()
                ),
            ));
        }
    }
    failures
}
