//! One benchmark run: the timed loop (`--trace 0`) or the traced run
//! (`--trace 1`), their metrics, and the result line.

use crate::ledger::{parse_reference, Ledger};
use crate::procfs;
use crate::stats::{median, tail};
use crate::trace::{Counters, TraceCtx};
use crate::workloads::{
    cache_work, volume, CacheWork, PendingOp, Setup, Volume, Workload, DEFAULT_SEED,
};
use satiot_core::sweep;
use satiot_core::RunOptions;
use satiot_orbit::cull;
use std::fmt::Write as _;
use std::time::Instant;

/// Committed digests of every operation under [`DEFAULT_SEED`].
pub const REFERENCE: &str = include_str!("../digests.txt");

/// Set-up time samples per set-up process.
pub const SETUP_REPS: usize = 31;

/// Fresh processes that each sample the set-up time, spread over the
/// run. A process's own samples agree closely, but their median moves
/// from process to process, so `setup_s` is the median over several.
pub const SETUP_PROCS: usize = 9;

/// Minimum duration of one set-up time sample, seconds.
pub const SETUP_SAMPLE_S: f64 = 0.005;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print `<workload> <op> <digest>` lines for the run's operations
    /// instead of checking them against the committed digests.
    pub emit_digests: bool,
    /// Only sample the set-up time and print its median: the child
    /// process a `--trace 0` run starts for each `setup_s` sample.
    pub setup_only: bool,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--emit-digests] [--setup-only]`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut emit_digests = false;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--emit-digests" => emit_digests = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        emit_digests,
        setup_only,
    })
}

/// Worker threads: the machine's parallelism, capped at two so results
/// from machines of different sizes stay comparable.
pub fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The run's options, built explicitly (the environment is not read):
/// full scale, full trace sink, every fast path on, metrics off.
pub fn options(threads: usize) -> RunOptions {
    RunOptions::default()
        .with_threads(Some(threads))
        .with_metrics(false)
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: the result line's fields plus notes for the stamp.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Extra facts recorded in the stamp (`key`, JSON value).
    pub notes: Vec<(&'static str, String)>,
    /// Failure reasons, for standard error.
    pub problems: Vec<String>,
    /// `<workload> <op> <digest>` lines of the first digest per op.
    pub digests: Vec<String>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Start a unit from empty caches, as a fresh process would.
fn cold_start() {
    sweep::clear();
    cull::reset_stats();
}

/// One untraced unit's measurements.
struct Unit {
    wall_s: f64,
    cpu_s: f64,
    latencies: Vec<f64>,
    volume: Volume,
}

/// Set up and run the workload once from cold caches; digests are
/// taken after the clock stops.
fn run_unit(
    w: Workload,
    seed: u64,
    opts: &RunOptions,
    ledger: &mut Ledger,
) -> Result<(Unit, Setup, Vec<PendingOp>), String> {
    cold_start();
    let (cpu0, t0) = (procfs::cpu_s(), Instant::now());
    let setup = w.setup(seed, opts)?;
    let ops = w.run(&setup, opts, None);
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), procfs::cpu_s() - cpu0);
    record(ledger, &ops);
    // Job latency is a sweep notion; elsewhere the job is the whole unit.
    let latencies = match w {
        Workload::SweepMixed => ops.iter().map(|o| o.latency_s).collect(),
        Workload::PaperFull | Workload::Megashell => vec![wall_s],
    };
    let unit = Unit {
        wall_s,
        cpu_s,
        latencies,
        volume: volume(&ops),
    };
    Ok((unit, setup, ops))
}

/// Record each operation with its digest.
fn record(ledger: &mut Ledger, ops: &[PendingOp]) {
    for op in ops {
        ledger.record(&op.name, op.digest());
    }
}

/// Mark cross-check failures on the latest operation of their name.
fn record_failures(ledger: &mut Ledger, failures: Vec<(String, String)>) {
    for (name, why) in failures {
        let idx = ledger
            .ops()
            .iter()
            .rposition(|o| o.name == name)
            .expect("a cross-check names a recorded operation");
        ledger.fail(idx, why);
    }
}

/// Run the benchmark as `args` asks.
pub fn run(args: &Args) -> Outcome {
    let threads = thread_count();
    let opts = options(threads).apply();
    let mut ledger = Ledger::default();
    let mut out = if args.trace {
        traced(args, &opts, threads, &mut ledger)
    } else {
        timed(args, &opts, &mut ledger)
    };
    ledger.check_repeats();
    if args.seed == DEFAULT_SEED && !args.emit_digests {
        ledger.check_reference(&parse_reference(REFERENCE, args.workload.name()));
    }
    out.attempted = ledger.attempted();
    out.failed = ledger.failed();
    out.problems.extend(
        ledger
            .failures()
            .into_iter()
            .map(|(op, why)| format!("{op}: {why}")),
    );
    out.correct = out.problems.is_empty() && out.attempted > 0;
    out.digests = ledger
        .first_digests()
        .into_iter()
        .map(|(op, d)| format!("{} {op} {d:016x}", args.workload.name()))
        .collect();
    out.notes.push(("threads", threads.to_string()));
    out
}

/// `--trace 0`: repeat cold units until `--seconds` have passed and
/// report every end-to-end metric as a median over units.
fn timed(args: &Args, opts: &RunOptions, ledger: &mut Ledger) -> Outcome {
    let w = args.workload;
    let start = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut out = Outcome::default();
    let (setup, ops) = loop {
        // Set-up processes are spread over the run like the units, so
        // that their median spans it, not one moment of it.
        let due = (start.elapsed().as_secs_f64() / args.seconds * SETUP_PROCS as f64) as usize + 1;
        let unit = setup_processes(args, &mut setups, due.min(SETUP_PROCS))
            .and_then(|()| run_unit(w, args.seed, opts, ledger));
        let (unit, setup, ops) = match unit {
            Ok(u) => u,
            Err(e) => {
                ledger.record("setup", Err(e));
                return out;
            }
        };
        units.push(unit);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break (setup, ops);
        }
    };
    if let Err(e) = setup_processes(args, &mut setups, SETUP_PROCS) {
        ledger.record("setup", Err(e));
        return out;
    }
    let peak_rss_mb = procfs::peak_rss_mb();
    let (extra, failures) = w.cross_check(&setup, &ops, opts, args.seed);
    record(ledger, &extra);
    record_failures(ledger, failures);
    out.notes.push(("fingerprints", fingerprints_json(&setup)));
    drop((setup, ops, extra));

    let med = |f: &dyn Fn(&Unit) -> f64| {
        median(&units.iter().map(f).collect::<Vec<_>>()).expect("at least one unit")
    };
    let lat: Vec<Vec<f64>> = units.iter().map(|u| u.latencies.clone()).collect();
    let (job_p50, job_tail, tail_pct, tail_n) = latency_stats(&lat);
    out.metrics = vec![
        m("wall_s", med(&|u| u.wall_s), "s"),
        m("setup_s", median(&setups).expect("set-ups ran"), "s"),
        m("cpu_s", med(&|u| u.cpu_s), "s"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
        m(
            "passes_per_s",
            med(&|u| u.volume.passes as f64 / u.wall_s),
            "1/s",
        ),
        m(
            "traces_per_s",
            med(&|u| u.volume.traces as f64 / u.wall_s),
            "1/s",
        ),
        m(
            "jobs_per_s",
            med(&|u| u.latencies.len() as f64 / u.wall_s),
            "1/s",
        ),
        m("job_p50_s", job_p50, "s"),
        m("job_tail_s", job_tail, "s"),
    ];
    out.notes.push(("units", units.len().to_string()));
    out.notes
        .push(("setup_samples", (SETUP_PROCS * SETUP_REPS).to_string()));
    out.notes
        .push(("job_tail_percentile", format!("{tail_pct:.2}")));
    out.notes.push(("job_tail_samples", tail_n.to_string()));
    out
}

/// Start set-up processes, one after another, until `setups` holds
/// `target` medians.
fn setup_processes(args: &Args, setups: &mut Vec<f64>, target: usize) -> Result<(), String> {
    while setups.len() < target {
        setups.push(setup_process(args)?);
    }
    Ok(())
}

/// The median set-up time of one fresh process: this program run with
/// `--setup-only`.
fn setup_process(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up process: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    match String::from_utf8_lossy(&out.stdout).trim().parse::<f64>() {
        Ok(v) if out.status.success() && v > 0.0 => Ok(v),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// `--setup-only`: the median of [`SETUP_REPS`] set-up time samples in
/// this process.
pub fn setup_median(args: &Args) -> Result<f64, String> {
    let opts = options(thread_count()).apply();
    args.workload.setup(args.seed, &opts)?;
    Ok(median(&setup_samples(args.workload, args.seed, &opts, SETUP_REPS)).expect("samples"))
}

/// `n` samples of the set-up time, each the mean of enough
/// back-to-back set-ups to last [`SETUP_SAMPLE_S`]. A few set-ups
/// first warm the allocator and caches; the fastest of them sizes the
/// batch, since a cold first set-up would make it too small.
fn setup_samples(w: Workload, seed: u64, opts: &RunOptions, n: usize) -> Vec<f64> {
    let once = || {
        let t0 = Instant::now();
        let s = w.setup(seed, opts);
        let secs = t0.elapsed().as_secs_f64();
        drop(s);
        secs
    };
    let fastest = (0..5).map(|_| once()).fold(f64::INFINITY, f64::min);
    let batch = (SETUP_SAMPLE_S / fastest).ceil().clamp(1.0, 100_000.0) as usize;
    (0..n)
        .map(|_| (0..batch).map(|_| once()).sum::<f64>() / batch as f64)
        .collect()
}

/// Job latency median and tail. With at least 20 jobs in every unit,
/// each unit yields its own median and tail (whose percentile then sits
/// at or above the median) and the run reports the medians of those;
/// otherwise the units' latencies are pooled.
/// Returns `(p50, tail, tail percentile, samples per tail)`.
pub fn latency_stats(units: &[Vec<f64>]) -> (f64, f64, f64, usize) {
    let per_unit = units.iter().all(|u| u.len() >= 20);
    if per_unit {
        let p50: Vec<f64> = units.iter().filter_map(|u| median(u)).collect();
        let tails: Vec<(f64, f64)> = units.iter().filter_map(|u| tail(u)).collect();
        let tv: Vec<f64> = tails.iter().map(|t| t.1).collect();
        (
            median(&p50).unwrap_or(0.0),
            median(&tv).unwrap_or(0.0),
            tails[0].0,
            units[0].len(),
        )
    } else {
        let pooled: Vec<f64> = units.iter().flatten().copied().collect();
        let p50 = median(&pooled).unwrap_or(0.0);
        // Below 11 samples no percentile has ten above it; the maximum
        // is the only tail there is.
        let (pct, t) =
            tail(&pooled).unwrap_or_else(|| (100.0, pooled.iter().copied().fold(0.0, f64::max)));
        (p50, t, pct, pooled.len())
    }
}

fn fingerprints_json(setup: &Setup) -> String {
    let fps: Vec<String> = Workload::fingerprints(setup)
        .iter()
        .map(|f| format!("\"{f:016x}\""))
        .collect();
    format!("[{}]", fps.join(","))
}

/// `--trace 1`: pairs of one untraced unit, the overhead baseline, and
/// one traced unit with the layer split, repeated until `--seconds` have
/// passed. Each per-layer metric is its median over the pairs.
fn traced(args: &Args, opts: &RunOptions, threads: usize, ledger: &mut Ledger) -> Outcome {
    let w = args.workload;
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let (setup, ops, t) = loop {
        // Its cache counters are the sweep metrics.
        let baseline = run_unit(w, args.seed, opts, ledger)
            .map(|(unit, _, ops)| (unit.wall_s, cache_work(&ops)));
        let unit = baseline.and_then(|b| traced_unit(w, args.seed, opts, threads, b));
        let (setup, ops, t, metrics) = match unit {
            Ok(u) => u,
            Err(e) => {
                ledger.record("setup", Err(e));
                return out;
            }
        };
        record(ledger, &ops);
        out.problems
            .extend(t.attribution.iter().map(|e| format!("attribution: {e}")));
        samples.push(metrics);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break (setup, ops, t);
        }
    };
    let (extra, failures) = w.cross_check(&setup, &ops, opts, args.seed);
    record(ledger, &extra);
    record_failures(ledger, failures);
    out.metrics = samples[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            m(first.name, median(&values).expect("one sample"), first.unit)
        })
        .collect();
    out.notes.push(("traced_units", samples.len().to_string()));
    out.notes.push(("fingerprints", fingerprints_json(&setup)));

    let spans = t.tr.spans();
    let mut names: Vec<&str> = Vec::new();
    for sp in spans {
        if !names.contains(&sp.name) {
            names.push(sp.name);
        }
    }
    let mut table = String::new();
    for name in names {
        let count = spans.iter().filter(|sp| sp.name == name).count();
        let _ = writeln!(
            table,
            "  {name:<24} {count:>5} × {:>9.3} s",
            t.tr.total_s(name)
        );
    }
    eprintln!("spans of the last traced unit:\n{table}");
    out
}

/// Run one traced unit from cold caches, given the paired untraced
/// unit's wall time and cache counters, and compute its per-layer
/// metrics.
fn traced_unit(
    w: Workload,
    seed: u64,
    opts: &RunOptions,
    threads: usize,
    (untraced_wall, cache): (f64, CacheWork),
) -> Result<(Setup, Vec<PendingOp>, TraceCtx, Vec<Metric>), String> {
    cold_start();
    let topts = opts.with_metrics(true).apply();
    satiot_obs::metrics::reset();
    let mut t = TraceCtx::default();
    let (c0, cpu0, t0) = (Counters::read(), procfs::cpu_s(), Instant::now());
    let setup = match t.tr.span("scenarios.build", || w.setup(seed, &topts)) {
        Ok(s) => s,
        Err(e) => {
            opts.apply();
            return Err(e);
        }
    };
    let ops = w.run(&setup, &topts, Some(&mut t));
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_s() - cpu0;
    let c = Counters::read().since(&c0).since(&t.probe_counters);
    let culls = cull::stats();
    opts.apply();

    let (probe_s, layers_s) = t.tr.spans().iter().fold((0.0, 0.0), |(p, l), s| {
        if s.name.starts_with("probe.") {
            (p + s.dur_s(), l)
        } else {
            (p, l + s.dur_s())
        }
    });
    let wall = elapsed - probe_s;
    let busy = cpu - t.probe_cpu_s;
    let s = |name: &str| t.tr.total_s(name);
    let n = |name: &str| c.get(name) as f64;
    let vis_sweep = s("probe.visibility");
    let grid_build = s("orbit.ephemeris.build");
    let simulate = s("core.passive.simulate");
    let warm = s("probe.active_warm");
    let (pass_hits, grid_hits) = (
        cache.pass_lookups - cache.pass_computes,
        cache.grid_lookups - cache.grid_computes,
    );
    let metrics = vec![
        m("scenarios.build_s", s("scenarios.build"), "s"),
        m("orbit.ephemeris.build_s", grid_build, "s"),
        m(
            "orbit.ephemeris.grids",
            n("orbit.ephemeris.grids_built"),
            "count",
        ),
        m("orbit.sgp4.calls", n("orbit.sgp4.propagate_calls"), "count"),
        m(
            "orbit.sgp4.ns_per_call",
            ratio(grid_build * 1e9, t.grid_build_sgp4_calls as f64),
            "ns",
        ),
        m("orbit.cull.s", s("orbit.cull"), "s"),
        m(
            "orbit.cull.pairs_considered",
            culls.pairs_considered as f64,
            "count",
        ),
        m("orbit.cull.pairs_kept", culls.pairs_kept as f64, "count"),
        m(
            "orbit.cull.keep_ratio",
            ratio(culls.pairs_kept as f64, culls.pairs_considered as f64),
            "ratio",
        ),
        m("orbit.visibility.sweep_s", vis_sweep, "s"),
        m(
            "orbit.visibility.margins",
            n("orbit.visibility.margins"),
            "count",
        ),
        m(
            "orbit.pass.refine_s",
            (s("orbit.pass.predict") - vis_sweep).max(0.0),
            "s",
        ),
        m(
            "orbit.pass.passes",
            n("orbit.pass.passes_predicted"),
            "count",
        ),
        m(
            "orbit.pass.yield",
            ratio(
                n("orbit.pass.passes_predicted"),
                n("orbit.visibility.events") + n("orbit.visibility.candidates"),
            ),
            "ratio",
        ),
        m("core.sweep.pass_hits", pass_hits as f64, "count"),
        m(
            "core.sweep.pass_misses",
            cache.pass_computes as f64,
            "count",
        ),
        m("core.sweep.grid_hits", grid_hits as f64, "count"),
        m(
            "core.sweep.grid_misses",
            cache.grid_computes as f64,
            "count",
        ),
        m(
            "core.sweep.hit_ratio",
            ratio(
                (pass_hits + grid_hits) as f64,
                (cache.pass_lookups + cache.grid_lookups) as f64,
            ),
            "ratio",
        ),
        m("core.passive.simulate_s", simulate, "s"),
        m(
            "channel.batch.elements",
            n("channel.batch.elements"),
            "count",
        ),
        m(
            "channel.budget.samples",
            n("channel.budget.samples"),
            "count",
        ),
        m(
            "core.passive.ns_per_beacon",
            ratio(simulate * 1e9, n("core.passive.beacons_emitted")),
            "ns",
        ),
        m(
            "core.passive.decode_ratio",
            ratio(
                n("core.passive.beacons_decoded"),
                n("core.passive.beacons_emitted"),
            ),
            "ratio",
        ),
        m(
            "core.active.predict_s",
            (s("core.active.cold") - warm).max(0.0),
            "s",
        ),
        m("core.active.des_s", warm, "s"),
        m(
            "sim.engine.events",
            n("sim.engine.events_processed"),
            "count",
        ),
        m("terrestrial.s", s("terrestrial"), "s"),
        m("reports.render_s", s("reports.render"), "s"),
        m(
            "measure.sink.traces_retained",
            n("measure.sink.traces_retained"),
            "count",
        ),
        m("sim.pool.tasks", n("sim.pool.tasks_executed"), "count"),
        m("sim.pool.busy_s", busy, "s"),
        m(
            "sim.pool.idle_s",
            (threads as f64 * wall - busy).max(0.0),
            "s",
        ),
        m(
            "sim.pool.utilisation",
            ratio(busy, threads as f64 * wall),
            "ratio",
        ),
        m("trace.unattributed_s", wall - layers_s, "s"),
        m("trace.overhead_ratio", ratio(wall, untraced_wall), "ratio"),
    ];
    Ok((setup, ops, t, metrics))
}

/// The run's stamp: machine, toolchain, commit, options and notes, as
/// one JSON object.
pub fn stamp(args: &Args, opts: &RunOptions, notes: &[(&'static str, String)]) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \
         \"options\": {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit()),
        json_str(&format!("{opts:?}")),
    );
    for (k, v) in notes {
        let _ = write!(s, ", \"{k}\": {v}");
    }
    s.push_str("}}");
    s
}

/// The checked-out commit, read from `.git` under the working directory
/// when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match id.trim() {
        "" => "unknown".to_string(),
        id => id.to_string(),
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit (non-finite values become 0,
/// which JSON cannot otherwise hold).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
