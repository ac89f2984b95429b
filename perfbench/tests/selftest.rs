//! Self-tests of the benchmark's own machinery: the tail-percentile
//! rule, `/proc` parsing, digest stability across thread counts, the
//! traced split's equivalence, and operation/failure accounting.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use satiot_core::passive::{PassiveConfig, SchedulerKind};
use satiot_core::sweep_server::{SweepJob, SweepServer};
use satiot_core::{ActiveCampaign, ActiveConfig, PassiveCampaign, RunOptions};
use satiot_perfbench::ledger::{parse_reference, Ledger};
use satiot_perfbench::run::{latency_stats, parse_args, result_line, Metric, Outcome};
use satiot_perfbench::stats::{median, tail, tail_rank};
use satiot_perfbench::trace::TraceCtx;
use satiot_perfbench::workloads::{sweep_queue, Workload, SWEEP_ROUNDS};
use satiot_perfbench::{digest, procfs, split};
use satiot_scenarios::ScenarioSpec;
use std::collections::BTreeMap;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_above() {
    assert_eq!(
        tail_rank(10),
        None,
        "ten samples leave no percentile ten below the top"
    );
    assert_eq!(tail_rank(11), Some((100.0 / 11.0, 0)));
    assert_eq!(tail_rank(40), Some((75.0, 29)));
    assert_eq!(tail_rank(110), Some((100.0 * 100.0 / 110.0, 99)));
    // 1..=40 in scrambled order: the 30th value leaves 31..=40 above.
    let values: Vec<f64> = (1..=40).map(|i| ((i * 17) % 40 + 1) as f64).collect();
    assert_eq!(tail(&values), Some((75.0, 30.0)));
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn latency_stats_go_per_unit_only_with_twenty_operations_each() {
    // Two units of 20: each unit's tail is its 10th value (p50), and
    // the run reports the median over units.
    let a: Vec<f64> = (1..=20).map(f64::from).collect();
    let b: Vec<f64> = (1..=20).map(|i| f64::from(i) * 2.0).collect();
    let (p50, t, pct, n) = latency_stats(&[a, b]);
    assert_eq!((pct, n), (50.0, 20));
    assert_eq!(p50, (10.5 + 21.0) / 2.0);
    assert_eq!(t, (10.0 + 20.0) / 2.0);
    // Twelve units of one operation: pooled, tail at rank 2 of 12.
    let units: Vec<Vec<f64>> = (1..=12).map(|i| vec![f64::from(i)]).collect();
    let (p50, t, pct, n) = latency_stats(&units);
    assert_eq!((p50, t, n), (6.5, 2.0, 12));
    assert!((pct - 100.0 * 2.0 / 12.0).abs() < 1e-12);
    // Too few to have a tail at all: the maximum, labelled p100.
    let (_, t, pct, n) = latency_stats(&[vec![1.0, 5.0, 2.0]]);
    assert_eq!((t, pct, n), (5.0, 100.0, 3));
}

#[test]
fn proc_parsing() {
    // The command name may hold spaces and parentheses.
    let stat = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                250 75 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
    assert_eq!(procfs::parse_stat_cpu_s(stat), Some(3.25));
    assert_eq!(procfs::parse_stat_cpu_s("garbage"), None);
    let status = "Name:\tperfbench\nVmPeak:\t  409600 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
    assert_eq!(procfs::parse_status_hwm_mb(status), Some(200.0));
    assert_eq!(procfs::parse_status_hwm_mb("VmHWM: 12 MB\n"), None);
    assert_eq!(procfs::parse_status_hwm_mb("Name: x\n"), None);
    // And the live files parse.
    assert!(procfs::cpu_s() >= 0.0);
    assert!(procfs::peak_rss_mb() > 0.0);
}

fn small_passive() -> PassiveConfig {
    let scenario = ScenarioSpec::tianqi_hk().build().expect("builtin scenario");
    PassiveConfig::from_scenario(&scenario)
}

/// Outputs, and so digests, must not depend on the thread count; the
/// traced split must not change them either. Kept in one test: the
/// caches these runs clear are process-wide.
#[test]
fn digests_agree_across_thread_counts_and_the_traced_split() {
    let cfg = small_passive();
    let jobs: Vec<SweepJob> = (0..3)
        .map(|i| {
            SweepJob::new(format!("t{i}"), 40 + i)
                .with_max_days(0.5)
                .with_sites(["HK", "SYD"])
                .with_constellations(["Tianqi", "FOSSA"])
        })
        .collect();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    for threads in [1, 2] {
        let opts = RunOptions::default().with_threads(Some(threads));
        satiot_core::sweep::clear();
        let passive = PassiveCampaign::new(cfg.clone()).run(&opts).expect("runs");
        let active = ActiveCampaign::new(ActiveConfig::quick(0.5))
            .run(&opts)
            .expect("runs");
        let sweep = SweepServer::new(opts).run(&jobs).expect("runs");
        let mut d = vec![digest::passive(&passive), digest::active(&active)];
        d.extend(sweep.records.iter().map(digest::job));
        digests.push(d);

        // The traced split of the same campaign: identical output, and
        // the campaign call after it computes nothing.
        satiot_core::sweep::clear();
        let mut t = TraceCtx::default();
        split::prime_passive(&cfg, &opts, &mut t);
        let (traced, check) =
            split::served_from_cache(|| PassiveCampaign::new(cfg.clone()).run(&opts));
        assert_eq!(check, Ok(()));
        assert_eq!(
            digest::passive(&traced.expect("runs")),
            digest::passive(&passive)
        );
        assert!(t.tr.total_s("orbit.ephemeris.build") > 0.0);
    }
    assert_eq!(
        digests[0], digests[1],
        "digests changed with the thread count"
    );
    // Distinct jobs digest differently.
    assert_ne!(digests[0][2], digests[0][3]);
}

#[test]
fn ledger_counts_each_failed_operation_once() {
    let mut l = Ledger::default();
    let a = l.record("passive", Ok(7));
    l.record("job:j00", Err("rejected".into()));
    l.record("passive", Ok(8)); // A repeat that disagrees.
    assert_eq!((l.attempted(), l.failed()), (3, 1));
    l.fail(a, "cross-check".into());
    l.fail(a, "second cross-check".into());
    assert_eq!(l.failed(), 2, "one operation failing twice counts once");
    l.check_repeats();
    assert_eq!(l.failed(), 3, "the disagreeing repeat fails");
    assert_eq!(l.failures().len(), 4);

    // Reference digests: a mismatch and a missing entry both fail.
    let mut l = Ledger::default();
    l.record("passive", Ok(0xab));
    l.record("reports", Ok(0xcd));
    l.record("terrestrial", Ok(0xef));
    let text = "# comment\nmegashell passive 00000000000000ab\n\
                paper_full passive 00000000000000ab  # trailing\n\
                paper_full reports 0000000000000000\n";
    let reference = parse_reference(text, "paper_full");
    assert_eq!(
        reference,
        BTreeMap::from([("passive".to_string(), 0xab), ("reports".to_string(), 0)])
    );
    l.check_reference(&reference);
    assert_eq!((l.attempted(), l.failed()), (3, 2));
}

#[test]
fn sweep_queue_shape_is_seed_independent() {
    let vanilla = |dwell_s| SchedulerKind::Vanilla { dwell_s };
    for seed in [1, 2, 99] {
        let q = sweep_queue(seed);
        assert_eq!(q, sweep_queue(seed), "same seed, same queue");
        assert_ne!(q, sweep_queue(seed + 1), "the seed draws the job seeds");
        assert_eq!(q.len(), 3 * SWEEP_ROUNDS);
        for round in q.chunks(3) {
            // Each batch keeps its consumer's shape: job count, sites,
            // day cap, schedulers and seed pattern.
            let [ablation, cost, bench] = round else {
                unreachable!()
            };
            assert_eq!(ablation.consumer, "exp_ablation_scheduler");
            assert_eq!(
                ablation
                    .jobs
                    .iter()
                    .map(|j| j.scheduler)
                    .collect::<Vec<_>>(),
                [SchedulerKind::Predictive, vanilla(600.0), vanilla(1_800.0)]
            );
            assert!(ablation.jobs.iter().all(|j| j.max_days == 14.0
                && j.sites == ["HK"]
                && j.seed == ablation.jobs[0].seed));
            assert_eq!(cost.consumer, "exp_extension_cost");
            assert_eq!(cost.jobs.len(), 5);
            assert!(cost.jobs.iter().all(|j| j.max_days == 2.0
                && j.sites == ["HK"]
                && j.scheduler == SchedulerKind::Predictive));
            assert_eq!(bench.consumer, "bench_report");
            assert_eq!(bench.jobs.len(), 8);
            assert!(bench.jobs.iter().all(|j| j.max_days == 2.0
                && j.sites.is_empty()
                && j.scheduler == SchedulerKind::Predictive));
            for batch in [cost, bench] {
                for (i, job) in batch.jobs.iter().enumerate() {
                    assert_eq!(job.seed, batch.jobs[0].seed + i as u64);
                }
            }
        }
        let jobs: Vec<&SweepJob> = q.iter().flat_map(|b| &b.jobs).collect();
        let mut tags: Vec<&str> = jobs.iter().map(|j| j.tag.as_str()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), jobs.len(), "operation names are unique");
        for job in jobs {
            job.to_config().expect("every job is valid");
        }
    }
}

#[test]
fn command_line_and_result_line() {
    let args: Vec<String> = [
        "--workload",
        "megashell",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let a = parse_args(&args).expect("parses");
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Workload::Megashell, 7, 3.0, true)
    );
    assert!(!a.setup_only);
    let setup_only: Vec<String> = ["--workload", "megashell", "--setup-only"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(parse_args(&setup_only).expect("parses").setup_only);
    for bad in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "megashell", "--trace", "2"],
        &["--workload", "megashell", "--seconds", "0"],
        &["--workload", "megashell", "--bogus"],
    ] {
        let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err(), "{bad:?} must be rejected");
    }
    let o = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![Metric {
            name: "wall_s",
            value: 1.25,
            unit: "s",
        }],
        ..Outcome::default()
    };
    assert_eq!(
        result_line(&o),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
         \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
    );
}
