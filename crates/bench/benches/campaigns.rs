//! End-to-end campaign throughput: how fast a simulated measurement day
//! runs. These are the numbers that bound full-scale `reproduce_all`.

use criterion::{criterion_group, criterion_main, Criterion};
use satiot_core::prelude::*;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

fn bench_campaigns(c: &mut Criterion) {
    // Hermetic defaults: ephemeris grids, visibility sweep and culling on.
    let opts = RunOptions::default();
    let mut group = c.benchmark_group("campaigns");
    group.sample_size(10);

    group.bench_function("passive_hk_1day", |b| {
        b.iter(|| {
            let mut cfg = PassiveConfig::quick(1.0);
            cfg.sites.retain(|s| s.code == "HK");
            cfg.parallel = false;
            PassiveCampaign::new(cfg).run(&opts).unwrap()
        })
    });

    // The sweep-pool payoff: a three-site day, sharded one
    // *(site × satellite)* prediction task at a time across the work
    // queue. The cache is cleared inside each iteration, so this
    // measures a cold-cache sweep.
    group.bench_function("passive_multisite_pool", |b| {
        b.iter(|| {
            satiot_core::sweep::clear();
            let mut cfg = PassiveConfig::quick(1.0);
            cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ" | "SH"));
            cfg.parallel = true;
            PassiveCampaign::new(cfg).run(&opts).unwrap()
        })
    });

    // Warm-cache repeat of the pooled sweep: what every campaign after
    // the first costs inside `reproduce_all` and the ablation binaries
    // (prediction amortised away; only simulation remains).
    group.bench_function("passive_multisite_pool_warm", |b| {
        b.iter(|| {
            let mut cfg = PassiveConfig::quick(1.0);
            cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ" | "SH"));
            cfg.parallel = true;
            PassiveCampaign::new(cfg).run(&opts).unwrap()
        })
    });

    group.bench_function("active_1day", |b| {
        b.iter(|| {
            ActiveCampaign::new(ActiveConfig::quick(1.0))
                .run(&opts)
                .unwrap()
        })
    });

    group.bench_function("terrestrial_30day", |b| {
        b.iter(|| {
            TerrestrialCampaign::new(TerrestrialConfig {
                days: 30.0,
                ..Default::default()
            })
            .run()
            .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_campaigns);
criterion_main!(benches);
