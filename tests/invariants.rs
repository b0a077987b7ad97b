//! The paper's §3 counting inequality, asserted across the entire corpus
//! and every strategy:
//!
//! ```text
//! #states ≤ #lazy HBRs ≤ #HBRs ≤ #schedules ≤ limit
//! ```

use lazylocks::{ExploreConfig, ExploreSession, StrategyRegistry};

const LIMIT: usize = 1_500;

const SPECS: [&str; 7] = [
    "dfs",
    "dpor(sleep=true)",
    "dpor(sleep=false)",
    "caching",
    "caching(mode=lazy)",
    "lazy-dpor",
    "random",
];

#[test]
fn inequality_holds_for_every_benchmark_under_dpor() {
    for bench in lazylocks_suite::all() {
        let stats = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(LIMIT))
            .run_spec("dpor(sleep=true)")
            .unwrap()
            .stats;
        stats
            .check_inequality()
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            stats.schedules <= LIMIT,
            "{}: schedule limit not respected",
            bench.name
        );
    }
}

#[test]
fn inequality_holds_for_every_strategy_on_representatives() {
    // One representative per family keeps the full cross-product fast.
    let representatives = [
        "paper-figure1",
        "coarse-disjoint-t3-r1",
        "coarse-shared-t2-r2",
        "fine-t3-e2",
        "accounts-coarse-shared2",
        "accounts-fine-deadlock2",
        "buffer-c1-p1x1",
        "philosophers-naive-3",
        "rw-r1-w1",
        "indexer-t2-s2",
        "fs-t2-i2-b2",
        "lastzero-t2-n2",
        "peterson",
        "barrier-2-s1",
        "pipeline-2-s2",
        "workqueue-w2-i2",
    ];
    let registry = StrategyRegistry::default();
    for name in representatives {
        let bench = lazylocks_suite::by_name(name).unwrap_or_else(|| panic!("missing {name}"));
        let session =
            ExploreSession::new(&bench.program).with_config(ExploreConfig::with_limit(LIMIT));
        for spec in SPECS {
            let stats = session.run_with(&registry, spec).unwrap().stats;
            stats
                .check_inequality()
                .unwrap_or_else(|e| panic!("{name} under {spec}: {e}"));
        }
    }
}

#[test]
fn lazy_class_count_never_exceeds_regular_anywhere() {
    for bench in lazylocks_suite::all() {
        let stats = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(LIMIT))
            .run_spec("dpor(sleep=true)")
            .unwrap()
            .stats;
        assert!(
            stats.unique_lazy_hbrs <= stats.unique_hbrs,
            "{}: {} lazy classes > {} regular classes",
            bench.name,
            stats.unique_lazy_hbrs,
            stats.unique_hbrs
        );
    }
}

#[test]
fn mutex_free_benchmarks_sit_exactly_on_the_diagonal() {
    for bench in lazylocks_suite::all() {
        if !bench.program.mutexes().is_empty() {
            continue;
        }
        let stats = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(LIMIT))
            .run_spec("dfs")
            .unwrap()
            .stats;
        assert_eq!(
            stats.unique_hbrs, stats.unique_lazy_hbrs,
            "{}: mutex-free program must have identical relations",
            bench.name
        );
    }
}

/// Terminal fingerprints are prefix-memoised inside the collector. Each
/// regular-HBR witness must still carry the digest a from-scratch replay
/// of its schedule gives, for every engine that feeds the collector: the
/// sequential and parallel DPOR drivers, both caching modes and random.
#[test]
fn hbr_witness_fingerprints_match_a_from_scratch_replay() {
    use lazylocks_hbr::{ClockEngine, HbMode};
    let specs = [
        "dpor",
        "lazy-dpor",
        "caching",
        "caching(mode=lazy)",
        "parallel(reduction=dpor, workers=2)",
        "random",
    ];
    let mut per_family: std::collections::BTreeMap<&str, usize> = Default::default();
    let mut checked = 0usize;
    for bench in lazylocks_suite::all() {
        let taken = per_family.entry(bench.family).or_insert(0);
        *taken += 1;
        if *taken > 2 {
            continue;
        }
        let mut replay = ClockEngine::for_program(HbMode::Regular, &bench.program);
        for spec in specs {
            let mut config = ExploreConfig::with_limit(300);
            config.collect_state_witnesses = true;
            let stats = ExploreSession::new(&bench.program)
                .with_config(config)
                .run_spec(spec)
                .unwrap()
                .stats;
            assert!(!stats.hbr_witnesses.is_empty(), "{} {spec}", bench.name);
            for (fp, schedule) in &stats.hbr_witnesses {
                let run = lazylocks_runtime::run_schedule(&bench.program, schedule)
                    .unwrap_or_else(|e| panic!("{} {spec}: infeasible witness {e:?}", bench.name));
                assert_eq!(
                    replay.trace_fingerprint(&run.trace),
                    *fp,
                    "{} {spec}: witness {schedule:?}",
                    bench.name
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 1_000, "only {checked} witnesses checked");
}
