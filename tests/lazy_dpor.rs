//! Empirical evaluation of the lazy-DPOR prototype (the paper's §4 future
//! work): how much reduction it buys and where it loses soundness, measured
//! against exhaustive ground truth.

use lazylocks::{DependenceMode, Dpor, ExploreConfig, Explorer};
use lazylocks_integration::exhaustible_benchmarks;

#[test]
fn lock_acquisition_style_preserves_states_on_the_exhaustible_corpus() {
    // The headline empirical claim for the prototype: on every benchmark
    // we can fully enumerate, lazy DPOR (lock-acquisition style) reaches
    // every distinct terminal state.
    let mut reductions = Vec::new();
    for (bench, truth) in exhaustible_benchmarks(6_000) {
        let lazy = Dpor {
            dependence: DependenceMode::LazyLockAcquisitions,
            ..Dpor::default()
        }
        .explore(&bench.program, &ExploreConfig::with_limit(200_000));
        assert!(!lazy.limit_hit, "{}", bench.name);
        assert_eq!(
            lazy.unique_states, truth.unique_states,
            "{}: lazy DPOR lost states",
            bench.name
        );
        assert_eq!(
            lazy.deadlocks > 0,
            truth.deadlocks > 0,
            "{}: lazy DPOR missed/invented deadlocks",
            bench.name
        );
        let regular = Dpor::default().explore(&bench.program, &ExploreConfig::with_limit(200_000));
        reductions.push((bench.name.clone(), regular.schedules, lazy.schedules));
    }
    // The prototype must actually *win* somewhere.
    let wins = reductions.iter().filter(|(_, r, l)| l < r).count();
    assert!(
        wins >= 5,
        "lazy DPOR should beat DPOR on several benchmarks; wins: {wins} of {}",
        reductions.len()
    );
}

#[test]
fn vars_only_style_documented_unsoundness_is_measurable() {
    // The aggressive style misses deadlocks by construction; quantify it.
    let mut missed_deadlocks = 0;
    let mut subjects = 0;
    for (bench, truth) in exhaustible_benchmarks(6_000) {
        if truth.deadlocks == 0 {
            continue;
        }
        subjects += 1;
        let stats = Dpor {
            dependence: DependenceMode::LazyVarsOnly,
            ..Dpor::default()
        }
        .explore(&bench.program, &ExploreConfig::with_limit(200_000));
        if stats.deadlocks == 0 {
            missed_deadlocks += 1;
        }
    }
    assert!(subjects > 0, "corpus must contain deadlocking benchmarks");
    assert!(
        missed_deadlocks > 0,
        "vars-only lazy DPOR should demonstrably miss deadlocks"
    );
}

#[test]
fn aggregate_schedule_counts_shrink_with_laziness() {
    // Per-benchmark monotonicity is not a theorem (the prototype trades
    // sleep sets for soundness, and deadlock programs can cost it extra
    // schedules), but across the exhaustible corpus the aggregate ordering
    // must hold: vars-only ≤ lock-acquisitions, and lock-acquisitions
    // comfortably below regular DPOR.
    let mut total_regular = 0usize;
    let mut total_lazy = 0usize;
    let mut total_vars = 0usize;
    for (bench, _) in exhaustible_benchmarks(3_000) {
        let config = ExploreConfig::with_limit(200_000);
        total_regular += Dpor::default().explore(&bench.program, &config).schedules;
        total_lazy += Dpor {
            dependence: DependenceMode::LazyLockAcquisitions,
            ..Dpor::default()
        }
        .explore(&bench.program, &config)
        .schedules;
        total_vars += Dpor {
            dependence: DependenceMode::LazyVarsOnly,
            ..Dpor::default()
        }
        .explore(&bench.program, &config)
        .schedules;
    }
    assert!(
        total_vars <= total_lazy,
        "aggregate: vars-only {total_vars} > lock-acquisitions {total_lazy}"
    );
    assert!(
        total_lazy < total_regular,
        "aggregate: lazy {total_lazy} not below regular {total_regular}"
    );
}

#[test]
fn flagship_reduction_on_coarse_disjoint() {
    // The pattern §1 motivates: coarse lock, disjoint data. Regular DPOR
    // explores n! lock orders; lazy DPOR explores 1.
    for n in [2, 3, 4] {
        let bench = lazylocks_suite::by_name(&format!("coarse-disjoint-t{n}-r1")).unwrap();
        let config = ExploreConfig::with_limit(200_000);
        let regular = Dpor::default().explore(&bench.program, &config);
        let lazy = Dpor {
            dependence: DependenceMode::LazyLockAcquisitions,
            ..Dpor::default()
        }
        .explore(&bench.program, &config);
        let factorial: usize = (1..=n).product();
        assert_eq!(
            regular.schedules, factorial,
            "n={n}: DPOR explores n! orders"
        );
        assert_eq!(lazy.schedules, 1, "n={n}: lazy DPOR explores one");
        assert_eq!(lazy.unique_states, regular.unique_states);
    }
}
