//! The job catalogue: which programs run under which strategies on each
//! workload, their reference outcomes, and the correctness gate.

use crate::stats::{shuffle, SplitMix64};
use lazylocks::{CancelToken, ExploreStats, StrategyRegistry};
use lazylocks_fuzz::{default_oracle_specs, generate, ground_truth, Agreement, ShapeProfile};
use lazylocks_model::Program;
use std::sync::Arc;

pub const EXPECTED_TSV: &str = include_str!("../expected.tsv");
pub const PINNED_TSV: &str = include_str!("../pinned.tsv");

/// The schedule budget of every job that runs to completion: far above
/// the largest fixed job, so hitting it is a failure, not a verdict.
pub const FULL_LIMIT: usize = 1_000_000;

/// DFS budget for the ground truth of generated programs.
const TRUTH_BUDGET: usize = 200_000;

/// The reference outcome of one program.
#[derive(Clone, Debug)]
pub struct Reference {
    pub verdict: String,
    pub states: usize,
    /// `None` when the class count is too large to confirm.
    pub hbrs: Option<usize>,
    pub lazy_hbrs: usize,
    /// Where the reference came from.
    pub source: String,
}

/// What a job's strategy promises against the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contract {
    /// The strategy's documented agreement level (the fuzz oracle's table).
    Oracle(Agreement),
    /// A run stopped by its schedule budget: verdict `limit-hit`, exactly
    /// `limit` schedules, and every class count within the reference.
    Budgeted,
}

#[derive(Clone)]
pub struct Job {
    /// Stable index within the workload's catalogue.
    pub id: usize,
    /// Human label, e.g. `rw-r3-w1 dpor`.
    pub label: String,
    pub program: Arc<Program>,
    pub source: String,
    pub spec: String,
    pub limit: usize,
    pub minimize: bool,
    pub reference: Reference,
    pub contract: Contract,
    /// The exact outcome of this fixed job (its own row of `pinned.tsv`);
    /// `None` for generated jobs, which the contract alone gates.
    pub pinned: Option<Observed>,
}

/// The counters the gate compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observed {
    pub verdict: String,
    pub schedules: usize,
    pub states: usize,
    pub hbrs: usize,
    pub lazy_hbrs: usize,
}

impl Observed {
    pub fn from_stats(verdict: &str, stats: &ExploreStats) -> Observed {
        Observed {
            verdict: verdict.to_string(),
            schedules: stats.schedules,
            states: stats.unique_states,
            hbrs: stats.unique_hbrs,
            lazy_hbrs: stats.unique_lazy_hbrs,
        }
    }
}

/// What the gate concluded about one result.
pub enum Check {
    Pass,
    /// Within the strategy's contract, but some class count is below the
    /// reference (the sleep-set class loss of ROADMAP item 1, for one).
    /// Reported, never hidden, and not a failure.
    ClassLoss(String),
    Mismatch(String),
}

impl Job {
    pub fn check(&self, got: &Observed) -> Check {
        let r = &self.reference;
        let mut errors = Vec::new();
        if let Some(p) = &self.pinned {
            if got.verdict != p.verdict {
                errors.push(format!("verdict {} != pinned {}", got.verdict, p.verdict));
            }
            for (what, want, have) in [
                ("schedules", p.schedules, got.schedules),
                ("states", p.states, got.states),
                ("hbrs", p.hbrs, got.hbrs),
                ("lazy_hbrs", p.lazy_hbrs, got.lazy_hbrs),
            ] {
                if want != have {
                    errors.push(format!("{what} {have} != pinned {want}"));
                }
            }
        }
        let mut losses = Vec::new();
        let mut exact = |what: &str, want: usize, have: usize| {
            if want != have {
                errors.push(format!("{what} {have} != {want}"));
            }
        };
        let (full, states_exact) = match self.contract {
            Contract::Oracle(Agreement::FullParity) => (true, true),
            Contract::Oracle(Agreement::StateParity) => (false, true),
            _ => (false, false),
        };
        if states_exact {
            exact("states", r.states, got.states);
            exact("lazy_hbrs", r.lazy_hbrs, got.lazy_hbrs);
        }
        if full {
            if let Some(h) = r.hbrs {
                exact("hbrs", h, got.hbrs);
            }
        }
        let mut bounded = |what: &str, bound: usize, have: usize, report_loss: bool| {
            if have > bound {
                errors.push(format!("{what} {have} exceeds reference {bound}"));
            } else if have < bound && report_loss {
                losses.push(format!("{what} {have} of {bound}"));
            }
        };
        let report_loss = self.contract == Contract::Oracle(Agreement::BugParity);
        if !states_exact {
            bounded("states", r.states, got.states, report_loss);
            bounded("lazy_hbrs", r.lazy_hbrs, got.lazy_hbrs, report_loss);
        }
        if !full {
            // Strategies that track the lazy relation explore one run per
            // lazy class by design; fewer regular classes is not a loss.
            let regular_loss = report_loss && r.hbrs.is_some() && !self.spec.contains("lazy");
            bounded("hbrs", r.hbrs.unwrap_or(usize::MAX), got.hbrs, regular_loss);
        }
        bounded("hbrs", got.schedules, got.hbrs, false);
        match self.contract {
            Contract::Budgeted => {
                if got.verdict != "limit-hit" {
                    errors.push(format!("verdict {} != limit-hit", got.verdict));
                }
                if got.schedules != self.limit {
                    errors.push(format!(
                        "schedules {} != limit {}",
                        got.schedules, self.limit
                    ));
                }
            }
            Contract::Oracle(_) => {
                if got.verdict != r.verdict {
                    errors.push(format!("verdict {} != {}", got.verdict, r.verdict));
                }
            }
        }
        if !errors.is_empty() {
            Check::Mismatch(errors.join(", "))
        } else if !losses.is_empty() {
            Check::ClassLoss(losses.join(", "))
        } else {
            Check::Pass
        }
    }
}

/// Parses `expected.tsv`.
pub fn reference_table() -> Vec<(String, Reference, Vec<String>)> {
    EXPECTED_TSV
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 6, "expected.tsv: bad row {line:?}");
            let num = |s: &str| s.parse::<usize>().expect("expected.tsv: bad count");
            let reference = Reference {
                verdict: f[1].to_string(),
                states: num(f[2]),
                hbrs: (f[3] != "-").then(|| num(f[3])),
                lazy_hbrs: num(f[4]),
                source: format!("expected.tsv ({})", f[5]),
            };
            let confirmers = f[5].split(';').map(str::to_string).collect();
            (f[0].to_string(), reference, confirmers)
        })
        .collect()
}

/// Parses `pinned.tsv`: `((program, spec, limit), outcome)` per row.
pub fn pinned_table() -> Vec<((String, String, usize), Observed)> {
    PINNED_TSV
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 8, "pinned.tsv: bad row {line:?}");
            let num = |s: &str| s.parse::<usize>().expect("pinned.tsv: bad count");
            let key = (f[0].to_string(), f[1].to_string(), num(f[2]));
            let outcome = Observed {
                verdict: f[3].to_string(),
                schedules: num(f[4]),
                states: num(f[5]),
                hbrs: num(f[6]),
                lazy_hbrs: num(f[7]),
            };
            (key, outcome)
        })
        .collect()
}

/// The `pinned.tsv` row of one job, as the file writes it.
pub fn pinned_row(job: &Job, got: &Observed) -> String {
    let program = job.program.name();
    format!(
        "{program}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        job.spec, job.limit, got.verdict, got.schedules, got.states, got.hbrs, got.lazy_hbrs
    )
}

pub fn contract_for(spec: &str) -> Contract {
    default_oracle_specs()
        .into_iter()
        .find(|o| o.spec == spec)
        .map(|o| Contract::Oracle(o.agreement))
        .unwrap_or_else(|| panic!("spec {spec:?} has no oracle contract"))
}

/// A job over a suite program with its reference from `expected.tsv` and
/// its exact outcome from `pinned.tsv` (left unset by `--derive`, which
/// re-derives that row).
fn fixed(id: usize, bench: &str, spec: &str, limit: usize, minimize: bool, pin: bool) -> Job {
    let program = lazylocks_suite::by_name(bench)
        .unwrap_or_else(|| panic!("unknown suite program {bench}"))
        .program;
    let reference = reference_table()
        .into_iter()
        .find(|(name, ..)| name == bench)
        .unwrap_or_else(|| panic!("{bench} missing from expected.tsv"))
        .1;
    let contract = if limit < FULL_LIMIT {
        Contract::Budgeted
    } else {
        contract_for(spec)
    };
    Job {
        id,
        label: format!(
            "{bench} {spec}{}",
            if limit < FULL_LIMIT {
                format!(" limit={limit}")
            } else {
                String::new()
            }
        ),
        source: program.to_source(),
        program: Arc::new(program),
        spec: spec.to_string(),
        limit,
        minimize,
        reference,
        contract,
        pinned: pin.then(|| {
            pinned_table()
                .into_iter()
                .find(|((p, s, l), _)| p == bench && s == spec && *l == limit)
                .unwrap_or_else(|| panic!("{bench} {spec} limit={limit} missing from pinned.tsv"))
                .1
        }),
    }
}

/// The fixed part of a workload's job mix, in catalogue order. The
/// `service-jobs` and `lease-chain` mixes are run by the traced probes.
pub fn fixed_jobs(workload: &str) -> Vec<Job> {
    catalogue(workload, true)
}

/// Every catalogue, unpinned: the jobs `--derive` pins.
pub fn all_unpinned() -> Vec<Job> {
    CATALOGUES
        .iter()
        .flat_map(|w| catalogue(w, false))
        .collect()
}

/// Every workload and probe with a fixed job catalogue.
pub const CATALOGUES: [&str; 4] = [
    "exhaustive-dpor",
    "lazy-caching",
    "service-jobs",
    "lease-chain",
];

fn catalogue(workload: &str, pin: bool) -> Vec<Job> {
    let specs: &[(&str, &str, usize, bool)] = match workload {
        "exhaustive-dpor" => &[
            ("rw-r3-w1", "dpor(sleep=true)", FULL_LIMIT, false),
            ("rw-r3-w1", "dpor", FULL_LIMIT, false),
            ("rw-r3-w1", "lazy-dpor", FULL_LIMIT, false),
            (
                "rw-r3-w1",
                "parallel(reduction=dpor, workers=2)",
                FULL_LIMIT,
                false,
            ),
            ("coarse-mixed-t4", "dpor(sleep=true)", FULL_LIMIT, false),
        ],
        "lazy-caching" => &[
            ("coarse-mixed-t5", "caching(mode=lazy)", FULL_LIMIT, false),
            ("coarse-mixed-t4", "caching(mode=lazy)", FULL_LIMIT, false),
            ("coarse-mixed-t4", "caching", FULL_LIMIT, false),
            ("rw-r3-w1", "caching", FULL_LIMIT, false),
            ("rw-r3-w1", "caching(mode=lazy)", FULL_LIMIT, false),
            ("coarse-mixed-t5", "caching", 50_000, false),
        ],
        "service-jobs" => &[
            ("philosophers-naive-4", "dpor(sleep=true)", FULL_LIMIT, true),
            (
                "accounts-fine-deadlock2",
                "dpor(sleep=true)",
                FULL_LIMIT,
                true,
            ),
            (
                "accounts-fine-deadlock3",
                "dpor(sleep=true)",
                FULL_LIMIT,
                true,
            ),
            ("dekker", "dpor(sleep=true)", FULL_LIMIT, true),
            ("workqueue-w3-i2", "lazy-dpor", FULL_LIMIT, false),
            (
                "philosophers-ordered-4",
                "dpor(sleep=true)",
                FULL_LIMIT,
                false,
            ),
            ("fine-t3-e3", "dpor(sleep=true)", FULL_LIMIT, false),
            ("rw-r3-w1", "dpor(sleep=true)", FULL_LIMIT, false),
        ],
        "lease-chain" => &[
            ("rw-r3-w1", "dpor", FULL_LIMIT, false),
            ("coarse-mixed-t4", "dpor(sleep=true)", FULL_LIMIT, false),
        ],
        other => panic!("unknown workload {other}"),
    };
    specs
        .iter()
        .enumerate()
        .map(|(i, &(bench, spec, limit, minimize))| fixed(i, bench, spec, limit, minimize, pin))
        .collect()
}

/// The generated part of a workload's mix: `(profile, size, count, spec)`.
pub fn generated_plan(workload: &str) -> Option<(ShapeProfile, usize, usize, &'static str)> {
    match workload {
        "exhaustive-dpor" => Some((ShapeProfile::DataRaceRich, 2, 4, "dpor")),
        "lazy-caching" => Some((ShapeProfile::LockHeavy, 1, 5, "caching(mode=lazy)")),
        _ => None,
    }
}

/// Draws the workload's generated programs (with the spec each runs
/// under) from `seed`. The program under test sees only these inputs.
pub fn draw_generated(workload: &str, seed: u64) -> Vec<(Program, &'static str)> {
    let Some((profile, size, count, spec)) = generated_plan(workload) else {
        return Vec::new();
    };
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..count)
        .map(|i| {
            let name = format!("gen-{}-{i}", profile.name());
            (generate(profile, size, &name, &mut rng), spec)
        })
        .collect()
}

/// The generated jobs, each with its reference from exhaustive DFS
/// ground truth (the fuzz oracle's), computed here, outside every timed
/// phase.
pub fn generated_jobs(workload: &str, seed: u64, first_id: usize) -> Result<Vec<Job>, String> {
    let registry = StrategyRegistry::default();
    draw_generated(workload, seed)
        .into_iter()
        .enumerate()
        .map(|(i, (program, spec))| {
            let name = program.name().to_string();
            let truth = ground_truth(&program, &registry, TRUTH_BUDGET, 0, &CancelToken::new())
                .map_err(|e| format!("{name}: {e}"))?
                .ok_or_else(|| format!("{name}: ground truth exceeds {TRUTH_BUDGET} schedules"))?;
            let reference = Reference {
                verdict: truth.outcome.verdict.to_string(),
                states: truth.outcome.stats.unique_states,
                hbrs: Some(truth.outcome.stats.unique_hbrs),
                lazy_hbrs: truth.lazy_hbrs,
                source: "dfs ground truth".to_string(),
            };
            Ok(Job {
                id: first_id + i,
                label: format!("{name} {spec} (seed {seed})"),
                source: program.to_source(),
                program: Arc::new(program),
                spec: spec.to_string(),
                limit: FULL_LIMIT,
                minimize: false,
                reference,
                contract: contract_for(spec),
                pinned: None,
            })
        })
        .collect()
}

/// Every job of the workload for `seed`.
pub fn workload_jobs(workload: &str, seed: u64) -> Result<Vec<Job>, String> {
    let mut jobs = fixed_jobs(workload);
    let generated = generated_jobs(workload, seed, jobs.len())?;
    jobs.extend(generated);
    Ok(jobs)
}

/// One pass's job order, drawn from the run's RNG.
pub fn pass_order(jobs: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).collect();
    shuffle(&mut order, rng);
    order
}
