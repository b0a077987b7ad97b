//! The workloads: `exhaustive-dpor` and `lazy-caching`.
//!
//! One thread runs the seed-shuffled job mix in-process through
//! `lazylocks_trace::drive`, pass after pass, until the run's time is up.

use crate::jobs::{self, pass_order, Job, Observed};
use crate::layers::Driven;
use crate::spans::Open;
use crate::{layers, timed, Ctx, Measured, SharedTally, SETUP_REPEATS};
use lazylocks::{ExploreConfig, StrategyRegistry};
use lazylocks_model::Program;
use lazylocks_trace::{drive, DriveRequest, DriveResult};
use std::time::{Duration, Instant};

/// The exploration seed every job runs with (the workload seed only
/// orders the mix and draws the generated programs).
pub const JOB_SEED: u64 = 0;

/// Everything that must happen before a workload can take its first job:
/// build the suite programs, draw the generated ones, parse every job's
/// `.llk` source and resolve every spec.
pub fn setup_once(workload: &str, seed: u64) -> Result<usize, String> {
    let jobs = jobs::fixed_jobs(workload);
    let generated = jobs::draw_generated(workload, seed);
    let registry = StrategyRegistry::default();
    for job in &jobs {
        Program::parse(&job.source).map_err(|e| format!("{}: {e}", job.label))?;
        registry
            .create(&job.spec)
            .map_err(|e| format!("{}: {e}", job.label))?;
    }
    for (program, spec) in &generated {
        Program::parse(&program.to_source()).map_err(|e| format!("{}: {e}", program.name()))?;
        registry.create(spec).map_err(|e| format!("{spec}: {e}"))?;
    }
    Ok(jobs.len() + generated.len())
}

/// One set-up, timed, in seconds.
fn setup_sample(ctx: &Ctx) -> Result<f64, String> {
    let (r, took) = timed(|| setup_once(&ctx.workload, ctx.seed));
    r.map(|_| took.as_secs_f64())
}

/// Runs one job the way `lazylocks run` does.
pub fn drive_job(job: &Job, config: ExploreConfig) -> Result<DriveResult, String> {
    drive(
        DriveRequest::new(&job.program, &job.spec)
            .with_config(config)
            .minimizing(job.minimize),
    )
    .map_err(|e| format!("{}: {e}", job.label))
}

pub fn job_config(job: &Job) -> ExploreConfig {
    ExploreConfig::with_limit(job.limit).seeded(JOB_SEED)
}

/// One drive of `job`, timed and (when tracing) wrapped in spans.
pub fn traced_drive(
    ctx: &Ctx,
    job: &Job,
    parent: Option<u64>,
    traced: bool,
) -> (Result<DriveResult, String>, Duration) {
    let spans = &ctx.spans;
    let job_span = traced.then(|| spans.open("job", "bench", parent, Some(job.id as u64)));
    let drive_span = job_span.map(|j| spans.open("drive", "trace", j.id(), Some(job.id as u64)));
    let (result, took) = timed(|| drive_job(job, job_config(job)));
    if let (Some(d), Ok(r)) = (drive_span, &result) {
        let end = Instant::now();
        spans.derived(
            "explore",
            "explore",
            &d,
            end,
            r.outcome.stats.wall_time.as_nanos() as u64,
        );
        spans.close(d);
    }
    if let Some(j) = job_span {
        spans.close(j);
    }
    (result, took)
}

/// One pass over the mix in `order`; returns its wall time and the lazy
/// classes it reached. Gates each job into the tally and keeps its last
/// result for the traced run's layer metrics.
fn pass(
    ctx: &Ctx,
    jobs: &[Job],
    order: &[usize],
    tally: &SharedTally,
    span: Option<Open>,
    results: &mut [Option<Driven>],
) -> (f64, u64) {
    let start = Instant::now();
    let mut classes = 0u64;
    for &i in order {
        let job = &jobs[i];
        let (result, took) = traced_drive(ctx, job, span.and_then(|s| s.id()), span.is_some());
        let observed = result.as_ref().map(|r| {
            classes += r.outcome.stats.unique_lazy_hbrs as u64;
            Observed::from_stats(&r.outcome.verdict.to_string(), &r.outcome.stats)
        });
        let observed = observed.map_err(Clone::clone);
        tally
            .lock()
            .unwrap()
            .record(job, observed, took.as_secs_f64() * 1e3);
        results[i] = result.ok().map(|r| (r, took));
    }
    (start.elapsed().as_secs_f64(), classes)
}

/// One warm-up pass (gated, not timed), then timed passes until the run's
/// time is up. A traced run times half as long and alternates untraced
/// and traced passes, so the tracing overhead is measured under the same
/// conditions. `pass` runs one order of the `jobs` (under the pass span
/// when traced) and returns its wall time and the lazy classes it reached.
///
/// The repeated set-ups that `setup_s` takes its median from are spread
/// evenly over the timed passes, between them, so they see the same host
/// conditions as the passes rather than one moment at the start of the
/// process (a few milliseconds of set-up swing with the host far more than
/// a pass of a second or two does).
fn run_passes(
    ctx: &Ctx,
    m: &mut Measured,
    jobs: usize,
    tally: &SharedTally,
    mut pass: impl FnMut(&[usize], &SharedTally, Option<Open>) -> (f64, u64),
) -> Result<(), String> {
    let mut rng = crate::stats::SplitMix64::new(ctx.seed);
    let warm = SharedTally::default();
    // The peak so far belongs to set-up and the references, not the mix.
    m.peak_reset = crate::stats::reset_peak_rss();
    pass(&pass_order(jobs, &mut rng), &warm, None);
    tally.lock().unwrap().absorb_gate(&warm.lock().unwrap());
    m.peak_rss_mb = crate::stats::peak_rss_mb();

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    m.ticks_at_start = crate::stats::cpu_ticks();
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while started.elapsed().as_secs_f64() < budget || m.passes.len() < 2 {
        let due = 1 + (started.elapsed().as_secs_f64() / budget * SETUP_REPEATS as f64) as usize;
        while m.setup_s.len() < due.min(SETUP_REPEATS) {
            m.setup_s.push(setup_sample(ctx)?);
        }
        let is_traced = ctx.trace && m.passes.len() % 2 == 1;
        let order = pass_order(jobs, &mut rng);
        let span = is_traced.then(|| ctx.spans.open("pass", "bench", None, None));
        let (wall, classes) = pass(&order, tally, span);
        if let Some(s) = span {
            ctx.spans.close(s);
        }
        m.passes.push(wall);
        m.lazy_classes += classes;
        if is_traced {
            traced.push(wall);
        } else {
            plain.push(wall);
        }
    }
    while m.setup_s.len() < SETUP_REPEATS {
        m.setup_s.push(setup_sample(ctx)?);
    }
    if ctx.trace {
        layers::tracing_overhead(&mut m.layer, &plain, &traced);
        m.layer.insert("bench.traced_passes", traced.len() as f64);
    }
    Ok(())
}

pub fn run(ctx: &Ctx, tally: &SharedTally) -> Result<Measured, String> {
    let mut m = Measured {
        // The set-up that precedes the first job; `run_passes` repeats it.
        setup_s: vec![setup_sample(ctx)?],
        ..Measured::default()
    };
    // References (DFS ground truth of the generated programs) are
    // computed here, outside every timed phase.
    let jobs = jobs::workload_jobs(&ctx.workload, ctx.seed)?;
    let mut results: Vec<Option<Driven>> = (0..jobs.len()).map(|_| None).collect();
    run_passes(ctx, &mut m, jobs.len(), tally, |order, tally, span| {
        pass(ctx, &jobs, order, tally, span, &mut results)
    })?;
    if ctx.trace {
        let results: Vec<Driven> = results
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("a job failed to run; see FAILED lines")?;
        layers::in_process_layers(ctx, &mut m.layer, &jobs, &results)?;
    }
    Ok(m)
}
