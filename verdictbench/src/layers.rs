//! Per-layer measurements of the traced run: exploration counters, the
//! trace layer's codecs and persistence, the obs taxes as interleaved
//! triples, and micro-cells fed by seeded random walks.

use crate::inproc::job_config;
use crate::jobs::Job;
use crate::stats::{median, quantile, SplitMix64};
use crate::timed;
use lazylocks::{
    minimize_schedule, CheckpointState, ExploreConfig, ExploreSession, ExploreStats, MetricsHandle,
    Observer, ProfileHandle,
};
use lazylocks_clock::VectorClock;
use lazylocks_hbr::{event_record_hash, ClockEngine, HbMode, PrefixAccumulator};
use lazylocks_model::Program;
use lazylocks_runtime::{program_fingerprint, run_with_scheduler, Event, Executor};
use lazylocks_trace::{
    outcome_json, replay_embedded, CheckpointDoc, CorpusStore, DriveResult, Json, TraceArtifact,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub type Layer = BTreeMap<&'static str, f64>;

/// One drive per job, with its wall time as seen by the caller.
pub type Driven = (DriveResult, Duration);

pub fn tracing_overhead(layer: &mut Layer, plain: &[f64], traced: &[f64]) {
    let (p, t) = (median(plain), median(traced));
    layer.insert("bench.untraced_mix_s", p);
    layer.insert("bench.traced_mix_s", t);
    layer.insert("bench.tracing_overhead_pct", 100.0 * (t - p) / p.max(1e-12));
}

fn is_parallel(job: &Job) -> bool {
    job.spec.starts_with("parallel")
}

/// Exploration counters summed over one drive of every job; ratios are
/// pooled (total over total).
fn explore_metrics(layer: &mut Layer, jobs: &[Job], results: &[Driven]) {
    let mut total = ExploreStats::default();
    let mut wall = 0.0;
    for (r, _) in results {
        let s = &r.outcome.stats;
        total.schedules += s.schedules;
        total.events += s.events;
        total.unique_hbrs += s.unique_hbrs;
        total.unique_lazy_hbrs += s.unique_lazy_hbrs;
        total.sleep_prunes += s.sleep_prunes;
        total.cache_prunes += s.cache_prunes;
        total.events_compared += s.events_compared;
        total.frames_pooled += s.frames_pooled;
        total.subtrees_stolen += s.subtrees_stolen;
        wall += s.wall_time.as_secs_f64();
    }
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let events = total.events as f64;
    let schedules = total.schedules as f64;
    layer.insert("explore.wall_s", wall);
    layer.insert("explore.schedules", schedules);
    layer.insert("explore.events", events);
    layer.insert("explore.events_per_s", per(events, wall));
    layer.insert("explore.schedules_per_s", per(schedules, wall));
    layer.insert(
        "explore.redundancy.hbr",
        per(schedules, total.unique_hbrs as f64),
    );
    layer.insert(
        "explore.redundancy.lazy",
        per(schedules, total.unique_lazy_hbrs as f64),
    );
    layer.insert(
        "explore.events_compared_per_event",
        per(total.events_compared as f64, events),
    );
    layer.insert("explore.sleep_prunes", total.sleep_prunes as f64);
    layer.insert("explore.cache_prunes", total.cache_prunes as f64);
    layer.insert(
        "explore.cache_prune_ratio",
        per(
            total.cache_prunes as f64,
            (total.cache_prunes + total.schedules) as f64,
        ),
    );
    layer.insert("explore.frames_pooled", total.frames_pooled as f64);
    layer.insert("explore.subtrees_stolen", total.subtrees_stolen as f64);

    // Events/s of the two-worker DPOR job over the sequential `dpor` job
    // on the same program.
    let rate = |s: &ExploreStats| s.events_per_sec();
    for (i, job) in jobs.iter().enumerate() {
        if job.spec != "parallel(reduction=dpor, workers=2)" {
            continue;
        }
        let seq = jobs
            .iter()
            .position(|j| j.spec == "dpor" && j.program.name() == job.program.name());
        if let Some(k) = seq {
            let base = rate(&results[k].0.outcome.stats);
            layer.insert(
                "explore.parallel_eff",
                per(rate(&results[i].0.outcome.stats), base),
            );
        }
    }
}

/// Captures the frontier a stopped DPOR run emits.
#[derive(Default)]
struct Capture(Mutex<Option<CheckpointState>>);

impl Observer for Capture {
    fn on_checkpoint(&self, checkpoint: &CheckpointState) {
        *self.0.lock().unwrap() = Some(checkpoint.clone());
    }
}

/// The trace layer around each job: drive overhead, result codec,
/// minimisation, artifact persistence, replay and the checkpoint codec.
fn trace_metrics(
    ctx: &crate::Ctx,
    layer: &mut Layer,
    jobs: &[Job],
    results: &[Driven],
) -> Result<(), String> {
    let mut overhead = Vec::new();
    let (mut bytes, mut codec) = (Vec::new(), Vec::new());
    for (r, took) in results {
        overhead.push((took.as_secs_f64() - r.outcome.stats.wall_time.as_secs_f64()) * 1e3);
        let doc = outcome_json("p", "s", &r.outcome, &r.bugs, false, &[]);
        let reps = 20;
        let (len, t) = timed(|| {
            let mut len = 0;
            for _ in 0..reps {
                let text = black_box(&doc).encode();
                len = text.len();
                black_box(Json::parse(&text).expect("result document must round-trip"));
            }
            len
        });
        bytes.push(len as f64);
        codec.push(t.as_secs_f64() * 1e6 / reps as f64);
    }
    layer.insert("trace.drive_overhead_ms", median(&overhead));
    layer.insert("trace.result_bytes", median(&bytes));
    layer.insert("trace.result_codec_us", median(&codec));

    let dir = ctx.temp_dir("artifacts");
    let store = CorpusStore::open(&dir).map_err(|e| format!("corpus: {e}"))?;
    let (mut minimize, mut save, mut replay) = (Vec::new(), Vec::new(), Vec::new());
    for (job, (r, _)) in jobs.iter().zip(results) {
        for bug in &r.outcome.bugs {
            let (small, t) = timed(|| minimize_schedule(&job.program, bug));
            minimize.push(t.as_secs_f64() * 1e3);
            let artifact = TraceArtifact::from_bug(&job.program, &job.spec, 0, &small)
                .with_stats(&r.outcome.stats);
            let (saved, t) = timed(|| store.save_overwrite(&artifact));
            saved.map_err(|e| format!("artifact save: {e}"))?;
            save.push(t.as_secs_f64() * 1e3);
            let (report, t) = timed(|| replay_embedded(&artifact));
            let report = report.map_err(|e| format!("replay: {e}"))?;
            if !report.reproduced() {
                return Err(format!(
                    "{}: artifact did not reproduce: {}",
                    job.label, report.details
                ));
            }
            replay.push(t.as_secs_f64() * 1e3);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    layer.insert("explore.minimize_ms", median(&minimize));
    layer.insert("trace.artifact_save_ms", median(&save));
    layer.insert("trace.replay_ms", median(&replay));

    // Checkpoint codec: stop each sequential DPOR-family job halfway and
    // encode/decode the frontier it emits.
    let (mut cp_bytes, mut cp_codec) = (Vec::new(), Vec::new());
    for (job, (r, _)) in jobs.iter().zip(results) {
        if is_parallel(job) || !job.spec.contains("dpor") || r.outcome.stats.schedules < 4 {
            continue;
        }
        let capture = Arc::new(Capture::default());
        let config = ExploreConfig::with_limit(r.outcome.stats.schedules / 2)
            .seeded(0)
            .checkpointing_on_stop();
        ExploreSession::new(&job.program)
            .with_config(config)
            .observe_arc(capture.clone())
            .run_spec(&job.spec)
            .map_err(|e| e.to_string())?;
        let Some(state) = capture.0.lock().unwrap().take() else {
            continue;
        };
        let doc = CheckpointDoc {
            program_name: job.program.name().to_string(),
            program_fingerprint: program_fingerprint(&job.program),
            strategy_spec: job.spec.clone(),
            seed: 0,
            state,
        };
        let (text, t_enc) = timed(|| doc.to_json_string());
        let (back, t_dec) = timed(|| CheckpointDoc::parse(&text));
        back.map_err(|e| format!("checkpoint decode: {e}"))?;
        cp_bytes.push(text.len() as f64);
        cp_codec.push((t_enc + t_dec).as_secs_f64() * 1e3);
    }
    layer.insert("trace.checkpoint_bytes", median(&cp_bytes));
    layer.insert("trace.checkpoint_codec_ms", median(&cp_codec));
    Ok(())
}

/// `Program::parse` of every job's `.llk` source.
fn model_parse(layer: &mut Layer, jobs: &[Job]) {
    let reps = 50;
    let (_, t) = timed(|| {
        for _ in 0..reps {
            for job in jobs {
                black_box(Program::parse(black_box(&job.source)).expect("job source parses"));
            }
        }
    });
    layer.insert(
        "model.parse_us",
        t.as_secs_f64() * 1e6 / (reps * jobs.len()) as f64,
    );
}

/// Plain, metrics-enabled and profiled runs of every job, interleaved as
/// triples (rotating which configuration goes first). The taxes are
/// per-triple ratios against the plain run of the same triple.
fn overhead_triples(ctx: &crate::Ctx, layer: &mut Layer, jobs: &[Job]) {
    let (mut metrics_tax, mut profile_tax) = (Vec::new(), Vec::new());
    let (mut step, mut apply, mut race) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    let mut triples = 0usize;
    for job in jobs {
        let run = |config: ExploreConfig| {
            let span = ctx
                .spans
                .open("triple-run", "explore", None, Some(job.id as u64));
            let (outcome, t) = timed(|| {
                ExploreSession::new(&job.program)
                    .with_config(config)
                    .run_spec(&job.spec)
                    .expect("catalogue specs resolve")
            });
            ctx.spans.close(span);
            black_box(outcome);
            t.as_secs_f64()
        };
        // About 0.3 s of plain runs per job, at least two triples each,
        // so a traced run stays well inside its time limit on a busy host.
        let reps = ((0.3 / run(job_config(job)).max(1e-6)) as usize).clamp(2, 15);
        for k in 0..reps {
            let mut times = [0.0f64; 3];
            for slot in 0..3 {
                let which = (slot + k) % 3;
                let metrics = MetricsHandle::enabled();
                let config = match which {
                    0 => job_config(job),
                    1 => job_config(job).with_metrics(metrics.clone()),
                    _ => job_config(job).with_profile(ProfileHandle::enabled()),
                };
                times[which] = run(config);
                if which == 1 {
                    if let Some(snap) = metrics.snapshot() {
                        let add = |acc: &mut (u64, u64), name: &str| {
                            if let Some(m) = snap.get(name) {
                                acc.0 += m.total.sum();
                                acc.1 += m.total.count();
                            }
                        };
                        add(&mut step, "lazylocks_phase_executor_step_ns");
                        add(&mut apply, "lazylocks_phase_hbr_apply_ns");
                        add(&mut race, "lazylocks_phase_race_detection_ns");
                    }
                }
            }
            metrics_tax.push(100.0 * (times[1] / times[0] - 1.0));
            profile_tax.push(100.0 * (times[2] / times[0] - 1.0));
            triples += 1;
        }
    }
    for (name, v) in [
        ("obs.metrics_tax_pct", &metrics_tax),
        ("obs.profile_tax_pct", &profile_tax),
    ] {
        layer.insert(name, median(v));
    }
    layer.insert("obs.metrics_tax_pct.q1", quantile(&metrics_tax, 0.25));
    layer.insert("obs.metrics_tax_pct.q3", quantile(&metrics_tax, 0.75));
    layer.insert("obs.profile_tax_pct.q1", quantile(&profile_tax, 0.25));
    layer.insert("obs.profile_tax_pct.q3", quantile(&profile_tax, 0.75));
    layer.insert("obs.triples", triples as f64);
    let mean = |(sum, count): (u64, u64)| {
        if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        }
    };
    layer.insert("obs.phase.executor_step_ns", mean(step));
    layer.insert("obs.phase.hbr_apply_ns", mean(apply));
    layer.insert("obs.phase.race_detection_ns", mean(race));
}

/// Micro-cell costs of one program, from seeded random walks.
#[derive(Default, Clone, Copy)]
struct Cells {
    step_ns: f64,
    state_fp_ns: f64,
    apply_regular_ns: f64,
    apply_lazy_ns: f64,
    trace_fp_regular_ns: f64,
    trace_fp_lazy_ns: f64,
    absorb_ns: f64,
    join_ns: f64,
    compare_ns: f64,
}

/// Repeats `body` until at least `min` has elapsed; returns ns per unit
/// of `units_per_call`.
fn per_unit(units_per_call: usize, min: Duration, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < min {
        body();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (calls * units_per_call.max(1)) as f64
}

fn cells_for(program: &Program, rng: &mut SplitMix64) -> (Cells, usize) {
    const WALKS: usize = 64;
    let min = Duration::from_millis(30);
    let walks: Vec<(Vec<lazylocks_model::ThreadId>, Vec<Event>)> = (0..WALKS)
        .map(|_| {
            let run = run_with_scheduler(program, |exec| {
                let enabled = exec.enabled_threads();
                (!enabled.is_empty()).then(|| enabled[rng.gen_range(enabled.len())])
            })
            .expect("random walks pick enabled threads");
            (run.schedule, run.trace)
        })
        .collect();
    let events: usize = walks.iter().map(|(_, t)| t.len()).sum();
    let mut c = Cells::default();

    let fresh = Executor::new(program);
    let mut exec = Executor::new(program);
    c.step_ns = per_unit(events, min, || {
        for (schedule, _) in &walks {
            exec.assign_from(&fresh);
            for &t in schedule {
                black_box(exec.step(t));
            }
        }
    });
    let terminals: Vec<Executor> = walks
        .iter()
        .map(|(schedule, _)| {
            let mut e = Executor::new(program);
            for &t in schedule {
                e.step(t);
            }
            e
        })
        .collect();
    c.state_fp_ns = per_unit(terminals.len(), min, || {
        for e in &terminals {
            black_box(e.state_fingerprint());
        }
    });
    for (mode, apply, fp) in [
        (
            HbMode::Regular,
            &mut c.apply_regular_ns,
            &mut c.trace_fp_regular_ns,
        ),
        (HbMode::Lazy, &mut c.apply_lazy_ns, &mut c.trace_fp_lazy_ns),
    ] {
        let mut engine = ClockEngine::for_program(mode, program);
        *apply = per_unit(events, min, || {
            for (_, trace) in &walks {
                engine.reset();
                for e in trace {
                    black_box(engine.apply(e));
                }
            }
        });
        *fp = per_unit(walks.len(), min, || {
            for (_, trace) in &walks {
                black_box(engine.trace_fingerprint(trace));
            }
        });
    }
    // Prefix absorb (record hash + accumulate) over the clocks the
    // regular engine assigns each event.
    let mut engine = ClockEngine::for_program(HbMode::Regular, program);
    let mut clocked: Vec<(Event, VectorClock)> = Vec::with_capacity(events);
    for (_, trace) in &walks {
        engine.reset();
        for e in trace {
            let clock = engine.apply(e).clone();
            clocked.push((*e, clock));
        }
    }
    c.absorb_ns = per_unit(events, min, || {
        let mut acc = PrefixAccumulator::new();
        for (e, clock) in &clocked {
            acc.absorb(event_record_hash(e, clock));
        }
        black_box(acc.fingerprint());
    });
    if let Some((_, first)) = clocked.first() {
        let mut scratch = VectorClock::new(first.width());
        c.join_ns = per_unit(clocked.len(), min, || {
            scratch.clear();
            for (_, clock) in &clocked {
                scratch.join(black_box(clock));
            }
            black_box(&scratch);
        });
        c.compare_ns = per_unit(clocked.len().saturating_sub(1), min, || {
            for pair in clocked.windows(2) {
                black_box(pair[0].1.causal_cmp(&pair[1].1));
            }
        });
    }
    (c, events)
}

/// Micro-cells over each workload program, then the predicted ns/event
/// of the jobs' explorations against the measured one.
fn micro_cells(layer: &mut Layer, jobs: &[Job], results: &[Driven], seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0x6d69_6372_6f63_656c);
    let mut per_program: BTreeMap<String, Cells> = BTreeMap::new();
    let mut pooled = [0.0f64; 9];
    let mut weight = 0.0;
    for job in jobs {
        let name = job.program.name().to_string();
        if per_program.contains_key(&name) {
            continue;
        }
        let (c, events) = cells_for(&job.program, &mut rng);
        let w = events as f64;
        let values = [
            c.step_ns,
            c.state_fp_ns,
            c.apply_regular_ns,
            c.apply_lazy_ns,
            c.trace_fp_regular_ns,
            c.trace_fp_lazy_ns,
            c.absorb_ns,
            c.join_ns,
            c.compare_ns,
        ];
        for (p, v) in pooled.iter_mut().zip(values) {
            *p += v * w;
        }
        weight += w;
        per_program.insert(name, c);
    }
    let names = [
        "runtime.step_ns",
        "runtime.state_fp_ns",
        "hbr.apply_ns.regular",
        "hbr.apply_ns.lazy",
        "hbr.trace_fp_ns.regular",
        "hbr.trace_fp_ns.lazy",
        "hbr.prefix_absorb_ns",
        "clock.join_ns",
        "clock.compare_ns",
    ];
    for (name, p) in names.into_iter().zip(pooled) {
        layer.insert(name, p / weight.max(1.0));
    }

    // Predicted work: per event, a step plus a clock apply in the
    // relation the strategy tracks (plus the prefix absorb when caching);
    // per terminal, the state and both trace fingerprints. The parallel
    // job runs two workers, so it is left out of both sides.
    let (mut predicted, mut measured, mut events) = (0.0, 0.0, 0.0);
    for (job, (r, _)) in jobs.iter().zip(results) {
        if is_parallel(job) {
            continue;
        }
        let c = per_program[job.program.name()];
        let s = &r.outcome.stats;
        let lazy = job.spec.contains("lazy");
        let mut per_event = c.step_ns
            + if lazy {
                c.apply_lazy_ns
            } else {
                c.apply_regular_ns
            };
        if job.spec.starts_with("caching") {
            per_event += c.absorb_ns;
        }
        let per_terminal = c.state_fp_ns + c.trace_fp_regular_ns + c.trace_fp_lazy_ns;
        predicted += per_event * s.events as f64 + per_terminal * s.schedules as f64;
        measured += s.wall_time.as_nanos() as f64;
        events += s.events as f64;
    }
    let per_event = |ns: f64| if events > 0.0 { ns / events } else { 0.0 };
    layer.insert("explore.predicted_ns_per_event", per_event(predicted));
    layer.insert("explore.measured_ns_per_event", per_event(measured));
    layer.insert(
        "explore.unattributed_pct",
        if measured > 0.0 {
            100.0 * (measured - predicted) / measured
        } else {
            0.0
        },
    );
}

/// Every in-process layer metric over one drive of each job.
pub fn in_process_layers(
    ctx: &crate::Ctx,
    layer: &mut Layer,
    jobs: &[Job],
    results: &[Driven],
) -> Result<(), String> {
    explore_metrics(layer, jobs, results);
    trace_metrics(ctx, layer, jobs, results)?;
    micro_cells(layer, jobs, results, ctx.seed);
    overhead_triples(ctx, layer, jobs);
    model_parse(layer, jobs);
    Ok(())
}

/// Drives every job once (the in-process reference of the service and
/// lease paths), wrapped in spans when tracing.
pub fn reference_drives(ctx: &crate::Ctx, jobs: &[Job]) -> Result<Vec<Driven>, String> {
    jobs.iter()
        .map(|job| {
            let (r, took) = crate::inproc::traced_drive(ctx, job, None, ctx.trace);
            r.map(|r| (r, took))
        })
        .collect()
}
