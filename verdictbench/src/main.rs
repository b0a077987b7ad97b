//! verdictbench — time to verdict of lazylocks in-process, with a traced
//! run for per-layer numbers that also probes the service and lease-chain
//! paths.
//!
//! ```text
//! verdictbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! verdictbench --derive
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! `--derive` re-confirms `expected.tsv` against its listed strategies
//! and `pinned.tsv` against repeated runs of every fixed job.
//! See README.md for the workloads, metrics and the layer map.

mod inproc;
mod jobs;
mod layers;
mod service;
mod spans;
mod stats;

use jobs::{Check, Job, Observed};
use spans::Spans;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 2] = ["exhaustive-dpor", "lazy-caching"];

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("mix_s", "s"),
    ("mix_s_tail", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("lazy_classes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that does not
/// exercise a layer reports 0 for it (README.md lists which do).
pub const PER_LAYER: [(&str, &str); 67] = [
    ("clock.join_ns", "ns"),
    ("clock.compare_ns", "ns"),
    ("model.parse_us", "us"),
    ("runtime.step_ns", "ns"),
    ("runtime.state_fp_ns", "ns"),
    ("hbr.apply_ns.regular", "ns"),
    ("hbr.apply_ns.lazy", "ns"),
    ("hbr.trace_fp_ns.regular", "ns"),
    ("hbr.trace_fp_ns.lazy", "ns"),
    ("hbr.prefix_absorb_ns", "ns"),
    ("explore.wall_s", "s"),
    ("explore.schedules", "count"),
    ("explore.events", "count"),
    ("explore.events_per_s", "1/s"),
    ("explore.schedules_per_s", "1/s"),
    ("explore.redundancy.hbr", "ratio"),
    ("explore.redundancy.lazy", "ratio"),
    ("explore.events_compared_per_event", "ratio"),
    ("explore.sleep_prunes", "count"),
    ("explore.cache_prunes", "count"),
    ("explore.cache_prune_ratio", "ratio"),
    ("explore.frames_pooled", "count"),
    ("explore.subtrees_stolen", "count"),
    ("explore.parallel_eff", "ratio"),
    ("explore.predicted_ns_per_event", "ns"),
    ("explore.measured_ns_per_event", "ns"),
    ("explore.unattributed_pct", "%"),
    ("explore.minimize_ms", "ms"),
    ("obs.metrics_tax_pct", "%"),
    ("obs.metrics_tax_pct.q1", "%"),
    ("obs.metrics_tax_pct.q3", "%"),
    ("obs.profile_tax_pct", "%"),
    ("obs.profile_tax_pct.q1", "%"),
    ("obs.profile_tax_pct.q3", "%"),
    ("obs.triples", "count"),
    ("obs.phase.executor_step_ns", "ns"),
    ("obs.phase.hbr_apply_ns", "ns"),
    ("obs.phase.race_detection_ns", "ns"),
    ("trace.drive_overhead_ms", "ms"),
    ("trace.result_bytes", "bytes"),
    ("trace.result_codec_us", "us"),
    ("trace.artifact_save_ms", "ms"),
    ("trace.replay_ms", "ms"),
    ("trace.checkpoint_bytes", "bytes"),
    ("trace.checkpoint_codec_ms", "ms"),
    ("server.setup_ms", "ms"),
    ("server.mix_s", "s"),
    ("server.job_ms_p50", "ms"),
    ("server.job_ms_tail", "ms"),
    ("server.submit_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.polls_per_job", "count"),
    ("server.job_overhead_ms", "ms"),
    ("lease.claim_ms", "ms"),
    ("lease.result_ms", "ms"),
    ("lease.run_slice_ms", "ms"),
    ("lease.slices_per_job", "count"),
    ("lease.grant_bytes", "bytes"),
    ("lease.result_bytes", "bytes"),
    ("lease.chain_tax", "ratio"),
    ("lease.inline_slices", "count"),
    ("lease.reassigned", "count"),
    ("bench.traced_mix_s", "s"),
    ("bench.untraced_mix_s", "s"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.self_s.explore", "s"),
    ("bench.self_s.server", "s"),
];

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 31;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Arc<Spans>,
    /// Scratch and report directory inside the working directory.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty per-run directory under `out_dir`.
    pub fn temp_dir(&self, tag: &str) -> PathBuf {
        let dir = self.out_dir.join(format!(
            "tmp-{}-{}-{tag}",
            std::process::id(),
            self.workload
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create scratch directory");
        dir
    }
}

/// Per-run bookkeeping shared by every workload, behind one mutex so
/// client threads can record into it.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed jobs with their mismatch, deduplicated.
    pub failures: BTreeSet<String>,
    /// Class losses within a strategy's contract (reported, not failed).
    pub losses: BTreeSet<String>,
    /// Per-job time to verdict, in ms.
    pub job_ms: Vec<f64>,
    /// The same samples by job label.
    pub by_job: BTreeMap<String, Vec<f64>>,
}

impl Tally {
    /// Gates one finished job and records its time to verdict.
    pub fn record(&mut self, job: &Job, got: Result<Observed, String>, ms: f64) {
        self.attempted += 1;
        self.job_ms.push(ms);
        self.by_job.entry(job.label.clone()).or_default().push(ms);
        let verdict = match got {
            Ok(observed) => job.check(&observed),
            Err(e) => Check::Mismatch(e),
        };
        match verdict {
            Check::Pass => {}
            Check::ClassLoss(what) => {
                self.losses.insert(format!(
                    "{} (ref: {}): {what}",
                    job.label, job.reference.source
                ));
            }
            Check::Mismatch(what) => self.fail(format!("{}: {what}", job.label)),
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.insert(what);
    }

    /// Takes over the gate results of another tally (a warm-up pass, a
    /// probe); its timings are not samples of this run.
    pub fn absorb_gate(&mut self, warm: &Tally) {
        self.attempted += warm.attempted;
        self.failed += warm.failed;
        self.failures.extend(warm.failures.iter().cloned());
        self.losses.extend(warm.losses.iter().cloned());
    }
}

pub type SharedTally = Arc<Mutex<Tally>>;

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Wall time of each measured pass, in seconds.
    pub passes: Vec<f64>,
    /// Distinct lazy-HBR classes reached over all measured passes.
    pub lazy_classes: u64,
    /// Peak resident memory over one pass over the mix, in MiB: the peak
    /// is reset after set-up and the references (see `peak_reset`).
    pub peak_rss_mb: f64,
    /// Whether the kernel reset the peak before the warm-up pass. If not,
    /// `peak_rss_mb` also covers set-up and the references.
    pub peak_reset: bool,
    /// `stats::cpu_ticks` when the timed passes began.
    pub ticks_at_start: (u64, u64),
    /// Per-layer metrics (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("verdictbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--derive") {
        return derive();
    }
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {WORKLOADS:?})"
        ));
    }
    let seed: u64 = value("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create .bench_out: {e}"))?;
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds: seconds.max(1.0),
        trace,
        spans: Arc::new(Spans::new(trace)),
        out_dir,
    };
    let tally: SharedTally = Arc::default();
    let mut measured = inproc::run(&ctx, &tally)?;
    if trace && workload == "exhaustive-dpor" {
        service::service_probe(&ctx, &tally, &mut measured.layer)?;
    }
    let tally = tally.lock().unwrap();
    report(&ctx, &tally, measured)
}

fn report(ctx: &Ctx, tally: &Tally, mut m: Measured) -> Result<(), String> {
    let pass_s: f64 = m.passes.iter().sum();
    let mix_tail = stats::quantile(&m.passes, stats::MIX_TAIL_Q);
    let job_tail = stats::quantile(&tally.job_ms, stats::JOB_TAIL_Q);
    let beyond = |v: &[f64], t: f64| v.iter().filter(|&&x| x > t).count();
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&m.setup_s)),
        ("mix_s", stats::median(&m.passes)),
        ("mix_s_tail", mix_tail),
        ("job_ms_p50", stats::median(&tally.job_ms)),
        ("job_ms_tail", job_tail),
        (
            "lazy_classes_per_s",
            m.lazy_classes as f64 / pass_s.max(1e-9),
        ),
        ("peak_rss_mb", m.peak_rss_mb),
    ]
    .into_iter()
    .collect();
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;

    println!(
        "verdictbench workload={} seed={} seconds={} trace={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let note = |name: &str| match name {
        "setup_s" => format!("median of {} set-ups between the passes", m.setup_s.len()),
        "mix_s" => format!("median of {} passes", m.passes.len()),
        "mix_s_tail" => format!(
            "p{:.0} of {} passes, {} beyond it",
            stats::MIX_TAIL_Q * 100.0,
            m.passes.len(),
            beyond(&m.passes, mix_tail)
        ),
        "job_ms_p50" => format!("median of {} jobs", tally.job_ms.len()),
        "job_ms_tail" => format!(
            "p{:.0} of {} jobs, {} beyond it",
            stats::JOB_TAIL_Q * 100.0,
            tally.job_ms.len(),
            beyond(&tally.job_ms, job_tail)
        ),
        "lazy_classes_per_s" => format!("{} classes over {pass_s:.3} s of passes", m.lazy_classes),
        "peak_rss_mb" => format!(
            "over the warm-up pass{}; {:.1} MB at the end",
            if m.peak_reset {
                ""
            } else {
                " (peak reset refused: set-up included)"
            },
            stats::peak_rss_mb()
        ),
        _ => String::new(),
    };
    for (name, unit) in END_TO_END {
        println!("  {name:<20} {:>14.6} {unit:<6} {}", e2e[name], note(name));
    }
    println!(
        "  {:<20} {:>14.6} {:<6} {} of {} jobs",
        "failed_ratio", failed_ratio, "ratio", tally.failed, tally.attempted
    );
    let (steal, total) = stats::cpu_ticks();
    let (steal0, total0) = m.ticks_at_start;
    println!(
        "  host steal {:.1}% of CPU time during the passes (wall times grow with it)",
        100.0 * steal.saturating_sub(steal0) as f64 / total.saturating_sub(total0).max(1) as f64
    );
    let passes: Vec<String> = m.passes.iter().map(|p| format!("{p:.4}")).collect();
    println!("  passes (s): {}", passes.join(" "));
    let setups: Vec<String> = m.setup_s.iter().map(|p| format!("{p:.5}")).collect();
    println!("  set-ups (s): {}", setups.join(" "));
    for (label, samples) in &tally.by_job {
        println!(
            "  job {label:<58} median {:>10.3} ms, p90 {:>10.3}, max {:>10.3}, n {}",
            stats::median(samples),
            stats::quantile(samples, 0.9),
            stats::quantile(samples, 1.0),
            samples.len()
        );
    }
    for f in &tally.failures {
        println!("  FAILED {f}");
        eprintln!("verdictbench: FAILED {f}");
    }
    for l in &tally.losses {
        println!("  class-loss {l}");
    }

    let metrics: Vec<(&str, &str, f64)> = if ctx.trace {
        let spans = ctx.spans.snapshot();
        // Self time per layer, per pass of each kind that ran traced.
        for (window, count, layer, key) in [
            (
                "pass",
                "bench.traced_passes",
                "explore",
                "bench.self_s.explore",
            ),
            (
                "service-pass",
                "bench.service_passes",
                "server",
                "bench.self_s.server",
            ),
        ] {
            let passes = m.layer.get(count).copied().unwrap_or(0.0);
            if passes == 0.0 {
                continue;
            }
            let self_time = spans::self_time_by_layer(&spans, window);
            for (l, secs) in &self_time {
                println!(
                    "  self time {l:<8} {:.6} s per traced {window}",
                    secs / passes
                );
            }
            m.layer
                .insert(key, self_time.get(layer).copied().unwrap_or(0.0) / passes);
        }
        println!("  {} spans recorded", spans.len());
        let path = ctx
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        std::fs::write(&path, spans::to_jsonl(&spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
        for (name, unit) in PER_LAYER {
            println!(
                "  {name:<36} {:>16.6} {unit}",
                m.layer.get(name).copied().unwrap_or(0.0)
            );
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, m.layer.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n, u, e2e[n])).collect()
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Wall time of `f` together with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Re-runs every confirming strategy of `expected.tsv` and diffs the
/// outcome against the table (and the verdict against the suite's
/// `Expectations`). Exits non-zero on any disagreement.
fn derive() -> Result<(), String> {
    let mut bad = 0;
    for (bench, reference, confirmers) in jobs::reference_table() {
        let b = lazylocks_suite::by_name(&bench).ok_or(format!("unknown program {bench}"))?;
        let expects_bug = b.expect.expects_bug();
        if expects_bug != (reference.verdict == "bug-found") {
            println!(
                "{bench}: verdict {} contradicts Expectations",
                reference.verdict
            );
            bad += 1;
        }
        let mut agree = [0usize; 4];
        for spec in &confirmers {
            let session = lazylocks::ExploreSession::new(&b.program)
                .with_config(lazylocks::ExploreConfig::with_limit(5_000_000));
            let (outcome, took) = timed(|| session.run_spec(spec));
            let outcome = outcome.map_err(|e| e.to_string())?;
            let s = &outcome.stats;
            let fields = [
                outcome.verdict.to_string() == reference.verdict,
                s.unique_states == reference.states,
                reference.hbrs.is_none_or(|h| s.unique_hbrs == h),
                s.unique_lazy_hbrs == reference.lazy_hbrs,
            ];
            for (a, ok) in agree.iter_mut().zip(fields) {
                *a += ok as usize;
            }
            println!(
                "{bench:<26} {spec:<38} {:<10} states={} hbrs={} lazy={} schedules={} ({:.3} s)",
                outcome.verdict.to_string(),
                s.unique_states,
                s.unique_hbrs,
                s.unique_lazy_hbrs,
                s.schedules,
                took.as_secs_f64()
            );
        }
        if agree.iter().any(|&a| a < 2) {
            println!(
                "{bench}: a reference value is confirmed by fewer than two strategies {agree:?}"
            );
            bad += 1;
        }
    }
    if bad > 0 {
        return Err(format!("{bad} reference row(s) not confirmed"));
    }
    println!("expected.tsv confirmed");
    derive_pins()
}

/// How often `--derive` runs each fixed job: every run must give the
/// same outcome, or the job cannot be pinned.
const PIN_RUNS: usize = 3;

/// Runs every fixed job `PIN_RUNS` times the way the benchmark does and
/// diffs the outcome against its `pinned.tsv` row. Prints each job's row
/// as the file writes it, so a deliberate change can be re-pinned.
fn derive_pins() -> Result<(), String> {
    let pinned = jobs::pinned_table();
    let mut seen = BTreeSet::new();
    let mut bad = 0;
    for job in jobs::all_unpinned() {
        let key = (job.program.name().to_string(), job.spec.clone(), job.limit);
        if !seen.insert(key.clone()) {
            continue;
        }
        let mut outcomes = Vec::new();
        for _ in 0..PIN_RUNS {
            let r = inproc::drive_job(&job, inproc::job_config(&job))?;
            outcomes.push(Observed::from_stats(
                &r.outcome.verdict.to_string(),
                &r.outcome.stats,
            ));
        }
        let got = &outcomes[0];
        println!("{}", jobs::pinned_row(&job, got));
        if outcomes.iter().any(|o| o != got) {
            println!("  not deterministic over {PIN_RUNS} runs: {outcomes:?}");
            bad += 1;
        }
        match pinned.iter().find(|(k, _)| *k == key) {
            Some((_, want)) if want == got => {}
            Some((_, want)) => {
                println!("  differs from pinned.tsv: {want:?}");
                bad += 1;
            }
            None => {
                println!("  missing from pinned.tsv");
                bad += 1;
            }
        }
        match job.check(got) {
            Check::Pass => {}
            Check::ClassLoss(what) => println!("  class-loss against expected.tsv: {what}"),
            Check::Mismatch(what) => {
                println!("  contradicts expected.tsv: {what}");
                bad += 1;
            }
        }
    }
    for (key, _) in &pinned {
        if !seen.contains(key) {
            println!("pinned.tsv row {key:?} belongs to no job");
            bad += 1;
        }
    }
    if bad > 0 {
        return Err(format!("{bad} pinned job(s) not confirmed"));
    }
    println!("pinned.tsv confirmed");
    Ok(())
}
