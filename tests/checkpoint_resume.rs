//! Crash-safe checkpoint/resume, full stack: engine → `CheckpointWriter`
//! → disk → `load_checkpoint` → a resumed session, compared against an
//! uninterrupted exploration of the same program.
//!
//! The core engine pins the in-memory parity (`dpor.rs` unit tests);
//! these tests pin the *durable* round trip — the serialized document on
//! disk carries everything a fresh process needs to finish the search
//! with identical statistics.

use lazylocks::{ExploreConfig, ExploreSession, ExploreStats, FrameSets};
use lazylocks_model::ThreadId;
use lazylocks_runtime::Executor;
use lazylocks_trace::{load_checkpoint, CheckpointDoc, CheckpointWriter, CHECKPOINT_FILE};
use std::path::PathBuf;
use std::sync::Arc;

const SPEC: &str = "dpor(sleep=true)";
const SEED: u64 = 7;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lazylocks-checkpoint-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every deterministic field must survive the interruption; `wall_time`
/// is clock-dependent and `frames_pooled` restarts from a cold pool, so
/// both are exempt by design.
fn assert_stats_match(resumed: &ExploreStats, full: &ExploreStats) {
    assert_eq!(resumed.schedules, full.schedules);
    assert_eq!(resumed.events, full.events);
    assert_eq!(resumed.unique_states, full.unique_states);
    assert_eq!(resumed.unique_hbrs, full.unique_hbrs);
    assert_eq!(resumed.unique_lazy_hbrs, full.unique_lazy_hbrs);
    assert_eq!(resumed.max_depth, full.max_depth);
    assert_eq!(resumed.deadlocks, full.deadlocks);
    assert_eq!(resumed.faulted_schedules, full.faulted_schedules);
    assert_eq!(resumed.sleep_prunes, full.sleep_prunes);
    assert_eq!(resumed.events_compared, full.events_compared);
    assert!(!resumed.limit_hit && !resumed.cancelled);
}

#[test]
fn resuming_a_limit_interrupted_run_matches_the_uninterrupted_stats() {
    let bench = lazylocks_suite::by_name("rw-r2-w1").expect("bench exists");
    let program = &bench.program;

    let full = ExploreSession::new(program)
        .with_config(ExploreConfig::with_limit(1_000_000).seeded(SEED))
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert!(
        full.schedules > 50 && !full.limit_hit,
        "bench too shallow for an interruption test: {} schedules",
        full.schedules
    );

    // Interrupt mid-search by exhausting a half-sized budget while a
    // CheckpointWriter persists the frontier every 10 schedules — the
    // in-process stand-in for a crash.
    let dir = temp_dir("parity");
    let writer = CheckpointWriter::new(&dir, program, SPEC, SEED).unwrap();
    let interrupted = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(full.schedules / 2)
                .seeded(SEED)
                .checkpointing_every(10),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert!(interrupted.limit_hit);
    assert!(dir.join(CHECKPOINT_FILE).is_file());

    // A fresh process loads the document, refuses mismatches, resumes.
    let doc = load_checkpoint(&dir).unwrap().unwrap();
    doc.check_matches(program, SPEC, SEED).unwrap();
    assert!(doc.state.stats.schedules <= interrupted.schedules);
    assert!(doc.state.stats.schedules > 0, "at least one checkpoint hit");

    let resumed = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(SEED)
                .resuming_from(Arc::new(doc.state)),
        )
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert_stats_match(&resumed, &full);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_checkpoint_generation_resumes_to_the_same_answer() {
    // Overwrite-in-place means only the newest generation is on disk at
    // any moment; this test replays the run once per cadence point and
    // resumes from each, so a crash at *any* moment is covered.
    let bench = lazylocks_suite::by_name("philosophers-naive-3").expect("bench exists");
    let program = &bench.program;
    let full = ExploreSession::new(program)
        .with_config(ExploreConfig::with_limit(1_000_000).seeded(SEED))
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert!(full.schedules >= 4 && !full.limit_hit);

    let dir = temp_dir("generations");
    for cut in 1..full.schedules {
        let writer = CheckpointWriter::new(&dir, program, SPEC, SEED).unwrap();
        // The engine stops *at* the limit before checkpointing that
        // schedule, so a budget of cut+1 leaves generation `cut` on disk.
        let interrupted = ExploreSession::new(program)
            .with_config(
                ExploreConfig::with_limit(cut + 1)
                    .seeded(SEED)
                    .checkpointing_every(1),
            )
            .observe_arc(Arc::new(writer))
            .run_spec(SPEC)
            .unwrap()
            .stats;
        assert!(interrupted.limit_hit, "cut {cut} did not interrupt");

        let doc = load_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(doc.state.stats.schedules, cut);
        let resumed = ExploreSession::new(program)
            .with_config(
                ExploreConfig::with_limit(1_000_000)
                    .seeded(SEED)
                    .resuming_from(Arc::new(doc.state)),
            )
            .run_spec(SPEC)
            .unwrap()
            .stats;
        assert_stats_match(&resumed, &full);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_foreign_checkpoint() {
    let fig1 = lazylocks_suite::by_name("paper-figure1").expect("bench exists");
    let dir = temp_dir("foreign");
    let writer = CheckpointWriter::new(&dir, &fig1.program, SPEC, SEED).unwrap();
    ExploreSession::new(&fig1.program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(SEED)
                .checkpointing_every(1),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(SPEC)
        .unwrap();

    let doc = load_checkpoint(&dir).unwrap().unwrap();
    let other = lazylocks_suite::by_name("store-buffer").expect("bench exists");
    let err = doc.check_matches(&other.program, SPEC, SEED).unwrap_err();
    assert!(err.contains("program"), "{err}");
    let err = doc.check_matches(&fig1.program, "dfs", SEED).unwrap_err();
    assert!(err.contains("strategy"), "{err}");
    let err = doc
        .check_matches(&fig1.program, SPEC, SEED + 1)
        .unwrap_err();
    assert!(err.contains("seed"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A genuine mid-search checkpoint of `philosophers-naive-4`, for the
/// forged-frontier probes below.
fn philosophers_checkpoint(tag: &str) -> (lazylocks_suite::Benchmark, CheckpointDoc) {
    let bench = lazylocks_suite::by_name("philosophers-naive-4").expect("bench exists");
    let dir = temp_dir(tag);
    let writer = CheckpointWriter::new(&dir, &bench.program, SPEC, SEED).unwrap();
    ExploreSession::new(&bench.program)
        .with_config(
            ExploreConfig::with_limit(50)
                .seeded(SEED)
                .checkpointing_every(10),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(SPEC)
        .unwrap();
    let doc = load_checkpoint(&dir).unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    doc.check_matches(&bench.program, SPEC, SEED).unwrap();
    assert!(doc.state.schedule.len() > 1, "checkpoint is mid-search");
    (bench, doc)
}

#[test]
fn resume_refuses_a_schedule_naming_a_missing_thread() {
    let (bench, mut doc) = philosophers_checkpoint("missing-thread");
    doc.state.schedule[0] = ThreadId(9);
    let err = doc.check_matches(&bench.program, SPEC, SEED).unwrap_err();
    assert!(err.contains("thread t9"), "{err}");
}

#[test]
fn resume_refuses_a_thread_set_beyond_the_program() {
    let (bench, mut doc) = philosophers_checkpoint("wide-set");
    doc.state.frames.last_mut().unwrap().backtrack |= 1 << 40;
    let err = doc.check_matches(&bench.program, SPEC, SEED).unwrap_err();
    assert!(err.contains("backtrack"), "{err}");
}

#[test]
fn resume_refuses_a_schedule_choosing_a_disabled_thread() {
    let (bench, mut doc) = philosophers_checkpoint("disabled-choice");
    // t1 takes its left fork, t0 its left fork; t0's right fork is t1's.
    let choices = vec![ThreadId(1), ThreadId(0), ThreadId(0)];
    let mut exec = Executor::new(&bench.program);
    exec.step(choices[0]);
    exec.step(choices[1]);
    assert!(!exec.is_enabled(choices[2]), "the probe needs a blocked t0");
    doc.state.frames = vec![FrameSets::default(); choices.len() + 1];
    doc.state.schedule = choices;
    let err = doc.check_matches(&bench.program, SPEC, SEED).unwrap_err();
    assert!(err.contains("not enabled"), "{err}");
}
