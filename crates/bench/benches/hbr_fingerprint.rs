//! Micro-benchmark: happens-before construction and fingerprinting
//! throughput — the per-event cost every explorer pays.
//!
//! `leaf_sequence/{mode}` prices terminal accounting: the leaf traces of a
//! depth-first search, fingerprinted once from scratch per leaf
//! (`ClockEngine::trace_fingerprint`) and once through the prefix-memoised
//! `LeafFingerprinter` the collector uses. Both cells count the same
//! elements (every event of every leaf), so their rates compare directly.

use lazylocks_bench::timing::{black_box, Group};
use lazylocks_hbr::{
    event_record_hash, ClockEngine, HbBuilder, HbMode, LeafFingerprinter, PrefixAccumulator,
};
use lazylocks_model::{ProgramBuilder, Reg};
use lazylocks_runtime::{run_schedule, Event, ExecPhase, Executor};

/// A trace with a healthy mix of variable and mutex events.
fn sample_trace(threads: usize, rounds: usize) -> (lazylocks_model::Program, Vec<Event>) {
    let mut b = ProgramBuilder::new("bench");
    let m = b.mutex("m");
    let shared = b.var("shared", 0);
    let slots = b.var_array("slot", threads, 0);
    #[allow(clippy::needless_range_loop)] // i is the thread id
    for i in 0..threads {
        let slot = slots[i];
        b.thread(format!("T{i}"), move |t| {
            t.repeat(rounds, |t, _| {
                t.with_lock(m, |t| {
                    t.load(Reg(0), slot);
                    t.add(Reg(0), Reg(0), 1);
                    t.store(slot, Reg(0));
                });
                t.load(Reg(1), shared);
                t.store(shared, Reg(1));
            });
        });
    }
    let p = b.build();
    // The default completion runs threads in id order; that is enough
    // structure for a representative trace.
    let run = run_schedule(&p, &[]).unwrap();
    (p, run.trace)
}

/// The first `cap` terminal traces of `program` in depth-first order —
/// the order an exploration hands leaves to its collector.
fn dfs_leaves(program: &lazylocks_model::Program, cap: usize) -> Vec<Vec<Event>> {
    fn visit(exec: &Executor, trace: &mut Vec<Event>, out: &mut Vec<Vec<Event>>, cap: usize) {
        if out.len() >= cap {
            return;
        }
        if !matches!(exec.phase(), ExecPhase::Running) {
            out.push(trace.clone());
            return;
        }
        for t in exec.enabled_iter() {
            let mut child = exec.clone();
            let event = child.step(t).event;
            trace.extend(event);
            visit(&child, trace, out, cap);
            if event.is_some() {
                trace.pop();
            }
        }
    }
    let mut out = Vec::new();
    visit(&Executor::new(program), &mut Vec::new(), &mut out, cap);
    out
}

fn main() {
    let (program, trace) = sample_trace(4, 8);
    let group = Group::new("hbr_fingerprint");
    let elements = trace.len() as u64;
    for mode in [HbMode::Regular, HbMode::Lazy, HbMode::SyncOnly] {
        group.bench_throughput(&format!("from_trace/{mode}"), elements, &mut || {
            black_box(HbBuilder::from_trace(mode, &program, &trace).fingerprint());
        });
        group.bench_throughput(&format!("clock_engine/{mode}"), elements, &mut || {
            let mut engine = ClockEngine::for_program(mode, &program);
            let mut acc = PrefixAccumulator::new();
            for e in &trace {
                let clock = engine.apply(e);
                acc.absorb(event_record_hash(e, clock));
            }
            black_box(acc.fingerprint());
        });
    }

    let (program, _) = sample_trace(3, 1);
    let leaves = dfs_leaves(&program, 5_000);
    let elements: u64 = leaves.iter().map(|l| l.len() as u64).sum();
    for mode in [HbMode::Regular, HbMode::Lazy, HbMode::SyncOnly] {
        group.bench_throughput(
            &format!("leaf_sequence/{mode}/scratch"),
            elements,
            &mut || {
                let mut engine = ClockEngine::for_program(mode, &program);
                for leaf in &leaves {
                    black_box(engine.trace_fingerprint(leaf));
                }
            },
        );
        group.bench_throughput(
            &format!("leaf_sequence/{mode}/memoised"),
            elements,
            &mut || {
                let mut fingerprinter = LeafFingerprinter::for_program(mode, &program);
                for leaf in &leaves {
                    black_box(fingerprinter.fingerprint(leaf));
                }
            },
        );
    }
}
