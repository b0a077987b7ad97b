//! Parallel depth-first enumeration across OS threads.
//!
//! The schedule tree is split near the root: a breadth-first expansion
//! produces a frontier of independent subtree roots (executor snapshots
//! plus their trace prefixes), which a mutex-guarded work queue feeds to
//! worker threads. Each worker explores its subtrees with the sequential
//! [`DfsEnumeration`](crate::explore::DfsEnumeration) visitor over a
//! worker collector, which claims every terminal from the shared schedule
//! budget; per-worker results are merged exactly (set unions) at the end.
//!
//! Parallel enumeration has no reduction — it is the scale-out version of
//! `DfsEnumeration` for hunting bugs in larger schedule spaces. The static
//! frontier is deliberate: the work-stealing
//! [`ParallelDpor`](crate::explore::ParallelDpor) frames (reference-counted,
//! lock-guarded, published on a deque) would give the same counts, but
//! their per-frame cost roughly halves the throughput of plain
//! enumeration.

use crate::config::ExploreConfig;
use crate::explore::dfs::DfsCtx;
use crate::explore::Explorer;
use crate::stats::{Collector, Continue, ExploreStats, SharedBudget};
use lazylocks_model::{Program, ThreadId};
use lazylocks_obs::ids;
use lazylocks_runtime::{Event, ExecPhase, Executor};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The parallel DFS explorer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelDfs {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub workers: usize,
}

/// A subtree root handed to a worker.
struct WorkItem<'p> {
    exec: Executor<'p>,
    trace: Vec<Event>,
    schedule: Vec<ThreadId>,
    last: Option<ThreadId>,
    preemptions: u32,
}

/// Resolves a `workers` parameter: `0` means the machine's available
/// parallelism.
pub(crate) fn worker_count(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        workers
    }
}

impl Explorer for ParallelDfs {
    fn name(&self) -> String {
        "parallel-dfs".to_string()
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        let start = Instant::now();
        let workers = worker_count(self.workers);
        let mut root_collector = Collector::new(config);
        let queue = Mutex::new(expand_frontier(program, &mut root_collector, workers * 4));

        config.metrics.shard().set(ids::WORKERS, workers as u64);
        let budget = Arc::new(SharedBudget::default());
        let worker_results: Vec<Collector> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queue = &queue;
                    let budget = budget.clone();
                    scope.spawn(move || {
                        let collector = Collector::new_for_worker(config, w as u32, budget);
                        let mut ctx = DfsCtx::new(program, collector);
                        loop {
                            let item = queue.lock().expect("queue poisoned").pop_front();
                            let Some(item) = item else {
                                break;
                            };
                            ctx.trace = item.trace;
                            ctx.schedule = item.schedule;
                            if ctx.visit(&item.exec, item.last, item.preemptions) == Continue::Stop
                            {
                                break;
                            }
                        }
                        ctx.collector
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        for w in worker_results {
            root_collector.merge(w);
        }
        let mut stats = root_collector.into_stats();
        stats.workers = workers as u32;
        stats.wall_time = start.elapsed();
        stats
    }
}

/// Expands the schedule tree breadth-first from the root until the
/// frontier holds `target` subtree roots. Terminal and run-length-capped
/// nodes are not expanded but stay in the result, so the workers' visitor
/// records them like any other leaf.
fn expand_frontier<'p>(
    program: &'p Program,
    collector: &mut Collector,
    target: usize,
) -> VecDeque<WorkItem<'p>> {
    let mut frontier = VecDeque::from([WorkItem {
        exec: Executor::new(program),
        trace: Vec::new(),
        schedule: Vec::new(),
        last: None,
        preemptions: 0,
    }]);
    let mut settled = VecDeque::new();
    while frontier.len() < target && !collector.stop_requested() {
        let Some(item) = frontier.pop_front() else {
            break;
        };
        if !matches!(item.exec.phase(), ExecPhase::Running)
            || item.trace.len() >= collector.config().max_run_length
        {
            settled.push_back(item);
            continue;
        }
        for t in item.exec.enabled_iter() {
            let Some(preemptions) =
                collector.admit_choice(&item.exec, item.last, t, item.preemptions)
            else {
                continue;
            };
            let mut exec = item.exec.clone();
            let mut trace = item.trace.clone();
            trace.extend(exec.step(t).event);
            let mut schedule = item.schedule.clone();
            schedule.push(t);
            frontier.push_back(WorkItem {
                exec,
                trace,
                schedule,
                last: Some(t),
                preemptions,
            });
        }
    }
    settled.extend(frontier);
    settled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::dfs::DfsEnumeration;
    use lazylocks_model::{ProgramBuilder, Reg};
    use lazylocks_obs::MetricsHandle;

    fn counter_program(threads: usize) -> Program {
        let mut b = ProgramBuilder::new("counters");
        let x = b.var("x", 0);
        for i in 0..threads {
            b.thread(format!("T{i}"), |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0); // normalise registers out of the state
            });
        }
        b.build()
    }

    #[test]
    fn matches_sequential_dfs_exactly_when_exhaustive() {
        let p = counter_program(3);
        let cfg = ExploreConfig::with_limit(1_000_000);
        let seq = DfsEnumeration.explore(&p, &cfg);
        assert!(!seq.limit_hit);
        for workers in [1, 2, 4] {
            let metrics = MetricsHandle::enabled();
            let par =
                ParallelDfs { workers }.explore(&p, &cfg.clone().with_metrics(metrics.clone()));
            assert_eq!(par.schedules, seq.schedules, "workers={workers}");
            assert_eq!(par.unique_states, seq.unique_states);
            assert_eq!(par.unique_hbrs, seq.unique_hbrs);
            assert_eq!(par.unique_lazy_hbrs, seq.unique_lazy_hbrs);
            assert_eq!(par.events, seq.events);
            assert_eq!(par.workers, workers as u32);
            let snap = metrics.snapshot().unwrap();
            assert_eq!(snap.value("lazylocks_workers"), workers as u64);
            assert!(snap.value("lazylocks_phase_executor_step_ns") > 0);
            let schedules = snap.get("lazylocks_schedules_total").unwrap();
            assert_eq!(schedules.per_worker.len(), workers);
            assert_eq!(schedules.total.count(), seq.schedules as u64);
        }
    }

    #[test]
    fn budget_is_respected_globally() {
        let p = counter_program(4);
        let par = ParallelDfs { workers: 4 }.explore(&p, &ExploreConfig::with_limit(100));
        assert!(par.schedules <= 100);
        assert!(par.limit_hit);
    }

    #[test]
    fn finds_bugs_in_parallel() {
        let mut b = ProgramBuilder::new("buggy");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| {
            t.load(Reg(0), x);
            t.assert_true(Reg(0), "must see the write");
        });
        let p = b.build();
        let stats = ParallelDfs { workers: 2 }.explore(&p, &ExploreConfig::with_limit(10_000));
        assert!(stats.found_bug());
        assert!(stats.faulted_schedules > 0);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn tiny_programs_terminate_during_expansion() {
        let mut b = ProgramBuilder::new("tiny");
        b.thread("T", |_| {});
        let p = b.build();
        let stats = ParallelDfs { workers: 8 }.explore(&p, &ExploreConfig::with_limit(10));
        assert_eq!(stats.schedules, 1);
        assert_eq!(stats.unique_states, 1);
    }
}
