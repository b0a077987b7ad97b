//! Parallel (lazy-)DPOR: DPOR subtrees sharded across a worker pool.
//!
//! The sequential DPOR engine ([`Dpor`](crate::explore::Dpor), under any
//! [`DependenceMode`]) walks the reduced schedule tree depth-first; when
//! a frame accumulates several unexplored backtrack choices, the siblings
//! wait for the owning worker's pass. This driver
//! lets idle workers *steal* those siblings: every frame is a
//! reference-counted node whose backtrack/done sets live behind a lock,
//! and a frame with claimable choices left over is published on a shared
//! deque. A worker popping a published frame rebuilds the trace prefix
//! from the frame's parent chain — executor snapshot, clock engine and
//! sleep set travel with the node — claims one choice under the frame's
//! lock, and explores that subtree depth-first with the same
//! [`DporCore`] hot loop the sequential engine uses (including the shared
//! [frame pool](crate::explore::frame_pool), reclaimed here via
//! `Arc::try_unwrap` when a popped frame has no other holders).
//!
//! ## Soundness
//!
//! DPOR's race detection adds backtrack points to *ancestor* frames of the
//! node where a race is discovered. In a sharded exploration the ancestor
//! may currently be "owned" by another worker (the victim a subtree was
//! stolen from), so backtrack insertions act as a **pending-backtrack
//! mailbox**: the insertion is merged into the frame's shared backtrack
//! set under the frame's lock, and — because a worker only ever targets
//! frames on its own spine, all of which it unwinds through before going
//! idle — every late-arriving choice is re-examined by at least one
//! worker holding that frame on its stack. Claims (moving a thread from
//! `backtrack − done − sleep` into `done`) are atomic under the same
//! lock, so each `(frame, choice)` pair is explored exactly once. The
//! explored set is therefore the least fixpoint of the same deterministic
//! closure the sequential engine computes — schedule-for-schedule the same
//! tree for the sleep-set-free modes, regardless of worker count or
//! interleaving (pinned by `tests/parallel_dpor.rs` and the fuzz oracle).
//!
//! A stolen subtree's sleep set travels with the stolen frame. With
//! `sleep_sets: true` the *content* of a child sleep set depends on claim
//! order (a sibling claimed concurrently counts as "done"), which is
//! sound for bug finding by the usual sleep-set argument but makes the
//! explored set run-to-run nondeterministic — the parallel sleep mode
//! therefore promises bug parity only, mirroring the sequential caveat.

use crate::config::ExploreConfig;
use crate::explore::dpor::{BacktrackInsert, DependenceMode, DporCore, FrameStack, Stepped};
use crate::explore::frame_pool::FrameBody;
use crate::explore::parallel::worker_count;
use crate::explore::Explorer;
use crate::stats::{Collector, Continue, ExploreStats, SharedBudget};
use lazylocks_hbr::ClockEngine;
use lazylocks_model::{Program, ThreadId, ThreadSet};
use lazylocks_obs::{ids, MetricsShard};
use lazylocks_runtime::{Event, ExecPhase, Executor};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The work-stealing DPOR explorer — registered as
/// `parallel(reduction=dpor)` / `parallel(reduction=lazy)`.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDpor {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub workers: usize,
    /// Sleep-set refinement (bug-parity only; see the module docs).
    pub sleep_sets: bool,
    /// Dependence notion for race detection.
    pub dependence: DependenceMode,
}

impl Default for ParallelDpor {
    fn default() -> Self {
        ParallelDpor {
            workers: 0,
            sleep_sets: false,
            dependence: DependenceMode::Regular,
        }
    }
}

impl Explorer for ParallelDpor {
    fn name(&self) -> String {
        match (self.dependence, self.sleep_sets) {
            (DependenceMode::Regular, false) => "parallel-dpor".to_string(),
            (DependenceMode::Regular, true) => "parallel-dpor-sleep".to_string(),
            (DependenceMode::LazyVarsOnly, _) => "parallel-lazy-dpor-vars".to_string(),
            (DependenceMode::LazyLockAcquisitions, _) => "parallel-lazy-dpor".to_string(),
        }
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        let start = Instant::now();
        assert!(
            program.thread_count() <= ThreadSet::MAX_THREADS,
            "DPOR supports at most {} threads",
            ThreadSet::MAX_THREADS
        );
        let workers = worker_count(self.workers);

        let mut root_collector = Collector::new(config);
        let root_exec = Executor::new(program);
        if !matches!(root_exec.phase(), ExecPhase::Running) {
            root_collector.record_terminal(program, &root_exec, &[], &[]);
            let mut stats = root_collector.into_stats();
            stats.workers = workers as u32;
            stats.wall_time = start.elapsed();
            return stats;
        }

        let clocks = ClockEngine::for_program(self.dependence.hb_mode(), program);
        let mut backtrack = ThreadSet::new();
        if let Some(t) = root_exec.enabled_iter().next() {
            backtrack.insert(t);
        }
        let root = Arc::new(ParFrame {
            parent: None,
            entry: None,
            body: FrameBody {
                exec: root_exec,
                clocks,
            },
            sleep: ThreadSet::new(),
            sets: Mutex::new(ParSets {
                backtrack,
                done: ThreadSet::new(),
                queued: true,
            }),
        });

        let shared = Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::from([root]),
                active: 0,
            }),
            cv: Condvar::new(),
            budget: Arc::new(SharedBudget::default()),
            stolen: AtomicU64::new(0),
        };

        config.metrics.shard().set(ids::WORKERS, workers as u64);
        let sleep_sets = self.sleep_sets;
        let dependence = self.dependence;
        let worker_results: Vec<Collector> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let shared = &shared;
                    scope.spawn(move || {
                        worker_loop(shared, program, config, sleep_sets, dependence, w as u32)
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
        stats.subtrees_stolen = shared.stolen.load(Ordering::Relaxed);
        stats.workers = workers as u32;
        stats.wall_time = start.elapsed();
        stats
    }
}

/// One shared frame of the DPOR tree: the pre-state snapshot plus the
/// lock-guarded thread sets.
struct ParFrame<'p> {
    /// The frame this one was stepped from (`None` for the root). The
    /// chain of parents is the trace-prefix spine a thief rebuilds.
    parent: Option<Arc<ParFrame<'p>>>,
    /// `(thread, event)` of the step that entered this frame (`None` for
    /// the root) — enough to replay the schedule/trace prefix.
    entry: Option<(ThreadId, Option<Event>)>,
    /// Pre-state executor + clock engine. Immutable after creation, so
    /// thieves read it without locking.
    body: FrameBody<'p>,
    /// The sleep set the frame was created with (fixed at creation; it
    /// travels with every subtree stolen from here).
    sleep: ThreadSet,
    /// The mutable sets — the per-frame "pending-backtrack mailbox".
    sets: Mutex<ParSets>,
}

struct ParSets {
    backtrack: ThreadSet,
    done: ThreadSet,
    /// `true` while the frame sits on the shared deque (dedupes
    /// publications; cleared by the popping worker).
    queued: bool,
}

struct QueueState<'p> {
    queue: VecDeque<Arc<ParFrame<'p>>>,
    /// Workers currently processing a popped item. Quiescence — an empty
    /// queue with no active worker — is the termination condition: every
    /// claimable choice is either on the deque or on an active worker's
    /// spine (see the module docs).
    active: usize,
}

struct Shared<'p> {
    state: Mutex<QueueState<'p>>,
    cv: Condvar,
    /// Global schedule budget and stop flag, shared by the worker
    /// collectors.
    budget: Arc<SharedBudget>,
    /// Productive deque pops: pops whose walk claimed at least one
    /// choice (counted at the first claim, not at pop time).
    stolen: AtomicU64,
}

impl<'p> Shared<'p> {
    fn enqueue(&self, node: Arc<ParFrame<'p>>) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.queue.push_back(node);
        drop(st);
        self.cv.notify_one();
    }

    fn request_stop(&self) {
        self.budget.stop();
        self.cv.notify_all();
    }
}

/// One worker's view of its current spine: `Arc` frames plus the
/// trace/schedule marks to restore on unwind.
struct ParEntry<'p> {
    node: Arc<ParFrame<'p>>,
    trace_mark: usize,
    sched_mark: usize,
}

struct ParFrames<'p, 'a> {
    stack: Vec<ParEntry<'p>>,
    shared: &'a Shared<'p>,
    /// This worker's metrics shard (publish/mailbox counters).
    shard: MetricsShard,
}

impl<'p> ParFrames<'p, '_> {
    /// Claims the next unexplored choice of the top frame (atomically
    /// moving it into `done`), publishing the frame for stealing when
    /// claimable siblings remain.
    fn claim_top(&self) -> Option<ThreadId> {
        let top = self.stack.last()?;
        let node = &top.node;
        let mut publish = false;
        let p = {
            let mut s = node.sets.lock().expect("frame poisoned");
            let avail = s.backtrack - s.done - node.sleep;
            let p = avail.first()?;
            s.done.insert(p);
            if !(s.backtrack - s.done - node.sleep).is_empty() && !s.queued {
                s.queued = true;
                publish = true;
            }
            p
        };
        if publish {
            self.shard.inc(ids::FRAMES_PUBLISHED);
            self.shared.enqueue(node.clone());
        }
        Some(p)
    }
}

impl<'p> FrameStack<'p> for ParFrames<'p, '_> {
    fn depth(&self) -> usize {
        self.stack.len()
    }

    fn exec_at(&self, d: usize) -> &Executor<'p> {
        &self.stack[d].node.body.exec
    }

    fn top_body(&self) -> &FrameBody<'p> {
        &self.stack.last().expect("empty stack").node.body
    }

    fn top_done_sleep(&self) -> (ThreadSet, ThreadSet) {
        let node = &self.stack.last().expect("empty stack").node;
        let done = node.sets.lock().expect("frame poisoned").done;
        (done, node.sleep)
    }

    fn insert_backtrack(&mut self, d: usize, ins: BacktrackInsert) -> u64 {
        let node = &self.stack[d].node;
        let mut publish = false;
        let inserted;
        {
            let mut s = node.sets.lock().expect("frame poisoned");
            match ins {
                BacktrackInsert::Thread(t) => {
                    inserted = s.backtrack.insert(t) as u64;
                }
                BacktrackInsert::WakeAll => {
                    let added = node.body.exec.enabled_set() - s.backtrack;
                    s.backtrack |= added;
                    inserted = added.len() as u64;
                }
            }
            // A choice landing in a frame another worker may already have
            // drained: republish so it cannot go idle unexplored. (Our own
            // unwind re-checks the frame too; the flag dedupes.)
            if !(s.backtrack - s.done - node.sleep).is_empty() && !s.queued {
                s.queued = true;
                publish = true;
            }
        }
        if publish {
            self.shard.inc(ids::BACKTRACK_MAILBOX);
            self.shared.enqueue(node.clone());
        }
        inserted
    }

    fn push_frame(
        &mut self,
        body: FrameBody<'p>,
        backtrack: ThreadSet,
        sleep: ThreadSet,
        entry: (ThreadId, Option<Event>),
        trace_mark: usize,
        sched_mark: usize,
    ) {
        let parent = self.stack.last().map(|e| e.node.clone());
        self.stack.push(ParEntry {
            node: Arc::new(ParFrame {
                parent,
                entry: Some(entry),
                body,
                sleep,
                sets: Mutex::new(ParSets {
                    backtrack,
                    done: ThreadSet::new(),
                    queued: false,
                }),
            }),
            trace_mark,
            sched_mark,
        });
    }
}

fn worker_loop<'p>(
    shared: &Shared<'p>,
    program: &'p Program,
    config: &ExploreConfig,
    sleep_sets: bool,
    dependence: DependenceMode,
    worker: u32,
) -> Collector {
    let mut collector = Collector::new_for_worker(config, worker, shared.budget.clone());
    let shard = collector.shard().clone();
    // Per-worker site slab, merged into the registry snapshot like the
    // metrics shards. Reschedule attribution stays off: the parallel
    // claim order is timing-dependent, so only the order-independent
    // counters (races, backtracks, sleep blocks) are recorded here.
    let mut core = DporCore::new(
        program,
        sleep_sets,
        dependence,
        shard.clone(),
        config.profile.sites(&crate::stats::profile_dims(program)),
    );
    let mut frames = ParFrames {
        stack: Vec::new(),
        shared,
        shard: shard.clone(),
    };
    loop {
        let node = {
            let mut st = shared.state.lock().expect("queue poisoned");
            loop {
                if shared.budget.stopped() {
                    break None;
                }
                if let Some(n) = st.queue.pop_front() {
                    st.active += 1;
                    break Some(n);
                }
                if st.active == 0 {
                    break None;
                }
                // The timeout is belt-and-braces against a lost wakeup;
                // stop/cancel arrive via notify from active workers.
                let wait = shard.timer_start(ids::PHASE_STEAL_WAIT);
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("queue poisoned");
                shard.timer_stop(ids::PHASE_STEAL_WAIT, wait);
                st = guard;
            }
        };
        let Some(node) = node else {
            break;
        };
        process(node, shared, &mut core, &mut collector, &mut frames);
        // A stop mid-subtree leaves spine references behind; release them
        // so sibling workers can reclaim the frames.
        frames.stack.clear();
        let mut st = shared.state.lock().expect("queue poisoned");
        st.active -= 1;
        if st.active == 0 && st.queue.is_empty() {
            drop(st);
            shared.cv.notify_all();
        }
    }
    core.flush_counters(&mut collector);
    collector
}

/// Explores everything reachable from a popped frame: rebuilds the trace
/// prefix off the parent chain, then runs the sequential pick/step/unwind
/// loop over the shared spine — claims are atomic, so concurrent workers
/// partition the choices between them.
fn process<'p>(
    node: Arc<ParFrame<'p>>,
    shared: &Shared<'p>,
    core: &mut DporCore<'p>,
    collector: &mut Collector,
    frames: &mut ParFrames<'p, '_>,
) {
    {
        // One lock scope for both: clearing `queued` and the drained
        // check must not be separated, or a concurrent insert in the gap
        // would re-enqueue a node this worker is about to explore anyway.
        let mut s = node.sets.lock().expect("frame poisoned");
        s.queued = false;
        if (s.backtrack - s.done - node.sleep).is_empty() {
            return; // drained while it sat on the deque
        }
    }

    // --- rebuild the spine and its trace/schedule prefix ---
    let mut chain = Vec::new();
    let mut cur = Some(node);
    while let Some(n) = cur {
        cur = n.parent.clone();
        chain.push(n);
    }
    chain.reverse();
    core.reset_context();
    frames.stack.clear();
    for n in chain {
        let (trace_mark, sched_mark) = (core.trace.len(), core.schedule.len());
        if let Some((choice, event)) = n.entry {
            if let Some(e) = event {
                let i = core.trace.len();
                core.index_event(i, &e);
                core.trace.push(e);
                // The event was executed from this node's parent — the
                // current top of the rebuilt stack (fault entries carry no
                // event, so frame depth can run ahead of trace position).
                core.trace_depths.push(frames.stack.len() - 1);
            }
            core.schedule.push(choice);
        }
        frames.stack.push(ParEntry {
            node: n,
            trace_mark,
            sched_mark,
        });
    }

    // --- depth-first exploration over the shared spine ---
    let run_cap = collector.config().max_run_length;
    let mut claimed_any = false;
    while !frames.stack.is_empty() {
        if collector.stop_requested() {
            shared.request_stop();
            return;
        }
        let Some(p) = frames.claim_top() else {
            // Frame exhausted (for now): unwind. The body is recycled
            // into the pool only when no thief still references the frame.
            let entry = frames.stack.pop().unwrap();
            core.truncate_to(entry.trace_mark, entry.sched_mark);
            if let Ok(frame) = Arc::try_unwrap(entry.node) {
                core.pool.retire(frame.body);
            }
            continue;
        };
        if !claimed_any {
            // Counted on the first *actual* claim, not at pop time: a
            // spine owner can drain the node between our drained check
            // and the first claim, and such pops stole no work.
            claimed_any = true;
            shared.stolen.fetch_add(1, Ordering::Relaxed);
            core.shard.inc(ids::SUBTREES_STOLEN);
        }
        match core.take_step(frames, p, run_cap) {
            Stepped::Pushed => {}
            Stepped::Leaf {
                body,
                truncated,
                pushed_event,
            } => {
                let cont = if truncated {
                    collector.record_truncated();
                    Continue::Yes
                } else {
                    collector.record_terminal(core.program, &body.exec, &core.trace, &core.schedule)
                };
                core.finish_leaf(body, pushed_event);
                if cont == Continue::Stop {
                    shared.request_stop();
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::dpor::Dpor;
    use lazylocks_model::{ProgramBuilder, Reg};

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

    fn abba() -> Program {
        let mut b = ProgramBuilder::new("abba");
        let l1 = b.mutex("a");
        let l2 = b.mutex("b");
        b.thread("T1", |t| {
            t.lock(l1);
            t.lock(l2);
            t.unlock(l2);
            t.unlock(l1);
        });
        b.thread("T2", |t| {
            t.lock(l2);
            t.lock(l1);
            t.unlock(l1);
            t.unlock(l2);
        });
        b.build()
    }

    #[test]
    fn matches_sequential_dpor_exactly() {
        let p = counter_program(4);
        let cfg = ExploreConfig::with_limit(1_000_000);
        let seq = Dpor::default().explore(&p, &cfg);
        assert!(!seq.limit_hit);
        for workers in [1, 2, 4] {
            let par = ParallelDpor {
                workers,
                ..ParallelDpor::default()
            }
            .explore(&p, &cfg);
            assert_eq!(par.schedules, seq.schedules, "workers={workers}");
            assert_eq!(par.events, seq.events, "workers={workers}");
            assert_eq!(par.unique_states, seq.unique_states);
            assert_eq!(par.unique_hbrs, seq.unique_hbrs);
            assert_eq!(par.unique_lazy_hbrs, seq.unique_lazy_hbrs);
            assert_eq!(par.events_compared, seq.events_compared);
            assert_eq!(par.workers, workers as u32);
            assert!(par.subtrees_stolen >= 1);
            par.check_inequality().unwrap();
        }
    }

    #[test]
    fn lazy_reduction_matches_sequential_lazy_dpor() {
        let p = abba();
        let cfg = ExploreConfig::with_limit(100_000);
        let seq = Dpor {
            sleep_sets: false,
            dependence: DependenceMode::LazyLockAcquisitions,
        }
        .explore(&p, &cfg);
        for workers in [1, 3] {
            let par = ParallelDpor {
                workers,
                dependence: DependenceMode::LazyLockAcquisitions,
                ..ParallelDpor::default()
            }
            .explore(&p, &cfg);
            assert_eq!(par.schedules, seq.schedules, "workers={workers}");
            assert_eq!(par.unique_states, seq.unique_states);
            assert_eq!(par.deadlocks, seq.deadlocks);
            assert!(par.deadlocks > 0, "the lock-order reversal must be found");
        }
    }

    #[test]
    fn budget_is_respected_globally() {
        let p = counter_program(4);
        let par = ParallelDpor {
            workers: 4,
            ..ParallelDpor::default()
        }
        .explore(&p, &ExploreConfig::with_limit(5));
        assert!(par.schedules <= 5);
        assert!(par.limit_hit);
    }

    #[test]
    fn stop_on_bug_stops_all_workers() {
        let p = abba();
        let par = ParallelDpor {
            workers: 4,
            ..ParallelDpor::default()
        }
        .explore(&p, &ExploreConfig::with_limit(100_000).stopping_on_bug());
        assert!(par.found_bug());
        assert!(par.first_bug.as_ref().unwrap().is_deadlock());
    }

    #[test]
    fn tiny_programs_terminate_without_work() {
        let mut b = ProgramBuilder::new("tiny");
        b.thread("T", |_| {});
        let p = b.build();
        let stats = ParallelDpor {
            workers: 8,
            ..ParallelDpor::default()
        }
        .explore(&p, &ExploreConfig::with_limit(10));
        assert_eq!(stats.schedules, 1);
        assert_eq!(stats.unique_states, 1);
        assert_eq!(stats.workers, 8);
    }

    #[test]
    fn sleep_mode_keeps_bug_parity() {
        let p = abba();
        let cfg = ExploreConfig::with_limit(100_000);
        let par = ParallelDpor {
            workers: 2,
            sleep_sets: true,
            ..ParallelDpor::default()
        }
        .explore(&p, &cfg);
        assert!(par.deadlocks > 0, "sleep mode must keep deadlock parity");
    }
}
