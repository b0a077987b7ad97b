//! Exploration strategies for systematic concurrency testing.
//!
//! Every strategy explores the schedule tree of a program under a common
//! budget ([`ExploreConfig`]) and reports the same counters
//! ([`ExploreStats`]):
//!
//! | Strategy | Module | Reduction idea |
//! |----------|--------|----------------|
//! | [`DfsEnumeration`] | [`dfs`] | none (every schedule), optional preemption bound |
//! | [`Dpor`] | [`dpor`] | Flanagan–Godefroid dynamic partial-order reduction with clock vectors, optional sleep sets; with a lazy [`DependenceMode`] it is the prototype lazy DPOR of the paper's §4 future work |
//! | [`HbrCaching`] | [`caching`] | Musuvathi–Qadeer prefix caching on the regular **or lazy** HBR fingerprint |
//! | [`RandomWalk`] | [`random`] | uniform random schedules (no reduction; baseline) |
//! | [`ParallelDfs`] | [`parallel`] | the [`DfsEnumeration`] visitor run by OS threads over a static frontier of subtrees |
//! | [`ParallelDpor`] | [`parallel_dpor`] | (lazy-)DPOR subtrees sharded across a work-stealing pool |
//! | [`IterativeBounding`] | [`bounded`] | CHESS-style waves of increasing preemption budget over the caching explorer |

pub mod bounded;
pub mod caching;
pub mod dfs;
pub mod dpor;
pub(crate) mod frame_pool;
pub mod parallel;
pub mod parallel_dpor;
pub mod random;

pub use bounded::{BoundedRun, IterativeBounding};
pub use caching::HbrCaching;
pub use dfs::DfsEnumeration;
pub use dpor::{DependenceMode, Dpor};
pub use parallel::ParallelDfs;
pub use parallel_dpor::ParallelDpor;
pub use random::RandomWalk;

use crate::config::ExploreConfig;
use crate::stats::ExploreStats;
use lazylocks_model::{Program, ThreadId};
use lazylocks_runtime::Executor;

/// A schedule-space exploration strategy.
pub trait Explorer {
    /// Short stable name for reports.
    fn name(&self) -> String;

    /// Explores `program` under `config`.
    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats;
}

/// The preemption rule of every bounded strategy: stepping `t` after
/// `last` is a preemption when `last` could have continued. Returns the
/// path's preemption count after the step, or `None` when it would exceed
/// `bound`. Without a bound the count is never read, so it is not
/// computed.
#[inline]
pub(crate) fn preemptions_after(
    bound: Option<u32>,
    exec: &Executor,
    last: Option<ThreadId>,
    t: ThreadId,
    preemptions: u32,
) -> Option<u32> {
    let Some(bound) = bound else {
        return Some(preemptions);
    };
    let preempt = last.is_some_and(|l| l != t && exec.is_enabled(l));
    let p = preemptions + u32::from(preempt);
    (p <= bound).then_some(p)
}

// The deprecated closed `Strategy` enum that used to live here was
// removed: all strategy selection goes through the string-keyed
// [`StrategyRegistry`](crate::StrategyRegistry) (which still accepts every
// historical name as an alias) plus
// [`ExploreSession`](crate::ExploreSession).
