//! Property corpus: the prefix-memoised [`LeafFingerprinter`] equals a
//! from-scratch [`ClockEngine::trace_fingerprint`] replay after every
//! trace of a sequence.
//!
//! Sequences are generated in depth-first order, the order exploration
//! engines hand terminal traces to their collector: each trace keeps a
//! prefix of the previous one and continues with fresh choices. The
//! generator deliberately covers the rewinding edge cases — divergence at
//! position 0, identical repeats, a shorter trace after a longer one (a
//! strict prefix), and the empty trace — over all three modes and over
//! thread counts on both sides of the inline-clock width (8), so spilled
//! clocks go through the undo trail too. Deterministic: a fixed-seed
//! SplitMix64 stream, no external crates.

use lazylocks_hbr::{ClockEngine, HbMode, LeafFingerprinter};
use lazylocks_model::{MutexId, ThreadId, VarId, VisibleKind};
use lazylocks_runtime::{Event, EventId};

/// SplitMix64 (Steele, Lea & Flood): a tiny, deterministic PRNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random program shape: each thread's fixed sequence of visible kinds.
struct Shape {
    n_vars: usize,
    n_mutexes: usize,
    threads: Vec<Vec<VisibleKind>>,
}

fn random_shape(rng: &mut SplitMix64) -> Shape {
    let n_threads = 1 + rng.below(10);
    let n_vars = 1 + rng.below(3);
    let n_mutexes = 1 + rng.below(2);
    let threads = (0..n_threads)
        .map(|_| {
            (0..rng.below(7))
                .map(|_| match rng.below(4) {
                    0 => VisibleKind::Read(VarId(rng.below(n_vars) as u16)),
                    1 => VisibleKind::Write(VarId(rng.below(n_vars) as u16)),
                    2 => VisibleKind::Lock(MutexId(rng.below(n_mutexes) as u16)),
                    _ => VisibleKind::Unlock(MutexId(rng.below(n_mutexes) as u16)),
                })
                .collect()
        })
        .collect();
    Shape {
        n_vars,
        n_mutexes,
        threads,
    }
}

/// Extends `trace` with up to `extra` events, each from a random thread
/// that still has events left, in per-thread ordinal order.
fn extend(rng: &mut SplitMix64, shape: &Shape, trace: &mut Vec<Event>, extra: usize) {
    let mut next: Vec<usize> = vec![0; shape.threads.len()];
    for e in trace.iter() {
        next[e.id.thread.index()] += 1;
    }
    for _ in 0..extra {
        let live: Vec<usize> = (0..shape.threads.len())
            .filter(|&t| next[t] < shape.threads[t].len())
            .collect();
        if live.is_empty() {
            return;
        }
        let t = live[rng.below(live.len())];
        let ordinal = next[t];
        trace.push(Event {
            id: EventId {
                thread: ThreadId(t as u16),
                ordinal: ordinal as u32,
            },
            kind: shape.threads[t][ordinal],
            pc: (ordinal * 3 + t) as u32,
        });
        next[t] += 1;
    }
}

/// One DFS-ordered sequence of traces over `shape`, with every edge case
/// above drawn at a fixed rate.
fn trace_sequence(rng: &mut SplitMix64, shape: &Shape, len: usize) -> Vec<Vec<Event>> {
    let total: usize = shape.threads.iter().map(Vec::len).sum();
    let mut out: Vec<Vec<Event>> = Vec::with_capacity(len);
    let mut current: Vec<Event> = Vec::new();
    for _ in 0..len {
        match rng.below(6) {
            // Identical repeat.
            0 => {}
            // Divergence at position 0 (a whole new run).
            1 => {
                current.clear();
                extend(rng, shape, &mut current, total);
            }
            // A strict prefix: shorter than the previous trace, possibly
            // empty.
            2 => {
                let keep = rng.below(current.len() + 1);
                current.truncate(keep);
            }
            // The empty trace.
            3 => current.clear(),
            // A DFS sibling: keep a prefix, finish the run anew.
            _ => {
                let keep = rng.below(current.len() + 1);
                current.truncate(keep);
                extend(rng, shape, &mut current, total);
            }
        }
        out.push(current.clone());
    }
    out
}

#[test]
fn leaf_fingerprinter_equals_replay_on_every_trace() {
    let mut rng = SplitMix64(0x1eaf_f1a9);
    let mut checked = 0usize;
    let mut saved = 0u64;
    let mut replayed = 0u64;
    for _case in 0..300 {
        let shape = random_shape(&mut rng);
        let sequence = trace_sequence(&mut rng, &shape, 40);
        let n_threads = shape.threads.len();
        for mode in HbMode::ALL {
            let mut leaf = LeafFingerprinter::new(mode, n_threads, shape.n_vars, shape.n_mutexes);
            let mut replay = ClockEngine::new(mode, n_threads, shape.n_vars, shape.n_mutexes);
            for (i, trace) in sequence.iter().enumerate() {
                assert_eq!(
                    leaf.fingerprint(trace),
                    replay.trace_fingerprint(trace),
                    "mode {mode}, trace #{i} of a {n_threads}-thread sequence: {trace:?}"
                );
                replayed += trace.len() as u64;
                checked += 1;
            }
            saved += leaf.events_applied();
        }
    }
    assert_eq!(checked, 300 * 40 * 3);
    // The corpus must actually exercise prefix reuse (a sixth of its
    // traces are fresh runs and a sixth are empty, so the saving is
    // smaller than a real search's).
    assert!(
        saved * 4 < replayed * 3,
        "applied {saved} of {replayed} replayed events"
    );
}
