//! Prefix-memoised terminal fingerprints.
//!
//! Exploration engines classify every terminal run by the fingerprint of
//! its happens-before relation. Replaying each terminal trace from scratch
//! through [`ClockEngine::trace_fingerprint`] costs O(depth) clock applies
//! and record hashes per leaf, yet consecutive leaves of a depth-first
//! search share almost their whole prefix. [`LeafFingerprinter`] keeps the
//! clock state and running digest of the previous trace, rewinds only to
//! the longest common prefix with the next one, and applies only the new
//! suffix: a leaf costs its divergent suffix, not its depth.
//!
//! Rewinding is exact. Before each event is applied, the ≤3 clocks the
//! apply overwrites are saved on an undo trail; popping an event restores
//! them. The per-depth [`PrefixAccumulator`]s are plain values, so the
//! digest of any prefix is kept rather than recomputed. The result is
//! therefore bit for bit the digest `trace_fingerprint` computes for the
//! same trace, in every [`HbMode`].

use crate::engine::{event_record_hash, ClockEngine, PrefixAccumulator};
use crate::mode::HbMode;
use lazylocks_clock::VectorClock;
use lazylocks_runtime::Event;

/// Fingerprints a sequence of traces, reusing the longest common prefix
/// with the previous trace.
///
/// [`fingerprint`](LeafFingerprinter::fingerprint) returns exactly
/// [`ClockEngine::trace_fingerprint`] of the same trace. Once the internal
/// buffers have grown to the deepest trace seen, fingerprinting allocates
/// nothing.
#[derive(Debug)]
pub struct LeafFingerprinter {
    engine: ClockEngine,
    /// The trace whose clocks `engine` currently holds.
    trace: Vec<Event>,
    /// `prefix[i]` is the running digest of `trace[..i]`, so it has one
    /// more entry than `trace`.
    prefix: Vec<PrefixAccumulator>,
    /// Undo trail: a buffer index and the clock it held before an event
    /// overwrote it. Only the first `saved_len` entries are live; the rest
    /// are spare clocks kept for reuse.
    saved: Vec<(usize, VectorClock)>,
    saved_len: usize,
    /// `marks[i]` is `saved_len` just before `trace[i]` was applied.
    marks: Vec<usize>,
    /// Events applied over the fingerprinter's lifetime.
    applied: u64,
}

impl LeafFingerprinter {
    /// A fingerprinter for a program shape (see [`ClockEngine::new`]).
    pub fn new(mode: HbMode, n_threads: usize, n_vars: usize, n_mutexes: usize) -> Self {
        LeafFingerprinter::from_engine(ClockEngine::new(mode, n_threads, n_vars, n_mutexes))
    }

    /// A fingerprinter sized for `program`.
    pub fn for_program(mode: HbMode, program: &lazylocks_model::Program) -> Self {
        LeafFingerprinter::from_engine(ClockEngine::for_program(mode, program))
    }

    fn from_engine(mut engine: ClockEngine) -> Self {
        engine.reset();
        LeafFingerprinter {
            engine,
            trace: Vec::new(),
            prefix: vec![PrefixAccumulator::new()],
            saved: Vec::new(),
            saved_len: 0,
            marks: Vec::new(),
            applied: 0,
        }
    }

    /// Events applied so far, over every trace fingerprinted — what a
    /// from-scratch replay would count as the sum of all trace lengths.
    pub fn events_applied(&self) -> u64 {
        self.applied
    }

    /// The fingerprint of `trace`'s relation: equal to
    /// [`ClockEngine::trace_fingerprint`]`(trace)`, at the cost of the
    /// part of `trace` that differs from the previous call's trace.
    pub fn fingerprint(&mut self, trace: &[Event]) -> u128 {
        let common = self
            .trace
            .iter()
            .zip(trace)
            .take_while(|(a, b)| a == b)
            .count();
        while self.trace.len() > common {
            self.pop();
        }
        for event in &trace[common..] {
            self.push(event);
        }
        self.prefix[trace.len()].fingerprint()
    }

    /// Applies one event on top of the current trace, saving the clocks it
    /// overwrites.
    fn push(&mut self, event: &Event) {
        self.marks.push(self.saved_len);
        let (slots, n) = self.engine.written_slots(event);
        for &slot in &slots[..n] {
            let clock = self.engine.slot(slot);
            match self.saved.get_mut(self.saved_len) {
                Some(entry) => {
                    entry.0 = slot;
                    entry.1.assign(clock);
                }
                None => self.saved.push((slot, clock.clone())),
            }
            self.saved_len += 1;
        }
        let clock = self.engine.apply(event);
        let mut acc = self.prefix[self.trace.len()];
        acc.absorb(event_record_hash(event, clock));
        self.prefix.push(acc);
        self.trace.push(*event);
        self.applied += 1;
    }

    /// Undoes the last event of the current trace.
    fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop below an empty trace");
        for (slot, clock) in &self.saved[mark..self.saved_len] {
            self.engine.slot_mut(*slot).assign(clock);
        }
        self.saved_len = mark;
        self.prefix.pop();
        self.trace.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{ThreadId, VarId, VisibleKind};
    use lazylocks_runtime::EventId;

    fn ev(thread: u16, ordinal: u32, kind: VisibleKind) -> Event {
        Event {
            id: EventId {
                thread: ThreadId(thread),
                ordinal,
            },
            kind,
            pc: ordinal,
        }
    }

    #[test]
    fn shared_prefixes_are_not_reapplied() {
        let a = [
            ev(0, 0, VisibleKind::Write(VarId(0))),
            ev(1, 0, VisibleKind::Read(VarId(0))),
            ev(0, 1, VisibleKind::Write(VarId(0))),
        ];
        let b = [a[0], a[1], ev(1, 1, VisibleKind::Write(VarId(0)))];
        let mut leaf = LeafFingerprinter::new(HbMode::Regular, 2, 1, 0);
        leaf.fingerprint(&a);
        leaf.fingerprint(&b);
        leaf.fingerprint(&b);
        assert_eq!(
            leaf.events_applied(),
            4,
            "3 for a, 1 for b, 0 for the repeat"
        );
    }
}
