//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer (nothing inside
//! the program is instrumented). They are kept in memory and written out
//! once, when the run ends. When disabled, recording is a branch on a
//! `bool`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    pub job: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` when the interval was reported by the program (for example
    /// `ExploreStats::wall_time`) rather than timed around a call.
    pub derived: bool,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    inner: Mutex<(u64, Vec<Span>)>,
}

/// An open span; closed by [`Spans::close`].
#[derive(Clone, Copy)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    layer: &'static str,
    job: Option<u64>,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            inner: Mutex::new((1, Vec::new())),
        }
    }

    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
    ) -> Open {
        let id = if self.enabled {
            let mut inner = self.inner.lock().unwrap();
            inner.0 += 1;
            inner.0
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            layer,
            job,
            start: Instant::now(),
        }
    }

    pub fn close(&self, open: Open) {
        if self.enabled {
            self.push(open, Instant::now(), false);
        }
    }

    /// Records a child of `parent` lasting `nanos`, ending at `end`: the
    /// program-reported part of a call the benchmark can only time whole.
    pub fn derived(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: &Open,
        end: Instant,
        nanos: u64,
    ) {
        if !self.enabled {
            return;
        }
        let start = end
            .checked_sub(std::time::Duration::from_nanos(nanos))
            .unwrap_or(parent.start)
            .max(parent.start);
        let child = self.open(name, layer, parent.id(), parent.job);
        self.push(Open { start, ..child }, end, true);
    }

    fn push(&self, open: Open, end: Instant, derived: bool) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            layer: open.layer,
            job: open.job,
            start_ns: ns(open.start),
            end_ns: ns(end),
            derived,
        };
        self.inner.lock().unwrap().1.push(span);
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.lock().unwrap().1.clone()
    }
}

/// Self time per layer, in seconds, over the spans that start inside a
/// span named `window`: each span's duration minus the part of it its
/// children cover.
pub fn self_time_by_layer(spans: &[Span], window: &str) -> BTreeMap<&'static str, f64> {
    let passes: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == window)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let in_pass = |s: &Span| {
        passes
            .iter()
            .any(|&(a, b)| s.start_ns >= a && s.start_ns <= b)
    };
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| in_pass(s)) {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// The span file: one JSON object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.layer,
            s.job.map_or("null".to_string(), |j| j.to_string()),
            s.start_ns,
            s.end_ns,
            s.derived
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, layer, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            layer,
            job: None,
            start_ns,
            end_ns,
            derived: false,
        };
        let spans = [
            Span {
                name: "pass",
                ..span(1, None, "bench", 0, 100)
            },
            span(2, Some(1), "trace", 10, 60),
            span(3, Some(2), "explore", 20, 50),
        ];
        let t = self_time_by_layer(&spans, "pass");
        assert!((t["bench"] - 50e-9).abs() < 1e-15);
        assert!((t["trace"] - 20e-9).abs() < 1e-15);
        assert!((t["explore"] - 30e-9).abs() < 1e-15);
    }
}
