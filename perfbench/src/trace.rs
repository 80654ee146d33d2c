//! Spans recorded by the benchmark around each call into a layer crate.
//!
//! A span holds a name, its start and end on the host clock, its parent,
//! and the counters snapshotted when it closed. All spans of one workload
//! run share a run id. Spans stay in memory and are written out once, at
//! the end. A disabled recorder keeps nothing and costs one branch.

use std::fmt::Write as _;
use std::time::Instant;

use crate::heap::Heap;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counters at close: `(name, value)`.
    pub counters: Vec<(&'static str, f64)>,
}

fn with_heap(mut counters: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
    let h = Heap::now();
    counters.push(("heap.allocs", h.allocs as f64));
    counters.push(("heap.alloc_bytes", h.alloc_bytes as f64));
    counters.push(("heap.live_bytes", h.live() as f64));
    counters
}

pub struct Recorder {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span (`None` when recording is off).
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool, run_id: String) -> Recorder {
        Recorder {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            counters: Vec::new(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span`, snapshotting the heap counters plus `counters`.
    pub fn close(&mut self, span: Open, counters: Vec<(&'static str, f64)>) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.counters = with_heap(counters);
    }

    /// Add a closed span from host-clock marks taken where a span could
    /// not be open (inside a simulated task), as a child of the innermost
    /// open span.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        counters: Vec<(&'static str, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
            counters: with_heap(counters),
        });
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\":\"{}\",\"spans\":[", self.run_id);
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"counters\":{{",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
            for (i, (k, v)) in s.counters.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
