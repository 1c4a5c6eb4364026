//! In-memory tracing for the traced run: spans around each call the
//! benchmark makes into the pipeline, and per-layer counters recorded at
//! the same boundaries. A disabled tracer records nothing, so the
//! untraced run that produces the end-to-end metrics pays only a branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::{json_number, push_json_str};
use crate::stats;

/// One timed call: `name` is `layer.call`; `parent` indexes the span that
/// was open when this one started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// How repeated samples of one counter fold into a single value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fold {
    Median,
    Mean,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, (Fold, Vec<f64>)>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` (`layer.call`).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.state.borrow_mut();
            let parent = st.open.last().copied();
            let start_s = self.epoch.elapsed().as_secs_f64();
            st.spans.push(Span {
                name,
                start_s,
                end_s: start_s,
                parent,
            });
            let idx = st.spans.len() - 1;
            st.open.push(idx);
            idx
        };
        let out = f();
        let mut st = self.state.borrow_mut();
        st.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        st.open.pop();
        out
    }

    fn push(&self, name: &'static str, fold: Fold, v: f64) {
        if self.enabled {
            let mut st = self.state.borrow_mut();
            let entry = st.counters.entry(name).or_insert((fold, Vec::new()));
            entry.1.push(v);
        }
    }

    /// Records one sample of a counter reported as the median sample
    /// (wall times and rates).
    pub fn median(&self, name: &'static str, v: f64) {
        self.push(name, Fold::Median, v);
    }

    /// Records one sample of a counter reported as the mean sample (work
    /// counts per pass or per batch).
    pub fn mean(&self, name: &'static str, v: f64) {
        self.push(name, Fold::Mean, v);
    }

    /// Every counter folded to one value.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        let st = self.state.borrow();
        st.counters
            .iter()
            .filter_map(|(&k, (fold, v))| {
                let x = match fold {
                    Fold::Median => stats::median(v),
                    Fold::Mean => stats::mean(v),
                }?;
                Some((k, x))
            })
            .collect()
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Self time per layer: each span's duration minus the time its
    /// children cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        self_times(&self.state.borrow().spans)
    }

    /// The spans and counters as one JSON document.
    pub fn to_json(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::from("{\"spans\": [");
        for (i, s) in st.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n  ");
            }
            out.push_str("{\"id\": ");
            out.push_str(&i.to_string());
            out.push_str(", \"name\": ");
            push_json_str(&mut out, s.name);
            out.push_str(&format!(
                ", \"start_s\": {}, \"end_s\": {}, \"parent\": {}}}",
                json_number(s.start_s),
                json_number(s.end_s),
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
        }
        out.push_str("],\n\"counters\": {");
        for (i, (k, v)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, k);
            out.push_str(": ");
            out.push_str(&json_number(*v));
        }
        out.push_str("}}\n");
        out
    }
}

fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end_s - s.start_s;
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_time) {
        *by_layer.entry(s.layer()).or_insert(0.0) += (s.end_s - s.start_s - c).max(0.0);
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "bench.run",
                start_s: 0.0,
                end_s: 10.0,
                parent: None,
            },
            Span {
                name: "core.seq_dis",
                start_s: 1.0,
                end_s: 5.0,
                parent: Some(0),
            },
            Span {
                name: "core.cover",
                start_s: 5.0,
                end_s: 8.0,
                parent: Some(0),
            },
            Span {
                name: "graph.load",
                start_s: 1.0,
                end_s: 2.0,
                parent: Some(1),
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 3.0);
        assert_eq!(t["core"], 6.0);
        assert_eq!(t["graph"], 1.0);
    }

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("bench.run", || t.span("core.seq_dis", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end_s <= spans[0].end_s);
        t.median("graph.load_s", 3.0);
        t.median("graph.load_s", 1.0);
        t.median("graph.load_s", 2.0);
        t.mean("core.negatives", 1.0);
        t.mean("core.negatives", 2.0);
        let c = t.counters();
        assert_eq!(c["graph.load_s"], 2.0);
        assert_eq!(c["core.negatives"], 1.5);

        let off = Tracer::new(false);
        off.span("bench.run", || off.median("graph.load_s", 1.0));
        assert!(off.spans().is_empty());
        assert!(off.counters().is_empty());
    }
}
