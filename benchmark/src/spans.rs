//! In-memory spans for the traced run.
//!
//! The benchmark records a span (name, start, end, parent, pass id) around
//! each public call into a layer, keeps them all in memory, and writes them
//! out once when the run ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover. Spans inside the
//! program itself are a later change.

use std::time::Instant;

use crate::json::escape;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The traced pass this span belongs to.
    pub pass: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
        (end_ns - self.spans[i].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let r = f();
        (r, self.exit())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: duration minus the part of the
/// interval covered by direct children (clipped to the parent and merged,
/// so overlapping or out-of-range children never over-subtract).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in seconds, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += ns as f64 / 1e9;
                row.2 += 1;
            }
            None => out.push((s.name, ns as f64 / 1e9, 1)),
        }
    }
    out
}

/// The trace document written to `out/trace_<workload>.json`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"unit\": \"ns\", \"spans\": [\n",
        escape(workload)
    );
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": {}, \"pass\": {}, \"parent\": {parent}, \
             \"start\": {}, \"end\": {}, \"self\": {self_ns}}}{}\n",
            escape(s.name),
            s.pass,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            pass: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(None, 0, 100),    // root
            span(Some(0), 10, 40), // child a
            span(Some(1), 15, 25), // grandchild of a
            span(Some(0), 50, 90), // child b, sibling of a
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 30 - 40, "root minus both direct children");
        assert_eq!(selfs[1], 30 - 10, "a minus its own child only");
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 40);
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_and_overhanging_children_never_over_subtract() {
        let spans = vec![
            span(None, 100, 200),
            span(Some(0), 120, 160),
            span(Some(0), 150, 180), // overlaps the previous sibling
            span(Some(0), 190, 250), // overhangs the parent's end
        ];
        let selfs = self_times_ns(&spans);
        // Covered: [120,180) ∪ [190,200) = 70.
        assert_eq!(selfs[0], 30);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut r = Recorder::new();
        r.set_pass(3);
        r.enter("outer");
        let ((), inner_s) = r.time("inner", || std::hint::black_box(()));
        let outer_s = r.exit();
        assert!(outer_s >= inner_s);
        let s = r.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].pass, 3);
        let by_name = self_time_by_name(s);
        assert_eq!(by_name.len(), 2);
        assert!(to_json("w", 1, s).contains("\"name\": \"inner\""));
    }
}
