//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start, end, parent span and a request id shared by
//! all spans of one request. Spans stay in memory (one [`Tracer`] per
//! thread, merged at the end) and are written out once, when the run
//! ends, as a Chrome trace. With tracing off, [`Tracer::record`] does
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recording
/// process's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within its process.
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request id (0 when the span belongs to no request).
    pub req: u64,
    /// Layer boundary name, e.g. `core.augment`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The span as one text line (the daemon child's wire format).
    pub fn to_line(&self) -> String {
        format!(
            "span {} {} {} {} {} {}",
            self.id, self.parent, self.req, self.start, self.end, self.name
        )
    }

    /// Parse [`Span::to_line`] output.
    pub fn from_line(line: &str) -> Option<Span> {
        let mut it = line.strip_prefix("span ")?.split(' ');
        let mut num = || it.next()?.parse::<u64>().ok();
        let (id, parent, req, start, end) = (num()?, num()?, num()?, num()?, num()?);
        let name = it.next()?.to_string();
        Some(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        })
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every id this tracer hands out (the thread slot).
    prefix: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread slot `slot`; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant, slot: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            prefix: slot << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        self.prefix | self.next
    }

    /// Record a finished span with a pre-allocated `id` (children may be
    /// recorded before their parent).
    pub fn record(
        &mut self,
        id: u64,
        name: &str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start: ns(start),
            end: ns(end),
        });
    }

    /// Time `f` as span `name` under `parent`, returning its result.
    pub fn time<R>(&mut self, name: &str, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, name, start, Instant::now(), parent, req);
        out
    }

    /// Take the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total: u64,
    /// Summed self time (duration minus the part its children cover), ns.
    pub self_time: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total += s.dur();
        t.self_time += self_ns;
    }
    out
}

/// Render spans of several processes as a Chrome trace (`pid` per
/// process, `tid` = the id's thread slot).
pub fn chrome_json(processes: &[(&str, &[Span])]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (pid, (label, spans)) in processes.iter().enumerate() {
        for s in spans.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                label,
                pid + 1,
                s.id >> 40,
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.id,
                s.parent,
                s.req
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),  // overlaps 2: union is 10..50
            span(4, 1, 90, 120), // clipped to the parent's end
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }

    #[test]
    fn lines_round_trip() {
        let s = span(7, 3, 5, 9);
        assert_eq!(Span::from_line(&s.to_line()), Some(s));
    }
}
