//! Host-time spans recorded around calls into the program's public
//! functions.  Spans stay in memory for the whole run and are written once,
//! at exit, as Chrome-trace JSON (open in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub segment: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        segment: u32,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            segment,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
        });
        self.spans.len() - 1
    }

    /// Makes `parent` the parent of every parentless span that began at or
    /// after `since` (a batch span adopting the sampled calls inside it).
    pub fn adopt_since(&mut self, parent: usize, since: Instant) {
        let since_ns = (since - self.epoch).as_nanos() as u64;
        let end_ns = self.spans[parent].end_ns;
        for i in (0..self.spans.len()).rev() {
            let s = &mut self.spans[i];
            if s.start_ns < since_ns {
                break;
            }
            if i != parent && s.parent.is_none() && s.end_ns <= end_ns {
                s.parent = Some(parent);
            }
        }
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Chrome-trace JSON: one complete ("X") event per span, one track per
    /// layer, with segment and parent in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut layers: Vec<&str> = Vec::new();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(p) => p,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"segment\":{},\"parent\":{}}}}},",
                s.name,
                s.layer,
                tid + 1,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.segment,
                parent
            );
        }
        for (tid, layer) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}},",
                tid + 1,
                layer
            );
        }
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"ossd-benchmark\"}}\n]}\n");
        out
    }
}
