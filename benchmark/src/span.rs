//! In-memory spans recorded from the benchmark's side of each layer
//! boundary: name, start, end, the span that caused it, and the request the
//! spans belong to. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id shared by every span of one generated request.
    pub request: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Times `f` as a span named `name`, nested under the currently open
    /// span. `f` receives the recorder so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            parent: self.open.last().copied(),
            request: self.request,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        let start = self.origin.elapsed();
        let value = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        self.spans[index].start_ns = start.as_nanos() as u64;
        self.spans[index].end_ns = end.as_nanos() as u64;
        value
    }

    /// Times a leaf call (no child spans).
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Per span name, the duration in seconds of every occurrence.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            out.entry(span.name)
                .or_default()
                .push((span.end_ns - span.start_ns) as f64 / 1e9);
        }
        out
    }

    /// Per span name, the *self* time in seconds of every occurrence: the
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            out.entry(span.name).or_default().push(own as f64 / 1e9);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_nest_under_the_open_span_and_share_its_request() {
        let mut recorder = Recorder::new();
        recorder.set_request(7);
        let answer = recorder.span("outer", |r| {
            r.leaf("inner", || std::thread::sleep(Duration::from_millis(2)));
            r.leaf("inner", || ());
            42
        });
        recorder.set_request(8);
        recorder.leaf("sibling", || ());
        assert_eq!(answer, 42);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[1].request, 7);
        assert_eq!(spans[3].request, 8);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut recorder = Recorder::new();
        recorder.span("outer", |r| {
            r.leaf("inner", || std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(1));
        });
        let total = recorder.durations()["outer"][0];
        let inner = recorder.durations()["inner"][0];
        let own = recorder.self_times()["outer"][0];
        assert!(inner >= 0.005);
        assert!((total - inner - own).abs() < 1e-9);
        assert!(own >= 0.001 && own < total);
        assert_eq!(recorder.self_times()["inner"][0], inner);
    }
}
