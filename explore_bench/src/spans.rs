//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public function: name, start, end, parent, and a request id
//! (the traced candidate or sample). They stay in memory and are
//! written once, when the run ends.

use obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `hgen.emit`.
    pub name: &'static str,
    /// The candidate or sample this span belongs to (`None` for
    /// set-up).
    pub request: Option<u64>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<u64>,
}

impl Tracer {
    /// A tracer with no spans.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: None }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Sets the request id for spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = Some(request);
    }

    /// Opens a span that encloses every span opened before the
    /// matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        let span = Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close matches an open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Closes every span still open (after an early return).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.close();
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns: its duration minus the durations of
    /// its children (children run sequentially on this thread, so they
    /// never overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per request, the summed self time (µs) of every span name, over
    /// the spans whose root is named in `roots`.
    pub fn self_us_by_request(&self, roots: &[&str]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let own = self.self_ns();
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let (Some(r), true) = (s.request, roots.contains(&self.root_of(i).name)) {
                *out.entry(r).or_default().entry(s.name).or_default() += own[i] as f64 / 1_000.0;
            }
        }
        out
    }

    fn root_of(&self, mut i: usize) -> &Span {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        &self.spans[i]
    }

    /// Every span as one JSON line: name, request, id, parent, start
    /// and end in µs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .with("name", s.name)
                .with("request", s.request.map_or(Json::Null, Json::from))
                .with("id", id)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("start_us", s.start_ns as f64 / 1_000.0)
                .with("end_us", s.end_ns as f64 / 1_000.0);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_request(3);
        t.open("root");
        t.time("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close();
        let own = t.self_ns();
        assert!(own[1] >= 2_000_000);
        assert!(own[0] < t.spans()[0].dur_ns() - 1_000_000);
        let by = t.self_us_by_request(&["root"]);
        assert!(by[&3]["leaf"] >= 2_000.0);
        assert!(t.to_jsonl().lines().count() == 2);
    }
}
