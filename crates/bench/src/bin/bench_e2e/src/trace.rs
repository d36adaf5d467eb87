//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; nothing inside the program under test
//! is instrumented. A span is `(name, start_ns, end_ns, parent, rep)`;
//! they stay in memory and are written once, as Chrome-trace JSON lines,
//! when the workload ends. A name's *self time* is its spans' duration
//! minus the part their child spans cover.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: usize,
}

pub struct Recorder {
    t0: Instant,
    workload: String,
    pub rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Self {
            t0: Instant::now(),
            workload: workload.to_string(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Recorder::exit
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.add(name, now, now, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a finished span from timestamps taken elsewhere (the
    /// service clients time their jobs on their own threads).
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: self.rep,
        });
        self.spans.len() - 1
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Summed self time of every span called `name`, in seconds: their
    /// duration minus what their child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let is_named = |id: usize| self.spans[id].name == name;
        let own: u64 = (0..self.spans.len())
            .filter(|&id| is_named(id))
            .map(|id| self.spans[id].end_ns - self.spans[id].start_ns)
            .sum();
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(is_named))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (own - children) as f64 * 1e-9
    }

    /// Write every span as one Chrome-trace "complete" event per line
    /// (load the file in `chrome://tracing` or Perfetto after wrapping
    /// the lines in `[` … `]`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"workload\": \"{}\", \"rep\": {}}}}},",
                s.name,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.rep,
                s.start_ns,
                s.end_ns,
                self.workload,
                s.rep
            )?;
        }
        w.flush()
    }
}
