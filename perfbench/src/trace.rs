//! In-memory spans for the traced run.
//!
//! A span records its name, start, end, parent and request id. Spans
//! stay in memory while the run measures and are written out when it
//! ends. A span's self time is its duration less the durations of its
//! direct children.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Request id of spans that belong to no request (set-up).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to, or [`NO_REQUEST`].
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = self.now_ns();
        self.push(name, now, now, parent, req)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Records a child of `parent` that starts with it and lasts `d`:
    /// the way a duration the program reports itself (such as the
    /// engine's predict time) enters the trace.
    pub fn child_of(&mut self, name: &'static str, parent: u32, d: Duration) -> u32 {
        let p = self.spans[parent as usize];
        let d = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.push(
            name,
            p.start_ns,
            p.start_ns.saturating_add(d),
            parent,
            p.req,
        )
    }

    /// Records a finished root span of length `d` ending now.
    pub fn record(&mut self, name: &'static str, d: Duration, req: u64) -> u32 {
        let end = self.now_ns();
        let d = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.push(name, end.saturating_sub(d), end, ROOT, req)
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, req: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req,
        });
        id
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per span name: every duration and every self time, in ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTimes> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.total_ns.push(s.duration_ns());
            e.self_ns.push(own);
        }
        out
    }

    /// Share of the time under root spans named `root` that the named
    /// child stages account for: the sum of the children's self times
    /// over the sum of the roots' durations.
    pub fn closure(&self, root: &str) -> f64 {
        let own = self.self_times();
        let mut is_request = vec![false; self.spans.len()];
        let mut total = 0u64;
        let mut staged = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                is_request[i] = s.name == root;
                if is_request[i] {
                    total += s.duration_ns();
                }
            } else {
                // Children are recorded after their parent.
                is_request[i] = is_request[s.parent as usize];
                if is_request[i] {
                    staged += own[i];
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            staged as f64 / total as f64
        }
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,req")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let req = if s.req == NO_REQUEST {
                String::new()
            } else {
                s.req.to_string()
            };
            writeln!(
                w,
                "{i},{},{},{},{parent},{req}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Durations and self times of all spans sharing one name.
#[derive(Debug, Default, Clone)]
pub struct NameTimes {
    /// Span durations, ns.
    pub total_ns: Vec<u64>,
    /// Span self times, ns.
    pub self_ns: Vec<u64>,
}
