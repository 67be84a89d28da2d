//! Bench-side spans: recorded around each call into a layer, kept in
//! memory and written out as JSON when the run ends. Only the traced run
//! records any.

use std::time::Instant;

use crate::stats::{json_str, nanos};

/// Spans kept per recorder; later ones are counted, not stored, so a
/// traced run's memory stays bounded.
const CAP: usize = 50_000;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Span ids carry the recorder number in their
/// top bits, so ids from different threads never collide; parent 0 is
/// "no parent".
pub struct Spans {
    epoch: Instant,
    base: u64,
    next: u64,
    pub on: bool,
    pub kept: Vec<Span>,
    pub dropped: u64,
}

impl Spans {
    pub fn new(epoch: Instant, recorder: u64) -> Self {
        Spans {
            epoch,
            base: recorder << 48,
            next: 0,
            on: false,
            kept: Vec::new(),
            dropped: 0,
        }
    }

    /// Allocates an id for a span that will be closed with [`Spans::close`].
    pub fn open(&mut self) -> (u64, Instant) {
        self.next += 1;
        (self.base | self.next, Instant::now())
    }

    pub fn close(&mut self, id: u64, parent: u64, op: u64, name: &'static str, start: Instant) {
        let end = Instant::now();
        if !self.on {
            return;
        }
        if self.kept.len() >= CAP {
            self.dropped += 1;
            return;
        }
        self.kept.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            end_ns: nanos(end.saturating_duration_since(self.epoch)),
        });
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let (id, start) = self.open();
        let out = f();
        self.close(id, parent, op, name, start);
        out
    }
}

/// Writes every recorder's spans plus a per-layer self-time summary as
/// one JSON document.
pub fn write(path: &std::path::Path, recorders: &[&Spans], summary: &[(String, f64, &str)]) {
    let mut out = String::from("{\n  \"summary\": {");
    for (i, (name, value, unit)) in summary.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            crate::stats::json_num(*value),
            json_str(unit)
        ));
    }
    let dropped: u64 = recorders.iter().map(|r| r.dropped).sum();
    out.push_str(&format!(
        "\n  }},\n  \"spans_dropped\": {dropped},\n  \"spans\": ["
    ));
    let mut first = true;
    for r in recorders {
        for s in &r.kept {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.op,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create trace dir");
    }
    std::fs::write(path, out).expect("write trace file");
}
