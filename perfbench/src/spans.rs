//! In-memory span recording and per-layer self time.
//!
//! A span is one call into a layer, recorded by the benchmark around
//! that layer's public entry point: name, start, end, the enclosing span
//! and the session it belongs to. Spans stay in memory while the replay
//! runs and are written out once at the end. A span's self time is its
//! duration minus the part of its interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span times. Each kind belongs to one crate ([`Kind::layer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// The whole replay (benchmark glue between layer calls).
    Root,
    /// One session's replay (benchmark glue inside a session).
    Session,
    /// `SessionSpec::objective` / `SessionSpec::strategy_factory`.
    Topogen,
    /// One optimization pass (`core::experiment::run_pass_traced` and
    /// the strategy construction before it).
    CorePass,
    /// The confirmation phase.
    CoreConfirm,
    /// One simulator measurement (`Measure::measure` over
    /// `DirectMeasure`, or a confirmation `Objective::measure`).
    Stormsim,
    /// One proposal that did not refit hyperparameters.
    Propose,
    /// One proposal that refit hyperparameters.
    Refit,
    /// One `Journal::open_append` / `Journal::append`.
    Journal,
    /// One `journal::load_segment`.
    SegmentLoad,
    /// One `canonical_result_json`.
    Canonical,
    /// `SessionStore::open` + `SessionStore::recover`.
    Recover,
    /// One `SessionStore::compact`.
    Compact,
    /// One `SessionStore::create_session` / `SessionStore::meta_append`.
    StoreMeta,
    /// One `encode_frame` of a response.
    Encode,
    /// One `decode_frame` of a response.
    Decode,
}

/// The crates the attribution names, in print order.
pub const LAYERS: [&str; 8] = [
    "stormsim",
    "topogen",
    "bayesopt",
    "core",
    "runner",
    "store",
    "proto",
    "unattributed",
];

impl Kind {
    /// The span's name as written out.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Root => "root",
            Kind::Session => "session",
            Kind::Topogen => "topogen",
            Kind::CorePass => "core.pass",
            Kind::CoreConfirm => "core.confirm",
            Kind::Stormsim => "stormsim",
            Kind::Propose => "bayesopt.propose",
            Kind::Refit => "bayesopt.refit",
            Kind::Journal => "runner.journal",
            Kind::SegmentLoad => "runner.segment_load",
            Kind::Canonical => "runner.canonical",
            Kind::Recover => "store.recover",
            Kind::Compact => "store.compact",
            Kind::StoreMeta => "store.meta",
            Kind::Encode => "proto.encode",
            Kind::Decode => "proto.decode",
        }
    }

    /// The layer (one of [`LAYERS`]) this kind's self time counts to.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Root | Kind::Session => "unattributed",
            Kind::Topogen => "topogen",
            Kind::CorePass | Kind::CoreConfirm => "core",
            Kind::Stormsim => "stormsim",
            Kind::Propose | Kind::Refit => "bayesopt",
            Kind::Journal | Kind::SegmentLoad | Kind::Canonical => "runner",
            Kind::Recover | Kind::Compact | Kind::StoreMeta => "store",
            Kind::Encode | Kind::Decode => "proto",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What it timed.
    pub kind: Kind,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<u32>,
    /// Session index the span belongs to (`u32::MAX` outside sessions).
    pub session: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when on; every method is a no-op (and reads no clock)
/// when off, which is how the untraced twin of a replay runs.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    session: u32,
}

/// Handle of an open span ([`Tracer::enter`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            session: u32::MAX,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer started (0 when off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.t0.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Tag subsequent spans with session index `s`.
    pub fn set_session(&mut self, s: u32) {
        self.session = s;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, kind: Kind) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            kind,
            start,
            end: start,
            parent: self.stack.last().copied(),
            session: self.session,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`enter`](Self::enter) (and any span left
    /// open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            if let Some(span) = self.spans.get_mut(top as usize) {
                span.end = end;
            }
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a span of `kind`.
    pub fn time<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let open = self.enter(kind);
        let out = f();
        self.exit(open);
        out
    }

    /// Record a span with known bounds under the innermost open span
    /// (used for proposals, whose duration the pass loop measures).
    pub fn leaf(&mut self, kind: Kind, start: u64, end: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            kind,
            start,
            end,
            parent: self.stack.last().copied(),
            session: self.session,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines
    /// (`name start_ns end_ns parent session`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tsession")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            let session = if s.session == u32::MAX {
                -1
            } else {
                i64::from(s.session)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{session}",
                s.kind.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = children.get_mut(p as usize) {
                c.push((s.start, s.end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            kind,
            start,
            end,
            parent,
            session: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(Kind::Root, 0, 100, None),
            span(Kind::Stormsim, 10, 30, Some(0)),
            span(Kind::Journal, 40, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(Kind::CorePass, 100, 200, None),
            // Overlap [120,160) with [140,180): union [120,180) = 60.
            span(Kind::Propose, 120, 160, Some(0)),
            span(Kind::Stormsim, 140, 180, Some(0)),
            // Starts before the parent: only [100,110) is inside.
            span(Kind::Journal, 90, 110, Some(0)),
            // A grandchild covers its parent, not the grandparent.
            span(Kind::Stormsim, 150, 155, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 60 - 10);
        assert_eq!(st[1], 40 - 5);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.enter(Kind::Root);
        t.time(Kind::Stormsim, || ());
        let now = t.now();
        t.leaf(Kind::Propose, now, now + 5);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);

        let mut off = Tracer::new(false);
        let open = off.enter(Kind::Root);
        off.time(Kind::Stormsim, || ());
        off.exit(open);
        assert!(off.spans().is_empty());
    }
}
