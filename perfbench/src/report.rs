//! Metric definitions, their computation, and the printout.

use std::collections::BTreeMap;

use crate::replay::{spec_key, Reference, Replay};
use crate::served::{seq, Served};
use crate::spans::{self_times, Kind, LAYERS};
use crate::stats::{self, Tail};
use crate::workload::Role;

/// End-to-end metrics (`--trace 0`), name and unit.
pub const END_TO_END: [(&str, &str); 16] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_s.p50", "s"),
    ("session_s.tail", "s"),
    ("session_s.bo", "s"),
    ("session_s.ibo", "s"),
    ("best_tps.bo", "tuples/s"),
    ("best_tps.ibo", "tuples/s"),
    ("best_tps.mean", "tuples/s"),
    ("poll_ms.p50", "ms"),
    ("poll_ms.tail", "ms"),
    ("fetch_ms.p50", "ms"),
    ("fetch_ms.tail", "ms"),
    ("snapshot_ms.p50", "ms"),
    ("snapshot_ms.tail", "ms"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`), name and unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("trace.total_s", "s"),
    ("trace.served_wall_s", "s"),
    ("unattributed_share", "frac"),
    ("obs.trace_overhead_frac", "frac"),
    ("stormsim.calls", "count"),
    ("stormsim.busy_s", "s"),
    ("stormsim.share", "frac"),
    ("topogen.calls", "count"),
    ("topogen.busy_s", "s"),
    ("topogen.share", "frac"),
    ("bayesopt.propose.calls", "count"),
    ("bayesopt.propose.busy_s", "s"),
    ("bayesopt.propose.share", "frac"),
    ("bayesopt.refit.calls", "count"),
    ("bayesopt.refit.busy_s", "s"),
    ("bayesopt.refit.share", "frac"),
    ("bayesopt.refit_of_propose", "frac"),
    ("bayesopt.norefit_ms.p50", "ms"),
    ("bayesopt.path.design", "count"),
    ("bayesopt.path.incremental", "count"),
    ("bayesopt.path.replay", "count"),
    ("bayesopt.path.fresh", "count"),
    ("bayesopt.path.uniform", "count"),
    ("core.pass.busy_s", "s"),
    ("core.confirm.busy_s", "s"),
    ("core.share", "frac"),
    ("runner.journal.records", "count"),
    ("runner.journal.bytes", "bytes"),
    ("runner.journal.busy_s", "s"),
    ("runner.journal.share", "frac"),
    ("runner.segment_load_ms.p50", "ms"),
    ("runner.canonical_ms.p50", "ms"),
    ("runner.share", "frac"),
    ("store.recover_s", "s"),
    ("store.compact_ms.p50", "ms"),
    ("store.bytes", "bytes"),
    ("store.busy_s", "s"),
    ("store.share", "frac"),
    ("dispatch.submit_us.p50", "us"),
    ("dispatch.poll_us.p50", "us"),
    ("dispatch.queue_wait_ms.p50", "ms"),
    ("proto.response_bytes.p50", "bytes"),
    ("proto.encode_ms.p50", "ms"),
    ("proto.decode_ms.p50", "ms"),
    ("proto.decode_of_fetch", "frac"),
    ("proto.wire_us.p50", "us"),
    ("proto.busy_s", "s"),
    ("proto.share", "frac"),
];

/// One named value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A set of metrics in declaration order, plus printout notes.
#[derive(Debug, Default)]
pub struct Metrics {
    /// The values.
    pub list: Vec<Metric>,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Metrics {
    fn set(&mut self, catalog: &[(&'static str, &'static str)], name: &str, value: f64) {
        let Some(&(name, unit)) = catalog.iter().find(|(n, _)| *n == name) else {
            return;
        };
        let value = if value.is_finite() { value } else { 0.0 };
        self.list.push(Metric { name, value, unit });
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .list
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            body.join(", ")
        )
    }
}

/// How a `.tail` was taken: [`stats::tail`] over groups of time, or
/// [`stats::session_tail`] over groups of one session's repeats.
#[derive(Clone, Copy)]
enum TailOf {
    Time,
    Sessions,
}

fn tail_note(name: &str, unit: &str, t: &Tail, of: TailOf, groups: &[Vec<f64>]) -> String {
    let xs = groups.concat();
    let how = match of {
        TailOf::Time => format!(
            "median over {} groups, {} of all samples beyond it",
            t.groups, t.beyond
        ),
        TailOf::Sessions => format!(
            "over the lower quartiles of {} sessions' repeats, {} sessions beyond it",
            t.groups, t.beyond
        ),
    };
    format!(
        "{name} = {:.6} {unit} is p{}, {how} (n = {}); over all samples \
         p90 {:.6} p95 {:.6} p99 {:.6} p99.9 {:.6}",
        t.value,
        t.p,
        t.n,
        stats::percentile(&xs, 90.0),
        stats::percentile(&xs, 95.0),
        stats::percentile(&xs, 99.0),
        stats::percentile(&xs, 99.9),
    )
}

/// Outcome of the correctness gate.
pub struct Gate {
    /// Attempts.
    pub attempted: usize,
    /// Attempts that failed: the session ended failed/canceled/rejected,
    /// a request errored, or the result differs from the reference.
    pub failed: usize,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

/// Check every served result against its reference.
pub fn gate(served: &Served, refs: &BTreeMap<String, Reference>) -> Gate {
    let mut g = Gate {
        attempted: served.samples.len(),
        failed: 0,
        reasons: Vec::new(),
    };
    for s in &served.samples {
        let reason = match (&s.fail, s.result()) {
            (Some(f), _) => Some(f.clone()),
            (None, Some(r)) if refs.get(&spec_key(&s.spec)).map(|x| &x.json) == Some(r) => None,
            (None, _) => Some(format!("{}: result differs from the reference", s.id)),
        };
        if let Some(r) = reason {
            g.failed += 1;
            if g.reasons.len() < 5 {
                g.reasons.push(r);
            }
        }
    }
    g
}

/// Sessions whose quality `best_tps.mean` averages: the first 480 by
/// admission order, so the value is a function of the seed alone.
const BEST_TPS_SESSIONS: usize = 480;

/// The end-to-end metrics of one served run.
pub fn end_to_end(served: &Served, refs: &BTreeMap<String, Reference>, gate: &Gate) -> Metrics {
    let mut m = Metrics::default();
    let cat = &END_TO_END[..];
    let ok: Vec<_> = served.samples.iter().filter(|s| s.fail.is_none()).collect();
    let tps = |s: &crate::served::Sample| refs.get(&spec_key(&s.spec)).map_or(0.0, |r| r.best_tps);
    // Session times grouped by session: its read-backs over the cycles
    // on `restart-readback`, one time per session on `paper-bo`.
    let mut main: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in ok.iter().filter(|s| s.role == Role::Main) {
        main.entry(s.id.as_str()).or_default().push(s.session_s);
    }
    let main: Vec<Vec<f64>> = main.into_values().collect();
    let by = |strategy: &str| -> Vec<&crate::served::Sample> {
        ok.iter()
            .filter(|s| s.spec.strategy == strategy)
            .copied()
            .collect()
    };
    let mut quality: BTreeMap<u64, f64> = BTreeMap::new();
    for s in ok.iter().filter(|s| s.role == Role::Main) {
        quality.insert(seq(&s.id), tps(s));
    }
    let quality: Vec<f64> = quality.values().take(BEST_TPS_SESSIONS).copied().collect();

    m.set(cat, "setup_s", stats::median(&served.setup_s));
    m.set(cat, "sessions_per_s", stats::median(&served.rates));
    m.set(cat, "session_s.p50", stats::median(&main.concat()));
    let t = stats::session_tail(&main);
    m.set(cat, "session_s.tail", t.value);
    m.notes.push(tail_note(
        "session_s.tail",
        "s",
        &t,
        TailOf::Sessions,
        &main,
    ));
    for strategy in ["bo", "ibo"] {
        let xs: Vec<f64> = by(strategy).iter().map(|s| s.session_s).collect();
        let name = if strategy == "bo" {
            "session_s.bo"
        } else {
            "session_s.ibo"
        };
        m.set(cat, name, stats::median(&xs));
    }
    for strategy in ["bo", "ibo"] {
        let xs: Vec<f64> = by(strategy).iter().map(|s| tps(s)).collect();
        let name = if strategy == "bo" {
            "best_tps.bo"
        } else {
            "best_tps.ibo"
        };
        m.set(cat, name, stats::mean(&xs));
    }
    m.set(cat, "best_tps.mean", stats::mean(&quality));
    for (name, xs, of) in [
        ("poll_ms", &served.poll_ms, TailOf::Time),
        ("fetch_ms", &served.fetch_ms, TailOf::Sessions),
        ("snapshot_ms", &served.snapshot_ms, TailOf::Sessions),
    ] {
        let p50 = format!("{name}.p50");
        let tail = format!("{name}.tail");
        m.set(cat, &p50, stats::median(&xs.concat()));
        let t = match of {
            TailOf::Time => stats::tail(xs),
            TailOf::Sessions => stats::session_tail(xs),
        };
        m.set(cat, &tail, t.value);
        m.notes.push(tail_note(&tail, "ms", &t, of, xs));
    }
    m.set(
        cat,
        "ok_frac",
        1.0 - gate.failed as f64 / gate.attempted.max(1) as f64,
    );
    m
}

/// The per-layer metrics of a traced run and the attribution printout.
pub fn per_layer(served: &Served, untraced: &Replay, traced: &Replay, e2e: &Metrics) -> Metrics {
    let mut m = Metrics::default();
    let cat = &PER_LAYER[..];
    let spans = traced.tracer.spans();
    let self_ns = self_times(spans);
    let mut layer_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut kind_s: BTreeMap<Kind, f64> = BTreeMap::new();
    let mut kind_n: BTreeMap<Kind, u64> = BTreeMap::new();
    let mut kind_dur: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&self_ns) {
        let own = own as f64 / 1e9;
        *layer_s.entry(s.kind.layer()).or_insert(0.0) += own;
        *kind_s.entry(s.kind).or_insert(0.0) += own;
        *kind_n.entry(s.kind).or_insert(0) += 1;
        kind_dur
            .entry(s.kind)
            .or_default()
            .push(s.dur() as f64 / 1e9);
    }
    let total = spans
        .iter()
        .filter(|s| s.kind == Kind::Root)
        .map(|s| s.dur() as f64 / 1e9)
        .sum::<f64>()
        .max(1e-12);
    let ks = |k: Kind| kind_s.get(&k).copied().unwrap_or(0.0);
    let kn = |k: Kind| kind_n.get(&k).copied().unwrap_or(0) as f64;
    let p50_ms = |k: Kind| stats::median(kind_dur.get(&k).map_or(&[][..], |v| v)) * 1e3;
    let ls = |l: &str| layer_s.get(l).copied().unwrap_or(0.0);

    m.set(cat, "trace.total_s", total);
    m.set(cat, "trace.served_wall_s", served.wall_s);
    m.set(cat, "unattributed_share", ls("unattributed") / total);
    m.set(
        cat,
        "obs.trace_overhead_frac",
        traced.total_s / untraced.total_s.max(1e-12) - 1.0,
    );
    m.set(cat, "stormsim.calls", kn(Kind::Stormsim));
    m.set(cat, "stormsim.busy_s", ls("stormsim"));
    m.set(cat, "stormsim.share", ls("stormsim") / total);
    m.set(cat, "topogen.calls", kn(Kind::Topogen));
    m.set(cat, "topogen.busy_s", ls("topogen"));
    m.set(cat, "topogen.share", ls("topogen") / total);
    let propose = ks(Kind::Propose) + ks(Kind::Refit);
    m.set(
        cat,
        "bayesopt.propose.calls",
        kn(Kind::Propose) + kn(Kind::Refit),
    );
    m.set(cat, "bayesopt.propose.busy_s", propose);
    m.set(cat, "bayesopt.propose.share", propose / total);
    m.set(cat, "bayesopt.refit.calls", kn(Kind::Refit));
    m.set(cat, "bayesopt.refit.busy_s", ks(Kind::Refit));
    m.set(cat, "bayesopt.refit.share", ks(Kind::Refit) / total);
    let refit_of_propose = if propose > 0.0 {
        ks(Kind::Refit) / propose
    } else {
        0.0
    };
    m.set(cat, "bayesopt.refit_of_propose", refit_of_propose);
    m.set(cat, "bayesopt.norefit_ms.p50", p50_ms(Kind::Propose));
    for path in ["design", "incremental", "replay", "fresh", "uniform"] {
        let n = traced.counts.paths.get(path).copied().unwrap_or(0) as f64;
        let name = format!("bayesopt.path.{path}");
        m.set(cat, &name, n);
    }
    m.set(cat, "core.pass.busy_s", ks(Kind::CorePass));
    m.set(cat, "core.confirm.busy_s", ks(Kind::CoreConfirm));
    m.set(cat, "core.share", ls("core") / total);
    m.set(
        cat,
        "runner.journal.records",
        traced.counts.journal_records as f64,
    );
    m.set(
        cat,
        "runner.journal.bytes",
        traced.counts.journal_bytes as f64,
    );
    m.set(cat, "runner.journal.busy_s", ks(Kind::Journal));
    m.set(cat, "runner.journal.share", ks(Kind::Journal) / total);
    m.set(cat, "runner.segment_load_ms.p50", p50_ms(Kind::SegmentLoad));
    m.set(cat, "runner.canonical_ms.p50", p50_ms(Kind::Canonical));
    m.set(cat, "runner.share", ls("runner") / total);
    m.set(cat, "store.recover_s", p50_ms(Kind::Recover) / 1e3);
    m.set(cat, "store.compact_ms.p50", p50_ms(Kind::Compact));
    m.set(cat, "store.bytes", served.store_bytes as f64);
    m.set(cat, "store.busy_s", ls("store"));
    m.set(cat, "store.share", ls("store") / total);
    m.set(
        cat,
        "dispatch.submit_us.p50",
        stats::median(&served.inproc_submit_us),
    );
    let poll_us = stats::median(&served.inproc_poll_us);
    m.set(cat, "dispatch.poll_us.p50", poll_us);
    m.set(
        cat,
        "dispatch.queue_wait_ms.p50",
        stats::median(&served.queue_wait_ms),
    );
    m.set(
        cat,
        "proto.response_bytes.p50",
        stats::median(&traced.counts.response_bytes),
    );
    let decode = p50_ms(Kind::Decode);
    m.set(cat, "proto.encode_ms.p50", p50_ms(Kind::Encode));
    m.set(cat, "proto.decode_ms.p50", decode);
    let fetch = e2e.get("fetch_ms.p50").unwrap_or(0.0);
    m.set(
        cat,
        "proto.decode_of_fetch",
        if fetch > 0.0 { decode / fetch } else { 0.0 },
    );
    let poll_ms = e2e.get("poll_ms.p50").unwrap_or(0.0);
    m.set(cat, "proto.wire_us.p50", poll_ms * 1e3 - poll_us);
    m.set(cat, "proto.busy_s", ls("proto"));
    m.set(cat, "proto.share", ls("proto") / total);

    m.notes.push(format!(
        "attribution: self time per layer over the traced replay, total {total:.4} s \
         (served wall time of the same work {:.4} s)",
        served.wall_s
    ));
    for layer in LAYERS {
        m.notes.push(format!(
            "  {layer:<13} {:>10.4} s  {:>6.2}%",
            ls(layer),
            100.0 * ls(layer) / total
        ));
    }
    m.notes.push(format!(
        "  propose {propose:.4} s = refit {:.4} s ({:.1}%) + no refit {:.4} s; \
         refit steps {} of {}",
        ks(Kind::Refit),
        100.0 * refit_of_propose,
        ks(Kind::Propose),
        kn(Kind::Refit),
        kn(Kind::Refit) + kn(Kind::Propose),
    ));
    m.notes.push(format!(
        "  fetch_ms.p50 {fetch:.4} ms, of which proto.decode_ms.p50 {decode:.4} ms ({:.1}%)",
        if fetch > 0.0 {
            100.0 * decode / fetch
        } else {
            0.0
        }
    ));
    m
}
