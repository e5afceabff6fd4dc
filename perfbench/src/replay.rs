//! The correctness reference and the traced replay.
//!
//! The reference is `run_experiment_journaled(.., segment: None, ..)`
//! per distinct spec. The replay re-executes a served run's work
//! serially, in process, through the same public entry points the
//! daemon and client use — admission and session files in a
//! `SessionStore`, the §V protocol through `run_pass_traced` with a
//! benchmark `Measure` over `DirectMeasure`, the journal records the
//! runner writes, the canonical result, the fetch frame's encode and
//! decode, and the snapshot compaction — with a span around each call.
//!
//! The replay is a copy of the runner's journaling and of the daemon's
//! fetch path, so it is gated against the program: every segment it
//! writes must hold the records `run_experiment_journaled(.., Some(path),
//! ..)` writes for the same session ([`segment_mismatches`]), and every
//! fetch frame it encodes must decode to the view the daemon served.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mtm_core::experiment::{
    confirm_run_id, pass_seed, run_pass_traced, select_best_pass, DirectMeasure, Measure,
    PassResult, TrialCtx,
};
use mtm_core::{ExperimentResult, Objective, RunOptions};
use mtm_obs::{Event, MemRecorder, NullRecorder};
use mtm_runner::hash::config_hash;
use mtm_runner::journal::{
    load_segment, ConfirmRecord, Header, Journal, PassDone, Record, TrialRecord, SCHEMA_VERSION,
};
use mtm_runner::{canonical_result_json, fingerprint, run_experiment_journaled, RunnerOptions};
use mtm_serve::proto::{response, ResponseFrame};
use mtm_serve::store::{AdmitLine, MetaLine};
use mtm_serve::{
    decode_frame, encode_frame, FrameStatus, Response, SessionSpec, SessionState, SessionStore,
    SessionView,
};
use mtm_stormsim::StormConfig;

use crate::served::Stored;
use crate::spans::{Kind, Tracer};

/// Key a spec by its wire form.
pub fn spec_key(spec: &SessionSpec) -> String {
    serde_json::to_string(spec).unwrap_or_default()
}

/// One reference result.
pub struct Reference {
    /// Canonical result JSON.
    pub json: String,
    /// Mean confirmation throughput of the chosen config.
    pub best_tps: f64,
}

/// Compute the reference for every distinct spec in `specs`.
pub fn references<'a>(
    specs: impl IntoIterator<Item = &'a SessionSpec>,
) -> Result<BTreeMap<String, Reference>, String> {
    let mut out = BTreeMap::new();
    for spec in specs {
        let key = spec_key(spec);
        if out.contains_key(&key) {
            continue;
        }
        let objective = spec.objective();
        let make = spec.strategy_factory();
        let outcome = run_experiment_journaled(
            &spec.exp_id("reference"),
            &make,
            &objective,
            &spec.run_options(),
            &RunnerOptions::serial(),
            None,
            false,
        )
        .map_err(|e| format!("reference run: {e}"))?;
        let json = canonical_result_json(&outcome.result);
        out.insert(
            key,
            Reference {
                json,
                best_tps: outcome.result.mean(),
            },
        );
    }
    Ok(out)
}

/// Counts the replay gathers besides its spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Journal records appended.
    pub journal_records: u64,
    /// Journal bytes written (segment sizes before compaction).
    pub journal_bytes: u64,
    /// Proposal paths of the BO strategies (`design`, `incremental`, …).
    pub paths: BTreeMap<String, u64>,
    /// Fetch response frame sizes, bytes.
    pub response_bytes: Vec<f64>,
    /// Replayed results that differ from the reference, and replayed
    /// fetches that decode to another view than the daemon served.
    pub mismatches: usize,
}

/// The replay's outcome.
pub struct Replay {
    /// Spans (empty for the untraced twin).
    pub tracer: Tracer,
    /// Wall time of the replayed work, s.
    pub total_s: f64,
    /// Counts.
    pub counts: Counts,
    /// Per executed session: its id, spec and the segment the replay
    /// wrote, as it was before compaction.
    pub segments: Vec<(String, SessionSpec, Vec<u8>)>,
}

/// The benchmark's [`Measure`]: one span per simulator run, and the
/// trial record the runner's journaled measure appends after it.
struct SpanMeasure<'a> {
    tracer: &'a mut Tracer,
    journal: &'a Journal,
    pass: usize,
    /// Tracer time at which each step's first measurement started.
    step_start: Vec<u64>,
    records: u64,
    error: Option<String>,
}

impl SpanMeasure<'_> {
    fn append(&mut self, record: impl FnOnce() -> Record) {
        let journal = self.journal;
        let res = self
            .tracer
            .time(Kind::Journal, || journal.append(&record()));
        self.records += 1;
        if let Err(e) = res {
            self.error.get_or_insert_with(|| e.to_string());
        }
    }
}

impl Measure for SpanMeasure<'_> {
    fn measure(&mut self, objective: &Objective, config: &StormConfig, ctx: &TrialCtx) -> f64 {
        if ctx.rep == 0 {
            if self.step_start.len() <= ctx.step {
                self.step_start.resize(ctx.step + 1, 0);
            }
            self.step_start[ctx.step] = self.tracer.now();
        }
        let y = self.tracer.time(Kind::Stormsim, || {
            DirectMeasure.measure(objective, config, ctx)
        });
        let pass = self.pass;
        self.append(|| {
            Record::Trial(TrialRecord {
                pass,
                step: ctx.step,
                rep: ctx.rep,
                config_hash: config_hash(config),
                run_id: ctx.run_id(),
                throughput: y,
                cached: false,
                attempts: 1,
            })
        });
        y
    }
}

fn journal_append(
    t: &mut Tracer,
    journal: &Journal,
    record: &Record,
    counts: &mut Counts,
) -> Result<(), String> {
    counts.journal_records += 1;
    t.time(Kind::Journal, || journal.append(record))
        .map_err(|e| e.to_string())
}

/// One executed session to replay.
#[derive(Debug, Clone)]
pub struct Item {
    /// Session id.
    pub id: String,
    /// What it ran.
    pub spec: SessionSpec,
    /// The `Done` view the daemon served for it.
    pub served: Option<SessionView>,
}

/// Replay one session end to end: run it under a journal, fetch its
/// result once and compact it once. `admit` adds the admission line and
/// session files first (sessions resumed from a store already have
/// them). Returns the canonical result and the segment before
/// compaction.
fn replay_session(
    t: &mut Tracer,
    store: &SessionStore,
    item: &Item,
    admit: bool,
    counts: &mut Counts,
) -> Result<(String, Vec<u8>), String> {
    let (id, spec) = (item.id.as_str(), &item.spec);
    let session = t.enter(Kind::Session);
    if admit {
        t.time(Kind::StoreMeta, || {
            let seq = store.peek_seq();
            store
                .journal_admission(&AdmitLine::Admitted {
                    seq,
                    session: id.to_string(),
                    spec: spec.clone(),
                })
                .and_then(|_| store.create_session(id, spec))
        })
        .map_err(|e| e.to_string())?;
    }
    let objective = t.time(Kind::Topogen, || spec.objective());
    let make = t.time(Kind::Topogen, || spec.strategy_factory());
    let opts = spec.run_options();
    let ropts = RunnerOptions::serial();
    let exp_id = spec.exp_id(id);
    let path = store.segment_path(id);
    // The runner checks for a segment to resume before it opens one.
    t.time(Kind::SegmentLoad, || load_segment(&path))
        .map_err(|e| e.to_string())?;
    let journal = t
        .time(Kind::Journal, || Journal::open_append(&path, 0))
        .map_err(|e| e.to_string())?;
    let header = Record::Header(Header {
        version: SCHEMA_VERSION,
        exp_id: exp_id.clone(),
        seed: opts.seed,
        fingerprint: fingerprint(&exp_id, &opts, &ropts),
    });
    journal_append(t, &journal, &header, counts)?;

    let mut passes = Vec::with_capacity(opts.passes.max(1));
    for p in 0..opts.passes.max(1) {
        let pass_span = t.enter(Kind::CorePass);
        let seed = pass_seed(opts.seed, p);
        let mut strategy = make(seed);
        let linear = strategy.is_linear();
        let bo = matches!(strategy.name(), "bo" | "ibo");
        let pass_opts = RunOptions {
            seed,
            ..opts.clone()
        };
        let traced = t.on();
        let mut measure = SpanMeasure {
            tracer: t,
            journal: &journal,
            pass: p,
            step_start: Vec::new(),
            records: 0,
            error: None,
        };
        let mut events = Vec::new();
        let result = if traced {
            let mut rec = MemRecorder::new();
            let r = run_pass_traced(
                &mut strategy,
                &objective,
                &pass_opts,
                &mut measure,
                &mut rec,
            );
            events = rec.drain();
            r
        } else {
            run_pass_traced(
                &mut strategy,
                &objective,
                &pass_opts,
                &mut measure,
                &mut NullRecorder,
            )
        };
        let SpanMeasure {
            step_start,
            records,
            error,
            ..
        } = measure;
        counts.journal_records += records;
        if let Some(e) = error {
            return Err(e);
        }
        // Proposal spans: the pass loop times each proposal and measures
        // right after it, so a proposal ends where its step's first
        // measurement starts.
        let mut refit: BTreeMap<usize, bool> = BTreeMap::new();
        for event in &events {
            if let Event::Propose {
                step,
                path,
                refit: r,
                ..
            } = event
            {
                refit.insert(*step, *r);
                if bo {
                    *counts.paths.entry(path.to_string()).or_insert(0) += 1;
                }
            }
        }
        if traced && !linear {
            for s in &result.steps {
                let Some(&end) = step_start.get(s.step) else {
                    continue;
                };
                let start = end.saturating_sub((s.optimizer_time_s * 1e9) as u64);
                let kind = if refit.get(&s.step).copied().unwrap_or(false) {
                    Kind::Refit
                } else {
                    Kind::Propose
                };
                t.leaf(kind, start, end);
            }
        }
        let done = Record::PassDone(PassDone {
            pass: p,
            result: result.clone(),
        });
        journal_append(t, &journal, &done, counts)?;
        passes.push(result);
        t.exit(pass_span);
    }

    let confirm = t.enter(Kind::CoreConfirm);
    let best_pass = select_best_pass(&passes);
    let best_config = passes[best_pass].best_config.clone();
    let best_hash = config_hash(&best_config);
    let mut confirmation = Vec::with_capacity(opts.confirm_reps);
    for rep in 0..opts.confirm_reps {
        let run_id = confirm_run_id(opts.seed, rep as u64);
        let y = t.time(Kind::Stormsim, || objective.measure(&best_config, run_id));
        let record = Record::Confirm(ConfirmRecord {
            rep,
            config_hash: best_hash,
            run_id,
            throughput: y,
        });
        journal_append(t, &journal, &record, counts)?;
        confirmation.push(y);
    }
    t.exit(confirm);
    let result = ExperimentResult {
        strategy: passes[best_pass].strategy.clone(),
        passes,
        best_pass,
        confirmation,
    };
    journal_append(t, &journal, &Record::Done(result.clone()), counts)?;
    drop(journal);
    let segment = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    counts.journal_bytes += segment.len() as u64;
    let json = t.time(Kind::Canonical, || canonical_result_json(&result));
    t.time(Kind::StoreMeta, || {
        store.meta_append(id, &MetaLine::Finished)
    })
    .map_err(|e| e.to_string())?;
    fetch_frame(t, item, &json, counts)?;
    t.time(Kind::Compact, || store.compact(id))
        .map_err(|e| e.to_string())?;
    t.exit(session);
    Ok((json, segment))
}

/// Encode the `Done` poll response carrying `json` and decode it back,
/// as the daemon and the client do for a fetch. A decoded view other
/// than the one the daemon served counts in `counts.mismatches`.
fn fetch_frame(t: &mut Tracer, item: &Item, json: &str, counts: &mut Counts) -> Result<(), String> {
    let id = &item.id;
    let resp = Response::Status(SessionView {
        session: id.clone(),
        tenant: item.spec.tenant.clone(),
        state: SessionState::Done,
        priority: 0,
        result: Some(json.to_string()),
        error: None,
    });
    let frame = t.time(Kind::Encode, || encode_frame(&response(resp)))?;
    counts.response_bytes.push(frame.len() as f64);
    match t.time(Kind::Decode, || decode_frame::<ResponseFrame>(&frame)) {
        FrameStatus::Complete { value, .. } => match value.resp {
            Response::Status(v) => {
                if Some(&v) != item.served.as_ref() {
                    counts.mismatches += 1;
                }
                Ok(())
            }
            _ => Err(format!("{id}: fetch frame does not round-trip")),
        },
        _ => Err(format!("{id}: fetch frame does not decode")),
    }
}

/// A segment's records, one serialized record per line, with the
/// wall-clock `optimizer_time_s` fields zeroed.
fn records(bytes: &[u8]) -> Result<Vec<String>, String> {
    let zero = |p: &mut PassResult| {
        for step in &mut p.steps {
            step.optimizer_time_s = 0.0;
        }
    };
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    text.lines()
        .map(|line| {
            let mut record: Record = serde_json::from_str(line).map_err(|e| e.to_string())?;
            match &mut record {
                Record::PassDone(p) => zero(&mut p.result),
                Record::Done(r) => r.passes.iter_mut().for_each(zero),
                _ => {}
            }
            serde_json::to_string(&record).map_err(|e| e.to_string())
        })
        .collect()
}

/// The replayed segments that differ from the segment the runner writes
/// for the same session — `run_experiment_journaled(.., Some(path), ..)`
/// under the session's experiment id, run once per session in `dir` —
/// with the first few reasons.
pub fn segment_mismatches(dir: &Path, replays: &[&Replay]) -> Result<(usize, Vec<String>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let mut reference: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut bad = 0;
    let mut reasons = Vec::new();
    for (id, spec, bytes) in replays.iter().flat_map(|r| &r.segments) {
        if !reference.contains_key(id.as_str()) {
            let path = dir.join(format!("{id}.jsonl"));
            run_experiment_journaled(
                &spec.exp_id(id),
                &spec.strategy_factory(),
                &spec.objective(),
                &spec.run_options(),
                &RunnerOptions::serial(),
                Some(&path),
                false,
            )
            .map_err(|e| format!("reference segment {id}: {e}"))?;
            let bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            reference.insert(id, records(&bytes)?);
        }
        let same = records(bytes).is_ok_and(|r| Some(&r) == reference.get(id.as_str()));
        if !same {
            bad += 1;
            if reasons.len() < 5 {
                reasons.push(format!(
                    "{id}: replayed journal segment differs from the runner's"
                ));
            }
        }
    }
    Ok((bad, reasons))
}

/// Replay the sessions `paper-bo` executed, in `root`.
pub fn replay_sessions(
    root: &Path,
    sessions: &[Item],
    refs: &BTreeMap<String, Reference>,
    traced: bool,
) -> Result<Replay, String> {
    let mut t = Tracer::new(traced);
    let mut counts = Counts::default();
    let mut segments = Vec::with_capacity(sessions.len());
    let mut results = Vec::with_capacity(sessions.len());
    let t0 = Instant::now();
    let top = t.enter(Kind::Root);
    // The daemon opens (and recovers) its store before it serves.
    let store = t
        .time(Kind::Recover, || {
            SessionStore::open(root).and_then(|s| s.recover().map(|_| s))
        })
        .map_err(|e| e.to_string())?;
    for (i, item) in sessions.iter().enumerate() {
        t.set_session(i as u32);
        let (json, segment) = replay_session(&mut t, &store, item, true, &mut counts)?;
        results.push(json);
        segments.push((item.id.clone(), item.spec.clone(), segment));
    }
    t.exit(top);
    let total_s = t0.elapsed().as_secs_f64();
    for (item, json) in sessions.iter().zip(&results) {
        if refs.get(&spec_key(&item.spec)).map(|r| &r.json) != Some(json) {
            counts.mismatches += 1;
        }
    }
    Ok(Replay {
        tracer: t,
        total_s,
        counts,
        segments,
    })
}

/// Replay `cycles` restart read-backs of the store at `pristine`
/// (`restart-readback`), each on its own copy in `work`.
pub fn replay_readback(
    pristine: &Path,
    work: &Path,
    stored: &[Stored],
    cycles: usize,
    refs: &BTreeMap<String, Reference>,
    traced: bool,
) -> Result<Replay, String> {
    let roots: Vec<_> = (0..cycles.max(1))
        .map(|c| work.join(format!("replay-{c}")))
        .collect();
    for root in &roots {
        crate::served::copy_dir(pristine, root)?;
    }
    crate::served::sync_fs();
    let mut t = Tracer::new(traced);
    let mut counts = Counts::default();
    let mut segments = Vec::new();
    let mut results: Vec<(usize, String)> = Vec::new();
    let t0 = Instant::now();
    let top = t.enter(Kind::Root);
    for root in &roots {
        let store = t
            .time(Kind::Recover, || {
                SessionStore::open(root).and_then(|s| s.recover().map(|_| s))
            })
            .map_err(|e| e.to_string())?;
        let items: Vec<Item> = stored
            .iter()
            .map(|s| Item {
                id: s.id.clone(),
                spec: s.spec.clone(),
                served: s.view.clone(),
            })
            .collect();
        for (i, item) in items.iter().enumerate() {
            if stored[i].resumed {
                t.set_session(i as u32);
                let (json, segment) = replay_session(&mut t, &store, item, false, &mut counts)?;
                results.push((i, json));
                segments.push((item.id.clone(), item.spec.clone(), segment));
            }
        }
        for (i, item) in items.iter().enumerate() {
            if stored[i].resumed {
                continue;
            }
            t.set_session(i as u32);
            let id = &item.id;
            let data = t
                .time(Kind::SegmentLoad, || load_segment(&store.segment_path(id)))
                .map_err(|e| e.to_string())?
                .and_then(|d| d.done)
                .ok_or_else(|| format!("{id}: stored segment has no result"))?;
            let json = t.time(Kind::Canonical, || canonical_result_json(&data));
            fetch_frame(&mut t, item, &json, &mut counts)?;
            results.push((i, json));
        }
        for (i, item) in items.iter().enumerate() {
            if stored[i].resumed {
                continue;
            }
            t.set_session(i as u32);
            t.time(Kind::Compact, || store.compact(&item.id))
                .map_err(|e| e.to_string())?;
        }
    }
    t.exit(top);
    let total_s = t0.elapsed().as_secs_f64();
    for (i, json) in &results {
        if refs.get(&spec_key(&stored[*i].spec)).map(|r| &r.json) != Some(json) {
            counts.mismatches += 1;
        }
    }
    for root in &roots {
        let _ = std::fs::remove_dir_all(root);
    }
    Ok(Replay {
        tracer: t,
        total_s,
        counts,
        segments,
    })
}
