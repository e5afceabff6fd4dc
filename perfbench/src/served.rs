//! The served runs: an in-process `mtm-serve` daemon driven over its
//! TCP socket by one `mtm_serve::Client` on one connection.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mtm_serve::store::AdmitLine;
use mtm_serve::{
    Client, Daemon, DaemonConfig, DispatchConfig, Endpoint, Quotas, Request, Response, SessionSpec,
    SessionState, SessionStore, SessionView,
};

use crate::workload::{self, Role, Shape, Size, Workload, WORKERS};

/// Give up on a session that has not finished after this long.
const SESSION_TIMEOUT: Duration = Duration::from_secs(150);

/// One attempted session (or, on `restart-readback`, one read-back).
#[derive(Debug, Clone)]
pub struct Sample {
    /// What ran.
    pub spec: SessionSpec,
    /// How it counts.
    pub role: Role,
    /// Session id.
    pub id: String,
    /// Submit → first poll that saw `Done` (read-back: the fetch).
    pub session_s: f64,
    /// The served `Done` view that carried the result.
    pub view: Option<SessionView>,
    /// Why the attempt failed, if it did.
    pub fail: Option<String>,
}

impl Sample {
    fn new(spec: &SessionSpec, role: Role, id: &str) -> Sample {
        Sample {
            spec: spec.clone(),
            role,
            id: id.to_string(),
            session_s: 0.0,
            view: None,
            fail: None,
        }
    }

    /// The served canonical result.
    pub fn result(&self) -> Option<&String> {
        self.view.as_ref().and_then(|v| v.result.as_ref())
    }
}

/// One session of the `restart-readback` store.
#[derive(Debug, Clone)]
pub struct Stored {
    /// Session id.
    pub id: String,
    /// What it runs.
    pub spec: SessionSpec,
    /// How it counts.
    pub role: Role,
    /// Admitted but unfinished when the daemon stopped: it resumes on
    /// restart.
    pub resumed: bool,
    /// The `Done` view the first read-back cycle fetched.
    pub view: Option<SessionView>,
}

/// Everything one served run measured. Status polls are kept in groups
/// of one stretch of time — one per `paper-bo` session, one per
/// read-back cycle on `restart-readback` — whose median of percentiles
/// is `poll_ms.tail`. Fetches and snapshots are kept in groups of one
/// session — its repeats over the read-back cycles, a single operation
/// on `paper-bo` — whose percentile of medians is the `.tail`.
#[derive(Debug, Default)]
pub struct Served {
    /// `Daemon::start` → first answered request, per start.
    pub setup_s: Vec<f64>,
    /// Completion rates, 1/s, whose median is `sessions_per_s`: one per
    /// read-back cycle (sessions over the time from the restart to the
    /// last result fetched), or one for the whole `paper-bo` window.
    pub rates: Vec<f64>,
    /// Wall time of the served operations the replay re-executes, s.
    pub wall_s: f64,
    /// Every attempt.
    pub samples: Vec<Sample>,
    /// Round trips of polls that saw a queued or active session, ms.
    pub poll_ms: Vec<Vec<f64>>,
    /// Round trips of polls that returned a `Done` result, ms, per
    /// session.
    pub fetch_ms: Vec<Vec<f64>>,
    /// Round trips of `snapshot` requests, ms, per session.
    pub snapshot_ms: Vec<Vec<f64>>,
    /// On-disk bytes of the daemon's store after the run.
    pub store_bytes: u64,
    /// Traced runs: in-process `Dispatcher::poll` of queued/active
    /// sessions, µs.
    pub inproc_poll_us: Vec<f64>,
    /// Traced runs: in-process `Dispatcher::submit`, µs.
    pub inproc_submit_us: Vec<f64>,
    /// Traced runs: submit (resumed sessions: `Daemon::start`) → first
    /// poll that sees the session out of the queue, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Time spent flushing dirty pages before timed file operations, s.
    pub settle_s: f64,
    /// `restart-readback`: read-back cycles run.
    pub cycles: usize,
    /// `restart-readback`: the stored sessions, in admission order.
    pub stored: Vec<Stored>,
}

/// Add `x` to group `g`.
fn push(groups: &mut Vec<Vec<f64>>, g: usize, x: f64) {
    if groups.len() <= g {
        groups.resize_with(g + 1, Vec::new);
    }
    groups[g].push(x);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Write every dirty page back before a timed file operation, so that
/// it pays for its own writes and not for the set-up's copies or an
/// earlier phase's journals (an fsync in ordered-data mode flushes all
/// pending data of the file system).
pub fn sync_fs() {
    let _ = std::process::Command::new("sync").status();
}

/// [`sync_fs`], timed into `out.settle_s`.
fn settle(out: &mut Served) {
    let t0 = Instant::now();
    sync_fs();
    out.settle_s += t0.elapsed().as_secs_f64();
}

/// One daemon plus the benchmark's client connection to it.
pub struct Conn {
    daemon: Option<Daemon>,
    client: Option<Client>,
    /// Submit in process and shadow polls with in-process polls.
    traced: bool,
    /// When `Daemon::start` was called.
    started: Instant,
    /// Traced runs: sessions not yet seen out of the queue, with the
    /// instant their queue wait counts from.
    waiting: BTreeMap<String, Instant>,
}

impl Conn {
    /// Start a daemon over `root` and connect; returns the connection and
    /// the time from `Daemon::start` to the first answered request.
    pub fn start(root: &Path, traced: bool) -> Result<(Conn, f64), String> {
        let t0 = Instant::now();
        let daemon = Daemon::start(DaemonConfig {
            root: root.to_path_buf(),
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
            dispatch: DispatchConfig {
                workers: WORKERS,
                quotas: Quotas::default(),
                trace: false,
            },
        })
        .map_err(|e| format!("start daemon on {}: {e}", root.display()))?;
        let mut client = Client::connect(daemon.endpoint())?;
        // Any answer counts: an unknown id is refused with an error reply.
        client.call(Request::Poll {
            session: "s-probe".to_string(),
        })?;
        let setup = t0.elapsed().as_secs_f64();
        Ok((
            Conn {
                daemon: Some(daemon),
                client: Some(client),
                traced,
                started: t0,
                waiting: BTreeMap::new(),
            },
            setup,
        ))
    }

    fn client(&mut self) -> Result<&mut Client, String> {
        self.client
            .as_mut()
            .ok_or_else(|| "client closed".to_string())
    }

    fn submit(&mut self, spec: &SessionSpec, out: &mut Served) -> Result<String, String> {
        if self.traced {
            let daemon = self.daemon.as_ref().ok_or("daemon stopped")?;
            let t0 = Instant::now();
            let resp = daemon.dispatcher().submit(spec);
            out.inproc_submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            return match resp {
                Response::Submitted { session } => Ok(session),
                other => Err(format!("submit: {other:?}")),
            };
        }
        self.client()?.submit(spec)
    }

    /// One status poll over the socket, with its round trip in ms.
    fn poll(&mut self, id: &str, out: &mut Served) -> Result<(SessionView, f64), String> {
        let t0 = Instant::now();
        let view = self.client()?.poll(id)?;
        let rtt = ms(t0.elapsed());
        close_wait(&mut self.waiting, id, &view.state, out);
        if self.traced && matches!(view.state, SessionState::Queued | SessionState::Active) {
            if let Some(daemon) = self.daemon.as_ref() {
                let t0 = Instant::now();
                let resp = daemon.dispatcher().poll(id);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                if let Response::Status(v) = resp {
                    if matches!(v.state, SessionState::Queued | SessionState::Active) {
                        out.inproc_poll_us.push(us);
                    }
                }
            }
        }
        Ok((view, rtt))
    }

    /// Traced runs: the first poll that sees `id` out of the queue
    /// records the time since `since` as its queue wait.
    fn expect_start(&mut self, id: &str, since: Instant) {
        if self.traced {
            self.waiting.insert(id.to_string(), since);
        }
    }

    /// Traced runs: poll `id` in process every 20 µs until it leaves the
    /// queue.
    fn await_start(&mut self, id: &str, out: &mut Served) {
        let Some(daemon) = self.daemon.as_ref() else {
            return;
        };
        let t0 = Instant::now();
        while self.waiting.contains_key(id) && t0.elapsed() < SESSION_TIMEOUT {
            let Response::Status(v) = daemon.dispatcher().poll(id) else {
                break;
            };
            close_wait(&mut self.waiting, id, &v.state, out);
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    fn snapshot(&mut self, id: &str) -> Result<f64, String> {
        let t0 = Instant::now();
        let resp = self.client()?.call(Request::Snapshot {
            session: id.to_string(),
        })?;
        let rtt = ms(t0.elapsed());
        match resp {
            Response::Snapshot(stats) if stats.records_after <= stats.records_before => Ok(rtt),
            other => Err(format!("snapshot {id}: {other:?}")),
        }
    }
}

/// Close the queue wait of `id` if `state` shows it out of the queue.
fn close_wait(
    waiting: &mut BTreeMap<String, Instant>,
    id: &str,
    state: &SessionState,
    out: &mut Served,
) {
    if *state != SessionState::Queued {
        if let Some(since) = waiting.remove(id) {
            out.queue_wait_ms.push(ms(since.elapsed()));
        }
    }
}

/// Dropping a connection closes it, then stops the daemon and joins its
/// threads.
impl Drop for Conn {
    fn drop(&mut self) {
        self.client = None;
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
    }
}

/// Submit one `paper-bo` session, poll it every `shape.poll_ms` until
/// it parks (its polls form one group of `out.poll_ms`), then compact it
/// with a snapshot.
fn paper_session(
    conn: &mut Conn,
    spec: &SessionSpec,
    shape: &Shape,
    phase_ms: f64,
    out: &mut Served,
) {
    let t_sub = Instant::now();
    let group = out.samples.len();
    let mut sample = Sample::new(spec, Role::Main, "");
    match conn.submit(spec, out) {
        Ok(id) => sample.id = id,
        Err(e) => {
            sample.fail = Some(e);
            out.samples.push(sample);
            return;
        }
    }
    conn.expect_start(&sample.id, t_sub);
    conn.await_start(&sample.id, out);
    let interval = Duration::from_secs_f64(shape.poll_ms / 1e3);
    let mut next = t_sub + Duration::from_secs_f64(phase_ms / 1e3);
    loop {
        sleep_until(next);
        next += interval;
        match conn.poll(&sample.id, out) {
            Ok((view, rtt)) => match view.state {
                SessionState::Queued | SessionState::Active => {
                    push(&mut out.poll_ms, group, rtt);
                    if t_sub.elapsed() > SESSION_TIMEOUT {
                        sample.fail = Some(format!("{} timed out", sample.id));
                        break;
                    }
                }
                SessionState::Done => {
                    sample.session_s = t_sub.elapsed().as_secs_f64();
                    push(&mut out.fetch_ms, group, rtt);
                    if view.result.is_none() {
                        sample.fail = Some(format!("{} done without a result", sample.id));
                    }
                    sample.view = Some(view);
                    break;
                }
                other => {
                    sample.fail = Some(format!("{} ended {other:?}: {:?}", sample.id, view.error));
                    break;
                }
            },
            Err(e) => {
                sample.fail = Some(e);
                break;
            }
        }
    }
    if sample.fail.is_none() {
        settle(out);
        match conn.snapshot(&sample.id) {
            Ok(rtt) => push(&mut out.snapshot_ms, group, rtt),
            Err(e) => sample.fail = Some(e),
        }
    }
    out.samples.push(sample);
}

/// Fill a store: keep `shape.inflight` sessions submitted, poll them in
/// rounds every `shape.poll_ms`, and submit the next of `limit` specs
/// for each one seen done, until all are done.
fn fill(
    conn: &mut Conn,
    specs: &dyn Fn(usize) -> (SessionSpec, Role),
    limit: usize,
    shape: &Shape,
    out: &mut Served,
) {
    struct Flight {
        id: String,
        spec: SessionSpec,
        role: Role,
        t_sub: Instant,
    }
    let mut inflight: Vec<Flight> = Vec::with_capacity(shape.inflight);
    let mut next_idx = 0usize;
    let interval = Duration::from_secs_f64(shape.poll_ms / 1e3);
    while next_idx < limit || !inflight.is_empty() {
        while inflight.len() < shape.inflight && next_idx < limit {
            let (spec, role) = specs(next_idx);
            next_idx += 1;
            let t_sub = Instant::now();
            match conn.submit(&spec, out) {
                Ok(id) => inflight.push(Flight {
                    id,
                    spec,
                    role,
                    t_sub,
                }),
                Err(e) => {
                    let mut sample = Sample::new(&spec, role, "");
                    sample.fail = Some(e);
                    out.samples.push(sample);
                }
            }
        }
        let round = Instant::now();
        let mut j = 0;
        while j < inflight.len() {
            let f = &inflight[j];
            let mut sample = Sample::new(&f.spec, f.role, &f.id);
            match conn.poll(&f.id, out) {
                Ok((view, _)) => match view.state {
                    SessionState::Queued | SessionState::Active
                        if f.t_sub.elapsed() <= SESSION_TIMEOUT =>
                    {
                        j += 1;
                        continue;
                    }
                    SessionState::Done => {
                        sample.session_s = f.t_sub.elapsed().as_secs_f64();
                        sample.view = Some(view);
                    }
                    other => {
                        sample.fail = Some(format!("{} ended {other:?}: {:?}", f.id, view.error));
                    }
                },
                Err(e) => sample.fail = Some(e),
            }
            inflight.remove(j);
            out.samples.push(sample);
        }
        sleep_until(round + interval);
    }
}

/// Start `n` daemons on fresh stores, timing each; keep the last.
fn start_fresh(dir: &Path, n: usize, traced: bool, out: &mut Served) -> Result<Conn, String> {
    let mut kept = None;
    for k in 0..n.max(1) {
        let root = dir.join(format!("store-{k}"));
        let (conn, setup) = Conn::start(&root, traced)?;
        out.setup_s.push(setup);
        if let Some(prev) = kept.replace((conn, root)) {
            drop(prev.0);
            let _ = std::fs::remove_dir_all(&prev.1);
        }
    }
    kept.map(|(c, _)| c)
        .ok_or_else(|| "no daemon started".to_string())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Copy the tree at `from` to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for e in entries.flatten() {
        let target = to.join(e.file_name());
        if e.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), &target)
                .map_err(|err| format!("copy {}: {err}", e.path().display()))?;
        }
    }
    Ok(())
}

/// Run one workload's served phase in `dir`.
pub fn run(
    w: Workload,
    dir: &Path,
    seed: u64,
    seconds: f64,
    size: Size,
    traced: bool,
) -> Result<Served, String> {
    let shape = Shape::of(w, size);
    let mut out = Served::default();
    // Start from a quiet file system: an earlier run's journals may still
    // be in write-back.
    settle(&mut out);
    match w {
        Workload::PaperBo => paper_bo(dir, seed, seconds, size, &shape, traced, &mut out)?,
        Workload::RestartReadback => {
            restart_readback(dir, seed, seconds, size, &shape, traced, &mut out)?
        }
    }
    Ok(out)
}

/// Admission sequence number of a session id (`s<seq>`).
pub fn seq(id: &str) -> u64 {
    id.trim_start_matches('s').parse().unwrap_or(u64::MAX)
}

#[allow(clippy::too_many_arguments)]
fn paper_bo(
    dir: &Path,
    seed: u64,
    seconds: f64,
    size: Size,
    shape: &Shape,
    traced: bool,
    out: &mut Served,
) -> Result<(), String> {
    let mut conn = start_fresh(dir, shape.setup_starts, traced, out)?;
    // Flushes before snapshots are set-up, not served time.
    let settled = out.settle_s;
    // The seed sets the client's poll phase within the interval.
    let phase = (mtm_runner::hash::splitmix64(seed) % 1000) as f64 / 1000.0 * shape.poll_ms;
    let t_window = Instant::now();
    for pair in 0.. {
        let t_pair = Instant::now();
        for spec in workload::paper_pair(seed, size) {
            paper_session(&mut conn, &spec, shape, phase, out);
        }
        let elapsed = t_window.elapsed().as_secs_f64() - (out.settle_s - settled);
        if pair + 1 == shape.replay {
            // The pairs the traced run replays.
            out.wall_s = elapsed;
        }
        // Start another pair only when it should finish in the window.
        if elapsed + t_pair.elapsed().as_secs_f64() > seconds {
            out.rates = vec![out.samples.len() as f64 / elapsed];
            break;
        }
    }
    out.store_bytes = dir_bytes(dir);
    drop(conn);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn restart_readback(
    dir: &Path,
    seed: u64,
    seconds: f64,
    size: Size,
    shape: &Shape,
    traced: bool,
    out: &mut Served,
) -> Result<(), String> {
    // Set-up: fill a store with finished sessions, stop the daemon.
    let pristine = dir.join("pristine");
    let (mut conn, _) = Conn::start(&pristine, traced)?;
    let fill_n = shape.fill;
    let probes = shape.probes;
    let specs = move |i: usize| {
        if i < fill_n {
            (workload::fleet_spec(seed, i, size), Role::Main)
        } else {
            let strategy = if (i - fill_n).is_multiple_of(2) {
                "bo"
            } else {
                "ibo"
            };
            (workload::probe(seed, strategy), Role::Probe)
        }
    };
    let mut filled = Served::default();
    fill(&mut conn, &specs, fill_n + 2 * probes, shape, &mut filled);
    drop(conn);
    out.inproc_submit_us = filled.inproc_submit_us;
    let mut stored: Vec<(u64, Stored)> = Vec::new();
    for s in filled.samples {
        if let Some(fail) = s.fail {
            return Err(format!("filling the store: {fail}"));
        }
        let stored_session = Stored {
            id: s.id,
            spec: s.spec,
            role: s.role,
            resumed: false,
            view: None,
        };
        stored.push((seq(&stored_session.id), stored_session));
    }
    // Admitted but never run: these resume when the daemon restarts.
    {
        let store = SessionStore::open(&pristine).map_err(|e| e.to_string())?;
        for r in 0..shape.resume {
            let spec = workload::fleet_spec(seed, fill_n + r, size);
            let seq = store.peek_seq();
            let id = format!("s{seq}");
            store
                .journal_admission(&AdmitLine::Admitted {
                    seq,
                    session: id.clone(),
                    spec: spec.clone(),
                })
                .and_then(|_| store.create_session(&id, &spec))
                .map_err(|e| e.to_string())?;
            let resumed = Stored {
                id,
                spec,
                role: Role::Main,
                resumed: true,
                view: None,
            };
            stored.push((seq, resumed));
        }
    }
    stored.sort_by_key(|s| s.0);
    out.stored = stored.into_iter().map(|(_, s)| s).collect();

    // Restarts timed for setup_s alone (each read-back cycle adds one).
    for k in 0..shape.restarts {
        let root = dir.join(format!("restart-{k}"));
        copy_dir(&pristine, &root)?;
        settle(out);
        let (conn, setup) = Conn::start(&root, false)?;
        out.setup_s.push(setup);
        drop(conn);
        let _ = std::fs::remove_dir_all(&root);
    }

    // Timed: restart on a copy, drain the resumed sessions, fetch every
    // result, snapshot every session; repeat for `seconds`. Each cycle's
    // status polls form one group, each session's fetches and snapshots
    // another.
    let t_window = Instant::now();
    let interval = Duration::from_secs_f64(shape.poll_ms / 1e3);
    while out.cycles == 0 || t_window.elapsed().as_secs_f64() < seconds {
        let cycle = out.cycles;
        let work = dir.join(format!("cycle-{cycle}"));
        copy_dir(&pristine, &work)?;
        settle(out);
        let (mut conn, setup) = Conn::start(&work, traced)?;
        out.setup_s.push(setup);
        let t_rb = Instant::now();
        let n = out.stored.len();
        let mut fetch = vec![0.0f64; n];
        let mut view: Vec<Option<SessionView>> = vec![None; n];
        let mut fail: Vec<Option<String>> = vec![None; n];
        let resumed: Vec<usize> = (0..n).filter(|&i| out.stored[i].resumed).collect();
        for &i in &resumed {
            conn.expect_start(&out.stored[i].id, conn.started);
        }
        // Resumed sessions: poll in rounds until each is done.
        let mut pending = resumed;
        while !pending.is_empty() {
            let round = Instant::now();
            let mut j = 0;
            while j < pending.len() {
                let i = pending[j];
                let id = out.stored[i].id.clone();
                match conn.poll(&id, out) {
                    Ok((v, rtt)) => match v.state {
                        SessionState::Queued | SessionState::Active
                            if t_rb.elapsed() <= SESSION_TIMEOUT =>
                        {
                            push(&mut out.poll_ms, cycle, rtt);
                            j += 1;
                            continue;
                        }
                        SessionState::Done => {
                            push(&mut out.fetch_ms, i, rtt);
                            fetch[i] = rtt;
                            view[i] = Some(v);
                        }
                        other => fail[i] = Some(format!("resumed session ended {other:?}")),
                    },
                    Err(e) => fail[i] = Some(e),
                }
                pending.remove(j);
            }
            sleep_until(round + interval);
        }
        // Every finished result, once.
        for i in 0..n {
            if out.stored[i].resumed {
                continue;
            }
            let id = out.stored[i].id.clone();
            match conn.poll(&id, out) {
                Ok((v, rtt)) if v.state == SessionState::Done => {
                    push(&mut out.fetch_ms, i, rtt);
                    fetch[i] = rtt;
                    view[i] = Some(v);
                }
                Ok((v, _)) => fail[i] = Some(format!("stored session is {:?}", v.state)),
                Err(e) => fail[i] = Some(e),
            }
        }
        // Restart → every result in hand.
        let read_s = t_rb.elapsed().as_secs_f64();
        // Every session's compaction.
        for (i, fail) in fail.iter_mut().enumerate() {
            match conn.snapshot(&out.stored[i].id) {
                Ok(rtt) => push(&mut out.snapshot_ms, i, rtt),
                Err(e) => *fail = fail.take().or(Some(e)),
            }
        }
        let cycle_s = t_rb.elapsed().as_secs_f64();
        if cycle < shape.replay {
            out.wall_s += setup + cycle_s;
        }
        out.rates.push(n as f64 / read_s);
        for i in 0..n {
            let stored = &mut out.stored[i];
            if cycle == 0 {
                stored.view = view[i].clone();
            }
            let mut sample = Sample::new(&stored.spec, stored.role, &stored.id);
            sample.session_s = fetch[i] / 1e3;
            sample.view = view[i].take();
            sample.fail = fail[i].take().or_else(|| {
                sample
                    .result()
                    .is_none()
                    .then(|| format!("{}: no result read back", stored.id))
            });
            out.samples.push(sample);
        }
        out.store_bytes = dir_bytes(&work);
        drop(conn);
        let _ = std::fs::remove_dir_all(&work);
        out.cycles += 1;
    }
    Ok(())
}

/// Where a workload keeps its stores.
pub fn work_dir(base: &Path, w: Workload) -> PathBuf {
    base.join(format!("{}-{}", w.name(), std::process::id()))
}
