//! `mtm-perfbench` — the served-session benchmark.
//!
//! Drives an in-process `mtm-serve` daemon over its real TCP socket
//! with the product `mtm_serve::Client`, checks every served result
//! byte for byte against an in-process reference run, and prints every
//! metric with its unit. `--trace 1` adds a serial in-process replay of
//! the same work with a span around each layer call and reports per-layer
//! self time instead of the end-to-end metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-bo --seed 1 --seconds 45 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The exit code is 1 when any attempt failed and 2 on a usage or
//! set-up error (which prints no result line).

mod replay;
mod report;
mod served;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};

use workload::{Shape, Size, Workload, CLIENT_THREADS, FROZEN_SEED, WORKERS};

const USAGE: &str = "usage: mtm-perfbench --workload <paper-bo|restart-readback> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Removes the run's scratch stores however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<(report::Metrics, report::Gate), String> {
    let w = args.workload;
    let shape = Shape::of(w, args.size);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={:?}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size
    );
    println!(
        "# provenance git_rev={} nproc={nproc} profile={profile} workers={WORKERS} \
         client_threads={CLIENT_THREADS} inflight={} poll_interval_ms={} frozen_bo_seed={FROZEN_SEED}",
        git_rev(),
        shape.inflight,
        shape.poll_ms,
    );

    let base = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work");
    let dir = served::work_dir(&base, w);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());

    let served = served::run(w, &dir, args.seed, args.seconds, args.size, args.trace)?;
    let mut specs: Vec<&mtm_serve::SessionSpec> = served.samples.iter().map(|s| &s.spec).collect();
    specs.extend(served.stored.iter().map(|s| &s.spec));
    let refs = replay::references(specs)?;
    let mut gate = report::gate(&served, &refs);
    let e2e = report::end_to_end(&served, &refs, &gate);
    if !args.trace {
        return Ok((e2e, gate));
    }

    // Traced run: replay the same work untraced, then traced — on
    // `paper-bo` the first `shape.replay` pairs, on `restart-readback`
    // the first `shape.replay` read-back cycles.
    let replay = |traced: bool| -> Result<replay::Replay, String> {
        let root = dir.join(if traced {
            "replay-traced"
        } else {
            "replay-untraced"
        });
        if served.stored.is_empty() {
            let mut done: Vec<&served::Sample> =
                served.samples.iter().filter(|s| s.fail.is_none()).collect();
            done.sort_by_key(|s| served::seq(&s.id));
            let sessions: Vec<replay::Item> = done
                .iter()
                .take(2 * shape.replay)
                .map(|s| replay::Item {
                    id: s.id.clone(),
                    spec: s.spec.clone(),
                    served: s.view.clone(),
                })
                .collect();
            replay::replay_sessions(&root, &sessions, &refs, traced)
        } else {
            replay::replay_readback(
                &dir.join("pristine"),
                &root,
                &served.stored,
                served.cycles.min(shape.replay),
                &refs,
                traced,
            )
        }
    };
    let untraced = replay(false)?;
    let traced = replay(true)?;
    let mismatches = untraced.counts.mismatches + traced.counts.mismatches;
    if mismatches > 0 {
        gate.failed += mismatches;
        gate.reasons.push(format!(
            "{mismatches} replayed results or fetches differ from the reference or the served view"
        ));
    }
    let (bad, mut reasons) =
        replay::segment_mismatches(&dir.join("reference-segments"), &[&untraced, &traced])?;
    gate.failed += bad;
    gate.reasons.append(&mut reasons);
    let mut layers = report::per_layer(&served, &untraced, &traced, &e2e);
    let out = Path::new(".bench_out").join(format!("spans-{}.tsv", w.name()));
    match traced.tracer.write_tsv(&out) {
        Ok(()) => layers.notes.push(format!(
            "spans: {} written to {}",
            traced.tracer.spans().len(),
            out.display()
        )),
        Err(e) => return Err(format!("write {}: {e}", out.display())),
    }
    // The end-to-end numbers of the traced run's served phase, for the
    // shares printed above.
    let mut notes = vec!["served phase of the traced run:".to_string()];
    notes.extend(
        e2e.list
            .iter()
            .map(|m| format!("  {} = {} {}", m.name, m.value, m.unit)),
    );
    notes.append(&mut layers.notes);
    layers.notes = notes;
    Ok((layers, gate))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mtm-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (metrics, gate) = match run(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("mtm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    for note in &metrics.notes {
        println!("# {note}");
    }
    for m in &metrics.list {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# correctness: {} attempted, {} failed",
        gate.attempted, gate.failed
    );
    for r in &gate.reasons {
        println!("# failure: {r}");
    }
    println!("{}", metrics.json(gate.attempted, gate.failed));
    if gate.failed > 0 {
        std::process::exit(1);
    }
}
