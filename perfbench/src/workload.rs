//! The workloads: their inputs (derived from the workload seed) and the
//! client/daemon shape each one runs with.

use mtm_runner::hash::splitmix64;
use mtm_runner::Scale;
use mtm_serve::SessionSpec;
use mtm_topogen::{Condition, SizeClass};

/// Daemon worker threads, on every workload.
pub const WORKERS: usize = 1;
/// Client threads (each with one connection), on every workload.
pub const CLIENT_THREADS: usize = 1;
/// Spec seed of the `bo`/`ibo` sessions. Best throughput differs by an
/// order of magnitude between generated Medium topologies (48 to 530
/// tuples/s over ten seeds), so the sessions whose tuning quality the
/// benchmark guards run on one frozen topology — the seed the strategy
/// head-to-head in `BENCH_strategies.json` is frozen at.
pub const FROZEN_SEED: u64 = 21;
/// Strategies of the fleet sessions `restart-readback` stores (no GP).
pub const FLEET_STRATEGIES: [&str; 4] = ["pla", "ipla", "random", "hyperband"];

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One served `bo` then one served `ibo` session at paper scale.
    PaperBo,
    /// Restart on a filled store, fetch and snapshot everything.
    RestartReadback,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-bo" => Some(Workload::PaperBo),
            "restart-readback" => Some(Workload::RestartReadback),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBo => "paper-bo",
            Workload::RestartReadback => "restart-readback",
        }
    }
}

/// Input size: `Full` is the benchmark; `Tiny` is the same code path at
/// smoke scale, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// Seconds-scale inputs for tests.
    Tiny,
}

/// The client/daemon shape of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sessions the client keeps submitted but not yet seen done (on
    /// `restart-readback`, while it fills the store).
    pub inflight: usize,
    /// Interval between status polls (or poll rounds), ms.
    pub poll_ms: f64,
    /// `bo` and `ibo` smoke sessions (each) stored with the fleet
    /// sessions, for the `bo`/`ibo` rows of `restart-readback`.
    pub probes: usize,
    /// Finished fleet sessions the `restart-readback` store holds (whole
    /// rounds of the 48 fleet combinations, so every seed stores the same
    /// mix).
    pub fill: usize,
    /// Admitted-but-unfinished sessions the store holds; they resume
    /// on restart and are polled until done.
    pub resume: usize,
    /// Fresh-store daemon starts timed for `setup_s`.
    pub setup_starts: usize,
    /// `restart-readback`: restarts on the filled store timed for
    /// `setup_s` besides the one each read-back cycle makes.
    pub restarts: usize,
    /// What the traced run replays: `bo`/`ibo` pairs on `paper-bo`,
    /// read-back cycles on `restart-readback`.
    pub replay: usize,
}

impl Shape {
    /// The shape of `w` at `size`.
    pub fn of(w: Workload, size: Size) -> Shape {
        let tiny = size == Size::Tiny;
        Shape {
            inflight: match w {
                Workload::PaperBo => 1,
                Workload::RestartReadback if tiny => 4,
                Workload::RestartReadback => 16,
            },
            poll_ms: match w {
                Workload::PaperBo => 20.0,
                Workload::RestartReadback => 1.0,
            },
            probes: if tiny { 1 } else { 24 },
            fill: if tiny { 12 } else { 240 },
            resume: if tiny { 2 } else { 24 },
            setup_starts: if tiny { 3 } else { 101 },
            restarts: if tiny { 1 } else { 9 },
            replay: match w {
                Workload::PaperBo => 1,
                Workload::RestartReadback => 4,
            },
        }
    }
}

/// Role of a session in its workload's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Counted in `sessions_per_s`, `session_s.*`, `best_tps.mean`.
    Main,
    /// A stored `bo`/`ibo` smoke session: only the `.bo`/`.ibo` rows.
    Probe,
}

/// Tenant every session is submitted under.
pub fn tenant(seed: u64) -> String {
    format!("bench-{}", seed % 10_000)
}

/// The `paper-bo` pair: `bo` then `ibo` on the frozen Medium topology
/// under the Fig. 4 bottom-right condition (100% TiIm, 25% contention).
pub fn paper_pair(seed: u64, size: Size) -> [SessionSpec; 2] {
    let scale = match size {
        Size::Full => Scale::Paper,
        Size::Tiny => Scale::Smoke,
    };
    ["bo", "ibo"].map(|s| frozen_spec(seed, s, scale))
}

/// A `bo`/`ibo` smoke probe on the frozen Medium topology.
pub fn probe(seed: u64, strategy: &str) -> SessionSpec {
    frozen_spec(seed, strategy, Scale::Smoke)
}

fn frozen_spec(seed: u64, strategy: &str, scale: Scale) -> SessionSpec {
    SessionSpec {
        tenant: tenant(seed),
        size: SizeClass::Medium,
        condition: Condition::grid()[3],
        strategy: strategy.to_string(),
        scale,
        seed: FROZEN_SEED,
    }
}

/// Fleet session `i`: the 48 combinations of strategy × size ×
/// Fig. 4 condition, in a seed-shuffled order per round of 48, each
/// with its own derived seed.
pub fn fleet_spec(seed: u64, i: usize, size: Size) -> SessionSpec {
    const COMBOS: usize = 48;
    let round = (i / COMBOS) as u64;
    let mut order: Vec<usize> = (0..COMBOS).collect();
    // Fisher–Yates with a splitmix stream keyed on (seed, round).
    let mut state = splitmix64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for k in (1..COMBOS).rev() {
        state = splitmix64(state);
        order.swap(k, (state % (k as u64 + 1)) as usize);
    }
    let combo = order[i % COMBOS];
    SessionSpec {
        tenant: tenant(seed),
        size: SizeClass::all()[(combo / 4) % 3],
        condition: Condition::grid()[combo / 12],
        strategy: FLEET_STRATEGIES[combo % 4].to_string(),
        scale: match size {
            Size::Full => Scale::Paper,
            Size::Tiny => Scale::Smoke,
        },
        seed: splitmix64(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_rounds_cover_every_combination_once() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 48..96 {
            let s = fleet_spec(7, i, Size::Full);
            seen.insert((
                s.strategy.clone(),
                s.size.label(),
                (s.condition.time_imbalance * 100.0) as u32,
                (s.condition.contention * 100.0) as u32,
            ));
            s.validate().unwrap();
        }
        assert_eq!(seen.len(), 48);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(fleet_spec(3, 5, Size::Full), fleet_spec(3, 5, Size::Full));
        assert_ne!(
            fleet_spec(3, 5, Size::Full).seed,
            fleet_spec(4, 5, Size::Full).seed
        );
        assert_eq!(paper_pair(9, Size::Full)[0].strategy, "bo");
        assert_eq!(paper_pair(9, Size::Full)[1].strategy, "ibo");
    }
}
