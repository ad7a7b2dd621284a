//! The three workloads: their inputs (made from the seed), the daemon
//! configuration they run against, and their query rates.

use crate::e2e::Q;
use cts_core::{ClusterEngine, ClusterTimestamps, MergeOnFirst};
use cts_daemon::loadgen::{build_slice, LoadConfig};
use cts_model::{Event, Trace};
use cts_workloads::synthetic::PlantedClusters;
use cts_workloads::Workload;
use std::path::Path;

/// The `max_cluster_size` every computation says hello with.
pub const MAX_CS: u32 = 8;
/// Items per warm `QueryPrecedesBatch`.
pub const BATCH_ITEMS: usize = 256;
/// Fewest rounds in a run, so that every per-round metric is the median of
/// at least three samples.
pub const MIN_ROUNDS: usize = 3;
/// Requests go out back to back (`--calibrate`; see `run_open_loop`).
const SATURATE: f64 = f64::INFINITY;
/// Each verb is offered open-loop at this share of its capacity on one
/// connection (answers per second with requests back to back, measured
/// with `--calibrate`). A request then waits only when the one before it
/// took more than five mean service times, so a p50 is the daemon's
/// service time with little queueing in it: the light load of an
/// interactive tool.
const LOAD: f64 = 0.2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Suite,
    Planted,
    DurableLive,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "suite" => Some(Kind::Suite),
            "planted-400k" => Some(Kind::Planted),
            "durable-live" => Some(Kind::DurableLive),
            _ => None,
        }
    }
}

/// One computation: the in-order trace, its offline oracle, and the event
/// streams exactly as the connections send them.
pub struct Comp {
    pub name: String,
    pub trace: Trace,
    pub oracle: ClusterTimestamps,
    /// One stream per slice; slice `s` goes out on connection `s`.
    pub slices: Vec<Vec<Event>>,
}

impl Comp {
    pub fn num_events(&self) -> u64 {
        self.trace.num_events() as u64
    }
}

/// How a workload runs: daemon flags, phase lengths and open-loop rates
/// (requests per second per kind).
#[derive(Clone, Debug)]
pub struct Plan {
    pub kind: Kind,
    /// Events per `Events` frame on every connection.
    pub frame: usize,
    pub shards: u32,
    /// `--epoch-every` and `--checkpoint-every`, passed explicitly (the
    /// daemon defaults, except `durable-live`'s checkpoints) so that the
    /// traced replay publishes and checkpoints at the same cadence.
    pub epoch_every: u64,
    pub checkpoint_every: u64,
    /// The read-only sub-phases after each round's ingest, in order:
    /// (kind, open-loop rate in requests per second, seconds).
    pub phases: Vec<(Q, f64, f64)>,
    /// Measured length of one round (see `rounds`; the lengths are
    /// printed per round on standard error).
    pub round_secs: f64,
    /// `durable-live` only: precedence and greatest-concurrent rates on
    /// the query connection while ingest runs.
    pub live_rates: [f64; 2],
    /// Throwaway daemons started per run to sample set-up time.
    pub setup_probes: usize,
}

impl Plan {
    pub fn new(kind: Kind, smoke: bool) -> Plan {
        let mut p = Plan {
            kind,
            frame: 512,
            shards: 1,
            epoch_every: 4096,
            checkpoint_every: 100_000,
            phases: Vec::new(),
            round_secs: 5.5,
            live_rates: [0.0, 0.0],
            setup_probes: 2,
        };
        // The capacities below are per second, measured with `--calibrate`
        // (mean of two seeds, 2-vCPU VM). Phase lengths give each kind
        // about 75 or more samples per round; `suite`'s greatest-concurrent
        // phase gives each of its 54 computations 6 (their median costs range
        // from ~0.4 to ~2 ms, so each must be asked as often in every run).
        match kind {
            Kind::Suite => {
                p.phases = vec![
                    (Q::Precedes, LOAD * 30_800.0, 0.5),
                    (Q::AsOf, LOAD * 31_400.0, 0.5),
                    (Q::Batch, LOAD * 8_900.0, 0.25),
                    (Q::Gc, LOAD * 1_230.0, 1.3),
                ];
            }
            Kind::Planted => {
                p.phases = vec![
                    (Q::Precedes, LOAD * 33_700.0, 0.5),
                    (Q::AsOf, LOAD * 32_200.0, 0.5),
                    (Q::Batch, LOAD * 11_200.0, 0.25),
                    (Q::Gc, LOAD * 123.0, 3.0),
                ];
                p.round_secs = 15.8;
            }
            Kind::DurableLive => {
                p.shards = 2;
                p.checkpoint_every = 50_000;
                p.round_secs = 3.8;
                p.phases = vec![
                    (Q::AsOf, LOAD * 39_900.0, 0.5),
                    (Q::Batch, LOAD * 11_200.0, 0.25),
                ];
                // Capacities on the head while the rest of the stream is
                // ingested (probes over the flushed first quarter). The two
                // kinds share one connection, so each gets half the load
                // share: at a full share each, a greatest-concurrent query
                // held the connection for ~4 ms a fifth of the time and
                // ~45% of precedence requests waited behind one, which put
                // the precedence p50 on the edge between a ~25 us and a
                // ~300 us mode.
                p.live_rates = [LOAD / 2.0 * 59_500.0, LOAD / 2.0 * 383.0];
            }
        }
        if smoke {
            // Small frames and epochs so the small inputs still reorder,
            // publish often and retain historical epochs.
            p.frame = 32;
            p.epoch_every = 64;
            for ph in &mut p.phases {
                ph.2 = ph.2.min(0.3);
            }
            p.setup_probes = 1;
        }
        p
    }

    /// Rounds in a run of `seconds`: as many rounds as fit, but at least
    /// `MIN_ROUNDS`. The count depends only on the arguments, so every run
    /// of a workload has the same make-up however fast the host is; every
    /// metric takes samples from every round, so a slow spell of the host
    /// moves one sample of each metric rather than all samples of one.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.round_secs).round() as usize).max(MIN_ROUNDS)
    }

    /// The plans of `--calibrate`: one sub-phase per request kind with
    /// requests back to back, so that the answers per second are each
    /// verb's capacity on one connection. `durable-live` gets one plan per
    /// query kind it sends during ingest, each saturating that kind.
    pub fn calibration(kind: Kind, smoke: bool) -> Vec<Plan> {
        let mut p = Plan::new(kind, smoke);
        let secs = if smoke { 0.3 } else { 1.0 };
        p.phases = [Q::Precedes, Q::AsOf, Q::Batch, Q::Gc]
            .map(|q| (q, SATURATE, secs))
            .to_vec();
        if kind != Kind::DurableLive {
            return vec![p];
        }
        [[SATURATE, 0.0], [0.0, SATURATE]]
            .map(|live_rates| Plan {
                live_rates,
                ..p.clone()
            })
            .to_vec()
    }

    /// Daemon flags for a data directory (port flags are added on spawn).
    pub fn daemon_args(&self, data_dir: &Path) -> Vec<String> {
        [
            "--data-dir",
            &data_dir.display().to_string(),
            "--shards",
            &self.shards.to_string(),
            "--epoch-every",
            &self.epoch_every.to_string(),
            "--checkpoint-every",
            &self.checkpoint_every.to_string(),
        ]
        .map(String::from)
        .to_vec()
    }
}

fn planted(procs: u32, groups: u32, messages: u32, p_intra: f64, seed: u64) -> Trace {
    PlantedClusters {
        procs,
        groups,
        messages,
        p_intra,
    }
    .generate(seed)
}

fn comp(name: String, trace: Trace, slices: Vec<Vec<Event>>) -> Comp {
    let oracle = ClusterEngine::run(&trace, MergeOnFirst::new(MAX_CS as usize));
    Comp {
        name,
        trace,
        oracle,
        slices,
    }
}

/// Build a workload's computations from the seed. `smoke` shrinks every
/// input so a run takes seconds.
pub fn build(kind: Kind, seed: u64, smoke: bool) -> Vec<Comp> {
    match kind {
        Kind::Suite => {
            let suite = if smoke {
                cts_workloads::suite::mini_suite()
            } else {
                cts_workloads::suite::standard_suite()
            };
            // The same split, shuffle and duplicate salting as cts-loadgen.
            let cfg = LoadConfig {
                seed,
                slices_per_comp: 2,
                ..LoadConfig::default()
            };
            suite
                .into_iter()
                .enumerate()
                .map(|(c, e)| {
                    let slices = (0..2)
                        .map(|s| build_slice(e.trace.events(), s, &cfg, c).0)
                        .collect();
                    comp(e.name, e.trace, slices)
                })
                .collect()
        }
        Kind::Planted => {
            let t = if smoke {
                planted(20, 4, 4_000, 0.9, seed)
            } else {
                planted(200, 16, 200_000, 0.9, seed)
            };
            let events = t.events().to_vec();
            vec![comp(format!("planted-{seed}"), t, vec![events])]
        }
        Kind::DurableLive => {
            let t = if smoke {
                planted(20, 4, 4_000, 0.7, seed)
            } else {
                planted(200, 16, 50_000, 0.7, seed)
            };
            let events = t.events().to_vec();
            vec![comp(format!("live-{seed}"), t, vec![events])]
        }
    }
}
