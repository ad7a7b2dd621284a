//! The repository benchmark for `cts-daemon`.
//!
//! ```text
//! cts-perfbench --daemon PATH --workdir DIR --workload suite|planted-400k|durable-live
//!               --seed N --seconds S --trace 0|1 [--smoke] [--calibrate]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds both binaries
//! first. One run starts `cts-daemon` as a separate process (several times:
//! set-up probes, then rounds of spawn → ingest → queries → SIGKILL →
//! restart → re-check, as many as fit in `--seconds` but at least three),
//! drives it from this one process with at most two threads and two
//! connections, and checks every answer against the offline
//! `ClusterEngine`.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! end-to-end rounds and then replays the workload's inputs in-process,
//! timing each layer's public calls as spans, and prints the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. The exit code is non-zero when any operation
//! failed or any answer was wrong. `--smoke` shrinks every input so a run
//! takes seconds. `--calibrate` runs one round with every query kind at a
//! saturating rate and prints each verb's capacity on one connection.

mod daemon;
mod e2e;
mod inputs;
mod openloop;
mod spans;
mod spin;
mod traced;

use inputs::{Kind, Plan};
use openloop::median;
use std::path::PathBuf;
use std::time::Instant;

/// Latency percentiles are medians over blocks of this many consecutive
/// samples (so a p99 always has ten samples beyond it).
const LATENCY_BLOCK: usize = 1000;

/// One reported number.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the number (0 when it is a single measurement).
    n: usize,
    /// False when the daemon does not run the layer on this workload: the
    /// value is then printed as `n/a` and written as 0.
    applies: bool,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            applies: true,
        }
    }

    pub fn not_applicable(name: &str, unit: &'static str) -> Metric {
        Metric {
            applies: false,
            ..Metric::new(name, 0.0, unit, 0)
        }
    }
}

struct Args {
    daemon: PathBuf,
    workdir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    calibrate: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("cts-perfbench: {msg}");
    eprintln!(
        "usage: cts-perfbench --daemon PATH --workdir DIR --workload suite|planted-400k|durable-live \
         --seed N --seconds S --trace 0|1 [--smoke] [--calibrate]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        daemon: PathBuf::new(),
        workdir: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        calibrate: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" || flag == "--calibrate" {
            a.smoke |= flag == "--smoke";
            a.calibrate |= flag == "--calibrate";
            i += 1;
            continue;
        }
        let Some(v) = argv.get(i + 1) else {
            usage(&format!("{flag} needs a value"))
        };
        match flag {
            "--daemon" => a.daemon = v.into(),
            "--workdir" => a.workdir = v.into(),
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = v.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if a.seconds.is_nan() || a.seconds < 0.0 {
                    usage("bad --seconds");
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
        i += 2;
    }
    if a.daemon.as_os_str().is_empty() || a.workdir.as_os_str().is_empty() {
        usage("--daemon and --workdir are required");
    }
    a
}

fn required(name: &str, v: Option<f64>) -> Result<f64, String> {
    v.ok_or_else(|| format!("no samples for {name}"))
}

fn e2e_metrics(e: &e2e::E2e) -> Result<Vec<Metric>, String> {
    let us = |s: &openloop::Samples, q: f64, name: &str| {
        required(name, s.block_percentile(q, LATENCY_BLOCK)).map(|ns| ns / 1e3)
    };
    Ok(vec![
        Metric::new(
            "setup_s",
            required("setup_s", median(&e.setup_s))?,
            "s",
            e.setup_s.len(),
        ),
        Metric::new(
            "ingest_eps",
            required("ingest_eps", median(&e.ingest_eps))?,
            "events/s",
            e.ingest_eps.len(),
        ),
        Metric::new(
            "precedes_p50_us",
            us(&e.precedes, 0.5, "precedes")?,
            "us",
            e.precedes.len(),
        ),
        Metric::new("gc_p50_us", us(&e.gc, 0.5, "gc")?, "us", e.gc.len()),
        Metric::new(
            "batch_items_per_s",
            required("batch_items_per_s", median(&e.batch_items_per_s))?,
            "items/s",
            e.batch_items_per_s.len(),
        ),
        Metric::new("asof_p50_us", us(&e.asof, 0.5, "asof")?, "us", e.asof.len()),
        Metric::new(
            "recover_s",
            required("recover_s", median(&e.recover_s))?,
            "s",
            e.recover_s.len(),
        ),
        Metric::new(
            "rss_peak_mib",
            required("rss_peak_mib", median(&e.rss_mib))?,
            "MiB",
            e.rss_mib.len(),
        ),
        Metric::new(
            "disk_bytes_per_event",
            required("disk_bytes_per_event", median(&e.disk_bytes_per_event))?,
            "bytes",
            e.disk_bytes_per_event.len(),
        ),
        Metric::new(
            "ops_ok_frac",
            1.0 - e.tally.failed as f64 / e.tally.attempted.max(1) as f64,
            "ratio",
            e.tally.attempted as usize,
        ),
    ])
}

/// `--calibrate`: one round per calibration plan with requests back to
/// back; prints each verb's capacity on one connection and its mean
/// service time, from which the workloads' open-loop rates are set (see
/// `inputs::Plan::new`).
fn calibrate(ctx: &e2e::Ctx, plans: &[Plan]) -> ! {
    let mut failed = 0;
    for plan in plans {
        let e = match e2e::run(&e2e::Ctx { plan, ..*ctx }, 1) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("cts-perfbench: calibrate: {err}");
                std::process::exit(1);
            }
        };
        for (label, per_s) in e.throughput.iter().filter(|t| t.1 > 0.0) {
            println!(
                "# capacity {label:<14} {per_s:>10.1} /s on one connection, mean service {:.1} us",
                1e6 / per_s
            );
        }
        println!(
            "# {} failed of {} attempted",
            e.tally.failed, e.tally.attempted
        );
        failed += e.tally.failed;
    }
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args();
    let Some(kind) = Kind::parse(&args.workload) else {
        usage(&format!("unknown workload {:?}", args.workload))
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = args
        .workdir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cts-perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let plan = Plan::new(kind, args.smoke);

    let t = Instant::now();
    let comps = inputs::build(kind, args.seed, args.smoke);
    let events: u64 = comps.iter().map(inputs::Comp::num_events).sum();
    eprintln!(
        "[perfbench] {}: {} computation(s), {events} events, inputs and oracle in {:.2} s, cpus {cpus}",
        args.workload,
        comps.len(),
        t.elapsed().as_secs_f64()
    );

    let ctx = e2e::Ctx {
        bin: &args.daemon,
        workdir: &out,
        plan: &plan,
        comps: &comps,
        seed: args.seed,
    };
    if args.calibrate {
        calibrate(&ctx, &Plan::calibration(kind, args.smoke));
    }
    let result = e2e::run(&ctx, plan.rounds(args.seconds))
        .map_err(|e| e.to_string())
        .and_then(|e| {
            let metrics = if args.trace {
                let from = traced::FromE2e {
                    ingest_eps: required("ingest_eps", median(&e.ingest_eps))?,
                    cache_hit_frac: e.cache_hits as f64
                        / (e.cache_hits + e.cache_misses).max(1) as f64,
                    hello_rtt_us: required("net.hello_rtt_us", e.hello_rtt.percentile(0.5))? / 1e3,
                    flush_wait_ms: required("client.flush_wait_ms", median(&e.flush_wait_ms))?,
                    gen_late_ms: required("client.gen_late_ms", e.late.mean())? / 1e6,
                    precedes_p99_us: required(
                        "precedes",
                        e.precedes.block_percentile(0.99, LATENCY_BLOCK),
                    )? / 1e3,
                    gc_p99_us: required("gc", e.gc.block_percentile(0.99, LATENCY_BLOCK))? / 1e3,
                };
                traced::run(&comps, &plan, &out, &args.workload, args.seed, &from)
                    .map_err(|e| e.to_string())?
            } else {
                e2e_metrics(&e)?
            };
            Ok((e, metrics))
        });
    let (e, metrics) = match result {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("cts-perfbench: {}: {msg}", args.workload);
            let _ = std::fs::remove_dir_all(&out);
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(out.join("replay"));
    // Only the span dumps stay behind, one set per workload.
    if args.trace {
        for suffix in ["", "-query"] {
            let name = format!("spans-{}{suffix}.tsv", args.workload);
            let _ = std::fs::rename(out.join(&name), args.workdir.join(&name));
        }
    }
    let _ = std::fs::remove_dir_all(&out);

    for note in &e.tally.notes {
        eprintln!("[perfbench] {note}");
    }
    println!(
        "# {} seed {} rounds {} cpus {cpus} ops_failed_frac {} ({} failed of {} attempted, {} mismatches)",
        args.workload,
        args.seed,
        e.rounds,
        e.tally.failed as f64 / e.tally.attempted.max(1) as f64,
        e.tally.failed,
        e.tally.attempted,
        e.tally.mismatches
    );
    // The p99s are printed but not gated: on a small shared host, stolen
    // CPU time decides them more than the daemon does (they are also
    // per-layer metrics of the traced run).
    for (name, s) in [("precedes_p99_us", &e.precedes), ("gc_p99_us", &e.gc)] {
        if let Some(ns) = s.block_percentile(0.99, LATENCY_BLOCK) {
            println!(
                "# {name} {:.4} us n={} cpus={cpus} (not bounded)",
                ns / 1e3,
                s.len()
            );
        }
    }
    for m in &metrics {
        let value = if m.applies {
            format!("{:.4}", m.value)
        } else {
            "n/a".into()
        };
        println!(
            "{:<30} {value:>16} {:<9} n={:<7} cpus={cpus}",
            m.name, m.unit, m.n
        );
    }
    let correct = e.tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e.tally.attempted.max(1),
        e.tally.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
