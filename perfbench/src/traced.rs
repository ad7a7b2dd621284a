//! The traced run: a workload's inputs replayed in-process through the
//! layers' public functions, each call timed as a span from this file.
//!
//! The replay runs what the daemon runs for the workload: the single-worker
//! pipeline (wire → reorder → cluster → store → WAL → publish → checkpoint)
//! for one shard, or two `ShardCore`s over an `Exchange` for two. Its layer
//! costs are what the end-to-end ingest time is compared with. A layer the
//! daemon does not run on the workload (the shard exchange on one shard;
//! the separate reorder, cluster and store calls, which `ShardCore::offer`
//! makes internally, on two; checkpoints when none falls in the stream) is
//! reported as not applicable. The replay also runs untraced to measure
//! what tracing itself costs.

use crate::inputs::{Comp, Plan, MAX_CS};
use crate::spans::{totals, Recorder, Totals};
use crate::Metric;
use cts_core::{ClusterEngine, MergeOnFirst};
use cts_daemon::checkpoint::{self, CompMeta};
use cts_daemon::pipeline::Snapshot;
use cts_daemon::shard::{
    initial_routing, rebalance, CutAssembler, ShardCore, ShardEnv, StampStrategy, Wake,
};
use cts_daemon::wal::WalWriter;
use cts_daemon::wire::Msg;
use cts_daemon::ReorderBuffer;
use cts_model::{Event, EventId, Trace};
use cts_store::queries::{greatest_concurrent, ClusterBackend};
use cts_store::{EpochRetainer, EventStore, PartitionedStore};
use cts_util::prng::{ChaCha8Rng, Rng};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's default group-commit window.
const SYNC_WINDOW: Duration = Duration::from_millis(5);
/// Retained epochs (the daemon default).
const RETAIN: usize = 8;

/// Which span names make up each ingest layer, for the per-event sum.
const PIPELINE_LAYERS: &[(&str, &[&str])] = &[
    ("wire", &["wire.encode", "wire.decode"]),
    ("reorder", &["reorder.offer"]),
    ("cluster", &["cluster.accept"]),
    ("store", &["store.insert"]),
    ("wal", &["wal.append", "wal.sync"]),
    ("checkpoint", &["checkpoint.write"]),
    ("publish", PUBLISH_SPANS),
];
const SHARDED_LAYERS: &[(&str, &[&str])] = &[
    ("wire", &["wire.encode", "wire.decode"]),
    ("shard", SHARD_SPANS),
    ("wal", &["wal.append", "wal.sync"]),
    ("checkpoint", &["checkpoint.write"]),
    ("publish", PUBLISH_SPANS),
];
const PUBLISH_SPANS: &[&str] = &[
    "publish",
    "publish.delivery_log",
    "publish.from_delivery_order",
    "publish.snapshot",
    "publish.cut",
    "publish.retain",
    "publish.epoch_marks",
];
const SHARD_SPANS: &[&str] = &["shard.offer", "shard.wake", "shard.rebalance"];

/// Counts gathered beside the spans.
#[derive(Default)]
struct Counts {
    events: u64,
    sent: u64,
    wire_bytes: u64,
    parked: u64,
    duplicates: u64,
    peak_depth: usize,
    receives: u64,
    cluster_receives: u64,
    merges: u64,
    /// (position in the computation's stream as a fraction, ns, bytes).
    publishes: Vec<(f64, u64, u64)>,
    resident_bytes: u64,
    wal_bytes: u64,
    wal_syncs: u64,
    cross: u64,
    exchange_waits: u64,
}

/// The frames one computation arrives in: its slices' frames interleaved
/// one by one, as two connections streaming side by side deliver them.
fn frames(comp: &Comp, frame: usize) -> Vec<&[Event]> {
    let mut iters: Vec<_> = comp.slices.iter().map(|s| s.chunks(frame)).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for it in iters.iter_mut() {
            if let Some(f) = it.next() {
                out.push(f);
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Encode and decode one frame, as the client and the server do.
fn wire(rec: &mut Recorder, req: u32, frame: &[Event], c: &mut Counts) -> io::Result<Vec<Event>> {
    let bytes = rec.span("wire.encode", req, || Msg::Events(frame.to_vec()).encode());
    c.wire_bytes += bytes.len() as u64 + 4;
    c.sent += frame.len() as u64;
    match rec.span("wire.decode", req, || Msg::decode(&bytes)) {
        Ok(Msg::Events(evs)) => Ok(evs),
        other => Err(io::Error::other(format!(
            "Events frame decoded as {other:?}"
        ))),
    }
}

fn meta(comp: &Comp) -> CompMeta {
    CompMeta {
        name: comp.name.clone(),
        num_processes: comp.trace.num_processes(),
        max_cluster_size: MAX_CS,
    }
}

/// Time `recover_dir` over a computation's directories; the recovered
/// prefix must be the whole computation.
fn recover(rec: &mut Recorder, req: u32, dirs: &[&Path], want: u64) -> io::Result<()> {
    let root = rec.begin("recover", req);
    let mut got = 0;
    for dir in dirs {
        let (events, _) = rec.span("checkpoint.recover", req, || checkpoint::recover_dir(dir))?;
        got += events.len() as u64;
    }
    rec.end(root);
    if got != want {
        return Err(io::Error::other(format!(
            "recover_dir returned {got} events, expected {want}"
        )));
    }
    Ok(())
}

/// The single-worker pipeline.
fn replay_pipeline(
    rec: &mut Recorder,
    comp: &Comp,
    plan: &Plan,
    dir: &Path,
    req: &mut u32,
    c: &mut Counts,
) -> io::Result<()> {
    let n = comp.trace.num_processes();
    let total = comp.num_events();
    let meta = meta(comp);
    let mut buf = ReorderBuffer::new(n);
    let mut engine = ClusterEngine::new(n, MergeOnFirst::new(MAX_CS as usize));
    let mut store = EventStore::new(n);
    let retainer: EpochRetainer<Snapshot> = EpochRetainer::new(RETAIN, 0);
    std::fs::create_dir_all(dir)?;
    checkpoint::ensure_meta(dir, &meta)?;
    let mut wal = WalWriter::create(dir, 0, SYNC_WINDOW)?;
    let mut log: Vec<Event> = Vec::new();
    let mut fresh: Vec<Event> = Vec::new();
    let (mut last_pub, mut last_ckpt, mut epoch) = (0u64, 0u64, 0u64);

    let publish = |rec: &mut Recorder,
                   r: u32,
                   store: &EventStore,
                   engine: &ClusterEngine<MergeOnFirst>,
                   epoch: u64,
                   c: &mut Counts|
     -> io::Result<()> {
        let delivered = store.len() as u64;
        let id = rec.begin("publish", r);
        let log = rec.span("publish.delivery_log", r, || store.delivery_log());
        let trace = rec
            .span("publish.from_delivery_order", r, || {
                Trace::from_delivery_order(comp.name.clone(), n, log)
            })
            .map_err(|e| io::Error::other(format!("{e:?}")))?;
        let cts = rec.span("publish.snapshot", r, || engine.snapshot());
        let snap = Snapshot {
            epoch,
            delivered,
            trace,
            cts,
        };
        let bytes = snap.footprint();
        rec.span("publish.retain", r, || {
            retainer.insert(epoch, delivered, bytes, Arc::new(snap))
        });
        let marks: Vec<(u64, u64)> = retainer
            .list()
            .iter()
            .map(|i| (i.epoch, i.delivered))
            .collect();
        rec.span("publish.epoch_marks", r, || {
            checkpoint::write_epoch_marks(dir, &marks)
        })?;
        rec.end(id);
        let ns = rec.spans().get(id as usize).map_or(0, |s| s.dur_ns());
        c.publishes
            .push((delivered as f64 / total as f64, ns, bytes));
        Ok(())
    };

    for frame in frames(comp, plan.frame) {
        let r = *req;
        *req += 1;
        let root = rec.begin("frame", r);
        let evs = wire(rec, r, frame, c)?;
        fresh.clear();
        for ev in evs {
            let dups = buf.duplicates();
            let got = rec
                .span("reorder.offer", r, || buf.offer(ev))
                .map_err(|e| io::Error::other(format!("reorder refused {}: {e}", ev.id)))?;
            if buf.duplicates() == dups && !got.contains(&ev) {
                c.parked += 1;
            }
            for d in got {
                rec.span("cluster.accept", r, || engine.accept(d));
                rec.span("store.insert", r, || store.insert(d))
                    .map_err(|e| io::Error::other(format!("store refused {}: {e}", d.id)))?;
                fresh.push(d);
            }
        }
        log.extend_from_slice(&fresh);
        let delivered = log.len() as u64;
        if !fresh.is_empty() {
            rec.span("wal.append", r, || wal.append(&fresh))?;
        }
        rec.span("wal.sync", r, || wal.maybe_sync())?;
        if delivered - last_pub >= plan.epoch_every {
            epoch += 1;
            publish(rec, r, &store, &engine, epoch, c)?;
            last_pub = delivered;
        }
        if delivered - last_ckpt >= plan.checkpoint_every {
            rec.span("wal.sync", r, || wal.sync())?;
            let floor = retainer.oldest_delivered().unwrap_or(delivered);
            rec.span("checkpoint.write", r, || {
                checkpoint::write_checkpoint_with_floor(dir, &meta, &log, floor)
            })?;
            c.wal_bytes += wal.bytes_written();
            c.wal_syncs += wal.syncs();
            wal = WalWriter::create(dir, delivered, SYNC_WINDOW)?;
            last_ckpt = delivered;
        }
        rec.end(root);
    }
    if log.len() as u64 != total {
        return Err(io::Error::other(format!(
            "{}: replay delivered {} of {total}",
            comp.name,
            log.len()
        )));
    }
    c.events += total;
    c.duplicates += buf.duplicates();
    c.peak_depth = c.peak_depth.max(buf.peak_depth());
    c.receives += comp
        .trace
        .events()
        .iter()
        .filter(|e| e.kind.is_receiving())
        .count() as u64;
    let r = *req;
    *req += 1;
    // The flush barrier publishes the tail and syncs the WAL.
    let root = rec.begin("flush", r);
    if total > last_pub {
        publish(rec, r, &store, &engine, epoch + 1, c)?;
    }
    rec.span("wal.sync", r, || wal.sync())?;
    rec.end(root);
    c.wal_bytes += wal.bytes_written();
    c.wal_syncs += wal.syncs();
    c.resident_bytes += retainer.resident_bytes();
    let cts = engine.finish();
    c.cluster_receives += cts.num_cluster_receives() as u64;
    c.merges += cts.num_merges() as u64;
    recover(rec, r, &[dir], total)
}

/// Two `ShardCore`s stepped on one thread: each event offered to the shard
/// that owns its process, cross-shard wake-ups delivered through the
/// `Exchange` in order, a rebalance after any merge, then the per-shard
/// WALs, the publish (the cut) and checkpoints.
fn replay_sharded(
    rec: &mut Recorder,
    comp: &Comp,
    plan: &Plan,
    dir: &Path,
    req: &mut u32,
    c: &mut Counts,
) -> io::Result<()> {
    const SHARDS: usize = 2;
    let n = comp.trace.num_processes();
    let total = comp.num_events();
    let meta = meta(comp);
    let env = ShardEnv::new(
        n,
        StampStrategy::Merge1st {
            max_cluster_size: MAX_CS as usize,
        },
    );
    let routing = initial_routing(n, SHARDS);
    let store = Arc::new(PartitionedStore::new(n));
    let mut cores: Vec<ShardCore> = (0..SHARDS)
        .map(|s| {
            let owned = (0..n as usize)
                .map(|p| routing[p].load(Ordering::Relaxed) as usize == s)
                .collect();
            ShardCore::new(s, n, owned, Arc::clone(&store), &env)
        })
        .collect();
    let mut asm = CutAssembler::new(n);
    let retainer: EpochRetainer<Snapshot> = EpochRetainer::new(RETAIN, 0);
    let shard_dirs: Vec<_> = (0..SHARDS)
        .map(|s| dir.join(format!("shard-{s}")))
        .collect();
    std::fs::create_dir_all(dir)?;
    checkpoint::ensure_meta(dir, &meta)?;
    let mut wals = Vec::new();
    for d in &shard_dirs {
        std::fs::create_dir_all(d)?;
        wals.push(WalWriter::create(d, 0, SYNC_WINDOW)?);
    }
    let mut cursors = [0usize; SHARDS];
    let (mut last_pub, mut last_ckpt, mut epoch) = (0u64, 0u64, 0u64);
    let mut cluster_receives = 0;
    let mut wakes: Vec<Wake> = Vec::new();
    let mut queue: VecDeque<Wake> = VecDeque::new();

    // Deliver queued wake-ups until none are left.
    let drain = |rec: &mut Recorder,
                 r: u32,
                 cores: &mut [ShardCore],
                 wakes: &mut Vec<Wake>,
                 queue: &mut VecDeque<Wake>,
                 c: &mut Counts| {
        queue.extend(wakes.drain(..));
        while let Some((s, id)) = queue.pop_front() {
            c.exchange_waits += 1;
            rec.span("shard.wake", r, || cores[s].wake(id, &env, wakes));
            queue.extend(wakes.drain(..));
        }
    };

    for frame in frames(comp, plan.frame) {
        let r = *req;
        *req += 1;
        let root = rec.begin("frame", r);
        let evs = wire(rec, r, frame, c)?;
        for ev in evs {
            let s = routing[ev.process().idx()].load(Ordering::Relaxed) as usize;
            if let Some(src) = ev.kind.receive_source() {
                if routing[src.process.idx()].load(Ordering::Relaxed) as usize != s {
                    c.cross += 1;
                }
            }
            let dups = cores[s].duplicates();
            let got = rec
                .span("shard.offer", r, || cores[s].offer(ev, &env, &mut wakes))
                .map_err(|e| io::Error::other(format!("shard {s} refused {}: {e}", ev.id)))?;
            // Anything delivered means `ev` was; nothing means it parked.
            if got == 0 && cores[s].duplicates() == dups {
                c.parked += 1;
            }
            drain(rec, r, &mut cores, &mut wakes, &mut queue, c);
        }
        while cores.iter().any(|core| core.rebalance_needed) {
            rec.span("shard.rebalance", r, || {
                let mut refs: Vec<&mut ShardCore> = cores.iter_mut().collect();
                rebalance(&mut refs, &routing, &env, &mut wakes)
            });
            drain(rec, r, &mut cores, &mut wakes, &mut queue, c);
        }
        for (s, w) in wals.iter_mut().enumerate() {
            let log = cores[s].log();
            if log.len() > cursors[s] {
                rec.span("wal.append", r, || w.append(&log[cursors[s]..]))?;
                cursors[s] = log.len();
            }
            rec.span("wal.sync", r, || w.maybe_sync())?;
        }
        let delivered: u64 = cores.iter().map(ShardCore::delivered_total).sum();
        if delivered - last_pub >= plan.epoch_every {
            epoch += 1;
            cluster_receives = publish_cut(
                rec, r, comp, &env, &mut cores, &mut asm, &retainer, epoch, c,
            );
            last_pub = asm.assembled();
        }
        if delivered - last_ckpt >= plan.checkpoint_every {
            for w in wals.iter_mut() {
                rec.span("wal.sync", r, || w.sync())?;
            }
            rec.span("checkpoint.write", r, || {
                checkpoint::write_checkpoint(dir, &meta, asm.log())
            })?;
            last_ckpt = delivered;
        }
        rec.end(root);
    }
    let delivered: u64 = cores.iter().map(ShardCore::delivered_total).sum();
    if delivered != total {
        return Err(io::Error::other(format!(
            "{}: shards delivered {delivered} of {total}",
            comp.name
        )));
    }
    c.events += total;
    c.duplicates += cores.iter().map(ShardCore::duplicates).sum::<u64>();
    // The deepest shard buffer.
    let peak = cores.iter().map(ShardCore::peak_depth).max().unwrap_or(0);
    c.peak_depth = c.peak_depth.max(peak);
    c.receives += comp
        .trace
        .events()
        .iter()
        .filter(|e| e.kind.is_receiving())
        .count() as u64;
    let r = *req;
    *req += 1;
    let root = rec.begin("flush", r);
    if delivered > last_pub {
        cluster_receives = publish_cut(
            rec,
            r,
            comp,
            &env,
            &mut cores,
            &mut asm,
            &retainer,
            epoch + 1,
            c,
        );
    }
    for w in wals.iter_mut() {
        rec.span("wal.sync", r, || w.sync())?;
    }
    rec.end(root);
    for w in &wals {
        c.wal_bytes += w.bytes_written();
        c.wal_syncs += w.syncs();
    }
    c.resident_bytes += retainer.resident_bytes();
    let (world, _) = env.sets.snapshot();
    c.merges += world.num_merges;
    c.cluster_receives += cluster_receives;
    // The root holds the checkpoint and each shard directory its WAL, as
    // the sharded runtime lays them out.
    let root = rec.begin("recover", r);
    for d in std::iter::once(dir).chain(shard_dirs.iter().map(|d| d.as_path())) {
        rec.span("checkpoint.recover", r, || checkpoint::recover_dir(d))?;
    }
    rec.end(root);
    Ok(())
}

/// The sharded publish: drain every shard into the cut assembler, advance
/// the merged order, materialize the snapshot, retain it. Returns the
/// snapshot's cluster receives.
#[allow(clippy::too_many_arguments)]
fn publish_cut(
    rec: &mut Recorder,
    r: u32,
    comp: &Comp,
    env: &ShardEnv,
    cores: &mut [ShardCore],
    asm: &mut CutAssembler,
    retainer: &EpochRetainer<Snapshot>,
    epoch: u64,
    c: &mut Counts,
) -> u64 {
    let id = rec.begin("publish", r);
    rec.span("publish.cut", r, || {
        for core in cores.iter_mut() {
            asm.ingest(core.drain_outbox());
        }
        asm.advance();
    });
    let delivered = asm.assembled();
    let (trace, cts) = rec.span("publish.snapshot", r, || {
        let (world, _) = env.sets.snapshot();
        asm.snapshot(&comp.name, world.sets.clone(), world.num_merges as usize)
    });
    let snap = Snapshot {
        epoch,
        delivered,
        trace,
        cts,
    };
    let bytes = snap.footprint();
    let cluster_receives = snap.cts.num_cluster_receives() as u64;
    rec.span("publish.retain", r, || {
        retainer.insert(epoch, delivered, bytes, Arc::new(snap))
    });
    rec.end(id);
    let ns = rec.spans().get(id as usize).map_or(0, |s| s.dur_ns());
    c.publishes
        .push((delivered as f64 / comp.num_events() as f64, ns, bytes));
    cluster_receives
}

/// What the traced run reads from the end-to-end run of the same
/// invocation.
pub struct FromE2e {
    pub ingest_eps: f64,
    pub cache_hit_frac: f64,
    pub hello_rtt_us: f64,
    pub flush_wait_ms: f64,
    pub gen_late_ms: f64,
    pub precedes_p99_us: f64,
    pub gc_p99_us: f64,
}

fn self_ns(t: &BTreeMap<&'static str, Totals>, names: &[&str]) -> u64 {
    names
        .iter()
        .filter_map(|n| t.get(n))
        .map(|x| x.self_ns)
        .sum()
}

fn mean_ns(t: &BTreeMap<&'static str, Totals>, names: &[&str]) -> f64 {
    let (count, ns) = names
        .iter()
        .filter_map(|n| t.get(n))
        .fold((0, 0), |(c, s), x| (c + x.count, s + x.total_ns));
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn mean_of(v: impl Iterator<Item = u64>) -> f64 {
    let (n, s) = v.fold((0u64, 0u64), |(n, s), x| (n + 1, s + x));
    ratio(s, n)
}

fn dump(rec: &Recorder, path: &Path) -> io::Result<()> {
    rec.write_tsv(std::fs::File::create(path)?)
}

/// Replay every computation of the workload; each computation's files
/// are removed as soon as it is done so disk use stays bounded.
fn replay_all(
    rec: &mut Recorder,
    comps: &[Comp],
    plan: &Plan,
    base: &Path,
    sharded: bool,
    c: &mut Counts,
) -> io::Result<()> {
    let mut req = 0;
    for (i, comp) in comps.iter().enumerate() {
        let dir = base.join(format!("c{i}"));
        if sharded {
            replay_sharded(rec, comp, plan, &dir, &mut req, c)?;
        } else {
            replay_pipeline(rec, comp, plan, &dir, &mut req, c)?;
        }
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
    }
    Ok(())
}

/// Time the query layer on the final stamps: `ClusterTimestamps::precedes`
/// and `queries::greatest_concurrent` over random events.
fn time_queries(rec: &mut Recorder, comps: &[Comp], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E7);
    let pick = |rng: &mut ChaCha8Rng, comp: &Comp| -> EventId {
        comp.trace.at(rng.gen_range(0..comp.trace.num_events())).id
    };
    for r in 0..20_000u32 {
        let comp = &comps[rng.gen_range(0..comps.len())];
        let (e, f) = (pick(&mut rng, comp), pick(&mut rng, comp));
        let v = rec.span("query.precedes", r, || {
            comp.oracle.precedes(&comp.trace, e, f)
        });
        std::hint::black_box(v);
    }
    for r in 0..2_000u32 {
        let comp = &comps[rng.gen_range(0..comps.len())];
        let e = pick(&mut rng, comp);
        let v = rec.span("query.gc", r, || {
            greatest_concurrent(&mut ClusterBackend(&comp.oracle), &comp.trace, e)
        });
        std::hint::black_box(v);
    }
}

/// The traced run. Spans go to `<out>/spans-<tag>{,-query}.tsv`.
pub fn run(
    comps: &[Comp],
    plan: &Plan,
    out: &Path,
    tag: &str,
    seed: u64,
    e2e: &FromE2e,
) -> io::Result<Vec<Metric>> {
    let sharded = plan.shards >= 2;
    let base = out.join("replay");
    // Untraced before and after the traced pass, so warm-up and drift of
    // the host fall on both sides of the comparison.
    let untraced_pass = || -> io::Result<f64> {
        let t = Instant::now();
        replay_all(
            &mut Recorder::disabled(),
            comps,
            plan,
            &base,
            sharded,
            &mut Counts::default(),
        )?;
        Ok(t.elapsed().as_secs_f64())
    };
    let before = untraced_pass()?;
    let mut rec = Recorder::new();
    let mut c = Counts::default();
    let t = Instant::now();
    replay_all(&mut rec, comps, plan, &base, sharded, &mut c)?;
    let traced = t.elapsed().as_secs_f64();
    let untraced = (before + untraced_pass()?) / 2.0;

    let mut q = Recorder::new();
    time_queries(&mut q, comps, seed);

    dump(&rec, &out.join(format!("spans-{tag}.tsv")))?;
    dump(&q, &out.join(format!("spans-{tag}-query.tsv")))?;

    let ta = totals(rec.spans());
    let tq = totals(q.spans());
    let events = c.events;
    let layers = if sharded {
        SHARDED_LAYERS
    } else {
        PIPELINE_LAYERS
    };
    let per_event = |names: &[&str]| self_ns(&ta, names) as f64 / events as f64;
    let layer_sum: f64 = layers.iter().map(|(_, names)| per_event(names)).sum();
    let e2e_ns = 1e9 / e2e.ingest_eps;
    let quarter = |lo: f64, hi: f64| {
        mean_of(
            c.publishes
                .iter()
                .filter(|p| p.0 > lo && p.0 <= hi)
                .map(|p| p.1),
        )
    };
    let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit, 0);
    // A layer whose calls the replay never made is one the daemon does not
    // run on this workload.
    let ran = |names: &[&str]| names.iter().any(|n| ta.contains_key(n));
    let timed = |name: &str, names: &[&str], value: f64, unit: &'static str| {
        if ran(names) {
            m(name, value, unit)
        } else {
            Metric::not_applicable(name, unit)
        }
    };
    let ns_per_event = |name: &str, names: &[&str]| timed(name, names, per_event(names), "ns");
    let shard = |name: &str, value: f64, unit: &'static str| {
        if sharded {
            m(name, value, unit)
        } else {
            Metric::not_applicable(name, unit)
        }
    };
    Ok(vec![
        ns_per_event("wire.encode_ns_per_event", &["wire.encode"]),
        ns_per_event("wire.decode_ns_per_event", &["wire.decode"]),
        m("wire.bytes_per_event", ratio(c.wire_bytes, c.sent), "bytes"),
        ns_per_event("reorder.offer_ns_per_event", &["reorder.offer"]),
        m("reorder.parked_frac", ratio(c.parked, c.sent), "ratio"),
        m("reorder.peak_depth", c.peak_depth as f64, "count"),
        m("reorder.duplicates", c.duplicates as f64, "count"),
        ns_per_event("cluster.accept_ns_per_event", &["cluster.accept"]),
        m(
            "cluster.receive_ratio",
            ratio(c.cluster_receives, c.receives),
            "ratio",
        ),
        m("cluster.merges", c.merges as f64, "count"),
        ns_per_event("store.insert_ns_per_event", &["store.insert"]),
        m("publish.count", c.publishes.len() as f64, "count"),
        m(
            "publish.ns_per_publish",
            mean_of(c.publishes.iter().map(|p| p.1)),
            "ns",
        ),
        m("publish.ns_q1", quarter(0.0, 0.25), "ns"),
        m("publish.ns_q4", quarter(0.75, 1.0), "ns"),
        m(
            "publish.bytes_per_epoch",
            mean_of(c.publishes.iter().map(|p| p.2)),
            "bytes",
        ),
        ns_per_event("publish.ns_per_event", PUBLISH_SPANS),
        m("retain.resident_bytes", c.resident_bytes as f64, "bytes"),
        ns_per_event("wal.append_ns_per_event", &["wal.append"]),
        m(
            "wal.sync_us",
            ratio(self_ns(&ta, &["wal.sync"]), c.wal_syncs) / 1e3,
            "us",
        ),
        m("wal.syncs", c.wal_syncs as f64, "count"),
        m("wal.bytes_per_event", ratio(c.wal_bytes, events), "bytes"),
        timed(
            "checkpoint.write_ms",
            &["checkpoint.write"],
            mean_ns(&ta, &["checkpoint.write"]) / 1e6,
            "ms",
        ),
        m(
            "checkpoint.recover_ms",
            ta.get("checkpoint.recover").map_or(0, |x| x.total_ns) as f64 / 1e6,
            "ms",
        ),
        ns_per_event("shard.offer_ns_per_event", SHARD_SPANS),
        shard("shard.cross_frac", ratio(c.cross, c.receives), "ratio"),
        shard("shard.exchange_waits", c.exchange_waits as f64, "count"),
        m("query.precedes_ns", mean_ns(&tq, &["query.precedes"]), "ns"),
        m("query.gc_ns", mean_ns(&tq, &["query.gc"]), "ns"),
        m("query.cache_hit_frac", e2e.cache_hit_frac, "ratio"),
        m("net.hello_rtt_us", e2e.hello_rtt_us, "us"),
        m("client.flush_wait_ms", e2e.flush_wait_ms, "ms"),
        m("client.gen_late_ms", e2e.gen_late_ms, "ms"),
        m("client.precedes_p99_us", e2e.precedes_p99_us, "us"),
        m("client.gc_p99_us", e2e.gc_p99_us, "us"),
        m("ingest.e2e_ns_per_event", e2e_ns, "ns"),
        m("ingest.layers_ns_per_event", layer_sum, "ns"),
        m("ingest.residue_ns_per_event", e2e_ns - layer_sum, "ns"),
        m(
            "trace.overhead_frac",
            (traced - untraced) / untraced,
            "ratio",
        ),
    ])
}
