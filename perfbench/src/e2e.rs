//! The end-to-end run: rounds of spawn → ingest → query → SIGKILL →
//! restart → re-check against one `cts-daemon` process per round, from one
//! load-generator process with at most two threads and two connections.
//! Every answer is compared with the offline engine.

use crate::daemon::{dir_bytes, DaemonProc};
use crate::inputs::{Comp, Kind, Plan, BATCH_ITEMS, MAX_CS};
use crate::openloop::{run_open_loop, tighten_timer_slack, Samples, Tally};
use crate::spin::SpinConn;
use cts_core::{ClusterEngine, ClusterTimestamps, MergeOnFirst};
use cts_daemon::Client;
use cts_model::{EventId, ProcessId, Trace};
use cts_store::queries::{greatest_concurrent, ClusterBackend};
use cts_util::prng::{ChaCha8Rng, Rng};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests a query thread sends to one computation before it moves on to
/// the next (each move costs one `Hello`), when requests go out back to
/// back (`--calibrate`). An open-loop sub-phase instead spreads its
/// requests evenly over all computations (see `Phase::run`).
const BLOCK: usize = 8;
/// Pause between a round's ingest and its query phase.
const SETTLE: Duration = Duration::from_secs(1);
/// How long before each due time a query thread stops sleeping and spins
/// (none while ingest runs: the spinning would take the daemon's cores).
const SPIN: Duration = Duration::from_micros(200);

pub struct Ctx<'a> {
    pub bin: &'a Path,
    pub workdir: &'a Path,
    pub plan: &'a Plan,
    pub comps: &'a [Comp],
    pub seed: u64,
}

impl Ctx<'_> {
    fn total_events(&self) -> u64 {
        self.comps.iter().map(Comp::num_events).sum()
    }
}

/// Everything the end-to-end run measured, over all rounds.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub ingest_eps: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub rss_mib: Vec<f64>,
    pub disk_bytes_per_event: Vec<f64>,
    pub precedes: Samples,
    pub gc: Samples,
    pub asof: Samples,
    /// Items per second of each warm batch (items / its round trip).
    pub batch_items_per_s: Vec<f64>,
    /// Send time minus due time of every scheduled request.
    pub late: Samples,
    /// Last frame written until the last `FlushAck`, per round.
    pub flush_wait_ms: Vec<f64>,
    pub hello_rtt: Samples,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub tally: Tally,
    pub rounds: usize,
    /// Answers per second each open-loop sub-phase completed, by label.
    /// At a saturating rate (`--calibrate`) this is the verb's capacity on
    /// one connection.
    pub throughput: Vec<(&'static str, f64)>,
}

impl E2e {
    fn absorb(&mut self, o: ThreadOut) {
        for (q, samples) in o.lat {
            match q {
                Q::Precedes => self.precedes.extend(samples),
                Q::Gc => self.gc.extend(samples),
                Q::AsOf => self.asof.extend(samples),
                Q::Batch => {}
            }
        }
        self.late.extend(o.late);
        self.tally.merge(o.tally);
        self.batch_items_per_s.extend(o.batch_rates);
        self.throughput.extend(o.throughput);
    }
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// `rounds` whole rounds (see `Plan::rounds`) after an untimed warm-up.
pub fn run(ctx: &Ctx, rounds: usize) -> io::Result<E2e> {
    let mut acc = E2e::default();
    warm_up(ctx, &mut acc.tally)?;
    for k in 0..rounds {
        round(ctx, k, &mut acc)?;
        acc.rounds += 1;
    }
    Ok(acc)
}

/// Untimed warm-up before the first round: a throwaway daemon takes the
/// first `WARM_EVENTS` events of the workload and answers precedence
/// queries on them for a moment, so that the first measured round does not
/// pay for a cold host (idle cores, cold page cache). Answers are checked
/// like all others.
fn warm_up(ctx: &Ctx, tally: &mut Tally) -> io::Result<()> {
    const WARM_EVENTS: usize = 50_000;
    let dir = ctx.workdir.join("warm-up");
    fresh_dir(&dir)?;
    let (d, _) = DaemonProc::start(
        ctx.bin,
        &ctx.plan.daemon_args(&dir.join("data")),
        &dir,
        "warm",
    )?;
    let mut c = Client::connect(d.addr)?;
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0x3A);
    let mut budget = WARM_EVENTS;
    for comp in ctx.comps {
        if budget == 0 {
            break;
        }
        c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
        // A whole computation (all its slices), or an in-order prefix of
        // a one-slice computation: either is a complete delivery.
        let n = if comp.slices.len() == 1 {
            budget.min(comp.slices[0].len())
        } else {
            comp.trace.num_events()
        };
        if comp.slices.len() == 1 {
            c.stream_events(&comp.slices[0][..n], ctx.plan.frame)?;
        } else {
            for slice in &comp.slices {
                c.stream_events(slice, ctx.plan.frame)?;
            }
        }
        let (_, delivered) = c.flush(n as u64)?;
        tally.compare(
            &|| format!("warm-up flush({})", comp.name),
            &delivered,
            &(n as u64),
        );
        for _ in 0..200 {
            let e = comp.trace.at(rng.gen_range(0..n)).id;
            let f = comp.trace.at(rng.gen_range(0..n)).id;
            let want = comp.oracle.precedes(&comp.trace, e, f);
            tally.check(
                &|| format!("warm-up precedes({e}, {f})"),
                c.precedes(e, f),
                &want,
            );
        }
        budget = budget.saturating_sub(n);
    }
    drop(c);
    d.kill()?;
    std::fs::remove_dir_all(&dir)
}

/// Set-up time of daemons that are killed as soon as they answer.
fn setup_probes(ctx: &Ctx, acc: &mut E2e) -> io::Result<()> {
    for i in 0..ctx.plan.setup_probes {
        let dir = ctx.workdir.join(format!("setup-{i}"));
        fresh_dir(&dir)?;
        let (d, t) = DaemonProc::start(
            ctx.bin,
            &ctx.plan.daemon_args(&dir.join("data")),
            &dir,
            "probe",
        )?;
        acc.setup_s.push(t.as_secs_f64());
        d.kill()?;
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(())
}

fn round(ctx: &Ctx, k: usize, acc: &mut E2e) -> io::Result<()> {
    setup_probes(ctx, acc)?;
    let dir = ctx.workdir.join(format!("round-{k}"));
    fresh_dir(&dir)?;
    let data = dir.join("data");
    let args = ctx.plan.daemon_args(&data);
    let (d, setup) = DaemonProc::start(ctx.bin, &args, &dir, "main")?;
    acc.setup_s.push(setup.as_secs_f64());
    let round_seed = ctx.seed ^ ((k as u64 + 1) << 40);
    let t0 = Instant::now();

    if k == 0 {
        let mut c = Client::connect(d.addr)?;
        for _ in 0..200 {
            let t = Instant::now();
            c.proto_hello()?;
            acc.hello_rtt.push(t.elapsed());
        }
    }

    let (wall, flush_wait) = match ctx.plan.kind {
        Kind::Suite => ingest_sliced(ctx, d.addr, acc)?,
        Kind::Planted => ingest_single(ctx, d.addr, acc)?,
        Kind::DurableLive => ingest_live(ctx, d.addr, acc, round_seed)?,
    };
    acc.ingest_eps
        .push(ctx.total_events() as f64 / wall.as_secs_f64());
    acc.flush_wait_ms.push(flush_wait.as_secs_f64() * 1e3);

    // Let the host settle (write-back of the ingest's files) so that it
    // is not charged to the first queries.
    let t1 = Instant::now();
    std::thread::sleep(SETTLE);
    query_phase(ctx, d.addr, acc, round_seed)?;
    let t2 = Instant::now();

    let mut c = Client::connect(d.addr)?;
    for comp in ctx.comps {
        c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
        let s = c.stats()?;
        acc.cache_hits += s.cache_hits;
        acc.cache_misses += s.cache_misses;
    }
    drop(c);
    acc.rss_mib.push(d.peak_rss_mib()?);
    acc.disk_bytes_per_event
        .push(dir_bytes(&data)? as f64 / ctx.total_events() as f64);
    d.kill()?;

    let (d2, recover) = DaemonProc::start(ctx.bin, &args, &dir, "restart")?;
    acc.recover_s.push(recover.as_secs_f64());
    recheck(ctx, d2.addr, acc, round_seed)?;
    d2.kill()?;
    eprintln!(
        "[perfbench] round {k}: {:.2} s (ingest {:.2} s, settle and queries {:.2} s, \
         stats, restart and re-check {:.2} s)",
        t0.elapsed().as_secs_f64(),
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        t2.elapsed().as_secs_f64()
    );
    std::fs::remove_dir_all(&dir)
}

fn flush_checked(c: &mut Client, comp: &Comp, tally: &mut Tally) -> io::Result<()> {
    let want = comp.num_events();
    let (_, delivered) = c.flush(want)?;
    tally.compare(
        &|| format!("flush({}) delivered", comp.name),
        &delivered,
        &want,
    );
    Ok(())
}

/// One `suite` connection: slice `slice` of every computation, then a
/// flush of every other computation. Returns when it started, when its
/// last frame was written, and when its last flush was acknowledged.
fn stream_slice(
    ctx: &Ctx,
    addr: SocketAddr,
    barrier: &Barrier,
    slice: usize,
) -> io::Result<(Instant, Instant, Instant, Tally)> {
    let conn = Client::connect(addr);
    barrier.wait();
    let mut c = conn?;
    let mut tally = Tally::default();
    let start = Instant::now();
    for comp in ctx.comps {
        c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
        c.stream_events(&comp.slices[slice], ctx.plan.frame)?;
    }
    let written = Instant::now();
    for comp in ctx.comps.iter().skip(slice).step_by(2) {
        c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
        flush_checked(&mut c, comp, &mut tally)?;
    }
    Ok((start, written, Instant::now(), tally))
}

/// `suite`: slice `s` of every computation on connection `s`, then each
/// connection flushes half of the computations. Slice 1 streams from a
/// second thread, slice 0 from this one.
fn ingest_sliced(ctx: &Ctx, addr: SocketAddr, acc: &mut E2e) -> io::Result<(Duration, Duration)> {
    let barrier = Barrier::new(2);
    let results = std::thread::scope(|s| {
        let other = s.spawn(|| stream_slice(ctx, addr, &barrier, 1));
        let mine = stream_slice(ctx, addr, &barrier, 0);
        [mine, other.join().expect("ingest thread panicked")]
    });
    let mut spans = Vec::new();
    for r in results {
        let (start, written, end, tally) = r?;
        acc.tally.merge(tally);
        spans.push((start, written, end));
    }
    let start = spans.iter().map(|s| s.0).min().expect("two threads");
    let written = spans.iter().map(|s| s.1).max().expect("two threads");
    let end = spans.iter().map(|s| s.2).max().expect("two threads");
    Ok((end - start, end.saturating_duration_since(written)))
}

/// `planted-400k`: one connection, in order.
fn ingest_single(ctx: &Ctx, addr: SocketAddr, acc: &mut E2e) -> io::Result<(Duration, Duration)> {
    let comp = &ctx.comps[0];
    let mut c = Client::connect(addr)?;
    c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
    let start = Instant::now();
    c.stream_events(&comp.slices[0], ctx.plan.frame)?;
    let written = Instant::now();
    flush_checked(&mut c, comp, &mut acc.tally)?;
    let end = Instant::now();
    Ok((end - start, end - written))
}

/// Raises `go` and `stop` when dropped, so the query thread never waits on
/// an ingest thread that failed.
struct Release<'a> {
    go: &'a AtomicBool,
    stop: &'a AtomicBool,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.go.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
    }
}

/// `durable-live`: connection A streams the first quarter and flushes it,
/// then streams the rest while connection B runs open-loop precedence and
/// greatest-concurrent queries over the flushed quarter on the head. B runs
/// on a second thread, A on this one.
fn ingest_live(
    ctx: &Ctx,
    addr: SocketAddr,
    acc: &mut E2e,
    seed: u64,
) -> io::Result<(Duration, Duration)> {
    let comp = &ctx.comps[0];
    let events = &comp.slices[0];
    let part1 = (events.len() / 4).div_ceil(ctx.plan.frame) * ctx.plan.frame;
    let part1 = part1.min(events.len());
    let pool = stable_gc_probes(comp, part1, seed);
    let go = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let (ingest, queries) = std::thread::scope(|s| {
        let b = s.spawn(|| -> io::Result<_> {
            let mut c = Client::connect(addr)?;
            c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
            tighten_timer_slack();
            while !go.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(100));
            }
            let mut tally = Tally::default();
            let (mut precedes, mut gcs) = (Vec::new(), Vec::new());
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11FE);
            let start = Instant::now();
            let r = run_open_loop(
                &ctx.plan.live_rates,
                start,
                start + Duration::from_secs(600),
                Duration::ZERO,
                &stop,
                |kind| {
                    if kind == 0 {
                        let e = comp.trace.at(rng.gen_range(0..part1)).id;
                        let f = comp.trace.at(rng.gen_range(0..part1)).id;
                        precedes.push((e, f, c.precedes(e, f)));
                        true
                    } else if pool.is_empty() {
                        false
                    } else {
                        let i = rng.gen_range(0..pool.len());
                        gcs.push((i, c.greatest_concurrent(pool[i].0)));
                        true
                    }
                },
            );
            let secs = start.elapsed().as_secs_f64();
            let throughput = vec![
                ("live precedes", precedes.len() as f64 / secs),
                ("live gc", gcs.len() as f64 / secs),
            ];
            for (e, f, got) in precedes {
                let want = comp.oracle.precedes(&comp.trace, e, f);
                tally.check(&|| format!("live precedes({e}, {f})"), got, &want);
            }
            for (i, got) in gcs {
                let (e, want) = &pool[i];
                tally.check(&|| format!("live gc({e})"), got, want);
            }
            let mut lat = r.latency.into_iter();
            Ok(ThreadOut {
                lat: vec![
                    (Q::Precedes, lat.next().unwrap_or_default()),
                    (Q::Gc, lat.next().unwrap_or_default()),
                ],
                late: r.late,
                tally,
                batch_rates: Vec::new(),
                throughput,
            })
        });
        let ingest = (|| -> io::Result<_> {
            let _release = Release {
                go: &go,
                stop: &stop,
            };
            let mut tally = Tally::default();
            let mut c = Client::connect(addr)?;
            c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
            let start = Instant::now();
            c.stream_events(&events[..part1], ctx.plan.frame)?;
            let (_, delivered) = c.flush(part1 as u64)?;
            tally.compare(
                &|| "flush(first quarter)".into(),
                &delivered,
                &(part1 as u64),
            );
            go.store(true, Ordering::Release);
            c.stream_events(&events[part1..], ctx.plan.frame)?;
            let written = Instant::now();
            flush_checked(&mut c, comp, &mut tally)?;
            let end = Instant::now();
            Ok((end - start, end - written, tally))
        })();
        (ingest, b.join().expect("query thread panicked"))
    });
    let (wall, flush_wait, t1) = ingest?;
    acc.tally.merge(t1);
    acc.absorb(queries?);
    Ok((wall, flush_wait))
}

/// Greatest-concurrent probes whose answer no longer changes once the
/// first `part1` events are in: for every process, some event among them
/// succeeds the probe, so every process's greatest concurrent event is
/// already delivered. Their answer on any later head equals the offline
/// answer over the whole computation.
fn stable_gc_probes(comp: &Comp, part1: usize, seed: u64) -> Vec<(EventId, Vec<Option<EventId>>)> {
    let t = &comp.trace;
    let n = t.num_processes() as usize;
    let mut last: Vec<u32> = vec![0; n];
    for ev in &t.events()[..part1] {
        let p = ev.process().idx();
        last[p] = last[p].max(ev.index().0);
    }
    if last.contains(&0) {
        return Vec::new();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6C);
    let mut pool = Vec::new();
    for _ in 0..4000 {
        if pool.len() == 256 {
            break;
        }
        let e = t.at(rng.gen_range(0..part1 / 2 + 1)).id;
        let stable = (0..n).all(|q| {
            let f = EventId::new(ProcessId(q as u32), cts_model::EventIndex(last[q]));
            comp.oracle.precedes(t, e, f)
        });
        if stable {
            let want = greatest_concurrent(&mut ClusterBackend(&comp.oracle), t, e);
            pool.push((e, want));
        }
    }
    pool
}

/// A retained historical epoch of one computation with its replayed prefix
/// and the prefix engine that checks as-of answers.
struct AsOfTarget {
    epoch: u64,
    ids: Vec<EventId>,
    prefix: Trace,
    cts: ClusterTimestamps,
}

/// A warm-batch pool: pairs and the oracle's verdicts.
struct BatchPool {
    pairs: Vec<(EventId, EventId)>,
    want: Vec<Option<bool>>,
}

fn random_event(comp: &Comp, rng: &mut ChaCha8Rng) -> EventId {
    comp.trace.at(rng.gen_range(0..comp.trace.num_events())).id
}

/// Retained historical epochs (all but the head; at most the oldest and
/// one from the middle), replayed and re-stamped offline.
fn asof_targets(c: &mut Client, comp: &Comp, tally: &mut Tally) -> io::Result<Vec<AsOfTarget>> {
    let epochs = c.list_epochs()?;
    if epochs.len() < 2 {
        return Ok(Vec::new());
    }
    let hist = &epochs[..epochs.len() - 1];
    let mut picks = vec![hist[0]];
    if hist.len() > 2 {
        picks.push(hist[hist.len() / 2]);
    }
    let mut out = Vec::new();
    for (epoch, delivered) in picks {
        let events = c.replay_interval(0, epoch)?;
        if !tally.compare(
            &|| format!("{} replay_interval(0, {epoch}) length", comp.name),
            &(events.len() as u64),
            &delivered,
        ) {
            continue;
        }
        let ids: Vec<EventId> = events.iter().map(|e| e.id).collect();
        match Trace::from_delivery_order(
            format!("{}@{epoch}", comp.name),
            comp.trace.num_processes(),
            events,
        ) {
            Ok(prefix) => {
                let cts = ClusterEngine::run(&prefix, MergeOnFirst::new(MAX_CS as usize));
                out.push(AsOfTarget {
                    epoch,
                    ids,
                    prefix,
                    cts,
                });
            }
            Err(e) => tally.error(&format!("{} epoch {epoch} prefix", comp.name), e),
        }
    }
    Ok(out)
}

/// A request kind a query thread sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Q {
    /// `QueryPrecedes` on a random pair of the head.
    Precedes,
    /// `QueryAsOfPrecedes` on a random pair of a retained historical epoch.
    AsOf,
    /// `QueryGreatestConcurrent` on a random event of the head.
    Gc,
    /// A warm `QueryPrecedesBatch` (its pairs were asked before).
    Batch,
}

impl Q {
    fn label(self) -> &'static str {
        match self {
            Q::Precedes => "precedes",
            Q::AsOf => "asof",
            Q::Gc => "gc",
            Q::Batch => "batch",
        }
    }
}

/// One answer kept for checking after the timed window.
enum Answer {
    Precedes(usize, EventId, EventId, io::Result<bool>),
    /// Computation, as-of target index, pair.
    AsOf(usize, usize, EventId, EventId, io::Result<bool>),
    Gc(usize, EventId, io::Result<Vec<Option<EventId>>>),
    /// Computation, round trip of the batch.
    Batch(usize, Duration, io::Result<Vec<Option<bool>>>),
}

/// What one query thread brings back.
#[derive(Default)]
struct ThreadOut {
    lat: Vec<(Q, Samples)>,
    late: Samples,
    tally: Tally,
    batch_rates: Vec<f64>,
    throughput: Vec<(&'static str, f64)>,
}

/// The shared, read-only material of a query phase.
struct Phase<'a> {
    ctx: &'a Ctx<'a>,
    targets: Vec<Vec<AsOfTarget>>,
    pools: Vec<BatchPool>,
}

impl Phase<'_> {
    /// One sub-phase: a fresh connection sending `q` at `rate` for about
    /// `secs`. At a finite rate the request count is rounded to a whole
    /// number per eligible computation, and each computation gets that many
    /// in one block: a verb's cost differs by computation (up to fivefold
    /// for greatest-concurrent on `suite`), so a sub-phase that reached
    /// only some computations would measure which ones the seed picked.
    /// Answers are checked after the timed window, so the oracle's own time
    /// never delays a request.
    fn run(
        &self,
        addr: SocketAddr,
        acc: &mut E2e,
        q: Q,
        rate: f64,
        secs: f64,
        seed: u64,
    ) -> io::Result<()> {
        let ctx = self.ctx;
        tighten_timer_slack();
        let mut out = ThreadOut::default();
        let mut c = SpinConn::connect(addr)?;
        c.proto_hello()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // As-of queries go only to computations with a retained history.
        let eligible: Vec<usize> = (0..ctx.comps.len())
            .filter(|&ci| q != Q::AsOf || !self.targets[ci].is_empty())
            .collect();
        if eligible.is_empty() {
            return Err(io::Error::other(format!(
                "no computation to send {q:?} queries to"
            )));
        }
        let (block, secs) = if rate.is_finite() {
            let per_comp = ((rate * secs / eligible.len() as f64).round() as usize).max(1);
            // Due times fall half a period into each period, so exactly
            // `per_comp * eligible.len()` of them come before the end.
            (per_comp, (per_comp * eligible.len()) as f64 / rate)
        } else {
            (BLOCK, secs)
        };
        let mut rot = Rotation::new(eligible, block, &mut rng);
        let mut answers = Vec::new();
        let tally = &mut out.tally;
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_secs_f64(secs);
        let r = run_open_loop(&[rate], start, end, SPIN, &AtomicBool::new(false), |_| {
            let ci = match rot.current(&mut c, ctx.comps) {
                Ok(ci) => ci,
                Err(e) => {
                    tally.error("hello", e);
                    return false;
                }
            };
            let comp = &ctx.comps[ci];
            let answer = match q {
                Q::Precedes => {
                    let (e, f) = (random_event(comp, &mut rng), random_event(comp, &mut rng));
                    Answer::Precedes(ci, e, f, c.precedes(e, f))
                }
                Q::AsOf => {
                    let ts = &self.targets[ci];
                    let ti = rng.gen_range(0..ts.len());
                    let t = &ts[ti];
                    let e = t.ids[rng.gen_range(0..t.ids.len())];
                    let f = t.ids[rng.gen_range(0..t.ids.len())];
                    Answer::AsOf(ci, ti, e, f, c.asof_precedes(t.epoch, e, f))
                }
                Q::Gc => {
                    let e = random_event(comp, &mut rng);
                    Answer::Gc(ci, e, c.greatest_concurrent(e))
                }
                Q::Batch => {
                    let t = Instant::now();
                    let got = c.precedes_batch(&self.pools[ci].pairs);
                    Answer::Batch(ci, t.elapsed(), got)
                }
            };
            answers.push(answer);
            rot.done();
            true
        });
        for a in answers {
            self.check(a, &mut out);
        }
        let lat = r.latency.into_iter().next().unwrap_or_default();
        out.throughput = vec![(q.label(), lat.len() as f64 / secs)];
        out.lat = vec![(q, lat)];
        out.late = r.late;
        acc.absorb(out);
        Ok(())
    }

    fn check(&self, answer: Answer, out: &mut ThreadOut) {
        let comps = self.ctx.comps;
        match answer {
            Answer::Precedes(ci, e, f, got) => {
                let comp = &comps[ci];
                let want = comp.oracle.precedes(&comp.trace, e, f);
                out.tally
                    .check(&|| format!("{} precedes({e}, {f})", comp.name), got, &want);
            }
            Answer::AsOf(ci, ti, e, f, got) => {
                let t = &self.targets[ci][ti];
                let want = t.cts.precedes(&t.prefix, e, f);
                out.tally.check(
                    &|| format!("{} asof({}, {e}, {f})", comps[ci].name, t.epoch),
                    got,
                    &want,
                );
            }
            Answer::Gc(ci, e, got) => {
                let comp = &comps[ci];
                let want = greatest_concurrent(&mut ClusterBackend(&comp.oracle), &comp.trace, e);
                out.tally
                    .check(&|| format!("{} gc({e})", comp.name), got, &want);
            }
            Answer::Batch(ci, rtt, got) => {
                let pool = &self.pools[ci];
                if out.tally.check(
                    &|| format!("{} warm batch", comps[ci].name),
                    got,
                    &pool.want,
                ) {
                    out.batch_rates
                        .push(pool.pairs.len() as f64 / rtt.as_secs_f64());
                }
            }
        }
    }
}

/// The read-only phase after ingest: one sub-phase per request kind, one
/// connection at a time, each kind open-loop at its fixed rate, so every
/// latency measures one verb and nothing else the benchmark sends.
fn query_phase(ctx: &Ctx, addr: SocketAddr, acc: &mut E2e, seed: u64) -> io::Result<()> {
    let plan = ctx.plan;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5);
    // Untimed preparation: as-of targets, and one cold batch per pool so
    // the timed batches are warm.
    let mut c = Client::connect(addr)?;
    c.proto_hello()?;
    let mut phase = Phase {
        ctx,
        targets: Vec::new(),
        pools: Vec::new(),
    };
    for comp in ctx.comps {
        c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
        phase
            .targets
            .push(asof_targets(&mut c, comp, &mut acc.tally)?);
        let pairs: Vec<(EventId, EventId)> = (0..BATCH_ITEMS)
            .map(|_| (random_event(comp, &mut rng), random_event(comp, &mut rng)))
            .collect();
        let want: Vec<Option<bool>> = pairs
            .iter()
            .map(|&(e, f)| Some(comp.oracle.precedes(&comp.trace, e, f)))
            .collect();
        acc.tally.check(
            &|| format!("{} cold batch", comp.name),
            c.precedes_batch(&pairs),
            &want,
        );
        phase.pools.push(BatchPool { pairs, want });
    }
    drop(c);
    for (i, &(q, rate, secs)) in plan.phases.iter().enumerate() {
        phase.run(addr, acc, q, rate, secs, seed ^ (0xA0 + i as u64))?;
    }
    Ok(())
}

/// Which computation a query thread is on: a seeded order, `block`
/// requests each, with a `Hello` on every move.
struct Rotation {
    order: Vec<usize>,
    block: usize,
    pos: usize,
    sent: usize,
    bound: Option<usize>,
}

impl Rotation {
    fn new(mut order: Vec<usize>, block: usize, rng: &mut ChaCha8Rng) -> Rotation {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        Rotation {
            order,
            block,
            pos: 0,
            sent: 0,
            bound: None,
        }
    }

    fn current(&mut self, c: &mut SpinConn, comps: &[Comp]) -> io::Result<usize> {
        let ci = self.order[self.pos];
        if self.bound != Some(ci) {
            c.hello(&comps[ci])?;
            self.bound = Some(ci);
        }
        Ok(ci)
    }

    fn done(&mut self) {
        self.sent += 1;
        if self.sent.is_multiple_of(self.block) {
            self.pos = (self.pos + 1) % self.order.len();
        }
    }
}

/// After the SIGKILL restart: every computation must be back in full, and
/// a sample of precedence and greatest-concurrent answers must match.
fn recheck(ctx: &Ctx, addr: SocketAddr, acc: &mut E2e, seed: u64) -> io::Result<()> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EC);
    let mut c = Client::connect(addr)?;
    for comp in ctx.comps {
        c.hello(&comp.name, comp.trace.num_processes(), MAX_CS)?;
        flush_checked(&mut c, comp, &mut acc.tally)?;
        for _ in 0..16 {
            let (e, f) = (random_event(comp, &mut rng), random_event(comp, &mut rng));
            let want = comp.oracle.precedes(&comp.trace, e, f);
            acc.tally.check(
                &|| format!("recovered {} precedes({e}, {f})", comp.name),
                c.precedes(e, f),
                &want,
            );
        }
        for _ in 0..2 {
            let e = random_event(comp, &mut rng);
            let want = greatest_concurrent(&mut ClusterBackend(&comp.oracle), &comp.trace, e);
            acc.tally.check(
                &|| format!("recovered {} gc({e})", comp.name),
                c.greatest_concurrent(e),
                &want,
            );
        }
    }
    Ok(())
}
