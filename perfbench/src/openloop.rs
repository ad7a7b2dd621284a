//! Open-loop request schedules, exact latency samples, and the failed-op
//! tally.
//!
//! Every request has a due time on a fixed-rate schedule and is timed from
//! that due time, not from when it was actually sent: a stall therefore
//! shows up in the latency of every request that was due during it. How
//! late the generator sent each request is recorded separately.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Exact per-request samples in nanoseconds (no histogram buckets).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile (`q` in (0, 1]), in ns.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        percentile_sorted(&v, q)
    }

    /// Robust percentile: the samples, in the order they were taken, are
    /// cut into consecutive blocks of `block` (a short tail joins the last
    /// block), and the median of the blocks' percentiles is returned. One
    /// burst of host noise then moves one block, not the result.
    pub fn block_percentile(&self, q: f64, block: usize) -> Option<f64> {
        median(&self.blocks(q, block))
    }

    fn blocks(&self, q: f64, block: usize) -> Vec<f64> {
        let nblocks = (self.ns.len() / block.max(1)).max(1);
        (0..nblocks)
            .filter_map(|b| {
                let lo = b * block;
                let hi = if b + 1 == nblocks {
                    self.ns.len()
                } else {
                    lo + block
                };
                let mut v = self.ns[lo..hi].to_vec();
                v.sort_unstable();
                percentile_sorted(&v, q)
            })
            .collect()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.ns.is_empty() {
            return None;
        }
        Some(self.ns.iter().map(|&x| x as f64).sum::<f64>() / self.ns.len() as f64)
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1] as f64)
}

/// Median of plain values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Latency and lateness of one connection's open-loop run.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per request kind: completion time minus due time.
    pub latency: Vec<Samples>,
    /// Send time minus due time, over all kinds.
    pub late: Samples,
}

/// Drive request kinds `0..rates.len()` on one connection, each at its
/// fixed rate (requests per second; 0 disables a kind), from `start` until
/// `end` or until `stop` is raised. The thread sleeps until `spin` before
/// each due time and then spins, since a sleeping thread wakes tens of
/// microseconds late on a busy host and that delay would be charged to the
/// request. `op(kind)` performs one request and
/// returns false when it had nothing to send (no sample is kept then).
/// Requests whose due time has passed are sent immediately, one after the
/// other, so a slow request delays the ones behind it and all of them
/// count the wait. A kind at an infinite rate is sent back to back until
/// the clock passes `end` (a closed loop; it must be the only kind).
pub fn run_open_loop(
    rates: &[f64],
    start: Instant,
    end: Instant,
    spin: Duration,
    stop: &AtomicBool,
    mut op: impl FnMut(usize) -> bool,
) -> LoopResult {
    let periods: Vec<Option<Duration>> = rates
        .iter()
        .map(|&r| (r > 0.0).then(|| Duration::from_secs_f64(1.0 / r)))
        .collect();
    // Stagger the kinds by half a period so they do not all fire at once.
    let mut next: Vec<Option<Instant>> = periods.iter().map(|p| p.map(|p| start + p / 2)).collect();
    let mut out = LoopResult {
        latency: vec![Samples::default(); rates.len()],
        late: Samples::default(),
    };
    while let Some((kind, due)) = next
        .iter()
        .enumerate()
        .filter_map(|(k, d)| d.map(|d| (k, d)))
        .min_by_key(|&(_, d)| d)
    {
        let closed = periods[kind] == Some(Duration::ZERO);
        if due >= end || stop.load(Ordering::Acquire) || (closed && Instant::now() >= end) {
            break;
        }
        let now = Instant::now();
        if due > now + spin {
            std::thread::sleep(due - now - spin);
            if stop.load(Ordering::Acquire) {
                break;
            }
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        if op(kind) {
            out.late.push(sent.saturating_duration_since(due));
            out.latency[kind].push(Instant::now().saturating_duration_since(due));
        }
        next[kind] = Some(due + periods[kind].expect("scheduled kinds have a period"));
    }
    out
}

/// Ask the kernel to wake this thread's sleeps on time: the default 50 µs
/// timer slack would otherwise be added to every due-time latency.
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer argument and only
        // changes the calling thread's timer slack; no memory is passed.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

/// Operations attempted and failed. A failure is an error reply, a refused
/// or broken request, or an answer that differs from the oracle's.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, text: String) {
        if self.notes.len() < 8 {
            self.notes.push(text);
        }
    }

    /// One request that produced no answer (error reply, refusal, I/O).
    pub fn error(&mut self, what: &str, err: impl Debug) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("{what}: {err:?}"));
    }

    /// One answered request, compared with the oracle. Returns whether it
    /// matched.
    pub fn compare<T: PartialEq + Debug>(
        &mut self,
        what: &dyn Fn() -> String,
        got: &T,
        want: &T,
    ) -> bool {
        self.attempted += 1;
        if got == want {
            return true;
        }
        self.failed += 1;
        self.mismatches += 1;
        self.note(format!("MISMATCH {}: got {got:?}, oracle {want:?}", what()));
        false
    }

    /// A request's result: an error counts as failed, an answer is compared.
    pub fn check<T: PartialEq + Debug, E: Debug>(
        &mut self,
        what: &dyn Fn() -> String,
        got: Result<T, E>,
        want: &T,
    ) -> bool {
        match got {
            Ok(g) => self.compare(what, &g, want),
            Err(e) => {
                self.error(&what(), e);
                false
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for n in other.notes {
            self.note(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s = Samples::default();
        for ns in 1..=1000u64 {
            s.push(Duration::from_nanos(ns));
        }
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
        assert_eq!(s.percentile(1.0), Some(1000.0));
        assert_eq!(Samples::default().percentile(0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // Three blocks of 1000: one with a burst of 100 slow samples. The
        // pooled p99 lands in the burst; the block median does not.
        let mut b = Samples::default();
        for blk in 0..3u64 {
            for i in 0..1000u64 {
                let slow = blk == 1 && i < 100;
                b.push(Duration::from_nanos(if slow {
                    1_000_000
                } else {
                    1000 + i
                }));
            }
        }
        assert_eq!(b.percentile(0.99), Some(1_000_000.0));
        assert_eq!(b.block_percentile(0.99, 1000), Some(1989.0));
        // Fewer samples than two blocks: one block, the pooled percentile.
        assert_eq!(s.block_percentile(0.99, 1000), s.percentile(0.99));
    }

    #[test]
    fn latency_is_timed_from_due_time_across_an_injected_stall() {
        // 1 kHz for 120 ms; the 10th request stalls for 40 ms. The requests
        // due during the stall are sent late and must carry that wait in
        // their latency, even though each one is fast once sent.
        tighten_timer_slack();
        let stall = Duration::from_millis(40);
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_millis(120);
        let stop = AtomicBool::new(false);
        let mut calls = 0;
        let r = run_open_loop(&[1000.0], start, end, Duration::ZERO, &stop, |_| {
            calls += 1;
            if calls == 10 {
                std::thread::sleep(stall);
            }
            true
        });
        let lat: Vec<u64> = r.latency[0].ns.clone();
        assert_eq!(lat.len(), calls);
        assert!(
            calls >= 100,
            "open loop keeps its schedule: {calls} requests"
        );
        assert!(
            lat[9] >= stall.as_nanos() as u64,
            "the stalled request itself"
        );
        // The next request was due 1 ms after the stalled one, so it waited
        // ~39 ms before it could be sent.
        assert!(
            lat[10] >= 30_000_000,
            "next request counts the wait: {}",
            lat[10]
        );
        assert!(
            lat[20] >= 20_000_000,
            "ten periods later still waiting: {}",
            lat[20]
        );
        // The generator reports how late it ran.
        let worst_late = r.late.percentile(1.0).unwrap();
        assert!(
            worst_late >= 30_000_000.0,
            "lateness recorded: {worst_late}"
        );
        // Without the stall a request is fast: the p50 is well under the
        // stall, and only the backlog's requests are slow.
        let quick = lat.iter().filter(|&&ns| ns < 5_000_000).count();
        assert!(quick >= lat.len() / 2, "{quick} of {} fast", lat.len());
    }

    #[test]
    fn stop_flag_ends_the_loop() {
        let stop = AtomicBool::new(true);
        let now = Instant::now();
        let r = run_open_loop(
            &[100.0, 0.0],
            now,
            now + Duration::from_secs(5),
            Duration::ZERO,
            &stop,
            |_| panic!("no request after stop"),
        );
        assert_eq!(r.latency[0].len(), 0);
        assert_eq!(r.late.len(), 0);
    }

    #[test]
    fn a_wrong_oracle_answer_counts_as_one_failed_op() {
        let mut t = Tally::default();
        assert!(t.compare(&|| "precedes(a, b)".into(), &true, &true));
        // The oracle deliberately says the opposite of the daemon's answer.
        assert!(!t.compare(&|| "precedes(b, a)".into(), &false, &true));
        assert!(!t.check::<bool, &str>(&|| "gc(x)".into(), Err("daemon error 1"), &true));
        assert_eq!(t.attempted, 3);
        assert_eq!(t.failed, 2);
        assert_eq!(t.mismatches, 1);
        assert!(t.notes[0].starts_with("MISMATCH precedes(b, a)"));
        let mut total = Tally::default();
        total.merge(t);
        assert_eq!((total.attempted, total.failed, total.mismatches), (3, 2, 1));
    }
}
