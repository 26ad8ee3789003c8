//! Admission control: one decision over one estimator type.
//!
//! The static `--queue-cap` bounds queue *length*, not queue *time*: a
//! cap of 64 in front of 1ms plans is 64ms of waiting, but in front of
//! 300ms plans it is nineteen seconds — every admitted request blows
//! its deadline and the server does work nobody will read. Whether a
//! cache miss may queue is therefore decided by [`Admission::decide`]
//! from two [`Estimate`]s:
//!
//! - the node-wide **service latency**, fed by workers with the time
//!   each job held them;
//! - the cell's **miss cost**, the measured planning time of its last
//!   client misses (kept per cell by the stream hub).
//!
//! Both use one blend, `(3·old + new)/4` seeded by the first sample,
//! and one ageing rule: for each whole idle [`TICK`] since the last
//! observation the value drops by `max(v/4, 1)`. Ageing is computed at
//! read time, so no thread has to run it, and it is what keeps every
//! shed reason live: sheds produce no observations, but an estimate
//! that stops being fed decays below any positive deadline within
//! [`Estimate::IDLE_TICKS_TO_ZERO`] ticks, so some request is admitted
//! and measures it afresh.
//!
//! Until the first observation lands an estimate is 0, which never
//! sheds: the controller then behaves exactly like the static cap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One ageing step of an [`Estimate`].
pub const TICK: Duration = Duration::from_millis(50);

/// Low half of the packed word: the value in µs.
const VALUE_MASK: u64 = 0xFFFF_FFFF;

/// A lock-free smoothed estimate in microseconds that ages while idle.
///
/// The value and the tick of its last observation are packed into one
/// `AtomicU64` (value in the low 32 bits, saturating at ~71 minutes;
/// tick in the high 32 bits), so an observation is a single CAS and a
/// read is a single load. Orderings are `Relaxed`: the estimate is an
/// admission heuristic, never used to publish data.
#[derive(Debug, Default)]
pub struct Estimate(AtomicU64);

impl Estimate {
    /// Whole idle ticks after which any value has aged to 0. A step
    /// maps `v` to `v - max(v/4, 1)`, which is monotone in `v`, so the
    /// largest value takes the most steps: `u32::MAX` takes 78.
    pub const IDLE_TICKS_TO_ZERO: u32 = 78;

    /// Fold one sample taken at tick `now` into the estimate, blended
    /// with the estimate as aged to `now`. Returns the new value.
    pub fn observe(&self, sample_us: u64, now: u32) -> u64 {
        let sample = sample_us.min(VALUE_MASK);
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let old = age(cur, now);
            let next = if old == 0 {
                sample
            } else {
                (3 * old + sample) / 4
            };
            let at = now.max((cur >> 32) as u32);
            let packed = (u64::from(at) << 32) | next;
            match self
                .0
                .compare_exchange_weak(cur, packed, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return next,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The estimate as aged to tick `now`: what admission reads.
    pub fn at(&self, now: u32) -> u64 {
        age(self.0.load(Ordering::Relaxed), now)
    }

    /// The value as of the last observation, not aged: what pre-warm
    /// ranking and the `stream` view read, so a cell's rank moves only
    /// when its cost is measured again.
    pub fn last(&self) -> u64 {
        self.0.load(Ordering::Relaxed) & VALUE_MASK
    }
}

/// Age a packed estimate to tick `now`. The tick of the observation is
/// not idle, nor is the tick in progress; a reader whose `now` is older
/// than the observation (it raced an observer) sees no ageing.
fn age(packed: u64, now: u32) -> u64 {
    let mut v = packed & VALUE_MASK;
    let idle = now.saturating_sub((packed >> 32) as u32).saturating_sub(1);
    for _ in 0..idle {
        if v == 0 {
            break;
        }
        v -= (v / 4).max(1);
    }
    v
}

/// Why admission refused a request. The reason picks the shed counter
/// and the stream event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue is at the static capacity.
    Static,
    /// The queue is at the effective cap, or its predicted wait exceeds
    /// the request's deadline.
    Adaptive,
    /// The cell's miss cost alone exceeds the request's deadline.
    Predicted,
}

/// The outcome of [`Admission::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Queue the job.
    Admit,
    /// Refuse it now.
    Shed(ShedReason),
}

/// The admission controller; see the module docs.
#[derive(Debug)]
pub struct Admission {
    epoch: Instant,
    /// The node-wide service latency, fed by workers.
    pub service: Estimate,
    base_cap: usize,
    workers: u64,
    target_budget_us: u64,
    adaptive: bool,
}

impl Admission {
    /// A controller over `base_cap` queue slots drained by `workers`
    /// workers, aiming to keep predicted queue wait within
    /// `target_budget_us`. `adaptive = false` checks the static cap
    /// only (for `--static-cap` and A/B tests).
    pub fn new(base_cap: usize, workers: usize, target_budget_us: u64, adaptive: bool) -> Self {
        Admission {
            epoch: Instant::now(),
            service: Estimate::default(),
            base_cap: base_cap.max(1),
            workers: workers.max(1) as u64,
            target_budget_us: target_budget_us.max(1),
            adaptive,
        }
    }

    /// Ticks since the controller started: the clock every estimate
    /// this node keeps is observed and aged on. Saturates after 2^32
    /// ticks (~6.8 years).
    pub fn now(&self) -> u32 {
        let ticks = self.epoch.elapsed().as_millis() / TICK.as_millis();
        u32::try_from(ticks).unwrap_or(u32::MAX)
    }

    /// Decide admission for a miss that sees `queue_len` jobs ahead of
    /// it, with `deadline_left_us` left on its deadline (if any) and
    /// `cell_miss_us` the aged miss cost of its cell (if known), at
    /// tick `now`. In adaptive mode the checks run in order:
    ///
    /// 1. the cell's miss cost exceeds the deadline left → `Predicted`;
    /// 2. the queue is at the static cap → `Static`;
    /// 3. the queue is at the effective cap (the length whose drain
    ///    time `len·est/workers` fits the target budget, clamped to
    ///    `1..=base_cap`), or `(len+1)·est/workers` exceeds the
    ///    deadline left → `Adaptive`.
    ///
    /// Static mode runs rule 2 only.
    pub fn decide(
        &self,
        queue_len: usize,
        deadline_left_us: Option<u64>,
        cell_miss_us: Option<u64>,
        now: u32,
    ) -> Decision {
        let over = |cost: u64| deadline_left_us.is_some_and(|left| cost > left);
        if self.adaptive && cell_miss_us.is_some_and(over) {
            return Decision::Shed(ShedReason::Predicted);
        }
        if queue_len >= self.base_cap {
            return Decision::Shed(ShedReason::Static);
        }
        if !self.adaptive {
            return Decision::Admit;
        }
        let est = self.service.at(now);
        // No estimate yet (or aged to 0): no effective cap.
        let Some(cap) = self
            .target_budget_us
            .saturating_mul(self.workers)
            .checked_div(est)
        else {
            return Decision::Admit;
        };
        let cap = usize::try_from(cap)
            .unwrap_or(usize::MAX)
            .clamp(1, self.base_cap);
        let wait = (queue_len as u64 + 1).saturating_mul(est) / self.workers;
        if queue_len >= cap || over(wait) {
            return Decision::Shed(ShedReason::Adaptive);
        }
        Decision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ADMIT: Decision = Decision::Admit;
    const STATIC: Decision = Decision::Shed(ShedReason::Static);
    const ADAPTIVE: Decision = Decision::Shed(ShedReason::Adaptive);
    const PREDICTED: Decision = Decision::Shed(ShedReason::Predicted);

    #[test]
    fn first_sample_seeds_then_blends_a_quarter() {
        let e = Estimate::default();
        assert_eq!(e.at(7), 0);
        assert_eq!(e.observe(800, 7), 800);
        assert_eq!(e.observe(1600, 7), 1000); // (3*800 + 1600) / 4
        assert_eq!(e.observe(100, 7), 775); // (3*1000 + 100) / 4
        assert_eq!((e.at(7), e.last()), (775, 775));
    }

    #[test]
    fn ageing_steps_drop_a_quarter_per_whole_idle_tick() {
        let e = Estimate::default();
        e.observe(1000, 10);
        // Neither the observation's tick nor the tick in progress is
        // whole and idle.
        assert_eq!(e.at(10), 1000);
        assert_eq!(e.at(11), 1000);
        assert_eq!(e.at(12), 750);
        assert_eq!(e.at(13), 563);
        assert_eq!(e.at(14), 423);
        // A reader whose clock is behind the observation sees no ageing.
        assert_eq!(e.at(3), 1000);
        // Small values step down by 1: 3 -> 2 -> 1 -> 0.
        let s = Estimate::default();
        s.observe(3, 0);
        assert_eq!([s.at(2), s.at(3), s.at(4), s.at(5)], [2, 1, 0, 0]);
        // The raw value never ages; an observation blends with the
        // aged one and restarts the idle clock.
        assert_eq!(e.last(), 1000);
        assert_eq!(e.observe(200, 12), 612); // (3*750 + 200) / 4
        assert_eq!(e.at(13), 612);
    }

    #[test]
    fn idle_bound_ages_the_largest_value_to_zero() {
        let e = Estimate::default();
        e.observe(u64::MAX, 0);
        assert_eq!(e.last(), u64::from(u32::MAX), "values saturate");
        let steps = Estimate::IDLE_TICKS_TO_ZERO;
        assert!(e.at(steps) > 0, "the bound is tight");
        assert_eq!(e.at(steps + 1), 0);
    }

    #[test]
    fn inert_until_the_first_observation() {
        let a = Admission::new(64, 4, 50_000, true);
        assert_eq!(a.decide(0, Some(0), None, 0), ADMIT);
        assert_eq!(a.decide(63, None, Some(0), 0), ADMIT);
        assert_eq!(a.decide(64, None, None, 0), STATIC);
    }

    #[test]
    fn slow_service_tightens_the_effective_cap() {
        // 300ms plans, 2 workers, 50ms budget -> cap 0, clamped to 1.
        let a = Admission::new(64, 2, 50_000, true);
        a.service.observe(300_000, 0);
        assert_eq!(a.decide(0, None, None, 0), ADMIT);
        assert_eq!(a.decide(1, None, None, 0), ADAPTIVE);
        // 1ms plans leave the static bound in charge.
        let fast = Admission::new(64, 2, 50_000, true);
        fast.service.observe(1_000, 0);
        assert_eq!(fast.decide(63, None, None, 0), ADMIT);
        assert_eq!(fast.decide(64, None, None, 0), STATIC);
    }

    #[test]
    fn deadlines_shed_in_rule_order() {
        let a = Admission::new(8, 1, 1_000_000, true);
        // At 10ms per job, 5 queued jobs predict 60ms of wait.
        a.service.observe(10_000, 0);
        assert_eq!(a.decide(5, Some(20_000), None, 0), ADAPTIVE);
        assert_eq!(a.decide(5, None, None, 0), ADMIT);
        assert_eq!(a.decide(5, Some(500_000), None, 0), ADMIT);
        // The cell's own cost is checked first, before the static cap.
        assert_eq!(a.decide(8, Some(20_000), Some(30_000), 0), PREDICTED);
        assert_eq!(a.decide(8, Some(40_000), Some(30_000), 0), STATIC);
        assert_eq!(a.decide(0, None, Some(30_000), 0), ADMIT);
    }

    #[test]
    fn static_mode_checks_the_static_cap_only() {
        let a = Admission::new(4, 1, 50_000, false);
        a.service.observe(10_000_000, 0);
        assert_eq!(a.decide(3, Some(1), Some(10_000_000), 0), ADMIT);
        assert_eq!(a.decide(4, None, None, 0), STATIC);
    }

    #[test]
    fn concurrent_observers_stay_within_the_sample_range() {
        let e = Estimate::default();
        let samples: Vec<u64> = (0..8).map(|t| 1_000 + t * 977).collect();
        let (lo, hi) = (samples[0], samples[7]);
        std::thread::scope(|s| {
            for &sample in &samples {
                let e = &e;
                s.spawn(move || {
                    for i in 0..2_000 {
                        let v = e.observe(sample + i % 3, 5);
                        assert!((lo..=hi + 2).contains(&v), "{v}");
                    }
                });
            }
        });
        assert!((lo..=hi + 2).contains(&e.at(5)), "{}", e.at(5));
    }

    proptest! {
        /// Liveness: whatever was observed, with whatever idle gaps,
        /// once both the node and the cell estimate have been idle for
        /// the bound, a request whose deadline covers its true cost is
        /// admitted.
        #[test]
        fn stale_estimates_always_readmit(
            events in proptest::collection::vec((any::<bool>(), 0u64..20_000_000, 0u32..120), 1..40),
            idle in 0u32..1_000,
            true_cost in 1u64..10_000_000,
            workers in 1usize..8,
        ) {
            let a = Admission::new(64, workers, 50_000, true);
            let cell = Estimate::default();
            let mut now = 0u32;
            for (on_cell, sample, gap) in events {
                now += gap;
                let target = if on_cell { &cell } else { &a.service };
                target.observe(sample, now);
            }
            now += Estimate::IDLE_TICKS_TO_ZERO + 1 + idle;
            prop_assert_eq!(a.service.at(now), 0);
            prop_assert_eq!(cell.at(now), 0);
            let d = a.decide(0, Some(true_cost), Some(cell.at(now)), now);
            prop_assert_eq!(d, ADMIT);
        }
    }
}
