//! Simulated time, and the one queue of timed events.
//!
//! The simulator measures time in integer microseconds. Integer time keeps
//! event ordering exact and runs reproducible across platforms (no floating
//! point accumulation). [`EventQueue`] decides what fires next wherever
//! something is scheduled: the discrete-event engine, the protocol harness,
//! and the networked driver and shard loops.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An instant in simulated time (microseconds since simulation start).
#[derive(
    Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// This instant expressed in milliseconds (lossy).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in seconds (lossy).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}µs)", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time (microseconds).
#[derive(
    Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// A duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// A duration of `s` seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// A duration of fractional milliseconds, rounded to the nearest µs.
    pub fn from_millis_f64(ms: f64) -> SimDuration {
        SimDuration((ms * 1_000.0).round().max(0.0) as u64)
    }

    /// This duration in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in milliseconds (lossy).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration in seconds (lossy).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}µs)", self.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

/// A min-heap of items keyed by `(due time, insertion order)`: the earliest
/// item comes out first, and items due at the same instant come out in the
/// order they were pushed, so a run driven by it is a pure function of its
/// inputs. It never cancels: a consumer that no longer wants an item
/// ignores it when it fires.
///
/// # Examples
///
/// ```
/// use moonshot_types::time::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime(5_000), "b");
/// q.push(SimTime(1_000), "a");
/// q.push(SimTime(5_000), "c");
/// assert_eq!(q.next_at(), Some(SimTime(1_000)));
/// assert_eq!(q.expire(SimTime(4_999)), vec!["a"]);
/// assert_eq!(q.expire(SimTime(5_000)), vec!["b", "c"]);
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    pushed: u64,
}

/// One queued item; ordered by `(at, seq)` only, so `T` needs no `Ord`.
#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), pushed: 0 }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `item` to fire at `at`. A time already past fires on the
    /// next pop.
    pub fn push(&mut self, at: SimTime, item: T) {
        self.pushed += 1;
        self.heap.push(Reverse(Entry { at, seq: self.pushed, item }));
    }

    /// Removes the earliest item, with its due time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.item))
    }

    /// Removes the earliest item if it is due by `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        if self.next_at()? > now {
            return None;
        }
        self.pop()
    }

    /// Removes every item due by `now`, earliest first. Items pushed while
    /// the caller handles them wait for the next call.
    pub fn expire(&mut self, now: SimTime) -> Vec<T> {
        std::iter::from_fn(|| self.pop_due(now)).map(|(_, item)| item).collect()
    }

    /// When the earliest item is due.
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t, SimTime(5_000));
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(5));
        assert_eq!(SimTime(3) - SimTime(10), SimDuration::ZERO); // saturating
        assert_eq!(SimDuration::from_millis(2) * 3, SimDuration::from_millis(6));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.5), SimDuration(1_500));
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
        assert!((SimTime(1_500_000).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimDuration(500).to_string(), "500µs");
        assert_eq!(SimDuration(2_500).to_string(), "2.500ms");
        assert_eq!(SimDuration(2_500_000).to_string(), "2.500s");
    }

    #[test]
    fn saturating_sub() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(1));
    }

    #[test]
    fn fires_at_and_after_deadline_not_before() {
        let mut q = EventQueue::new();
        q.push(SimTime(2_500), 1);
        assert!(q.expire(SimTime(2_499)).is_empty());
        assert_eq!(q.expire(SimTime(2_500)), vec![1]);
        assert!(q.expire(SimTime(10_000)).is_empty());
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(9_000), 3);
        q.push(SimTime(1_000), 1);
        q.push(SimTime(5_000), 2);
        assert_eq!(q.expire(SimTime(10_000)), vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_deadline_still_fires() {
        let mut q = EventQueue::new();
        q.push(SimTime(50_000), 7);
        assert_eq!(q.next_at(), Some(SimTime(50_000)));
        assert!(q.expire(SimTime(40_000)).is_empty());
        assert_eq!(q.expire(SimTime(50_000)), vec![7]);
    }

    #[test]
    fn later_deadline_not_fired_early() {
        let mut q = EventQueue::new();
        q.push(SimTime(2_000), 1);
        assert_eq!(q.expire(SimTime(2_000)), vec![1]);
        q.push(SimTime(2_000 + 8_000), 2);
        assert!(q.expire(SimTime(9_000)).is_empty());
        assert_eq!(q.expire(SimTime(10_000)), vec![2]);
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut q = EventQueue::new();
        let _ = q.expire(SimTime(100_000));
        q.push(SimTime(1_000), 9); // long past
        assert_eq!(q.expire(SimTime(100_001)), vec![9]);
    }

    #[test]
    fn len_tracks_push_and_expire() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(i * 1_000), i);
        }
        assert_eq!(q.len(), 10);
        let fired = q.expire(SimTime(4_000));
        assert_eq!(fired.len(), 5);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn equal_deadlines_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.push(SimTime(7_000), i);
        }
        q.push(SimTime(6_999), 99);
        assert_eq!(q.pop(), Some((SimTime(6_999), 99)));
        assert_eq!(q.expire(SimTime(7_000)), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_takes_only_what_is_due() {
        let mut q = EventQueue::new();
        q.push(SimTime(3_000), 'b');
        q.push(SimTime(1_000), 'a');
        assert_eq!(q.pop_due(SimTime(999)), None);
        assert_eq!(q.pop_due(SimTime(2_000)), Some((SimTime(1_000), 'a')));
        assert_eq!(q.pop_due(SimTime(2_000)), None);
        assert_eq!(q.len(), 1);
    }

    /// What a handler pushes while it works through one `expire` batch —
    /// even something already due — waits for the next call.
    #[test]
    fn an_item_pushed_during_handling_waits_for_the_next_expire() {
        let mut q = EventQueue::new();
        q.push(SimTime(1_000), 1);
        q.push(SimTime(2_000), 2);
        let now = SimTime(5_000);
        let mut handled = Vec::new();
        for item in q.expire(now) {
            handled.push(item);
            q.push(now, item + 10);
        }
        assert_eq!(handled, vec![1, 2]);
        assert_eq!((q.len(), q.next_at()), (2, Some(now)));
        assert_eq!(q.expire(now), vec![11, 12]);
        assert_eq!((q.len(), q.next_at()), (0, None));
    }

    /// Differential check against a sorted `Vec` across arbitrary
    /// interleavings of pushes, expirations and clock jumps: same items
    /// fired in the same order, same `next_at`, same `len`.
    #[test]
    fn next_at_matches_a_sorted_vec_over_random_sequences() {
        for seed in 0..8u64 {
            let mut rng = crate::rng::DetRng::seed_from_u64(0x71e1 + seed);
            let mut q = EventQueue::new();
            let mut now = 0u64;
            // (deadline, step), kept sorted: step breaks ties by push order.
            let mut reference: Vec<(u64, u64)> = Vec::new();
            for step in 0..500u64 {
                if rng.gen_bool(0.6) {
                    // Push somewhere from the past to far ahead.
                    let deadline = now.saturating_sub(2_000) + rng.gen_below(200_000);
                    q.push(SimTime(deadline), step);
                    let at = reference.partition_point(|e| *e <= (deadline, step));
                    reference.insert(at, (deadline, step));
                } else {
                    now += rng.gen_below(40_000); // may jump far ahead
                    let fired = q.expire(SimTime(now));
                    let due = reference.partition_point(|(d, _)| *d <= now);
                    let expected: Vec<u64> = reference.drain(..due).map(|(_, s)| s).collect();
                    assert_eq!(fired, expected, "seed {seed} step {step}");
                }
                assert_eq!(
                    q.next_at(),
                    reference.first().map(|(d, _)| SimTime(*d)),
                    "seed {seed} step {step} now {now}"
                );
                assert_eq!(q.len(), reference.len());
            }
        }
    }
}
