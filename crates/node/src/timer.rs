//! The name the repo benchmark's timer microbenchmark imports.
//!
//! The driver and shard loops hold a [`moonshot_types::time::EventQueue`]
//! directly; nothing in this workspace uses [`TimerWheel`]. It stays only
//! because the benchmark package is frozen between benchmark changes and
//! still names it.

use moonshot_types::time::{EventQueue, SimDuration, SimTime};

/// An [`EventQueue`] under the name and constructor of the hashed timer
/// wheel it replaced.
#[derive(Debug)]
pub struct TimerWheel<T> {
    queue: EventQueue<T>,
}

impl<T> TimerWheel<T> {
    /// An empty queue. Both arguments are ignored: they sized the old
    /// wheel's slots, and the benchmark still passes them.
    pub fn new(_granularity: SimDuration, _slots: usize) -> Self {
        TimerWheel { queue: EventQueue::new() }
    }

    /// Arms `token` to fire at `deadline`.
    pub fn arm(&mut self, deadline: SimTime, token: T) {
        self.queue.push(deadline, token);
    }

    /// Fires every timer due by `now`, earliest first.
    pub fn expire(&mut self, now: SimTime) -> Vec<T> {
        self.queue.expire(now)
    }
}
