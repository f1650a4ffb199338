//! The benchmark's own load generator: one thread, submitting in-process.
//!
//! Open loop: transaction `k` is due at `start + k / rate`; it carries
//! that due time in `make_tx`'s timestamp field, so latency counts the
//! wait a stall imposes on later transactions. The generator never skips
//! an owed transaction (after a stall it submits the backlog at once) and
//! records how late each one went out. A refusal is final.
//!
//! Closed loop: the next transaction is made when the previous one was
//! accepted; it carries its first-attempt time and is retried every
//! 500 µs while admission refuses it.

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proc;
use crate::surface::{make_tx, Mempool, SubmitError};
use crate::workload::{Load, RETRY_US, TX_BYTES};

/// SplitMix64: derives the generator's inputs from the seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything that fixes a generator's behaviour.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub load: Load,
    pub seed: u64,
    pub epoch: Instant,
    /// First due time, µs since `epoch`.
    pub start_us: u64,
    /// The timed window `[from, until)`; the schedule ends at `until`.
    pub window_us: (u64, u64),
}

/// One second of generator activity (the `generator.tick` span).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tick {
    pub start_us: u64,
    pub end_us: u64,
    pub submitted: u64,
    pub refused: u64,
    pub busy_us: u64,
    pub late_max_us: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Transactions due (open loop) or first attempted and accepted
    /// (closed loop) inside the window.
    pub offered: u64,
    /// Of those, refused for good (open loop only).
    pub refused: u64,
    /// Accepted over the whole run.
    pub accepted: u64,
    /// Refused attempts over the whole run (closed loop: backpressure).
    pub refusals: u64,
    /// Lateness (submit − due) of the window's transactions, ascending.
    pub late_us: Vec<u64>,
    pub ticks: Vec<Tick>,
}

pub struct Generator {
    handle: JoinHandle<Report>,
    tid: u64,
}

impl Generator {
    /// `down` names the node that is down (−1: none); its share goes to
    /// the next node.
    pub fn start(plan: Plan, pools: Vec<Arc<Mempool>>, down: Arc<AtomicI32>) -> Generator {
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn(move || {
                tid_tx
                    .send(proc::own_tid())
                    .expect("starter waits for the id");
                run(plan, &pools, &down)
            })
            .expect("spawn generator");
        Generator {
            handle,
            tid: tid_rx.recv().expect("generator started"),
        }
    }

    /// The generator's thread id: its processor time is not the program's.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Waits for the schedule to end (at the window's end).
    pub fn join(self) -> Report {
        self.handle.join().expect("generator panicked")
    }
}

struct State {
    plan: Plan,
    report: Report,
    tick: Tick,
    slept_us: u64,
}

impl State {
    fn now_us(&self) -> u64 {
        self.plan.epoch.elapsed().as_micros() as u64
    }

    fn sleep(&mut self, us: u64) {
        let before = Instant::now();
        std::thread::sleep(Duration::from_micros(us));
        self.slept_us += before.elapsed().as_micros() as u64;
    }

    /// Closes ticks that ended before `now`.
    fn roll(&mut self, now: u64) {
        while now >= self.tick.start_us + 1_000_000 {
            let end = self.tick.start_us + 1_000_000;
            self.tick.end_us = end;
            self.tick.busy_us = 1_000_000u64.saturating_sub(self.slept_us);
            self.slept_us = 0;
            self.report.ticks.push(self.tick);
            self.tick = Tick {
                start_us: end,
                ..Tick::default()
            };
        }
    }

    fn in_window(&self, stamp_us: u64) -> bool {
        (self.plan.window_us.0..self.plan.window_us.1).contains(&stamp_us)
    }
}

fn target(k: u64, offset: u64, n: usize, down: &AtomicI32) -> usize {
    let node = ((k + offset) % n as u64) as usize;
    if down.load(Ordering::Relaxed) == node as i32 {
        (node + 1) % n
    } else {
        node
    }
}

fn run(plan: Plan, pools: &[Arc<Mempool>], down: &AtomicI32) -> Report {
    let client = (mix(plan.seed) >> 32) as u32;
    let offset = mix(plan.seed ^ 1) % pools.len() as u64;
    let mut st = State {
        plan,
        report: Report::default(),
        tick: Tick {
            start_us: plan.start_us,
            ..Tick::default()
        },
        slept_us: 0,
    };
    match plan.load {
        Load::Open { tps } => open_loop(&mut st, tps, client, offset, pools, down),
        Load::Closed => closed_loop(&mut st, client, offset, pools, down),
    }
    let end = st.now_us();
    st.roll(end);
    st.report.late_us.sort_unstable();
    st.report
}

fn open_loop(
    st: &mut State,
    tps: u64,
    client: u32,
    offset: u64,
    pools: &[Arc<Mempool>],
    down: &AtomicI32,
) {
    let start_us = st.plan.start_us;
    let due_of = |k: u64| start_us + k * 1_000_000 / tps;
    let mut k = 0u64;
    loop {
        let due = due_of(k);
        if due >= st.plan.window_us.1 {
            return;
        }
        let now = st.now_us();
        st.roll(now);
        if now < due {
            st.sleep((due - now).min(1_000));
            continue;
        }
        let late = now - due;
        let tx = make_tx(due, client, k, TX_BYTES);
        let outcome = pools[target(k, offset, pools.len(), down)].submit_from(client, tx);
        let counted = st.in_window(due);
        st.tick.submitted += 1;
        st.tick.late_max_us = st.tick.late_max_us.max(late);
        if counted {
            st.report.offered += 1;
            st.report.late_us.push(late);
        }
        match outcome {
            Ok(()) => st.report.accepted += 1,
            Err(_) => {
                st.report.refusals += 1;
                st.tick.refused += 1;
                if counted {
                    st.report.refused += 1;
                }
            }
        }
        k += 1;
    }
}

fn closed_loop(st: &mut State, client: u32, offset: u64, pools: &[Arc<Mempool>], down: &AtomicI32) {
    let mut k = 0u64;
    loop {
        let first_attempt = st.now_us();
        if first_attempt >= st.plan.window_us.1 {
            return;
        }
        st.roll(first_attempt);
        let tx: Arc<[u8]> = make_tx(first_attempt, client, k, TX_BYTES).into();
        let pool = &pools[target(k, offset, pools.len(), down)];
        loop {
            match pool.submit_from(client, tx.clone()) {
                Ok(()) => break,
                Err(SubmitError::Full | SubmitError::Overloaded) => {
                    st.report.refusals += 1;
                    st.tick.refused += 1;
                    // The transaction in hand when the schedule ends is
                    // abandoned: it was never accepted, so nothing is owed.
                    if st.now_us() >= st.plan.window_us.1 {
                        return;
                    }
                    st.sleep(RETRY_US);
                }
                Err(e) => panic!("generated transaction refused outright: {e}"),
            }
        }
        st.tick.submitted += 1;
        st.report.accepted += 1;
        if st.in_window(first_attempt) {
            st.report.offered += 1;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_victims_share_goes_to_the_next_node() {
        let down = AtomicI32::new(-1);
        assert_eq!(target(5, 2, 4, &down), 3);
        down.store(3, Ordering::Relaxed);
        assert_eq!(target(5, 2, 4, &down), 0);
        assert_eq!(target(6, 2, 4, &down), 0);
    }

    #[test]
    fn the_seed_fixes_the_inputs() {
        assert_eq!(mix(7), mix(7));
        assert_ne!(mix(7), mix(8));
    }
}
