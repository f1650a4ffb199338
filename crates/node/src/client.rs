//! Transaction load generator.
//!
//! Closes the paper's evaluation loop with real client traffic: a
//! [`TxClient`] thread generates fixed-size transactions (timestamped with
//! microseconds since the cluster epoch, so submit→commit latency falls out
//! of the committed batches) and submits each one to exactly **one**
//! validator, round-robin. One owner per transaction keeps throughput
//! accounting honest — submitting everywhere would commit every payload `n`
//! times and inflate goodput by `n`.
//!
//! Two submission paths share the loop:
//!
//! * **in-process** — straight into each node's [`Mempool`] handle. Used by
//!   in-process clusters ([`LoadSpec::clients`](crate::LoadSpec::clients)),
//!   where client networking would only measure loopback TCP twice.
//! * **TCP** — a [`Frame::SubmitTx`] frame per transaction over a
//!   persistent connection per target, the way an external client reaches
//!   `moonshot-node`. Submission connections never send a hello (clients
//!   are not validators); the pool's ingest stage feeds the mempool.
//!
//! Backpressure is cooperative: a [`SubmitError::Full`] (or a dead TCP
//! connection) makes the client back off briefly instead of spinning.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moonshot_mempool::{make_tx, Mempool, SubmitError};
use moonshot_wire::{encode_frame, Frame};

/// Where a [`TxClient`] submits transactions.
pub enum ClientTarget {
    /// Directly into mempool handles (same-process cluster).
    InProcess(Vec<Arc<Mempool>>),
    /// Over TCP, one `SubmitTx` frame per transaction.
    Tcp(Vec<SocketAddr>),
}

impl std::fmt::Debug for ClientTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientTarget::InProcess(pools) => write!(f, "ClientTarget::InProcess(n={})", pools.len()),
            ClientTarget::Tcp(addrs) => write!(f, "ClientTarget::Tcp({addrs:?})"),
        }
    }
}

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct TxClientConfig {
    /// Client id embedded in every transaction (distinguishes generators).
    pub client_id: u32,
    /// Bytes per transaction (min 20: 8 timestamp + 4 client + 8 sequence).
    pub tx_bytes: usize,
    /// Target submission rate; `0` means as fast as admission allows.
    pub txs_per_sec: u64,
}

impl Default for TxClientConfig {
    fn default() -> Self {
        TxClientConfig { client_id: 0, tx_bytes: 180, txs_per_sec: 0 }
    }
}

/// Counters a stopped client hands back. Every attempt is either accepted
/// or rejected, so `accepted + rejected == submitted`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Submission attempts (accepted + rejected).
    pub submitted: u64,
    /// Transactions accepted (in-process) or written to a socket (TCP —
    /// the client cannot see the remote admission verdict; the receiving
    /// pool's own counters are the ground truth there).
    pub accepted: u64,
    /// Submissions refused: mempool backpressure/duplicate, or a failed
    /// TCP write.
    pub rejected: u64,
}

/// How long the client sleeps when every target is backpressured or down.
const BACKOFF: Duration = Duration::from_micros(500);

/// A running load-generator thread. Stop with [`TxClient::stop`].
#[derive(Debug)]
pub struct TxClient {
    shutdown: Arc<AtomicBool>,
    submitted: Arc<AtomicU64>,
    handle: Option<JoinHandle<ClientStats>>,
}

impl TxClient {
    /// Spawns the generator. `epoch` is the cluster time origin:
    /// transaction timestamps are microseconds since it, directly
    /// comparable to trace-record times.
    pub fn start(cfg: TxClientConfig, target: ClientTarget, epoch: Instant) -> TxClient {
        let shutdown = Arc::new(AtomicBool::new(false));
        let submitted = Arc::new(AtomicU64::new(0));
        let handle = {
            let shutdown = shutdown.clone();
            let submitted = submitted.clone();
            std::thread::Builder::new()
                .name(format!("tx-client-{}", cfg.client_id))
                .spawn(move || run_client(cfg, target, epoch, shutdown, submitted))
                .expect("spawn tx client")
        };
        TxClient { shutdown, submitted, handle: Some(handle) }
    }

    /// Transactions submitted so far (updated live).
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Stops the generator and returns its final counters.
    pub fn stop(mut self) -> ClientStats {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.take().expect("client still attached").join().expect("client panicked")
    }
}

impl Drop for TxClient {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run_client(
    cfg: TxClientConfig,
    target: ClientTarget,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    submitted_live: Arc<AtomicU64>,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut seq: u64 = 0;
    // TCP mode keeps one lazily-(re)dialed connection per target.
    let mut conns: Vec<Option<TcpStream>> = match &target {
        ClientTarget::Tcp(addrs) => (0..addrs.len()).map(|_| None).collect(),
        ClientTarget::InProcess(_) => Vec::new(),
    };
    let pace = 1_000_000_000u64.checked_div(cfg.txs_per_sec).map(Duration::from_nanos);
    let mut next_send = Instant::now();

    while !shutdown.load(Ordering::SeqCst) {
        if let Some(interval) = pace {
            let now = Instant::now();
            if now < next_send {
                std::thread::sleep((next_send - now).min(Duration::from_millis(10)));
                continue;
            }
            next_send += interval;
            // After a long stall, don't burst to catch up.
            if next_send + interval < Instant::now() {
                next_send = Instant::now();
            }
        }

        let ts = epoch.elapsed().as_micros() as u64;
        let tx = make_tx(ts, cfg.client_id, seq, cfg.tx_bytes);
        // Every attempt counts as submitted; exactly one of accepted or
        // rejected follows, so the client-side identity
        // `accepted + rejected == submitted` mirrors the pool's.
        stats.submitted += 1;
        let ok = match &target {
            ClientTarget::InProcess(pools) => {
                let pool = &pools[(seq as usize) % pools.len()];
                match pool.submit_from(cfg.client_id, tx) {
                    Ok(()) => true,
                    Err(SubmitError::Full | SubmitError::Overloaded) => {
                        stats.rejected += 1;
                        std::thread::sleep(BACKOFF);
                        false
                    }
                    Err(_) => {
                        stats.rejected += 1;
                        false
                    }
                }
            }
            ClientTarget::Tcp(addrs) => {
                let i = (seq as usize) % addrs.len();
                if conns[i].is_none() {
                    conns[i] = TcpStream::connect(addrs[i]).ok().inspect(|s| {
                        let _ = s.set_nodelay(true);
                    });
                }
                let frame = encode_frame(&Frame::SubmitTx { client: cfg.client_id, tx });
                let wrote = match conns[i].as_mut() {
                    Some(s) => s.write_all(&frame).is_ok(),
                    None => false,
                };
                if !wrote {
                    conns[i] = None; // redial next time this target comes up
                    stats.rejected += 1;
                    std::thread::sleep(BACKOFF);
                }
                wrote
            }
        };
        if ok {
            stats.accepted += 1;
        }
        submitted_live.store(stats.submitted, Ordering::Relaxed);
        seq += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_mempool::MempoolConfig;

    #[test]
    fn in_process_client_round_robins_across_pools() {
        let pools: Vec<Arc<Mempool>> =
            (0..3).map(|_| Arc::new(Mempool::new(MempoolConfig::default()))).collect();
        let client = TxClient::start(
            TxClientConfig { client_id: 7, tx_bytes: 64, txs_per_sec: 0 },
            ClientTarget::InProcess(pools.clone()),
            Instant::now(),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.submitted() < 300 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = client.stop();
        assert!(stats.submitted >= 300, "only {} submitted", stats.submitted);
        assert_eq!(stats.accepted + stats.rejected, stats.submitted);
        // Round-robin: every pool got its share, and nothing was counted
        // twice (each tx went to exactly one pool).
        let counts: Vec<u64> = pools.iter().map(|p| p.counters().accepted).collect();
        assert!(counts.iter().all(|&c| c > 0), "unbalanced: {counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), stats.accepted);
        // The pools saw the same attempt count the client made (identity on
        // both sides of the interface).
        let pool_submitted: u64 = pools.iter().map(|p| p.counters().submitted).sum();
        assert_eq!(pool_submitted, stats.submitted);
        // Fairness accounting keys on the wire client id, not the embedded
        // bytes: the drained txs carry the submitting client's id.
        let drained = pools[0].drain_for_batch(1 << 20);
        assert!(drained.iter().all(|t| t.client == 7));
    }

    #[test]
    fn rate_limited_client_stays_near_target() {
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        let client = TxClient::start(
            TxClientConfig { client_id: 0, tx_bytes: 64, txs_per_sec: 200 },
            ClientTarget::InProcess(vec![pool]),
            Instant::now(),
        );
        std::thread::sleep(Duration::from_millis(500));
        let stats = client.stop();
        // ~100 expected at 200/s over 0.5 s; allow generous slack for CI.
        assert!(stats.submitted >= 30, "too slow: {}", stats.submitted);
        assert!(stats.submitted <= 160, "rate limiter overshot: {}", stats.submitted);
    }
}
