//! The layer suite: timed calls into each layer's public functions, on
//! fixed inputs made from the seed. Every case is repeated and reported
//! as median and MAD with its repeat count and input size.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::loadgen::mix;
use crate::metrics::LAYER_SUITE;
use crate::run::DataDir;
use crate::stats::{mad, median};
use crate::surface::layer::*;
use crate::surface::{
    make_tx, Cluster, ClusterSpec, LoadSpec, Mempool, NodeId, ProtocolChoice, SimDuration, SimTime,
};
use crate::workload::{BATCH_BYTES, TX_BYTES};

/// How much time the suite may spend.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub repeats: usize,
    /// Least time one repeat of a micro case measures.
    pub repeat: Duration,
    /// Length of one repeat of `netpool.ingest_tps`.
    pub ingest: Duration,
    /// Simulated µs of one repeat of the `consensus.*_step` cases.
    pub consensus_sim_us: u64,
    /// Simulated seconds of one repeat of `sim.events_per_s`.
    pub sim_seconds: u64,
}

impl Budget {
    /// The `layers` command: at least 5 repeats of at least 200 ms.
    pub const FULL: Budget = Budget {
        repeats: 5,
        repeat: Duration::from_millis(200),
        ingest: Duration::from_secs(1),
        consensus_sim_us: 300,
        sim_seconds: 10,
    };
    /// Inside a driver `--trace 1` run, where the suite shares the run's
    /// time limit with a traced workload: same cases, less time each.
    pub const QUICK: Budget = Budget {
        repeats: 5,
        repeat: Duration::from_millis(20),
        ingest: Duration::from_millis(300),
        consensus_sim_us: 60,
        sim_seconds: 1,
    };
}

#[derive(Clone, Debug)]
pub struct LayerResult {
    pub name: &'static str,
    pub unit: &'static str,
    pub median: f64,
    pub mad: f64,
    pub repeats: usize,
    pub input: String,
}

impl LayerResult {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("value", self.median)
            .set("unit", self.unit)
            .set("mad", self.mad)
            .set("repeats", self.repeats)
            .set("input", self.input.as_str())
    }
}

struct Suite {
    budget: Budget,
    results: Vec<LayerResult>,
}

impl Suite {
    /// Records `samples` (one per repeat) under `name`.
    fn record(&mut self, name: &'static str, input: &str, samples: &[f64]) {
        let unit = LAYER_SUITE
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a layer-suite metric"))
            .unit;
        self.results.push(LayerResult {
            name,
            unit,
            median: median(samples).expect("at least one repeat"),
            mad: mad(samples).expect("at least one repeat"),
            repeats: samples.len(),
            input: input.to_string(),
        });
    }

    /// Seconds per call of `f`, one sample per repeat: calls are batched
    /// so that the clock is read about once a millisecond.
    fn per_call_s<R>(&self, mut f: impl FnMut() -> R) -> Vec<f64> {
        let probe = Instant::now();
        black_box(f());
        let once = probe.elapsed().as_secs_f64().max(1e-9);
        let batch = ((1e-3 / once) as u64).clamp(1, 100_000);
        (0..self.budget.repeats)
            .map(|_| {
                let started = Instant::now();
                let mut calls = 0u64;
                while started.elapsed() < self.budget.repeat {
                    for _ in 0..batch {
                        black_box(f());
                    }
                    calls += batch;
                }
                started.elapsed().as_secs_f64() / calls as f64
            })
            .collect()
    }

    /// A micro case reported as time per call × `scale` (unit and work
    /// per call folded together).
    fn time<R>(&mut self, name: &'static str, input: &str, scale: f64, f: impl FnMut() -> R) {
        let samples: Vec<f64> = self.per_call_s(f).iter().map(|s| s * scale).collect();
        self.record(name, input, &samples);
    }

    /// A micro case reported as MB/s over `bytes` per call.
    fn rate<R>(&mut self, name: &'static str, input: &str, bytes: usize, f: impl FnMut() -> R) {
        let samples: Vec<f64> = self
            .per_call_s(f)
            .iter()
            .map(|s| bytes as f64 / s / 1e6)
            .collect();
        self.record(name, input, &samples);
    }

    /// A case that consumes prepared state: `prepare` runs untimed before
    /// every repeat, `f` is timed once over it and returns how many units
    /// of work it did.
    fn time_prepared<S>(
        &mut self,
        name: &'static str,
        input: &str,
        scale: f64,
        mut prepare: impl FnMut() -> S,
        mut f: impl FnMut(S) -> u64,
    ) {
        let samples: Vec<f64> = (0..self.budget.repeats)
            .map(|_| {
                let state = prepare();
                let started = Instant::now();
                let units = f(state).max(1);
                started.elapsed().as_secs_f64() / units as f64 * scale
            })
            .collect();
        self.record(name, input, &samples);
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;

/// Pseudo-random bytes from the seed.
fn bytes_from(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut state = seed;
    while out.len() < len {
        state = mix(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

fn signed_vote(block: &Block, voter: u16) -> SignedVote {
    SignedVote::sign(
        Vote {
            kind: VoteKind::Normal,
            block_id: block.id(),
            block_height: block.height(),
            view: block.view(),
        },
        NodeId(voter),
        &KeyPair::from_seed(voter as u64),
    )
}

/// A block carrying 16 batch refs, as a digest-mode leader proposes.
fn block_with_refs(seed: u64) -> Block {
    let refs: Vec<BatchRef> = (0..16u64)
        .map(|i| BatchRef {
            digest: Digest::hash(&mix(seed ^ i).to_le_bytes()),
            bytes: BATCH_BYTES as u64,
        })
        .collect();
    Block::build(
        View(1),
        NodeId(0),
        &Block::genesis(),
        Payload::batches(refs),
    )
}

fn quorum_certificate(block: &Block, ring: &Keyring) -> QuorumCertificate {
    let votes: Vec<SignedVote> = (0..ring.quorum_threshold() as u16)
        .map(|i| signed_vote(block, i))
        .collect();
    QuorumCertificate::from_votes(&votes, ring).expect("a quorum of valid votes")
}

fn crypto(s: &mut Suite, seed: u64) {
    let ring = Keyring::simulated(16);
    let key = KeyPair::from_seed(0);
    let msg = bytes_from(seed, 100);
    let sig = key.sign(&msg);
    s.time("crypto.sign_ns", "100 B message", NS, || key.sign(&msg));
    s.time("crypto.verify_ns", "100 B message", NS, || {
        assert!(ring.verify(0, &msg, &sig))
    });

    let sigs: Vec<Signature> = (0..16).map(|i| KeyPair::from_seed(i).sign(&msg)).collect();
    let items: Vec<(u16, &[u8], &Signature)> = sigs
        .iter()
        .enumerate()
        .map(|(i, sig)| (i as u16, &msg[..], sig))
        .collect();
    s.time(
        "crypto.batch_verify_ns_per_sig",
        "16 signatures",
        NS / 16.0,
        || batch_verify(&ring, &items).expect("valid batch"),
    );

    let block = block_with_refs(seed);
    let qc = quorum_certificate(&block, &ring);
    s.time("crypto.qc_verify_us", "n = 16, 11 signatures", US, || {
        qc.verify(&ring).expect("valid")
    });

    let cache = VerifiedCache::new(16 * 1024);
    let cache_key = qc.cache_key();
    cache.insert(cache_key, 1);
    s.time("crypto.cache_hit_ns", "16 Ki-entry cache", NS, || {
        assert!(cache.contains(&cache_key))
    });

    let batch = bytes_from(seed, BATCH_BYTES);
    s.rate("crypto.sha256_mbps", "18 kB", BATCH_BYTES, || {
        Digest::hash(&batch)
    });
}

fn mempool_and_dissem(s: &mut Suite, seed: u64) {
    let client = (mix(seed) >> 32) as u32;
    let txs: Vec<Arc<[u8]>> = (0..20_000u64)
        .map(|i| make_tx(i, client, i, TX_BYTES).into())
        .collect();
    // Static budgets only: delay-bounded admission needs commit feedback
    // a bare pool never gets.
    let config = MempoolConfig {
        delay_target_multiple: 0,
        ..MempoolConfig::default()
    };
    let filled = || {
        let pool = Mempool::new(config);
        for tx in &txs {
            pool.submit_from(client, tx.clone())
                .expect("within budgets");
        }
        pool
    };

    s.time_prepared(
        "mempool.submit_ns",
        "20 000 x 180 B into an empty pool",
        NS,
        || Mempool::new(config),
        |pool| {
            for tx in &txs {
                pool.submit_from(client, tx.clone())
                    .expect("within budgets");
            }
            txs.len() as u64
        },
    );
    s.time_prepared(
        "mempool.drain_ns_per_tx",
        "18 kB batches from 20 000 pending",
        NS,
        filled,
        |pool| {
            let mut drained = 0;
            loop {
                let batch = pool.drain_for_batch(BATCH_BYTES);
                if batch.is_empty() {
                    return drained;
                }
                drained += black_box(batch).len() as u64;
            }
        },
    );

    let per_batch = BATCH_BYTES / (TX_BYTES + 4);
    let batch: Vec<Tx> = txs[..per_batch]
        .iter()
        .map(|b| Tx::from_client(client, b.clone()))
        .collect();
    s.time(
        "mempool.encode_batch_ns_per_tx",
        &format!("{per_batch} x 180 B"),
        NS / per_batch as f64,
        || encode_batch(&batch),
    );

    let encoded: Arc<[u8]> = encode_batch(&batch).into();
    s.rate(
        "dissem.batch_digest_mbps",
        "18 kB batch",
        encoded.len(),
        || batch_digest(&encoded),
    );

    let digests: Vec<Digest> = (0..20_000u64)
        .map(|i| Digest::hash(&mix(seed ^ i).to_le_bytes()))
        .collect();
    s.time_prepared(
        "dissem.store_insert_ns",
        "20 000 x 18 kB batch into an empty store",
        NS,
        || BatchStore::new(1 << 30, Arc::new(DissemCounters::default())),
        |store| {
            for d in &digests {
                store.insert(*d, encoded.clone());
            }
            digests.len() as u64
        },
    );
}

fn wire(s: &mut Suite, seed: u64) {
    let ring = Keyring::simulated(16);
    let block = block_with_refs(seed);
    let vote = Frame::Consensus(Message::Vote(signed_vote(&block, 3)));
    let vote_bytes = encode_frame(&vote);
    s.time(
        "wire.vote_encode_ns",
        &format!("{} B frame", vote_bytes.len()),
        NS,
        || encode_frame(&vote),
    );
    s.time(
        "wire.vote_decode_ns",
        &format!("{} B frame", vote_bytes.len()),
        NS,
        || decode_frame(&vote_bytes).expect("valid frame"),
    );

    let justify = quorum_certificate(&Block::genesis(), &ring);
    let proposal = Frame::Consensus(Message::Propose {
        block,
        justify,
        view: View(1),
    });
    let proposal_bytes = encode_frame(&proposal);
    let input = format!("16 refs, {} B frame", proposal_bytes.len());
    s.time("wire.proposal_encode_ns", &input, NS, || {
        encode_frame(&proposal)
    });
    s.time("wire.proposal_decode_ns", &input, NS, || {
        decode_frame(&proposal_bytes).expect("valid")
    });

    let batch: Arc<[u8]> = bytes_from(seed, BATCH_BYTES).into();
    s.rate("wire.crc32_mbps", "18 kB", BATCH_BYTES, || crc32(&batch));

    let push = Frame::BatchPush {
        digest: Digest::hash(&batch),
        bytes: batch.clone(),
    };
    let mut reader = FrameReader::new();
    s.rate(
        "wire.batch_push_roundtrip_mbps",
        "18 kB batch, encode_frame -> FrameReader",
        BATCH_BYTES,
        || {
            reader.extend(&encode_frame(&push));
            reader
                .next_frame()
                .expect("valid frame")
                .expect("a whole frame")
        },
    );
}

fn reactor(s: &mut Suite, seed: u64) {
    let mut poller = Poller::new().expect("poller");
    let mut events = Vec::new();
    s.time(
        "reactor.wake_roundtrip_us",
        "wake() -> wait() returns",
        US,
        || {
            poller.wake().expect("wake");
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .expect("wait");
        },
    );

    // One vote frame there and back over loopback TCP; the far end learns
    // of it through the poller.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut near = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let (mut far, _) = listener.accept().expect("accept");
    near.set_nodelay(true).unwrap();
    far.set_nodelay(true).unwrap();
    poller
        .register(far.as_raw_fd(), 1, Interest::READABLE)
        .expect("register");
    let frame = encode_frame(&Frame::Consensus(Message::Vote(signed_vote(
        &block_with_refs(seed),
        1,
    ))));
    let mut buf = vec![0u8; frame.len()];
    s.time(
        "reactor.echo_roundtrip_us",
        &format!("{} B frame over loopback TCP", frame.len()),
        US,
        || {
            near.write_all(&frame).expect("write");
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .expect("wait");
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
            far.read_exact(&mut buf).expect("read");
            far.write_all(&buf).expect("echo");
            near.read_exact(&mut buf).expect("read echo");
        },
    );
    poller.deregister(far.as_raw_fd()).expect("deregister");
}

/// One TCP `SubmitTx` connection into a running n = 4 cluster.
fn ingest(s: &mut Suite, seed: u64) {
    let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
    spec.delta = SimDuration::from_millis(200);
    spec.load = Some(LoadSpec::digest(BATCH_BYTES).without_clients());
    let cluster = Cluster::launch(spec).expect("launch");
    while cluster.quorum_committed_height() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let pool = cluster.mempools()[0].clone();
    let mut conn = TcpStream::connect(cluster.peers()[0].1).expect("connect to node 0");
    conn.set_nodelay(true).unwrap();
    let client = (mix(seed) >> 32) as u32;
    let mut seq = 0u64;
    let samples: Vec<f64> = (0..s.budget.repeats)
        .map(|_| {
            let before = pool.counters().accepted;
            let started = Instant::now();
            while started.elapsed() < s.budget.ingest {
                let stamp = cluster.epoch().elapsed().as_micros() as u64;
                let tx = make_tx(stamp, client, seq, TX_BYTES);
                conn.write_all(&encode_frame(&Frame::SubmitTx { client, tx }))
                    .expect("submit");
                seq += 1;
            }
            (pool.counters().accepted - before) as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    drop(conn);
    cluster.stop();
    s.record(
        "netpool.ingest_tps",
        &format!(
            "{} s each, 180 B transactions, one connection",
            s.budget.ingest.as_secs_f64()
        ),
        &samples,
    );
}

fn timer(s: &mut Suite) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new(SimDuration::from_millis(1), 1024);
    let mut now = 0u64;
    s.time(
        "node.timer_arm_expire_ns",
        "1 ms x 1024-slot wheel, one timer 300 ms ahead",
        NS,
        || {
            wheel.arm(SimTime(now + 300_000), now);
            now += 300_000;
            wheel.expire(SimTime(now))
        },
    );
}

/// Processor time per committed block of a protocol's state machines
/// alone: n = 16 over `LocalNet`, 1 µs links (its clock must advance).
fn consensus(s: &mut Suite) {
    let delta = SimDuration::from_millis(1);
    let n = 16;
    let sim_us = s.budget.consensus_sim_us;
    let mut case = |name: &'static str, build: fn(NodeConfig) -> Box<dyn ConsensusProtocol>| {
        s.time_prepared(
            name,
            &format!("n = 16, LocalNet, {sim_us} us simulated"),
            US,
            || {
                let nodes = (0..n)
                    .map(|i| build(NodeConfig::simulated(NodeId(i), n as usize, delta)))
                    .collect();
                LocalNet::with_uniform_latency(nodes, SimDuration(1))
            },
            |mut net| {
                net.run_for(SimDuration(sim_us));
                net.committed(NodeId(0)).len() as u64
            },
        );
    };
    case("consensus.pm_step_us_per_block", |cfg| {
        Box::new(PipelinedMoonshot::new(cfg))
    });
    case("consensus.jolteon_step_us_per_block", |cfg| {
        Box::new(Jolteon::new(cfg))
    });
}

/// A scratch directory on the same filesystem as `lan-saturate`'s
/// `data_dir`.
fn scratch_dir(tag: &str) -> DataDir {
    DataDir::fresh(tag).expect("scratch directory under benchmark/out")
}

fn chain_of(blocks: u64, seed: u64) -> Vec<Block> {
    let mut chain = Vec::with_capacity(blocks as usize);
    let mut parent = Block::genesis();
    for v in 1..=blocks {
        let refs = vec![BatchRef {
            digest: Digest::hash(&mix(seed ^ v).to_le_bytes()),
            bytes: BATCH_BYTES as u64,
        }];
        let block = Block::build(
            View(v),
            NodeId((v % 4) as u16),
            &parent,
            Payload::batches(refs),
        );
        chain.push(block.clone());
        parent = block;
    }
    chain
}

fn ledger(s: &mut Suite, seed: u64) {
    let ring = Keyring::simulated(4);
    let block = Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty());
    let qc = quorum_certificate(&block, &ring);

    let scratch = scratch_dir("wal");
    let (mut wal, _) = Wal::open(&scratch.0.join("wal.log"), 0).expect("open wal");
    let mut view = 0u64;
    s.time(
        "ledger.wal_append_us",
        "vote record, n = 4 lock, with its fdatasync",
        US,
        || {
            view += 1;
            wal.append(&WalRecord::Vote {
                view: View(view),
                lock: qc.clone(),
            })
            .expect("append")
        },
    );

    let chain = chain_of(1_000, seed);
    s.time_prepared(
        "ledger.blockstore_append_us",
        "1 000 blocks of one ref into a fresh store",
        US,
        || {
            let dir = scratch_dir("store");
            let (store, _) = BlockStore::open(&dir.0.join("segments"), 512).expect("open store");
            (dir, store)
        },
        |(_dir, mut store)| {
            for b in &chain {
                store.append(b).expect("append");
            }
            chain.len() as u64
        },
    );

    let snapshot = Snapshot {
        voted_view: View(7),
        timeout_view: View(3),
        lock: Some(qc),
        committed_height: 5,
        wal_len: 4_096,
    };
    let path = scratch.0.join("snapshot.snap");
    s.time(
        "ledger.snapshot_write_us",
        "n = 4 lock, temp + fdatasync + rename",
        US,
        || snapshot.write(&path).expect("write"),
    );

    let dir = scratch_dir("recover");
    {
        let (ledger, _) = Ledger::open(&dir.0, LedgerOptions::default()).expect("open");
        for b in &chain {
            ledger.append_committed(b).expect("append");
        }
    }
    s.time(
        "ledger.recover_ms",
        "Ledger::open on a 1 000-block directory",
        1e3,
        || {
            let (_, recovered) = Ledger::open(&dir.0, LedgerOptions::default()).expect("reopen");
            assert_eq!(recovered.committed.len(), chain.len());
        },
    );
}

fn sim(s: &mut Suite, seed: u64) {
    let config = RunConfig::happy_path(ProtocolKind::PipelinedMoonshot, 50, 0)
        .with_seed(seed)
        .with_duration(SimDuration::from_secs(s.budget.sim_seconds));
    let samples: Vec<f64> = (0..s.budget.repeats)
        .map(|_| {
            let started = Instant::now();
            let report = sim_run(&config);
            let events = report.network.delivered + report.network.timers_fired;
            events as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    s.record(
        "sim.events_per_s",
        &format!("PM, n = 50, {} simulated s", s.budget.sim_seconds),
        &samples,
    );
}

/// Runs every case, in the order of `LAYER_SUITE`.
pub fn run(seed: u64, budget: Budget) -> Vec<LayerResult> {
    let mut s = Suite {
        budget,
        results: Vec::new(),
    };
    crypto(&mut s, seed);
    mempool_and_dissem(&mut s, seed);
    wire(&mut s, seed);
    reactor(&mut s, seed);
    ingest(&mut s, seed);
    timer(&mut s);
    consensus(&mut s);
    ledger(&mut s, seed);
    sim(&mut s, seed);
    let names: Vec<&str> = s.results.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        LAYER_SUITE.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    s.results
}
