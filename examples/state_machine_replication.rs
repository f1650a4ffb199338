//! State machine replication end to end: clients submit key-value commands,
//! leaders batch them and propose references to the batches, and every
//! replica applies its committed log to a local store — finishing with
//! identical states.
//!
//! This demonstrates the SMR contract of Definition 1: the committed logs
//! form a single linearizable history, so deterministic replay yields the
//! same state everywhere.
//!
//! ```sh
//! cargo run --release --example state_machine_replication
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use moonshot::consensus::{ConsensusProtocol, Message, NodeConfig, PayloadSource, PipelinedMoonshot};
use moonshot::crypto::{Digest, Keyring};
use moonshot::net::{Actor, NetworkConfig, NicModel, Simulation, UniformLatency};
use moonshot::sim::{MetricsSink, ProtocolActor};
use moonshot::types::time::{SimDuration, SimTime};
use moonshot::types::{BatchRef, NodeId, Payload, View};
use std::sync::Mutex;

/// Command batches by content digest — what the dissemination plane's batch
/// store is to a real node. Blocks carry only references; here every replica
/// reads the one map, as if every batch push had arrived.
type BatchStore = Arc<Mutex<HashMap<Digest, Vec<u8>>>>;

/// A tiny deterministic key-value command language: `SET k v`.
fn command_batch(view: View, store: &BatchStore) -> Payload {
    // Each view's leader drains the (simulated) client queue: two commands
    // per block, derived from the view number so every run is reproducible.
    let commands =
        format!("SET key{} {}\nSET counter {}", view.0 % 10, view.0, view.0).into_bytes();
    let batch = BatchRef { digest: Digest::hash(&commands), bytes: commands.len() as u64 };
    store.lock().unwrap().insert(batch.digest, commands);
    Payload::batches(vec![batch])
}

/// Applies a committed payload to a replica's key-value store.
fn apply(store: &mut BTreeMap<String, String>, payload: &[u8]) {
    for line in String::from_utf8_lossy(payload).lines() {
        let mut parts = line.split_whitespace();
        if let (Some("SET"), Some(k), Some(v)) = (parts.next(), parts.next(), parts.next()) {
            store.insert(k.to_string(), v.to_string());
        }
    }
}

fn main() {
    let n = 4;
    let metrics = Arc::new(Mutex::new(MetricsSink::new()));
    let store: BatchStore = Arc::default();
    // Shared commit logs per replica (ordered).
    let logs: Arc<Mutex<Vec<Vec<Vec<u8>>>>> = Arc::new(Mutex::new(vec![Vec::new(); n]));

    struct Replica {
        inner: ProtocolActor,
    }
    impl Actor<Message> for Replica {
        fn on_start(&mut self, ctx: &mut moonshot::net::Context<Message>) {
            self.inner.on_start(ctx)
        }
        fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut moonshot::net::Context<Message>) {
            self.inner.on_message(from, msg, ctx)
        }
        fn on_timer(&mut self, t: moonshot::net::TimerId, ctx: &mut moonshot::net::Context<Message>) {
            self.inner.on_timer(t, ctx)
        }
    }

    // Wrap the protocol to capture committed payloads per node.
    let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
        .map(|i| {
            let node = NodeId::from_index(i);
            let logs = logs.clone();
            let committed = store.clone();
            let commit_hook = move |batch: Digest| {
                let commands = committed.lock().unwrap()[&batch].clone();
                logs.lock().unwrap()[node.as_usize()].push(commands);
            };
            let proposed = store.clone();
            let cfg = NodeConfig {
                node_id: node,
                keypair: moonshot::crypto::KeyPair::from_seed(i as u64),
                keyring: Keyring::simulated(n),
                delta: SimDuration::from_millis(100),
                election: Box::new(moonshot::consensus::RoundRobin::new(n)),
                payloads: PayloadSource::Custom(Box::new(move |view| {
                    command_batch(view, &proposed)
                })),
                verify_signatures: true,
                fetch_retry: moonshot::consensus::RetryPolicy::auto(),
                verified_cache: std::sync::Arc::new(
                    moonshot::crypto::VerifiedCache::default(),
                ),
                skip_inline_checks: false,
                persist: None,
                recover: None,
                local_blocks: None,
            };
            // Adapter: intercept commits through a wrapper protocol.
            struct Hooked<F: FnMut(Digest)> {
                inner: PipelinedMoonshot,
                hook: F,
            }
            impl<F: FnMut(Digest)> ConsensusProtocol for Hooked<F> {
                fn start(&mut self, now: SimTime) -> Vec<moonshot::consensus::Output> {
                    self.inner.start(now)
                }
                fn handle_message(
                    &mut self,
                    from: NodeId,
                    message: Message,
                    now: SimTime,
                ) -> Vec<moonshot::consensus::Output> {
                    let outs = self.inner.handle_message(from, message, now);
                    for o in &outs {
                        if let moonshot::consensus::Output::Commit(c) = o {
                            for batch in c.block.payload().batch_refs().unwrap_or(&[]) {
                                (self.hook)(batch.digest);
                            }
                        }
                    }
                    outs
                }
                fn handle_timer(
                    &mut self,
                    token: moonshot::consensus::TimerToken,
                    now: SimTime,
                ) -> Vec<moonshot::consensus::Output> {
                    self.inner.handle_timer(token, now)
                }
                fn current_view(&self) -> View {
                    self.inner.current_view()
                }
                fn name(&self) -> &'static str {
                    "pipelined-moonshot+kv"
                }
            }
            let protocol = Hooked { inner: PipelinedMoonshot::new(cfg), hook: commit_hook };
            Box::new(Replica { inner: ProtocolActor::new(node, Box::new(protocol), metrics.clone()) })
                as Box<dyn Actor<Message>>
        })
        .collect();

    let config = NetworkConfig::new(
        Box::new(UniformLatency::new(SimDuration::from_millis(15), SimDuration::from_millis(3))),
        NicModel::new(n, 1.0, SimDuration::from_micros(20)),
    );
    let mut sim = Simulation::new(actors, config);
    sim.run_until(SimTime(5_000_000));

    // Replay every replica's committed log into a fresh store.
    let logs = logs.lock().unwrap();
    let mut states = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let mut store = BTreeMap::new();
        for payload in log {
            apply(&mut store, payload);
        }
        println!("replica {i}: applied {} blocks, {} keys", log.len(), store.len());
        states.push(store);
    }
    let min_len = logs.iter().map(Vec::len).min().unwrap();
    assert!(min_len > 10, "expected steady commits");
    // Replay only the common prefix for the equality check.
    let mut prefix_states = Vec::new();
    for log in logs.iter() {
        let mut store = BTreeMap::new();
        for payload in &log[..min_len] {
            apply(&mut store, payload);
        }
        prefix_states.push(store);
    }
    assert!(
        prefix_states.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged!"
    );
    println!("\nAll {n} replicas reached identical state over the common prefix of {min_len} blocks:");
    for (k, v) in prefix_states[0].iter().take(5) {
        println!("  {k} = {v}");
    }
    println!("  …");
}
