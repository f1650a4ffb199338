//! The shipped binary is the benchmarked system: four `moonshot-node run
//! --load` processes on loopback, transactions submitted over TCP to one of
//! them, must commit one chain through the same dissemination plane and
//! verifying shard loops an in-process `Cluster` node runs on — the loaded node
//! pushes its batches, the others store them without having sealed any, and
//! every leader proposes them.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use moonshot_node::{ClientTarget, ClusterConfig, TxClient, TxClientConfig};
use moonshot_types::NodeId;

/// The unsigned integer after `"<key>":` in a flat JSON line.
fn number(json: &str, key: &str) -> Option<u64> {
    let key = format!("\"{key}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().ok()
}

/// The string after `"<key>":"` in a flat JSON line.
fn string<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\":\"");
    let rest = &json[json.find(&key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

#[test]
fn four_node_processes_commit_submitted_transactions_through_the_dissemination_plane() {
    let dir = std::env::temp_dir().join(format!("moonshot-node-binary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Four free loopback ports: bound, noted, released for the nodes.
    let addrs: Vec<SocketAddr> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect::<Vec<_>>()
        .iter()
        .map(|l| l.local_addr().unwrap())
        .collect();
    let peers =
        ClusterConfig { nodes: (0..4).map(|i| (NodeId(i as u16), addrs[i])).collect() };
    let config = dir.join("cluster.conf");
    std::fs::write(&config, peers.to_text()).unwrap();

    let nodes: Vec<_> = (0..4)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_moonshot-node"))
                .args(["run", "--protocol", "pm", "--load", "18000", "--duration-secs", "4"])
                .arg("--config")
                .arg(&config)
                .args(["--id", &i.to_string()])
                .arg("--trace")
                .arg(dir.join(format!("node-{i}.jsonl")))
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn moonshot-node")
        })
        .collect();

    // Every transaction goes to node 0, once it listens.
    let up = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(addrs[0]).is_err() {
        assert!(Instant::now() < up, "node 0 never listened on {}", addrs[0]);
        std::thread::sleep(Duration::from_millis(20));
    }
    let client = TxClient::start(
        TxClientConfig { client_id: 1, tx_bytes: 180, txs_per_sec: 200 },
        ClientTarget::Tcp(vec![addrs[0]]),
        Instant::now(),
    );
    std::thread::sleep(Duration::from_secs(2));
    let sent = client.stop().accepted;
    assert!(sent >= 100, "only {sent} transactions written to node 0");

    let summaries: Vec<String> = nodes
        .into_iter()
        .map(|node| {
            let out = node.wait_with_output().expect("wait for moonshot-node");
            assert!(out.status.success(), "moonshot-node exited with {}", out.status);
            String::from_utf8(out.stdout).expect("summary is UTF-8")
        })
        .collect();

    // One chain: wherever two nodes committed the same height, it is the
    // same block (ids chain, so this is prefix equality).
    let mut chain: BTreeMap<u64, String> = BTreeMap::new();
    for (i, summary) in summaries.iter().enumerate() {
        let trace = std::fs::read_to_string(dir.join(format!("node-{i}.jsonl"))).unwrap();
        let mut committed = 0;
        for line in trace.lines().filter(|l| string(l, "kind") == Some("block-committed")) {
            let height = number(line, "height").expect("height");
            let block = string(line, "block").expect("block").to_string();
            let known = chain.entry(height).or_insert_with(|| block.clone());
            assert_eq!(*known, block, "node {i} committed another block at height {height}");
            committed += 1;
        }
        assert_eq!(number(summary, "commits"), Some(committed), "node {i}: {summary}");
        assert!(committed >= 5, "node {i} committed {committed} blocks");
        // The submitted transactions committed, by reference, and every
        // committed batch was in this node's store.
        let batches: Vec<&str> =
            trace.lines().filter(|l| string(l, "kind") == Some("batch-committed")).collect();
        assert!(!batches.is_empty(), "node {i} committed no batch");
        assert!(batches.iter().all(|l| l.contains("\"resolved\":true")), "node {i} lacks a batch");
    }

    let counter = |i: usize, name: &str| number(&summaries[i], name).unwrap_or(0);
    assert!(counter(0, "mempool.accepted") >= 100, "node 0 admitted too little: {}", summaries[0]);
    assert!(counter(0, "dissem.batches_pushed") > 0, "node 0 pushed nothing: {}", summaries[0]);
    for (i, summary) in summaries.iter().enumerate().skip(1) {
        // Sealed nothing, yet holds batches: node 0's pushes arrived.
        assert_eq!(counter(i, "mempool.accepted"), 0, "node {i}: {summary}");
        assert_eq!(counter(i, "dissem.batches_pushed"), 0, "node {i}: {summary}");
        assert!(counter(i, "dissem.batches_stored") > 0, "node {i} stored no push: {summary}");
    }
    for (i, summary) in summaries.iter().enumerate() {
        assert!(counter(i, "driver.messages_handled") > 0, "node {i} handled nothing: {summary}");
        assert!(counter(i, "crypto.batch_verify_items") > 0, "node {i} verified nothing");
        // A process hosting one node runs main and one pool shard.
        let threads = number(summary, "process.threads").expect("process.threads");
        assert!(threads <= 2, "node {i} ran {threads} threads: {summary}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A node that can never reach a quorum — node 0 of four, started alone —
/// records a `stall` once 40 Δ pass without a commit, and the record is in
/// its trace file while the process still runs: an operator diagnosing a
/// wedge kills the node, and a record still buffered at the kill is lost.
#[test]
fn a_wedged_node_writes_its_stall_record_before_it_is_killed() {
    let dir = std::env::temp_dir().join(format!("moonshot-node-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addrs: Vec<SocketAddr> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect::<Vec<_>>()
        .iter()
        .map(|l| l.local_addr().unwrap())
        .collect();
    let peers =
        ClusterConfig { nodes: (0..4).map(|i| (NodeId(i as u16), addrs[i])).collect() };
    let config = dir.join("cluster.conf");
    std::fs::write(&config, peers.to_text()).unwrap();
    let trace = dir.join("node-0.jsonl");

    let spawned = Instant::now();
    let mut node = Command::new(env!("CARGO_BIN_EXE_moonshot-node"))
        .args(["run", "--protocol", "pm", "--delta-ms", "20", "--duration-secs", "0"])
        .args(["--id", "0"])
        .arg("--config")
        .arg(&config)
        .arg("--trace")
        .arg(&trace)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn moonshot-node");
    let stalled = |text: &str| text.lines().any(|l| string(l, "kind") == Some("stall"));
    let mut seen = false;
    while !seen && spawned.elapsed() < Duration::from_secs(3) {
        std::thread::sleep(Duration::from_millis(20));
        seen = std::fs::read_to_string(&trace).is_ok_and(|t| stalled(&t));
    }
    let running = node.try_wait().expect("poll moonshot-node").is_none();
    let _ = node.kill();
    let _ = node.wait();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(running, "the wedged node exited on its own");
    assert!(seen, "no stall record in the trace file within 3 s of the spawn");
}

/// A flag `run` does not take, or a value it cannot parse, is a usage
/// error — exit status 2, the flag named on stderr — before anything else
/// is looked at: not a node that silently runs without it.
#[test]
fn run_rejects_unknown_flags_and_unparsable_values() {
    let cases: [(&[&str], &str); 2] = [
        (&["--introspect", "127.0.0.1:0"], "--introspect"),
        (&["--delta-ms", "abc"], "--delta-ms"),
    ];
    for (bad, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_moonshot-node"))
            .args(["run", "--config", "absent.conf", "--id", "0", "--protocol", "pm"])
            .args(["--duration-secs", "1"])
            .args(bad)
            .output()
            .expect("run moonshot-node");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?} exited with {}: {stderr}", out.status);
        assert!(stderr.contains(flag), "{bad:?}: stderr does not name {flag}: {stderr}");
    }
}
