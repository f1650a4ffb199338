//! Run a single Moonshot validator over real TCP.
//!
//! ```text
//! moonshot-node keygen --n 4
//! moonshot-node config --n 4 --base-port 7000
//! moonshot-node run --config cluster.conf --id 0 --protocol pm \
//!     [--delta-ms 50] [--duration-secs 0] [--trace out.jsonl] \
//!     [--load <batch-bytes>] [--introspect <addr>] [--data-dir <dir>]
//! ```
//!
//! `run` starts the node and, with `--duration-secs 0` (the default), runs
//! until the process is killed; otherwise it stops after the given
//! duration and prints the node's JSON summary on stdout.
//!
//! The node is wired by [`NodeHandle::start`], exactly like every node of an
//! in-process [`moonshot_node::Cluster`]: consensus messages reach the
//! driver only through the sigverify stage, and blocks carry 40-byte
//! references to batches that travel on the push/fetch plane.
//!
//! `--load <batch-bytes>` gives the node a data path: a sharded mempool fed
//! by `SubmitTx` frames (any TCP client may connect and submit — no hello
//! required) and a batch-assembler thread sealing batches that target
//! `batch-bytes` (adaptively grown up to 4× under backlog, under-full ones
//! closed on the block clock) into the node's dissemination plane, which
//! pushes them to every peer; whoever leads next proposes them. Admission
//! is delay-bounded: submissions whose projected queue delay exceeds the
//! target are refused instead of queued. Without `--load` the node accepts
//! no transactions; it still stores, proposes and votes on the batches the
//! loaded nodes push.
//!
//! `--data-dir <dir>` makes the node durable: safety-critical consensus
//! state (votes, timeouts, the lock certificate) is fsync'd to a
//! write-ahead log in `<dir>/node-<id>/` *before* it reaches the wire, and
//! committed blocks are appended to per-epoch segment files off the driver
//! thread. A killed node restarted with the same `--data-dir` reloads its
//! committed chain from disk, can never re-vote in a view it already voted
//! or timed out in, and fetches only the tail it missed from peers.
//!
//! `--introspect <addr>` serves the live introspection plane on `addr`:
//! `echo /status | nc <addr>` (or `curl http://<addr>/status`) returns the
//! node's current view, locked view, mempool depth and per-peer queues;
//! `/metrics` returns the full live metrics registry including the
//! `stage_latency_us.*` histograms.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use moonshot_node::{ClusterConfig, LoadSpec, NodeHandle, ProtocolChoice, TransportConfig};
use moonshot_telemetry::{JsonlSink, NullSink, TraceSink};
use moonshot_types::time::SimDuration;
use moonshot_types::NodeId;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         moonshot-node keygen --n <validators>\n  \
         moonshot-node config --n <validators> [--base-port 7000]\n  \
         moonshot-node run --config <file> --id <n> --protocol <sm|pm|cm|jolteon>\n      \
         [--delta-ms 50] [--duration-secs 0] [--trace <file.jsonl>]\n      \
         [--load <batch-bytes>] [--introspect <addr>] [--data-dir <dir>]"
    );
    ExitCode::from(2)
}

/// Pulls `--flag value` out of `args`, or `default` when absent.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("keygen") => keygen(&args),
        Some("config") => config(&args),
        Some("run") => run(&args),
        _ => usage(),
    }
}

fn keygen(args: &[String]) -> ExitCode {
    let n: usize = match flag(args, "--n").and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => return usage(),
    };
    println!("# seed-derived PKI: node id doubles as key seed");
    for i in 0..n {
        println!("node {} pubkey {}", i, moonshot_node::config::public_key_hex(NodeId(i as u16)));
    }
    ExitCode::SUCCESS
}

fn config(args: &[String]) -> ExitCode {
    let n: usize = match flag(args, "--n").and_then(|v| v.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => return usage(),
    };
    let base: u16 = flag(args, "--base-port").and_then(|v| v.parse().ok()).unwrap_or(7000);
    let nodes = (0..n)
        .map(|i| (NodeId(i as u16), format!("127.0.0.1:{}", base + i as u16).parse().unwrap()))
        .collect();
    print!("{}", ClusterConfig { nodes }.to_text());
    ExitCode::SUCCESS
}

fn run(args: &[String]) -> ExitCode {
    let cfg_path = match flag(args, "--config") {
        Some(p) => p,
        None => return usage(),
    };
    let id: u16 = match flag(args, "--id").and_then(|v| v.parse().ok()) {
        Some(id) => id,
        None => return usage(),
    };
    let protocol: ProtocolChoice = match flag(args, "--protocol").map(|p| p.parse()) {
        Some(Ok(p)) => p,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        None => return usage(),
    };
    let delta_ms: u64 = flag(args, "--delta-ms").and_then(|v| v.parse().ok()).unwrap_or(50);
    let duration_secs: u64 =
        flag(args, "--duration-secs").and_then(|v| v.parse().ok()).unwrap_or(0);
    let load_batch: Option<usize> = flag(args, "--load").and_then(|v| v.parse().ok());
    let introspect: Option<std::net::SocketAddr> =
        match flag(args, "--introspect").map(|v| v.parse()) {
            Some(Ok(a)) => Some(a),
            Some(Err(e)) => {
                eprintln!("error: bad --introspect address: {e}");
                return ExitCode::from(2);
            }
            None => None,
        };

    let text = match std::fs::read_to_string(&cfg_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {cfg_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cluster = match ClusterConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {cfg_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let node = NodeId(id);
    let listen = match cluster.addr_of(node) {
        Some(a) => a,
        None => {
            eprintln!("error: node {id} not in {cfg_path}");
            return ExitCode::FAILURE;
        }
    };

    let sink: moonshot_node::SharedSink = match flag(args, "--trace") {
        Some(path) => match JsonlSink::create(std::path::Path::new(&path)) {
            Ok(s) => Arc::new(Mutex::new(s)),
            Err(e) => {
                eprintln!("error: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Arc::new(Mutex::new(NullSink)) as Arc<Mutex<dyn TraceSink + Send>>,
    };

    let epoch = Instant::now();
    let mut transport = TransportConfig::new(node, listen, cluster.nodes.clone());
    transport.introspect = introspect;
    // The assembler must outlive the node, so it's held here until
    // shutdown.
    let _assembler = load_batch.map(|batch_bytes| {
        let (pool, plane, assembler) =
            LoadSpec::digest(batch_bytes).without_clients().data_path(epoch);
        transport.mempool = Some(pool);
        transport.dissem = plane;
        assembler
    });
    let data_dir = flag(args, "--data-dir").map(std::path::PathBuf::from);
    let handle = match NodeHandle::start(
        move |cfg| protocol.build(cfg),
        SimDuration::from_millis(delta_ms),
        transport,
        None,
        data_dir.as_deref(),
        epoch,
        sink,
        moonshot_node::IntrospectState::new(node, epoch),
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start node {id} on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if handle.recovered_height() > 0 {
        eprintln!("node {id} recovered height {} from its ledger", handle.recovered_height());
    }
    eprintln!(
        "node {id} running {} on {listen} ({} validators, delta {delta_ms}ms)",
        protocol.name(),
        cluster.n()
    );
    if let Some(addr) = handle.introspect_addr() {
        eprintln!("node {id} introspection on {addr} (/status, /metrics)");
    }

    if duration_secs == 0 {
        // Run until killed; log committed height once a second.
        let mut last = 0;
        loop {
            std::thread::sleep(Duration::from_secs(1));
            let h = handle.committed_height();
            if h != last {
                eprintln!("node {id} committed height {h}");
                last = h;
            }
        }
    }

    std::thread::sleep(Duration::from_secs(duration_secs));
    let report = handle.stop();
    println!("{}", report.summary_json());
    ExitCode::SUCCESS
}
