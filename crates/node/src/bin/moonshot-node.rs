//! Run a single Moonshot validator over real TCP.
//!
//! ```text
//! moonshot-node keygen --n 4
//! moonshot-node config --n 4 --base-port 7000
//! moonshot-node run --config cluster.conf --id 0 --protocol pm \
//!     [--delta-ms 50] [--duration-secs 0] [--trace out.jsonl] \
//!     [--load <batch-bytes>] [--data-dir <dir>]
//! ```
//!
//! Every flag takes a value. A flag the subcommand does not take, a flag
//! without its value, or a value that does not parse prints the usage and
//! exits with status 2.
//!
//! `run` starts the node and, with `--duration-secs 0` (the default), runs
//! until the process is killed; otherwise it stops after the given
//! duration and prints the node's JSON summary on stdout: its commits and
//! the counters it read at stop (`driver.*`, `verify.*`, `dissem.*`,
//! `mempool.*`, `ledger.*`, `net.*`).
//!
//! The node is wired by [`NodeHandle::start`], exactly like every node of an
//! in-process [`moonshot_node::Cluster`]: the network shard that owns its
//! sockets steps it, handing it consensus messages only once it verified
//! them, and
//! blocks carry 40-byte
//! references to batches that travel on the push/fetch plane.
//!
//! `--load <batch-bytes>` gives the node a data path: a mempool that the
//! network shard reading a `SubmitTx` frame admits it into (any TCP client
//! may connect and submit — no hello required), which the node
//! seals into batches that target `batch-bytes` (adaptively grown up to 4×
//! under backlog, under-full ones closed on the block clock) and pushes to
//! every peer; whoever leads next proposes them. Admission
//! is delay-bounded: submissions whose projected queue delay exceeds the
//! target are refused instead of queued. Without `--load` the node accepts
//! no transactions; it still stores, proposes and votes on the batches the
//! loaded nodes push.
//!
//! `--data-dir <dir>` makes the node durable: safety-critical consensus
//! state (votes, timeouts, the lock certificate) is fsync'd to a
//! write-ahead log in `<dir>/node-<id>/` *before* it reaches the wire, and
//! the node appends each block it commits to per-epoch segment files. A killed node restarted with the same `--data-dir` reloads its
//! committed chain from disk, can never re-vote in a view it already voted
//! or timed out in, and fetches only the tail it missed from peers.
//!
//! `--trace <file.jsonl>` writes every trace record as one JSON line: the
//! protocol's lifecycle events, the stage stamps the latency decomposition
//! is computed from, and a `stall` record whenever 40 Δ pass without a
//! commit (the view, committed height, messages held, armed timers and
//! mempool depth of the wedged node). The file is flushed right after each
//! `stall` record, so a wedged node that is killed still leaves it.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use moonshot_node::{
    ClusterConfig, LoadSpec, NetPool, NodeHandle, ProtocolChoice, TransportConfig,
};
use moonshot_telemetry::{JsonlSink, NullSink, TraceSink};
use moonshot_types::time::SimDuration;
use moonshot_types::NodeId;

const USAGE: &str = "usage:\n  \
     moonshot-node keygen --n <validators>\n  \
     moonshot-node config --n <validators> [--base-port 7000]\n  \
     moonshot-node run --config <file> --id <n> --protocol <sm|pm|cm|jolteon>\n      \
     [--delta-ms 50] [--duration-secs 0] [--trace <file.jsonl>]\n      \
     [--load <batch-bytes>] [--data-dir <dir>]";

/// The flags of one command line, each with its value.
struct Flags(HashMap<String, String>);

impl Flags {
    /// Reads `--flag value` pairs, refusing any flag not in `known` and
    /// any flag whose value is missing.
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = HashMap::new();
        let mut args = args.iter();
        while let Some(name) = args.next() {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown flag {name}"));
            }
            match args.next() {
                Some(value) if !value.starts_with("--") => {
                    flags.insert(name.clone(), value.clone());
                }
                _ => return Err(format!("{name} needs a value")),
            }
        }
        Ok(Flags(flags))
    }

    /// The value of `name`, parsed; `None` when the flag is absent.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.0.get(name).map(|v| v.parse().map_err(|e| format!("{name} {v:?}: {e}"))).transpose()
    }

    /// The value of a flag that must be given.
    fn require<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)?.ok_or_else(|| format!("{name} is required"))
    }
}

/// What a subcommand does once its flags parsed: an exit code, or a usage
/// error.
type Command = fn(&Flags) -> Result<ExitCode, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, known): (Command, &[&str]) = match args.first().map(String::as_str) {
        Some("keygen") => (keygen, &["--n"]),
        Some("config") => (config, &["--n", "--base-port"]),
        Some("run") => (
            run,
            &[
                "--config",
                "--id",
                "--protocol",
                "--delta-ms",
                "--duration-secs",
                "--trace",
                "--load",
                "--data-dir",
            ],
        ),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match Flags::parse(&args[1..], known).and_then(|flags| command(&flags)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--n`, which must be positive.
fn validators(flags: &Flags) -> Result<usize, String> {
    match flags.require("--n")? {
        0 => Err("--n must be positive".to_string()),
        n => Ok(n),
    }
}

fn keygen(flags: &Flags) -> Result<ExitCode, String> {
    let n = validators(flags)?;
    println!("# seed-derived PKI: node id doubles as key seed");
    for i in 0..n {
        println!("node {} pubkey {}", i, moonshot_node::config::public_key_hex(NodeId(i as u16)));
    }
    Ok(ExitCode::SUCCESS)
}

fn config(flags: &Flags) -> Result<ExitCode, String> {
    let n = validators(flags)?;
    let base: u16 = flags.get("--base-port")?.unwrap_or(7000);
    let nodes = (0..n)
        .map(|i| (NodeId(i as u16), format!("127.0.0.1:{}", base + i as u16).parse().unwrap()))
        .collect();
    print!("{}", ClusterConfig { nodes }.to_text());
    Ok(ExitCode::SUCCESS)
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let cfg_path: String = flags.require("--config")?;
    let id: u16 = flags.require("--id")?;
    let protocol: ProtocolChoice = flags.require("--protocol")?;
    let delta_ms: u64 = flags.get("--delta-ms")?.unwrap_or(50);
    let duration_secs: u64 = flags.get("--duration-secs")?.unwrap_or(0);
    let load_batch: Option<usize> = flags.get("--load")?;
    let trace: Option<PathBuf> = flags.get("--trace")?;
    let data_dir: Option<PathBuf> = flags.get("--data-dir")?;

    let text = match std::fs::read_to_string(&cfg_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {cfg_path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let cluster = match ClusterConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {cfg_path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let node = NodeId(id);
    let listen = match cluster.addr_of(node) {
        Some(a) => a,
        None => {
            eprintln!("error: node {id} not in {cfg_path}");
            return Ok(ExitCode::FAILURE);
        }
    };

    let sink: moonshot_node::SharedSink = match trace {
        Some(path) => match JsonlSink::create(&path) {
            Ok(s) => Arc::new(Mutex::new(s)),
            Err(e) => {
                eprintln!("error: cannot create trace file {}: {e}", path.display());
                return Ok(ExitCode::FAILURE);
            }
        },
        None => Arc::new(Mutex::new(NullSink)) as Arc<Mutex<dyn TraceSink + Send>>,
    };

    let net = NetPool::new();
    let mut transport = TransportConfig::new(node, cluster.nodes.clone(), net.clone());
    if let Some(batch_bytes) = load_batch {
        let (pool, plane) = LoadSpec::digest(batch_bytes).data_path();
        transport.mempool = Some((pool, batch_bytes));
        transport.dissem = plane;
    }
    let started = TcpListener::bind(listen).and_then(|listener| {
        NodeHandle::start(
            move |cfg| protocol.build(cfg),
            SimDuration::from_millis(delta_ms),
            transport,
            listener,
            data_dir.as_deref(),
            sink,
        )
    });
    let handle = match started {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start node {id} on {listen}: {e}");
            return Ok(ExitCode::FAILURE);
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
    net.shutdown();
    println!("{}", report.summary_json());
    Ok(ExitCode::SUCCESS)
}
