//! Dials over real sockets: a peer that never answers a connect must not
//! hold up the links to the others.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use moonshot_consensus::{
    ConsensusProtocol, Message, MessageVerifier, NodeConfig, Output, PreVerified, TimerToken,
};
use moonshot_crypto::Digest;
use moonshot_node::{NetPool, NodeHandle, TransportConfig};
use moonshot_telemetry::RingBufferSink;
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{NodeId, View};

extern "C" {
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// A protocol that sends `at_start` as it starts and passes on every
/// message it is handed.
struct Probe {
    verifier: MessageVerifier,
    at_start: Vec<Output>,
    seen: mpsc::Sender<(NodeId, Message)>,
}

impl ConsensusProtocol for Probe {
    fn start(&mut self, _: SimTime) -> Vec<Output> {
        std::mem::take(&mut self.at_start)
    }
    fn handle_preverified(&mut self, from: NodeId, msg: PreVerified, _: SimTime) -> Vec<Output> {
        let _ = self.seen.send((from, msg.into_inner()));
        Vec::new()
    }
    fn verifier(&self) -> &MessageVerifier {
        &self.verifier
    }
    fn handle_timer(&mut self, _: TimerToken, _: SimTime) -> Vec<Output> {
        Vec::new()
    }
    fn current_view(&self) -> View {
        View(0)
    }
    fn name(&self) -> &'static str {
        "probe"
    }
}

/// Starts node `id` of `peers` on `pool`, over `listener`, sending
/// `at_start` as it starts; the receiver yields what it is handed.
fn start(
    id: NodeId,
    listener: TcpListener,
    peers: &[(NodeId, SocketAddr)],
    pool: &Arc<NetPool>,
    at_start: Vec<Output>,
) -> (NodeHandle, mpsc::Receiver<(NodeId, Message)>) {
    let (tx, rx) = mpsc::channel();
    let cfg = TransportConfig::new(id, peers.to_vec(), pool.clone());
    let probe = move |cfg: NodeConfig| -> Box<dyn ConsensusProtocol + Send> {
        Box::new(Probe { verifier: MessageVerifier::for_config(&cfg), at_start, seen: tx })
    };
    let sink = Arc::new(Mutex::new(RingBufferSink::new(1024)));
    let delta = SimDuration::from_millis(50);
    let node = NodeHandle::start(probe, delta, cfg, listener, None, sink).unwrap();
    (node, rx)
}

/// A peer that never answers a connect holds up no other link. Node 1 is a
/// listener whose accept queue is full, so the kernel drops the SYNs of
/// every connect to it and each one hangs until it gives up (after 1 s);
/// it sorts before node 2, a live node. A frame node 0 sends node 2 as it
/// starts must arrive within a tenth of that.
#[test]
fn a_peer_that_never_accepts_holds_up_no_other_dial() {
    let localhost: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let pool = NetPool::new();
    // A backlog of 0 holds one connection; the one after it hangs.
    let full = TcpListener::bind(localhost).unwrap();
    // SAFETY: `listen` takes no pointers; the fd is the listener's own.
    assert_eq!(unsafe { listen(full.as_raw_fd(), 0) }, 0, "listen(0)");
    let a1 = full.local_addr().unwrap();
    let mut queued = Vec::new();
    while let Ok(s) = TcpStream::connect_timeout(&a1, Duration::from_millis(200)) {
        queued.push(s);
        assert!(queued.len() < 8, "the accept queue never filled");
    }
    let (l0, l2) = (TcpListener::bind(localhost).unwrap(), TcpListener::bind(localhost).unwrap());
    let peers = [
        (NodeId(0), l0.local_addr().unwrap()),
        (NodeId(1), a1),
        (NodeId(2), l2.local_addr().unwrap()),
    ];
    let (n2, rx2) = start(NodeId(2), l2, &peers, &pool, Vec::new());

    let msg = Message::BlockRequest { block_id: Digest([7; 32]) };
    let started = Instant::now();
    let (n0, _rx0) = start(NodeId(0), l0, &peers, &pool, vec![Output::Send(NodeId(2), msg.clone())]);
    let got = rx2.recv_timeout(Duration::from_secs(10)).expect("delivery");
    let took = started.elapsed();
    assert_eq!((got.0, &got.1), (NodeId(0), &msg));
    assert!(
        took < Duration::from_millis(100),
        "the frame to node 2 arrived {took:?} after start, behind the connect to node 1"
    );
    n0.stop();
    n2.stop();
    pool.shutdown();
}
