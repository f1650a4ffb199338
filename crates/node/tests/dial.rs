//! Dials over real sockets: a peer that never answers a connect must not
//! hold up the links to the others.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use moonshot_consensus::{Message, MessageVerifier};
use moonshot_crypto::{Digest, Keyring};
use moonshot_node::{Inbound, InboundSender, NetPool, Transport, TransportConfig};
use moonshot_types::NodeId;

extern "C" {
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// Starts node `id` of `peers` on `pool`, over `listener`.
fn start(
    id: NodeId,
    listener: TcpListener,
    peers: &[(NodeId, SocketAddr)],
    pool: &Arc<NetPool>,
) -> (Transport, mpsc::Receiver<Option<Inbound>>) {
    let (tx, rx) = mpsc::channel();
    let addr = listener.local_addr().unwrap();
    let cfg = TransportConfig::new(id, addr, peers.to_vec(), pool.clone());
    let verifier = Arc::new(MessageVerifier::new(Keyring::simulated(3), Arc::default()));
    let inbound = InboundSender::new(tx);
    let t = Transport::start(cfg, Some(listener), verifier, inbound, Arc::default()).unwrap();
    (t, rx)
}

/// A peer that never answers a connect holds up no other link. Node 1 is a
/// listener whose accept queue is full, so the kernel drops the SYNs of
/// every connect to it and each one hangs until it gives up (after 1 s);
/// it sorts before node 2, a live node. A frame node 0 queues for node 2 as
/// it starts must arrive within a tenth of that.
#[test]
fn a_peer_that_never_accepts_holds_up_no_other_dial() {
    let localhost: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let pool = NetPool::new().unwrap();
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
    let (t2, rx2) = start(NodeId(2), l2, &peers, &pool);

    let msg = Message::BlockRequest { block_id: Digest([7; 32]) };
    let started = Instant::now();
    let (t0, _rx0) = start(NodeId(0), l0, &peers, &pool);
    t0.send(NodeId(2), Arc::new(moonshot_wire::encode_message(&msg)));
    let got = rx2.recv_timeout(Duration::from_secs(10)).expect("delivery").expect("a message");
    let took = started.elapsed();
    assert_eq!((got.from, got.msg.message()), (NodeId(0), &msg));
    assert!(
        took < Duration::from_millis(100),
        "the frame to node 2 arrived {took:?} after start, behind the connect to node 1"
    );
    t0.stop();
    t2.stop();
    pool.shutdown();
}
