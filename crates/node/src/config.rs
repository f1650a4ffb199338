//! Static cluster configuration and protocol selection.
//!
//! The `moonshot-node` binary reads a plain-text peer file — one
//! `node <id> <addr:port>` line per validator — because a reproduction's
//! cluster membership is small, static and hand-auditable. Keys need no
//! distribution step: the repo's PKI is seed-derived
//! ([`KeyPair::from_seed`]`(node_id)`), so knowing the membership *is*
//! knowing the public keys.

use std::net::SocketAddr;
use std::str::FromStr;

use moonshot_consensus::{
    CommitMoonshot, ConsensusProtocol, Jolteon, NodeConfig, PipelinedMoonshot, SimpleMoonshot,
};
use moonshot_crypto::KeyPair;
use moonshot_types::NodeId;

/// Which consensus protocol a node runs. Labels match the simulator's
/// (`SM`/`PM`/`CM`/`J`), so cluster results line up with DES results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// Simple Moonshot.
    Simple,
    /// Pipelined Moonshot.
    Pipelined,
    /// Commit Moonshot.
    Commit,
    /// The Jolteon baseline.
    Jolteon,
}

impl ProtocolChoice {
    /// All four protocols, in the paper's presentation order.
    pub const ALL: [ProtocolChoice; 4] = [
        ProtocolChoice::Simple,
        ProtocolChoice::Pipelined,
        ProtocolChoice::Commit,
        ProtocolChoice::Jolteon,
    ];

    /// Short label (`SM`, `PM`, `CM`, `J`).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolChoice::Simple => "SM",
            ProtocolChoice::Pipelined => "PM",
            ProtocolChoice::Commit => "CM",
            ProtocolChoice::Jolteon => "J",
        }
    }

    /// Full protocol name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolChoice::Simple => "simple-moonshot",
            ProtocolChoice::Pipelined => "pipelined-moonshot",
            ProtocolChoice::Commit => "commit-moonshot",
            ProtocolChoice::Jolteon => "jolteon",
        }
    }

    /// Instantiates the protocol state machine over `cfg`.
    pub fn build(self, cfg: NodeConfig) -> Box<dyn ConsensusProtocol + Send> {
        match self {
            ProtocolChoice::Simple => Box::new(SimpleMoonshot::new(cfg)),
            ProtocolChoice::Pipelined => Box::new(PipelinedMoonshot::new(cfg)),
            ProtocolChoice::Commit => Box::new(CommitMoonshot::new(cfg)),
            ProtocolChoice::Jolteon => Box::new(Jolteon::new(cfg)),
        }
    }
}

impl FromStr for ProtocolChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sm" | "simple" | "simple-moonshot" => Ok(ProtocolChoice::Simple),
            "pm" | "pipelined" | "pipelined-moonshot" => Ok(ProtocolChoice::Pipelined),
            "cm" | "commit" | "commit-moonshot" => Ok(ProtocolChoice::Commit),
            "j" | "jolteon" => Ok(ProtocolChoice::Jolteon),
            other => Err(format!("unknown protocol {other:?} (want sm|pm|cm|jolteon)")),
        }
    }
}

/// A parsed cluster membership file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// `(node id, listen address)` per validator, sorted by id.
    pub nodes: Vec<(NodeId, SocketAddr)>,
}

impl ClusterConfig {
    /// Parses the peer-file format: blank lines and `#` comments ignored,
    /// every other line `node <id> <ip:port>`. Ids must be dense `0..n` so
    /// they double as signer indices into the seed-derived PKI.
    pub fn parse(text: &str) -> Result<ClusterConfig, String> {
        let mut nodes: Vec<(NodeId, SocketAddr)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some("node"), Some(id), Some(addr), None) => {
                    let id: u16 =
                        id.parse().map_err(|_| format!("line {}: bad node id", lineno + 1))?;
                    let addr: SocketAddr =
                        addr.parse().map_err(|_| format!("line {}: bad address", lineno + 1))?;
                    nodes.push((NodeId(id), addr));
                }
                _ => return Err(format!("line {}: expected `node <id> <ip:port>`", lineno + 1)),
            }
        }
        if nodes.is_empty() {
            return Err("no `node` lines in config".into());
        }
        nodes.sort_by_key(|(id, _)| *id);
        for (i, (id, _)) in nodes.iter().enumerate() {
            if id.0 as usize != i {
                return Err(format!("node ids must be dense 0..n, missing or duplicate id {i}"));
            }
        }
        Ok(ClusterConfig { nodes })
    }

    /// Renders back to the peer-file format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# moonshot cluster membership: node <id> <ip:port>\n");
        for (id, addr) in &self.nodes {
            out.push_str(&format!("node {} {}\n", id.0, addr));
        }
        out
    }

    /// Number of validators.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The listen address of `id`.
    pub fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.nodes.iter().find(|(n, _)| *n == id).map(|(_, a)| *a)
    }
}

/// The hex-encoded public key for `node_id` under the seed-derived PKI —
/// what `moonshot-node keygen` prints for operators wiring up membership.
pub fn public_key_hex(node_id: NodeId) -> String {
    let pk = KeyPair::from_seed(node_id.0 as u64).public();
    let mut s = String::with_capacity(64);
    for b in pk.0 {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_choice_parses_aliases() {
        assert_eq!("pm".parse::<ProtocolChoice>().unwrap(), ProtocolChoice::Pipelined);
        assert_eq!("Jolteon".parse::<ProtocolChoice>().unwrap(), ProtocolChoice::Jolteon);
        assert_eq!(
            "simple-moonshot".parse::<ProtocolChoice>().unwrap(),
            ProtocolChoice::Simple
        );
        assert!("raft".parse::<ProtocolChoice>().is_err());
    }

    #[test]
    fn every_choice_builds_its_protocol() {
        for choice in ProtocolChoice::ALL {
            let cfg = NodeConfig::simulated(
                NodeId(0),
                4,
                moonshot_types::time::SimDuration::from_millis(50),
            );
            let proto = choice.build(cfg);
            assert_eq!(proto.name(), choice.name());
        }
    }

    #[test]
    fn cluster_config_roundtrips() {
        let text = "# comment\n\nnode 1 127.0.0.1:7001\nnode 0 127.0.0.1:7000\n";
        let cfg = ClusterConfig::parse(text).unwrap();
        assert_eq!(cfg.n(), 2);
        assert_eq!(cfg.nodes[0].0, NodeId(0)); // sorted
        assert_eq!(cfg.addr_of(NodeId(1)).unwrap().port(), 7001);
        let again = ClusterConfig::parse(&cfg.to_text()).unwrap();
        assert_eq!(again, cfg);
    }

    #[test]
    fn cluster_config_rejects_gaps_and_garbage() {
        assert!(ClusterConfig::parse("node 0 127.0.0.1:1\nnode 2 127.0.0.1:2\n").is_err());
        assert!(ClusterConfig::parse("node 0 127.0.0.1:1\nnode 0 127.0.0.1:2\n").is_err());
        assert!(ClusterConfig::parse("peer 0 127.0.0.1:1\n").is_err());
        assert!(ClusterConfig::parse("").is_err());
    }

    #[test]
    fn public_key_hex_is_stable_and_distinct() {
        let a = public_key_hex(NodeId(0));
        let b = public_key_hex(NodeId(1));
        assert_eq!(a.len(), 64);
        assert_ne!(a, b);
        assert_eq!(a, public_key_hex(NodeId(0)));
    }
}
