//! Key material and the public-key infrastructure (PKI).
//!
//! The paper assumes a PKI binding each node to a signing key (§II). In this
//! reproduction the signature scheme is a keyed-hash authenticator (see
//! [`crate::signature`]); the PKI is a [`Keyring`] shared by the simulation
//! that can verify any node's signatures. Sizes match ED25519 (32-byte keys,
//! 64-byte signatures) so that message-size-dependent latency models behave
//! like the paper's deployment.

use std::fmt;


use crate::sha256::Digest;
use crate::signature::Signature;

/// Index of a node in the validator set. Mirrors `P_i` in the paper.
pub type SignerIndex = u16;

/// A 32-byte public key identifying a signer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey(pub [u8; 32]);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}{:02x}{:02x})",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A 32-byte secret key.
///
/// Deliberately does not implement `Display`/`Serialize` to avoid accidental
/// leakage; `Debug` is redacted.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub(crate) [u8; 32]);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

/// A signing key pair.
///
/// # Examples
///
/// ```
/// use moonshot_crypto::keys::KeyPair;
/// let kp = KeyPair::from_seed(7);
/// let sig = kp.sign(b"message");
/// assert!(kp.public().verify(b"message", &sig));
/// assert!(!kp.public().verify(b"other", &sig));
/// ```
#[derive(Clone, Debug)]
pub struct KeyPair {
    public: PublicKey,
    secret: SecretKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed.
    ///
    /// Determinism keeps simulation runs reproducible; a production
    /// deployment would source entropy from the OS instead.
    pub fn from_seed(seed: u64) -> Self {
        let secret = Digest::hash_parts(&[b"moonshot-secret-key", &seed.to_le_bytes()]);
        let public = Digest::hash_parts(&[b"moonshot-public-key", secret.as_bytes()]);
        KeyPair {
            public: PublicKey(*public.as_bytes()),
            secret: SecretKey(*secret.as_bytes()),
        }
    }

    /// Returns the public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg`, producing a 64-byte signature.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature::create(&self.secret, &self.public, msg)
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg` under this key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        sig.verify(self, msg)
    }
}

/// Maximum tolerated Byzantine faults among `n` validators: `f = ⌊(n−1)/3⌋`.
pub fn max_faults(n: usize) -> usize {
    n.saturating_sub(1) / 3
}

/// Quorum size among `n` validators: `⌊(n + f)/2⌋ + 1`, the smallest size at
/// which any two quorums share an honest node. With `n = 3f + 1` this is
/// `2f + 1`, matching the paper's simplifying assumption (§II). Everything
/// that counts a quorum — certificates, the simulator's metrics, a
/// cluster's committed height — calls this.
pub fn quorum_threshold(n: usize) -> usize {
    (n + max_faults(n)) / 2 + 1
}

/// The validator-set PKI: maps signer indices to public keys.
///
/// A quorum in the paper is `2f + 1` of `n = 3f + 1` nodes; the keyring is
/// the authority on `n`, `f` and the quorum threshold.
///
/// # Examples
///
/// ```
/// use moonshot_crypto::keys::Keyring;
/// let ring = Keyring::simulated(4);
/// assert_eq!(ring.len(), 4);
/// assert_eq!(ring.max_faults(), 1);
/// assert_eq!(ring.quorum_threshold(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Keyring {
    keys: Vec<PublicKey>,
}

impl Keyring {
    /// Builds a keyring from explicit public keys.
    pub fn new(keys: Vec<PublicKey>) -> Self {
        Keyring { keys }
    }

    /// Builds a simulated keyring of `n` nodes with seeds `0..n`.
    pub fn simulated(n: usize) -> Self {
        Keyring {
            keys: (0..n as u64).map(|s| KeyPair::from_seed(s).public()).collect(),
        }
    }

    /// Number of nodes `n`.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the keyring is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Maximum tolerated Byzantine faults: [`max_faults`] of `n`.
    pub fn max_faults(&self) -> usize {
        max_faults(self.len())
    }

    /// Quorum size: [`quorum_threshold`] of `n`.
    pub fn quorum_threshold(&self) -> usize {
        quorum_threshold(self.len())
    }

    /// The number of distinct senders proving at least one honest sender:
    /// `f + 1`.
    pub fn honest_evidence_threshold(&self) -> usize {
        self.max_faults() + 1
    }

    /// Looks up the public key of `signer`.
    pub fn key(&self, signer: SignerIndex) -> Option<&PublicKey> {
        self.keys.get(signer as usize)
    }

    /// Verifies a signature attributed to `signer`.
    pub fn verify(&self, signer: SignerIndex, msg: &[u8], sig: &Signature) -> bool {
        match self.key(signer) {
            Some(pk) => pk.verify(msg, sig),
            None => false,
        }
    }

    /// Iterates over all public keys in index order.
    pub fn iter(&self) -> impl Iterator<Item = &PublicKey> {
        self.keys.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keypair_is_deterministic() {
        let a = KeyPair::from_seed(42);
        let b = KeyPair::from_seed(42);
        assert_eq!(a.public(), b.public());
        assert_eq!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn different_seeds_different_keys() {
        assert_ne!(KeyPair::from_seed(1).public(), KeyPair::from_seed(2).public());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(9);
        let sig = kp.sign(b"hello");
        assert!(kp.public().verify(b"hello", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = KeyPair::from_seed(9);
        let sig = kp.sign(b"hello");
        assert!(!kp.public().verify(b"hellp", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let a = KeyPair::from_seed(1);
        let b = KeyPair::from_seed(2);
        let sig = a.sign(b"msg");
        assert!(!b.public().verify(b"msg", &sig));
    }

    #[test]
    fn keyring_thresholds_n4() {
        let ring = Keyring::simulated(4);
        assert_eq!(ring.max_faults(), 1);
        assert_eq!(ring.quorum_threshold(), 3);
        assert_eq!(ring.honest_evidence_threshold(), 2);
    }

    #[test]
    fn keyring_thresholds_n100() {
        let ring = Keyring::simulated(100);
        assert_eq!(ring.max_faults(), 33);
        assert_eq!(ring.quorum_threshold(), 67); // 2f+1 with f=33
    }

    #[test]
    fn keyring_thresholds_n7() {
        let ring = Keyring::simulated(7);
        assert_eq!(ring.max_faults(), 2);
        assert_eq!(ring.quorum_threshold(), 5); // 2f+1 with f=2
    }

    #[test]
    fn keyring_verify_by_index() {
        let ring = Keyring::simulated(5);
        let kp = KeyPair::from_seed(3);
        let sig = kp.sign(b"vote");
        assert!(ring.verify(3, b"vote", &sig));
        assert!(!ring.verify(2, b"vote", &sig));
        assert!(!ring.verify(99, b"vote", &sig));
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let kp = KeyPair::from_seed(0);
        assert_eq!(format!("{:?}", kp.secret), "SecretKey(<redacted>)");
    }
}
