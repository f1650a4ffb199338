//! The simulated signature scheme: a **forgeable** keyed-hash stand-in.
//!
//! The paper's implementation used ED25519 signatures. This reproduction uses
//! a keyed-hash authenticator with identical wire sizes (64-byte signatures,
//! 32-byte keys): `sig = H(sk ‖ msg) ‖ H(pk ‖ H(sk ‖ msg) ‖ msg)`.
//! Verification recomputes the binding half from the *public* key — one
//! SHA-256 — so anyone who knows `pk` can produce a signature that verifies
//! under it: pick any first half, hash the second. It is not a digital
//! signature, and nothing in this repo may be read as resisting an adversary
//! who forges. It serves runs where Byzantine behaviour is injected
//! explicitly rather than forged, and preserves the one property the
//! protocols and the bandwidth model rely on: signatures are constant-size,
//! with the real scheme's message bytes, and attributable to a signer among
//! honest parties.
//!
//! What it does **not** preserve is cost: a verification here is one
//! SHA-256 where an ED25519 verification is a curve operation, about two
//! orders of magnitude more. Every CPU figure the runtime reports
//! (`cpu_us_per_tx`, `cpu.verify_s`, `crypto.*`) is taken over this
//! stand-in. Real ED25519 behind the same API is the next ROADMAP item.

use std::fmt;

use crate::keys::{PublicKey, SecretKey};
use crate::sha256::Digest;

/// Number of bytes in a signature (matches ED25519).
pub const SIGNATURE_LEN: usize = 64;

/// A 64-byte signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    inner: [u8; 32],
    binder: [u8; 32],
}

impl Signature {
    /// Creates a signature over `msg` with `sk`, bound to `pk`.
    pub(crate) fn create(sk: &SecretKey, pk: &PublicKey, msg: &[u8]) -> Self {
        let inner = Digest::hash_parts(&[b"moonshot-sig-inner", &sk.0, msg]);
        let binder = Digest::hash_parts(&[b"moonshot-sig-binder", &pk.0, inner.as_bytes(), msg]);
        Signature {
            inner: *inner.as_bytes(),
            binder: *binder.as_bytes(),
        }
    }

    /// Verifies this signature over `msg` under `pk`.
    pub(crate) fn verify(&self, pk: &PublicKey, msg: &[u8]) -> bool {
        let expect = Digest::hash_parts(&[b"moonshot-sig-binder", &pk.0, &self.inner, msg]);
        // Constant-time comparison is unnecessary in the simulation but cheap.
        let mut diff = 0u8;
        for (a, b) in expect.as_bytes().iter().zip(self.binder.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }

    /// Returns the signature as a flat 64-byte array (wire format).
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(&self.inner);
        out[32..].copy_from_slice(&self.binder);
        out
    }

    /// Reconstructs a signature from its wire format.
    pub fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Self {
        let mut inner = [0u8; 32];
        let mut binder = [0u8; 32];
        inner.copy_from_slice(&bytes[..32]);
        binder.copy_from_slice(&bytes[32..]);
        Signature { inner, binder }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({:02x}{:02x}{:02x}{:02x}…)",
            self.inner[0], self.inner[1], self.inner[2], self.inner[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    #[test]
    fn wire_format_roundtrip() {
        let kp = KeyPair::from_seed(5);
        let sig = kp.sign(b"abc");
        let bytes = sig.to_bytes();
        assert_eq!(Signature::from_bytes(bytes), sig);
        assert_eq!(bytes.len(), SIGNATURE_LEN);
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = KeyPair::from_seed(5);
        let sig = kp.sign(b"abc");
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 0xff;
        let bad = Signature::from_bytes(bytes);
        assert!(!kp.public().verify(b"abc", &bad));
    }

    #[test]
    fn signatures_differ_per_message() {
        let kp = KeyPair::from_seed(5);
        assert_ne!(kp.sign(b"a"), kp.sign(b"b"));
    }

    #[test]
    fn signatures_differ_per_signer() {
        assert_ne!(KeyPair::from_seed(1).sign(b"m"), KeyPair::from_seed(2).sign(b"m"));
    }

    #[test]
    fn empty_message_signs() {
        let kp = KeyPair::from_seed(0);
        let sig = kp.sign(b"");
        assert!(kp.public().verify(b"", &sig));
    }
}
