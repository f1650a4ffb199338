//! Block certificates (quorum certificates) and timeout certificates.
//!
//! A block certificate `C_v(B_k)` is a quorum of distinct signed votes for
//! `B_k` in view `v`; certificates are ranked by view: `C_v ≤ C_{v'}` iff
//! `v ≤ v'` (§II.B). In Pipelined Moonshot the vote *type* is part of the
//! certificate (optimistic / normal / fallback certificates), and votes of
//! different types may not be aggregated together (§IV.A).
//!
//! A timeout certificate `TC_v` is a quorum of signed timeout messages for
//! view `v`. Pipelined/Commit Moonshot timeouts carry the sender's lock, and
//! the `TC` must provably contain the highest ranked block certificate among
//! its constituent timeouts (§IV).

use std::fmt;
use std::sync::OnceLock;

use moonshot_crypto::{
    Digest, KeyPair, Keyring, MultiSig, MultiSigError, Sha256, Signature, VerifiedCache,
};

use crate::block::{Block, BlockId};
use crate::ids::{Height, NodeId, View};
use crate::vote::{SignedVote, Vote, VoteKind};
use crate::wire::{
    WireSize, DIGEST_WIRE, INDEX_WIRE, SIGNATURE_WIRE, TAG_WIRE, U64_WIRE, VEC_LEN_WIRE,
};

/// Errors from certificate assembly and validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// A vote's content did not match the certificate being assembled.
    MismatchedVote,
    /// The underlying aggregate was invalid (duplicate signer, bad signature,
    /// below threshold).
    Proof(MultiSigError),
    /// A timeout entry's signature was invalid.
    InvalidTimeoutSignature(NodeId),
    /// The TC's embedded high-QC does not match the maximum lock among its
    /// timeout entries.
    HighQcMismatch,
    /// Fewer distinct timeout entries than a quorum.
    BelowThreshold {
        /// Entries present.
        have: usize,
        /// Quorum required.
        need: usize,
    },
    /// Duplicate signer among timeout entries.
    DuplicateSigner(NodeId),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::MismatchedVote => write!(f, "vote does not match certificate"),
            CertificateError::Proof(e) => write!(f, "invalid certificate proof: {e}"),
            CertificateError::InvalidTimeoutSignature(n) => {
                write!(f, "invalid timeout signature from {n}")
            }
            CertificateError::HighQcMismatch => {
                write!(f, "timeout certificate high-qc does not match entries")
            }
            CertificateError::BelowThreshold { have, need } => {
                write!(f, "{have} timeout entries, {need} required")
            }
            CertificateError::DuplicateSigner(n) => write!(f, "duplicate timeout signer {n}"),
        }
    }
}

impl std::error::Error for CertificateError {}

impl From<MultiSigError> for CertificateError {
    fn from(e: MultiSigError) -> Self {
        CertificateError::Proof(e)
    }
}

/// A block certificate `C_v(B_k)`: a quorum of same-type votes for one block.
///
/// # Examples
///
/// Assemble a certificate from votes (see [`QuorumCertificate::from_votes`]).
#[derive(Clone)]
pub struct QuorumCertificate {
    kind: VoteKind,
    block_id: BlockId,
    block_height: Height,
    view: View,
    proof: MultiSig,
    /// [`QuorumCertificate::cache_key`], hashed at most once per
    /// certificate and carried by its clones. The fields above never change
    /// after construction, so it cannot go stale.
    key: OnceLock<Digest>,
}

impl PartialEq for QuorumCertificate {
    fn eq(&self, other: &Self) -> bool {
        (self.kind, self.block_id, self.block_height, self.view)
            == (other.kind, other.block_id, other.block_height, other.view)
            && self.proof == other.proof
    }
}

impl Eq for QuorumCertificate {}

impl QuorumCertificate {
    /// The implicit certificate for the genesis block: rank 0, empty proof.
    /// All nodes start locked on this.
    pub fn genesis() -> QuorumCertificate {
        let genesis = Block::genesis().id();
        QuorumCertificate::from_parts(
            VoteKind::Normal,
            genesis,
            Height::GENESIS,
            View::GENESIS,
            MultiSig::new(),
        )
    }

    /// Assembles a certificate from signed votes.
    ///
    /// All votes must agree on `(kind, block_id, height, view)` and come from
    /// distinct voters; at least a quorum is required.
    ///
    /// # Errors
    ///
    /// [`CertificateError::MismatchedVote`] if the votes disagree,
    /// [`CertificateError::Proof`] on duplicates or below-quorum input.
    pub fn from_votes(
        votes: &[SignedVote],
        ring: &Keyring,
    ) -> Result<QuorumCertificate, CertificateError> {
        let first = votes.first().ok_or(CertificateError::Proof(
            MultiSigError::BelowThreshold { have: 0, need: ring.quorum_threshold() },
        ))?;
        let template = first.vote;
        let mut proof = MultiSig::new();
        for sv in votes {
            if sv.vote != template {
                return Err(CertificateError::MismatchedVote);
            }
            proof.add(sv.voter.signer_index(), sv.signature)?;
        }
        let qc = QuorumCertificate::from_parts(
            template.kind,
            template.block_id,
            template.block_height,
            template.view,
            proof,
        );
        qc.verify(ring)?;
        Ok(qc)
    }

    /// Assembles a certificate from votes whose signatures were already
    /// verified individually (the vote-aggregation path: protocols check
    /// each vote before buffering it). Performs the same structural checks
    /// as [`QuorumCertificate::from_votes`] — matching content, distinct
    /// voters, quorum — but no signature cryptography, so it is safe on the
    /// driver thread's hot path.
    ///
    /// # Errors
    ///
    /// [`CertificateError::MismatchedVote`] if the votes disagree,
    /// [`CertificateError::Proof`] on duplicates or below-quorum input.
    pub fn from_votes_preverified(
        votes: &[SignedVote],
        ring: &Keyring,
    ) -> Result<QuorumCertificate, CertificateError> {
        let need = ring.quorum_threshold();
        let first = votes
            .first()
            .ok_or(CertificateError::Proof(MultiSigError::BelowThreshold { have: 0, need }))?;
        let template = first.vote;
        let mut proof = MultiSig::new();
        for sv in votes {
            if sv.vote != template {
                return Err(CertificateError::MismatchedVote);
            }
            proof.add(sv.voter.signer_index(), sv.signature)?;
        }
        if proof.len() < need {
            return Err(CertificateError::Proof(MultiSigError::BelowThreshold {
                have: proof.len(),
                need,
            }));
        }
        Ok(QuorumCertificate::from_parts(
            template.kind,
            template.block_id,
            template.block_height,
            template.view,
            proof,
        ))
    }

    /// Fully verifies the certificate: quorum of valid signatures over the
    /// canonical vote bytes. The genesis certificate is always valid.
    ///
    /// # Errors
    ///
    /// [`CertificateError::Proof`] describing the first failure.
    pub fn verify(&self, ring: &Keyring) -> Result<(), CertificateError> {
        if self.is_genesis() {
            return Ok(());
        }
        let vote = Vote {
            kind: self.kind,
            block_id: self.block_id,
            block_height: self.block_height,
            view: self.view,
        };
        self.proof.verify_quorum(ring, &vote.signing_bytes())?;
        Ok(())
    }

    /// The digest keying this certificate in a [`VerifiedCache`]. Covers the
    /// certified content *and* the full proof bytes, so a different (e.g.
    /// forged) proof over the same block can never alias a cached entry.
    /// Hashed once per certificate: every node multicasts each new
    /// certificate, so a node meets n copies of it per view.
    pub fn cache_key(&self) -> Digest {
        *self.key.get_or_init(|| {
            let mut h = Sha256::new();
            h.update(b"moonshot-qc-cache");
            h.update(&[self.kind as u8]);
            h.update(self.block_id.as_bytes());
            h.update(&self.block_height.0.to_le_bytes());
            h.update(&self.view.0.to_le_bytes());
            for (signer, sig) in self.proof.iter() {
                h.update(&signer.to_le_bytes());
                h.update(&sig.to_bytes());
            }
            h.finalize()
        })
    }

    /// [`QuorumCertificate::verify`] routed through a [`VerifiedCache`]: a
    /// certificate already in the cache costs one digest and a map lookup;
    /// a miss runs the raw quorum verification and caches success. Failures
    /// are never cached.
    ///
    /// # Errors
    ///
    /// [`CertificateError::Proof`] describing the first failure.
    pub fn verify_cached(
        &self,
        ring: &Keyring,
        cache: &VerifiedCache,
    ) -> Result<(), CertificateError> {
        if self.is_genesis() {
            return Ok(());
        }
        let key = self.cache_key();
        if cache.contains(&key) {
            return Ok(());
        }
        match self.verify(ring) {
            Ok(()) => {
                cache.insert(key, self.view.0);
                Ok(())
            }
            Err(e) => {
                cache.note_rejected();
                Err(e)
            }
        }
    }

    /// Whether this is the implicit genesis certificate.
    pub fn is_genesis(&self) -> bool {
        self.view == View::GENESIS && self.proof.is_empty()
    }

    /// The certificate type (vote kind it aggregates).
    pub fn kind(&self) -> VoteKind {
        self.kind
    }

    /// The certified block.
    pub fn block_id(&self) -> BlockId {
        self.block_id
    }

    /// Height of the certified block.
    pub fn block_height(&self) -> Height {
        self.block_height
    }

    /// The view the certificate was formed in.
    pub fn view(&self) -> View {
        self.view
    }

    /// Certificate rank: certificates are ranked by view (§II.B).
    pub fn rank(&self) -> View {
        self.view
    }

    /// Whether `self` ranks at least as high as `other`.
    pub fn ranks_at_least(&self, other: &QuorumCertificate) -> bool {
        self.rank() >= other.rank()
    }

    /// Whether `self` certifies `block`.
    pub fn certifies(&self, block: &Block) -> bool {
        self.block_id == block.id()
    }

    /// The signature aggregate backing this certificate.
    pub fn proof(&self) -> &MultiSig {
        &self.proof
    }

    /// Reassembles a certificate from raw fields, e.g. one decoded off the
    /// wire. Performs **no** validation: callers that accept untrusted input
    /// must run [`QuorumCertificate::verify`] before using the result.
    pub fn from_parts(
        kind: VoteKind,
        block_id: BlockId,
        block_height: Height,
        view: View,
        proof: MultiSig,
    ) -> QuorumCertificate {
        QuorumCertificate { kind, block_id, block_height, view, proof, key: OnceLock::new() }
    }
}

impl WireSize for QuorumCertificate {
    fn wire_size(&self) -> usize {
        // kind tag + block id + height + view + proof.
        TAG_WIRE + DIGEST_WIRE + U64_WIRE * 2 + self.proof.wire_size()
    }
}

impl fmt::Debug for QuorumCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QC({:?} {} {} block={} sigs={})",
            self.kind,
            self.view,
            self.block_height,
            self.block_id.short(),
            self.proof.len()
        )
    }
}

impl fmt::Display for QuorumCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C_{}({})", self.view.0, self.block_id.short())
    }
}

/// The content of a timeout message `⟨timeout, v, lock⟩` (Pipelined /
/// Commit Moonshot) or `⟨timeout, v⟩` (Simple Moonshot, `lock_view = ⊥`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeoutContent {
    /// The view being timed out.
    pub view: View,
    /// The view of the sender's lock at the time of sending, if the protocol
    /// includes locks in timeouts.
    pub lock_view: Option<View>,
}

impl TimeoutContent {
    /// Canonical signed bytes.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        out.extend_from_slice(b"moonshot-timeout");
        out.extend_from_slice(&self.view.0.to_le_bytes());
        match self.lock_view {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&v.0.to_le_bytes());
            }
            None => out.push(0),
        }
        out
    }
}

/// A signed timeout message, optionally carrying the sender's lock
/// certificate (`lock_i`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedTimeout {
    /// The signed content.
    pub content: TimeoutContent,
    /// The sender.
    pub sender: NodeId,
    /// Signature over [`TimeoutContent::signing_bytes`].
    pub signature: Signature,
    /// The sender's lock at the time of sending (Pipelined/Commit only).
    pub lock: Option<QuorumCertificate>,
}

impl SignedTimeout {
    /// Signs a timeout for `view` carrying `lock` (pass `None` for Simple
    /// Moonshot's lock-free timeouts).
    pub fn sign(
        view: View,
        lock: Option<QuorumCertificate>,
        sender: NodeId,
        keypair: &KeyPair,
    ) -> SignedTimeout {
        let content = TimeoutContent { view, lock_view: lock.as_ref().map(|qc| qc.view()) };
        let signature = keypair.sign(&content.signing_bytes());
        SignedTimeout { content, sender, signature, lock }
    }

    /// Verifies the signature and that the attached lock (if any) matches the
    /// signed lock view and itself verifies.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(self.sender.signer_index(), &self.content.signing_bytes(), &self.signature)
            && self.lock_is_valid(|qc| qc.verify(ring).is_ok())
    }

    /// The half of a timeout's validity that is not its own signature: a
    /// lock is attached exactly when a lock view was signed, its view is
    /// that one, and it passes `check` (raw or through a cache).
    pub fn lock_is_valid(&self, check: impl FnOnce(&QuorumCertificate) -> bool) -> bool {
        match (&self.content.lock_view, &self.lock) {
            (None, None) => true,
            (Some(v), Some(qc)) => *v == qc.view() && check(qc),
            _ => false,
        }
    }

    /// The view being timed out.
    pub fn view(&self) -> View {
        self.content.view
    }
}

impl WireSize for SignedTimeout {
    fn wire_size(&self) -> usize {
        // view + optional signed lock view + sender + signature + optional
        // lock certificate (each option is a presence byte plus its value).
        U64_WIRE
            + self.content.lock_view.map_or(TAG_WIRE, |_| TAG_WIRE + U64_WIRE)
            + INDEX_WIRE
            + SIGNATURE_WIRE
            + self.lock.as_ref().map_or(TAG_WIRE, |qc| TAG_WIRE + qc.wire_size())
    }
}

/// One entry of a timeout certificate: who timed out, with which lock view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeoutEntry {
    /// The timing-out node.
    pub sender: NodeId,
    /// The lock view the sender signed (None for Simple Moonshot).
    pub lock_view: Option<View>,
    /// The sender's signature over the timeout content.
    pub signature: Signature,
}

/// A timeout certificate `TC_v`: a quorum of distinct signed timeouts for
/// view `v`, plus (for Pipelined/Commit Moonshot) the highest ranked block
/// certificate among them.
#[derive(Clone, PartialEq, Eq)]
pub struct TimeoutCertificate {
    view: View,
    entries: Vec<TimeoutEntry>,
    /// The highest ranked lock among the entries, carried in full. `None`
    /// for Simple Moonshot TCs (whose timeouts carry no locks).
    high_qc: Option<QuorumCertificate>,
}

impl TimeoutCertificate {
    /// Assembles a TC from a quorum of signed timeouts for the same view.
    ///
    /// # Errors
    ///
    /// Fails on below-quorum input, duplicate senders, invalid signatures or
    /// mismatched views.
    pub fn from_timeouts(
        timeouts: &[SignedTimeout],
        ring: &Keyring,
    ) -> Result<TimeoutCertificate, CertificateError> {
        let need = ring.quorum_threshold();
        let first = timeouts
            .first()
            .ok_or(CertificateError::BelowThreshold { have: 0, need })?;
        let view = first.view();
        let mut entries: Vec<TimeoutEntry> = Vec::with_capacity(timeouts.len());
        let mut high_qc: Option<QuorumCertificate> = None;
        for t in timeouts {
            if t.view() != view {
                return Err(CertificateError::MismatchedVote);
            }
            if !t.verify(ring) {
                return Err(CertificateError::InvalidTimeoutSignature(t.sender));
            }
            if entries.iter().any(|e| e.sender == t.sender) {
                return Err(CertificateError::DuplicateSigner(t.sender));
            }
            entries.push(TimeoutEntry {
                sender: t.sender,
                lock_view: t.content.lock_view,
                signature: t.signature,
            });
            if let Some(qc) = &t.lock {
                if high_qc.as_ref().is_none_or(|h| qc.rank() > h.rank()) {
                    high_qc = Some(qc.clone());
                }
            }
        }
        if entries.len() < need {
            return Err(CertificateError::BelowThreshold { have: entries.len(), need });
        }
        let tc = TimeoutCertificate { view, entries, high_qc };
        tc.verify(ring)?;
        Ok(tc)
    }

    /// Assembles a TC from timeouts that were already verified individually
    /// (the timeout-aggregation path). Performs the structural checks —
    /// same view, distinct senders, quorum, highest-lock extraction — but
    /// no signature cryptography.
    ///
    /// # Errors
    ///
    /// Fails on below-quorum input, duplicate senders or mismatched views.
    pub fn from_timeouts_preverified(
        timeouts: &[SignedTimeout],
        ring: &Keyring,
    ) -> Result<TimeoutCertificate, CertificateError> {
        let need = ring.quorum_threshold();
        let first = timeouts
            .first()
            .ok_or(CertificateError::BelowThreshold { have: 0, need })?;
        let view = first.view();
        let mut entries: Vec<TimeoutEntry> = Vec::with_capacity(timeouts.len());
        let mut high_qc: Option<QuorumCertificate> = None;
        for t in timeouts {
            if t.view() != view {
                return Err(CertificateError::MismatchedVote);
            }
            if entries.iter().any(|e| e.sender == t.sender) {
                return Err(CertificateError::DuplicateSigner(t.sender));
            }
            entries.push(TimeoutEntry {
                sender: t.sender,
                lock_view: t.content.lock_view,
                signature: t.signature,
            });
            if let Some(qc) = &t.lock {
                if high_qc.as_ref().is_none_or(|h| qc.rank() > h.rank()) {
                    high_qc = Some(qc.clone());
                }
            }
        }
        if entries.len() < need {
            return Err(CertificateError::BelowThreshold { have: entries.len(), need });
        }
        Ok(TimeoutCertificate { view, entries, high_qc })
    }

    /// Fully verifies the TC: quorum of distinct valid timeout signatures for
    /// this view, and the embedded high-QC matches the maximum signed lock
    /// view (and itself verifies).
    ///
    /// # Errors
    ///
    /// See [`TimeoutCertificate::from_timeouts`].
    pub fn verify(&self, ring: &Keyring) -> Result<(), CertificateError> {
        self.verify_with(ring, |qc| qc.verify(ring))
    }

    /// The digest keying this TC in a [`VerifiedCache`]. Covers the view,
    /// every entry (sender, lock view, signature bytes) and the embedded
    /// high-QC's own cache key.
    pub fn cache_key(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"moonshot-tc-cache");
        h.update(&self.view.0.to_le_bytes());
        for e in &self.entries {
            h.update(&e.sender.signer_index().to_le_bytes());
            match e.lock_view {
                Some(v) => {
                    h.update(&[1]);
                    h.update(&v.0.to_le_bytes());
                }
                None => h.update(&[0]),
            }
            h.update(&e.signature.to_bytes());
        }
        match &self.high_qc {
            Some(qc) => {
                h.update(&[1]);
                h.update(qc.cache_key().as_bytes());
            }
            None => h.update(&[0]),
        }
        h.finalize()
    }

    /// [`TimeoutCertificate::verify`] routed through a [`VerifiedCache`]: a
    /// TC already in the cache skips all signature checks, and on a miss
    /// the embedded high-QC is itself checked through the cache (it is
    /// usually a certificate the node has already verified). Success is
    /// cached; failures never are.
    ///
    /// # Errors
    ///
    /// See [`TimeoutCertificate::from_timeouts`].
    pub fn verify_cached(
        &self,
        ring: &Keyring,
        cache: &VerifiedCache,
    ) -> Result<(), CertificateError> {
        let key = self.cache_key();
        if cache.contains(&key) {
            return Ok(());
        }
        match self.verify_with(ring, |qc| qc.verify_cached(ring, cache)) {
            Ok(()) => {
                cache.insert(key, self.view.0);
                Ok(())
            }
            Err(e) => {
                cache.note_rejected();
                Err(e)
            }
        }
    }

    /// The verification skeleton, parametrized on how the embedded high-QC
    /// is checked so the cached and uncached paths share one definition.
    fn verify_with(
        &self,
        ring: &Keyring,
        check_qc: impl Fn(&QuorumCertificate) -> Result<(), CertificateError>,
    ) -> Result<(), CertificateError> {
        let need = ring.quorum_threshold();
        if self.entries.len() < need {
            return Err(CertificateError::BelowThreshold { have: self.entries.len(), need });
        }
        let mut seen = std::collections::HashSet::new();
        let mut max_lock: Option<View> = None;
        for e in &self.entries {
            if !seen.insert(e.sender) {
                return Err(CertificateError::DuplicateSigner(e.sender));
            }
            let content = TimeoutContent { view: self.view, lock_view: e.lock_view };
            if !ring.verify(e.sender.signer_index(), &content.signing_bytes(), &e.signature) {
                return Err(CertificateError::InvalidTimeoutSignature(e.sender));
            }
            if let Some(v) = e.lock_view {
                if max_lock.is_none_or(|m| v > m) {
                    max_lock = Some(v);
                }
            }
        }
        match (&self.high_qc, max_lock) {
            (None, None) => Ok(()),
            (Some(qc), Some(max)) if qc.view() == max => {
                check_qc(qc)?;
                Ok(())
            }
            _ => Err(CertificateError::HighQcMismatch),
        }
    }

    /// The view this TC certifies the failure of.
    pub fn view(&self) -> View {
        self.view
    }

    /// The highest ranked block certificate among the included timeouts.
    pub fn high_qc(&self) -> Option<&QuorumCertificate> {
        self.high_qc.as_ref()
    }

    /// The participating senders.
    pub fn senders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.sender)
    }

    /// Number of distinct timeout entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TC carries no entries (never true for a valid TC).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw timeout entries, in assembly order.
    pub fn entries(&self) -> &[TimeoutEntry] {
        &self.entries
    }

    /// Reassembles a TC from raw fields, e.g. decoded off the wire. Performs
    /// **no** validation: callers that accept untrusted input must run
    /// [`TimeoutCertificate::verify`] before using the result.
    pub fn from_parts(
        view: View,
        entries: Vec<TimeoutEntry>,
        high_qc: Option<QuorumCertificate>,
    ) -> TimeoutCertificate {
        TimeoutCertificate { view, entries, high_qc }
    }
}

impl WireSize for TimeoutEntry {
    fn wire_size(&self) -> usize {
        INDEX_WIRE
            + self.lock_view.map_or(TAG_WIRE, |_| TAG_WIRE + U64_WIRE)
            + SIGNATURE_WIRE
    }
}

impl WireSize for TimeoutCertificate {
    fn wire_size(&self) -> usize {
        // View + length-prefixed entries; the high-QC rides along in full.
        // Linear in n even with threshold signatures (§IV).
        U64_WIRE
            + VEC_LEN_WIRE
            + self.entries.iter().map(WireSize::wire_size).sum::<usize>()
            + self.high_qc.as_ref().map_or(TAG_WIRE, |qc| TAG_WIRE + qc.wire_size())
    }
}

impl fmt::Debug for TimeoutCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TC({} entries={} high_qc={:?})",
            self.view,
            self.entries.len(),
            self.high_qc.as_ref().map(|qc| qc.view())
        )
    }
}

/// Either kind of certificate that lets a node enter a new view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EntryCertificate {
    /// A block certificate for the previous view.
    Block(QuorumCertificate),
    /// A timeout certificate for the previous view.
    Timeout(TimeoutCertificate),
}

impl EntryCertificate {
    /// The view this certificate completes (the view *entered* is the next).
    pub fn completed_view(&self) -> View {
        match self {
            EntryCertificate::Block(qc) => qc.view(),
            EntryCertificate::Timeout(tc) => tc.view(),
        }
    }
}

impl WireSize for EntryCertificate {
    fn wire_size(&self) -> usize {
        match self {
            EntryCertificate::Block(qc) => qc.wire_size(),
            EntryCertificate::Timeout(tc) => tc.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    fn ring() -> Keyring {
        Keyring::simulated(4)
    }

    fn kp(i: u16) -> KeyPair {
        KeyPair::from_seed(i as u64)
    }

    fn block_at_view(v: u64) -> Block {
        Block::build(View(v), NodeId(0), &Block::genesis(), Payload::empty())
    }

    fn votes_for(block: &Block, kind: VoteKind, voters: &[u16]) -> Vec<SignedVote> {
        voters
            .iter()
            .map(|&i| {
                SignedVote::sign(
                    Vote {
                        kind,
                        block_id: block.id(),
                        block_height: block.height(),
                        view: block.view(),
                    },
                    NodeId(i),
                    &kp(i),
                )
            })
            .collect()
    }

    #[test]
    fn assemble_and_verify_qc() {
        let b = block_at_view(1);
        let qc =
            QuorumCertificate::from_votes(&votes_for(&b, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        assert!(qc.verify(&ring()).is_ok());
        assert!(qc.certifies(&b));
        assert_eq!(qc.rank(), View(1));
    }

    #[test]
    fn below_quorum_rejected() {
        let b = block_at_view(1);
        let err =
            QuorumCertificate::from_votes(&votes_for(&b, VoteKind::Normal, &[0, 1]), &ring())
                .unwrap_err();
        assert!(matches!(err, CertificateError::Proof(MultiSigError::BelowThreshold { .. })));
    }

    #[test]
    fn mixed_vote_kinds_rejected() {
        let b = block_at_view(1);
        let mut votes = votes_for(&b, VoteKind::Normal, &[0, 1]);
        votes.extend(votes_for(&b, VoteKind::Optimistic, &[2]));
        assert_eq!(
            QuorumCertificate::from_votes(&votes, &ring()).unwrap_err(),
            CertificateError::MismatchedVote
        );
    }

    #[test]
    fn duplicate_voter_rejected() {
        let b = block_at_view(1);
        let mut votes = votes_for(&b, VoteKind::Normal, &[0, 1, 2]);
        votes.push(votes[0].clone());
        assert!(matches!(
            QuorumCertificate::from_votes(&votes, &ring()).unwrap_err(),
            CertificateError::Proof(MultiSigError::DuplicateSigner(0))
        ));
    }

    #[test]
    fn mixed_blocks_rejected() {
        let a = block_at_view(1);
        let b = Block::build(View(1), NodeId(1), &Block::genesis(), Payload::synthetic_items(1, 9));
        let mut votes = votes_for(&a, VoteKind::Normal, &[0, 1]);
        votes.extend(votes_for(&b, VoteKind::Normal, &[2]));
        assert_eq!(
            QuorumCertificate::from_votes(&votes, &ring()).unwrap_err(),
            CertificateError::MismatchedVote
        );
    }

    #[test]
    fn genesis_qc_always_verifies() {
        let qc = QuorumCertificate::genesis();
        assert!(qc.is_genesis());
        assert!(qc.verify(&ring()).is_ok());
        assert_eq!(qc.rank(), View::GENESIS);
    }

    #[test]
    fn rank_ordering() {
        let b1 = block_at_view(1);
        let b2 = block_at_view(2);
        let q1 =
            QuorumCertificate::from_votes(&votes_for(&b1, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        let q2 = QuorumCertificate::from_votes(
            &votes_for(&b2, VoteKind::Optimistic, &[0, 1, 2]),
            &ring(),
        )
        .unwrap();
        assert!(q2.ranks_at_least(&q1));
        assert!(!q1.ranks_at_least(&q2));
        assert!(q1.ranks_at_least(&q1));
    }

    fn timeouts(view: u64, lock: Option<&QuorumCertificate>, senders: &[u16]) -> Vec<SignedTimeout> {
        senders
            .iter()
            .map(|&i| SignedTimeout::sign(View(view), lock.cloned(), NodeId(i), &kp(i)))
            .collect()
    }

    #[test]
    fn tc_from_lockless_timeouts() {
        let tc = TimeoutCertificate::from_timeouts(&timeouts(3, None, &[0, 1, 2]), &ring()).unwrap();
        assert_eq!(tc.view(), View(3));
        assert!(tc.high_qc().is_none());
        assert!(tc.verify(&ring()).is_ok());
    }

    #[test]
    fn tc_extracts_highest_lock() {
        let b1 = block_at_view(1);
        let b2 = block_at_view(2);
        let q1 =
            QuorumCertificate::from_votes(&votes_for(&b1, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        let q2 =
            QuorumCertificate::from_votes(&votes_for(&b2, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        let mut ts = timeouts(5, Some(&q1), &[0, 1]);
        ts.extend(timeouts(5, Some(&q2), &[2]));
        let tc = TimeoutCertificate::from_timeouts(&ts, &ring()).unwrap();
        assert_eq!(tc.high_qc().unwrap().view(), View(2));
        assert!(tc.verify(&ring()).is_ok());
    }

    #[test]
    fn tc_below_quorum_rejected() {
        let err = TimeoutCertificate::from_timeouts(&timeouts(3, None, &[0, 1]), &ring())
            .unwrap_err();
        assert_eq!(err, CertificateError::BelowThreshold { have: 2, need: 3 });
    }

    #[test]
    fn tc_duplicate_sender_rejected() {
        let mut ts = timeouts(3, None, &[0, 1, 2]);
        ts.push(ts[0].clone());
        assert_eq!(
            TimeoutCertificate::from_timeouts(&ts, &ring()).unwrap_err(),
            CertificateError::DuplicateSigner(NodeId(0))
        );
    }

    #[test]
    fn tc_mixed_views_rejected() {
        let mut ts = timeouts(3, None, &[0, 1]);
        ts.extend(timeouts(4, None, &[2]));
        assert_eq!(
            TimeoutCertificate::from_timeouts(&ts, &ring()).unwrap_err(),
            CertificateError::MismatchedVote
        );
    }

    #[test]
    fn tampered_high_qc_detected() {
        let b1 = block_at_view(1);
        let q1 =
            QuorumCertificate::from_votes(&votes_for(&b1, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        let mut tc =
            TimeoutCertificate::from_timeouts(&timeouts(5, Some(&q1), &[0, 1, 2]), &ring())
                .unwrap();
        // An adversary strips the high-QC: verification must fail.
        tc.high_qc = None;
        assert_eq!(tc.verify(&ring()).unwrap_err(), CertificateError::HighQcMismatch);
    }

    #[test]
    fn timeout_signature_covers_lock_view() {
        let b1 = block_at_view(1);
        let q1 =
            QuorumCertificate::from_votes(&votes_for(&b1, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        let mut t = SignedTimeout::sign(View(5), Some(q1), NodeId(0), &kp(0));
        assert!(t.verify(&ring()));
        // Swapping the lock for a different view must invalidate.
        t.lock = Some(QuorumCertificate::genesis());
        assert!(!t.verify(&ring()));
    }

    #[test]
    fn entry_certificate_views() {
        let b1 = block_at_view(1);
        let q1 =
            QuorumCertificate::from_votes(&votes_for(&b1, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        assert_eq!(EntryCertificate::Block(q1).completed_view(), View(1));
        let tc = TimeoutCertificate::from_timeouts(&timeouts(7, None, &[0, 1, 2]), &ring()).unwrap();
        assert_eq!(EntryCertificate::Timeout(tc).completed_view(), View(7));
    }

    #[test]
    fn preverified_assembly_matches_checked_assembly() {
        let b = block_at_view(1);
        let votes = votes_for(&b, VoteKind::Normal, &[0, 1, 2]);
        let checked = QuorumCertificate::from_votes(&votes, &ring()).unwrap();
        let pre = QuorumCertificate::from_votes_preverified(&votes, &ring()).unwrap();
        assert_eq!(checked, pre);
        assert!(QuorumCertificate::from_votes_preverified(&votes[..2], &ring()).is_err());

        let ts = timeouts(3, None, &[0, 1, 2]);
        let checked = TimeoutCertificate::from_timeouts(&ts, &ring()).unwrap();
        let pre = TimeoutCertificate::from_timeouts_preverified(&ts, &ring()).unwrap();
        assert_eq!(checked, pre);
        assert!(TimeoutCertificate::from_timeouts_preverified(&ts[..2], &ring()).is_err());
    }

    #[test]
    fn duplicate_qc_delivery_verifies_raw_exactly_once() {
        let cache = VerifiedCache::default();
        let b = block_at_view(1);
        let qc =
            QuorumCertificate::from_votes(&votes_for(&b, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        // First delivery: one miss, one raw quorum verification, cached.
        assert!(qc.verify_cached(&ring(), &cache).is_ok());
        // Re-deliveries (same cert embedded in proposals, certificates,
        // timeouts...) are pure cache hits.
        for _ in 0..5 {
            assert!(qc.verify_cached(&ring(), &cache).is_ok());
        }
        let s = cache.stats();
        assert!(s.hits > 0);
        // misses == raw multisig verifications: exactly one per unique cert.
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 1);
    }

    #[test]
    fn forged_qc_rejected_after_miss_and_never_cached() {
        let cache = VerifiedCache::default();
        let b = block_at_view(1);
        let qc =
            QuorumCertificate::from_votes(&votes_for(&b, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        // Forge: reuse the valid proof for a different block's certificate.
        let other = Block::build(View(1), NodeId(1), &Block::genesis(), Payload::synthetic_items(1, 7));
        let forged = QuorumCertificate::from_parts(
            VoteKind::Normal,
            other.id(),
            other.height(),
            View(1),
            qc.proof().clone(),
        );
        assert_ne!(forged.cache_key(), qc.cache_key());
        for _ in 0..3 {
            assert!(forged.verify_cached(&ring(), &cache).is_err());
        }
        let s = cache.stats();
        // Every delivery is a fresh miss + reject: failures are never cached.
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 3);
        assert_eq!(s.rejects, 3);
        assert_eq!(s.len, 0);
        // The genuine certificate still verifies and caches normally.
        assert!(qc.verify_cached(&ring(), &cache).is_ok());
        assert!(qc.verify_cached(&ring(), &cache).is_ok());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn forged_proof_does_not_alias_cached_body() {
        let cache = VerifiedCache::default();
        let b = block_at_view(1);
        let qc =
            QuorumCertificate::from_votes(&votes_for(&b, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        assert!(qc.verify_cached(&ring(), &cache).is_ok());
        // Same certified content, different (garbage) proof: the key covers
        // the proof bytes, so this cannot ride the cached entry.
        let mut bad_proof = MultiSig::new();
        for i in 0..3u16 {
            bad_proof.add(i, kp(i).sign(b"not the vote bytes")).unwrap();
        }
        let forged = QuorumCertificate::from_parts(
            qc.kind(),
            qc.block_id(),
            qc.block_height(),
            qc.view(),
            bad_proof,
        );
        assert_ne!(forged.cache_key(), qc.cache_key());
        assert!(forged.verify_cached(&ring(), &cache).is_err());
    }

    #[test]
    fn tc_verify_cached_hits_and_routes_inner_qc() {
        let cache = VerifiedCache::default();
        let b1 = block_at_view(1);
        let q1 =
            QuorumCertificate::from_votes(&votes_for(&b1, VoteKind::Normal, &[0, 1, 2]), &ring())
                .unwrap();
        // The node verified the lock QC earlier (e.g. from a proposal).
        assert!(q1.verify_cached(&ring(), &cache).is_ok());
        let tc =
            TimeoutCertificate::from_timeouts(&timeouts(5, Some(&q1), &[0, 1, 2]), &ring())
                .unwrap();
        assert!(tc.verify_cached(&ring(), &cache).is_ok());
        // The TC miss routed its embedded high-QC through the cache: hit.
        let s = cache.stats();
        assert!(s.hits >= 1, "inner QC should hit: {s:?}");
        assert!(tc.verify_cached(&ring(), &cache).is_ok());
        assert_eq!(cache.stats().hits, s.hits + 1);
        // A tampered TC is a miss + reject, never cached.
        let mut stripped = tc.clone();
        stripped.high_qc = None;
        assert!(stripped.verify_cached(&ring(), &cache).is_err());
        assert_eq!(cache.stats().rejects, 1);
    }

    #[test]
    fn tc_wire_size_linear_in_entries() {
        let t3 = TimeoutCertificate::from_timeouts(&timeouts(3, None, &[0, 1, 2]), &ring()).unwrap();
        let t4 =
            TimeoutCertificate::from_timeouts(&timeouts(3, None, &[0, 1, 2, 3]), &ring()).unwrap();
        assert!(t4.wire_size() > t3.wire_size());
    }
}
