//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The Moonshot paper hashes blocks to form parent links (`H(B_{k-1})`) and
//! signs message digests. We implement SHA-256 in-crate rather than pulling a
//! dependency so that the entire substrate of the reproduction is auditable.
//! The implementation is validated against the NIST test vectors in the unit
//! tests at the bottom of this module.
//!
//! The compression function comes in two forms with byte-identical results:
//! a portable one, and on x86_64 a kernel on the SHA extensions
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`), picked at run time when the
//! CPU reports `sha` and `sse4.1`. The kernel is safe code; the one `unsafe`
//! in this crate is the call into it after that check. The tests run the
//! NIST vectors through each form and compare the two on every length up
//! to 1 KiB.

use std::fmt;


/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 256-bit digest produced by [`Sha256`].
///
/// Digests identify blocks in the chain (`H(B)` in the paper) and are the
/// payload of vote messages. They order lexicographically, hash cheaply and
/// print as hex.
///
/// # Examples
///
/// ```
/// use moonshot_crypto::sha256::Digest;
/// let d = Digest::hash(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest, used as the parent link of the genesis block (⊥).
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Hashes `data` with SHA-256 in one shot.
    pub fn hash(data: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of several byte slices without allocating.
    pub fn hash_parts(parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Returns a short hex prefix, convenient for log lines.
    pub fn short(&self) -> String {
        let mut s = String::with_capacity(8);
        for b in &self.0[..4] {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::ZERO
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use moonshot_crypto::sha256::{Digest, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Digest::hash(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled message block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`update`](Sha256::update) through the compressor `f`: at most one
    /// call for the buffered block and one for every whole block of `data`.
    fn update_with(&mut self, data: &[u8], f: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            f(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            f(&mut self.state, &rest[..whole]);
        }
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`finalize`](Sha256::finalize) through the compressor `f`.
    fn finalize_with(mut self, f: Compress) -> Digest {
        // Append 0x80, zero-pad to 56 mod 64, then the 64-bit bit length:
        // one block, or two when fewer than 9 bytes are left in this one.
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let len = if self.buf_len < 56 { 64 } else { 128 };
        pad[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        f(&mut self.state, &pad[..len]);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// A compression function applied to `blocks`, whose length is a multiple
/// of 64: one 512-bit block after another, in order.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The compressor this CPU runs: the SHA-extension kernel where the CPU
/// has it, the portable one elsewhere. Both give the same state.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    match accelerated() {
        Some(f) => f(state, blocks),
        None => compress_portable(state, blocks),
    }
}

/// The SHA-extension compressor, if this CPU has the extensions it needs.
/// (The standard library caches the CPU check, so this is a couple of
/// loads per call.)
fn accelerated() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1") {
        return Some(|state, blocks| {
            // SAFETY: `shani::compress` needs the `sha` and `sse4.1` target
            // features, and this closure is only handed out after the CPU
            // reported both just above. Its body is safe code: intrinsics
            // on register values, and slice indexing that is bounds checked.
            #[allow(unsafe_code)]
            unsafe {
                shani::compress(state, blocks)
            }
        });
    }
    None
}

/// The portable SHA-256 compression function (FIPS 180-4, §6.2.2).
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions.
///
/// `sha256rnds2` runs two rounds on the state held as two vectors,
/// `ABEF` and `CDGH`; `sha256msg1` and `sha256msg2` extend the message
/// schedule four words at a time. The state is shuffled into that layout
/// once per call and back once at the end, whatever the number of blocks.
/// Vectors are built from words (`_mm_set_epi32`) and read back with
/// `_mm_extract_epi32`, so the kernel dereferences no pointer.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Four rounds: `w` holds message words `4i..4i+4`, low lane first.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// Extends the schedule by four words from the sixteen before them
    /// (`$w0` oldest), stores them in `$next` and runs their four rounds.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $next:ident,
         $i:expr) => {{
            let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            $next = _mm_sha256msg2_epu32(t, $w3);
            rounds4!($abef, $cdgh, $next, $i);
        }};
    }

    /// Compresses every 64-byte block of `blocks` into `state`.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let s = state.map(|v| v as i32);
        let dcba = _mm_set_epi32(s[3], s[2], s[1], s[0]);
        let hgfe = _mm_set_epi32(s[7], s[6], s[5], s[4]);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
            let word = |i: usize| {
                let b = &block[4 * i..4 * i + 4];
                i32::from_be_bytes([b[0], b[1], b[2], b[3]])
            };
            let words = |j: usize| _mm_set_epi32(word(j + 3), word(j + 2), word(j + 1), word(j));
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = words(0);
            let mut w1 = words(4);
            let mut w2 = words(8);
            let mut w3 = words(12);
            let mut w4: __m128i;

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32::<0>(dcba),
            _mm_extract_epi32::<1>(dcba),
            _mm_extract_epi32::<2>(dcba),
            _mm_extract_epi32::<3>(dcba),
            _mm_extract_epi32::<0>(hgef),
            _mm_extract_epi32::<1>(hgef),
            _mm_extract_epi32::<2>(hgef),
            _mm_extract_epi32::<3>(hgef),
        ]
        .map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.to_string()
    }

    /// The NIST examples (FIPS 180-4 and its example sets), message → digest.
    fn nist_vectors() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// Hashes the concatenation of `parts` through the compressor `f`.
    fn hash_with(f: Compress, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update_with(p, f);
        }
        h.finalize_with(f)
    }

    /// The accelerated compressor, or `None` after saying the test skips it.
    fn accelerated_or_skip(test: &str) -> Option<Compress> {
        let f = accelerated();
        if f.is_none() {
            println!("{test}: skipped, this CPU lacks the SHA extensions (sha, sse4.1)");
        }
        f
    }

    #[test]
    fn nist_vectors_through_the_dispatched_compressor() {
        for (msg, want) in nist_vectors() {
            assert_eq!(hex(&Digest::hash(&msg)), want, "{} bytes", msg.len());
        }
    }

    #[test]
    fn nist_vectors_through_the_portable_compressor() {
        for (msg, want) in nist_vectors() {
            assert_eq!(
                hex(&hash_with(compress_portable, &[&msg])),
                want,
                "{} bytes",
                msg.len()
            );
        }
    }

    #[test]
    fn nist_vectors_through_the_accelerated_compressor() {
        let Some(f) = accelerated_or_skip("nist_vectors_through_the_accelerated_compressor") else {
            return;
        };
        for (msg, want) in nist_vectors() {
            assert_eq!(hex(&hash_with(f, &[&msg])), want, "{} bytes", msg.len());
        }
    }

    /// Every length from 0 to 1 024 bytes, each fed in up to four `update`
    /// calls split at seeded random points: the accelerated compressor
    /// must land on the portable one's digest, and so must a one-shot hash.
    #[test]
    fn accelerated_and_portable_compressors_agree_on_every_length() {
        let Some(f) =
            accelerated_or_skip("accelerated_and_portable_compressors_agree_on_every_length")
        else {
            return;
        };
        let mut rng = moonshot_rng::DetRng::seed_from_u64(0x5a256);
        let data = rng.gen_bytes(1_024);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let mut cuts: Vec<usize> = (0..3)
                .map(|_| rng.gen_below(len as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            let parts = [
                &msg[..cuts[0]],
                &msg[cuts[0]..cuts[1]],
                &msg[cuts[1]..cuts[2]],
                &msg[cuts[2]..],
            ];
            let portable = hash_with(compress_portable, &[msg]);
            assert_eq!(hash_with(f, &parts), portable, "len {len}, cuts {cuts:?}");
            assert_eq!(
                hash_with(compress_portable, &parts),
                portable,
                "len {len}, cuts {cuts:?}"
            );
            assert_eq!(Digest::hash(msg), portable, "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 100, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Digest::hash(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Digest::hash(&data));
    }

    #[test]
    fn hash_parts_matches_concatenation() {
        let a = b"part one |";
        let b = b" part two |";
        let c = b" part three";
        let mut whole = Vec::new();
        whole.extend_from_slice(a);
        whole.extend_from_slice(b);
        whole.extend_from_slice(c);
        assert_eq!(Digest::hash_parts(&[a, b, c]), Digest::hash(&whole));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Exercise every interesting length around the 55/56/64-byte padding
        // boundaries against the incremental implementation's self-consistency
        // plus a couple of externally known values.
        for len in 0..130usize {
            let data = vec![0xa5u8; len];
            let one = Digest::hash(&data);
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }

    #[test]
    fn digest_display_and_short() {
        let d = Digest::hash(b"abc");
        assert_eq!(d.short(), "ba7816bf");
        assert_eq!(format!("{d:?}"), "Digest(ba7816bf)");
        assert_eq!(d.to_string().len(), 64);
    }

    #[test]
    fn zero_digest_is_default() {
        assert_eq!(Digest::default(), Digest::ZERO);
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 32]);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Not a collision test, just a sanity check over a small corpus.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u32 {
            assert!(seen.insert(Digest::hash(&i.to_le_bytes())));
        }
    }
}
