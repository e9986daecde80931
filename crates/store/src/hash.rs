//! SHA-256, implemented locally so content addressing does not depend on
//! unavailable external crates.
//!
//! The store uses SHA-256 both for cache keys (hashes of artifact *input
//! descriptions*) and for payload checksums (hashes of artifact *bytes*).
//! A 256-bit digest makes accidental collisions a non-concern at any
//! realistic experiment-matrix size.
//!
//! Every block goes through one `compress_blocks`, which runs the x86
//! SHA-NI kernel when the CPU has it and the portable implementation
//! otherwise; the digests are identical either way.

/// A 256-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hex rendering (64 characters).
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
            s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
        }
        s
    }

    /// Parses a 64-character hex string.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 64 || !s.is_ascii() {
            return None;
        }
        let bytes = s.as_bytes();
        let mut out = [0u8; 32];
        for (i, o) in out.iter_mut().enumerate() {
            let hi = (bytes[2 * i] as char).to_digit(16)?;
            let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
            *o = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

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

/// Incremental SHA-256 state.
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.h, std::slice::from_ref(&self.buf));
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        compress_blocks(&mut self.h, blocks);
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes the hash and returns the digest.
    #[must_use]
    pub fn finish(mut self) -> Digest {
        // Padding: the buffered bytes, 0x80, zeros up to 8 bytes short of
        // a block boundary, then the message length in bits (big-endian).
        // That is one block when the 0x80 and the length fit after the
        // buffered bytes, two otherwise.
        let mut tail = [[0u8; 64]; 2];
        let n_blocks = if self.buf_len < 56 { 1 } else { 2 };
        let bytes = tail.as_flattened_mut();
        bytes[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        bytes[self.buf_len] = 0x80;
        bytes[64 * n_blocks - 8..64 * n_blocks]
            .copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.h, &tail[..n_blocks]);
        let mut out = [0u8; 32];
        for (chunk, v) in out.chunks_exact_mut(4).zip(self.h) {
            chunk.copy_from_slice(&v.to_be_bytes());
        }
        Digest(out)
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }
}

/// Compresses `blocks` into `state`, in order. Every block of every hash
/// goes through here: on x86_64 CPUs with the SHA extensions it runs the
/// SHA-NI kernel, elsewhere the portable [`compress`]. Both give the same
/// state bit for bit (see the tests), so the choice is invisible outside
/// this function.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `detected` has just confirmed that the CPU supports every
        // feature the kernel is compiled for.
        unsafe { sha_ni::compress_blocks(state, blocks) };
        return;
    }
    compress(state, blocks);
}

/// The portable SHA-256 compression function (FIPS 180-4, section 6.2.2)
/// over each block in turn: the fallback on CPUs without SHA-NI and the
/// oracle the kernel is tested against.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
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

/// SHA-256 on the x86 SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`), about five times the portable throughput.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// True if this CPU can run [`compress_blocks`]. `std` caches the
    /// CPUID probe, so this is a few loads per call.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` into `state`, in order, exactly like the
    /// portable `compress` applied to each block.
    ///
    /// The hardware rounds work on the state as two vectors, `abef` and
    /// `cdgh` (lane 3 first), and take the message four words at a time;
    /// `sha256msg1`/`sha256msg2` extend the message schedule four words per
    /// step from the previous sixteen.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` features, as
    /// [`detected`] reports (`sse2` is part of the x86_64 baseline).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte shuffle turning each big-endian message word little-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 bytes, so both 16-byte unaligned loads at
        // offsets 0 and 16 stay inside it.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 bytes, so the four 16-byte unaligned
            // loads at offsets 0, 16, 32 and 48 stay inside it.
            let mut w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [p, p.add(1), p.add(2), p.add(3)]
                    .map(|q| _mm_shuffle_epi8(_mm_loadu_si128(q), be_words))
            };
            // Rounds 4i..4i+4 consume message words 4i..4i+4, kept in
            // `w[i % 4]`. From i = 4 on, that slot first takes the next
            // four schedule words, computed from the groups of four that
            // start 16, 12, 8 and 4 words back (`w16`..`w4`): the four
            // slots' current contents.
            for i in 0..16 {
                if i >= 4 {
                    let (w16, w12, w8, w4) =
                        (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                    w[i % 4] = _mm_sha256msg2_epu32(partial, w4);
                }
                // SAFETY: `i < 16`, so the 16-byte load at `K[4 * i]` ends
                // at `K[4 * i + 3]`, inside the 64 round constants.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>()) };
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above, both 16-byte unaligned stores
        // stay inside the 32-byte `state`.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    /// A compression kernel: `state` absorbs `blocks` in order.
    type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

    /// The SHA-NI kernel, or `None` on a CPU without it. A `None` is
    /// announced on the process's stderr, which the test harness does not
    /// capture, so a skipped hardware comparison shows even in a passing
    /// run instead of passing silently.
    fn sha_ni_kernel(test: &str) -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            return Some(|state, blocks| {
                // SAFETY: `detected` has confirmed the CPU features the
                // kernel is compiled for.
                unsafe { sha_ni::compress_blocks(state, blocks) }
            });
        }
        let _ = writeln!(
            std::io::stderr(),
            "{test}: SKIPPED the SHA-NI comparison: this CPU lacks SHA-NI"
        );
        None
    }

    /// `data` with FIPS 180-4 padding, as whole blocks. Written out apart
    /// from `Sha256::finish` so the two check each other.
    fn padded_blocks(data: &[u8]) -> Vec<[u8; 64]> {
        let mut m = data.to_vec();
        m.push(0x80);
        while m.len() % 64 != 56 {
            m.push(0);
        }
        m.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        m.as_chunks::<64>().0.to_vec()
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> Digest {
        let mut state = Sha256::new().h;
        kernel(&mut state, &padded_blocks(data));
        let mut out = [0u8; 32];
        for (chunk, v) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&v.to_be_bytes());
        }
        Digest(out)
    }

    /// `len` deterministic pseudo-random bytes (splitmix64).
    fn test_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    // NIST FIPS 180-4 test vectors.
    const NIST: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];

    #[test]
    fn nist_vectors_match_on_every_kernel() {
        let hw = sha_ni_kernel("nist_vectors_match_on_every_kernel");
        for (data, hex) in NIST {
            assert_eq!(Sha256::digest(data).to_hex(), hex);
            assert_eq!(digest_with(compress, data).to_hex(), hex);
            if let Some(hw) = hw {
                assert_eq!(digest_with(hw, data).to_hex(), hex);
            }
        }
    }

    #[test]
    fn every_length_to_1024_matches_portable() {
        let hw = sha_ni_kernel("every_length_to_1024_matches_portable");
        for len in 0..=1024 {
            let data = test_bytes(len, len as u64);
            let want = digest_with(compress, &data);
            assert_eq!(Sha256::digest(&data), want, "len {len}");
            if let Some(hw) = hw {
                assert_eq!(digest_with(hw, &data), want, "SHA-NI, len {len}");
            }
        }
    }

    #[test]
    fn random_update_splits_match_portable() {
        // `Sha256` runs the kernel this CPU selects: on SHA-NI hardware
        // these splits drive it with every block-run length `update` makes.
        let _ = sha_ni_kernel("random_update_splits_match_portable");
        let data = test_bytes(8 * 1024 + 37, 7);
        let want = digest_with(compress, &data);
        let mut cuts = test_bytes(4096, 99).into_iter();
        for _ in 0..50 {
            let mut h = Sha256::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                // Mostly short pieces, sometimes several blocks at once.
                let c = usize::from(cuts.next().expect("enough cut bytes"));
                let take = if c < 200 { c % 70 } else { c * 4 }.min(rest.len());
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(h.finish(), want);
        }
    }

    #[test]
    fn one_mib_buffer_matches_portable() {
        let hw = sha_ni_kernel("one_mib_buffer_matches_portable");
        let data = test_bytes((1 << 20) + 13, 1);
        let want = digest_with(compress, &data);
        assert_eq!(Sha256::digest(&data), want);
        if let Some(hw) = hw {
            assert_eq!(digest_with(hw, &data), want);
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), Sha256::digest(&data));
    }

    #[test]
    fn million_a_matches_nist_vector() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            h.finish().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hex_roundtrip() {
        let d = Sha256::digest(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"a".repeat(63)), None);
    }
}
