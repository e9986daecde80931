//! Global branch history: a long shift register plus one incrementally
//! folded register per perceptron table.
//!
//! Each hashed-perceptron table indexes with its history length (see
//! [`history_lengths`]) XOR-folded down to the predictor's index width `w`:
//! history bit `i` (0 = most recent) lands on bit `i mod w` of the fold.
//! Re-folding up to 232 bits on every lookup is what a straightforward model
//! does; [`GlobalHistory`] instead keeps each table's fold in a `w`-bit
//! register and updates it in O(1) per [`GlobalHistory::push`] with the
//! TAGE circular-shift update: rotate left by one inside `w` bits, XOR in
//! the new outcome at bit 0, and XOR out the bit leaving the table's window
//! at bit `len mod w`. The width is fixed when the history is built
//! ([`GlobalHistory::new`] uses the paper's 12 bits;
//! `HashedPerceptron::new_history` builds any other). [`GlobalHistory::fold`]
//! recomputes a fold from the raw bits and serves as the definitional oracle
//! the registers are tested against.
//!
//! [`history_lengths`]: crate::history_lengths

use crate::perceptron::{history_lengths, NUM_TABLES};

/// Maximum history length supported, matching the paper's 0–232 bit
/// perceptron histories.
pub const MAX_HISTORY_BITS: usize = 256;

const WORDS: usize = MAX_HISTORY_BITS / 64;

/// Fold width of the paper's 64 KB perceptron (4K entries per table).
const PAPER_FOLD_BITS: usize = 12;

/// Where one table's folded register taps the raw history, precomputed so
/// that a push does no division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tap {
    /// Word and bit of history offset `len`: the bit that has just left
    /// the table's window after a push.
    word: u8,
    bit: u8,
    /// `len mod width`: where that bit sits in the folded register.
    pos: u8,
    /// The register's `width` low bits, or 0 for the history-less table.
    mask: u32,
}

/// A global history register of up to [`MAX_HISTORY_BITS`] outcomes,
/// most-recent outcome in bit 0, with one folded register per perceptron
/// table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHistory {
    words: [u64; WORDS],
    folded: [u32; NUM_TABLES],
    taps: [Tap; NUM_TABLES],
    width: u32,
}

impl Default for GlobalHistory {
    fn default() -> Self {
        GlobalHistory::new()
    }
}

impl GlobalHistory {
    /// Creates an all-zero (not-taken) history folded to the paper
    /// perceptron's 12-bit index width.
    #[must_use]
    pub fn new() -> Self {
        GlobalHistory::with_fold_width(PAPER_FOLD_BITS)
    }

    /// Creates an all-zero history whose per-table registers fold to
    /// `width` bits.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than 32.
    pub(crate) fn with_fold_width(width: usize) -> Self {
        assert!(width > 0 && width <= 32, "fold width out of range");
        let mut taps = [Tap {
            word: 0,
            bit: 0,
            pos: 0,
            mask: 0,
        }; NUM_TABLES];
        for (tap, len) in taps.iter_mut().zip(history_lengths()) {
            assert!(len < MAX_HISTORY_BITS, "history length out of range");
            if len > 0 {
                *tap = Tap {
                    word: (len / 64) as u8,
                    bit: (len % 64) as u8,
                    pos: (len % width) as u8,
                    mask: u32::MAX >> (32 - width),
                };
            }
        }
        GlobalHistory {
            words: [0; WORDS],
            folded: [0; NUM_TABLES],
            taps,
            width: width as u32,
        }
    }

    /// Width in bits of the folded registers.
    #[must_use]
    pub fn fold_width(&self) -> usize {
        self.width as usize
    }

    /// Table `table`'s folded register: equal to
    /// `self.fold(history_lengths()[table], self.fold_width())`.
    #[inline]
    #[must_use]
    pub fn folded(&self, table: usize) -> u64 {
        u64::from(self.folded[table])
    }

    /// Shifts in one outcome (true = taken) as the most recent bit and
    /// updates every folded register.
    pub fn push(&mut self, taken: bool) {
        let mut carry = u64::from(taken);
        for w in &mut self.words {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        let new = u32::from(taken);
        let top = self.width - 1;
        for (f, tap) in self.folded.iter_mut().zip(&self.taps) {
            let out = ((self.words[usize::from(tap.word)] >> tap.bit) & 1) as u32;
            let rotated = (*f << 1) | (*f >> top);
            *f = (rotated ^ new ^ (out << tap.pos)) & tap.mask;
        }
    }

    /// Returns the most recent `n` bits (`n <= 64`) as an integer.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[must_use]
    pub fn recent(&self, n: usize) -> u64 {
        assert!(n <= 64, "recent() supports at most 64 bits");
        if n == 0 {
            0
        } else {
            self.words[0] & (u64::MAX >> (64 - n))
        }
    }

    /// XOR-folds the most recent `len` history bits down to `out_bits` bits.
    ///
    /// This is the classic folded-history indexing used by geometric-history
    /// predictors: the history is split into `out_bits`-wide chunks which are
    /// XORed together. The predictor reads the incrementally maintained
    /// registers instead ([`Self::folded`]); this recomputation is the
    /// definitional oracle they are tested against.
    ///
    /// # Panics
    /// Panics if `out_bits` is 0 or greater than 32, or if `len` exceeds
    /// [`MAX_HISTORY_BITS`].
    #[must_use]
    pub fn fold(&self, len: usize, out_bits: usize) -> u64 {
        assert!(out_bits > 0 && out_bits <= 32, "fold width out of range");
        assert!(len <= MAX_HISTORY_BITS, "history length out of range");
        if len == 0 {
            return 0;
        }
        let mask = (1u64 << out_bits) - 1;
        // Extract the widest multiple of `out_bits` that fits in one u64 per
        // step, then XOR-collapse the wide word down to `out_bits`. Because
        // `wide` is a multiple of `out_bits`, the chunk boundaries coincide
        // with the ones the definition above prescribes, and XOR is
        // associative — so this computes exactly the same fold with ~5x
        // fewer history extractions.
        let wide = (64 / out_bits) * out_bits;
        let mut acc = 0u64;
        let mut consumed = 0usize;
        while consumed < len {
            let take = (len - consumed).min(wide);
            acc ^= self.bits_at(consumed, take);
            consumed += take;
        }
        let mut folded = 0u64;
        while acc != 0 {
            folded ^= acc & mask;
            acc >>= out_bits;
        }
        folded
    }

    /// Extracts `count` bits starting `offset` bits back in history.
    fn bits_at(&self, offset: usize, count: usize) -> u64 {
        debug_assert!(count <= 64);
        let word = offset / 64;
        let bit = offset % 64;
        let mut v = self.words[word] >> bit;
        if bit != 0 && word + 1 < WORDS {
            v |= self.words[word + 1] << (64 - bit);
        }
        if count == 64 {
            v
        } else {
            v & ((1u64 << count) - 1)
        }
    }
}

/// A path-history register: hashes of recent taken-branch targets, used by
/// the indirect target predictor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathHistory {
    bits: u64,
}

impl PathHistory {
    /// Creates an empty path history.
    #[must_use]
    pub fn new() -> Self {
        PathHistory::default()
    }

    /// Mixes a taken-branch target into the path.
    pub fn push_target(&mut self, target: u64) {
        self.bits = (self.bits << 3) ^ (target >> 2);
    }

    /// The raw path register value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_most_recent_into_bit0() {
        let mut h = GlobalHistory::new();
        h.push(true);
        h.push(false);
        h.push(true);
        // bits (most recent first): 1,0,1
        assert_eq!(h.recent(3), 0b101);
    }

    #[test]
    fn history_survives_word_boundary() {
        let mut h = GlobalHistory::new();
        h.push(true);
        for _ in 0..63 {
            h.push(false);
        }
        // The original 1 is now 63 bits back.
        assert_eq!(h.bits_at(63, 1), 1);
        h.push(false);
        assert_eq!(h.bits_at(64, 1), 1);
        assert_eq!(h.bits_at(63, 1), 0);
    }

    #[test]
    fn fold_of_zero_length_is_zero() {
        let mut h = GlobalHistory::new();
        h.push(true);
        assert_eq!(h.fold(0, 12), 0);
    }

    #[test]
    fn fold_differs_with_history_content() {
        let mut a = GlobalHistory::new();
        let mut b = GlobalHistory::new();
        for i in 0..100 {
            a.push(i % 3 == 0);
            b.push(i % 5 == 0);
        }
        assert_ne!(a.fold(100, 12), b.fold(100, 12));
    }

    /// The definitional fold: one `out_bits`-wide chunk at a time.
    fn fold_reference(h: &GlobalHistory, len: usize, out_bits: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let mask = (1u64 << out_bits) - 1;
        let mut acc = 0u64;
        let mut consumed = 0usize;
        while consumed < len {
            let take = (len - consumed).min(out_bits);
            acc ^= h.bits_at(consumed, take);
            consumed += take;
        }
        acc & mask
    }

    #[test]
    fn widened_fold_matches_reference() {
        let mut h = GlobalHistory::new();
        // A dense, irregular bit pattern exercising all word boundaries.
        for i in 0..MAX_HISTORY_BITS {
            h.push((i * i + i / 3) % 5 < 2);
        }
        for len in [1, 3, 11, 12, 13, 63, 64, 65, 100, 127, 128, 232, 256] {
            for out_bits in [1, 2, 5, 6, 7, 8, 11, 12, 13, 16, 31, 32] {
                assert_eq!(
                    h.fold(len, out_bits),
                    fold_reference(&h, len, out_bits),
                    "len={len} out_bits={out_bits}"
                );
            }
        }
    }

    #[test]
    fn fold_is_stable_for_same_history() {
        let mut a = GlobalHistory::new();
        for i in 0..200 {
            a.push(i % 7 < 3);
        }
        assert_eq!(a.fold(232, 12), a.fold(232, 12));
        assert!(a.fold(232, 12) < (1 << 12));
    }

    #[test]
    fn oldest_bits_fall_off() {
        let mut h = GlobalHistory::new();
        h.push(true);
        for _ in 0..MAX_HISTORY_BITS {
            h.push(false);
        }
        // Every addressable bit is now zero.
        assert_eq!(h.fold(MAX_HISTORY_BITS, 16), 0);
    }

    /// The extreme widths; `tests/reference_models.rs` covers the
    /// perceptron's own widths (6–16).
    #[test]
    fn registers_track_the_fold_across_the_horizon() {
        let lens = history_lengths();
        for width in [1, 5, 32] {
            let mut h = GlobalHistory::with_fold_width(width);
            for i in 0..2 * MAX_HISTORY_BITS {
                h.push((i * 7 + i / 5) % 3 == 0);
                for (t, &len) in lens.iter().enumerate() {
                    assert_eq!(
                        h.folded(t),
                        h.fold(len, width),
                        "width {width} table {t} after {} pushes",
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fold width out of range")]
    fn zero_fold_width_panics() {
        let _ = GlobalHistory::with_fold_width(0);
    }

    #[test]
    fn path_history_mixes_targets() {
        let mut p = PathHistory::new();
        p.push_target(0x1000);
        let v1 = p.value();
        p.push_target(0x2000);
        assert_ne!(p.value(), v1);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn recent_panics_beyond_64() {
        let h = GlobalHistory::new();
        let _ = h.recent(65);
    }
}
