//! Hashed perceptron conditional branch predictor.
//!
//! Models the paper's Table 1 configuration: a 64 KB hashed perceptron with
//! 16 tables of 4K 8-bit weights indexed with geometric history lengths from
//! 0 to 232 bits, with adaptive-threshold training (Jiménez & Lin-style
//! perceptron learning over hashed feature tables). The table size scales
//! down for the Fig. 11b predictor-size sweep.

use crate::history::GlobalHistory;

/// Number of feature tables.
pub const NUM_TABLES: usize = 16;
/// Longest history length in bits (paper: 0–232).
pub const MAX_HISTORY: usize = 232;

/// Configuration of a [`HashedPerceptron`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronConfig {
    /// Entries per feature table (power of two).
    pub entries_per_table: usize,
}

impl PerceptronConfig {
    /// The paper's 64 KB configuration (16 tables × 4K × 8-bit weights).
    #[must_use]
    pub fn paper() -> Self {
        PerceptronConfig {
            entries_per_table: 4096,
        }
    }

    /// A configuration using `kb` kilobytes of weight storage, as swept in
    /// Fig. 11b (64, 32, 16, 8, 4, 2 KB).
    ///
    /// # Panics
    /// Panics if `kb` is zero.
    #[must_use]
    pub fn with_size_kb(kb: usize) -> Self {
        assert!(kb > 0, "predictor size must be non-zero");
        let entries = (kb * 1024 / NUM_TABLES).next_power_of_two();
        PerceptronConfig {
            entries_per_table: entries.max(64),
        }
    }

    /// Total weight storage in bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.entries_per_table * NUM_TABLES
    }
}

/// The geometric history lengths assigned to each table (table 0 is the
/// history-less bias table).
#[must_use]
pub fn history_lengths() -> [usize; NUM_TABLES] {
    let mut lens = [0usize; NUM_TABLES];
    // Geometric progression from 3 to MAX_HISTORY across tables 1..16.
    let ratio = (MAX_HISTORY as f64 / 3.0).powf(1.0 / (NUM_TABLES - 2) as f64);
    for (i, l) in lens.iter_mut().enumerate().skip(1) {
        *l = (3.0 * ratio.powi(i as i32 - 1)).round() as usize;
    }
    lens[NUM_TABLES - 1] = MAX_HISTORY;
    lens
}

/// Hashed perceptron direction predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct HashedPerceptron {
    tables: Vec<Vec<i8>>,
    index_bits: usize,
    /// Adaptive training threshold (O-GEHL style).
    theta: i32,
    /// Threshold-adaptation counter.
    tc: i32,
}

/// The outcome of a perceptron lookup, retained for update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronOutput {
    /// Predicted direction.
    pub taken: bool,
    /// The summed dot product (confidence).
    pub sum: i32,
}

impl HashedPerceptron {
    /// Creates a predictor with the given configuration.
    ///
    /// # Examples
    /// ```
    /// use btb_bpred::{HashedPerceptron, PerceptronConfig};
    /// let p = HashedPerceptron::new(PerceptronConfig::paper());
    /// assert_eq!(p.storage_bytes(), 64 * 1024);
    /// ```
    #[must_use]
    pub fn new(config: PerceptronConfig) -> Self {
        let entries = config.entries_per_table.next_power_of_two().max(64);
        HashedPerceptron {
            tables: vec![vec![0i8; entries]; NUM_TABLES],
            index_bits: entries.trailing_zeros() as usize,
            theta: (1.93 * NUM_TABLES as f64 + 14.0) as i32,
            tc: 0,
        }
    }

    /// Total weight storage in bytes.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.tables[0].len() * NUM_TABLES
    }

    /// Width of the folded histories this predictor indexes with.
    fn fold_bits(&self) -> usize {
        self.index_bits.min(32)
    }

    /// An all-zero global history whose folded registers match this
    /// predictor's index width. [`GlobalHistory::new`] matches only the
    /// paper's 64 KB configuration.
    ///
    /// # Examples
    /// ```
    /// use btb_bpred::{HashedPerceptron, PerceptronConfig};
    /// let p = HashedPerceptron::new(PerceptronConfig::with_size_kb(2));
    /// let mut h = p.new_history();
    /// h.push(true);
    /// let _ = p.predict(0x4000, &h);
    /// ```
    #[must_use]
    pub fn new_history(&self) -> GlobalHistory {
        GlobalHistory::with_fold_width(self.fold_bits())
    }

    /// Panics unless `hist` folds to this predictor's index width: a
    /// mismatched register would silently compute wrong indices.
    #[inline]
    fn check_history(&self, hist: &GlobalHistory) {
        let (have, want) = (hist.fold_width(), self.fold_bits());
        assert!(
            have == want,
            "global history folds to {have} bits but the perceptron indexes \
             with {want} bits; build the history with HashedPerceptron::new_history"
        );
    }

    fn index(&self, table: usize, pc: u64, hist: &GlobalHistory) -> usize {
        let folded = hist.folded(table);
        // Mix the PC with a table-specific multiplier so tables decorrelate.
        let pc_hash =
            (pc >> 2).wrapping_mul(0x9e37_79b9_7f4a_7c15u64.wrapping_add(table as u64 * 2));
        ((pc_hash ^ folded ^ (folded << 1)) as usize) & ((1 << self.index_bits) - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`.
    ///
    /// # Panics
    /// Panics if `hist` was not built for this predictor's size (see
    /// [`Self::new_history`]).
    #[must_use]
    pub fn predict(&self, pc: u64, hist: &GlobalHistory) -> PerceptronOutput {
        self.check_history(hist);
        let mut sum = 0i32;
        for t in 0..NUM_TABLES {
            sum += i32::from(self.tables[t][self.index(t, pc, hist)]);
        }
        PerceptronOutput {
            // Ties default to not-taken: cold branches are far more often
            // never-taken error checks than taken branches.
            taken: sum > 0,
            sum,
        }
    }

    /// Retire-time predict-then-train in one pass: returns exactly what
    /// [`Self::predict`] would, then trains exactly as [`Self::update`]
    /// would — but computes each table index once instead of twice.
    ///
    /// # Panics
    /// Panics if `hist` was not built for this predictor's size.
    pub fn predict_and_train(
        &mut self,
        pc: u64,
        hist: &GlobalHistory,
        taken: bool,
    ) -> PerceptronOutput {
        self.check_history(hist);
        let mut indices = [0usize; NUM_TABLES];
        let mut sum = 0i32;
        for (t, slot) in indices.iter_mut().enumerate() {
            let idx = self.index(t, pc, hist);
            *slot = idx;
            sum += i32::from(self.tables[t][idx]);
        }
        let output = PerceptronOutput {
            taken: sum > 0,
            sum,
        };
        let mispredicted = output.taken != taken;
        if mispredicted || output.sum.abs() <= self.theta {
            for (t, &idx) in indices.iter().enumerate() {
                let w = &mut self.tables[t][idx];
                *w = if taken {
                    w.saturating_add(1)
                } else {
                    w.saturating_sub(1)
                };
            }
        }
        if mispredicted {
            self.tc += 1;
            if self.tc >= 64 {
                self.tc = 0;
                self.theta += 1;
            }
        } else if output.sum.abs() <= self.theta {
            self.tc -= 1;
            if self.tc <= -64 {
                self.tc = 0;
                self.theta = (self.theta - 1).max(1);
            }
        }
        output
    }

    /// Trains the predictor with the actual outcome. `output` must be the
    /// value returned by [`Self::predict`] for the same branch and history.
    ///
    /// # Panics
    /// Panics if `hist` was not built for this predictor's size.
    pub fn update(&mut self, pc: u64, hist: &GlobalHistory, output: PerceptronOutput, taken: bool) {
        self.check_history(hist);
        let mispredicted = output.taken != taken;
        if mispredicted || output.sum.abs() <= self.theta {
            for t in 0..NUM_TABLES {
                let idx = self.index(t, pc, hist);
                let w = &mut self.tables[t][idx];
                *w = if taken {
                    w.saturating_add(1)
                } else {
                    w.saturating_sub(1)
                };
            }
        }
        // Adaptive threshold (Seznec's O-GEHL TC scheme).
        if mispredicted {
            self.tc += 1;
            if self.tc >= 64 {
                self.tc = 0;
                self.theta += 1;
            }
        } else if output.sum.abs() <= self.theta {
            self.tc -= 1;
            if self.tc <= -64 {
                self.tc = 0;
                self.theta = (self.theta - 1).max(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern<F: FnMut(u64) -> bool>(p: &mut HashedPerceptron, n: usize, mut f: F) -> f64 {
        let mut hist = p.new_history();
        let mut correct = 0usize;
        for i in 0..n {
            let pc = 0x4000 + (i as u64 % 7) * 4;
            let taken = f(i as u64);
            let out = p.predict(pc, &hist);
            if out.taken == taken {
                correct += 1;
            }
            p.update(pc, &hist, out, taken);
            hist.push(taken);
        }
        correct as f64 / n as f64
    }

    #[test]
    fn history_lengths_are_monotone_and_bounded() {
        let lens = history_lengths();
        assert_eq!(lens[0], 0);
        assert_eq!(lens[NUM_TABLES - 1], MAX_HISTORY);
        for w in lens.windows(2) {
            assert!(w[0] <= w[1], "{lens:?}");
        }
    }

    #[test]
    fn predict_and_train_matches_split_predict_update() {
        let mut split = HashedPerceptron::new(PerceptronConfig::paper());
        let mut fused = HashedPerceptron::new(PerceptronConfig::paper());
        let mut hist = GlobalHistory::new();
        for i in 0..5000u64 {
            let pc = 0x4000 + (i % 13) * 4;
            let taken = (i / 5) % 3 != 0;
            let a = split.predict(pc, &hist);
            split.update(pc, &hist, a, taken);
            let b = fused.predict_and_train(pc, &hist, taken);
            assert_eq!(a, b, "outputs diverged at step {i}");
            hist.push(taken);
        }
        assert_eq!(split.theta, fused.theta);
        assert_eq!(split.tc, fused.tc);
        assert_eq!(split.tables, fused.tables);
    }

    #[test]
    fn learns_always_taken() {
        let mut p = HashedPerceptron::new(PerceptronConfig::paper());
        let acc = run_pattern(&mut p, 4000, |_| true);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut p = HashedPerceptron::new(PerceptronConfig::paper());
        let acc = run_pattern(&mut p, 8000, |i| i % 2 == 0);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_short_loop_exits() {
        // A 5-iteration loop: T T T T N repeated — classic history pattern.
        let mut p = HashedPerceptron::new(PerceptronConfig::paper());
        let acc = run_pattern(&mut p, 10_000, |i| i % 5 != 4);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn small_predictor_is_worse_on_many_branches() {
        // With many distinct branches and long patterns, a 2 KB predictor
        // should alias more and lose accuracy vs the 64 KB one.
        let mut big = HashedPerceptron::new(PerceptronConfig::with_size_kb(64));
        let mut small = HashedPerceptron::new(PerceptronConfig::with_size_kb(2));
        let gen = |i: u64| (i / 3) % 7 < 3;
        let acc = |p: &mut HashedPerceptron| {
            let mut hist = p.new_history();
            let mut correct = 0usize;
            let n = 30_000;
            for i in 0..n {
                // 2048 distinct branch PCs.
                let pc = 0x10_0000 + (i as u64 * 97 % 2048) * 4;
                let taken = gen(i as u64);
                let out = p.predict(pc, &hist);
                if out.taken == taken {
                    correct += 1;
                }
                p.update(pc, &hist, out, taken);
                hist.push(taken);
            }
            correct as f64 / n as f64
        };
        let ab = acc(&mut big);
        let asm = acc(&mut small);
        assert!(ab >= asm, "big {ab} < small {asm}");
    }

    #[test]
    fn size_scaling_produces_expected_storage() {
        assert_eq!(PerceptronConfig::with_size_kb(64).storage_bytes(), 65536);
        assert_eq!(PerceptronConfig::with_size_kb(2).storage_bytes(), 2048);
        // Floors at 64 entries per table.
        assert!(PerceptronConfig::with_size_kb(1).entries_per_table >= 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_panics() {
        let _ = PerceptronConfig::with_size_kb(0);
    }
}
