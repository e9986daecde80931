//! Reference-model tests for the predictor substrates: the folded history
//! must equal a naive bit-vector fold, each incrementally folded register
//! must equal that fold, and the RAS must match a plain stack.

use btb_bpred::{
    history_lengths, GlobalHistory, HashedPerceptron, PerceptronConfig, ReturnAddressStack,
};
use proptest::prelude::*;

/// Naive reference: keep all outcomes in a Vec, fold by chunking.
fn reference_fold(bits: &[bool], len: usize, out_bits: usize) -> u64 {
    let mut acc = 0u64;
    let take: Vec<&bool> = bits.iter().rev().take(len).collect();
    for (i, b) in take.iter().enumerate() {
        if **b {
            acc ^= 1u64 << (i % out_bits);
        }
    }
    acc & ((1u64 << out_bits) - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fold_matches_reference(
        outcomes in proptest::collection::vec(any::<bool>(), 0..256),
        len in 1usize..=232,
        out_bits in 4usize..=20,
    ) {
        let mut h = GlobalHistory::new();
        for &b in &outcomes {
            h.push(b);
        }
        prop_assert_eq!(
            h.fold(len, out_bits),
            reference_fold(&outcomes, len, out_bits),
            "len {} out {}",
            len,
            out_bits
        );
    }

    /// Every index width from 6 to 16 bits (the Fig. 11b sweep yields 7–12,
    /// `with_size_kb(1)` yields 6): after each push of a random sequence
    /// long enough to cross all four history words and the 256-bit horizon,
    /// every table's register equals the oracle fold of its length.
    #[test]
    fn folded_registers_match_fold_at_every_width(
        width in 6usize..=16,
        outcomes in proptest::collection::vec(any::<bool>(), 0..600),
    ) {
        let p = HashedPerceptron::new(PerceptronConfig { entries_per_table: 1 << width });
        let mut h = p.new_history();
        prop_assert_eq!(h.fold_width(), width);
        let lens = history_lengths();
        for (step, &b) in outcomes.iter().enumerate() {
            h.push(b);
            for (t, &len) in lens.iter().enumerate() {
                prop_assert_eq!(
                    h.folded(t),
                    h.fold(len, width),
                    "width {} table {} step {}",
                    width,
                    t,
                    step
                );
            }
        }
    }

    #[test]
    fn ras_matches_reference_stack(
        ops in proptest::collection::vec((any::<bool>(), 0u64..1000), 1..200),
    ) {
        let capacity = 16;
        let mut ras = ReturnAddressStack::new(capacity);
        let mut model: Vec<u64> = Vec::new();
        for (is_push, val) in ops {
            if is_push {
                ras.push(val);
                model.push(val);
                if model.len() > capacity {
                    model.remove(0); // overflow drops the oldest
                }
            } else {
                let got = ras.pop();
                let want = model.pop();
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(ras.depth(), model.len());
            prop_assert_eq!(ras.peek(), model.last().copied());
        }
    }
}

#[test]
#[should_panic(expected = "folds to 12 bits but the perceptron indexes with 7 bits")]
fn mismatched_history_width_panics() {
    let p = HashedPerceptron::new(PerceptronConfig::with_size_kb(2));
    let _ = p.predict(0x4000, &GlobalHistory::new());
}
