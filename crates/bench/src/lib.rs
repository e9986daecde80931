//! Support code for the `bench` binary, which times every experiment of the
//! figures pipeline per phase and diffs the result against a committed
//! `BENCH_*.json`. For paper-scale numbers run the `figures` binary of
//! `btb-harness` (see EXPERIMENTS.md); for repeated, interleaved end-to-end
//! and per-layer measurements run `perfledger`.

#![warn(missing_docs)]

pub mod compare;
