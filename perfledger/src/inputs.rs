//! Seeded inputs: the workload roster and the remixed workload suites.
//! Everything the program under test receives is generated here from
//! `--seed`, so the same seed gives the same inputs and [`input_digest`]
//! pins that.

use btb_harness::{Scale, Suite};
use btb_store::{Digest, Sha256};
use btb_trace::{server_suite, WorkloadProfile};

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every experiment from an empty store and memo.
    MatrixCold,
    /// The same experiments again from the store the set-up populated.
    MatrixWarm,
    /// Long traces through the streamed path with fast-forward warm-up.
    StreamFf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MatrixCold,
        Workload::MatrixWarm,
        Workload::StreamFf,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixCold => "matrix-cold",
            Workload::MatrixWarm => "matrix-warm",
            Workload::StreamFf => "stream-ff",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The warm-up tier the workload's batch cells run in.
    #[must_use]
    pub fn warmup_tier(self) -> &'static str {
        match self {
            Workload::StreamFf => "fast-forward",
            _ => "cycle",
        }
    }

    /// Trace scale of the workload's suite. The matrix suites have
    /// quick-scale traces (300 K instructions, 100 K warm-up) but two
    /// workloads instead of quick's four, so a cold pass over every
    /// experiment fits several times in a run; at this trace length the
    /// warm re-render is still dominated by loading and decoding traces.
    /// The stream traces are long enough (millions of records) that
    /// streaming, not per-cell set-up, dominates.
    #[must_use]
    pub fn scale(self) -> Scale {
        match self {
            Workload::StreamFf => Scale {
                insts: 1_500_000,
                warmup: 1_000_000,
                workloads: 2,
            },
            _ => Scale {
                workloads: 2,
                ..Scale::quick()
            },
        }
    }
}

/// SplitMix64: the seed mixer for every generated input.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The first `n` server-suite profiles with their generator seeds remixed
/// by the workload seed: same shapes as the paper's suite, new programs
/// and traces for every benchmark seed.
#[must_use]
pub fn remixed_profiles(seed: u64, n: usize) -> Vec<WorkloadProfile> {
    server_suite()
        .into_iter()
        .take(n)
        .map(|mut p| {
            p.seed = mix(p.seed ^ mix(seed));
            p
        })
        .collect()
}

/// The workload's suite at `seed` with no traces yet: the matrix pass
/// fills `traces`, the stream pass streams them into the store.
#[must_use]
pub fn planned_suite(workload: Workload, seed: u64) -> Suite {
    let scale = workload.scale();
    Suite {
        traces: Vec::new(),
        profiles: remixed_profiles(seed, scale.workloads),
        scale,
    }
}

/// SHA-256 over everything the workload feeds the program at `seed`:
/// the suite profiles and scale.
#[must_use]
pub fn input_digest(workload: Workload, seed: u64) -> Digest {
    let suite = planned_suite(workload, seed);
    let mut h = Sha256::new();
    h.update(workload.name().as_bytes());
    h.update(format!("{:?}{:?}", suite.profiles, suite.scale).as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_input_digest() {
        for w in Workload::ALL {
            assert_eq!(input_digest(w, 7), input_digest(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in Workload::ALL {
            assert_ne!(input_digest(w, 7), input_digest(w, 8), "{}", w.name());
        }
        let a = remixed_profiles(1, 2);
        let b = remixed_profiles(2, 2);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.name, pb.name);
            assert_ne!(pa.seed, pb.seed);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("matrix"), None);
    }
}
