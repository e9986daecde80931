//! Byte-exactness snapshot over the full organization roster.
//!
//! Hot-path optimizations of `btb-core`/`btb-sim` must never change
//! simulation results: this test runs `run_matrix` at [`Scale::quick`] over
//! one configuration per organization kind and hashes the store-codec
//! serialization of every `SimReport` (the exact bytes `btb-store` persists,
//! so an unchanged hash also means unchanged store content). The hash is
//! compared against a committed fixture captured before the PR 3 hot-path
//! overhaul. A second fixture pins the predictor-size sweep and the ideal
//! backend the same way.
//!
//! Release-only (`cargo test --release`): quick scale is too slow for the
//! debug tier-1 run. Refresh the fixtures after an *intentional* behaviour
//! change with:
//!
//! ```text
//! BTB_BLESS=1 cargo test --release -p btb-harness --test report_snapshot
//! ```

use btb_harness::{configs, run_matrix, run_matrix_with_store, Scale, Suite};
use btb_sim::PipelineConfig;
use btb_store::{Sha256, Store};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/report_snapshot_quick.sha256"
);

const PREDICTOR_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/report_snapshot_predictor_sizes.sha256"
);

/// One configuration per organization kind, realistic geometries.
fn roster() -> Vec<btb_core::BtbConfig> {
    vec![
        configs::baseline(),
        configs::real_ibtb16(),
        configs::real_rbtb(2, false),
        configs::real_bbtb(16, 2, true),
        configs::real_mbbtb(16, 2, btb_core::PullPolicy::AllBranches),
        configs::real_rbtb_overflow(2, 512),
        configs::hetero_block_region(2, 2),
    ]
}

/// SHA-256 over the store-codec serialization of a whole matrix, row-major.
fn matrix_hash(matrix: &[Vec<btb_sim::SimReport>]) -> String {
    let mut hasher = Sha256::new();
    for row in matrix {
        for report in row {
            hasher.update(&btb_store::codec::encode_report(report));
        }
    }
    hasher.finish().to_hex()
}

/// Compares `hex` with the committed fixture at `path`, or rewrites the
/// fixture when `BTB_BLESS` is set.
fn check_fixture(path: &str, hex: &str) {
    if std::env::var_os("BTB_BLESS").is_some() {
        std::fs::write(path, format!("{hex}\n")).expect("write fixture");
        eprintln!("blessed {path} = {hex}");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("missing fixture: run once with BTB_BLESS=1 in release mode");
    assert_eq!(
        hex,
        expected.trim(),
        "serialized SimReports diverged from the committed snapshot; \
         if the change is intentional, re-bless with BTB_BLESS=1"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: simulates Scale::quick()")]
fn run_matrix_quick_is_byte_identical_to_fixture() {
    let suite = Suite::generate(Scale::quick());
    let matrix = run_matrix(&suite, &roster(), &PipelineConfig::paper());
    check_fixture(FIXTURE, &matrix_hash(&matrix));
}

/// The non-paper predictor geometries: the Fig. 11b size sweep (64 KB down
/// to 2 KB, folded-history widths 12 down to 7 bits) and the §6.5.2 ideal
/// backend, each over I-BTB 16 and MB-BTB, pinned byte for byte in a
/// second fixture.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: simulates Scale::quick()")]
fn predictor_sizes_are_byte_identical_to_fixture() {
    let suite = Suite::generate(Scale::quick());
    let roster = [
        configs::real_ibtb16(),
        configs::real_mbbtb(16, 2, btb_core::PullPolicy::AllBranches),
    ];
    let mut pipes: Vec<PipelineConfig> = [64usize, 32, 16, 8, 4, 2]
        .into_iter()
        .map(|kb| PipelineConfig::paper().with_predictor_kb(kb))
        .collect();
    pipes.push(PipelineConfig::paper_ideal_backend());
    let mut hasher = Sha256::new();
    for pipe in &pipes {
        for row in run_matrix(&suite, &roster, pipe) {
            for report in &row {
                hasher.update(&btb_store::codec::encode_report(report));
            }
        }
    }
    check_fixture(PREDICTOR_FIXTURE, &hasher.finish().to_hex());
}

/// Thread-count independence: the PR 4 parallel runner must produce the
/// same bytes at every worker count. Runs the quick matrix pinned to one
/// worker, then to four (the `set_threads` override is what `--threads` /
/// `BTB_THREADS` feed), resetting the in-process memo in between so both
/// runs genuinely simulate, and requires both hashes to equal each other
/// *and* the committed fixture — i.e. parallelism needed no re-bless.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: simulates Scale::quick()")]
fn matrix_hash_is_identical_across_thread_counts() {
    let suite = Suite::generate(Scale::quick());
    let roster = roster();
    let pipe = PipelineConfig::paper();

    btb_par::set_threads(Some(1));
    btb_harness::runner::reset_report_memo();
    let single = matrix_hash(&run_matrix(&suite, &roster, &pipe));

    btb_par::set_threads(Some(4));
    btb_harness::runner::reset_report_memo();
    let pooled = matrix_hash(&run_matrix(&suite, &roster, &pipe));
    btb_par::set_threads(None);

    assert_eq!(
        single, pooled,
        "run_matrix produced different bytes at 1 vs 4 threads"
    );
    let expected = std::fs::read_to_string(FIXTURE).expect("missing fixture");
    assert_eq!(
        single,
        expected.trim(),
        "thread-pinned matrix diverged from the committed snapshot"
    );
}

/// Store-backed variant: the same matrix routed through a fresh on-disk
/// store must persist every report under its derived content key, round-trip
/// it byte-for-byte, and still hash to the committed fixture. This pins the
/// store content hashes (keys *and* object bytes) across hot-path refactors.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: simulates Scale::quick()")]
fn store_backed_matrix_round_trips_fixture_bytes() {
    let dir = std::env::temp_dir().join(format!("btb-snap-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open temp store");

    let suite = Suite::generate(Scale::quick());
    let roster = roster();
    let pipe = PipelineConfig::paper();
    let matrix = run_matrix_with_store(&suite, &roster, &pipe, &store);

    let trace_keys: Vec<_> = suite
        .profiles
        .iter()
        .map(|p| btb_store::trace_key(p, suite.scale.insts))
        .collect();
    // Keys hash the *effective* pipeline — warm-up applied, as in the runner.
    let pipe_eff = pipe.clone().with_warmup(suite.scale.warmup);
    let mut hasher = Sha256::new();
    for (c, row) in matrix.iter().enumerate() {
        for (w, report) in row.iter().enumerate() {
            let key = btb_store::report_key(&trace_keys[w], &roster[c], &pipe_eff);
            let persisted = store
                .get_report(&key)
                .expect("report missing from store under its derived key");
            let bytes = btb_store::codec::encode_report(&persisted);
            assert_eq!(
                bytes,
                btb_store::codec::encode_report(report),
                "store round-trip altered report bytes (workload {w}, config {c})"
            );
            hasher.update(&bytes);
        }
    }
    let hex = hasher.finish().to_hex();
    let expected = std::fs::read_to_string(FIXTURE).expect("missing fixture");
    assert_eq!(
        hex,
        expected.trim(),
        "store-backed matrix diverged from the committed snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
