//! Integration tests for the on-disk store: roundtrips, atomicity
//! observables, corruption handling, and the maintenance surface.

use btb_core::{BtbConfig, OrgKind};
use btb_sim::{PipelineConfig, SimReport, SimStats};
use btb_store::{trace_key, Digest, Kind, Store};
use btb_trace::{Trace, WorkloadProfile};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per test, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "btb-store-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sample_report() -> SimReport {
    SimReport {
        config_name: "I-BTB 16".to_owned(),
        workload: "web".into(),
        stats: SimStats {
            instructions: 1000,
            last_commit_cycle: 500,
            ..SimStats::default()
        },
        l1_occupancy: 0.75,
        l1_redundancy: 1.0,
        l2_occupancy: 0.5,
        l2_redundancy: 1.25,
        l1i_hit_rate: 0.99,
    }
}

fn report_key_for(profile: &WorkloadProfile, insts: usize) -> Digest {
    let cfg = BtbConfig::ideal(
        "I-BTB 16",
        OrgKind::Instruction {
            width: 16,
            skip_taken: false,
        },
    );
    Store::report_key(&trace_key(profile, insts), &cfg, &PipelineConfig::paper())
}

#[test]
fn trace_roundtrip_and_counters() {
    let dir = ScratchDir::new("trace-roundtrip");
    let store = Store::open(&dir.0).expect("open");
    let profile = WorkloadProfile::tiny(7);
    let trace = Trace::generate(&profile, 5_000);

    assert!(store.get_trace(&profile, 5_000).is_none(), "cold miss");
    store.put_trace(&profile, 5_000, &trace);
    assert_eq!(store.get_trace(&profile, 5_000).as_ref(), Some(&trace));
    // A different length is a different artifact.
    assert!(store.get_trace(&profile, 5_001).is_none());

    let c = store.take_counters();
    assert_eq!((c.trace_hits, c.trace_misses), (1, 2));
    assert!(store.take_counters().is_empty(), "take resets");
}

#[test]
fn report_roundtrip_is_exact() {
    let dir = ScratchDir::new("report-roundtrip");
    let store = Store::open(&dir.0).expect("open");
    let key = report_key_for(&WorkloadProfile::tiny(1), 1_000);
    let report = sample_report();

    assert!(store.get_report(&key).is_none(), "cold miss");
    store.put_report(&key, &report);
    assert_eq!(store.get_report(&key).as_ref(), Some(&report));
    let c = store.take_counters();
    assert_eq!((c.report_hits, c.report_misses), (1, 1));
}

#[test]
fn corrupted_payload_is_a_miss_and_removed() {
    // Object header: 8 magic + 1 kind + 8 length + 32 checksum bytes. The
    // payload is a trace stream: 8 magic + 4 version + 4 name length + the
    // name, then chunks of a 4-byte record count and 31-byte records.
    const HEADER_LEN: usize = 49;
    let profile = WorkloadProfile::tiny(3);
    let trace = Trace::generate(&profile, 2_000);
    let chunk_count_at = HEADER_LEN + 16 + trace.name.len();
    // (what, file offset, xor mask) for an object of `len` bytes.
    let flips = |len: usize| {
        [
            ("first payload byte", HEADER_LEN, 0xff),
            // The low byte of the first record's pc: the record still
            // decodes, so only the checksum can catch it.
            ("a pc byte that still decodes", chunk_count_at + 4, 0x04),
            // Lifts the count far above a chunk's 4096 records.
            ("a chunk count", chunk_count_at + 2, 0xff),
            ("last byte", len - 1, 0xff),
        ]
    };
    for case in 0..4 {
        let dir = ScratchDir::new("corrupt");
        let store = Store::open(&dir.0).expect("open");
        store.put_trace(&profile, 2_000, &trace);

        let path = find_only_object(&dir.0);
        let mut bytes = std::fs::read(&path).expect("read object");
        let (what, at, mask) = flips(bytes.len())[case];
        bytes[at] ^= mask;
        std::fs::write(&path, bytes).expect("rewrite object");

        assert!(
            store.get_trace(&profile, 2_000).is_none(),
            "{what} (offset {at}) flipped: checksum mismatch must be a miss, not a panic"
        );
        assert!(!path.exists(), "corrupt entry must be unlinked ({what})");
        let c = store.take_counters();
        assert_eq!((c.trace_hits, c.trace_misses), (0, 1), "{what}");

        // The slot is reusable after corruption.
        store.put_trace(&profile, 2_000, &trace);
        assert_eq!(store.get_trace(&profile, 2_000).as_ref(), Some(&trace));
    }
}

#[test]
fn checksummed_but_undecodable_trace_is_a_miss_and_removed() {
    let dir = ScratchDir::new("undecodable");
    let store = Store::open(&dir.0).expect("open");
    let profile = WorkloadProfile::tiny(3);
    let trace = Trace::generate(&profile, 500);
    let mut payload = btb_store::codec::encode_trace(&trace);
    payload.push(0); // trailing byte after the terminator chunk
    let key = trace_key(&profile, 500);
    for payload in [&payload[..], b"not a trace stream"] {
        store.put_raw(&key, Kind::Trace, payload).expect("put raw");
        let path = find_only_object(&dir.0);
        assert!(store.get_trace(&profile, 500).is_none());
        assert!(!path.exists(), "undecodable entry must be unlinked");
        let c = store.take_counters();
        assert_eq!((c.trace_hits, c.trace_misses), (0, 1));
    }
}

#[test]
fn truncated_and_garbage_objects_are_misses() {
    let dir = ScratchDir::new("garbage");
    let store = Store::open(&dir.0).expect("open");
    let profile = WorkloadProfile::tiny(4);
    store.put_trace(&profile, 1_500, &Trace::generate(&profile, 1_500));

    let path = find_only_object(&dir.0);
    let bytes = std::fs::read(&path).expect("read");

    // Truncated to half.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    assert!(store.get_trace(&profile, 1_500).is_none());

    // Entirely wrong contents under the right name.
    store.put_trace(&profile, 1_500, &Trace::generate(&profile, 1_500));
    let path = find_only_object(&dir.0);
    std::fs::write(&path, b"not a store object at all").expect("garbage");
    assert!(store.get_trace(&profile, 1_500).is_none());
}

#[test]
fn wrong_kind_is_a_miss() {
    let dir = ScratchDir::new("wrong-kind");
    let store = Store::open(&dir.0).expect("open");
    let key = trace_key(&WorkloadProfile::tiny(9), 800);
    // Store raw bytes under the trace key but flagged as a report.
    store
        .put_raw(&key, Kind::Report, b"payload")
        .expect("put raw");
    assert!(store.get_raw(&key, Kind::Trace).is_none());
}

#[test]
fn stats_and_gc() {
    let dir = ScratchDir::new("maintenance");
    let store = Store::open(&dir.0).expect("open");
    let profile = WorkloadProfile::tiny(5);
    store.put_trace(&profile, 1_000, &Trace::generate(&profile, 1_000));
    store.put_report(&report_key_for(&profile, 1_000), &sample_report());

    let stats = store.stats().expect("stats");
    assert_eq!(stats.trace_objects, 1);
    assert_eq!(stats.report_objects, 1);
    assert!(stats.trace_bytes > 0 && stats.report_bytes > 0);
    assert_eq!(stats.unreadable_objects, 0);

    // Everything is newer than an hour: a 1h sweep keeps all objects.
    let kept = store
        .gc(std::time::Duration::from_secs(3600))
        .expect("gc keep");
    assert_eq!((kept.removed_objects, kept.kept_objects), (0, 2));

    // A zero-age sweep clears the store.
    let cleared = store.gc(std::time::Duration::ZERO).expect("gc clear");
    assert_eq!((cleared.removed_objects, cleared.kept_objects), (2, 0));
    let after = store.stats().expect("stats after gc");
    assert_eq!(after.trace_objects + after.report_objects, 0);
}

#[test]
fn reopened_store_serves_existing_objects() {
    let dir = ScratchDir::new("reopen");
    let profile = WorkloadProfile::tiny(6);
    let trace = Trace::generate(&profile, 3_000);
    {
        let store = Store::open(&dir.0).expect("open");
        store.put_trace(&profile, 3_000, &trace);
    }
    let store = Store::open(&dir.0).expect("reopen");
    assert_eq!(store.get_trace(&profile, 3_000).as_ref(), Some(&trace));
}

#[test]
fn streamed_put_is_readable_by_materialized_get_and_vice_versa() {
    let dir = ScratchDir::new("stream-interop");
    let store = Store::open(&dir.0).expect("open");
    let profile = WorkloadProfile::tiny(8);
    let trace = Trace::generate(&profile, 4_000);

    // Stream-published object serves the materialized getter...
    let written = store
        .put_trace_stream(&profile, 4_000, &trace.name, trace.records.iter().copied())
        .expect("streamed publish");
    assert_eq!(written, trace.records.len() as u64);
    assert_eq!(store.get_trace(&profile, 4_000).as_ref(), Some(&trace));

    // ...and a materialized publish serves the streaming reader.
    let stream = store
        .open_trace_stream(&profile, 4_000)
        .expect("streamed open");
    assert_eq!(stream.name(), &*trace.name);
    let replayed: Vec<_> = stream.map(|r| r.expect("verified record")).collect();
    assert_eq!(replayed, trace.records);
}

#[test]
fn stream_skip_matches_stepping_record_by_record() {
    // Writers flush a chunk every 4096 records.
    const CHUNK: usize = 4096;
    let dir = ScratchDir::new("stream-skip");
    let store = Store::open(&dir.0).expect("open");
    let profile = WorkloadProfile::tiny(5);
    let n = 2 * CHUNK + 300;
    let trace = Trace::generate(&profile, n);
    store.put_trace(&profile, n, &trace);
    for skip in [
        0,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        CHUNK + 1234,
        n - 1,
        n,
        n + 10,
    ] {
        let mut stream = store.open_trace_stream(&profile, n).expect("open");
        let skipped = stream.skip_records(skip as u64).expect("skip");
        assert_eq!(skipped as usize, skip.min(n), "skip {skip}");
        let rest: Vec<_> = stream.map(|r| r.expect("record")).collect();
        assert_eq!(rest, trace.records[skip.min(n)..], "skip {skip}");
    }
}

#[test]
fn corrupt_object_never_reaches_the_streaming_reader() {
    // Object header: 8 magic + 1 kind + 8 length + 32 checksum bytes.
    const HEADER_LEN: usize = 49;
    // The up-front verification pass hashes the payload in blocks of this
    // size; a flip on either side of a block edge must be caught too.
    const VERIFY_BLOCK: usize = 64 * 1024;
    let profile = WorkloadProfile::tiny(2);
    let trace = Trace::generate(&profile, 3_000);
    // (what, file offset) for an object of `len` bytes.
    let flips = |len: usize| {
        [
            ("first payload byte", HEADER_LEN),
            (
                "last byte of the first verify block",
                HEADER_LEN + VERIFY_BLOCK - 1,
            ),
            (
                "first byte of the second verify block",
                HEADER_LEN + VERIFY_BLOCK,
            ),
            ("last byte", len - 1),
        ]
    };
    for case in 0..4 {
        let dir = ScratchDir::new("stream-corrupt");
        let store = Store::open(&dir.0).expect("open");
        store
            .put_trace_stream(&profile, 3_000, &trace.name, trace.records.iter().copied())
            .expect("publish");

        let path = find_only_object(&dir.0);
        let mut bytes = std::fs::read(&path).expect("read object");
        assert!(
            bytes.len() > HEADER_LEN + VERIFY_BLOCK + 1,
            "payload must span two verify blocks"
        );
        let (what, at) = flips(bytes.len())[case];
        bytes[at] ^= 0xff;
        std::fs::write(&path, bytes).expect("rewrite object");

        // Verification must catch the flip before a single record is
        // handed out.
        assert!(
            store.open_trace_stream(&profile, 3_000).is_none(),
            "{what} (offset {at}) flipped"
        );
        assert!(!path.exists(), "corrupt entry must be unlinked ({what})");
        let c = store.take_counters();
        assert_eq!((c.trace_hits, c.trace_misses), (0, 1), "{what}");
    }
}

#[test]
fn failed_streamed_publish_leaves_no_object() {
    struct Explode {
        after: usize,
        profile: WorkloadProfile,
    }
    impl Iterator for Explode {
        type Item = btb_trace::TraceRecord;
        fn next(&mut self) -> Option<btb_trace::TraceRecord> {
            // Yield a few real records, then simulate a generator that
            // stops early — publishing still succeeds (a shorter trace),
            // so instead test the I/O failure path via a full tmp dir.
            if self.after == 0 {
                return None;
            }
            self.after -= 1;
            Trace::generate(&self.profile, 1).records.first().copied()
        }
    }
    // An unwritable tmp/ directory makes the streamed publish fail; the
    // object slot must stay a miss and no partial file may appear.
    let dir = ScratchDir::new("stream-fail");
    let store = Store::open(&dir.0).expect("open");
    let profile = WorkloadProfile::tiny(1);
    std::fs::remove_dir_all(dir.0.join("tmp")).expect("drop tmp dir");
    let result = store.put_trace_stream(
        &profile,
        100,
        "doomed",
        Explode {
            after: 3,
            profile: profile.clone(),
        },
    );
    assert!(result.is_err(), "publish into missing tmp/ must fail");
    assert!(store.open_trace_stream(&profile, 100).is_none());
}

/// Returns the path of the only object in the store (panics otherwise).
fn find_only_object(root: &std::path::Path) -> PathBuf {
    let mut found = Vec::new();
    for shard in std::fs::read_dir(root.join("objects")).expect("objects dir") {
        let shard = shard.expect("shard entry");
        if shard.file_type().expect("type").is_dir() {
            for entry in std::fs::read_dir(shard.path()).expect("shard") {
                found.push(entry.expect("entry").path());
            }
        }
    }
    assert_eq!(found.len(), 1, "expected exactly one object, got {found:?}");
    found.remove(0)
}

/// Atomic publish under contention: once a key has been published, racing
/// re-publishers (same content — the store is content-addressed) must never
/// make a reader miss or observe different bytes. A non-atomic publish
/// (write-in-place) would expose short or torn objects, which readers
/// treat as corruption: they unlink the entry and return `None`, failing
/// the always-`Some` assertion below. This is the concurrency contract the
/// PR 4 parallel `run_matrix` leans on when worker threads share a store.
#[test]
fn concurrent_writers_never_disturb_readers() {
    let dir = ScratchDir::new("concurrent");
    let store = Store::open(&dir.0).expect("open");

    // Four distinct keys, each with its own canonical report.
    let profiles: Vec<WorkloadProfile> = (0..4).map(WorkloadProfile::tiny).collect();
    let keys: Vec<Digest> = profiles.iter().map(|p| report_key_for(p, 2_000)).collect();
    let canonical: Vec<SimReport> = (0..4)
        .map(|i| {
            let mut r = sample_report();
            r.stats.instructions = 1_000 + i;
            r
        })
        .collect();
    for (k, r) in keys.iter().zip(&canonical) {
        store.put_report(k, r);
    }

    std::thread::scope(|s| {
        // Writers hammer every key with its canonical content.
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..50 {
                    for (k, r) in keys.iter().zip(&canonical) {
                        store.put_report(k, r);
                    }
                }
            });
        }
        // Readers must see every key complete and exact on every read.
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..200 {
                    for (k, want) in keys.iter().zip(&canonical) {
                        let got = store
                            .get_report(k)
                            .expect("published key missed under concurrent writers");
                        assert_eq!(&got, want, "reader observed torn/foreign bytes");
                    }
                }
            });
        }
    });

    // Every publish renamed its staging file into place; none leaked.
    let leftover: Vec<_> = std::fs::read_dir(dir.0.join("tmp"))
        .expect("tmp dir")
        .collect();
    assert!(leftover.is_empty(), "staging files leaked: {leftover:?}");
}
