//! The traced per-layer ledger: wall-span totals and counters from a
//! traced pass, and replays of the workload's own inputs through each
//! layer's public entry points, reduced to per-operation host time.

use crate::inputs::planned_suite;
use crate::output::{f, int, num, obj, Ledger};
use crate::stats::{median, relative_iqr};
use crate::Run;
use btb_bpred::{
    GlobalHistory, HashedPerceptron, IndirectPredictor, PathHistory, PerceptronConfig,
    ReturnAddressStack,
};
use btb_core::{build_btb, FixedOracle};
use btb_sim::{Backend, PipelineConfig, Simulator, WarmupCheckpoint};
use btb_store::{codec, JsonValue, Sha256, Store};
use btb_trace::{
    build_program, BranchKind, Trace, TraceExecutor, TraceReader, TraceRecord, TraceWriter,
};
use btb_uarch::{Cache, CacheConfig, MemoryHierarchy};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Items a replay visits per measurement (the input is replayed as often
/// as it takes), so short inputs are not timed below the clock's useful
/// resolution.
const VISITS: usize = 400_000;
/// Longest prefix of a workload trace the replays use.
const MAX_RECORDS: usize = 300_000;
/// Repetitions of each replay; the median is reported.
const REPS: usize = 3;

/// Totals of the program's wall spans recorded so far in this process,
/// by span name: `{name: {total_ms, p50_ms}}`, plus the ring's
/// drop and record counters.
pub fn span_totals() -> JsonValue {
    let spans = btb_obs::span::recent_spans();
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut members: Vec<(String, JsonValue)> = names
        .into_iter()
        .map(|name| {
            let durs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us as f64 / 1e3)
                .collect();
            (
                name.to_owned(),
                obj(vec![
                    ("total_ms", num(durs.iter().sum())),
                    ("p50_ms", num(median(&durs).unwrap_or(0.0))),
                ]),
            )
        })
        .collect();
    members.push((
        "wall_dropped".to_owned(),
        int(btb_obs::span::dropped_spans()),
    ));
    members.push((
        "wall_spans".to_owned(),
        int(btb_obs::span::recorded_spans()),
    ));
    JsonValue::Object(members)
}

/// The work pool's statistics since tracing was turned on.
pub fn pool_stats() -> JsonValue {
    let p = btb_par::take_pool_stats();
    obj(vec![
        ("jobs", int(p.jobs)),
        (
            "queue_wait_ms",
            num(p.mean_queue_wait().as_secs_f64() * 1e3),
        ),
        ("worker_s", num(p.wall.as_secs_f64() * p.max_workers as f64)),
        ("utilization", num(p.utilization())),
    ])
}

/// Median over `REPS` of the host nanoseconds per item that `pass` costs;
/// `pass` processes its whole input (`items` items) once and returns the
/// count it reports per, and is repeated until it has visited `VISITS`
/// items.
fn ns_per(items: usize, mut pass: impl FnMut() -> usize) -> f64 {
    let rounds = VISITS.div_ceil(items.max(1));
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let items: usize = (0..rounds).map(|_| pass()).sum();
            t.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Mean host milliseconds of `op` over `reps` calls.
fn mean_ms(reps: u32, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        op();
    }
    t.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

/// The workload's own records: the first trace of its suite (a prefix
/// of it for the long stream traces).
fn workload_trace(run: &Run) -> (btb_trace::WorkloadProfile, Trace) {
    let suite = planned_suite(run.workload, run.seed);
    let profile = suite.profiles[0].clone();
    let trace = Trace::generate(&profile, suite.scale.insts.min(MAX_RECORDS));
    (profile, trace)
}

fn is_cond(r: &TraceRecord) -> bool {
    r.branch_kind().is_some_and(BranchKind::is_conditional)
}

/// Replays the workload's inputs through every layer; the result holds
/// one member per replayed metric.
pub fn replay(run: &Run, store_dir: &Path) -> Result<JsonValue, String> {
    let (profile, trace) = workload_trace(run);
    let recs = &trace.records;
    let n = recs.len();
    let mut m: Vec<(String, JsonValue)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_owned(), num(v)));

    // trace: executor, v2 chunk codec.
    let prog = build_program(&profile);
    put(
        "trace.gen.ns_per_rec",
        ns_per(n, || {
            for r in TraceExecutor::new(&prog, profile.seed).take(n) {
                black_box(r);
            }
            n
        }),
    );
    let encode = || {
        let mut w =
            TraceWriter::new(Vec::with_capacity(n * 32), &profile.name).expect("in-memory writer");
        for r in recs {
            w.push(r).expect("in-memory write");
        }
        w.finish().expect("in-memory finish")
    };
    let bytes = encode();
    let mb = bytes.len() as f64 / 1e6;
    let per_rec = ns_per(n, || {
        black_box(encode());
        n
    });
    put("trace.v2.encode_mb_s", mb / (per_rec * n as f64 / 1e9));
    let per_rec = ns_per(n, || {
        for r in TraceReader::new(&bytes[..]).expect("own encoding") {
            black_box(r.expect("own encoding"));
        }
        n
    });
    put("trace.v2.decode_mb_s", mb / (per_rec * n as f64 / 1e9));

    // core: plan on a trained BTB (one plan per fetch block, i.e. after
    // every taken branch), update from cold, per instruction.
    let blocks: Vec<u64> = std::iter::once(recs[0].pc)
        .chain(recs.windows(2).filter(|w| w[0].taken).map(|w| w[1].pc))
        .collect();
    let mut core_ibtb = 0.0;
    for (org, cfg) in crate::batch::org_roster() {
        let update = ns_per(n, || {
            let mut btb = build_btb(cfg.clone());
            for r in recs.iter().filter(|r| r.op.is_branch()) {
                btb.update(r);
            }
            black_box(&btb);
            n
        });
        let mut btb = build_btb(cfg.clone());
        for r in recs.iter().filter(|r| r.op.is_branch()) {
            btb.update(r);
        }
        let mut oracle = FixedOracle::default();
        let plan = ns_per(n, || {
            for &pc in &blocks {
                black_box(btb.plan(pc, &mut oracle));
                oracle.noted_calls.clear();
            }
            n
        });
        if org == "ibtb" {
            core_ibtb = plan + update;
        }
        put(&format!("core.{org}.plan_ns"), plan);
        put(&format!("core.{org}.update_ns"), update);
    }

    // bpred: per conditional branch, per indirect op, per RAS op, each
    // replaying only the branches that reach that structure.
    let conds: Vec<(u64, bool)> = recs
        .iter()
        .filter(|r| is_cond(r))
        .map(|r| (r.pc, r.taken))
        .collect();
    let perceptron = ns_per(conds.len(), || {
        let mut p = HashedPerceptron::new(PerceptronConfig::paper());
        let mut h = GlobalHistory::new();
        for &(pc, taken) in &conds {
            black_box(p.predict_and_train(pc, &h, taken));
            h.push(taken);
        }
        conds.len()
    });
    put("bpred.perceptron.ns_per_br", perceptron);
    let indirects: Vec<(u64, u64)> = recs
        .iter()
        .filter(|r| {
            r.branch_kind()
                .is_some_and(|k| k.is_indirect() && k != BranchKind::Return)
        })
        .map(|r| (r.pc, r.target))
        .collect();
    let indirect = ns_per(indirects.len(), || {
        let mut p = IndirectPredictor::paper();
        let mut path = PathHistory::new();
        for &(pc, target) in &indirects {
            black_box(p.predict(pc, &path));
            p.update(pc, &path, target);
            path.push_target(target);
        }
        indirects.len()
    });
    put(
        "bpred.indirect.ns_per_op",
        if indirects.is_empty() { 0.0 } else { indirect },
    );
    // `Some(return address)` pushes, `None` pops.
    let ras_ops: Vec<Option<u64>> = recs
        .iter()
        .filter_map(|r| match r.branch_kind() {
            Some(k) if k.is_call() => Some(Some(r.fallthrough())),
            Some(BranchKind::Return) => Some(None),
            _ => None,
        })
        .collect();
    let ras = ns_per(ras_ops.len(), || {
        let mut s = ReturnAddressStack::paper();
        for op in &ras_ops {
            match *op {
                Some(addr) => s.push(addr),
                None => {
                    black_box(s.pop());
                }
            }
        }
        ras_ops.len()
    });
    put("bpred.ras.ns_per_op", ras);

    // uarch: demand fetch per I-cache line change; raw cache access.
    let lines: Vec<u64> = std::iter::once(recs[0].pc)
        .chain(
            recs.windows(2)
                .filter(|w| w[0].pc / 64 != w[1].pc / 64)
                .map(|w| w[1].pc),
        )
        .collect();
    let fetch = ns_per(lines.len(), || {
        let mut mem = MemoryHierarchy::paper();
        for (cycle, &pc) in lines.iter().enumerate() {
            black_box(mem.fetch_inst(pc, cycle as u64));
        }
        lines.len()
    });
    put("uarch.mem.ns_per_fetch", fetch);
    put(
        "uarch.cache.ns_per_access",
        ns_per(lines.len(), || {
            let mut c = Cache::new(CacheConfig {
                name: "L1I",
                sets: 64,
                ways: 8,
                latency: 4,
                mshrs: 16,
            });
            for (cycle, &pc) in lines.iter().enumerate() {
                black_box(c.access(pc / 64, cycle as u64, |leave| leave + 20));
            }
            lines.len()
        }),
    );

    // sim: cycle tier per organization, backend, fast-forward, resume.
    let pipe = PipelineConfig::paper();
    let roster = crate::batch::org_roster();
    let mut cycle_ibtb = 0.0;
    for (org, cfg) in &roster {
        let ns = ns_per(n, || {
            black_box(btb_sim::simulate(&trace, cfg.clone(), pipe.clone()));
            n
        });
        if *org == "ibtb" {
            cycle_ibtb = ns;
        }
        put(&format!("sim.cycle.{org}.ns_per_inst"), ns);
    }
    let backend = ns_per(n, || {
        let mut b = Backend::new(&pipe);
        let mut mem = MemoryHierarchy::paper();
        for (i, r) in recs.iter().enumerate() {
            black_box(b.process(r, (i / pipe.width) as u64, &mut mem));
        }
        n
    });
    put("sim.backend.ns_per_inst", backend);
    let ibtb = roster[0].1.clone();
    let ff_once = || {
        let mut it = recs.iter().copied();
        WarmupCheckpoint::capture(&mut it, n as u64, ibtb.clone(), &pipe)
            .expect("capture within the trace")
    };
    let ff = ns_per(n, || {
        black_box(ff_once());
        n
    });
    put("sim.ff.ns_per_inst", ff);
    let ckpt = ff_once();
    let resumes = 50;
    let t = Instant::now();
    for _ in 0..resumes {
        black_box(Simulator::resume(&ckpt, std::iter::empty(), pipe.clone()));
    }
    put(
        "sim.resume_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(resumes),
    );
    // The fast-forward ratio over paired repetitions, with its spread and
    // its cycle-tier base.
    let ratios: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(btb_sim::simulate(&trace, ibtb.clone(), pipe.clone()));
            let cycle = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(ff_once());
            cycle / t.elapsed().as_secs_f64()
        })
        .collect();
    put("sim.ff_speedup", median(&ratios).unwrap_or(0.0));
    put("sim.ff_speedup_iqr", relative_iqr(&ratios).unwrap_or(0.0));
    put("sim.ff.cycle_minst_s", 1e3 / cycle_ibtb);
    let share = |ops: usize| ops as f64 / n as f64;
    let parts = core_ibtb
        + perceptron * share(conds.len())
        + indirect * share(indirects.len())
        + ras * share(ras_ops.len())
        + fetch * share(lines.len())
        + backend;
    put("sim.glue_share", 1.0 - parts / cycle_ibtb);

    // store: object I/O on a scratch store, report codec, hashing.
    let store = Store::open(store_dir).map_err(|e| format!("cannot open store: {e}"))?;
    put(
        "store.put_trace_ms",
        mean_ms(5, || store.put_trace(&profile, n, &trace)),
    );
    put(
        "store.get_trace_ms",
        mean_ms(5, || {
            black_box(store.get_trace(&profile, n).expect("just published"));
        }),
    );
    let mut stream_profile = profile.clone();
    stream_profile.name.push_str("-stream");
    store
        .put_trace_stream(
            &stream_profile,
            n,
            &stream_profile.name,
            recs.iter().copied(),
        )
        .map_err(|e| format!("streamed publish: {e}"))?;
    put(
        "store.open_stream_ms",
        mean_ms(5, || {
            let s = store
                .open_trace_stream(&stream_profile, n)
                .expect("just published");
            black_box(s.count());
        }),
    );
    let report = btb_sim::simulate(&trace, ibtb.clone(), pipe.clone());
    let key = Sha256::digest(profile.name.as_bytes());
    put(
        "store.put_report_us",
        1e3 * mean_ms(200, || store.put_report(&key, &report)),
    );
    put(
        "store.get_report_us",
        1e3 * mean_ms(200, || {
            black_box(store.get_report(&key).expect("just published"));
        }),
    );
    put(
        "store.report_codec_us",
        1e3 * mean_ms(2000, || {
            black_box(codec::decode_report(&codec::encode_report(&report)).expect("own encoding"));
        }),
    );
    let encoded = codec::encode_trace(&trace);
    let sha_ms = mean_ms(5, || {
        black_box(Sha256::digest(&encoded));
    });
    put("store.sha256_mb_s", encoded.len() as f64 / 1e3 / sha_ms);

    // serve: HTTP framing on recorded bytes and the strict submission
    // parser, on a submission naming this workload's trace.
    let body = format!(
        "{{\"workload\": \"{}\", \"config\": \"{}\", \"insts\": {n}, \"warmup\": {}}}",
        profile.name,
        btb_check::campaign_configs()[0].name,
        n / 4
    );
    let mut request = Vec::new();
    btb_serve::http::write_request(
        &mut request,
        "POST",
        "/experiments",
        &[("Content-Type".to_owned(), "application/json".to_owned())],
        body.as_bytes(),
    )
    .map_err(|e| format!("recording a request: {e}"))?;
    put(
        "serve.http.read_us",
        1e3 * mean_ms(20_000, || {
            black_box(btb_serve::http::read_request(&mut &request[..]).expect("recorded request"));
        }),
    );
    let response = btb_serve::http::Response::json(
        200,
        btb_harness::obs::report_json(&report, None).to_pretty_string(),
    )
    .with_header("ETag", "\"0\"")
    .with_header("X-Btb-Source", "memo");
    let mut sink = Vec::with_capacity(16 << 10);
    put(
        "serve.http.write_us",
        1e3 * mean_ms(20_000, || {
            sink.clear();
            btb_serve::http::write_response(&mut sink, &response, true).expect("in-memory write");
            black_box(&sink);
        }),
    );
    put(
        "serve.json.parse_us",
        1e3 * mean_ms(20_000, || {
            black_box(JsonValue::parse_strict(&body).expect("own submission"));
        }),
    );
    m.push(("records".to_owned(), int(n as u64)));
    Ok(JsonValue::Object(m))
}

/// Names of the replayed metrics and their units, in report order.
const REPLAYED: &[(&str, &str)] = &[
    ("trace.gen.ns_per_rec", "ns"),
    ("trace.v2.encode_mb_s", "MB/s"),
    ("trace.v2.decode_mb_s", "MB/s"),
    ("bpred.perceptron.ns_per_br", "ns"),
    ("bpred.indirect.ns_per_op", "ns"),
    ("bpred.ras.ns_per_op", "ns"),
    ("uarch.mem.ns_per_fetch", "ns"),
    ("uarch.cache.ns_per_access", "ns"),
    ("sim.backend.ns_per_inst", "ns"),
    ("sim.ff.ns_per_inst", "ns"),
    ("sim.resume_us", "us"),
    ("sim.ff_speedup", "x"),
    ("sim.ff_speedup_iqr", "ratio"),
    ("sim.ff.cycle_minst_s", "Minst/s"),
    ("sim.glue_share", "ratio"),
    ("store.put_trace_ms", "ms"),
    ("store.get_trace_ms", "ms"),
    ("store.open_stream_ms", "ms"),
    ("store.put_report_us", "us"),
    ("store.get_report_us", "us"),
    ("store.report_codec_us", "us"),
    ("store.sha256_mb_s", "MB/s"),
    ("serve.http.read_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.json.parse_us", "us"),
];

/// Every per-layer metric name with its unit, in report order.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let orgs: Vec<&str> = crate::batch::org_roster().iter().map(|(o, _)| *o).collect();
    out.extend(REPLAYED[..3].iter().map(|(k, u)| ((*k).to_owned(), *u)));
    for org in &orgs {
        out.push((format!("core.{org}.plan_ns"), "ns"));
        out.push((format!("core.{org}.update_ns"), "ns"));
    }
    out.extend(REPLAYED[3..8].iter().map(|(k, u)| ((*k).to_owned(), *u)));
    for org in &orgs {
        out.push((format!("sim.cycle.{org}.ns_per_inst"), "ns"));
    }
    out.extend(REPLAYED[8..15].iter().map(|(k, u)| ((*k).to_owned(), *u)));
    out.push(("sim.span_s".to_owned(), "s"));
    out.push(("harness.suite_s".to_owned(), "s"));
    for name in btb_harness::experiments::ALL {
        out.push((format!("harness.exp.{name}_s"), "s"));
    }
    for k in ["cells", "fresh_cells", "memo_hits", "store_hits"] {
        out.push((format!("harness.{k}"), "count"));
    }
    out.push(("harness.memo_wait_ms".to_owned(), "ms"));
    out.push(("harness.ckpt_capture_ms".to_owned(), "ms"));
    out.extend(REPLAYED[15..22].iter().map(|(k, u)| ((*k).to_owned(), *u)));
    out.push(("store.lookup_ms".to_owned(), "ms"));
    out.push(("store.bytes_read".to_owned(), "bytes"));
    out.push(("store.bytes_written".to_owned(), "bytes"));
    out.push(("par.jobs".to_owned(), "count"));
    out.push(("par.utilization".to_owned(), "ratio"));
    out.push(("par.worker_s".to_owned(), "s"));
    out.push(("par.queue_wait_ms".to_owned(), "ms"));
    out.extend(REPLAYED[22..].iter().map(|(k, u)| ((*k).to_owned(), *u)));
    out.push(("obs.trace_overhead_pct".to_owned(), "%"));
    out.push(("obs.wall_dropped".to_owned(), "count"));
    out.push(("obs.wall_spans".to_owned(), "count"));
    out
}

/// Median over `sources` of the numeric member at `path`.
fn med(sources: &[JsonValue], path: &str) -> f64 {
    median(&sources.iter().map(|v| f(v, path)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Fills the ledger with every per-layer metric, in [`per_layer_names`]
/// order; `values` supplies the ones that do not come from the replays.
fn fill(layers: &JsonValue, values: &[(String, f64)], ledger: &mut Ledger) {
    for (name, unit) in per_layer_names() {
        let v = values
            .iter()
            .find(|(k, _)| *k == name)
            .map_or_else(|| f(layers, &name), |(_, v)| *v);
        ledger.put(&name, v, unit);
    }
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

fn span_ms(passes: &[JsonValue], name: &str, stat: &str) -> f64 {
    med(passes, &format!("spans/{name}/{stat}"))
}

/// Per-layer metrics of a batch workload.
pub fn ledger_from_batch(
    run: &Run,
    untraced: &[JsonValue],
    traced: &[JsonValue],
    layers: &JsonValue,
    ledger: &mut Ledger,
) {
    let mut v: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, x: f64| v.push((k.to_owned(), x));
    put(
        "sim.span_s",
        ["sim.warmup", "sim.warmup.ff", "sim.measured"]
            .iter()
            .map(|name| span_ms(traced, name, "total_ms"))
            .sum::<f64>()
            / 1e3,
    );
    put(
        "harness.suite_s",
        span_ms(traced, "bench.suite", "total_ms") / 1e3,
    );
    for name in btb_harness::experiments::ALL {
        put(
            &format!("harness.exp.{name}_s"),
            span_ms(traced, name, "total_ms") / 1e3,
        );
    }
    for k in ["cells", "fresh_cells", "memo_hits", "store_hits"] {
        put(
            &format!("harness.{k}"),
            med(traced, &format!("counters/{k}")),
        );
    }
    put(
        "harness.memo_wait_ms",
        span_ms(traced, "memo.wait", "total_ms"),
    );
    put(
        "harness.ckpt_capture_ms",
        span_ms(traced, "ckpt.capture", "total_ms"),
    );
    put(
        "store.lookup_ms",
        span_ms(traced, "store.lookup", "total_ms"),
    );
    put("store.bytes_read", med(traced, "store_bytes_read"));
    put("store.bytes_written", med(traced, "store_bytes_written"));
    put("par.jobs", med(traced, "pool/jobs"));
    put("par.utilization", med(traced, "pool/utilization"));
    put("par.worker_s", med(traced, "pool/worker_s"));
    put("par.queue_wait_ms", med(traced, "pool/queue_wait_ms"));
    put(
        "obs.trace_overhead_pct",
        overhead_pct(med(untraced, "timed_ref_s"), med(traced, "timed_ref_s")),
    );
    let dropped = traced
        .iter()
        .map(|p| f(p, "spans/wall_dropped"))
        .fold(0.0, f64::max);
    put("obs.wall_dropped", dropped);
    put("obs.wall_spans", med(traced, "spans/wall_spans"));
    ledger.check(
        dropped == 0.0,
        "the span ring dropped spans; traced numbers are partial",
    );
    eprintln!(
        "# {}: layer replays over {} records",
        run.workload.name(),
        f(layers, "records")
    );
    fill(layers, &v, ledger);
}
