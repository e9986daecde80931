//! The batch workloads: `matrix-cold`, `matrix-warm` and `stream-ff`
//! passes, and the in-process cell probe that checks the fresh and memo
//! cell paths.

use crate::clock::{Lap, RefClock};
use crate::inputs::{mix, planned_suite, remixed_profiles, Workload};
use crate::output::{int, num, obj, push, text};
use crate::Run;
use btb_core::{BtbConfig, PullPolicy};
use btb_harness::{configs, experiments, run_cell, run_cell_streamed, run_counters, CellSource};
use btb_sim::PipelineConfig;
use btb_store::{Digest, JsonValue, Sha256, Store};
use btb_trace::{build_program, Trace, TraceExecutor};
use std::path::Path;

/// Trace length of the probe cells: short, so a thousand fresh cells fit
/// in a run.
const PROBE_INSTS: usize = 4_000;
/// Seed-remixed server profiles the probe cells cycle through.
const PROBE_PROFILES: usize = 8;
/// Fresh cells in one probe slice.
const PROBE_OPS: usize = 125;
/// Memo repeats per fresh cell; each one is checked.
const REPEATS_PER_FRESH: usize = 8;

fn open_store(dir: &Path) -> Result<&'static Store, String> {
    let store =
        Store::open(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    btb_harness::install_store(store).map_err(|_| "a store is already installed".to_owned())
}

/// Turns on the program's wall spans and pool statistics for a traced
/// pass.
pub fn enable_tracing() {
    btb_obs::span::set_wall_tracing(true);
    btb_par::set_collect_pool_stats(true);
}

/// The organizations and backend variants of `stream-ff`: three
/// organizations, each under the realistic and the ideal backend, so
/// every warm-up checkpoint is captured once and resumed twice.
fn stream_cells() -> (Vec<BtbConfig>, Vec<PipelineConfig>) {
    let warmup = Workload::StreamFf.scale().warmup;
    (
        vec![
            configs::real_ibtb16(),
            configs::real_rbtb(2, false),
            configs::real_bbtb(16, 2, true),
        ],
        vec![
            PipelineConfig::paper()
                .with_warmup(warmup)
                .with_fast_forward(),
            PipelineConfig::paper_ideal_backend()
                .with_warmup(warmup)
                .with_fast_forward(),
        ],
    )
}

fn hash_report(h: &mut Sha256, report: &btb_sim::SimReport) {
    h.update(&btb_store::codec::encode_report(report));
}

/// One pass of a batch workload in a fresh process. `populate` marks the
/// `matrix-warm` set-up pass, which runs cold into the store the warm
/// passes then read.
pub fn pass(run: &Run, store_dir: &Path, populate: bool, spot: bool) -> Result<JsonValue, String> {
    let store = open_store(store_dir)?;
    if run.trace {
        enable_tracing();
    }
    let mut out = match run.workload {
        Workload::MatrixCold | Workload::MatrixWarm => matrix_pass(run, store, populate)?,
        Workload::StreamFf => stream_pass(run, store, spot)?,
    };
    let c = store.peek_counters();
    push(&mut out, "store_bytes_read", int(c.bytes_read));
    push(&mut out, "store_bytes_written", int(c.bytes_written));
    if run.trace {
        push(&mut out, "spans", crate::layers::span_totals());
        push(&mut out, "pool", crate::layers::pool_stats());
    }
    Ok(out)
}

/// `run_counters` deltas since `before`, with the fresh instructions.
pub fn counters_json(before: btb_harness::RunCounters, insts: usize) -> JsonValue {
    let after = run_counters();
    let fresh = after.fresh_cells - before.fresh_cells;
    obj(vec![
        ("cells", int(after.cells - before.cells)),
        ("fresh_cells", int(fresh)),
        ("memo_hits", int(after.memo_hits - before.memo_hits)),
        ("store_hits", int(after.store_hits - before.store_hits)),
        ("fresh_insts", int(fresh * insts as u64)),
    ])
}

fn matrix_pass(run: &Run, store: &'static Store, populate: bool) -> Result<JsonValue, String> {
    let mut suite = planned_suite(run.workload, run.seed);
    let insts = suite.scale.insts;
    let mut clock = RefClock::start(btb_par::threads());
    let (traces, load) = clock.time(|| {
        let _g = btb_obs::span::enter("bench.suite");
        btb_par::ordered_map(&suite.profiles, |_, p| {
            store.get_trace(p, insts).unwrap_or_else(|| {
                let trace = Trace::generate(p, insts);
                store.put_trace(p, insts, &trace);
                trace
            })
        })
    });
    suite.traces = traces;
    let before = run_counters();
    let mut digest = Sha256::new();
    // One phase per experiment, so the reference runs between them follow
    // the host's speed through the pass.
    let (base, mut experiments_total) = clock.time(|| {
        let _g = btb_obs::span::enter("baseline");
        experiments::baseline_reports(&suite)
    });
    let mut exp_s = Vec::new();
    for name in experiments::ALL {
        let (fig, lap) = clock.time(|| {
            let _g = btb_obs::span::enter(name);
            experiments::run_by_name(name, Some(&suite), Some(&base))
        });
        let fig = fig.map_err(|e| e.to_string())?;
        experiments_total = experiments_total.plus(lap);
        exp_s.push((*name, num(lap.wall)));
        digest.update(fig.to_tsv().as_bytes());
        digest.update(fig.to_json().to_pretty_string().as_bytes());
    }
    let rss = crate::peak_rss_kb();
    for r in &base {
        hash_report(&mut digest, r);
    }
    // Cold: generating the suite is set-up and the experiments are the
    // timed phase. Warm: loading the suite from the store is part of the
    // re-render a user pays for, so it is timed; the set-up is the whole
    // cold pass that populated the store.
    let (setup, timed) = match (run.workload, populate) {
        (_, true) => (load.plus(experiments_total), load.plus(experiments_total)),
        (Workload::MatrixCold, _) => (load, experiments_total),
        _ => (Lap::default(), load.plus(experiments_total)),
    };
    Ok(obj(vec![
        ("setup_ref_s", num(setup.at_ref)),
        ("setup_cpu_s", num(setup.cpu)),
        ("setup_wall_s", num(setup.wall)),
        ("timed_ref_s", num(timed.at_ref)),
        ("timed_cpu_s", num(timed.cpu)),
        ("timed_wall_s", num(timed.wall)),
        ("host_factor", num(timed.factor())),
        ("suite_s", num(load.wall)),
        ("counters", counters_json(before, insts)),
        ("experiments", obj(exp_s)),
        ("digest", text(digest.finish().to_hex())),
        ("peak_rss_kb", int(rss)),
    ]))
}

fn stream_pass(run: &Run, store: &'static Store, spot: bool) -> Result<JsonValue, String> {
    let suite = planned_suite(Workload::StreamFf, run.seed);
    let insts = suite.scale.insts;
    let mut clock = RefClock::start(btb_par::threads());
    let (published, setup) = clock.time(|| {
        let _g = btb_obs::span::enter("bench.suite");
        // The streamed publish `Suite::plan` does, over the seed-remixed
        // profiles (`Suite::plan` takes the server suite's own seeds), and
        // failing the pass where `Suite::plan` would only warn.
        btb_par::ordered_map(&suite.profiles, |_, p| {
            let prog = build_program(p);
            let records = TraceExecutor::new(&prog, p.seed).take(insts);
            store.put_trace_stream(p, insts, &p.name, records)
        })
    });
    for r in published {
        r.map_err(|e| format!("streamed publish failed: {e}"))?;
    }
    let (cfgs, pipes) = stream_cells();
    let keys: Vec<Digest> = suite
        .profiles
        .iter()
        .map(|p| btb_store::trace_key(p, insts))
        .collect();
    let jobs: Vec<(usize, usize, usize)> = (0..suite.profiles.len())
        .flat_map(|w| (0..cfgs.len()).flat_map(move |c| (0..2).map(move |p| (w, c, p))))
        .collect();
    let before = run_counters();
    let (reports, timed) = clock.time(|| {
        let _g = btb_obs::span::enter("bench.cells");
        btb_par::ordered_map(&jobs, |_, &(w, c, p)| {
            run_cell_streamed(
                &suite.profiles[w],
                insts,
                &keys[w],
                &cfgs[c],
                &pipes[p],
                Some(store),
            )
            .report
        })
    });
    let rss = crate::peak_rss_kb();
    let counters = counters_json(before, insts);
    let mut digest = Sha256::new();
    for r in &reports {
        hash_report(&mut digest, r);
    }
    Ok(obj(vec![
        ("setup_ref_s", num(setup.at_ref)),
        ("setup_cpu_s", num(setup.cpu)),
        ("setup_wall_s", num(setup.wall)),
        ("timed_ref_s", num(timed.at_ref)),
        ("timed_cpu_s", num(timed.cpu)),
        ("timed_wall_s", num(timed.wall)),
        ("host_factor", num(timed.factor())),
        ("suite_s", num(setup.wall)),
        ("counters", counters),
        ("digest", text(digest.finish().to_hex())),
        ("peak_rss_kb", int(rss)),
        (
            "spot_ok",
            JsonValue::Bool(!spot || spot_check(&suite, &cfgs[0], &pipes[0], &reports[0])),
        ),
    ]))
}

/// Re-runs the first streamed cell through the materialized simulator
/// and compares the reports byte for byte.
fn spot_check(
    suite: &btb_harness::Suite,
    cfg: &BtbConfig,
    pipe: &PipelineConfig,
    streamed: &btb_sim::SimReport,
) -> bool {
    let trace = Trace::generate(&suite.profiles[0], suite.scale.insts);
    let direct = btb_sim::simulate(&trace, cfg.clone(), pipe.clone());
    btb_store::codec::encode_report(&direct) == btb_store::codec::encode_report(streamed)
}

/// The in-process cell probe, in this workload's warm-up tier. Fresh
/// cells run the simulator on new keys, each exactly once; memo repeats
/// ask for a delivered key again and must return identical bytes without
/// simulating. Every operation is checked and counted.
///
/// The probe runs materialized cells through `run_cell` with no
/// persistent store, so it checks the memo alone.
pub fn probe(run: &Run, slice: u64) -> Result<JsonValue, String> {
    let profiles = remixed_profiles(mix(run.seed), PROBE_PROFILES);
    let cfgs: Vec<BtbConfig> = org_roster().into_iter().map(|(_, c)| c).collect();
    let ff = run.workload == Workload::StreamFf;
    let traces: Vec<Trace> = profiles
        .iter()
        .map(|p| Trace::generate(p, PROBE_INSTS))
        .collect();
    let tkeys: Vec<Digest> = profiles
        .iter()
        .map(|p| btb_store::trace_key(p, PROBE_INSTS))
        .collect();
    let offset = mix(run.seed ^ mix(slice)) % 500;
    // Cell `i` is one (profile, organization, warm-up) key: profiles vary
    // fastest, then organizations, then the warm-up length.
    let run_one = |i: usize| {
        let w = i % PROBE_PROFILES;
        let cfg = &cfgs[i / PROBE_PROFILES % cfgs.len()];
        let round = (i / PROBE_PROFILES / cfgs.len()) as u64;
        let warmup = 1 + (offset + round) % (PROBE_INSTS as u64 / 2 - 1);
        let mut pipe = PipelineConfig::paper().with_warmup(warmup);
        if ff {
            pipe = pipe.with_fast_forward();
        }
        run_cell(&traces[w], &tkeys[w], cfg, &pipe, None)
    };
    let report_digest =
        |r: &btb_sim::SimReport| Sha256::digest(&btb_store::codec::encode_report(r));
    let mut held: Vec<Digest> = Vec::with_capacity(PROBE_OPS);
    let mut failed = 0u64;
    let mut memo_ops = 0u64;
    let before = run_counters();
    let mut state = mix(run.seed ^ 0x9b0e);
    for i in 0..PROBE_OPS {
        let out = run_one(i);
        failed += u64::from(out.source != CellSource::Fresh);
        held.push(report_digest(&out.report));
        for _ in 0..REPEATS_PER_FRESH {
            state = mix(state);
            let j = (state % held.len() as u64) as usize;
            let again = run_one(j);
            memo_ops += 1;
            failed += u64::from(
                again.source == CellSource::Fresh || report_digest(&again.report) != held[j],
            );
        }
    }
    let fresh_cells = run_counters().fresh_cells - before.fresh_cells;
    Ok(obj(vec![
        ("fresh_ops", int(PROBE_OPS as u64)),
        ("memo_ops", int(memo_ops)),
        ("failed", int(failed)),
        (
            "exactly_once",
            JsonValue::Bool(fresh_cells == PROBE_OPS as u64),
        ),
    ]))
}

/// The configuration of `org` used wherever one organization stands for
/// its `OrgKind` (layer replays and the cycle-tier comparisons).
#[must_use]
pub fn org_roster() -> Vec<(&'static str, BtbConfig)> {
    vec![
        ("ibtb", configs::real_ibtb16()),
        ("rbtb", configs::real_rbtb(2, false)),
        ("rbtb_ovf", configs::real_rbtb_overflow(2, 256)),
        ("bbtb", configs::real_bbtb(16, 2, true)),
        ("hetero", configs::hetero_block_region(2, 4)),
        (
            "mbbtb",
            configs::real_mbbtb(16, 2, PullPolicy::UncondDirect),
        ),
    ]
}
