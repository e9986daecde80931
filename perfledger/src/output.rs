//! Orchestration of one run: spawning the child passes, checking their
//! outputs, reducing samples to the reported metrics, and printing them.

use crate::inputs::{input_digest, Workload};
use crate::stats::median;
use crate::Run;
use btb_store::JsonValue;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest batch passes in a run, whatever `--seconds` says: three give a
/// median that one slow pass cannot move.
const MIN_PASSES: usize = 3;
/// Stores the `matrix-warm` set-up populates; warm passes alternate
/// between them, and their two set-up times give the set-up median.
const WARM_STORES: u64 = 2;
/// Probe slices per batch run.
const PROBE_SLICES: u64 = 8;

pub fn obj<K: Into<String>>(members: Vec<(K, JsonValue)>) -> JsonValue {
    JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(v: f64) -> JsonValue {
    JsonValue::number(v)
}

pub fn int(v: u64) -> JsonValue {
    JsonValue::Integer(i64::try_from(v).unwrap_or(i64::MAX))
}

pub fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::string(s)
}

pub fn push(o: &mut JsonValue, key: &str, v: JsonValue) {
    if let JsonValue::Object(m) = o {
        m.push((key.to_owned(), v));
    }
}

/// Numeric member at a `/`-separated path; 0 when absent.
pub fn f(v: &JsonValue, path: &str) -> f64 {
    path.split('/')
        .try_fold(v, |v, k| v.get(k))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

pub fn s<'a>(v: &'a JsonValue, path: &str) -> &'a str {
    path.split('/')
        .try_fold(v, |v, k| v.get(k))
        .and_then(JsonValue::as_str)
        .unwrap_or("")
}

pub fn b(v: &JsonValue, key: &str) -> bool {
    matches!(v.get(key), Some(JsonValue::Bool(true)))
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics and the run's correctness verdict.
#[derive(Default)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, problem: impl Into<String>) {
        if !ok {
            self.problems.push(problem.into());
        }
    }

    /// Counts one checked operation in `attempted`, and in `failed` with
    /// its problem when the check failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

/// Spawns `role` as a child process and returns its result object.
pub fn spawn(
    run: &Run,
    role: &str,
    store: &Path,
    index: u64,
    trace: bool,
    threads: usize,
) -> Result<JsonValue, String> {
    let out = run
        .dir
        .join(format!("{role}-{index}-{}.json", u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let status = Command::new(exe)
        .arg("child")
        .arg(role)
        .args(["--workload", run.workload.name()])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &threads.to_string()])
        .arg("--dir")
        .arg(&run.dir)
        .arg("--store")
        .arg(store)
        .arg("--out")
        .arg(&out)
        .args(["--index", &index.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot start {role} child: {e}"))?;
    if !status.success() {
        return Err(format!("{role} child {index} failed: {status}"));
    }
    let body =
        std::fs::read_to_string(&out).map_err(|e| format!("{role} child wrote no result: {e}"))?;
    JsonValue::parse(&body).map_err(|e| format!("{role} child result unparseable: {e}"))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where a result came from: seed, host parallelism, threads, scale,
/// warm-up tier, the pinned harness modes, source revision and compiler.
fn provenance(run: &Run) -> JsonValue {
    let scale = run.workload.scale();
    obj(vec![
        ("workload", text(run.workload.name())),
        ("seed", int(run.seed)),
        ("seconds", int(run.seconds)),
        ("trace", JsonValue::Bool(run.trace)),
        (
            "input_digest",
            text(input_digest(run.workload, run.seed).to_hex()),
        ),
        ("nproc", int(crate::nproc() as u64)),
        ("threads", int(run.threads as u64)),
        (
            "scale",
            obj(vec![
                ("insts", int(scale.insts as u64)),
                ("warmup", int(scale.warmup)),
                ("workloads", int(scale.workloads as u64)),
            ]),
        ),
        ("warmup_tier", text(run.workload.warmup_tier())),
        ("harness_ff_mode", JsonValue::Bool(btb_harness::ff_mode())),
        (
            "harness_stream_mode",
            JsonValue::Bool(btb_harness::stream_mode()),
        ),
        ("git_rev", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(command_line("rustc", &["--version"]))),
    ])
}

/// Runs the workload and returns the result line.
pub fn orchestrate(run: &Run) -> Result<String, String> {
    // Provenance goes to stdout ahead of the result line, so a saved
    // result always carries the inputs and build it came from.
    println!("{}", compact(&provenance(run)));
    let mut ledger = Ledger::default();
    if run.trace {
        batch_traced(run, &mut ledger)?;
    } else {
        batch_untraced(run, &mut ledger)?;
    }
    let correct = ledger.problems.is_empty();
    for p in &ledger.problems {
        eprintln!("perfledger: check failed: {p}");
    }
    eprintln!("{:<36} {:>16}  unit", "metric", "value");
    for m in &ledger.metrics {
        eprintln!("{:<36} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.attempted.max(1),
        ledger.failed
    );
    for (i, m) in ledger.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    line.push_str("}}");
    if correct {
        Ok(line)
    } else {
        // Print the measurements anyway, then fail the run.
        println!("{line}");
        Err(format!("{} output check(s) failed", ledger.problems.len()))
    }
}

/// Single-line rendering of a JSON value.
pub fn compact(v: &JsonValue) -> String {
    v.to_pretty_string()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}

fn store_for(run: &Run, role: &str, index: u64) -> PathBuf {
    run.dir.join(format!("store-{role}-{index}"))
}

/// Warm stores populated once per run for `matrix-warm`, by cold passes
/// on `nproc` threads; returns those passes and the digest they rendered.
fn populate_warm(run: &Run, ledger: &mut Ledger) -> Result<(Vec<JsonValue>, String), String> {
    let mut populated = Vec::new();
    let mut digest = String::new();
    for k in 0..WARM_STORES {
        let r = spawn(
            run,
            "populate",
            &store_for(run, "warm", k),
            k,
            false,
            crate::nproc(),
        )?;
        let d = s(&r, "digest").to_owned();
        ledger.check(
            digest.is_empty() || d == digest,
            "cold passes of one seed rendered different bytes",
        );
        digest = d;
        populated.push(r);
    }
    Ok((populated, digest))
}

/// Runs one batch pass; a store-backed cold workload gets a fresh store.
fn batch_pass(run: &Run, i: u64, trace: bool) -> Result<JsonValue, String> {
    let store = if run.workload == Workload::MatrixWarm {
        store_for(run, "warm", i % WARM_STORES)
    } else {
        store_for(run, "pass", i)
    };
    let r = spawn(run, "pass", &store, i, trace, run.threads);
    if run.workload != Workload::MatrixWarm {
        // Stream stores hold hundreds of megabytes of trace objects.
        let _ = std::fs::remove_dir_all(&store);
    }
    r
}

/// Checks every pass's outputs; each pass is one operation in
/// `attempted`, and in `failed` if any of its checks fails.
fn check_passes(run: &Run, passes: &[JsonValue], expect: &str, ledger: &mut Ledger) {
    for p in passes {
        let problem = if s(p, "digest") != expect {
            Some(format!(
                "{} pass rendered bytes that differ from the first pass",
                run.workload.name()
            ))
        } else if p.get("spot_ok").is_some() && !b(p, "spot_ok") {
            Some("streamed cell differs from the materialized simulation".to_owned())
        } else if run.workload == Workload::MatrixWarm && f(p, "counters/fresh_cells") != 0.0 {
            Some("a warm pass simulated fresh cells".to_owned())
        } else {
            None
        };
        ledger.op(problem);
    }
}

fn batch_untraced(run: &Run, ledger: &mut Ledger) -> Result<(), String> {
    let (populated, cold_digest) = if run.workload == Workload::MatrixWarm {
        populate_warm(run, ledger)?
    } else {
        (Vec::new(), String::new())
    };
    let mut setup: Vec<f64> = populated.iter().map(|r| f(r, "setup_ref_s")).collect();
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut probes = Vec::new();
    loop {
        let run_share = start.elapsed().as_secs_f64() / run.seconds as f64;
        // Probe slices are spread evenly over the run.
        let slices_due = ((run_share * PROBE_SLICES as f64) as u64 + 1).min(PROBE_SLICES);
        if (probes.len() as u64) < slices_due {
            let k = probes.len() as u64;
            probes.push(spawn(
                run,
                "probe",
                &store_for(run, "probe", k),
                k,
                false,
                1,
            )?);
            continue;
        }
        if passes.len() >= MIN_PASSES && run_share >= 1.0 {
            break;
        }
        let r = batch_pass(run, passes.len() as u64, false)?;
        if run.workload != Workload::MatrixWarm {
            setup.push(f(&r, "setup_ref_s"));
        }
        passes.push(r);
    }
    let expect = if cold_digest.is_empty() {
        s(&passes[0], "digest").to_owned()
    } else {
        cold_digest
    };
    check_passes(run, &passes, &expect, ledger);
    for p in &probes {
        ledger.check(
            b(p, "exactly_once"),
            "probe simulated a fresh key more or less than once",
        );
        ledger.attempted += (f(p, "fresh_ops") + f(p, "memo_ops")) as u64;
        ledger.failed += f(p, "failed") as u64;
        ledger.check(
            f(p, "failed") == 0.0,
            "a probe cell was not fresh, or a memo repeat simulated or returned other bytes",
        );
    }

    let per_pass = |key: &str| -> Vec<f64> { passes.iter().map(|p| f(p, key)).collect() };
    let sim_rate = |p: &JsonValue| f(p, "counters/fresh_insts") / f(p, "timed_ref_s") / 1e6;
    let sim_minst_s = if run.workload == Workload::MatrixWarm {
        // Warm passes simulate nothing by design; the cold passes that
        // populated the stores are the workload's only simulated work, so
        // on this workload the metric tracks the simulator, not the
        // re-render.
        median(&populated.iter().map(sim_rate).collect::<Vec<_>>()).unwrap_or(0.0)
    } else {
        median(&passes.iter().map(sim_rate).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    ledger.put("setup_s", median(&setup).unwrap_or(0.0), "s");
    ledger.put(
        "peak_rss_mb",
        median(&per_pass("peak_rss_kb")).unwrap_or(0.0) / 1024.0,
        "MB",
    );
    ledger.put(
        "cpu_s",
        median(&per_pass("timed_ref_s")).unwrap_or(0.0),
        "s",
    );
    ledger.put("sim_minst_s", sim_minst_s, "Minst/s");
    ledger.put(
        "delivered_cells_s",
        median(
            &passes
                .iter()
                .map(|p| f(p, "counters/cells") / f(p, "timed_ref_s"))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        "cells/s",
    );
    ledger.put(
        "ok_ratio",
        1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "ratio",
    );
    // The measured times behind the scaled ones.
    for (i, p) in passes.iter().enumerate() {
        eprintln!(
            "# pass {i}: timed {:.4} CPU s, {:.4} wall s; set-up {:.4} CPU s, {:.4} wall s; host factor {:.4}; peak RSS {} KiB",
            f(p, "timed_cpu_s"),
            f(p, "timed_wall_s"),
            f(p, "setup_cpu_s"),
            f(p, "setup_wall_s"),
            f(p, "host_factor"),
            f(p, "peak_rss_kb")
        );
    }
    eprintln!(
        "# {}: median of {} passes, {} probe slices",
        run.workload.name(),
        passes.len(),
        probes.len()
    );
    Ok(())
}

fn batch_traced(run: &Run, ledger: &mut Ledger) -> Result<(), String> {
    let cold_digest = if run.workload == Workload::MatrixWarm {
        populate_warm(run, ledger)?.1
    } else {
        String::new()
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for i in 0..2 {
        untraced.push(batch_pass(run, 2 * i, false)?);
        traced.push(batch_pass(run, 2 * i + 1, true)?);
    }
    let expect = if cold_digest.is_empty() {
        s(&untraced[0], "digest").to_owned()
    } else {
        cold_digest
    };
    check_passes(run, &untraced, &expect, ledger);
    check_passes(run, &traced, &expect, ledger);
    let layers = spawn(
        run,
        "layers",
        &store_for(run, "layers", 0),
        0,
        true,
        run.threads,
    )?;
    crate::layers::ledger_from_batch(run, &untraced, &traced, &layers, ledger);
    Ok(())
}
