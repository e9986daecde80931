//! The repository benchmark: three workloads measured end to end with
//! tracing off, and a traced pass that attributes host time to the
//! layers. See `perfledger/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfledger/Cargo.toml -- \
//!     --workload matrix-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The process that parses those flags only orchestrates. Each measured
//! unit (one pass over the experiments, one cell-probe slice, the layer
//! replays) runs in a child process of the same executable, so
//! every pass starts with an empty in-process memo and reports its own
//! peak RSS. The last line of stdout is the result object.

mod batch;
mod clock;
mod inputs;
mod layers;
mod output;
mod stats;

use inputs::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Settings shared by the orchestrator and its children.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Worker threads of the measured passes: one in the untraced run,
    /// `nproc` in the traced run (see `output::orchestrate`).
    pub threads: usize,
    /// Scratch directory of this run inside the checkout.
    pub dir: PathBuf,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perfledger: {problem}\n\
         usage: perfledger --workload <matrix-cold|matrix-warm|stream-ff> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        out.push((name.to_owned(), value.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Result<&'a str, String> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
        .ok_or(format!("missing --{name}"))
}

fn parse_run(flags: &[(String, String)]) -> Result<Run, String> {
    let workload = flag(flags, "workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = flag(flags, "seed")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer".to_owned())?;
    let seconds = flag(flags, "seconds")?
        .parse()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or("--seconds wants an integer in 1..=600")?;
    let trace = match flag(flags, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let dir = match flag(flags, "dir") {
        Ok(d) => PathBuf::from(d),
        Err(_) => Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            workload.name(),
            seed,
            std::process::id()
        )),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        threads: if trace { nproc() } else { 1 },
        dir,
    })
}

/// The host's parallelism, which is also the benchmark's thread count.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Pins the harness modes that the environment could otherwise change
/// (`BTB_FF`, `BTB_STREAM`, `BTB_THREADS`): the matrix passes run the
/// materialized path in the cycle tier and the pool uses `threads`
/// workers, whatever the caller's environment says. Each workload sets its
/// warm-up tier and path on its cells explicitly.
fn pin_modes(threads: usize) {
    btb_harness::set_ff_mode(false);
    btb_harness::set_stream_mode(false);
    btb_par::set_threads(Some(threads));
}

fn main() -> ExitCode {
    pin_modes(nproc());
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Children: `perfledger child <role> --flag value ...`.
    if args.first().map(String::as_str) == Some("child") {
        let Some(role) = args.get(1) else {
            return usage("child needs a role");
        };
        let flags = match parse_flags(&args[2..]) {
            Ok(f) => f,
            Err(e) => return usage(&e),
        };
        return match child(role, &flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfledger child {role}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match parse_flags(&args).and_then(|f| parse_run(&f)) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfledger: cannot create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }
    let result = output::orchestrate(&run);
    // Scratch stores are large; never leave them in the checkout.
    if let Err(e) = std::fs::remove_dir_all(&run.dir) {
        eprintln!("perfledger: cannot remove {}: {e}", run.dir.display());
    }
    if let Some(parent) = run.dir.parent() {
        // Only succeeds once no other run is using the scratch root.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one child role and writes its result object to `--out`.
fn child(role: &str, flags: &[(String, String)]) -> Result<(), String> {
    let mut run = parse_run(flags)?;
    run.threads = flag(flags, "threads")?
        .parse()
        .ok()
        .filter(|t| (1..=nproc()).contains(t))
        .ok_or(format!("--threads wants an integer in 1..={}", nproc()))?;
    pin_modes(run.threads);
    let out = PathBuf::from(flag(flags, "out")?);
    let store = PathBuf::from(flag(flags, "store")?);
    let index: u64 = flag(flags, "index")?
        .parse()
        .map_err(|_| "--index wants an integer")?;
    let result = match role {
        "pass" => batch::pass(&run, &store, false, index == 0)?,
        "populate" => batch::pass(&run, &store, true, false)?,
        "probe" => batch::probe(&run, index)?,
        "layers" => layers::replay(&run, &store)?,
        other => return Err(format!("unknown role {other:?}")),
    };
    let mut result = result;
    if result.get("peak_rss_kb").is_none() {
        output::push(&mut result, "peak_rss_kb", output::int(peak_rss_kb()));
    }
    std::fs::write(&out, result.to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))
}

/// `VmHWM` (peak resident set) of this process in KiB; 0 off Linux.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}
