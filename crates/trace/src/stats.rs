//! Dynamic trace statistics: the quantities the paper reports about its
//! CVP-1 workloads (branch mix, dynamic basic-block size, touched code
//! footprint) and that we use to calibrate the synthetic generator.

use crate::record::{BranchKind, Op, TraceRecord};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Every branch kind, in declaration order, so `kind as usize` indexes it.
const KINDS: [BranchKind; 6] = [
    BranchKind::CondDirect,
    BranchKind::UncondDirect,
    BranchKind::DirectCall,
    BranchKind::IndirectJump,
    BranchKind::IndirectCall,
    BranchKind::Return,
];

/// Multiplicative hasher for the `u64` PC and line keys of the statistics
/// maps: one multiply per key instead of SipHash. The maps are only
/// summed, never iterated in an order that reaches the output.
#[derive(Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("statistics keys are u64");
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiplicative hash; the xor-shift folds the well-mixed
        // high bits into the low bits hashbrown takes its bucket index from
        // (PCs are 4-byte aligned, so a bare product has zero low bits).
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

type PcMap<V> = HashMap<u64, V, BuildHasherDefault<PcHasher>>;
type PcSet = HashSet<u64, BuildHasherDefault<PcHasher>>;

/// Running per-PC behaviour of one static branch site. A PC seen under
/// several kinds keeps each kind's counts apart, as separate per-kind maps
/// would.
#[derive(Default)]
struct Site {
    /// Conditional executions and how many of them were taken.
    cond_execs: u64,
    cond_taken: u64,
    /// Non-return indirect executions, their first target, and whether any
    /// later one used a different target.
    indirect_execs: u64,
    first_target: u64,
    multi_target: bool,
    /// Observed taken at least once, under any kind.
    taken: bool,
}

/// Aggregate statistics over a dynamic trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Total dynamic branch instructions.
    pub branches: u64,
    /// Dynamic taken branches.
    pub taken_branches: u64,
    /// Dynamic count per branch kind.
    pub by_kind: HashMap<BranchKind, u64>,
    /// Dynamic conditional branches that came from never-taken sites
    /// (the branch PC was never observed taken anywhere in the trace).
    pub never_taken_cond: u64,
    /// Dynamic conditional branches from always-taken sites.
    pub always_taken_cond: u64,
    /// Dynamic indirect (non-return) branches whose site only ever used a
    /// single target in the trace.
    pub single_target_indirect: u64,
    /// Number of distinct 64 B cache lines of code touched.
    pub code_lines_touched: u64,
    /// Number of distinct branch PCs observed taken at least once.
    pub distinct_taken_branch_pcs: u64,
    /// Average dynamic basic-block size (instructions per branch
    /// instruction, the paper's 9.4 metric).
    pub avg_dyn_bb_size: f64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
}

impl TraceStats {
    /// Computes statistics over a record slice in one pass. Code lines are
    /// recorded only when the line changes, and every branch site keeps its
    /// running conditional and indirect outcomes in one per-PC entry that
    /// is folded into the site-level counts once at the end.
    ///
    /// # Examples
    /// ```
    /// use btb_trace::{Trace, TraceStats, WorkloadProfile};
    /// let t = Trace::generate(&WorkloadProfile::tiny(2), 20_000);
    /// let s = TraceStats::compute(&t.records);
    /// assert_eq!(s.instructions, 20_000);
    /// assert!(s.branches > 0);
    /// ```
    #[must_use]
    pub fn compute(records: &[TraceRecord]) -> Self {
        let mut s = TraceStats {
            instructions: records.len() as u64,
            ..TraceStats::default()
        };
        let mut lines = PcSet::default();
        let mut last_line = u64::MAX;
        let mut sites: PcMap<Site> = PcMap::default();
        let mut by_kind = [0u64; KINDS.len()];
        for r in records {
            let line = r.pc / 64;
            if line != last_line {
                lines.insert(line);
                last_line = line;
            }
            match r.op {
                Op::Load => s.loads += 1,
                Op::Store => s.stores += 1,
                Op::Branch(kind) => {
                    by_kind[kind as usize] += 1;
                    s.taken_branches += u64::from(r.taken);
                    let site = sites.entry(r.pc).or_default();
                    site.taken |= r.taken;
                    match kind {
                        BranchKind::CondDirect => {
                            site.cond_execs += 1;
                            site.cond_taken += u64::from(r.taken);
                        }
                        BranchKind::IndirectJump | BranchKind::IndirectCall => {
                            if site.indirect_execs == 0 {
                                site.first_target = r.target;
                            } else if r.target != site.first_target {
                                site.multi_target = true;
                            }
                            site.indirect_execs += 1;
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        for site in sites.values() {
            if site.cond_taken == 0 {
                s.never_taken_cond += site.cond_execs;
            } else if site.cond_taken == site.cond_execs {
                s.always_taken_cond += site.cond_execs;
            }
            if !site.multi_target {
                s.single_target_indirect += site.indirect_execs;
            }
            s.distinct_taken_branch_pcs += u64::from(site.taken);
        }
        s.branches = by_kind.iter().sum();
        s.by_kind = KINDS
            .into_iter()
            .zip(by_kind)
            .filter(|&(_, n)| n > 0)
            .collect();
        s.code_lines_touched = lines.len() as u64;
        s.avg_dyn_bb_size = if s.branches == 0 {
            s.instructions as f64
        } else {
            s.instructions as f64 / s.branches as f64
        };
        s
    }

    /// Touched code footprint in bytes (64 B line granularity).
    #[must_use]
    pub fn code_footprint_bytes(&self) -> u64 {
        self.code_lines_touched * 64
    }

    /// Fraction of dynamic branches that are never-taken conditionals
    /// (paper §2: 34.8% in CVP-1).
    #[must_use]
    pub fn frac_never_taken_cond(&self) -> f64 {
        ratio(self.never_taken_cond, self.branches)
    }

    /// Fraction of dynamic branches that are always-taken conditionals
    /// (paper §6.4.2: 15.0% in CVP-1).
    #[must_use]
    pub fn frac_always_taken_cond(&self) -> f64 {
        ratio(self.always_taken_cond, self.branches)
    }

    /// Fraction of dynamic branches that are single-target non-return
    /// indirects (paper §6.4.2: 9.1% in CVP-1).
    #[must_use]
    pub fn frac_single_target_indirect(&self) -> f64 {
        ratio(self.single_target_indirect, self.branches)
    }

    /// Average number of instructions per *taken* branch, i.e. the mean
    /// fetch-region run length.
    #[must_use]
    pub fn avg_taken_run(&self) -> f64 {
        if self.taken_branches == 0 {
            self.instructions as f64
        } else {
            self.instructions as f64 / self.taken_branches as f64
        }
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Returns the static code bytes needed to cover `frac` of the dynamic
/// instructions, reproducing the paper's "138 KB for 90%" style metric.
/// One pass: consecutive records on the same line are counted as one run
/// and added to the line's total only when the line changes.
#[must_use]
pub fn footprint_for_coverage(records: &[TraceRecord], frac: f64) -> u64 {
    let mut line_counts: PcMap<u64> = PcMap::default();
    let mut run_line = u64::MAX;
    let mut run = 0u64;
    for r in records {
        let line = r.pc / 64;
        if line != run_line {
            if run > 0 {
                *line_counts.entry(run_line).or_insert(0) += run;
            }
            run_line = line;
            run = 0;
        }
        run += 1;
    }
    if run > 0 {
        *line_counts.entry(run_line).or_insert(0) += run;
    }
    let mut counts: Vec<u64> = line_counts.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total = records.len() as u64;
    let goal = (total as f64 * frac.clamp(0.0, 1.0)) as u64;
    let mut acc = 0u64;
    let mut lines = 0u64;
    for c in counts {
        if acc >= goal {
            break;
        }
        acc += c;
        lines += 1;
    }
    lines * 64
}

/// The average instruction-cache misses per kilo-instruction a trace would
/// see with an ideal (fully associative, LRU) cache of `capacity_bytes` —
/// a quick workload-selection proxy for the paper's "> 1 L1I MPKI" filter.
#[must_use]
pub fn ideal_icache_mpki(records: &[TraceRecord], capacity_bytes: u64) -> f64 {
    let capacity_lines = (capacity_bytes / 64).max(1) as usize;
    let mut stack: Vec<u64> = Vec::new(); // LRU stack, most recent last
    let mut misses = 0u64;
    let mut accesses = 0u64;
    let mut last_line = u64::MAX;
    for r in records {
        let line = r.pc / 64;
        if line == last_line {
            continue;
        }
        last_line = line;
        accesses += 1;
        if let Some(pos) = stack.iter().position(|&l| l == line) {
            stack.remove(pos);
        } else {
            misses += 1;
            if stack.len() >= capacity_lines {
                stack.remove(0);
            }
        }
        stack.push(line);
    }
    let _ = accesses;
    let kilo_insts = records.len() as f64 / 1000.0;
    if kilo_insts == 0.0 {
        0.0
    } else {
        misses as f64 / kilo_insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Trace;
    use crate::profile::WorkloadProfile;
    use crate::record::{BranchKind, TraceRecord};

    #[test]
    fn stats_on_hand_built_trace() {
        let recs = vec![
            TraceRecord::nop(0x100),
            TraceRecord::branch(0x104, BranchKind::CondDirect, false, 0x200),
            TraceRecord::nop(0x108),
            TraceRecord::branch(0x10c, BranchKind::UncondDirect, true, 0x100),
            TraceRecord::nop(0x100),
            TraceRecord::branch(0x104, BranchKind::CondDirect, false, 0x200),
        ];
        let s = TraceStats::compute(&recs);
        assert_eq!(s.instructions, 6);
        assert_eq!(s.branches, 3);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.never_taken_cond, 2);
        assert_eq!(s.by_kind[&BranchKind::CondDirect], 2);
        assert!((s.avg_dyn_bb_size - 2.0).abs() < 1e-9);
        assert_eq!(s.distinct_taken_branch_pcs, 1);
    }

    #[test]
    fn footprint_for_full_coverage_counts_all_lines() {
        let recs = vec![
            TraceRecord::nop(0x000),
            TraceRecord::nop(0x040),
            TraceRecord::nop(0x080),
        ];
        assert_eq!(footprint_for_coverage(&recs, 1.0), 192);
        assert!(footprint_for_coverage(&recs, 0.34) <= 128);
    }

    #[test]
    fn ideal_icache_small_capacity_misses_more() {
        let t = Trace::generate(&WorkloadProfile::tiny(17), 30_000);
        let small = ideal_icache_mpki(&t.records, 4 * 1024);
        let large = ideal_icache_mpki(&t.records, 1024 * 1024);
        assert!(small >= large);
    }

    #[test]
    fn generated_trace_matches_server_statistics() {
        // Calibration guardrail: a server-class profile must land in the
        // broad bands of the paper's CVP-1 workload description (dynamic
        // basic block ~9.4 insts, ~35% never-taken conditionals, large
        // touched footprint).
        let mut p = WorkloadProfile::server("calib", 77);
        p.num_functions = 300;
        p.num_handlers = 24;
        let t = Trace::generate(&p, 250_000);
        let s = TraceStats::compute(&t.records);
        assert!(
            (7.0..=13.0).contains(&s.avg_dyn_bb_size),
            "bb size {}",
            s.avg_dyn_bb_size
        );
        assert!(
            (0.18..=0.50).contains(&s.frac_never_taken_cond()),
            "never-taken {}",
            s.frac_never_taken_cond()
        );
        assert!(
            (0.04..=0.30).contains(&s.frac_always_taken_cond()),
            "always-taken {}",
            s.frac_always_taken_cond()
        );
        assert!(
            s.frac_single_target_indirect() > 0.01,
            "single-target {}",
            s.frac_single_target_indirect()
        );
        assert!(
            s.code_footprint_bytes() > 64 * 1024,
            "footprint {}",
            s.code_footprint_bytes()
        );
    }
}
