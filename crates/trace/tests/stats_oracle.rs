//! Oracle tests for the one-pass trace statistics: `TraceStats::compute`
//! and `footprint_for_coverage` must agree field for field with the
//! straightforward two-pass definitions kept here, on random record slices
//! where one PC shows up under several kinds and same-line runs are long,
//! and on every server-suite profile.

use btb_trace::{
    footprint_for_coverage, server_suite, BranchKind, Op, Trace, TraceRecord, TraceStats,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Two-pass reference for [`TraceStats::compute`]: a first pass collects
/// each PC's conditional outcomes and indirect target set, a second pass
/// looks them up again for every dynamic branch.
fn oracle_stats(records: &[TraceRecord]) -> TraceStats {
    let mut s = TraceStats {
        instructions: records.len() as u64,
        ..TraceStats::default()
    };
    let mut lines = HashSet::new();
    let mut taken_pcs = HashSet::new();
    let mut cond_taken: HashMap<u64, (u64, u64)> = HashMap::new(); // pc -> (exec, taken)
    let mut ind_targets: HashMap<u64, HashSet<u64>> = HashMap::new();
    for r in records {
        lines.insert(r.pc / 64);
        match r.branch_kind() {
            Some(BranchKind::CondDirect) => {
                let e = cond_taken.entry(r.pc).or_insert((0, 0));
                e.0 += 1;
                if r.taken {
                    e.1 += 1;
                }
            }
            Some(k) if k.is_indirect() && k != BranchKind::Return => {
                ind_targets.entry(r.pc).or_default().insert(r.target);
            }
            _ => {}
        }
    }
    for r in records {
        match r.op {
            Op::Load => s.loads += 1,
            Op::Store => s.stores += 1,
            _ => {}
        }
        let Some(kind) = r.branch_kind() else {
            continue;
        };
        s.branches += 1;
        *s.by_kind.entry(kind).or_insert(0) += 1;
        if r.taken {
            s.taken_branches += 1;
            taken_pcs.insert(r.pc);
        }
        match kind {
            BranchKind::CondDirect => {
                let (exec, taken) = cond_taken[&r.pc];
                if taken == 0 {
                    s.never_taken_cond += 1;
                } else if taken == exec {
                    s.always_taken_cond += 1;
                }
            }
            BranchKind::IndirectJump | BranchKind::IndirectCall
                if ind_targets[&r.pc].len() == 1 =>
            {
                s.single_target_indirect += 1;
            }
            _ => {}
        }
    }
    s.code_lines_touched = lines.len() as u64;
    s.distinct_taken_branch_pcs = taken_pcs.len() as u64;
    s.avg_dyn_bb_size = if s.branches == 0 {
        s.instructions as f64
    } else {
        s.instructions as f64 / s.branches as f64
    };
    s
}

/// Reference for [`footprint_for_coverage`]: one map update per record.
fn oracle_footprint(records: &[TraceRecord], frac: f64) -> u64 {
    let mut line_counts: HashMap<u64, u64> = HashMap::new();
    for r in records {
        *line_counts.entry(r.pc / 64).or_insert(0) += 1;
    }
    let mut counts: Vec<u64> = line_counts.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
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

const FRACS: [f64; 6] = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];

/// Every field, `by_kind` included; `avg_dyn_bb_size` bit for bit.
fn assert_same(got: &TraceStats, want: &TraceStats, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(
        got.avg_dyn_bb_size.to_bits(),
        want.avg_dyn_bb_size.to_bits(),
        "{what}: avg_dyn_bb_size"
    );
}

const OPS: [Op; 12] = [
    Op::Alu,
    Op::Mul,
    Op::Div,
    Op::Fp,
    Op::Load,
    Op::Store,
    Op::Branch(BranchKind::CondDirect),
    Op::Branch(BranchKind::UncondDirect),
    Op::Branch(BranchKind::DirectCall),
    Op::Branch(BranchKind::IndirectJump),
    Op::Branch(BranchKind::IndirectCall),
    Op::Branch(BranchKind::Return),
];

/// Expands `(pc slot, op, taken, target slot, run)` tuples into records: a
/// pool of 12 PCs over three lines, each tuple repeated `run` times, and
/// three targets, so sites mix kinds and single- and multi-target
/// indirects both occur.
fn records_from(picks: &[(u8, u8, bool, u8, u8)]) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for &(slot, op, taken, tgt, run) in picks {
        let pc = 0x1000 + u64::from(slot % 4) * 4 + u64::from(slot / 4) * 64;
        let op = OPS[usize::from(op)];
        let mut r = TraceRecord::nop(pc);
        r.op = op;
        if op.branch_kind().is_some() {
            r.taken = taken;
            r.target = 0x2000 + u64::from(tgt) * 0x40;
        }
        out.extend(std::iter::repeat_n(r, usize::from(run)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_statistics_match_the_two_pass_oracle(
        picks in proptest::collection::vec((0u8..12, 0u8..12, any::<bool>(), 0u8..3, 1u8..24), 0..120),
    ) {
        let records = records_from(&picks);
        let got = TraceStats::compute(&records);
        let want = oracle_stats(&records);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.avg_dyn_bb_size.to_bits(), want.avg_dyn_bb_size.to_bits());
        for frac in FRACS {
            prop_assert_eq!(
                footprint_for_coverage(&records, frac),
                oracle_footprint(&records, frac),
                "frac {}",
                frac
            );
        }
    }
}

#[test]
fn one_pass_statistics_match_the_oracle_on_every_server_profile() {
    for profile in server_suite() {
        let t = Trace::generate(&profile, 40_000);
        assert_same(
            &TraceStats::compute(&t.records),
            &oracle_stats(&t.records),
            &profile.name,
        );
        for frac in FRACS {
            assert_eq!(
                footprint_for_coverage(&t.records, frac),
                oracle_footprint(&t.records, frac),
                "{} at {frac}",
                profile.name
            );
        }
    }
}
