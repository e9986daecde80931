//! Seeded-fault inference suite: every deliberate geometry perturbation
//! must make the black-box inference report a non-clean verdict for every
//! organization — no silent passes. This extends the PR 2 seeded-fault
//! pattern (off-by-one replay faults caught by the golden models) from
//! replay to geometry inference.

use btb_check::infer::{
    infer_config, infer_config_by_name, infer_configs, infer_target, InferFault, InferOptions,
    SkewedUpdates,
};
use btb_core::{
    build_btb, BranchProbe, BtbConfig, BtbInspection, BtbOrganization, BtbState, FetchPlan,
    PredictionProvider,
};
use btb_trace::{Addr, TraceRecord};

fn quick() -> InferOptions {
    InferOptions { thorough: false }
}

#[test]
fn every_fault_is_detected_for_every_organization() {
    for config in infer_configs() {
        for fault in InferFault::ALL {
            let report = infer_config(&config, fault, &quick());
            assert!(
                !report.clean(),
                "seeded fault {} on {} was NOT detected (silent pass); recovered {:?}",
                fault.name(),
                config.name,
                report.recovered
            );
        }
    }
}

#[test]
fn unfaulted_targets_stay_clean() {
    for config in infer_configs() {
        let report = infer_config(&config, InferFault::None, &quick());
        assert!(
            report.clean(),
            "{}: mismatches {:?}, anomalies {:?}",
            config.name,
            report.mismatches,
            report.anomalies
        );
    }
}

#[test]
fn halved_ways_are_pinned_exactly() {
    let config = infer_config_by_name("B-BTB 2BS Splt").expect("roster config");
    let report = infer_config(&config, InferFault::HalveWays, &quick());
    assert_eq!(report.recovered.ways, config.l1.ways / 2);
    assert!(report.mismatches.iter().any(|m| m.starts_with("ways:")));
    assert!(report.mismatches.iter().any(|m| m.starts_with("capacity:")));
}

#[test]
fn doubled_block_reach_is_pinned_exactly() {
    let config = infer_config_by_name("MB-BTB 2BS Ucd").expect("roster config");
    let report = infer_config(&config, InferFault::DoubleGrain, &quick());
    assert_eq!(report.recovered.reach_bytes, 128);
    assert!(report
        .mismatches
        .iter()
        .any(|m| m.starts_with("reach_bytes:")));
}

#[test]
fn doubled_region_shifts_grain_and_set_index() {
    let config = infer_config_by_name("R-BTB 2BS").expect("roster config");
    let report = infer_config(&config, InferFault::DoubleGrain, &quick());
    assert_eq!(report.recovered.grain_bytes, 128);
    assert_eq!(report.recovered.set_index, "(pc >> 7) & 0xff");
    assert!(report
        .mismatches
        .iter()
        .any(|m| m.starts_with("set_index:")));
}

#[test]
fn set_bias_is_flagged_as_install_probe_disagreement() {
    for config in infer_configs() {
        let report = infer_config(&config, InferFault::SetBias, &quick());
        assert!(
            report
                .anomalies
                .iter()
                .any(|a| a.contains("install and probe paths disagree")),
            "{}: anomalies {:?}",
            config.name,
            report.anomalies
        );
    }
}

#[test]
fn swapped_index_bits_never_recover_a_clean_geometry() {
    for config in infer_configs() {
        let report = infer_config(&config, InferFault::SwapIndexBits, &quick());
        assert!(
            !report.mismatches.is_empty() || !report.anomalies.is_empty(),
            "{}: swap-index-bits produced a clean report",
            config.name
        );
    }
}

#[test]
fn infer_target_flags_a_custom_skewed_organization() {
    // The public test hook: any update-path skew an outside caller wires
    // in behind `SkewedUpdates` must surface through `infer_target`.
    let config = infer_config_by_name("I-BTB 16").expect("roster config");
    let skewed = Box::new(SkewedUpdates::new(build_btb(config.clone()), 8, None));
    let report = infer_target(&config, skewed, &quick());
    assert!(!report.clean());
}

#[test]
fn thorough_mode_reproduces_the_quick_verdict() {
    let config = infer_config_by_name("Hetero B/R").expect("roster config");
    let thorough = infer_config(&config, InferFault::None, &InferOptions { thorough: true });
    assert!(
        thorough.clean(),
        "mismatches {:?}, anomalies {:?}",
        thorough.mismatches,
        thorough.anomalies
    );
    let quick_report = infer_config(&config, InferFault::None, &quick());
    assert_eq!(thorough.recovered, quick_report.recovered);
}

/// Forwards everything to the wrapped organization except `dump_state`,
/// whose L1 lists one set fewer than the structure has.
struct ShortDump(Box<dyn BtbOrganization>);

impl BtbOrganization for ShortDump {
    fn config(&self) -> &BtbConfig {
        self.0.config()
    }

    fn plan(&mut self, pc: Addr, oracle: &mut dyn PredictionProvider) -> FetchPlan {
        self.0.plan(pc, oracle)
    }

    fn update(&mut self, rec: &TraceRecord) {
        self.0.update(rec);
    }

    fn inspect(&self) -> BtbInspection {
        self.0.inspect()
    }

    fn probe_branch(&self, pc: Addr) -> Option<BranchProbe> {
        self.0.probe_branch(pc)
    }

    fn dump_state(&self) -> BtbState {
        let mut state = self.0.dump_state();
        state.l1.sets.pop();
        state
    }

    fn clone_box(&self) -> Box<dyn BtbOrganization> {
        Box::new(ShortDump(self.0.clone_box()))
    }
}

#[test]
fn state_dump_set_count_disagreement_is_an_anomaly() {
    for config in infer_configs() {
        let target = Box::new(ShortDump(build_btb(config.clone())));
        let report = infer_target(&config, target, &quick());
        let sets = report.recovered.sets;
        let want = format!(
            "state dump reports {} L1 sets, inference recovered {sets}",
            sets - 1
        );
        assert!(
            report.anomalies.contains(&want),
            "{}: anomalies {:?}",
            config.name,
            report.anomalies
        );
        assert!(report.mismatches.is_empty(), "{}", config.name);
        assert!(!report.clean(), "{}", config.name);
    }
}
