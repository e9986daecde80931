//! Black-box BTB organization inference from probe-kernel hit/miss
//! observations, checked against [`BtbConfig`] ground truth.
//!
//! The paper's six organizations differ exactly in how they alias — region
//! truncation, block splits, multiblock chains — and Wan's Arm BTB
//! reverse-engineering work (arXiv 2412.05413) shows crafted probe patterns
//! recover those parameters from the outside. This module turns that attack
//! into a differential test: [`infer_target`] drives an opaque
//! [`BtbOrganization`] with the deterministic kernels from
//! [`btb_trace::probe`], observes **only** `probe_branch` hit/miss/level
//! results (plus one `dump_state` set-count cross-check, read before any
//! probe traffic), and recovers the organization's [`Geometry`] —
//! set-index function, associativity, capacity, entry grain, entry reach,
//! slots per entry, overflow behavior and chain absorption. Every
//! recovered value is diffed against what the `BtbConfig` predicts; any
//! difference is a mismatch.
//!
//! The measurement protocol, in order:
//!
//! 1. **Associativity**: install 48 return branches 1 MiB apart — a stride
//!    that is a multiple of every power-of-two aliasing period the roster
//!    can produce, so they all land in one set. The L1 survivor count *is*
//!    the associativity under LRU. Returns are used for every geometry
//!    install because no pull policy chains them, so each install anchors
//!    its own probe-visible entry even in MB-BTB.
//! 2. **Grain and aliasing period**: for each power-of-two distance `d`,
//!    install the pair `{B, B+d}`, flush B's set, and probe `B+d`. It
//!    vanishes for `d` below the entry grain (it shared B's entry), survives
//!    while `d` is below the aliasing period (own entry, different set), and
//!    vanishes again at and above the period (same set as B, flushed). The
//!    surviving band must be one contiguous run of powers of two; its edges
//!    are the grain and half the period. Sets = period / grain, and the
//!    set-index function follows.
//! 3. **Capacity**: walk `2 × sets × ways` return branches at the grain
//!    stride; the L1 survivor count equals the capacity exactly, and is
//!    cross-checked against `sets × ways`.
//! 4. **Entry reach**: enter at `B`, fall through `d` bytes of filler, take
//!    a conditional branch, flush B's set, probe. The first `d` whose branch
//!    survives no longer shares B's entry: that is the reach (instruction
//!    size for I-BTB, region bytes for R-BTB, block reach for B/MB-BTB).
//! 5. **Slots and overflow**: straddle one entry with up to eight branches,
//!    count L1 survivors before and after targeted pressure (flush every
//!    *other* set, then flood spill/split victims with straddle clusters
//!    that never touch B's set). The post-pressure count is the per-entry
//!    slot count; losing survivors to the pressure means the extra branches
//!    had been kept losslessly elsewhere (B-BTB splits, R-OVF overflow).
//! 6. **Chain absorption**: run an unconditional-jump chain of three blocks
//!    in one set; an organization that stops tracking the middle block at
//!    any level (it was pulled into its predecessor's entry) is MB-BTB.
//!
//! All kernels are chain-coherent and allocated in *descending* address
//! windows, with a return-branch anchor opening each trial, so block-grid
//! walkers advance O(1) per record and trials never alias each other.

use btb_core::{build_btb, BtbConfig, BtbLevel, BtbOrganization, OrgKind};
use btb_store::JsonValue;
use btb_trace::probe::{
    capacity_walk, multiblock_chain_breaker, probe_chain, region_boundary_straddle,
    set_conflict_sweep, BreakerParams, ChainParams, ProbeKernel, StraddleParams, SweepParams,
    WalkParams,
};
use btb_trace::{Addr, BranchKind, INST_BYTES};

/// Address space given to one trial: large enough for every kernel, small
/// enough that a full inference never exhausts the descending allocator.
const WINDOW_BYTES: u64 = 1 << 26;
/// Top of the probe address space; windows are allocated downward from
/// here so every cross-trial transition is a backward jump (O(1) re-anchor
/// for block-grid walkers).
const ADDRESS_TOP: u64 = 1 << 45;
/// Conflict stride: a multiple of every power-of-two aliasing period below
/// `WINDOW_BYTES / 48`, so sweep installs of any roster geometry collide.
const CONFLICT_STRIDE: u64 = 1 << 20;
/// Installs in the associativity sweep (comfortably above any roster
/// associativity, far below the per-set install count of the walk).
const SWEEP_INSTALLS: usize = 48;
/// Largest power-of-two distance the boundary scan tries (inclusive).
const MAX_PERIOD_EXP: u32 = 20;
/// Linear scan bound for the entry reach, in bytes.
const MAX_REACH_BYTES: u64 = 4096;
/// Most branches packed into one entry by the slot straddle.
const MAX_SLOT_PROBES: usize = 8;

/// The externally visible geometry of a BTB organization — what black-box
/// probing can recover, and what a [`BtbConfig`] predicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Entry grain in bytes: branches closer than this share an entry key.
    pub grain_bytes: u64,
    /// Number of L1 sets.
    pub sets: usize,
    /// L1 associativity.
    pub ways: usize,
    /// L1 capacity in entries.
    pub capacity: usize,
    /// Canonical set-index function over the fetch address.
    pub set_index: String,
    /// Entry reach in bytes: how far past its key one entry tracks
    /// branches (instruction size, region bytes, or block reach).
    pub reach_bytes: u64,
    /// Branch slots per entry.
    pub slots: usize,
    /// Whether branches beyond the slot budget are kept losslessly
    /// (entry splitting or a decoupled overflow structure) rather than
    /// displaced.
    pub overflow_lossless: bool,
    /// Whether an unconditional-jump chain absorbs its target block so the
    /// target stops being independently trackable (MB-BTB).
    pub chain_absorbs: bool,
    /// Whether evicted L1 entries remain visible in a second level.
    pub l2_present: bool,
}

impl Geometry {
    fn unknown() -> Geometry {
        Geometry {
            grain_bytes: 0,
            sets: 0,
            ways: 0,
            capacity: 0,
            set_index: "unrecovered".into(),
            reach_bytes: 0,
            slots: 0,
            overflow_lossless: false,
            chain_absorbs: false,
            l2_present: false,
        }
    }

    /// Renders the geometry as a strict-JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "grain_bytes".into(),
                JsonValue::Integer(self.grain_bytes as i64),
            ),
            ("sets".into(), JsonValue::Integer(self.sets as i64)),
            ("ways".into(), JsonValue::Integer(self.ways as i64)),
            ("capacity".into(), JsonValue::Integer(self.capacity as i64)),
            (
                "set_index".into(),
                JsonValue::string(self.set_index.clone()),
            ),
            (
                "reach_bytes".into(),
                JsonValue::Integer(self.reach_bytes as i64),
            ),
            ("slots".into(), JsonValue::Integer(self.slots as i64)),
            (
                "overflow_lossless".into(),
                JsonValue::Bool(self.overflow_lossless),
            ),
            ("chain_absorbs".into(), JsonValue::Bool(self.chain_absorbs)),
            ("l2_present".into(), JsonValue::Bool(self.l2_present)),
        ])
    }
}

/// The canonical set-index function for a power-of-two geometry.
#[must_use]
pub fn set_index_fn(grain_bytes: u64, sets: usize) -> String {
    if grain_bytes == 0 || sets == 0 || !sets.is_power_of_two() {
        return "unrecovered".into();
    }
    format!("(pc >> {}) & {:#x}", grain_bytes.trailing_zeros(), sets - 1)
}

/// Entry grain in bytes a configuration predicts (region bytes for the
/// region-keyed organizations, the instruction size for everything keyed
/// at instruction granularity).
#[must_use]
pub fn expected_grain(config: &BtbConfig) -> u64 {
    match config.kind {
        OrgKind::Region { region_bytes, .. } | OrgKind::RegionOverflow { region_bytes, .. } => {
            region_bytes
        }
        _ => INST_BYTES,
    }
}

/// The geometry a [`BtbConfig`] predicts black-box probing will recover.
#[must_use]
pub fn expected_geometry(config: &BtbConfig) -> Geometry {
    let grain = expected_grain(config);
    let (reach, slots, lossless, chain) = match config.kind {
        OrgKind::Instruction { .. } => (INST_BYTES, 1, false, false),
        OrgKind::Region {
            region_bytes,
            slots,
            ..
        } => (region_bytes, slots, false, false),
        OrgKind::RegionOverflow {
            region_bytes,
            slots,
            ..
        } => (region_bytes, slots, true, false),
        OrgKind::Block {
            block_insts,
            slots,
            split,
        } => (block_insts as u64 * INST_BYTES, slots, split, false),
        OrgKind::HeteroBlockRegion {
            block_insts,
            l1_slots,
            split,
            ..
        } => (block_insts as u64 * INST_BYTES, l1_slots, split, false),
        OrgKind::MultiBlock {
            block_insts,
            slots,
            allow_last_slot_pull,
            ..
        } => (
            block_insts as u64 * INST_BYTES,
            slots,
            false,
            slots >= 2 || allow_last_slot_pull,
        ),
    };
    Geometry {
        grain_bytes: grain,
        sets: config.l1.sets,
        ways: config.l1.ways,
        capacity: config.l1.entries(),
        set_index: set_index_fn(grain, config.l1.sets),
        reach_bytes: reach,
        slots,
        overflow_lossless: lossless,
        chain_absorbs: chain,
        l2_present: config.l2.is_some(),
    }
}

/// Short organization-kind label for reports.
#[must_use]
pub fn kind_label(config: &BtbConfig) -> &'static str {
    match config.kind {
        OrgKind::Instruction { .. } => "instruction",
        OrgKind::Region { .. } => "region",
        OrgKind::RegionOverflow { .. } => "region-overflow",
        OrgKind::Block { .. } => "block",
        OrgKind::HeteroBlockRegion { .. } => "hetero-block-region",
        OrgKind::MultiBlock { .. } => "multiblock",
    }
}

/// Options for an inference run.
#[derive(Debug, Clone, Copy)]
pub struct InferOptions {
    /// Thorough mode re-measures the boundary scan from a second base and
    /// doubles the spill-flood pressure; `--quick` turns it off.
    pub thorough: bool,
}

impl Default for InferOptions {
    fn default() -> Self {
        InferOptions { thorough: true }
    }
}

/// A deliberately injected geometry perturbation for seeded-fault tests:
/// each variant must make [`infer_config`] report a non-clean verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferFault {
    /// No perturbation; the organization is built from the config as-is.
    None,
    /// Build with half the configured L1 associativity.
    HalveWays,
    /// Build with a doubled entry geometry: doubled region bytes or block
    /// reach; for the instruction organization, half the set count.
    DoubleGrain,
    /// Off-by-one set index: every update installs one grain above the
    /// probed address (install and probe paths disagree by one set).
    SetBias,
    /// Swap two set-index address bits (6 and 7) on the update path only,
    /// so some updates land in a different set than probes look in.
    SwapIndexBits,
}

impl InferFault {
    /// Every real (non-`None`) fault, for sweeps.
    pub const ALL: [InferFault; 4] = [
        InferFault::HalveWays,
        InferFault::DoubleGrain,
        InferFault::SetBias,
        InferFault::SwapIndexBits,
    ];

    /// CLI name of the fault.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InferFault::None => "none",
            InferFault::HalveWays => "halve-ways",
            InferFault::DoubleGrain => "double-grain",
            InferFault::SetBias => "set-bias",
            InferFault::SwapIndexBits => "swap-index-bits",
        }
    }

    /// Parses a CLI fault name.
    #[must_use]
    pub fn parse(s: &str) -> Option<InferFault> {
        match s {
            "none" => Some(InferFault::None),
            "halve-ways" => Some(InferFault::HalveWays),
            "double-grain" => Some(InferFault::DoubleGrain),
            "set-bias" => Some(InferFault::SetBias),
            "swap-index-bits" => Some(InferFault::SwapIndexBits),
            _ => None,
        }
    }
}

/// The verdict of one black-box inference run against one organization.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// Configuration name the run was checked against.
    pub config_name: String,
    /// Organization-kind label.
    pub kind: &'static str,
    /// What the configuration predicts.
    pub expected: Geometry,
    /// What probing recovered.
    pub recovered: Geometry,
    /// Field-by-field ground-truth disagreements (empty when clean).
    pub mismatches: Vec<String>,
    /// Measurement-protocol violations (empty when clean). An anomaly means
    /// the observations did not fit *any* geometry the protocol models.
    pub anomalies: Vec<String>,
    /// Update-path records replayed.
    pub updates: u64,
    /// `probe_branch` observations taken.
    pub probes: u64,
}

impl InferenceReport {
    /// Whether every recovered value matched ground truth with no
    /// measurement anomalies.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty() && self.anomalies.is_empty()
    }

    /// Renders the report as a strict-JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("config".into(), JsonValue::string(self.config_name.clone())),
            ("kind".into(), JsonValue::string(self.kind)),
            ("clean".into(), JsonValue::Bool(self.clean())),
            ("expected".into(), self.expected.to_json()),
            ("recovered".into(), self.recovered.to_json()),
            (
                "mismatches".into(),
                JsonValue::array(self.mismatches.iter().map(JsonValue::string)),
            ),
            (
                "anomalies".into(),
                JsonValue::array(self.anomalies.iter().map(JsonValue::string)),
            ),
            ("updates".into(), JsonValue::Integer(self.updates as i64)),
            ("probes".into(), JsonValue::Integer(self.probes as i64)),
        ])
    }
}

/// The six-organization inference roster: one realistic two-level
/// configuration per [`OrgKind`] variant.
///
/// This is deliberately not the campaign roster: the MB-BTB entry uses the
/// `UncondDirect` pull policy (the paper's default) so that only the
/// unconditional chains the probe kernels construct on purpose get pulled,
/// and a high stability threshold so conditional installs never chain.
#[must_use]
pub fn infer_configs() -> Vec<BtbConfig> {
    use btb_core::PullPolicy;
    vec![
        BtbConfig::realistic(
            "I-BTB 16",
            OrgKind::Instruction {
                width: 16,
                skip_taken: false,
            },
        ),
        BtbConfig::realistic(
            "R-BTB 2BS",
            OrgKind::Region {
                region_bytes: 64,
                slots: 2,
                dual_interleave: false,
            },
        ),
        BtbConfig::realistic(
            "R-OVF 2BS",
            OrgKind::RegionOverflow {
                region_bytes: 64,
                slots: 2,
                overflow_entries: 256,
            },
        ),
        BtbConfig::realistic(
            "B-BTB 2BS Splt",
            OrgKind::Block {
                block_insts: 16,
                slots: 2,
                split: true,
            },
        ),
        BtbConfig::realistic(
            "Hetero B/R",
            OrgKind::HeteroBlockRegion {
                block_insts: 16,
                l1_slots: 2,
                split: true,
                region_bytes: 64,
                l2_slots: 4,
            },
        ),
        BtbConfig::realistic(
            "MB-BTB 2BS Ucd",
            OrgKind::MultiBlock {
                block_insts: 16,
                slots: 2,
                pull: PullPolicy::UncondDirect,
                stability_threshold: 63,
                allow_last_slot_pull: false,
            },
        ),
    ]
}

/// Looks up an inference-roster configuration by name.
#[must_use]
pub fn infer_config_by_name(name: &str) -> Option<BtbConfig> {
    infer_configs().into_iter().find(|c| c.name == name)
}

/// Wraps an organization and perturbs the addresses its *update* path
/// sees, leaving probes untouched — the test-only hook seeded-fault tests
/// use to model install/probe disagreements (off-by-one set index,
/// swapped tag bits). Lookup-side traffic (`plan`) is forwarded verbatim;
/// the inference harness never calls it.
pub struct SkewedUpdates {
    inner: Box<dyn BtbOrganization>,
    bias: u64,
    swap_bits: Option<(u32, u32)>,
}

impl SkewedUpdates {
    /// Wraps `inner`, adding `bias` bytes and swapping `swap_bits` on every
    /// update-path pc and target.
    #[must_use]
    pub fn new(
        inner: Box<dyn BtbOrganization>,
        bias: u64,
        swap_bits: Option<(u32, u32)>,
    ) -> SkewedUpdates {
        SkewedUpdates {
            inner,
            bias,
            swap_bits,
        }
    }

    fn remap(&self, addr: Addr) -> Addr {
        let mut a = addr;
        if let Some((i, j)) = self.swap_bits {
            let bi = (a >> i) & 1;
            let bj = (a >> j) & 1;
            if bi != bj {
                a ^= (1 << i) | (1 << j);
            }
        }
        a.wrapping_add(self.bias)
    }
}

impl BtbOrganization for SkewedUpdates {
    fn config(&self) -> &BtbConfig {
        self.inner.config()
    }

    fn plan(
        &mut self,
        pc: Addr,
        oracle: &mut dyn btb_core::PredictionProvider,
    ) -> btb_core::FetchPlan {
        self.inner.plan(pc, oracle)
    }

    fn update(&mut self, rec: &btb_trace::TraceRecord) {
        let mut skewed = *rec;
        skewed.pc = self.remap(rec.pc);
        if rec.taken {
            skewed.target = self.remap(rec.target);
        }
        self.inner.update(&skewed);
    }

    fn inspect(&self) -> btb_core::BtbInspection {
        self.inner.inspect()
    }

    fn probe_branch(&self, pc: Addr) -> Option<btb_core::BranchProbe> {
        self.inner.probe_branch(pc)
    }

    fn dump_state(&self) -> btb_core::BtbState {
        self.inner.dump_state()
    }

    fn clone_box(&self) -> Box<dyn BtbOrganization> {
        Box::new(SkewedUpdates {
            inner: self.inner.clone_box(),
            bias: self.bias,
            swap_bits: self.swap_bits,
        })
    }
}

/// Replays kernels into an opaque organization and keeps observation
/// counters plus the descending window allocator.
struct Driver {
    org: Box<dyn BtbOrganization>,
    next_window: u64,
    updates: u64,
    probes: u64,
    l2_seen: bool,
}

impl Driver {
    fn new(org: Box<dyn BtbOrganization>) -> Driver {
        Driver {
            org,
            next_window: ADDRESS_TOP,
            updates: 0,
            probes: 0,
            l2_seen: false,
        }
    }

    /// Allocates the next (lower) trial window and returns its base.
    fn window(&mut self) -> Addr {
        self.next_window -= WINDOW_BYTES;
        assert!(self.next_window >= WINDOW_BYTES, "probe windows exhausted");
        self.next_window
    }

    /// A scratch address near the top of the window: the anchor branch.
    fn scratch(w: Addr) -> Addr {
        w + WINDOW_BYTES - 4 * INST_BYTES
    }

    /// The in-window address trials park control flow at when done.
    fn park(w: Addr) -> Addr {
        w + WINDOW_BYTES - 2 * INST_BYTES
    }

    /// An anchor kernel: one return branch at the window scratch address
    /// whose taken target is `entry`, committing the organization's notion
    /// of the current block to `entry` without installing anything there.
    fn anchor(w: Addr, entry: Addr) -> ProbeKernel {
        probe_chain(&ChainParams {
            addrs: vec![Driver::scratch(w)],
            kind: BranchKind::Return,
            rounds: 1,
            exit: entry,
        })
    }

    /// Replays spliced kernels (each exit must be the next entry).
    fn run(&mut self, kernels: &[ProbeKernel]) {
        for pair in kernels.windows(2) {
            debug_assert_eq!(pair[0].exit, pair[1].entry, "kernel splice mismatch");
        }
        for k in kernels {
            debug_assert_eq!(k.validate(), Ok(()), "malformed kernel {}", k.trace.name);
            for rec in &k.trace.records {
                self.org.update(rec);
                self.updates += 1;
            }
        }
    }

    fn probe(&mut self, pc: Addr) -> Option<BtbLevel> {
        self.probes += 1;
        let level = self.org.probe_branch(pc).map(|p| p.level);
        if level == Some(BtbLevel::L2) {
            self.l2_seen = true;
        }
        level
    }

    fn hit_l1(&mut self, pc: Addr) -> bool {
        self.probe(pc) == Some(BtbLevel::L1)
    }

    /// A flush kernel: `count` return branches at the conflict stride
    /// starting `2 × CONFLICT_STRIDE` above `base`, all landing in
    /// `base`'s set for any roster geometry.
    fn set_flush(base: Addr, count: usize, exit: Addr) -> ProbeKernel {
        set_conflict_sweep(&SweepParams {
            base: base + 2 * CONFLICT_STRIDE,
            stride: CONFLICT_STRIDE,
            count,
            rounds: 1,
            kind: BranchKind::Return,
            exit,
        })
    }
}

/// Step 1: associativity from same-set survivor counting.
fn measure_ways(d: &mut Driver, anomalies: &mut Vec<String>) -> usize {
    let w = d.window();
    let sweep = set_conflict_sweep(&SweepParams {
        base: w,
        stride: CONFLICT_STRIDE,
        count: SWEEP_INSTALLS,
        rounds: 1,
        kind: BranchKind::Return,
        exit: Driver::park(w),
    });
    d.run(&[sweep]);
    let mut survivors = 0;
    for i in 0..SWEEP_INSTALLS as u64 {
        if d.hit_l1(w + i * CONFLICT_STRIDE) {
            survivors += 1;
        }
    }
    if survivors == 0 {
        anomalies.push(
            "set-conflict sweep: no probed install is L1-resident \
             (install and probe paths disagree)"
                .into(),
        );
    } else if survivors == SWEEP_INSTALLS {
        anomalies.push(format!(
            "set-conflict sweep: all {SWEEP_INSTALLS} installs survived \
             (no conflict at stride {CONFLICT_STRIDE:#x})"
        ));
    }
    survivors
}

/// Step 2: entry grain and aliasing period from the pair/flush boundary
/// scan. Returns `(grain_bytes, period_bytes)`.
fn scan_boundaries(d: &mut Driver, ways: usize, anomalies: &mut Vec<String>) -> Option<(u64, u64)> {
    let mut surviving: Vec<u64> = Vec::new();
    for exp in 2..=MAX_PERIOD_EXP {
        let dist = 1u64 << exp;
        let w = d.window();
        let b = w;
        let pair = probe_chain(&ChainParams {
            addrs: vec![b, b + dist],
            kind: BranchKind::Return,
            rounds: 1,
            exit: b + 2 * CONFLICT_STRIDE,
        });
        let flush = Driver::set_flush(b, ways + 4, Driver::park(w));
        d.run(&[pair, flush]);
        if d.hit_l1(b) {
            anomalies.push(format!(
                "boundary scan d={dist:#x}: flush failed to evict the base install"
            ));
            return None;
        }
        if d.hit_l1(b + dist) {
            surviving.push(dist);
        }
    }
    let Some(&grain) = surviving.first() else {
        anomalies.push("boundary scan: no pair distance survived a same-set flush".into());
        return None;
    };
    // The surviving distances must be one contiguous run of powers of two.
    let contiguous: Vec<u64> = (0..surviving.len() as u32).map(|i| grain << i).collect();
    if surviving != contiguous {
        anomalies.push(format!(
            "boundary scan: surviving distances {surviving:#x?} are not one contiguous \
             power-of-two band"
        ));
        return None;
    }
    let last = *surviving.last().expect("non-empty");
    if last == 1 << MAX_PERIOD_EXP {
        anomalies.push("boundary scan: aliasing period beyond the scanned range".into());
        return None;
    }
    Some((grain, last * 2))
}

/// Step 3: capacity from a double-capacity walk at the grain stride.
fn walk_capacity(d: &mut Driver, grain: u64, sets: usize, ways: usize) -> usize {
    let entries = 2 * sets * ways;
    let w = d.window();
    let walk = capacity_walk(&WalkParams {
        base: w,
        stride: grain,
        entries,
        rounds: 1,
        exit: Driver::park(w),
    });
    d.run(&[walk]);
    let mut survivors = 0;
    for i in 0..entries as u64 {
        if d.hit_l1(w + i * grain) {
            survivors += 1;
        }
    }
    survivors
}

/// Step 4: entry reach — the first filler distance whose branch no longer
/// shares the entry at the phase base.
fn measure_reach(
    d: &mut Driver,
    ways: usize,
    period: u64,
    anomalies: &mut Vec<String>,
) -> Option<u64> {
    let bound = MAX_REACH_BYTES.min(period);
    let mut dist = INST_BYTES;
    while dist < bound {
        let w = d.window();
        let b = w;
        let anchor = Driver::anchor(w, b);
        let straddle = region_boundary_straddle(&StraddleParams {
            base: b,
            offsets: vec![dist],
            exit: b + 2 * CONFLICT_STRIDE,
        });
        let flush = Driver::set_flush(b, ways + 4, Driver::park(w));
        d.run(&[anchor, straddle, flush]);
        if d.hit_l1(b + dist) {
            return Some(dist);
        }
        dist += INST_BYTES;
    }
    anomalies.push(format!(
        "reach scan: every straddling branch within {bound:#x} bytes shared the base entry"
    ));
    None
}

/// Step 5: slots per entry and overflow behavior. Returns
/// `(survivors_before_pressure, survivors_after_pressure)`.
fn measure_slots(
    d: &mut Driver,
    grain: u64,
    sets: usize,
    ways: usize,
    period: u64,
    reach: u64,
    flood_clusters: usize,
) -> (usize, usize) {
    let k = MAX_SLOT_PROBES.min((reach / INST_BYTES) as usize).max(1);
    let offsets: Vec<u64> = (0..k as u64).map(|i| i * INST_BYTES).collect();

    // Fill one entry at a window-aligned base (set 0 for every roster
    // geometry, since windows are multiples of every aliasing period).
    let w = d.window();
    let b = w;
    let anchor = Driver::anchor(w, b);
    let straddle = region_boundary_straddle(&StraddleParams {
        base: b,
        offsets: offsets.clone(),
        exit: Driver::park(w),
    });
    d.run(&[anchor, straddle]);
    let pre = offsets.iter().filter(|&&o| d.hit_l1(b + o)).count();

    // Pressure 1: flush every set except the base's, evicting split-off
    // successor entries without touching the base entry itself.
    if sets > 1 {
        let f = d.window();
        let mut addrs = Vec::with_capacity((ways + 2) * (sets - 1));
        for j in 0..(ways + 2) as u64 {
            for s in 1..sets as u64 {
                addrs.push(f + j * period + s * grain);
            }
        }
        let flush = probe_chain(&ChainParams {
            addrs,
            kind: BranchKind::Return,
            rounds: 1,
            exit: Driver::park(f),
        });
        d.run(&[flush]);
    }

    // Pressure 2: flood any decoupled overflow structure with straddle
    // clusters that tile contiguous entries, skipping every cluster whose
    // key range would touch the base's set.
    let f = d.window();
    let keys_per_cluster = (reach / grain).max(1);
    let mut bases: Vec<Addr> = Vec::with_capacity(flood_clusters);
    let mut c = 0u64;
    while bases.len() < flood_clusters {
        let cb = f + c * reach;
        c += 1;
        let first_key = cb / grain;
        let touches_base_set =
            (0..keys_per_cluster).any(|i| (first_key + i).is_multiple_of(sets as u64));
        if !touches_base_set {
            bases.push(cb);
        }
    }
    let flood: Vec<ProbeKernel> = bases
        .iter()
        .enumerate()
        .map(|(i, &cb)| {
            let exit = bases.get(i + 1).copied().unwrap_or_else(|| Driver::park(f));
            region_boundary_straddle(&StraddleParams {
                base: cb,
                offsets: (0..reach / INST_BYTES).map(|i| i * INST_BYTES).collect(),
                exit,
            })
        })
        .collect();
    d.run(&flood);

    let post = offsets.iter().filter(|&&o| d.hit_l1(b + o)).count();
    (pre, post)
}

/// Step 6: chain absorption — does an unconditional chain's middle block
/// stop being independently trackable at any level?
fn measure_chain(d: &mut Driver, anomalies: &mut Vec<String>) -> bool {
    let w = d.window();
    let blocks = vec![w, w + CONFLICT_STRIDE, w + 2 * CONFLICT_STRIDE];
    let breaker = multiblock_chain_breaker(&BreakerParams {
        blocks: blocks.clone(),
        flip_link: None,
        rounds: 1,
        exit: Driver::park(w),
    });
    d.run(&[breaker]);
    let first = d.probe(blocks[0]).is_some();
    let middle = d.probe(blocks[1]).is_some();
    let last = d.probe(blocks[2]).is_some();
    if !first || !last {
        anomalies.push("chain test: an endpoint block is not tracked at any level".into());
        return false;
    }
    !middle
}

/// Runs the full black-box inference protocol against an opaque
/// organization and diffs everything it recovers against what `config`
/// predicts. The organization is only observed through
/// `BtbOrganization::update`, `probe_branch`, and one `dump_state`
/// set-count cross-check. That count is taken before any probe traffic:
/// the dump lists every L1 set whatever it holds, so reading it from the
/// empty organization gives the same count without formatting the fully
/// probed state.
#[must_use]
pub fn infer_target(
    config: &BtbConfig,
    org: Box<dyn BtbOrganization>,
    opts: &InferOptions,
) -> InferenceReport {
    let expected = expected_geometry(config);
    // Taken while the organization is empty (see above): cheap to format.
    let dumped_sets = org.dump_state().l1.sets.len();
    let mut d = Driver::new(org);
    let mut anomalies = Vec::new();

    let ways = measure_ways(&mut d, &mut anomalies);
    let recovered = if ways == 0 || ways == SWEEP_INSTALLS {
        Geometry::unknown()
    } else if let Some((grain, period)) = scan_boundaries(&mut d, ways, &mut anomalies) {
        if opts.thorough {
            if let Some(again) = scan_boundaries(&mut d, ways, &mut anomalies) {
                if again != (grain, period) {
                    anomalies.push(format!(
                        "boundary scan not reproducible: {:?} then {:?}",
                        (grain, period),
                        again
                    ));
                }
            }
        }
        let sets = (period / grain) as usize;
        let capacity = walk_capacity(&mut d, grain, sets, ways);
        if capacity != sets * ways {
            anomalies.push(format!(
                "capacity walk found {capacity} survivors, sets × ways predicts {}",
                sets * ways
            ));
        }
        let reach = measure_reach(&mut d, ways, period, &mut anomalies).unwrap_or(0);
        let flood = if opts.thorough { 144 } else { 72 };
        let (pre, post) = if reach > 0 {
            measure_slots(&mut d, grain, sets, ways, period, reach, flood)
        } else {
            (0, 0)
        };
        let chain_absorbs = measure_chain(&mut d, &mut anomalies);
        Geometry {
            grain_bytes: grain,
            sets,
            ways,
            capacity,
            set_index: set_index_fn(grain, sets),
            reach_bytes: reach,
            slots: post,
            overflow_lossless: pre > post,
            chain_absorbs,
            l2_present: d.l2_seen,
        }
    } else {
        Geometry::unknown()
    };

    // Cross-check the recovered set count against the canonical state
    // dump taken before probing — the second observation hook. A
    // disagreement means the inference protocol itself mis-modelled the
    // structure.
    if recovered.sets != 0 && dumped_sets != recovered.sets {
        anomalies.push(format!(
            "state dump reports {dumped_sets} L1 sets, inference recovered {}",
            recovered.sets
        ));
    }

    let mut mismatches = Vec::new();
    let mut diff = |field: &str, exp: &dyn std::fmt::Display, got: &dyn std::fmt::Display| {
        mismatches.push(format!("{field}: expected {exp}, recovered {got}"));
    };
    if recovered.grain_bytes != expected.grain_bytes {
        diff("grain_bytes", &expected.grain_bytes, &recovered.grain_bytes);
    }
    if recovered.sets != expected.sets {
        diff("sets", &expected.sets, &recovered.sets);
    }
    if recovered.ways != expected.ways {
        diff("ways", &expected.ways, &recovered.ways);
    }
    if recovered.capacity != expected.capacity {
        diff("capacity", &expected.capacity, &recovered.capacity);
    }
    if recovered.set_index != expected.set_index {
        diff("set_index", &expected.set_index, &recovered.set_index);
    }
    if recovered.reach_bytes != expected.reach_bytes {
        diff("reach_bytes", &expected.reach_bytes, &recovered.reach_bytes);
    }
    if recovered.slots != expected.slots {
        diff("slots", &expected.slots, &recovered.slots);
    }
    if recovered.overflow_lossless != expected.overflow_lossless {
        diff(
            "overflow_lossless",
            &expected.overflow_lossless,
            &recovered.overflow_lossless,
        );
    }
    if recovered.chain_absorbs != expected.chain_absorbs {
        diff(
            "chain_absorbs",
            &expected.chain_absorbs,
            &recovered.chain_absorbs,
        );
    }
    if recovered.l2_present != expected.l2_present {
        diff("l2_present", &expected.l2_present, &recovered.l2_present);
    }

    InferenceReport {
        config_name: config.name.clone(),
        kind: kind_label(config),
        expected,
        recovered,
        mismatches,
        anomalies,
        updates: d.updates,
        probes: d.probes,
    }
}

/// Builds the (possibly perturbed) organization for `config` and runs
/// [`infer_target`] against it. With [`InferFault::None`] this is the
/// production path; any other fault must yield a non-clean report.
#[must_use]
pub fn infer_config(config: &BtbConfig, fault: InferFault, opts: &InferOptions) -> InferenceReport {
    let target: Box<dyn BtbOrganization> = match fault {
        InferFault::None => build_btb(config.clone()),
        InferFault::HalveWays => {
            let mut tampered = config.clone();
            tampered.l1.ways = (tampered.l1.ways / 2).max(1);
            build_btb(tampered)
        }
        InferFault::DoubleGrain => {
            let mut tampered = config.clone();
            match &mut tampered.kind {
                OrgKind::Instruction { .. } => tampered.l1.sets = (tampered.l1.sets / 2).max(1),
                OrgKind::Region { region_bytes, .. }
                | OrgKind::RegionOverflow { region_bytes, .. } => *region_bytes *= 2,
                OrgKind::Block { block_insts, .. }
                | OrgKind::HeteroBlockRegion { block_insts, .. }
                | OrgKind::MultiBlock { block_insts, .. } => *block_insts *= 2,
            }
            build_btb(tampered)
        }
        InferFault::SetBias => Box::new(SkewedUpdates::new(
            build_btb(config.clone()),
            expected_grain(config),
            None,
        )),
        InferFault::SwapIndexBits => Box::new(SkewedUpdates::new(
            build_btb(config.clone()),
            0,
            Some((6, 7)),
        )),
    };
    infer_target(config, target, opts)
}

/// Runs the inference over the whole six-organization roster (in
/// parallel, deterministically ordered).
#[must_use]
pub fn run_inference(fault: InferFault, opts: &InferOptions) -> Vec<InferenceReport> {
    let configs = infer_configs();
    btb_par::ordered_map(&configs, |_, config| infer_config(config, fault, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> InferOptions {
        InferOptions { thorough: false }
    }

    #[test]
    fn recovers_every_roster_organization() {
        for report in run_inference(InferFault::None, &quick()) {
            assert!(
                report.clean(),
                "{} not clean: mismatches {:?}, anomalies {:?} (recovered {:?})",
                report.config_name,
                report.mismatches,
                report.anomalies,
                report.recovered
            );
        }
    }

    #[test]
    fn set_index_function_is_canonical() {
        assert_eq!(set_index_fn(64, 256), "(pc >> 6) & 0xff");
        assert_eq!(set_index_fn(4, 512), "(pc >> 2) & 0x1ff");
        assert_eq!(set_index_fn(0, 256), "unrecovered");
    }

    #[test]
    fn report_json_is_strict() {
        let cfg = &infer_configs()[0];
        let report = infer_config(cfg, InferFault::None, &quick());
        let text = report.to_json().to_pretty_string();
        let parsed = JsonValue::parse_strict(&text).expect("strict parse");
        assert_eq!(parsed.to_pretty_string(), text);
    }
}
