//! Versioned binary codecs for the artifacts the store holds.
//!
//! * **Traces** reuse `btb-trace`'s stream format (`io::write_trace`),
//!   which carries its own magic and version. They are decoded by
//!   `Store::load_trace` while it hashes the payload, not here.
//! * **Reports** get a dedicated fixed-layout encoding here: little-endian
//!   counters plus bit-exact (`f64::to_bits`) floating-point aggregates,
//!   so a decoded report is *identical* — not just approximately equal —
//!   to the report that was encoded. Byte-identical downstream figures
//!   depend on this.
//!
//! Every decoder treats any malformed input as an error; the store maps
//! codec errors to cache misses.

use btb_sim::{SimReport, SimStats};
use btb_trace::{write_trace, Trace};

/// Report encoding version; bump on any layout change.
const REPORT_CODEC_VERSION: u32 = 1;
const REPORT_MAGIC: &[u8; 8] = b"BTBREPRT";

/// Decode failure (malformed or truncated artifact payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed artifact: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Serializes a trace into the `btb-trace` stream format.
#[must_use]
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(trace.records.len() * 31 + 64);
    write_trace(&mut buf, trace).expect("writing to a Vec cannot fail");
    buf
}

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.0.len() < n {
            return Err(CodecError("truncated report"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(CodecError("implausible string length"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| CodecError("non-utf8 string"))
    }
}

/// Serializes a simulation report.
#[must_use]
pub fn encode_report(report: &SimReport) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(192));
    w.0.extend_from_slice(REPORT_MAGIC);
    w.u32(REPORT_CODEC_VERSION);
    w.str(&report.config_name);
    w.str(&report.workload);
    let s = &report.stats;
    for counter in [
        s.instructions,
        s.last_commit_cycle,
        s.btb_accesses,
        s.fetch_pcs,
        s.branches,
        s.taken_branches,
        s.taken_l1_hits,
        s.taken_l2_hits,
        s.cond_mispredicts,
        s.indirect_mispredicts,
        s.misfetches,
        s.untracked_exec_resteers,
        s.cond_branches,
    ] {
        w.u64(counter);
    }
    for sample in [
        report.l1_occupancy,
        report.l1_redundancy,
        report.l2_occupancy,
        report.l2_redundancy,
        report.l1i_hit_rate,
    ] {
        w.f64(sample);
    }
    w.0
}

/// Deserializes a simulation report encoded by [`encode_report`].
///
/// # Errors
/// Returns [`CodecError`] on malformed or truncated input.
pub fn decode_report(bytes: &[u8]) -> Result<SimReport, CodecError> {
    let mut r = Reader(bytes);
    if r.take(8)? != REPORT_MAGIC {
        return Err(CodecError("report magic"));
    }
    if r.u32()? != REPORT_CODEC_VERSION {
        return Err(CodecError("report codec version"));
    }
    let config_name = r.str()?;
    let workload = r.str()?;
    let stats = SimStats {
        instructions: r.u64()?,
        last_commit_cycle: r.u64()?,
        btb_accesses: r.u64()?,
        fetch_pcs: r.u64()?,
        branches: r.u64()?,
        taken_branches: r.u64()?,
        taken_l1_hits: r.u64()?,
        taken_l2_hits: r.u64()?,
        cond_mispredicts: r.u64()?,
        indirect_mispredicts: r.u64()?,
        misfetches: r.u64()?,
        untracked_exec_resteers: r.u64()?,
        cond_branches: r.u64()?,
    };
    let report = SimReport {
        config_name,
        workload: workload.into(),
        stats,
        l1_occupancy: r.f64()?,
        l1_redundancy: r.f64()?,
        l2_occupancy: r.f64()?,
        l2_redundancy: r.f64()?,
        l1i_hit_rate: r.f64()?,
    };
    if !r.0.is_empty() {
        return Err(CodecError("trailing bytes after report"));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        SimReport {
            config_name: "I-BTB 16".to_owned(),
            workload: "web-small".into(),
            stats: SimStats {
                instructions: 123_456,
                last_commit_cycle: 45_678,
                btb_accesses: 9_999,
                fetch_pcs: 77_777,
                branches: 23_456,
                taken_branches: 12_345,
                taken_l1_hits: 10_000,
                taken_l2_hits: 2_000,
                cond_mispredicts: 345,
                indirect_mispredicts: 67,
                misfetches: 89,
                untracked_exec_resteers: 12,
                cond_branches: 20_000,
            },
            l1_occupancy: 0.731_234_567_89,
            l1_redundancy: 1.0625,
            l2_occupancy: 0.5,
            l2_redundancy: f64::from_bits(0x3ff0_0000_0000_0001),
            l1i_hit_rate: 0.999,
        }
    }

    #[test]
    fn report_roundtrip_is_bit_exact() {
        let r = sample_report();
        let decoded = decode_report(&encode_report(&r)).expect("roundtrip");
        assert_eq!(decoded, r);
        assert_eq!(
            decoded.l2_redundancy.to_bits(),
            r.l2_redundancy.to_bits(),
            "floats must roundtrip bit-exactly"
        );
    }

    #[test]
    fn report_rejects_corruption() {
        let mut bytes = encode_report(&sample_report());
        assert!(
            decode_report(&bytes[..bytes.len() - 1]).is_err(),
            "truncation"
        );
        bytes.push(0);
        assert!(decode_report(&bytes).is_err(), "trailing bytes");
        let mut wrong_magic = encode_report(&sample_report());
        wrong_magic[0] ^= 0xff;
        assert!(decode_report(&wrong_magic).is_err(), "magic");
        let mut wrong_version = encode_report(&sample_report());
        wrong_version[8] = 0xfe;
        assert!(decode_report(&wrong_version).is_err(), "version");
    }
}
