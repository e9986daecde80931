//! Host time of a measured phase: wall time, and the CPU time the process
//! spent on it.
//!
//! The end-to-end times are CPU seconds. On a guest whose vCPUs share a
//! host with other guests, wall time stretches by however long the
//! hypervisor hands the vCPUs to someone else; the kernel books that as
//! steal time and leaves it out of every task's CPU clock. CPU seconds
//! therefore move with the work the program does, not with the load the
//! neighbours put on the host.

use crate::inputs::mix;
use std::time::Instant;

/// CPU seconds this process has run, over all its threads, live and
/// exited (`CLOCK_PROCESS_CPUTIME_ID`).
#[must_use]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // laid out as the C library's on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds one copy of the reference computation takes on the host
/// the reported figures are scaled to: a 2-vCPU x86-64 microVM, at about
/// the speed it ran most of the time while the bounds were set.
pub const REFERENCE_NOMINAL_S: f64 = 0.045;

/// CPU seconds of a fixed reference computation in the benchmark's own
/// code, run once on each of `threads` threads at the same time: a seeded
/// walk over a 256 KiB table with data-dependent branches. No crate of the
/// program runs in it, so a change to the program never moves it; only
/// the host's speed does.
#[must_use]
pub fn reference_cpu_s(threads: usize) -> f64 {
    let t = Stopwatch::start();
    std::thread::scope(|scope| {
        for k in 0..threads.max(1) as u64 {
            scope.spawn(move || reference_walk(k));
        }
    });
    t.lap().cpu
}

fn reference_walk(seed: u64) -> u64 {
    const WORDS: usize = 1 << 15;
    let mut table: Vec<u64> = (0..WORDS as u64).map(|i| mix(i ^ seed)).collect();
    let (mut x, mut acc) = (seed, 0u64);
    for _ in 0..3_000_000 {
        x = mix(x);
        let i = x as usize & (WORDS - 1);
        let v = table[i];
        acc = match v & 3 {
            0 => acc.wrapping_add(v),
            1 => acc ^ x,
            _ => acc.rotate_left(3),
        };
        table[i] = v.wrapping_add(acc >> 5);
    }
    std::hint::black_box(acc)
}

/// Times phases and scales their CPU seconds to reference speed. A
/// reference run on the phases' thread count brackets every phase (one
/// before the first, one after each), and a phase's CPU time is scaled by
/// the host's speed over its two brackets against the nominal host, so a
/// phase run while the host was slow is scaled down by as much as the
/// reference beside it slowed.
pub struct RefClock {
    threads: usize,
    last_ref_s: f64,
}

impl RefClock {
    #[must_use]
    pub fn start(threads: usize) -> RefClock {
        RefClock {
            threads: threads.max(1),
            last_ref_s: reference_cpu_s(threads),
        }
    }

    /// Runs `phase` and returns its result and host time.
    pub fn time<R>(&mut self, phase: impl FnOnce() -> R) -> (R, Lap) {
        let t = Stopwatch::start();
        let out = phase();
        let mut lap = t.lap();
        let next_ref_s = reference_cpu_s(self.threads);
        let factor =
            REFERENCE_NOMINAL_S * self.threads as f64 * 2.0 / (self.last_ref_s + next_ref_s);
        lap.at_ref = lap.cpu * factor;
        self.last_ref_s = next_ref_s;
        (out, lap)
    }
}

/// Wall and CPU time since [`Stopwatch::start`].
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

/// One phase's host time in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    pub wall: f64,
    pub cpu: f64,
    /// `cpu` scaled to reference speed; set by [`RefClock::time`].
    pub at_ref: f64,
}

impl Lap {
    #[must_use]
    pub fn plus(self, other: Lap) -> Lap {
        Lap {
            wall: self.wall + other.wall,
            cpu: self.cpu + other.cpu,
            at_ref: self.at_ref + other.at_ref,
        }
    }

    /// The host factor the phase was scaled by: above 1 when the host ran
    /// faster than the nominal host.
    #[must_use]
    pub fn factor(self) -> f64 {
        self.at_ref / self.cpu
    }
}

impl Stopwatch {
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    #[must_use]
    pub fn lap(&self) -> Lap {
        Lap {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: process_cpu_s() - self.cpu,
            at_ref: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, so no other test of this module spins on another thread
    // while the process CPU clock is read.
    #[test]
    fn cpu_clock_and_ref_clock() {
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let slept = w.lap();
        assert!(slept.wall >= 0.2);
        assert!(slept.cpu < 0.1, "sleeping used {} CPU s", slept.cpu);
        let w = Stopwatch::start();
        let mut x = 1u64;
        while w.lap().wall < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005));
        }
        assert!(w.lap().cpu > 0.02, "spinning used {} CPU s", w.lap().cpu);

        // A phase that is itself one reference run reads as about one
        // nominal reference at reference speed, however fast the host is.
        let mut clock = RefClock::start(1);
        let ((), lap) = clock.time(|| {
            reference_cpu_s(1);
        });
        let ratio = lap.at_ref / REFERENCE_NOMINAL_S;
        assert!((0.5..2.0).contains(&ratio), "{ratio}");
    }
}
