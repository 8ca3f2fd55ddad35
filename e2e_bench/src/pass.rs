//! What one pass over a workload's instances measured, and the pieces
//! every workload shares: the decision fingerprint and seed derivation.

use std::fmt;
use std::fmt::Write as _;

use gridsched::metrics::telemetry::Telemetry;
use gridsched::workload::pool::PoolConfig;

use crate::stats::{Tally, WorkCounts};

/// One pass: every instance of the workload run once.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of each timed call into the program, in call order:
    /// a whole campaign, or one request. The set-up of the pass and the
    /// correctness checks are outside them.
    pub call_s: Vec<f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Per-operation latency samples, in ms (see
    /// [`Workload::times_each_operation`]).
    pub op_ms: Vec<f64>,
    /// Sum and count of the cost functions of activated schedules.
    pub cost_sum: u64,
    /// Activated schedules.
    pub cost_n: u64,
    /// Hash of every decision the pass made.
    pub fingerprint: u64,
    /// Correctness violations found (empty when the pass is correct).
    pub problems: Vec<String>,
    /// The benchmark's own timers around calls it makes itself.
    pub own: OwnTimers,
    /// Deterministic counts the workload observes itself (the telemetry
    /// counters are added by the ledger).
    pub counts: WorkCounts,
}

impl Pass {
    /// Checks an instance's decision fingerprint against the instance's
    /// first pass (`first`, set on that pass) and folds it into the
    /// pass fingerprint `pass_fp`.
    pub fn check_decisions(
        &mut self,
        pass_fp: &mut Fingerprint,
        first: &mut Option<u64>,
        fingerprint: u64,
        label: &str,
    ) {
        match *first {
            None => *first = Some(fingerprint),
            Some(f) if f != fingerprint => self.problems.push(format!(
                "{label}: decisions differ from its first pass \
                 (fingerprint {fingerprint:016x}, first {f:016x})"
            )),
            Some(_) => {}
        }
        let _ = write!(pass_fp, "{fingerprint:x};");
    }
}

/// Samples from timers the benchmark puts around its own calls.
#[derive(Debug, Default)]
pub struct OwnTimers {
    /// `Timetable::reserve`, in ns.
    pub reserve_ns: Vec<f64>,
    /// `flow::oracle::audit`, in ms.
    pub audit_ms: Vec<f64>,
}

/// A workload: instances built from one seed, run pass after pass.
pub trait Workload {
    /// Instances the workload cycles through in one pass.
    fn instances(&self) -> usize;

    /// Whether each operation is a call of its own, timed from outside.
    /// When it is not, [`Pass::op_ms`] holds one sample per call: the
    /// call's wall time over its operations.
    fn times_each_operation(&self) -> bool;

    /// Runs every instance once. A disabled `telemetry` selects the plain
    /// entry points; an enabled one the `*_instrumented` ones.
    fn pass(&mut self, telemetry: &Telemetry) -> Pass;
}

/// FNV-1a over everything written to it: the decision fingerprint.
/// Feeding it `Debug` output hashes a report without building a string.
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// The hash so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The §4 pool at a fixed 25 nodes, the middle of its 20–30 range.
/// Planning time grows with the node count (a 30-node campaign takes
/// about 2.8× a 21-node one), so a drawn count would make the spread
/// between seeds mostly pool-size spread.
#[must_use]
pub fn pool_config() -> PoolConfig {
    PoolConfig {
        nodes_min: 25,
        nodes_max: 25,
        ..PoolConfig::default()
    }
}

/// The seed of instance `k` of a run seeded with `seed` (SplitMix64 over
/// both), so instances of one run and runs of nearby seeds all differ.
#[must_use]
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64 + 1)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        write!(a, "{:?}", (1, 2)).unwrap();
        write!(b, "{:?}", (2, 1)).unwrap();
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::default();
        write!(c, "{:?}", (1, 2)).unwrap();
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn instance_seeds_are_distinct() {
        let mut seen: Vec<u64> = (0..4)
            .flat_map(|s| (0..8).map(move |k| instance_seed(s, k)))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 32);
    }
}
