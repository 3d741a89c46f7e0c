//! Output checker: every array set the runtime produced must equal the
//! sequential CPU reference bit for bit.

use std::collections::HashMap;

use benchmarks::{runners, BenchSpec};
use gpu_sim::TypedData;

/// True when `a` and `b` have the same type, length and bit patterns
/// (`-0.0` differs from `0.0`, and a NaN equals only the same NaN).
pub fn bit_equal(a: &TypedData, b: &TypedData) -> bool {
    match (a, b) {
        (TypedData::F32(x), TypedData::F32(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (TypedData::F64(x), TypedData::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (TypedData::I32(x), TypedData::I32(y)) => x == y,
        (TypedData::U8(x), TypedData::U8(y)) => x == y,
        _ => false,
    }
}

fn all_bit_equal(a: &[TypedData], b: &[TypedData]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bit_equal(x, y))
}

/// References per suite and iteration count.
///
/// `runners::reference_after_iters(spec, n)` replays `n` iterations.
/// When two iterations leave exactly the state one does, the iteration
/// map has reached a fixed point (it is a pure function of the state),
/// so every later count has that same state and the replay of `n` is
/// skipped. Otherwise the reference is computed for `n` as asked.
#[derive(Default)]
pub struct References {
    fixed: HashMap<&'static str, Option<Vec<TypedData>>>,
    by_count: HashMap<(&'static str, usize), Vec<TypedData>>,
}

impl References {
    /// The reference state of `spec` after `iters` iterations.
    pub fn after(&mut self, spec: &BenchSpec, iters: usize) -> &[TypedData] {
        if iters >= 1 {
            let fixed = self.fixed.entry(spec.name).or_insert_with(|| {
                let one = runners::reference_after_iters(spec, 1);
                let two = runners::reference_after_iters(spec, 2);
                all_bit_equal(&one, &two).then_some(one)
            });
            if let Some(state) = fixed {
                return state;
            }
        }
        self.by_count
            .entry((spec.name, iters))
            .or_insert_with(|| runners::reference_after_iters(spec, iters))
    }
}

/// Failures found by the checks of one run.
#[derive(Default)]
pub struct Checker {
    /// Operations found failed (see [`Checker::ops_failed`]).
    failed: u64,
    /// One line per failure, for the log.
    pub messages: Vec<String>,
    /// One line per schedule audit, for the log.
    pub audits: Vec<String>,
}

impl Checker {
    /// Compare one array set with the reference. A mismatch fails every
    /// request that ran on the set.
    pub fn arrays(&mut self, what: &str, got: &[TypedData], want: &[TypedData], requests: u64) {
        if got.len() != want.len() {
            self.fail(
                requests.max(1),
                format!("{what}: {} arrays, reference has {}", got.len(), want.len()),
            );
            return;
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if !bit_equal(g, w) {
                self.fail(
                    requests.max(1),
                    format!("{what}: array {i} differs from the sequential reference"),
                );
                return;
            }
        }
    }

    /// Each reported race fails one operation.
    pub fn races(&mut self, what: &str, races: usize) {
        if races > 0 {
            self.fail(races as u64, format!("{what}: {races} data races reported"));
        }
    }

    /// Each audit violation fails one operation.
    pub fn audit(&mut self, what: &str, report: &grcuda::AuditReport) {
        self.audits.push(format!(
            "{what}: audit checked {} vertices, {} conflicting pairs",
            report.vertices, report.checked_pairs
        ));
        let violations = report.violations.len();
        if violations > 0 {
            self.fail(
                violations as u64,
                format!("{what}: audit reports {violations} schedule violations"),
            );
        }
    }

    /// A call into the runtime returned an error.
    pub fn error(&mut self, what: &str, err: impl std::fmt::Display) {
        self.fail(1, format!("{what}: {err}"));
    }

    fn fail(&mut self, ops: u64, msg: String) {
        self.failed += ops;
        self.messages.push(msg);
    }

    /// Operations found failed.
    pub fn ops_failed(&self) -> u64 {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::{scales, Bench};

    #[test]
    fn bit_equal_is_bitwise() {
        assert!(bit_equal(
            &TypedData::F32(vec![1.0, 2.0]),
            &TypedData::F32(vec![1.0, 2.0])
        ));
        assert!(!bit_equal(
            &TypedData::F32(vec![0.0]),
            &TypedData::F32(vec![-0.0])
        ));
        assert!(bit_equal(
            &TypedData::F64(vec![f64::NAN]),
            &TypedData::F64(vec![f64::NAN])
        ));
        assert!(!bit_equal(
            &TypedData::F32(vec![1.0]),
            &TypedData::F64(vec![1.0])
        ));
    }

    #[test]
    fn fixed_point_shortcut_matches_full_replay() {
        for b in Bench::ALL {
            let spec = b.build(scales::tiny(b));
            let mut refs = References::default();
            let fast = refs.after(&spec, 5).to_vec();
            let full = runners::reference_after_iters(&spec, 5);
            assert!(all_bit_equal(&fast, &full), "{}", spec.name);
        }
    }

    /// One flipped bit anywhere in a reference array is a failure.
    #[test]
    fn one_flipped_bit_in_the_reference_is_reported() {
        for b in Bench::ALL {
            let spec = b.build(scales::tiny(b));
            let mut refs = References::default();
            let got = refs.after(&spec, 3).to_vec();

            let mut ok = Checker::default();
            ok.arrays(spec.name, &got, refs.after(&spec, 3), 3);
            assert_eq!(ok.ops_failed(), 0, "{}", spec.name);

            let mut corrupt = refs.after(&spec, 3).to_vec();
            let last = corrupt.len() - 1;
            match &mut corrupt[last] {
                TypedData::F32(v) => v[0] = f32::from_bits(v[0].to_bits() ^ 1),
                TypedData::F64(v) => v[0] = f64::from_bits(v[0].to_bits() ^ 1),
                TypedData::I32(v) => v[0] ^= 1,
                TypedData::U8(v) => v[0] ^= 1,
            }
            let mut bad = Checker::default();
            bad.arrays(spec.name, &got, &corrupt, 3);
            assert_eq!(bad.ops_failed(), 3, "{}", spec.name);
            assert_eq!(bad.messages.len(), 1);
        }
    }
}
