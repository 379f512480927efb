//! The `WeakRead`/`WeakWrite` correctness condition of the lower bounds.
//!
//! The paper's lower bounds (Section 2) do not require linearizability.
//! Instead they consider methods `WeakWrite()` (no arguments, no return) and
//! `WeakRead()` (returns a Boolean), with the condition:
//!
//! > a `WeakRead()` operation `r` by process `p` returns `True` if and only
//! > if there exists a `WeakWrite()` operation `w` such that `w` happens
//! > before `r` and every other `WeakRead()` operation by `p` happens before
//! > `w`.
//!
//! Because every linearizable ABA-detecting register satisfies this condition
//! (with `DRead` as `WeakRead` and `DWrite` as `WeakWrite`), any *violation*
//! of the condition found by `aba_bench::lowerbound` in a crippled
//! implementation is also a violation of linearizability.  This module
//! provides the violation detector.  It is deliberately conservative: it
//! only reports violations that hold under *every* possible linearization of
//! overlapping operations, so a reported violation is always genuine.

use std::fmt;

use crate::history::{History, OpKind, OpRecord};
use crate::ProcessId;

/// A definite violation of the weak correctness condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeakViolation {
    /// A read returned `false` although some write completed strictly after
    /// all of the reader's previous reads and strictly before this read —
    /// i.e. a *missed ABA*.
    MissedWrite {
        /// The offending read.
        read: OpRecord,
        /// A write that proves the read should have returned `true`.
        witness_write: OpRecord,
    },
    /// A read returned `true` although no write could possibly have occurred
    /// in the window since the reader's previous read (no write overlaps or
    /// follows the previous read and precedes or overlaps this read).
    PhantomFlag {
        /// The offending read.
        read: OpRecord,
    },
}

impl fmt::Display for WeakViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeakViolation::MissedWrite { read, witness_write } => write!(
                f,
                "missed write: process {} read {} at [{}, {}] but write {} completed at [{}, {}]",
                read.pid,
                read.kind,
                read.invoked,
                read.responded,
                witness_write.kind,
                witness_write.invoked,
                witness_write.responded
            ),
            WeakViolation::PhantomFlag { read } => write!(
                f,
                "phantom flag: process {} reported a change at [{}, {}] but no write could have occurred in the window",
                read.pid, read.invoked, read.responded
            ),
        }
    }
}

/// Classify an operation record into the weak vocabulary.
fn as_read(op: &OpRecord) -> Option<bool> {
    match op.kind {
        OpKind::DRead { flag, .. } => Some(flag),
        _ => None,
    }
}

fn is_write(op: &OpRecord) -> bool {
    matches!(op.kind, OpKind::DWrite { .. })
}

/// Scan a history of `DWrite`/`DRead` operations for definite violations of
/// the weak correctness condition.
///
/// Returns all violations found (empty means "no definite violation"; it does
/// **not** prove linearizability).
pub fn check_weak_history(history: &History) -> Vec<WeakViolation> {
    let ops = history.ops();
    let mut violations = Vec::new();

    let writes: Vec<&OpRecord> = ops.iter().filter(|o| is_write(o)).collect();

    for pid in history.processes() {
        let reads: Vec<&OpRecord> = history_reads(history, pid);
        for (idx, read) in reads.iter().enumerate() {
            let flag = as_read(read).expect("filtered to reads");
            let prev_read: Option<&OpRecord> = if idx == 0 { None } else { Some(reads[idx - 1]) };

            if !flag {
                // Violation if some write w: w happens before this read, and
                // every other read by pid happens before w.  We restrict to
                // "every other read" = "all reads by pid", which is implied by
                // the strictly stronger check against all of them.
                for w in &writes {
                    if !w.happens_before(read) {
                        continue;
                    }
                    let all_other_reads_before_w = reads
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != idx)
                        .all(|(_, r)| r.happens_before(w));
                    if all_other_reads_before_w {
                        violations.push(WeakViolation::MissedWrite {
                            read: **read,
                            witness_write: **w,
                        });
                        break;
                    }
                }
            } else {
                // Violation if *no* write could have linearized after the
                // previous read and before this one: every write either
                // happens before the previous read, or is invoked only after
                // this read responded.
                let some_write_possible = writes.iter().any(|w| {
                    let after_prev = match prev_read {
                        None => true,
                        // w could linearize after prev_read unless w happens
                        // before prev_read entirely.
                        Some(prev) => !w.happens_before(prev),
                    };
                    let before_this = w.invoked < read.responded;
                    after_prev && before_this
                });
                if !some_write_possible {
                    violations.push(WeakViolation::PhantomFlag { read: **read });
                }
            }
        }
    }
    violations
}

fn history_reads(history: &History, pid: ProcessId) -> Vec<&OpRecord> {
    history
        .ops()
        .iter()
        .filter(|o| o.pid == pid && as_read(o).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::Word;

    fn write(pid: ProcessId, value: Word, invoked: u64, responded: u64) -> OpRecord {
        OpRecord {
            pid,
            kind: OpKind::DWrite { value },
            invoked,
            responded,
        }
    }

    fn read(pid: ProcessId, flag: bool, invoked: u64, responded: u64) -> OpRecord {
        OpRecord {
            pid,
            kind: OpKind::DRead { value: 0, flag },
            invoked,
            responded,
        }
    }

    #[test]
    fn clean_history_has_no_violations() {
        let h = History::from_ops(vec![
            write(0, 1, 0, 1),
            read(1, true, 2, 3),
            read(1, false, 4, 5),
            write(0, 2, 6, 7),
            read(1, true, 8, 9),
        ]);
        assert!(check_weak_history(&h).is_empty());
    }

    #[test]
    fn missed_write_is_detected() {
        let h = History::from_ops(vec![
            read(1, false, 0, 1),
            write(0, 1, 2, 3),
            read(1, false, 4, 5), // should have been true
        ]);
        let v = check_weak_history(&h);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], WeakViolation::MissedWrite { .. }));
        assert!(format!("{}", v[0]).contains("missed write"));
    }

    #[test]
    fn phantom_flag_is_detected() {
        let h = History::from_ops(vec![
            write(0, 1, 0, 1),
            read(1, true, 2, 3),
            read(1, true, 4, 5), // no write since the previous read
        ]);
        let v = check_weak_history(&h);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], WeakViolation::PhantomFlag { .. }));
    }

    #[test]
    fn overlapping_write_never_counts_as_violation() {
        // The write overlaps both reads, so either flag outcome is allowed.
        let h = History::from_ops(vec![
            write(0, 1, 0, 100),
            read(1, false, 10, 11),
            read(1, true, 12, 13),
        ]);
        assert!(check_weak_history(&h).is_empty());
    }

    #[test]
    fn first_read_true_requires_some_prior_or_overlapping_write() {
        let h = History::from_ops(vec![read(1, true, 0, 1), write(0, 1, 2, 3)]);
        let v = check_weak_history(&h);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], WeakViolation::PhantomFlag { .. }));
    }

    #[test]
    fn first_read_false_after_completed_write_is_a_violation() {
        let h = History::from_ops(vec![write(0, 1, 0, 1), read(1, false, 2, 3)]);
        let v = check_weak_history(&h);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], WeakViolation::MissedWrite { .. }));
    }

    #[test]
    fn empty_history_is_clean() {
        assert!(check_weak_history(&History::new()).is_empty());
    }
}
