//! Base objects and shared memory of the paper's model.
//!
//! The paper's system consists of `n` processes communicating through atomic
//! *base objects*: bounded registers, CAS objects and writable CAS objects.
//! In the simulator each base object is a cell holding a `u64` together with
//! its kind and an optional bound on how many distinct values it may ever
//! hold (`None` models an unbounded object, which the lower bounds exclude).
//!
//! A *register configuration* `reg(C)` — the tuple of all register values in
//! a configuration — is what the covering argument of Lemma 1 repeats on; the
//! simulator exposes it via [`SharedMemory::snapshot`].

use std::collections::HashSet;

/// Index of a base object within the shared memory.
pub type ObjId = usize;

/// The kind of a base object (which operations it supports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Read/write register.
    Register,
    /// Read + CAS (no write).
    Cas,
    /// Read + Write + CAS (the paper's canonical conditional primitive).
    WritableCas,
}

/// One atomic base object.
#[derive(Debug, Clone)]
pub struct BaseObject {
    kind: ObjectKind,
    value: u64,
    /// Distinct values this object has held, to audit boundedness claims.
    observed: HashSet<u64>,
    /// Total number of (attempted) write/CAS steps applied.
    mutations: u64,
}

impl BaseObject {
    /// A new base object of the given kind and initial value.
    pub fn new(kind: ObjectKind, initial: u64) -> Self {
        let mut observed = HashSet::new();
        observed.insert(initial);
        BaseObject {
            kind,
            value: initial,
            observed,
            mutations: 0,
        }
    }

    /// A register.
    pub fn register(initial: u64) -> Self {
        Self::new(ObjectKind::Register, initial)
    }

    /// A CAS object.
    pub fn cas(initial: u64) -> Self {
        Self::new(ObjectKind::Cas, initial)
    }

    /// A writable CAS object.
    pub fn writable_cas(initial: u64) -> Self {
        Self::new(ObjectKind::WritableCas, initial)
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Object kind.
    pub fn kind(&self) -> ObjectKind {
        self.kind
    }

    /// Number of distinct values observed so far (an empirical lower bound on
    /// the number of states the object needs).
    pub fn distinct_values(&self) -> usize {
        self.observed.len()
    }

    /// Number of write/CAS steps applied so far.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }
}

/// A single shared-memory step, the granularity of the paper's schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseOp {
    /// `Read()` on the object.
    Read(ObjId),
    /// `Write(value)` on the object.
    Write(ObjId, u64),
    /// `CAS(expected, new)` on the object.
    Cas(ObjId, u64, u64),
}

impl BaseOp {
    /// The object this step accesses.
    pub fn object(&self) -> ObjId {
        match *self {
            BaseOp::Read(o) | BaseOp::Write(o, _) | BaseOp::Cas(o, _, _) => o,
        }
    }

    /// The *predicted* memory-access footprint of this step, before it
    /// executes.  A CAS is conservatively counted as writing — whether it
    /// actually mutates depends on the value it meets; the executor reports
    /// the precise post-hoc footprint in
    /// [`StepOutcome::Stepped`](crate::executor::StepOutcome).
    pub fn access(&self) -> StepAccess {
        StepAccess {
            obj: self.object(),
            writes: self.is_mutating(),
        }
    }

    /// `true` for steps that may change the object (writes and CASes).
    pub fn is_mutating(&self) -> bool {
        !matches!(self, BaseOp::Read(_))
    }

    /// `true` for plain writes (the covering argument covers registers with
    /// processes poised to *write*).
    pub fn is_write(&self) -> bool {
        matches!(self, BaseOp::Write(_, _))
    }

    /// `true` for CAS steps.
    pub fn is_cas(&self) -> bool {
        matches!(self, BaseOp::Cas(_, _, _))
    }
}

/// The shared-memory footprint of one executed (or poised) step: which base
/// object it touches and whether it (possibly) changes it.
///
/// This is the granularity at which the exhaustive explorer reasons about
/// commutativity: two steps are *dependent* iff they touch the same object
/// and at least one of them writes (a plain write, a successful CAS, or —
/// predictively — any CAS).  Everything else commutes, and schedules that
/// differ only by swapping adjacent commuting steps are equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepAccess {
    /// The base object touched.
    pub obj: ObjId,
    /// `true` if the step may have changed the object's value.
    pub writes: bool,
}

impl StepAccess {
    /// `true` iff re-ordering `self` with `other` could change behaviour:
    /// same object and at least one side writes.
    pub fn dependent(&self, other: &StepAccess) -> bool {
        self.obj == other.obj && (self.writes || other.writes)
    }
}

/// The result fed back to the process after it executes a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Value returned by a `Read()`.
    Value(u64),
    /// A `Write()` completed.
    Written,
    /// Outcome of a `CAS(expected, new)`: whether it succeeded, plus the
    /// value the object held immediately before the step.
    CasOutcome {
        /// Whether the CAS installed its new value.
        success: bool,
        /// The value read by the CAS.
        observed: u64,
    },
}

impl StepResult {
    /// The value a `Read()` returned.
    ///
    /// # Panics
    ///
    /// Panics if the step was not a read — a state machine consuming the
    /// wrong result kind is a bug in the simulated algorithm.
    pub fn value(self) -> u64 {
        match self {
            StepResult::Value(v) => v,
            other => panic!("expected a read result, got {other:?}"),
        }
    }

    /// Whether a `CAS(expected, new)` installed its new value.
    ///
    /// # Panics
    ///
    /// Panics if the step was not a CAS.
    pub fn cas_succeeded(self) -> bool {
        match self {
            StepResult::CasOutcome { success, .. } => success,
            other => panic!("expected a CAS outcome, got {other:?}"),
        }
    }
}

/// The *ground-truth* footprint of one executed step, recorded by the shared
/// memory itself when it applies the operation.
///
/// This is the footprint-soundness auditor's shadow record: unlike
/// [`StepAccess`], which is *declared* by a step machine (predictively via
/// `poised`/`first_step`, post hoc via the executor's CAS downgrade), an
/// `ActualAccess` is produced by [`SharedMemory::apply`] from what actually
/// happened — which object was touched and whether a state-changing
/// operation landed on it (a plain write, or a CAS that succeeded).  The
/// auditor diffs declared against actual; any under-report unsounds the
/// DPOR reduction's dependency relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActualAccess {
    /// The base object the applied operation touched.
    pub obj: ObjId,
    /// `true` iff the operation mutated the object: a write (even of the
    /// current value — it is still a mutation step) or a successful CAS.
    /// A read or a failed CAS observed but did not change the object.
    pub mutated: bool,
}

/// The shared memory: the ordered collection of base objects.
#[derive(Debug, Clone, Default)]
pub struct SharedMemory {
    objects: Vec<BaseObject>,
    /// Count of operations applied so far (the shadow memory's clock).
    applied_ops: u64,
    /// Ground-truth footprint of the most recently applied operation.
    last_actual: Option<ActualAccess>,
}

impl SharedMemory {
    /// Memory with the given base objects.
    pub fn new(objects: Vec<BaseObject>) -> Self {
        SharedMemory {
            objects,
            applied_ops: 0,
            last_actual: None,
        }
    }

    /// Total operations applied so far.  Together with [`Self::last_actual`]
    /// this lets an auditor tell "no operation ran" apart from "the previous
    /// operation's record is still current".
    pub fn applied_ops(&self) -> u64 {
        self.applied_ops
    }

    /// The ground-truth footprint of the most recently applied operation,
    /// `None` before the first one.
    pub fn last_actual(&self) -> Option<ActualAccess> {
        self.last_actual
    }

    /// Number of base objects (`m` in the paper's bounds).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` if there are no base objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The objects themselves.
    pub fn objects(&self) -> &[BaseObject] {
        &self.objects
    }

    /// The register configuration `reg(C)`: all object values in order.
    pub fn snapshot(&self) -> Vec<u64> {
        self.objects.iter().map(|o| o.value).collect()
    }

    /// Execute one shared-memory step.
    ///
    /// # Panics
    ///
    /// Panics if the object id is out of range or the operation is not
    /// supported by the object's kind (e.g. `Write` on a plain CAS object) —
    /// both indicate a bug in a simulated algorithm, not a runtime condition.
    pub fn apply(&mut self, op: BaseOp) -> StepResult {
        let result = self.apply_inner(op);
        self.applied_ops += 1;
        self.last_actual = Some(ActualAccess {
            obj: op.object(),
            mutated: match result {
                StepResult::Value(_) => false,
                StepResult::Written => true,
                StepResult::CasOutcome { success, .. } => success,
            },
        });
        result
    }

    fn apply_inner(&mut self, op: BaseOp) -> StepResult {
        match op {
            BaseOp::Read(id) => StepResult::Value(self.objects[id].value),
            BaseOp::Write(id, v) => {
                let obj = &mut self.objects[id];
                assert!(
                    matches!(obj.kind, ObjectKind::Register | ObjectKind::WritableCas),
                    "Write on object {id} of kind {:?}",
                    obj.kind
                );
                obj.value = v;
                obj.observed.insert(v);
                obj.mutations += 1;
                StepResult::Written
            }
            BaseOp::Cas(id, expected, new) => {
                let obj = &mut self.objects[id];
                assert!(
                    matches!(obj.kind, ObjectKind::Cas | ObjectKind::WritableCas),
                    "CAS on object {id} of kind {:?}",
                    obj.kind
                );
                let observed = obj.value;
                let success = observed == expected;
                if success {
                    obj.value = new;
                    obj.observed.insert(new);
                }
                obj.mutations += 1;
                StepResult::CasOutcome { success, observed }
            }
        }
    }

    /// Read without counting as a step (for assertions and invariant checks
    /// in tests — never used by simulated algorithms).
    pub fn peek(&self, id: ObjId) -> u64 {
        self.objects[id].value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_read_write() {
        let mut m = SharedMemory::new(vec![BaseObject::register(7)]);
        assert_eq!(m.apply(BaseOp::Read(0)), StepResult::Value(7));
        assert_eq!(m.apply(BaseOp::Write(0, 9)), StepResult::Written);
        assert_eq!(m.peek(0), 9);
        assert_eq!(m.snapshot(), vec![9]);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut m = SharedMemory::new(vec![BaseObject::cas(1)]);
        assert_eq!(
            m.apply(BaseOp::Cas(0, 1, 2)),
            StepResult::CasOutcome {
                success: true,
                observed: 1
            }
        );
        assert_eq!(
            m.apply(BaseOp::Cas(0, 1, 3)),
            StepResult::CasOutcome {
                success: false,
                observed: 2
            }
        );
        assert_eq!(m.peek(0), 2);
    }

    #[test]
    #[should_panic(expected = "Write on object")]
    fn write_on_cas_object_is_rejected() {
        let mut m = SharedMemory::new(vec![BaseObject::cas(0)]);
        m.apply(BaseOp::Write(0, 1));
    }

    #[test]
    #[should_panic(expected = "CAS on object")]
    fn cas_on_register_is_rejected() {
        let mut m = SharedMemory::new(vec![BaseObject::register(0)]);
        m.apply(BaseOp::Cas(0, 0, 1));
    }

    #[test]
    fn writable_cas_supports_everything() {
        let mut m = SharedMemory::new(vec![BaseObject::writable_cas(0)]);
        m.apply(BaseOp::Write(0, 5));
        assert_eq!(
            m.apply(BaseOp::Cas(0, 5, 6)),
            StepResult::CasOutcome {
                success: true,
                observed: 5
            }
        );
        assert_eq!(m.apply(BaseOp::Read(0)), StepResult::Value(6));
    }

    #[test]
    fn distinct_value_accounting() {
        let mut m = SharedMemory::new(vec![BaseObject::register(0)]);
        for v in [1u64, 2, 1, 3, 2] {
            m.apply(BaseOp::Write(0, v));
        }
        assert_eq!(m.objects()[0].distinct_values(), 4); // {0,1,2,3}
        assert_eq!(m.objects()[0].mutations(), 5);
    }

    #[test]
    fn base_op_classification() {
        assert!(BaseOp::Write(0, 1).is_write());
        assert!(BaseOp::Write(0, 1).is_mutating());
        assert!(BaseOp::Cas(0, 1, 2).is_cas());
        assert!(!BaseOp::Read(0).is_mutating());
        assert_eq!(BaseOp::Cas(3, 0, 0).object(), 3);
    }

    #[test]
    fn shadow_memory_records_ground_truth_footprints() {
        let mut m = SharedMemory::new(vec![BaseObject::writable_cas(0)]);
        assert_eq!(m.applied_ops(), 0);
        assert_eq!(m.last_actual(), None);
        m.apply(BaseOp::Read(0));
        assert_eq!(
            m.last_actual(),
            Some(ActualAccess {
                obj: 0,
                mutated: false
            })
        );
        m.apply(BaseOp::Write(0, 5));
        assert_eq!(
            m.last_actual(),
            Some(ActualAccess {
                obj: 0,
                mutated: true
            })
        );
        // A failed CAS observed but did not mutate — the ground truth the
        // executor's post-hoc downgrade must agree with.
        m.apply(BaseOp::Cas(0, 99, 1));
        assert_eq!(
            m.last_actual(),
            Some(ActualAccess {
                obj: 0,
                mutated: false
            })
        );
        m.apply(BaseOp::Cas(0, 5, 1));
        assert_eq!(
            m.last_actual(),
            Some(ActualAccess {
                obj: 0,
                mutated: true
            })
        );
        // Writing the value already held is still a mutation step.
        m.apply(BaseOp::Write(0, 1));
        assert!(m.last_actual().unwrap().mutated);
        assert_eq!(m.applied_ops(), 5);
    }

    #[test]
    fn access_footprints_and_dependency() {
        let r0 = BaseOp::Read(0).access();
        let w0 = BaseOp::Write(0, 1).access();
        let c0 = BaseOp::Cas(0, 1, 2).access();
        let r1 = BaseOp::Read(1).access();
        assert!(!r0.writes);
        assert!(w0.writes);
        // Predicted CAS footprints are conservatively writing.
        assert!(c0.writes);
        // Same object, one writer: dependent (both orders).
        assert!(r0.dependent(&w0));
        assert!(w0.dependent(&r0));
        assert!(w0.dependent(&c0));
        // Two reads of the same object commute.
        assert!(!r0.dependent(&r0));
        // Different objects always commute.
        assert!(!w0.dependent(&r1));
    }
}
