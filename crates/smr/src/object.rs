//! Base objects of the asynchronous shared-memory system.
//!
//! Each step of a process is one atomic operation on one base object
//! (paper §2). Objects are deterministic sequential state machines:
//! [`Object::apply`] consumes an [`Operation`] and produces a
//! [`Response`], mutating the object's value.
//!
//! The object zoo covers everything the paper mentions:
//!
//! * [`Object::Register`] — read/write register (multi-writer unless the
//!   system restricts writers).
//! * [`Object::Snapshot`] — m-component snapshot with `update`/`scan`;
//!   single-writer snapshots are a system-level restriction (component j
//!   owned by process j).
//! * [`Object::MaxRegister`], [`Object::FetchAndIncrement`],
//!   [`Object::Swap`], [`Object::Cas`] — the object families discussed in
//!   §5.3 (ABA-freedom).

use crate::error::ModelError;
use crate::value::Value;
use std::fmt;

/// Identifies a base object within a [`crate::system::System`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub usize);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// An operation on a base object; one process step performs exactly one.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operation {
    /// Read a register (or one component of a componentwise object).
    Read { obj: ObjectId },
    /// Write a value to a register.
    Write { obj: ObjectId, value: Value },
    /// Update component `component` of a snapshot object to `value`.
    Update { obj: ObjectId, component: usize, value: Value },
    /// Atomically read all components of a snapshot object.
    Scan { obj: ObjectId },
    /// Write `value` to a max-register component if it exceeds the
    /// current value (`writemax`, §5.2).
    WriteMax { obj: ObjectId, component: usize, value: Value },
    /// Fetch-and-increment: returns the pre-increment counter.
    FetchInc { obj: ObjectId },
    /// Swap: writes `value`, returns the previous value.
    Swap { obj: ObjectId, value: Value },
    /// Compare-and-swap: if the current value equals `expect`, replace it
    /// with `update`; returns whether the replacement happened.
    Cas { obj: ObjectId, expect: Value, update: Value },
}

impl Operation {
    /// The object this operation targets.
    pub fn object(&self) -> ObjectId {
        match self {
            Operation::Read { obj }
            | Operation::Write { obj, .. }
            | Operation::Update { obj, .. }
            | Operation::Scan { obj }
            | Operation::WriteMax { obj, .. }
            | Operation::FetchInc { obj }
            | Operation::Swap { obj, .. }
            | Operation::Cas { obj, .. } => *obj,
        }
    }

    /// Does this operation mutate the object? (Reads and scans do not.)
    pub fn is_mutation(&self) -> bool {
        !matches!(self, Operation::Read { .. } | Operation::Scan { .. })
    }
}

/// The response returned by a base-object operation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Response {
    /// Acknowledgement of a write-like operation.
    Ack,
    /// A single value (read, fetch-and-increment, swap).
    Value(Value),
    /// A full view of a snapshot object.
    View(Vec<Value>),
    /// Success flag of a compare-and-swap.
    Flag(bool),
}

impl Response {
    /// Views the response as a single value.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            Response::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Views the response as a snapshot view.
    pub fn as_view(&self) -> Option<&[Value]> {
        match self {
            Response::View(v) => Some(v),
            _ => None,
        }
    }
}

/// A base object's current value plus its sequential specification.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Object {
    /// A read/write register.
    Register { value: Value },
    /// An m-component snapshot object.
    Snapshot { components: Vec<Value> },
    /// An m-component max-register (`writemax` keeps the maximum).
    MaxRegister { components: Vec<Value> },
    /// A fetch-and-increment counter.
    FetchAndIncrement { counter: i64 },
    /// A swap object.
    Swap { value: Value },
    /// A compare-and-swap object.
    Cas { value: Value },
}

impl crate::fingerprint::ConfigHash for Object {
    fn hash_config(&self, h: &mut crate::fingerprint::FnvStream) {
        use fmt::Write;
        let _ = write!(h, "{self:?}");
    }
}

impl Object {
    /// A fresh register holding ⊥.
    pub fn register() -> Object {
        Object::Register { value: Value::Nil }
    }

    /// A fresh m-component snapshot, all components ⊥.
    pub fn snapshot(m: usize) -> Object {
        Object::Snapshot { components: vec![Value::Nil; m] }
    }

    /// A fresh m-component max-register, all components ⊥ (⊥ is the
    /// minimum of the value order).
    pub fn max_register(m: usize) -> Object {
        Object::MaxRegister { components: vec![Value::Nil; m] }
    }

    /// Number of registers this object counts as (paper §2: an
    /// m-component snapshot counts as m registers).
    pub fn register_cost(&self) -> usize {
        match self {
            Object::Snapshot { components } | Object::MaxRegister { components } => {
                components.len()
            }
            _ => 1,
        }
    }

    /// Applies `op` to the object, returning its response.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadOperation`] if the operation does not
    /// match the object's type or indexes a nonexistent component.
    pub fn apply(&mut self, op: &Operation) -> Result<Response, ModelError> {
        if !op.is_mutation() {
            return self.read(op);
        }
        match (self, op) {
            (Object::Register { value }, Operation::Write { value: v, .. }) => {
                *value = v.clone();
                Ok(Response::Ack)
            }
            (Object::Snapshot { components }, Operation::Update { component, value, .. }) => {
                let slot = components.get_mut(*component).ok_or_else(|| {
                    ModelError::BadOperation(format!(
                        "update to nonexistent component {component}"
                    ))
                })?;
                *slot = value.clone();
                Ok(Response::Ack)
            }
            (Object::MaxRegister { components }, Operation::WriteMax { component, value, .. }) => {
                let slot = components.get_mut(*component).ok_or_else(|| {
                    ModelError::BadOperation(format!(
                        "writemax to nonexistent component {component}"
                    ))
                })?;
                if *value > *slot {
                    *slot = value.clone();
                }
                Ok(Response::Ack)
            }
            (Object::FetchAndIncrement { counter }, Operation::FetchInc { .. }) => {
                let old = *counter;
                *counter += 1;
                Ok(Response::Value(Value::Int(old)))
            }
            (Object::Swap { value }, Operation::Swap { value: v, .. }) => {
                let old = std::mem::replace(value, v.clone());
                Ok(Response::Value(old))
            }
            (Object::Cas { value }, Operation::Cas { expect, update, .. }) => {
                if value == expect {
                    *value = update.clone();
                    Ok(Response::Flag(true))
                } else {
                    Ok(Response::Flag(false))
                }
            }
            (obj, op) => Err(mismatch(obj, op)),
        }
    }

    /// Answers a read or scan without mutating the object: the response
    /// [`Object::apply`] gives for the same operation, errors included.
    /// A configuration answers non-mutating steps through this path, so
    /// forks can keep sharing one object vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadOperation`] if the operation does not
    /// match the object's type, or if it mutates (use
    /// [`Object::apply`]).
    pub fn read(&self, op: &Operation) -> Result<Response, ModelError> {
        match (self, op) {
            (Object::Register { value }, Operation::Read { .. })
            | (Object::Cas { value }, Operation::Read { .. })
            | (Object::Swap { value }, Operation::Read { .. }) => {
                Ok(Response::Value(value.clone()))
            }
            (Object::Snapshot { components }, Operation::Scan { .. })
            | (Object::MaxRegister { components }, Operation::Scan { .. }) => {
                Ok(Response::View(components.clone()))
            }
            (obj, op) if op.is_mutation() => Err(ModelError::BadOperation(format!(
                "operation {op:?} mutates object {obj:?} and cannot be read"
            ))),
            (obj, op) => Err(mismatch(obj, op)),
        }
    }
}

/// The error for an operation that does not fit the object's type.
fn mismatch(obj: &Object, op: &Operation) -> ModelError {
    ModelError::BadOperation(format!("operation {op:?} does not apply to object {obj:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid() -> ObjectId {
        ObjectId(0)
    }

    #[test]
    fn register_read_write() {
        let mut r = Object::register();
        assert_eq!(
            r.apply(&Operation::Read { obj: oid() }).unwrap(),
            Response::Value(Value::Nil)
        );
        r.apply(&Operation::Write { obj: oid(), value: Value::Int(7) })
            .unwrap();
        assert_eq!(
            r.apply(&Operation::Read { obj: oid() }).unwrap(),
            Response::Value(Value::Int(7))
        );
    }

    #[test]
    fn snapshot_update_scan() {
        let mut s = Object::snapshot(3);
        s.apply(&Operation::Update { obj: oid(), component: 1, value: Value::Int(5) })
            .unwrap();
        let resp = s.apply(&Operation::Scan { obj: oid() }).unwrap();
        assert_eq!(
            resp,
            Response::View(vec![Value::Nil, Value::Int(5), Value::Nil])
        );
    }

    #[test]
    fn snapshot_rejects_bad_component() {
        let mut s = Object::snapshot(2);
        let err = s
            .apply(&Operation::Update { obj: oid(), component: 5, value: Value::Nil })
            .unwrap_err();
        assert!(matches!(err, ModelError::BadOperation(_)));
    }

    #[test]
    fn max_register_keeps_maximum() {
        let mut m = Object::max_register(1);
        m.apply(&Operation::WriteMax { obj: oid(), component: 0, value: Value::Int(5) })
            .unwrap();
        m.apply(&Operation::WriteMax { obj: oid(), component: 0, value: Value::Int(3) })
            .unwrap();
        assert_eq!(
            m.apply(&Operation::Scan { obj: oid() }).unwrap(),
            Response::View(vec![Value::Int(5)])
        );
    }

    #[test]
    fn fetch_and_increment_counts() {
        let mut f = Object::FetchAndIncrement { counter: 0 };
        assert_eq!(
            f.apply(&Operation::FetchInc { obj: oid() }).unwrap(),
            Response::Value(Value::Int(0))
        );
        assert_eq!(
            f.apply(&Operation::FetchInc { obj: oid() }).unwrap(),
            Response::Value(Value::Int(1))
        );
    }

    #[test]
    fn swap_returns_old() {
        let mut s = Object::Swap { value: Value::Nil };
        assert_eq!(
            s.apply(&Operation::Swap { obj: oid(), value: Value::Int(1) })
                .unwrap(),
            Response::Value(Value::Nil)
        );
        assert_eq!(
            s.apply(&Operation::Swap { obj: oid(), value: Value::Int(2) })
                .unwrap(),
            Response::Value(Value::Int(1))
        );
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let mut c = Object::Cas { value: Value::Nil };
        assert_eq!(
            c.apply(&Operation::Cas {
                obj: oid(),
                expect: Value::Int(9),
                update: Value::Int(1)
            })
            .unwrap(),
            Response::Flag(false)
        );
        assert_eq!(
            c.apply(&Operation::Cas {
                obj: oid(),
                expect: Value::Nil,
                update: Value::Int(1)
            })
            .unwrap(),
            Response::Flag(true)
        );
        assert_eq!(
            c.apply(&Operation::Read { obj: oid() }).unwrap(),
            Response::Value(Value::Int(1))
        );
    }

    #[test]
    fn register_cost_counts_components() {
        assert_eq!(Object::register().register_cost(), 1);
        assert_eq!(Object::snapshot(5).register_cost(), 5);
        assert_eq!(Object::max_register(3).register_cost(), 3);
    }

    #[test]
    fn read_path_answers_exactly_what_apply_answers() {
        let objects = [
            Object::Register { value: Value::Int(3) },
            Object::Snapshot {
                components: vec![
                    Value::Int(1),
                    Value::triple(Value::Nil, Value::Int(2), Value::Bool(true)),
                ],
            },
            Object::MaxRegister { components: vec![Value::Int(4), Value::Nil] },
            Object::FetchAndIncrement { counter: 7 },
            Object::Swap { value: Value::Int(5) },
            Object::Cas { value: Value::Int(6) },
        ];
        for obj in &objects {
            for op in [Operation::Read { obj: oid() }, Operation::Scan { obj: oid() }] {
                let mut applied = obj.clone();
                let via_apply = applied.apply(&op);
                assert_eq!(obj.read(&op), via_apply, "{op:?} on {obj:?}");
                assert_eq!(&applied, obj, "{op:?} must not change {obj:?}");
            }
        }
    }

    #[test]
    fn read_path_refuses_mutations() {
        let r = Object::register();
        let err = r
            .read(&Operation::Write { obj: oid(), value: Value::Int(1) })
            .unwrap_err();
        assert!(matches!(err, ModelError::BadOperation(_)));
        assert_eq!(r, Object::register());
    }

    #[test]
    fn mismatched_operation_errors() {
        let mut r = Object::register();
        assert!(r.apply(&Operation::Scan { obj: oid() }).is_err());
        let mut s = Object::snapshot(1);
        assert!(s.apply(&Operation::Write { obj: oid(), value: Value::Nil }).is_err());
    }
}
