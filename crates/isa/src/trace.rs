//! Trace-source abstraction feeding the pipeline front end.

use crate::MicroOp;

/// A source of dynamic micro-ops in program order.
///
/// The pipeline is trace-driven: fetch pulls correct-path micro-ops from a
/// `TraceSource` and the branch predictor is checked against the recorded
/// outcomes. Sources may be infinite (synthetic generators) or finite
/// (recorded slices); fetch treats `None` as the end of the program.
///
/// Implementors should be cheap per call — `next_op` sits on the
/// simulator's hot path.
///
/// # Examples
///
/// ```
/// use powerbalance_isa::{MicroOp, OpClass, SliceTrace, TraceSource};
///
/// let ops = vec![MicroOp::new(OpClass::IntAlu), MicroOp::new(OpClass::Load)];
/// let mut trace = SliceTrace::new(ops);
/// assert_eq!(trace.next_op().map(|op| op.class()), Some(OpClass::IntAlu));
/// assert_eq!(trace.next_op().map(|op| op.class()), Some(OpClass::Load));
/// assert_eq!(trace.next_op(), None);
/// ```
pub trait TraceSource {
    /// Produces the next correct-path micro-op, or `None` at end of program.
    fn next_op(&mut self) -> Option<MicroOp>;

    /// Advances the source past `n` micro-ops without simulating them.
    ///
    /// Interval-mode simulation skips stretches of execution and must move
    /// the workload forward too, or every detailed sample would observe the
    /// same early phase of the program. The default implementation draws
    /// and discards `n` ops (exact, works for any source); generators with
    /// cheap position state may override with an O(1) jump that preserves
    /// phase alignment without synthesizing the skipped ops.
    fn skip_ops(&mut self, n: u64) {
        for _ in 0..n {
            if self.next_op().is_none() {
                break;
            }
        }
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_op(&mut self) -> Option<MicroOp> {
        (**self).next_op()
    }

    fn skip_ops(&mut self, n: u64) {
        (**self).skip_ops(n);
    }
}

/// A trace that can move to another thread part way through its stream.
///
/// A lockstep batch may hand some of its classes to another worker; their
/// traces go along. [`detach`](Detach::detach) packs several consumers of
/// one stream into a single `Send` value, and [`attach`](Detach::attach)
/// rebuilds them, in order and of the same type, on the receiving thread.
/// Each rebuilt trace yields exactly the ops its original would have.
pub trait Detach: TraceSource + Sized {
    /// The packed, movable form.
    type Detached: Send;

    /// How far into its stream this trace has read, in ops.
    fn position(&self) -> u64;

    /// Packs `traces`, consumers of one stream, for another thread.
    fn detach(traces: Vec<Self>) -> Self::Detached;

    /// Rebuilds the packed traces in their original order.
    fn attach(detached: Self::Detached) -> Vec<Self>;
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_op(&mut self) -> Option<MicroOp> {
        (**self).next_op()
    }

    fn skip_ops(&mut self, n: u64) {
        (**self).skip_ops(n);
    }
}

/// A finite trace backed by an in-memory vector of micro-ops.
///
/// Useful in unit tests and for replaying recorded slices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceTrace {
    ops: Vec<MicroOp>,
    next: usize,
}

impl SliceTrace {
    /// Creates a trace that yields `ops` in order, once.
    #[must_use]
    pub fn new(ops: Vec<MicroOp>) -> Self {
        SliceTrace { ops, next: 0 }
    }

    /// Number of micro-ops not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.ops.len() - self.next
    }
}

impl TraceSource for SliceTrace {
    fn next_op(&mut self) -> Option<MicroOp> {
        let op = self.ops.get(self.next).copied()?;
        self.next += 1;
        Some(op)
    }
}

impl FromIterator<MicroOp> for SliceTrace {
    fn from_iter<I: IntoIterator<Item = MicroOp>>(iter: I) -> Self {
        SliceTrace::new(iter.into_iter().collect())
    }
}

impl Extend<MicroOp> for SliceTrace {
    fn extend<I: IntoIterator<Item = MicroOp>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpClass;

    #[test]
    fn slice_trace_yields_in_order_then_none() {
        let mut t: SliceTrace =
            (0..5).map(|i| MicroOp::new(OpClass::IntAlu).with_pc(i * 4)).collect();
        for i in 0..5 {
            assert_eq!(t.remaining(), 5 - i as usize);
            assert_eq!(t.next_op().unwrap().pc(), i * 4);
        }
        assert_eq!(t.next_op(), None);
        assert_eq!(t.next_op(), None, "stays exhausted");
    }

    #[test]
    fn trait_object_and_mut_ref_forwarding() {
        let mut t = SliceTrace::new(vec![MicroOp::new(OpClass::Store)]);
        fn pull(src: &mut dyn TraceSource) -> Option<MicroOp> {
            src.next_op()
        }
        assert!(pull(&mut t).is_some());
        assert!(pull(&mut t).is_none());

        let mut boxed: Box<dyn TraceSource> =
            Box::new(SliceTrace::new(vec![MicroOp::new(OpClass::FpAdd)]));
        assert_eq!(boxed.next_op().map(|op| op.class()), Some(OpClass::FpAdd));
    }

    #[test]
    fn extend_appends() {
        let mut t = SliceTrace::default();
        t.extend(vec![MicroOp::new(OpClass::IntAlu)]);
        assert_eq!(t.remaining(), 1);
    }
}
