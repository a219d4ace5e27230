//! A shared trace ring: one underlying source, many lockstep consumers.
//!
//! The batched campaign engine steps K sibling configurations over the
//! *same* dynamic op stream. Mitigation makes their fetch rates diverge
//! (a frozen or fetch-gated sibling consumes nothing for a while), so the
//! siblings cannot share a single iterator — but re-generating the stream
//! K times wastes the trace generator's work. [`SharedTraceRing`] solves
//! this by generating each op **exactly once** into a window buffer that
//! every [`TraceCursor`] reads at its own pace; the buffer holds only the
//! span between the fastest and the slowest cursor and is trimmed as the
//! slowest catches up.
//!
//! A group of cursors can also leave the ring's thread: [`Detach`] packs
//! their unread ops and a clone of the source into a [`DetachedTrace`],
//! and the receiving thread rebuilds a ring of its own from it.

use crate::{Detach, MicroOp, TraceSource};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Once the window grows past this many buffered ops, serving an op also
/// attempts a trim back to the slowest cursor. Trims are cheap (a scan of
/// the registered cursor positions plus pop_fronts), so the threshold only
/// exists to keep the common tight-lockstep case scan-free.
const TRIM_THRESHOLD: usize = 4096;

/// The shared window between one generator and its cursors.
///
/// Created through [`TraceCursor::new`]; further cursors are made by
/// cloning a cursor, which shares the ring and starts at the clone
/// source's position — exactly what a batch fork needs.
#[derive(Debug)]
pub struct SharedTraceRing<S> {
    source: S,
    /// The buffered window; `buf[0]` is global op index `base`.
    buf: VecDeque<MicroOp>,
    /// Global stream index of the front of `buf`: ops before it have been
    /// consumed by every cursor and trimmed.
    base: u64,
    /// Every live cursor's position, registered so trimming can find the
    /// slowest consumer without the cursors knowing about each other.
    cursors: Vec<Rc<Cell<u64>>>,
}

impl<S: TraceSource> SharedTraceRing<S> {
    /// The op at global index `pos`, generating forward as needed.
    /// `None` once the underlying source drains before reaching `pos`.
    fn op_at(&mut self, pos: u64) -> Option<MicroOp> {
        debug_assert!(pos >= self.base, "cursor fell behind the trim point");
        while self.base + self.buf.len() as u64 <= pos {
            self.buf.push_back(self.source.next_op()?);
        }
        let op = self.buf[(pos - self.base) as usize];
        if self.buf.len() >= TRIM_THRESHOLD {
            self.trim();
        }
        Some(op)
    }

    /// Drops every op all cursors have passed.
    fn trim(&mut self) {
        let min = self.cursors.iter().map(|c| c.get()).min().unwrap_or(self.base);
        while self.base < min && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base += 1;
        }
    }
}

/// One consumer of a [`SharedTraceRing`]; implements [`TraceSource`] so a
/// simulator drives it exactly like a private generator.
///
/// Cloning a cursor registers a new consumer at the same position over the
/// same ring — the clone and the original then advance independently
/// while every op is still generated only once.
///
/// # Examples
///
/// ```
/// use powerbalance_isa::{MicroOp, OpClass, SliceTrace, TraceCursor, TraceSource};
///
/// let ops: Vec<MicroOp> = (0..4).map(|i| MicroOp::new(OpClass::IntAlu).with_pc(i * 4)).collect();
/// let mut a = TraceCursor::new(SliceTrace::new(ops));
/// let mut b = a.clone();
/// assert_eq!(a.next_op().unwrap().pc(), 0);
/// assert_eq!(a.next_op().unwrap().pc(), 4);
/// // `b` lags behind and still sees every op, generated once.
/// assert_eq!(b.next_op().unwrap().pc(), 0);
/// ```
#[derive(Debug)]
pub struct TraceCursor<S> {
    ring: Rc<RefCell<SharedTraceRing<S>>>,
    pos: Rc<Cell<u64>>,
}

impl<S: TraceSource> TraceCursor<S> {
    /// Wraps `source` in a fresh ring with this cursor as its only
    /// consumer, positioned at the source's current op.
    pub fn new(source: S) -> Self {
        let pos = Rc::new(Cell::new(0));
        let ring = SharedTraceRing {
            source,
            buf: VecDeque::new(),
            base: 0,
            cursors: vec![Rc::clone(&pos)],
        };
        TraceCursor { ring: Rc::new(RefCell::new(ring)), pos }
    }

    /// Ops this cursor has consumed since the ring was created.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos.get()
    }

    /// Ops currently buffered in the shared window — the distance between
    /// the fastest consumer and the trim point.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.ring.borrow().buf.len()
    }

    /// Number of cursors sharing the ring (including this one).
    #[must_use]
    pub fn consumers(&self) -> usize {
        self.ring.borrow().cursors.len()
    }
}

impl<S: TraceSource> TraceSource for TraceCursor<S> {
    fn next_op(&mut self) -> Option<MicroOp> {
        let pos = self.pos.get();
        let op = self.ring.borrow_mut().op_at(pos)?;
        self.pos.set(pos + 1);
        Some(op)
    }
}

impl<S> Clone for TraceCursor<S> {
    fn clone(&self) -> Self {
        let pos = Rc::new(Cell::new(self.pos.get()));
        self.ring.borrow_mut().cursors.push(Rc::clone(&pos));
        TraceCursor { ring: Rc::clone(&self.ring), pos }
    }
}

/// The unread rest of a group of cursors over one ring, packed to move to
/// another thread: the ops already generated from the slowest cursor on, a
/// clone of the source positioned just past them, and every cursor's
/// position.
#[derive(Debug)]
pub struct DetachedTrace<S> {
    /// Global stream index of `pending[0]`.
    base: u64,
    pending: VecDeque<MicroOp>,
    source: S,
    positions: Vec<u64>,
}

impl<S: TraceSource + Clone + Send> Detach for TraceCursor<S> {
    type Detached = DetachedTrace<S>;

    fn position(&self) -> u64 {
        self.pos.get()
    }

    /// Copies the window from the slowest of `cursors` on, so detaching
    /// the cursors furthest ahead copies the least. The cursors are
    /// dropped afterwards, and the ring they leave trims past them.
    ///
    /// # Panics
    ///
    /// Panics if `cursors` is empty or spans more than one ring.
    fn detach(cursors: Vec<Self>) -> DetachedTrace<S> {
        let positions: Vec<u64> = cursors.iter().map(Detach::position).collect();
        let base = *positions.iter().min().expect("detach at least one cursor");
        let ring = cursors[0].ring.borrow();
        assert!(
            cursors.iter().all(|c| Rc::ptr_eq(&c.ring, &cursors[0].ring)),
            "detached cursors must share one ring"
        );
        let pending = ring.buf.range((base - ring.base) as usize..).copied().collect();
        // `ring` is released before `cursors` drop (locals drop before
        // parameters), so each cursor can deregister from the ring.
        DetachedTrace { base, pending, source: ring.source.clone(), positions }
    }

    fn attach(detached: DetachedTrace<S>) -> Vec<Self> {
        let DetachedTrace { base, pending, source, positions } = detached;
        let cursors: Vec<Rc<Cell<u64>>> =
            positions.into_iter().map(|p| Rc::new(Cell::new(p))).collect();
        let ring = SharedTraceRing { source, buf: pending, base, cursors: cursors.clone() };
        let ring = Rc::new(RefCell::new(ring));
        cursors.into_iter().map(|pos| TraceCursor { ring: Rc::clone(&ring), pos }).collect()
    }
}

impl<S> Drop for TraceCursor<S> {
    fn drop(&mut self) {
        // Deregister so a departed (fast) cursor no longer pins the
        // window. `try_borrow_mut` guards the pathological drop-inside-
        // borrow case; leaking one position entry is harmless.
        if let Ok(mut ring) = self.ring.try_borrow_mut() {
            let pos = &self.pos;
            ring.cursors.retain(|c| !Rc::ptr_eq(c, pos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpClass, SliceTrace};

    fn ops(n: u64) -> Vec<MicroOp> {
        (0..n).map(|i| MicroOp::new(OpClass::IntAlu).with_pc(i * 4)).collect()
    }

    #[test]
    fn cursors_see_the_same_stream_independently() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(100)));
        let mut b = a.clone();
        let got_a: Vec<u64> = (0..100).map(|_| a.next_op().unwrap().pc()).collect();
        let got_b: Vec<u64> = (0..100).map(|_| b.next_op().unwrap().pc()).collect();
        assert_eq!(got_a, got_b);
        assert_eq!(a.next_op(), None);
        assert_eq!(b.next_op(), None);
    }

    #[test]
    fn interleaved_consumption_preserves_order() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(50)));
        let mut b = a.clone();
        // a sprints ahead, b trails; then b sprints past a.
        for i in 0..30 {
            assert_eq!(a.next_op().unwrap().pc(), i * 4);
        }
        for i in 0..40 {
            assert_eq!(b.next_op().unwrap().pc(), i * 4);
        }
        for i in 30..50 {
            assert_eq!(a.next_op().unwrap().pc(), i * 4);
        }
        assert_eq!(a.next_op(), None);
    }

    #[test]
    fn fork_mid_stream_starts_at_the_fork_point() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(10)));
        for _ in 0..4 {
            a.next_op();
        }
        let mut forked = a.clone();
        assert_eq!(forked.position(), 4);
        assert_eq!(forked.next_op().unwrap().pc(), 16);
        assert_eq!(a.next_op().unwrap().pc(), 16, "fork does not advance the parent");
    }

    #[test]
    fn window_trims_to_the_slowest_cursor() {
        let total = (TRIM_THRESHOLD as u64) * 3;
        let mut fast = TraceCursor::new(SliceTrace::new(ops(total)));
        let slow = fast.clone();
        for _ in 0..total {
            fast.next_op().unwrap();
        }
        // The window is pinned by `slow` at position 0.
        assert!(fast.window_len() >= TRIM_THRESHOLD, "slow cursor pins the window");
        drop(slow);
        // With the laggard gone the next serve trims the backlog.
        let mut tail = TraceCursor::new(SliceTrace::new(ops(2)));
        let _ = tail.next_op();
        assert_eq!(fast.next_op(), None);
        assert!(fast.window_len() < TRIM_THRESHOLD || fast.consumers() == 1);
    }

    #[test]
    fn single_cursor_window_stays_bounded() {
        let total = (TRIM_THRESHOLD as u64) * 4;
        let mut only = TraceCursor::new(SliceTrace::new(ops(total)));
        for _ in 0..total {
            only.next_op().unwrap();
        }
        assert!(
            only.window_len() <= TRIM_THRESHOLD,
            "lone cursor must not accumulate history: {}",
            only.window_len()
        );
    }

    fn pcs(trace: &mut impl TraceSource) -> Vec<u64> {
        std::iter::from_fn(|| trace.next_op()).map(|op| op.pc()).collect()
    }

    #[test]
    fn detached_cursors_read_what_they_would_have_read() {
        let total = 200;
        let mut lead = TraceCursor::new(SliceTrace::new(ops(total)));
        let mut lag = lead.clone();
        let mut middle = lead.clone();
        for _ in 0..120 {
            lead.next_op().unwrap();
        }
        for _ in 0..30 {
            lag.next_op().unwrap();
        }
        for _ in 0..70 {
            middle.next_op().unwrap();
        }
        // A lagging sibling stays behind, so the window starts before the
        // detached cursors and only their part of it is copied.
        let detached = TraceCursor::detach(vec![lead.clone(), middle.clone()]);
        assert_eq!(detached.base, 70, "copy starts at the slowest detached cursor");
        let moved = std::thread::spawn(move || {
            TraceCursor::attach(detached).iter_mut().map(pcs).collect::<Vec<_>>()
        })
        .join()
        .expect("reader thread");
        assert_eq!(moved, vec![pcs(&mut lead), pcs(&mut middle)]);
        assert_eq!(moved[1], (70..total).map(|i| i * 4).collect::<Vec<_>>());
        assert_eq!(pcs(&mut lag), (30..total).map(|i| i * 4).collect::<Vec<_>>());
    }

    #[test]
    fn attached_cursors_share_one_ring_and_keep_their_positions() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(40)));
        let mut b = a.clone();
        a.skip_ops(10);
        b.skip_ops(25);
        let moved = TraceCursor::attach(TraceCursor::detach(vec![a, b]));
        assert_eq!(moved.iter().map(Detach::position).collect::<Vec<_>>(), vec![10, 25]);
        assert_eq!(moved[0].consumers(), 2);
        assert_eq!(moved[0].window_len(), 15, "only the unread window travels");
    }

    #[test]
    fn the_ring_still_trims_after_its_laggard_is_donated() {
        let total = (TRIM_THRESHOLD as u64) * 3;
        let mut keep = TraceCursor::new(SliceTrace::new(ops(total + 1)));
        let give = keep.clone();
        for _ in 0..total {
            keep.next_op().unwrap();
        }
        assert!(keep.window_len() >= TRIM_THRESHOLD, "the laggard pins the window");
        let detached = TraceCursor::detach(vec![give]);
        assert_eq!(keep.consumers(), 1, "the donated cursor left the ring");
        keep.next_op().unwrap();
        assert!(keep.window_len() < TRIM_THRESHOLD, "window {} not trimmed", keep.window_len());
        let mut moved = TraceCursor::attach(detached);
        assert_eq!(pcs(&mut moved[0]), (0..=total).map(|i| i * 4).collect::<Vec<_>>());
    }

    #[test]
    fn default_skip_ops_draws_through_the_ring() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(20)));
        let mut b = a.clone();
        a.skip_ops(5);
        assert_eq!(a.next_op().unwrap().pc(), 20);
        assert_eq!(b.next_op().unwrap().pc(), 0, "skip on one cursor leaves siblings alone");
    }
}
