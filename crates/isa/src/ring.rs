//! A shared trace ring: one underlying source, many lockstep consumers.
//!
//! The batched campaign engine steps K sibling configurations over the
//! *same* dynamic op stream. Mitigation makes their fetch rates diverge
//! (a frozen or fetch-gated sibling consumes nothing for a while), so the
//! siblings cannot share a single iterator — but re-generating the stream
//! K times wastes the trace generator's work. [`SharedTraceRing`] solves
//! this by generating each op **exactly once** into a window that every
//! [`TraceCursor`] reads at its own pace.
//!
//! The window is a run of fixed-size chunks of [`CHUNK`] ops, each op
//! packed into 24 bytes. Only the last chunk, the *tail*, is still being
//! filled; a full chunk never changes again and is shared through an
//! [`Arc`]. Each cursor pins the chunk of the last op it read with a
//! reference count, so the ring drops (and recycles) front chunks that no
//! cursor pins without scanning the cursors, and holds about the span from
//! the slowest cursor to the generation frontier plus one chunk.
//!
//! A group of cursors can also leave the ring's thread: [`Detach`] hands
//! their full chunks over as they are, with a copy of the tail and a clone
//! of the source, and the receiving thread rebuilds a ring of its own.

use crate::{ArchReg, BranchInfo, Detach, MemRef, MicroOp, OpClass, TraceSource};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Ops per chunk: 24 KiB of packed ops.
const CHUNK: usize = 1024;
const CHUNK_OPS: u64 = CHUNK as u64;

/// The register byte of an absent operand.
const NO_REG: u8 = u8::MAX;
/// Flag: `word` is the memory address.
const MEM: u8 = 1;
/// Flag: `word` is the branch target.
const BRANCH: u8 = 1 << 1;
/// Flag: the branch is taken.
const TAKEN: u8 = 1 << 2;
/// Flag: the op did not pack; `word` indexes its chunk's side table.
const SIDE: u8 = 1 << 3;

/// A [`MicroOp`] in 24 bytes instead of 48: the pc, one payload word, the
/// class, three register bytes and a flag byte. Lossless for every op that
/// carries at most one of a memory reference and a branch and no register
/// whose byte is [`NO_REG`]; any other op is kept whole in a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedOp {
    pc: u64,
    /// The memory address or the branch target (a side-table index under
    /// [`SIDE`]).
    word: u64,
    class: OpClass,
    /// Destination, first and second source; [`NO_REG`] when absent.
    regs: [u8; 3],
    flags: u8,
}

impl PackedOp {
    /// `op` packed, or `None` if it does not fit.
    fn pack(op: &MicroOp) -> Option<PackedOp> {
        // A register's flat index is its whole byte.
        let reg = |r: Option<ArchReg>| match r.map(|r| r.flat_index() as u8) {
            None => Some(NO_REG),
            Some(NO_REG) => None,
            raw => raw,
        };
        let regs = [reg(op.dest())?, reg(op.src1())?, reg(op.src2())?];
        let (word, flags) = match (op.mem(), op.branch()) {
            (None, None) => (0, 0),
            (Some(mem), None) => (mem.addr, MEM),
            (None, Some(b)) => (b.target, if b.taken { BRANCH | TAKEN } else { BRANCH }),
            (Some(_), Some(_)) => return None,
        };
        Some(PackedOp { pc: op.pc(), word, class: op.class(), regs, flags })
    }

    fn unpack(self, side: &[MicroOp]) -> MicroOp {
        if self.flags & SIDE != 0 {
            return side[self.word as usize];
        }
        let mut op = MicroOp::new(self.class).with_pc(self.pc);
        let [dest, src1, src2] = self.regs;
        if dest != NO_REG {
            op = op.with_dest(ArchReg::from_raw(dest));
        }
        if src1 != NO_REG {
            op = op.with_src1(ArchReg::from_raw(src1));
        }
        if src2 != NO_REG {
            op = op.with_src2(ArchReg::from_raw(src2));
        }
        if self.flags & MEM != 0 {
            op = op.with_mem(MemRef::new(self.word));
        } else if self.flags & BRANCH != 0 {
            op = op.with_branch(BranchInfo::new(self.flags & TAKEN != 0, self.word));
        }
        op
    }
}

/// Up to [`CHUNK`] consecutive ops of the stream.
#[derive(Debug)]
struct Chunk {
    ops: Vec<PackedOp>,
    /// The ops that did not pack, whole.
    side: Vec<MicroOp>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk { ops: Vec::with_capacity(CHUNK), side: Vec::new() }
    }

    fn push(&mut self, op: MicroOp) {
        let packed = PackedOp::pack(&op).unwrap_or_else(|| {
            self.side.push(op);
            let word = (self.side.len() - 1) as u64;
            PackedOp { pc: 0, word, class: op.class(), regs: [NO_REG; 3], flags: SIDE }
        });
        self.ops.push(packed);
    }

    fn get(&self, at: usize) -> MicroOp {
        self.ops[at].unpack(&self.side)
    }

    /// A copy with room to fill up to a whole chunk.
    fn copy(&self) -> Chunk {
        let mut copy = Chunk::new();
        copy.ops.extend_from_slice(&self.ops);
        copy.side.clone_from(&self.side);
        copy
    }

    fn clear(&mut self) {
        self.ops.clear();
        self.side.clear();
    }
}

/// A full chunk of the window and the pin its readers hold.
#[derive(Debug)]
struct Slot {
    ops: Arc<Chunk>,
    /// One count for the ring plus one per cursor holding the chunk.
    pin: Rc<()>,
}

/// The shared window between one generator and its cursors.
///
/// Created through [`TraceCursor::new`]; further cursors are made by
/// cloning a cursor, which shares the ring and starts at the clone
/// source's position — exactly what a batch fork needs.
#[derive(Debug)]
pub struct SharedTraceRing<S> {
    source: S,
    /// The full chunks, oldest first: `full[i]` is chunk `first + i`.
    full: VecDeque<Slot>,
    /// Stream index of the first held chunk, in chunks.
    first: u64,
    /// The chunk being filled, `first + full.len()`; it ends at `end`.
    tail: Chunk,
    tail_pin: Rc<()>,
    /// Ops generated so far, the generation frontier.
    end: u64,
    /// A dropped chunk kept for the next tail, if no other ring shares it.
    spare_ops: Option<Arc<Chunk>>,
    /// A dropped chunk's pin, kept for the next tail.
    spare_pin: Option<Rc<()>>,
}

impl<S> SharedTraceRing<S> {
    fn new(source: S, first: u64, full: VecDeque<Slot>, tail: Chunk, end: u64) -> Self {
        SharedTraceRing {
            source,
            full,
            first,
            tail,
            tail_pin: Rc::default(),
            end,
            spare_ops: None,
            spare_pin: None,
        }
    }

    /// A cursor's hold on chunk `index`, which the window must contain.
    fn hold(&self, index: u64) -> Held {
        match self.full.get((index - self.first) as usize) {
            Some(slot) => {
                Held { index, _pin: Rc::clone(&slot.pin), ops: Some(Arc::clone(&slot.ops)) }
            }
            None => Held { index, _pin: Rc::clone(&self.tail_pin), ops: None },
        }
    }

    /// The op at stream index `pos`, which the window must contain.
    fn get(&self, pos: u64) -> MicroOp {
        let at = (pos % CHUNK_OPS) as usize;
        match self.full.get((pos / CHUNK_OPS - self.first) as usize) {
            Some(slot) => slot.ops.get(at),
            None => self.tail.get(at),
        }
    }

    /// Moves the full tail into the window and starts an empty one,
    /// reusing the spare chunk when there is one.
    fn seal(&mut self) {
        let mut ops = self.spare_ops.take().unwrap_or_else(|| Arc::new(Chunk::new()));
        let fresh = Arc::get_mut(&mut ops).expect("a spare chunk is unshared");
        std::mem::swap(fresh, &mut self.tail);
        self.tail.clear();
        let pin = std::mem::replace(&mut self.tail_pin, self.spare_pin.take().unwrap_or_default());
        self.full.push_back(Slot { ops, pin });
    }

    /// Drops the full chunks at the front that no cursor pins: every
    /// cursor has read past them.
    fn trim(&mut self) {
        while self.full.front().is_some_and(|slot| Rc::strong_count(&slot.pin) == 1) {
            let Slot { mut ops, pin } = self.full.pop_front().expect("a front chunk");
            self.first += 1;
            if Arc::get_mut(&mut ops).is_some() {
                self.spare_ops = Some(ops);
            }
            self.spare_pin = Some(pin);
        }
    }
}

impl<S: TraceSource> SharedTraceRing<S> {
    /// The op at `pos` for a cursor holding `held`, generated if no cursor
    /// has reached it yet; `held` moves on to that op's chunk. `None` once
    /// the source drains before `pos`.
    fn serve(&mut self, pos: u64, held: &mut Held) -> Option<MicroOp> {
        let op = if pos == self.end {
            let op = self.source.next_op()?;
            self.tail.push(op);
            self.end += 1;
            if self.tail.ops.len() == CHUNK {
                self.seal();
            }
            op
        } else {
            self.get(pos)
        };
        let index = pos / CHUNK_OPS;
        let sealed = index < self.first + self.full.len() as u64;
        if index != held.index || (held.ops.is_none() && sealed) {
            // The old pin is released before the trim.
            *held = self.hold(index);
            self.trim();
        }
        Some(op)
    }
}

/// A cursor's pin on the chunk of the last op it read (its first chunk
/// before it reads), and that chunk's ops once it is full.
#[derive(Debug, Clone)]
struct Held {
    index: u64,
    /// Held only for the count it adds.
    _pin: Rc<()>,
    ops: Option<Arc<Chunk>>,
}

/// A cursor's share of its ring.
#[derive(Debug)]
struct Handle<S>(Rc<RefCell<SharedTraceRing<S>>>);

impl<S> Drop for Handle<S> {
    /// The cursor's pin is a field dropped before this handle, so leaving
    /// the ring never depends on borrowing it. The trim here only returns
    /// the memory early; a ring borrowed right now trims at its next chunk
    /// change instead.
    fn drop(&mut self) {
        if let Ok(mut ring) = self.0.try_borrow_mut() {
            ring.trim();
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
    // Field order is drop order: the pin goes before the handle trims.
    held: Held,
    pos: u64,
    ring: Handle<S>,
}

impl<S: TraceSource> TraceCursor<S> {
    /// Wraps `source` in a fresh ring with this cursor as its only
    /// consumer, positioned at the source's current op.
    pub fn new(source: S) -> Self {
        let ring = SharedTraceRing::new(source, 0, VecDeque::new(), Chunk::new(), 0);
        TraceCursor { held: ring.hold(0), pos: 0, ring: Handle(Rc::new(RefCell::new(ring))) }
    }

    /// Ops this cursor has consumed since the ring was created.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Ops currently held in the shared window: from the start of the
    /// slowest cursor's chunk to the generation frontier.
    #[must_use]
    pub fn window_len(&self) -> usize {
        let ring = self.ring.0.borrow();
        (ring.end - ring.first * CHUNK_OPS) as usize
    }

    /// Number of cursors sharing the ring (including this one).
    #[must_use]
    pub fn consumers(&self) -> usize {
        Rc::strong_count(&self.ring.0)
    }
}

impl<S: TraceSource> TraceSource for TraceCursor<S> {
    fn next_op(&mut self) -> Option<MicroOp> {
        let pos = self.pos;
        let op = match &self.held.ops {
            Some(ops) if pos / CHUNK_OPS == self.held.index => ops.get((pos % CHUNK_OPS) as usize),
            _ => self.ring.0.borrow_mut().serve(pos, &mut self.held)?,
        };
        self.pos = pos + 1;
        Some(op)
    }
}

impl<S> Clone for TraceCursor<S> {
    fn clone(&self) -> Self {
        TraceCursor {
            held: self.held.clone(),
            pos: self.pos,
            ring: Handle(Rc::clone(&self.ring.0)),
        }
    }
}

/// The unread rest of a group of cursors over one ring, packed to move to
/// another thread: the full chunks from the slowest cursor's on (shared,
/// not copied), a copy of the tail, a clone of the source positioned just
/// past them, and every cursor's position.
#[derive(Debug)]
pub struct DetachedTrace<S> {
    /// Index of `full[0]`, in chunks.
    first: u64,
    full: Vec<Arc<Chunk>>,
    tail: Chunk,
    end: u64,
    source: S,
    positions: Vec<u64>,
}

impl<S: TraceSource + Clone + Send> Detach for TraceCursor<S> {
    type Detached = DetachedTrace<S>;

    fn position(&self) -> u64 {
        self.pos
    }

    /// Shares the window's full chunks from the slowest of `cursors` on
    /// and copies its tail, at most one chunk. The cursors are dropped
    /// afterwards, and the ring they leave trims past them.
    ///
    /// # Panics
    ///
    /// Panics if `cursors` is empty or spans more than one ring.
    fn detach(cursors: Vec<Self>) -> DetachedTrace<S> {
        let positions: Vec<u64> = cursors.iter().map(Detach::position).collect();
        let first = positions.iter().min().expect("detach at least one cursor") / CHUNK_OPS;
        let ring = cursors[0].ring.0.borrow();
        assert!(
            cursors.iter().all(|c| Rc::ptr_eq(&c.ring.0, &cursors[0].ring.0)),
            "detached cursors must share one ring"
        );
        let skip = (first - ring.first) as usize;
        let full = ring.full.iter().skip(skip).map(|slot| Arc::clone(&slot.ops)).collect();
        let (tail, end, source) = (ring.tail.copy(), ring.end, ring.source.clone());
        // `ring` is released before `cursors` drop (locals drop before
        // parameters), so the donor's ring trims as they go.
        DetachedTrace { first, full, tail, end, source, positions }
    }

    fn attach(detached: DetachedTrace<S>) -> Vec<Self> {
        let DetachedTrace { first, full, tail, end, source, positions } = detached;
        let full = full.into_iter().map(|ops| Slot { ops, pin: Rc::default() }).collect();
        let ring = SharedTraceRing::new(source, first, full, tail, end);
        let held: Vec<Held> = positions.iter().map(|&pos| ring.hold(pos / CHUNK_OPS)).collect();
        let ring = Rc::new(RefCell::new(ring));
        // The ring's own pins on chunks before every cursor go now.
        ring.borrow_mut().trim();
        positions
            .into_iter()
            .zip(held)
            .map(|(pos, held)| TraceCursor { held, pos, ring: Handle(Rc::clone(&ring)) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SliceTrace, TOTAL_ARCH_REGS};

    fn ops(n: usize) -> Vec<MicroOp> {
        (0..n as u64).map(|i| MicroOp::new(OpClass::IntAlu).with_pc(i * 4)).collect()
    }

    fn pcs(trace: &mut impl TraceSource) -> Vec<u64> {
        std::iter::from_fn(|| trace.next_op()).map(|op| op.pc()).collect()
    }

    fn read(cursor: &mut impl TraceSource, n: usize) {
        for _ in 0..n {
            cursor.next_op().expect("the stream is long enough");
        }
    }

    #[test]
    fn packed_ops_are_24_bytes() {
        assert_eq!(std::mem::size_of::<PackedOp>(), 24);
    }

    #[test]
    fn packing_round_trips_every_field() {
        // Every register byte but the sentinel, valid names or not: a
        // deserialized `ArchReg` may hold any byte.
        let all = (0..NO_REG).map(ArchReg::from_raw);
        let mut cases: Vec<MicroOp> = all
            .clone()
            .zip(all.clone().rev())
            .zip(all.cycle().skip(7))
            .map(|((d, s1), s2)| {
                MicroOp::new(OpClass::IntMul).with_dest(d).with_src1(s1).with_src2(s2)
            })
            .collect();
        let max = MicroOp::new(OpClass::Store).with_pc(u64::MAX);
        cases.extend([
            max,
            max.with_mem(MemRef::new(u64::MAX)),
            max.with_branch(BranchInfo::new(true, u64::MAX)),
            max.with_branch(BranchInfo::new(false, u64::MAX)),
            MicroOp::new(OpClass::FpDiv).with_src2(ArchReg::fp(31)),
        ]);
        for op in &cases {
            assert!(PackedOp::pack(op).is_some(), "{op} packs");
        }
        // The ops that do not pack go whole into the side table.
        let both = max.with_mem(MemRef::new(8)).with_branch(BranchInfo::new(true, 16));
        let sentinel = MicroOp::new(OpClass::Load).with_dest(ArchReg::from_raw(NO_REG));
        let unpackable = [both, sentinel, sentinel.with_src1(ArchReg::int(3))];
        for op in &unpackable {
            assert!(PackedOp::pack(op).is_none(), "{op:?} does not pack");
        }
        cases.extend(unpackable);
        let mut chunk = Chunk::new();
        for &op in &cases {
            chunk.push(op);
        }
        assert_eq!(chunk.side.len(), unpackable.len());
        let back: Vec<MicroOp> = (0..cases.len()).map(|i| chunk.get(i)).collect();
        assert_eq!(back, cases);
    }

    #[test]
    fn cursors_see_the_same_stream_independently() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(3 * CHUNK)));
        let mut b = a.clone();
        let got_a = pcs(&mut a);
        assert_eq!(got_a, pcs(&mut b));
        assert_eq!(got_a.len(), 3 * CHUNK);
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
        let mut a = TraceCursor::new(SliceTrace::new(ops(2 * CHUNK)));
        read(&mut a, CHUNK + 4);
        let mut forked = a.clone();
        assert_eq!(forked.position(), CHUNK as u64 + 4);
        assert_eq!(forked.next_op().unwrap().pc(), (CHUNK as u64 + 4) * 4);
        assert_eq!(a.next_op().unwrap().pc(), (CHUNK as u64 + 4) * 4, "fork does not advance");
    }

    #[test]
    fn window_trims_to_the_slowest_cursor() {
        let total = 3 * CHUNK;
        let mut fast = TraceCursor::new(SliceTrace::new(ops(total)));
        let slow = fast.clone();
        read(&mut fast, total);
        // The window is pinned by `slow` at position 0.
        assert_eq!(fast.window_len(), total, "slow cursor pins the window");
        drop(slow);
        assert_eq!(fast.consumers(), 1);
        assert!(fast.window_len() <= CHUNK, "window {} not trimmed", fast.window_len());
        assert_eq!(fast.next_op(), None);
    }

    #[test]
    fn single_cursor_window_stays_bounded() {
        let total = 4 * CHUNK;
        let mut only = TraceCursor::new(SliceTrace::new(ops(total)));
        for _ in 0..total {
            only.next_op().unwrap();
            assert!(
                only.window_len() <= CHUNK,
                "lone cursor must not accumulate history: {}",
                only.window_len()
            );
        }
    }

    #[test]
    fn a_cursor_dropped_while_its_ring_is_borrowed_still_leaves_it() {
        let total = 4 * CHUNK;
        let mut lead = TraceCursor::new(SliceTrace::new(ops(total)));
        let lag = lead.clone();
        {
            let _busy = lead.ring.0.borrow();
            drop(lag);
        }
        assert_eq!(lead.consumers(), 1);
        for _ in 0..total {
            lead.next_op().unwrap();
            assert!(lead.window_len() <= CHUNK, "the dropped cursor pins {}", lead.window_len());
        }
    }

    #[test]
    fn detached_cursors_read_what_they_would_have_read() {
        let total = 6 * CHUNK;
        let mut lead = TraceCursor::new(SliceTrace::new(ops(total)));
        let mut lag = lead.clone();
        let mut middle = lead.clone();
        read(&mut lead, 4 * CHUNK + 10);
        read(&mut lag, CHUNK);
        read(&mut middle, 2 * CHUNK + 70);
        // A lagging sibling stays behind, so the window starts before the
        // detached cursors and only their part of it travels.
        let detached = TraceCursor::detach(vec![lead.clone(), middle.clone()]);
        assert_eq!(detached.first, 2, "the part starts at the slowest detached cursor's chunk");
        assert_eq!(detached.full.len(), 2);
        let moved = std::thread::spawn(move || {
            TraceCursor::attach(detached).iter_mut().map(pcs).collect::<Vec<_>>()
        })
        .join()
        .expect("reader thread");
        assert_eq!(moved, vec![pcs(&mut lead), pcs(&mut middle)]);
        let from = |start: usize| (start as u64..total as u64).map(|i| i * 4).collect::<Vec<_>>();
        assert_eq!(moved[1], from(2 * CHUNK + 70));
        assert_eq!(pcs(&mut lag), from(CHUNK));
    }

    #[test]
    fn detach_shares_full_chunks_and_copies_only_the_tail() {
        let keep = TraceCursor::new(SliceTrace::new(ops(4 * CHUNK)));
        let mut give = keep.clone();
        read(&mut give, 2 * CHUNK + 5);
        let detached = TraceCursor::detach(vec![give]);
        let ring = keep.ring.0.borrow();
        assert_eq!(ring.full.len(), 2, "the kept cursor pins both full chunks");
        assert_eq!(detached.full.len(), 0, "the part starts in the tail");
        assert_eq!(detached.tail.ops, ring.tail.ops);
        drop(ring);
        let mut shared = keep.clone();
        read(&mut shared, CHUNK + 3);
        let detached = TraceCursor::detach(vec![shared]);
        let ring = keep.ring.0.borrow();
        assert!(Arc::ptr_eq(&detached.full[0], &ring.full[1].ops), "a full chunk is not copied");
    }

    #[test]
    fn attached_cursors_share_one_ring_and_keep_their_positions() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(4 * CHUNK)));
        let mut b = a.clone();
        a.skip_ops(CHUNK as u64 + 10);
        b.skip_ops(2 * CHUNK as u64 + 25);
        assert_eq!(a.window_len(), CHUNK + 25, "the donor holds from a's chunk to b");
        let moved = TraceCursor::attach(TraceCursor::detach(vec![a, b]));
        let positions: Vec<u64> = moved.iter().map(Detach::position).collect();
        assert_eq!(positions, vec![CHUNK as u64 + 10, 2 * CHUNK as u64 + 25]);
        assert_eq!(moved[0].consumers(), 2);
        assert_eq!(moved[0].window_len(), CHUNK + 25, "only the unread chunks travel");
    }

    #[test]
    fn the_ring_still_trims_after_its_laggard_is_donated() {
        let total = 3 * CHUNK;
        let mut keep = TraceCursor::new(SliceTrace::new(ops(total + 1)));
        let give = keep.clone();
        read(&mut keep, total);
        assert_eq!(keep.window_len(), total, "the laggard pins the window");
        let detached = TraceCursor::detach(vec![give]);
        assert_eq!(keep.consumers(), 1, "the donated cursor left the ring");
        keep.next_op().unwrap();
        assert!(keep.window_len() <= CHUNK, "window {} not trimmed", keep.window_len());
        let mut moved = TraceCursor::attach(detached);
        assert_eq!(pcs(&mut moved[0]), (0..=total as u64).map(|i| i * 4).collect::<Vec<_>>());
    }

    #[test]
    fn default_skip_ops_draws_through_the_ring() {
        let mut a = TraceCursor::new(SliceTrace::new(ops(20)));
        let mut b = a.clone();
        a.skip_ops(5);
        assert_eq!(a.next_op().unwrap().pc(), 20);
        assert_eq!(b.next_op().unwrap().pc(), 0, "skip on one cursor leaves siblings alone");
    }

    #[test]
    fn a_lockstep_cursor_recycles_its_chunks() {
        let mut only = TraceCursor::new(SliceTrace::new(ops(8 * CHUNK)));
        let spare = |cursor: &TraceCursor<SliceTrace>| {
            let ring = cursor.ring.0.borrow();
            assert_eq!(ring.full.len(), 0, "the lone cursor reads the tail");
            Arc::as_ptr(ring.spare_ops.as_ref().expect("the trimmed chunk is kept"))
        };
        read(&mut only, 2 * CHUNK + 1);
        let kept = spare(&only);
        for _ in 0..4 {
            read(&mut only, CHUNK);
            assert_eq!(spare(&only), kept, "the tail seals into the spare, a trim returns it");
        }
    }

    /// SplitMix64: the property test's seeded source of choices.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A stream with every operand shape, some ops that do not pack
    /// among them.
    fn stream(rng: &mut Rng, n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|_| {
                let class = OpClass::ALL[rng.below(OpClass::ALL.len())];
                let mut op = MicroOp::new(class).with_pc(rng.next());
                let reg =
                    |rng: &mut Rng| ArchReg::from_raw(rng.below(TOTAL_ARCH_REGS as usize) as u8);
                if rng.below(2) == 0 {
                    op = op.with_dest(reg(rng));
                }
                if rng.below(2) == 0 {
                    op = op.with_src1(reg(rng));
                }
                if rng.below(2) == 0 {
                    op = op.with_src2(reg(rng));
                }
                match rng.below(4) {
                    0 => op = op.with_mem(MemRef::new(rng.next())),
                    1 => op = op.with_branch(BranchInfo::new(rng.below(2) == 0, rng.next())),
                    _ => {}
                }
                if rng.below(200) == 0 {
                    op = op.with_mem(MemRef::new(rng.next())).with_branch(BranchInfo::new(true, 4));
                }
                if rng.below(300) == 0 {
                    op = op.with_src2(ArchReg::from_raw(NO_REG));
                }
                op
            })
            .collect()
    }

    type Group = Vec<TraceCursor<SliceTrace>>;

    /// Reads up to `n` ops from `cursor`, each checked against `plain`.
    fn read_checked(cursor: &mut TraceCursor<SliceTrace>, plain: &[MicroOp], n: usize) {
        for _ in 0..n {
            let pos = cursor.position() as usize;
            assert_eq!(cursor.next_op(), plain.get(pos).copied(), "op {pos}");
            if pos >= plain.len() {
                break;
            }
        }
    }

    /// The group's ring holds what its slowest cursor still needs, and at
    /// most one chunk more.
    fn check_window(group: &Group) {
        let Some(any) = group.first() else { return };
        assert_eq!(any.consumers(), group.len());
        let slowest = group.iter().map(TraceCursor::position).min().expect("a cursor");
        let frontier = any.ring.0.borrow().end;
        let spread = (frontier - slowest) as usize;
        let held = any.window_len();
        assert!(held >= spread && held <= spread + CHUNK, "window {held}, spread {spread}");
    }

    /// Random reads, forks and drops on `group`.
    fn shuffle(rng: &mut Rng, group: &mut Group, plain: &[MicroOp], steps: usize) {
        for _ in 0..steps {
            if group.is_empty() {
                return;
            }
            let c = rng.below(group.len());
            match rng.below(8) {
                0 => group.push(group[c].clone()),
                1 if group.len() > 1 => drop(group.swap_remove(c)),
                _ => {
                    let n = rng.below(CHUNK * 3 / 2);
                    read_checked(&mut group[c], plain, n);
                }
            }
            check_window(group);
        }
    }

    #[test]
    fn cursors_under_random_reads_forks_drops_and_moves_read_the_plain_stream() {
        for seed in 0..24 {
            let mut rng = Rng(seed);
            let plain = Arc::new(stream(&mut rng, 12 * CHUNK));
            let mut groups: Vec<Group> =
                vec![vec![TraceCursor::new(SliceTrace::new(plain.to_vec()))]];
            for _ in 0..40 {
                let g = rng.below(groups.len());
                shuffle(&mut rng, &mut groups[g], &plain, 6);
                if groups[g].len() < 2 || rng.below(2) == 0 {
                    continue;
                }
                // Move some of the group to another thread and back.
                let group = &mut groups[g];
                let moving: Group =
                    (0..1 + rng.below(group.len() - 1)).map(|_| group.swap_remove(0)).collect();
                let detached = TraceCursor::detach(moving);
                check_window(group);
                let (plain_there, seed_there) = (Arc::clone(&plain), rng.next());
                let back = std::thread::spawn(move || {
                    let mut group = TraceCursor::attach(detached);
                    check_window(&group);
                    shuffle(&mut Rng(seed_there), &mut group, &plain_there, 6);
                    TraceCursor::detach(group)
                })
                .join()
                .expect("reader thread");
                let moved = TraceCursor::attach(back);
                check_window(&moved);
                groups.push(moved);
            }
            for group in &mut groups {
                for cursor in group.iter_mut() {
                    read_checked(cursor, &plain, plain.len() + 1);
                }
            }
        }
    }
}
