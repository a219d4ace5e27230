//! The compacting issue queue (paper §2.1).
//!
//! Entries live at fixed *physical* positions; priority is encoded by
//! position relative to the head. In the conventional mode the head (oldest,
//! highest-priority instruction) sits at physical position 0 and the tail
//! grows upward. When an instruction issues its entry is marked invalid a
//! replay-safe couple of cycles later, and the compaction logic then shifts
//! every younger entry down — which is why tail-region entries move on
//! almost every issue while head-region entries rarely move. That asymmetric
//! movement is the power-density asymmetry the paper exploits.
//!
//! In the *toggled* mode (activity toggling, §2.1.1) the head moves to the
//! middle of the queue: priority order becomes physical positions
//! `S/2..S, 0..S/2`, and compaction wraps from the bottom of the queue to
//! the topmost entries over dedicated long wires (charged separately, per
//! Table 3's "Long Compaction" row).
//!
//! The queue stores its entries in priority-rank order as a struct of
//! arrays: 16-bit lanes for the active-list id and operand tags, and a
//! `u64` mask per remaining field (the replay ages bit-sliced). Physical
//! positions, a rotation of ranks by `S/2` in the toggled mode, appear only
//! at the API and in the energy counters. A broadcast compares the tag
//! lanes with the producer id, compaction moves lanes with `copy_within`
//! and shifts masks, and a toggle rotates both once. [`IqEntry`] and
//! [`IqState`] are views built on demand.

use crate::activity::IqActivity;
use crate::config::IqMode;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Largest queue the masks can hold: one `u64` bit per rank.
pub(crate) const MAX_IQ_SIZE: usize = 64;

/// Number of active-list ids the 16-bit id and tag lanes can name.
pub(crate) const MAX_LANE_IDS: usize = 1 << u16::BITS;

/// Bits of an [`EntryState::Issued`] age: one mask plane each.
const AGE_BITS: usize = u32::BITS as usize;

/// State of an occupied issue-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryState {
    /// Waiting for operands (or for a functional unit).
    Waiting,
    /// Issued `age` cycles ago; still held for load-replay safety.
    Issued {
        /// Cycles since issue.
        age: u32,
    },
    /// Issued and past the replay window; compactable.
    Invalid,
}

/// One occupied issue-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IqEntry {
    /// Active-list index of the instruction.
    pub rob_id: u32,
    /// Entry state.
    pub state: EntryState,
    /// First operand availability.
    pub src1_ready: bool,
    /// Second operand availability.
    pub src2_ready: bool,
    /// Producer tag (active-list index) for operand 1, if in flight.
    pub src1_tag: Option<u32>,
    /// Producer tag for operand 2, if in flight.
    pub src2_tag: Option<u32>,
    /// Memory op (needs a data-cache port to issue).
    pub is_mem: bool,
    /// Must issue to the FP multiplier rather than an FP adder.
    pub needs_fp_mul: bool,
}

impl IqEntry {
    /// `true` when the entry is waiting with all operands available.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state == EntryState::Waiting && self.src1_ready && self.src2_ready
    }
}

/// Serializable state of an [`IssueQueue`], captured by
/// [`IssueQueue::snapshot`] and reapplied with [`IssueQueue::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IqState {
    /// Slot contents by physical position (`None` = empty).
    pub slots: Vec<Option<IqEntry>>,
    /// Head/tail mode at capture time.
    pub mode: IqMode,
    /// Load-replay safety window.
    pub replay_window: u32,
}

/// Checks that no two entries of `slots` with a pending operand share an
/// active-list id. Each such entry holds a live active-list slot, so the
/// pipeline never builds that state; state that has it came from elsewhere.
///
/// # Errors
///
/// Returns a message naming the shared id.
pub(crate) fn check_tagged_ids(slots: &[Option<IqEntry>]) -> Result<(), String> {
    let tagged = |slot: &Option<IqEntry>| slot.filter(|e| e.src1_tag.or(e.src2_tag).is_some());
    for (i, a) in slots.iter().enumerate().filter_map(|(i, s)| tagged(s).map(|e| (i, e))) {
        if slots[i + 1..].iter().filter_map(tagged).any(|b| b.rob_id == a.rob_id) {
            return Err(format!("two waiting entries share active-list id {}", a.rob_id));
        }
    }
    Ok(())
}

/// Physical position of priority rank `index` in a queue of `2 * half`
/// entries, and equally the rank of position `index`: in the toggled mode
/// both are the same rotation by `half`.
fn rotate(index: usize, half: usize, mode: IqMode) -> usize {
    match mode {
        IqMode::Normal => index,
        IqMode::Toggled if index < half => index + half,
        IqMode::Toggled => index - half,
    }
}

/// One 16-bit value per rank, with a queue's worth of slack above the
/// ranks: compaction copies a lane's whole suffix, a constant length.
type Lane = [u16; 2 * MAX_IQ_SIZE];

/// An id or tag as its 16-bit lane holds it (panics if it does not fit).
fn lane(id: u32) -> u16 {
    u16::try_from(id).expect("ids and tags fit the queue's 16-bit lanes")
}

/// The ranks `r` with `a[r] == value`, and those with `b[r] == value`,
/// among the ranks below `end` rounded up to a multiple of four: each lane
/// is compared four ranks to a `u64` word.
fn lanes_equal(a: &Lane, b: &Lane, value: u16, end: usize) -> (u64, u64) {
    const LOW: u64 = 0x7fff_7fff_7fff_7fff;
    let pattern = u64::from(value) * 0x0001_0001_0001_0001;
    // Sets the top bit (15, 31, 47, 63) of each field equal to `value`.
    let hits = |quad: &[u16]| {
        let diff = quad.iter().rev().fold(0, |word, &x| word << 16 | u64::from(x)) ^ pattern;
        !(((diff & LOW) + LOW) | diff) & !LOW
    };
    let (mut in_a, mut in_b) = (0, 0);
    let quads = a.chunks_exact(4).zip(b.chunks_exact(4)).take(end.div_ceil(4));
    for (i, (qa, qb)) in quads.enumerate() {
        // With `a`'s hits at bits 16k and `b`'s at 16k + 4, one multiply
        // gathers them into bits 48..52 and 52..56; its other partial
        // products land below bit 40 or past bit 63.
        let both = (hits(qa) >> 15 | hits(qb) >> 11)
            .wrapping_mul(1 << 48 | 1 << 33 | 1 << 18 | 1 << 3)
            >> 48;
        in_a |= (both & 0xf) << (4 * i);
        in_b |= (both >> 4) << (4 * i);
    }
    (in_a, in_b)
}

/// One past the highest rank set in `mask`.
fn end_of(mask: u64) -> usize {
    64 - mask.leading_zeros() as usize
}

/// The per-rank fields of an [`IssueQueue`]: bit `r` of each mask
/// describes the entry at priority rank `r`. Every mask lies within
/// `occupied`; an entry is waiting unless it is `issued` or `invalid`.
#[derive(Debug, Clone, Copy, Default)]
struct Masks {
    occupied: u64,
    issued: u64,
    invalid: u64,
    src1_ready: u64,
    src2_ready: u64,
    /// The entry's `src1_tag` is `Some`, holding its `src1_tag` lane.
    src1_tagged: u64,
    /// The entry's `src2_tag` is `Some`, holding its `src2_tag` lane.
    src2_tagged: u64,
    is_mem: u64,
    needs_fp_mul: u64,
    /// Ages of the issued entries, bit-sliced: bit `r` of `age[b]` is bit
    /// `b` of rank `r`'s age. Planes from `planes` up are zero.
    age: [u64; AGE_BITS],
    planes: usize,
}

impl Masks {
    /// Applies `f` to every mask, where `f` changes only the bits of the
    /// ranks `touched`. The age planes lie within `issued`, so they are
    /// left alone when no touched rank holds an issued entry.
    fn apply(&mut self, touched: u64, f: impl Fn(u64) -> u64) {
        let aged = self.issued & touched != 0;
        for mask in [
            &mut self.occupied,
            &mut self.issued,
            &mut self.invalid,
            &mut self.src1_ready,
            &mut self.src2_ready,
            &mut self.src1_tagged,
            &mut self.src2_tagged,
            &mut self.is_mem,
            &mut self.needs_fp_mul,
        ] {
            *mask = f(*mask);
        }
        if aged {
            for plane in &mut self.age[..self.planes] {
                *plane = f(*plane);
            }
        }
    }

    /// Ranks holding a waiting entry with both operands available
    /// ([`IqEntry::is_ready`]).
    fn ready(&self) -> u64 {
        self.occupied & !(self.issued | self.invalid) & self.src1_ready & self.src2_ready
    }

    /// One cycle of replay aging: every issued entry's age goes up by one
    /// (wrapping past `u32::MAX`), and those that reach `window` become
    /// invalid.
    fn age_issued(&mut self, window: u32) {
        let mut carry = self.issued;
        for b in 0..AGE_BITS {
            if carry == 0 {
                break;
            }
            let plane = self.age[b];
            self.age[b] = plane ^ carry;
            carry &= plane;
            self.planes = self.planes.max(b + 1);
        }
        let expired = self.aged_at_least(window);
        if expired == 0 {
            return;
        }
        self.issued &= !expired;
        self.invalid |= expired;
        for plane in &mut self.age[..self.planes] {
            *plane &= !expired;
        }
        while self.planes > 0 && self.age[self.planes - 1] == 0 {
            self.planes -= 1;
        }
    }

    /// Issued ranks whose age is at least `min`: a bit-sliced compare,
    /// high bit first.
    fn aged_at_least(&self, min: u32) -> u64 {
        if self.planes < AGE_BITS && min >> self.planes != 0 {
            return 0; // every age is below 2^planes <= min
        }
        let (mut above, mut equal) = (0, self.issued);
        for (b, &plane) in self.age[..self.planes].iter().enumerate().rev() {
            if min >> b & 1 == 1 {
                equal &= plane;
            } else {
                above |= equal & plane;
                equal &= !plane;
            }
        }
        above | equal
    }

    /// The age of the issued entry at `bit`.
    fn age_at(&self, bit: u64) -> u32 {
        (0..self.planes).fold(0, |age, b| age | u32::from(self.age[b] & bit != 0) << b)
    }
}

/// A compacting issue queue with physical entry positions.
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{IqMode, IssueQueue, IqEntry, EntryState};
/// use powerbalance_uarch::IqActivity;
///
/// let mut iq = IssueQueue::new(32);
/// let mut activity = IqActivity::default();
/// assert!(iq.insert(IqEntry {
///     rob_id: 0,
///     state: EntryState::Waiting,
///     src1_ready: true,
///     src2_ready: true,
///     src1_tag: None,
///     src2_tag: None,
///     is_mem: false,
///     needs_fp_mul: false,
/// }, &mut activity));
/// assert_eq!(iq.occupancy(), 1);
/// let ready: Vec<_> = iq.ready_positions().collect();
/// assert_eq!(ready.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IssueQueue {
    size: usize,
    mode: IqMode,
    replay_window: u32,
    /// Active-list id of the entry at each rank.
    rob_id: Lane,
    /// Operand-1 producer tag at each rank where `src1_tagged` is set.
    src1_tag: Lane,
    /// Operand-2 producer tag at each rank where `src2_tagged` is set.
    src2_tag: Lane,
    masks: Masks,
    /// Occupied ranks: `masks.occupied.count_ones()`, kept as a count.
    count: usize,
}

impl IssueQueue {
    /// Creates an empty queue with `size` entries in the conventional mode.
    ///
    /// # Panics
    ///
    /// Panics if `size` is odd, below 4 (the two halves must be equal) or
    /// above 64 (the masks hold one rank per `u64` bit).
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size >= 4 && size.is_multiple_of(2), "queue size must be an even number >= 4");
        assert!(size <= MAX_IQ_SIZE, "queue size must be at most {MAX_IQ_SIZE}");
        IssueQueue {
            size,
            mode: IqMode::Normal,
            replay_window: 2,
            rob_id: [0; 2 * MAX_IQ_SIZE],
            src1_tag: [0; 2 * MAX_IQ_SIZE],
            src2_tag: [0; 2 * MAX_IQ_SIZE],
            masks: Masks::default(),
            count: 0,
        }
    }

    /// Sets the load-replay safety window (cycles between issue and the
    /// entry becoming compactable).
    pub fn set_replay_window(&mut self, cycles: u32) {
        self.replay_window = cycles;
    }

    /// Queue capacity.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Occupied entries (valid + not-yet-compacted invalid).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.count
    }

    /// Current head/tail mode.
    #[must_use]
    pub fn mode(&self) -> IqMode {
        self.mode
    }

    /// Switches the head/tail configuration.
    ///
    /// Entries do **not** move physically: only the priority encoding and
    /// compaction direction change, exactly as in the paper (transiently,
    /// older instructions may have lower priority than newer ones until
    /// they drain). The rank-ordered lanes and masks rotate by `S/2`.
    pub fn set_mode(&mut self, mode: IqMode) {
        if mode == self.mode {
            return;
        }
        let (size, half) = (self.size, self.size / 2);
        for lane in [&mut self.rob_id, &mut self.src1_tag, &mut self.src2_tag] {
            lane[..size].rotate_left(half);
        }
        let within = u64::MAX >> (64 - size);
        self.masks.apply(within, |m| ((m >> half) | (m << half)) & within);
        self.mode = mode;
    }

    /// Physical position of priority rank `rank` under the current mode.
    ///
    /// Ranks are only meaningful below [`size`](IssueQueue::size); in the
    /// toggled mode a larger rank would alias another position, so
    /// out-of-range ranks are rejected outright.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size()`.
    #[must_use]
    pub fn position_of_rank(&self, rank: usize) -> usize {
        let s = self.size;
        debug_assert!(rank < s, "rank {rank} out of range for queue of size {s}");
        rotate(rank, s / 2, self.mode)
    }

    /// Priority rank of physical position `position` (panics past the
    /// queue's size).
    fn rank_of(&self, position: usize) -> usize {
        assert!(position < self.size, "position {position} outside a {}-entry queue", self.size);
        rotate(position, self.size / 2, self.mode)
    }

    /// Whether the queue is idle: select finds nothing to issue, and a
    /// [`tick`](IssueQueue::tick) changes nothing but the gating count (no
    /// entry is ready, issued or invalid, and the occupied priority ranks
    /// run unbroken from the head, so compaction has nothing to move).
    #[must_use]
    pub(crate) fn is_idle(&self) -> bool {
        let m = &self.masks;
        m.ready() | m.issued | m.invalid == 0 && m.occupied & m.occupied.wrapping_add(1) == 0
    }

    /// Physical half (0 = bottom, 1 = top) of a physical position.
    #[must_use]
    pub fn half_of(&self, position: usize) -> usize {
        usize::from(position >= self.size / 2)
    }

    /// Whether [`insert`](IssueQueue::insert) would currently succeed.
    #[must_use]
    pub fn can_insert(&self) -> bool {
        end_of(self.masks.occupied) < self.size
    }

    /// Inserts a new entry at the tail (lowest-priority free slot).
    ///
    /// Returns `false` if the queue cannot accept the entry (the slot after
    /// the last occupied one, in priority order, is taken or the queue is
    /// full). Charges the payload-RAM write.
    ///
    /// # Panics
    ///
    /// Panics if the entry's id or an operand tag is 2^16 or above.
    pub fn insert(&mut self, entry: IqEntry, activity: &mut IqActivity) -> bool {
        // The rank after the last occupied one.
        let rank = end_of(self.masks.occupied);
        if rank >= self.size {
            // Occupied run touches the lowest-priority end; dispatch must
            // wait for compaction even though holes may exist below.
            return false;
        }
        self.place(rank, &entry);
        activity.payload_accesses += 1; // payload RAM write
        true
    }

    /// Iterates positions of ready entries in priority order (head first).
    ///
    /// The iterator owns a copy of the ready set taken now, not a borrow
    /// of the queue, so a select loop can [`mark_issued`] while walking
    /// it: issuing an entry never changes any *other* entry's readiness
    /// within a cycle, so the copy stays exact for every position it has
    /// yet to yield.
    ///
    /// [`mark_issued`]: IssueQueue::mark_issued
    pub fn ready_positions(&self) -> impl Iterator<Item = usize> {
        let (half, mode) = (self.size / 2, self.mode);
        let mut ranks = self.masks.ready();
        std::iter::from_fn(move || {
            if ranks == 0 {
                return None;
            }
            let rank = ranks.trailing_zeros() as usize;
            ranks &= ranks - 1;
            Some(rotate(rank, half, mode))
        })
    }

    /// Physical position of the entry at priority rank `rank`, if that slot
    /// holds a ready (issuable) entry. Ranks at or past
    /// [`size`](IssueQueue::size) hold no entry and return `None` (in the
    /// toggled mode such a rank would otherwise alias a lower one).
    #[inline]
    #[must_use]
    pub fn ready_at_rank(&self, rank: usize) -> Option<usize> {
        if rank >= self.size {
            return None;
        }
        (self.masks.ready() & (1 << rank) != 0).then(|| self.position_of_rank(rank))
    }

    /// Entry at a physical position, built from the lanes and masks.
    ///
    /// # Panics
    ///
    /// Panics if `position >= size()`.
    #[must_use]
    pub fn entry(&self, position: usize) -> Option<IqEntry> {
        let rank = self.rank_of(position);
        let m = &self.masks;
        let bit = 1u64 << rank;
        if m.occupied & bit == 0 {
            return None;
        }
        let has = |mask: u64| mask & bit != 0;
        let state = if has(m.issued) {
            EntryState::Issued { age: m.age_at(bit) }
        } else if has(m.invalid) {
            EntryState::Invalid
        } else {
            EntryState::Waiting
        };
        Some(IqEntry {
            rob_id: u32::from(self.rob_id[rank]),
            state,
            src1_ready: has(m.src1_ready),
            src2_ready: has(m.src2_ready),
            src1_tag: has(m.src1_tagged).then(|| u32::from(self.src1_tag[rank])),
            src2_tag: has(m.src2_tagged).then(|| u32::from(self.src2_tag[rank])),
            is_mem: has(m.is_mem),
            needs_fp_mul: has(m.needs_fp_mul),
        })
    }

    /// What select reads of the entry at `position`, straight from the
    /// lanes and masks: `(rob_id, is_mem, needs_fp_mul)`.
    pub(crate) fn candidate(&self, position: usize) -> (u32, bool, bool) {
        let rank = self.rank_of(position);
        let has = |mask: u64| mask >> rank & 1 != 0;
        (u32::from(self.rob_id[rank]), has(self.masks.is_mem), has(self.masks.needs_fp_mul))
    }

    /// Marks the entry at `position` as issued. Charges the payload-RAM
    /// read and the select-tree grant.
    ///
    /// # Panics
    ///
    /// Panics if the position holds no ready entry.
    pub fn mark_issued(&mut self, position: usize, activity: &mut IqActivity) {
        let bit = 1u64 << self.rank_of(position);
        assert!(self.masks.occupied & bit != 0, "mark_issued on empty slot");
        assert!(self.masks.ready() & bit != 0, "mark_issued on non-ready entry");
        // A waiting entry has no age bits: it starts at age 0.
        self.masks.issued |= bit;
        activity.payload_accesses += 1; // payload RAM read
        activity.selects += 1;
    }

    /// Broadcasts a completed producer's tag; wakes matching operands.
    ///
    /// Charges one tag-broadcast event (the wires run the whole queue, so
    /// the power model splits it across both halves).
    pub fn broadcast(&mut self, rob_id: u32, activity: &mut IqActivity) {
        activity.broadcasts += 1;
        let Ok(tag) = u16::try_from(rob_id) else { return }; // no lane holds it
        let m = &mut self.masks;
        let tagged = m.src1_tagged | m.src2_tagged;
        if tagged == 0 {
            return;
        }
        let (hit1, hit2) = lanes_equal(&self.src1_tag, &self.src2_tag, tag, end_of(tagged));
        let (woken1, woken2) = (m.src1_tagged & hit1, m.src2_tagged & hit2);
        m.src1_ready |= woken1;
        m.src1_tagged &= !woken1;
        m.src2_ready |= woken2;
        m.src2_tagged &= !woken2;
    }

    /// One clock tick: ages issued entries into the invalid (compactable)
    /// state and performs one compaction step (up to `max_compact` invalid
    /// or empty positions squeezed out).
    ///
    /// Energy accounting per paper §2.1 and Table 3:
    /// * each moved entry charges its entry-to-entry data wires and its mux
    ///   select wires, attributed to the physical half the entry moved from;
    /// * a move that wraps around the queue ends (toggled mode only)
    ///   additionally charges the long-compaction wires;
    /// * on any compacting cycle the invalids-counter stages scan all
    ///   occupied entries (charged per entry, by half);
    /// * the clock-gating control logic runs every cycle regardless.
    pub fn tick(&mut self, max_compact: usize, activity: &mut IqActivity) {
        activity.gating_cycles += 1;
        if self.masks.occupied == 0 {
            // Nothing to age or compact; an empty queue only clocks its
            // gating control.
            return;
        }
        if self.masks.issued != 0 {
            self.masks.age_issued(self.replay_window);
        }
        self.compact(max_compact, activity);
    }

    /// The compaction step of [`tick`](IssueQueue::tick).
    ///
    /// Walks priority ranks from the head up to the last occupied rank.
    /// Invalid entries are removed (up to `max_compact` per cycle — the
    /// removal bandwidth of the compaction logic); holes left behind by a
    /// mode toggle count as gaps directly. Every entry then shifts down by
    /// the number of gaps below it, capped at `max_compact` positions (the
    /// reach of the entry-to-entry wires). All moves are simultaneous: gaps
    /// vacated by this cycle's moves do not cascade within the cycle.
    ///
    /// Gaps arise only at holes and removed entries, so the walk steps from
    /// one such *event* to the next and moves the run of entries between
    /// two events as one block: they all shift by the same distance.
    /// Entries below the first event shift by zero and charge nothing.
    fn compact(&mut self, max_compact: usize, activity: &mut IqActivity) {
        let Masks { occupied, invalid, .. } = self.masks;
        let dense = occupied & occupied.wrapping_add(1) == 0;
        if max_compact == 0 || (dense && invalid == 0) {
            return;
        }
        let half = self.size / 2;
        // `occupied` is non-empty (checked by `tick`), so `tail >= 1`.
        let tail = end_of(occupied);
        let holes = !occupied & (u64::MAX >> (64 - tail));
        let mut gap = 0usize;
        let mut n_removed = 0usize;
        let mut wrapped = false;
        // Removed ranks not yet cleared: the next run's shift clears them.
        let mut removed = 0u64;
        // Entries moved, and moved or removed from ranks below `half`.
        let mut moved = 0usize;
        let (mut moved_low, mut removed_low) = (0usize, 0usize);
        // How far the lanes above the last moved run have already shifted.
        let mut lanes_shifted = 0;
        let mut rank = (holes | invalid).trailing_zeros() as usize;
        while rank < tail {
            // The next event: a hole, or an invalid entry while removal
            // bandwidth lasts (past it, invalid entries move like any other).
            let removable = if n_removed < max_compact { invalid } else { 0 };
            let events = (holes | removable) & (u64::MAX << rank);
            let event = if events == 0 { tail } else { events.trailing_zeros() as usize };

            let shift = gap.min(max_compact);
            // A move from a rank at or above `half` to one below it wraps
            // over the queue ends (physically upward while logically down)
            // on the long compaction wires. They form a single bus: at most
            // one entry crosses per cycle, and once it is used compaction
            // stops at the boundary for this cycle.
            let crossing = rank.max(half)..event.min(half + shift);
            let mut stop = None;
            if self.mode == IqMode::Toggled && !crossing.is_empty() {
                let allowed = usize::from(!wrapped);
                if !wrapped {
                    wrapped = true;
                    let dest = rotate(crossing.start - shift, half, self.mode);
                    activity.long_moves[self.half_of(dest)] += 1;
                }
                if crossing.len() > allowed {
                    stop = Some(crossing.start + allowed);
                }
            }
            let run = rank..stop.unwrap_or(event);
            if !run.is_empty() {
                moved += run.len();
                moved_low += run.end.min(half) - run.start.min(half);
                self.shift_run(run, shift, removed, lanes_shifted);
                (lanes_shifted, removed) = (shift, 0);
            }
            if let Some(stop) = stop {
                // The entries from `stop` up stay put: undo their lane shift.
                for lane in [&mut self.rob_id, &mut self.src1_tag, &mut self.src2_tag] {
                    lane.copy_within(stop - lanes_shifted..tail - lanes_shifted, stop);
                }
            }
            if stop.is_some() || event == tail {
                break;
            }

            if holes & (1 << event) == 0 {
                removed |= 1 << event;
                removed_low += usize::from(event < half);
                n_removed += 1;
            }
            gap += 1;
            rank = event + 1;
        }
        if removed != 0 {
            self.masks.apply(removed, |m| m & !removed);
        }
        self.count -= n_removed;

        // Charge by the physical half each entry moved from or was removed
        // in. A moved entry drives its entry-to-entry data wires and its mux
        // select wires; it also clocks its invalids-counter stages, as does
        // a removed one (entries with no invalids below them are clock
        // gated: the paper's per-entry gating optimization). The bottom
        // half holds the low ranks in the normal mode, the high ones when
        // toggled.
        let low = [moved_low, moved_low + removed_low];
        let high = [moved - moved_low, moved + n_removed - moved_low - removed_low];
        let (bottom, top) = if self.mode == IqMode::Normal { (low, high) } else { (high, low) };
        for (side, [moves, counted]) in [bottom, top].into_iter().enumerate() {
            activity.compact_moves[side] += moves as u64;
            activity.mux_selects[side] += moves as u64;
            activity.counter_entries[side] += counted as u64;
        }
    }

    /// Moves the entries at ranks `run` (all occupied) down by `shift`
    /// ranks, onto ranks that are empty, removed or vacated by this
    /// cycle's moves, and clears the ranks `removed` below the run.
    ///
    /// The masks move the run alone; the lanes move as suffixes. Those from
    /// the run up already sit `lanes_shifted` ranks low, and the copy takes
    /// everything above the run along, so a later run needs only its extra
    /// shift.
    fn shift_run(&mut self, run: Range<usize>, shift: usize, removed: u64, lanes_shifted: usize) {
        if shift > lanes_shifted {
            let from = run.start - lanes_shifted;
            for lane in [&mut self.rob_id, &mut self.src1_tag, &mut self.src2_tag] {
                lane.copy_within(from..from + MAX_IQ_SIZE, run.start - shift);
            }
        }
        let bits = (u64::MAX >> (64 - run.len())) << run.start;
        let touched = bits | bits >> shift | removed;
        self.masks.apply(touched, |m| (m & !(bits | removed)) | ((m & bits) >> shift));
    }

    /// Writes `entry` into the empty rank `rank`.
    fn place(&mut self, rank: usize, entry: &IqEntry) {
        let bit = 1u64 << rank;
        self.count += 1;
        let m = &mut self.masks;
        m.occupied |= bit;
        match entry.state {
            EntryState::Waiting => {}
            EntryState::Issued { age } => {
                m.issued |= bit;
                m.age
                    .iter_mut()
                    .enumerate()
                    .for_each(|(b, p)| *p |= u64::from(age >> b & 1) << rank);
                m.planes = m.planes.max((u32::BITS - age.leading_zeros()) as usize);
            }
            EntryState::Invalid => m.invalid |= bit,
        }
        let flag = |on: bool| u64::from(on) << rank;
        m.src1_ready |= flag(entry.src1_ready);
        m.src2_ready |= flag(entry.src2_ready);
        m.is_mem |= flag(entry.is_mem);
        m.needs_fp_mul |= flag(entry.needs_fp_mul);
        m.src1_tagged |= flag(entry.src1_tag.is_some());
        m.src2_tagged |= flag(entry.src2_tag.is_some());
        self.rob_id[rank] = lane(entry.rob_id);
        self.src1_tag[rank] = lane(entry.src1_tag.unwrap_or(0));
        self.src2_tag[rank] = lane(entry.src2_tag.unwrap_or(0));
    }

    /// Checks the masks' invariants: the occupied ranks lie within the
    /// queue, number `count`, and hold every other mask; no entry is both
    /// issued and invalid; age bits lie on issued ranks below the plane
    /// count.
    ///
    /// # Errors
    ///
    /// Returns a message with the masks if one does not hold.
    pub fn audit(&self) -> Result<(), String> {
        let m = &self.masks;
        let fields = [m.issued, m.invalid, m.src1_ready, m.src2_ready, m.src1_tagged];
        let fields = fields.into_iter().chain([m.src2_tagged, m.is_mem, m.needs_fp_mul]);
        let stray = fields.fold(m.occupied & !(u64::MAX >> (64 - self.size)), |stray, mask| {
            stray | mask & !m.occupied
        });
        let aged = |b: usize| if b < m.planes { m.issued } else { 0 };
        let stray_age = m.age.iter().enumerate().fold(0, |stray, (b, &p)| stray | p & !aged(b));
        if stray | stray_age | m.issued & m.invalid != 0
            || self.count != m.occupied.count_ones() as usize
        {
            return Err(format!("inconsistent masks {m:x?} for {} entries", self.count));
        }
        Ok(())
    }

    /// Captures the queue's full state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> IqState {
        IqState {
            slots: (0..self.size).map(|p| self.entry(p)).collect(),
            mode: self.mode,
            replay_window: self.replay_window,
        }
    }

    /// Restores state captured by [`snapshot`](IssueQueue::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if the captured slot count is not this queue's
    /// capacity, if two entries with a pending operand share an active-list
    /// id, or if an id or tag does not fit the 16-bit lanes. The queue is
    /// left untouched on error.
    pub fn restore(&mut self, state: &IqState) -> Result<(), String> {
        if state.slots.len() != self.size {
            return Err(format!(
                "issue-queue snapshot has {} slots, queue has {}",
                state.slots.len(),
                self.size
            ));
        }
        check_tagged_ids(&state.slots)?;
        let ids =
            state.slots.iter().flatten().flat_map(|e| [Some(e.rob_id), e.src1_tag, e.src2_tag]);
        if let Some(id) = ids.flatten().find(|&id| id as usize >= MAX_LANE_IDS) {
            return Err(format!("id {id} does not fit the queue's 16-bit lanes"));
        }
        self.mode = state.mode;
        self.replay_window = state.replay_window;
        self.masks = Masks::default();
        self.count = 0;
        for (pos, slot) in state.slots.iter().enumerate() {
            if let Some(entry) = slot {
                self.place(self.rank_of(pos), entry);
            }
        }
        Ok(())
    }

    /// Removes every trace of instruction `rob_id` (used only by tests and
    /// draining; normal entries leave via compaction).
    pub fn evict(&mut self, rob_id: u32) {
        let Ok(id) = u16::try_from(rob_id) else { return }; // no lane holds it
        let ranks = self.rob_id[..self.size].iter().enumerate().filter(|&(_, &x)| x == id);
        let gone = self.masks.occupied & ranks.fold(0, |mask, (r, _)| mask | 1 << r);
        self.masks.apply(gone, |m| m & !gone);
        self.count -= gone.count_ones() as usize;
    }

    /// Positions (physical) of all occupied slots, for inspection.
    pub fn occupied_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.size).filter(move |&p| self.masks.occupied >> self.rank_of(p) & 1 != 0)
    }

    /// All occupied entries by physical position (diagnostics).
    pub fn entries(&self) -> impl Iterator<Item = (usize, IqEntry)> + '_ {
        (0..self.size).filter_map(move |p| self.entry(p).map(|e| (p, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rob_id: u32) -> IqEntry {
        IqEntry {
            rob_id,
            state: EntryState::Waiting,
            src1_ready: true,
            src2_ready: true,
            src1_tag: None,
            src2_tag: None,
            is_mem: false,
            needs_fp_mul: false,
        }
    }

    fn waiting_on(rob_id: u32, tag: u32) -> IqEntry {
        IqEntry { src1_ready: false, src1_tag: Some(tag), ..entry(rob_id) }
    }

    #[test]
    fn insert_fills_from_head_in_normal_mode() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![0, 1, 2]);
        assert_eq!(act.payload_accesses, 3);
    }

    #[test]
    fn insert_fills_from_middle_in_toggled_mode() {
        let mut iq = IssueQueue::new(8);
        iq.set_mode(IqMode::Toggled);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![4, 5, 6], "head is at the middle");
    }

    #[test]
    fn queue_rejects_when_full() {
        let mut iq = IssueQueue::new(4);
        let mut act = IqActivity::default();
        for i in 0..4 {
            assert!(iq.insert(entry(i), &mut act));
        }
        assert!(!iq.insert(entry(99), &mut act));
        assert_eq!(iq.occupancy(), 4);
    }

    #[test]
    fn ready_priority_order_follows_mode() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..4 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let order: Vec<u32> =
            iq.ready_positions().map(|p| iq.entry(p).expect("occupied").rob_id).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "oldest first");
    }

    #[test]
    fn issue_then_invalidate_then_compact() {
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(2);
        let mut act = IqActivity::default();
        for i in 0..4 {
            assert!(iq.insert(entry(i), &mut act));
        }
        // Issue the head entry (position 0).
        iq.mark_issued(0, &mut act);
        // Two ticks to pass the replay window, then one more compacts.
        iq.tick(6, &mut act); // age 0 -> 1... reaches window: Invalid
        iq.tick(6, &mut act); // compaction removes it, shifting 3 entries
        assert_eq!(iq.occupancy(), 3);
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![0, 1, 2]);
        // All three younger entries moved down one slot.
        assert_eq!(act.compact_moves[0], 3);
        assert_eq!(act.long_moves, [0, 0], "no wraps in normal mode");
    }

    #[test]
    fn tail_entries_move_more_than_head_entries() {
        // The paper's central asymmetry: issue instructions from the head
        // repeatedly while the tail stays populated; tail-half entries rack
        // up movement, head-half entries do not.
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        let mut next_id = 0u32;
        for _ in 0..8 {
            assert!(iq.insert(entry(next_id), &mut act));
            next_id += 1;
        }
        act = IqActivity::default();
        for i in 0..60usize {
            // Issue a pseudo-uniformly chosen ready entry: entries above the
            // issued one move, entries below stay put — so tail-half entries
            // move on (almost) every issue, head-half entries rarely.
            let ready: Vec<usize> = iq.ready_positions().collect();
            let pick = ready[(i * 7 + 3) % ready.len()];
            iq.mark_issued(pick, &mut act);
            iq.tick(6, &mut act);
            iq.tick(6, &mut act);
            let _ = iq.insert(entry(next_id), &mut act);
            next_id += 1;
        }
        assert!(
            act.compact_moves[1] > 2 * act.compact_moves[0],
            "tail half should move far more: {:?}",
            act.compact_moves
        );
    }

    #[test]
    fn toggled_mode_wraps_with_long_wires() {
        let mut iq = IssueQueue::new(8);
        iq.set_mode(IqMode::Toggled);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        // Fill past the wrap point: head at 4, entries at 4,5,6,7,0,1.
        for i in 0..6 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![0, 1, 4, 5, 6, 7]);
        act = IqActivity::default();
        // Issue the head (physical 4); the entry at physical 0 must wrap to
        // physical 7 during compaction.
        iq.mark_issued(4, &mut act);
        iq.tick(6, &mut act);
        iq.tick(6, &mut act);
        assert!(act.long_moves[1] >= 1, "wrap should charge long wires: {act:?}");
    }

    #[test]
    fn broadcast_wakes_matching_tags() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        assert!(iq.insert(waiting_on(1, 77), &mut act));
        assert!(iq.insert(waiting_on(2, 88), &mut act));
        assert_eq!(iq.ready_positions().count(), 0);
        iq.broadcast(77, &mut act);
        assert_eq!(iq.ready_positions().count(), 1);
        iq.broadcast(88, &mut act);
        assert_eq!(iq.ready_positions().count(), 2);
        assert_eq!(act.broadcasts, 2);
    }

    #[test]
    fn waiting_entry_may_reuse_the_id_of_a_lingering_issued_one() {
        // The active list can free and reuse an id while the issued entry
        // that held it still sits out its replay window.
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(3);
        let mut act = IqActivity::default();
        assert!(iq.insert(entry(0), &mut act));
        assert!(iq.insert(entry(5), &mut act));
        iq.mark_issued(1, &mut act);
        assert!(iq.insert(waiting_on(5, 9), &mut act));
        iq.audit().expect("a shared id leaves the masks consistent");
        iq.mark_issued(0, &mut act);
        for _ in 0..4 {
            iq.tick(6, &mut act);
            iq.audit().expect("compaction keeps the masks consistent");
        }
        assert_eq!(iq.occupancy(), 1, "both issued entries compacted away");
        assert_eq!(iq.entry(0).map(|e| (e.rob_id, e.src1_tag)), Some((5, Some(9))));
        iq.broadcast(9, &mut act);
        assert_eq!(iq.ready_positions().collect::<Vec<_>>(), vec![0]);
        iq.audit().expect("the woken entry drops its tag");
    }

    #[test]
    fn restore_rejects_two_waiting_entries_with_one_id() {
        let mut state = IssueQueue::new(8).snapshot();
        state.slots[0] = Some(waiting_on(3, 1));
        state.slots[1] = Some(waiting_on(3, 2));
        let mut iq = IssueQueue::new(8);
        let err = iq.restore(&state).expect_err("shared id refused");
        assert!(err.contains("share active-list id 3"), "{err}");
        assert_eq!(iq.occupancy(), 0, "a refused restore changes nothing");
        // Once one of them has no pending operand, the id may be shared.
        state.slots[0] = Some(entry(3));
        iq.restore(&state).expect("one tagged holder");
        iq.audit().expect("restored masks");
    }

    #[test]
    fn restore_rejects_ids_beyond_the_lanes() {
        let mut state = IssueQueue::new(8).snapshot();
        state.slots[0] = Some(entry(1));
        state.slots[1] = Some(waiting_on(2, 1 << 16));
        let mut iq = IssueQueue::new(8);
        let err = iq.restore(&state).expect_err("a 17-bit tag is refused");
        assert!(err.contains("16-bit lanes"), "{err}");
        assert_eq!(iq.occupancy(), 0, "a refused restore changes nothing");
        state.slots[1] = Some(waiting_on(2, u32::from(u16::MAX)));
        iq.restore(&state).expect("the largest 16-bit tag fits");
        iq.broadcast(u32::from(u16::MAX), &mut IqActivity::default());
        assert_eq!(iq.ready_positions().count(), 2);
    }

    #[test]
    fn replay_ages_survive_a_round_trip_and_expire_at_the_window() {
        let mut state = IssueQueue::new(8).snapshot();
        state.replay_window = 6;
        for (pos, age) in [(0, 0), (1, 4), (2, 5), (3, u32::MAX)] {
            state.slots[pos] =
                Some(IqEntry { state: EntryState::Issued { age }, ..entry(pos as u32) });
        }
        let mut iq = IssueQueue::new(8);
        iq.restore(&state).expect("valid state");
        assert_eq!(iq.snapshot(), state, "bit-sliced ages read back exactly");
        iq.tick(0, &mut IqActivity::default());
        let states: Vec<EntryState> = iq.entries().map(|(_, e)| e.state).collect();
        // Age 4 reaches 5 (< 6); age 5 reaches the window; u32::MAX wraps to 0.
        assert_eq!(
            states,
            [
                EntryState::Issued { age: 1 },
                EntryState::Issued { age: 5 },
                EntryState::Invalid,
                EntryState::Issued { age: 0 },
            ]
        );
        iq.audit().expect("aging keeps the planes within the issued ranks");
    }

    #[test]
    fn compaction_bandwidth_is_bounded() {
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        for i in 0..6 {
            assert!(iq.insert(entry(i), &mut act));
        }
        // Issue 4 entries at once.
        for pos in [0, 1, 2, 3] {
            iq.mark_issued(pos, &mut act);
        }
        iq.tick(2, &mut act); // invalidates; compaction limited to 2/cycle
        assert_eq!(iq.occupancy(), 4, "only 2 removed in the first cycle");
        iq.tick(2, &mut act);
        assert_eq!(iq.occupancy(), 2, "remaining invalids removed next cycle");
        iq.tick(2, &mut act);
        assert_eq!(iq.occupancy(), 2, "valid entries stay");
    }

    #[test]
    fn mode_change_does_not_move_entries() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let before: Vec<usize> = iq.occupied_positions().collect();
        iq.set_mode(IqMode::Toggled);
        let after: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(before, after, "toggle must not physically move entries");
        // But priority order now favors the top half; the old entries at
        // the bottom are now lowest priority (transient misordering).
        let first_ready = iq.ready_positions().next().expect("entries are ready");
        assert_eq!(first_ready, 0, "still the only occupied region");
    }

    #[test]
    fn entries_migrate_after_toggle() {
        // After a toggle, old entries in the bottom half migrate toward the
        // new head (middle) as compaction squeezes the holes below them.
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..2 {
            assert!(iq.insert(entry(i), &mut act));
        }
        iq.set_mode(IqMode::Toggled);
        for _ in 0..8 {
            iq.tick(6, &mut act);
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![4, 5], "entries migrated to the new head region");
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut iq = IssueQueue::new(8);
        iq.set_mode(IqMode::Toggled);
        iq.set_replay_window(3);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        iq.mark_issued(4, &mut act);
        let state = iq.snapshot();

        let mut other = IssueQueue::new(8);
        other.restore(&state).expect("same capacity");
        assert_eq!(other.occupancy(), iq.occupancy());
        assert_eq!(other.mode(), iq.mode());
        assert_eq!(other.snapshot(), state);

        let mut wrong = IssueQueue::new(16);
        assert!(wrong.restore(&state).is_err(), "capacity mismatch must fail");
    }

    #[test]
    fn ready_at_rank_past_occupancy_returns_none() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        // Ranks between occupancy and capacity are simply empty slots.
        for rank in 3..8 {
            assert_eq!(iq.ready_at_rank(rank), None, "rank {rank} is unoccupied");
        }
        // Ranks at or past capacity must be None too, not a panic (normal
        // mode) or an aliased wrap back into the low ranks (toggled mode).
        assert_eq!(iq.ready_at_rank(8), None);
        assert_eq!(iq.ready_at_rank(usize::MAX), None);
    }

    #[test]
    fn ready_at_rank_past_capacity_does_not_alias_in_toggled_mode() {
        let mut iq = IssueQueue::new(8);
        iq.set_mode(IqMode::Toggled);
        let mut act = IqActivity::default();
        assert!(iq.insert(entry(0), &mut act));
        // The head sits at physical 4 = rank 0. Rank 8 would wrap back to
        // the same physical position under (s/2 + rank) % s; it must not
        // present the head twice to a select loop that overruns.
        assert_eq!(iq.ready_at_rank(0), Some(4));
        assert_eq!(iq.ready_at_rank(8), None, "rank 8 must not alias rank 0");
    }

    #[test]
    fn evict_racing_compaction_keeps_occupancy_consistent() {
        // An eviction landing between invalidation and the compaction pass
        // must not double-free the slot or corrupt the occupancy counter.
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        for i in 0..5 {
            assert!(iq.insert(entry(i), &mut act));
        }
        // Issue the head; one tick later its entry is Invalid but not yet
        // compacted away (bandwidth 0 this cycle keeps it in place).
        iq.mark_issued(0, &mut act);
        iq.tick(0, &mut act);
        assert!(matches!(iq.entry(0), Some(e) if e.state == EntryState::Invalid));
        // Evict a *different* entry mid-flight, then let compaction run.
        iq.evict(3);
        assert_eq!(iq.occupancy(), 4);
        iq.tick(6, &mut act);
        assert_eq!(iq.occupancy(), 3, "invalid head removed, eviction not re-counted");
        assert_eq!(iq.occupancy(), iq.occupied_positions().count());
        let ids: Vec<u32> = iq.occupied_positions().map(|p| iq.entry(p).unwrap().rob_id).collect();
        assert_eq!(ids, vec![1, 2, 4], "survivors keep age order after the race");

        // Evicting the already-invalid entry before compaction sees it must
        // also stay consistent (the slot is freed exactly once).
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        iq.mark_issued(0, &mut act);
        iq.tick(0, &mut act); // now Invalid, still resident
        iq.evict(0);
        assert_eq!(iq.occupancy(), 2);
        iq.tick(6, &mut act);
        assert_eq!(iq.occupancy(), 2, "compaction must not remove it a second time");
        assert_eq!(iq.occupancy(), iq.occupied_positions().count());
    }

    #[test]
    fn half_of_midpoint_is_stable_across_mode_toggles() {
        // `half_of` reports *physical* halves: the boundary sits between
        // positions S/2 - 1 and S/2 and must not move when the priority
        // encoding toggles (the power model attributes energy to physical
        // wires, not logical ranks).
        let mut iq = IssueQueue::new(8);
        assert_eq!(iq.half_of(3), 0, "last bottom-half position");
        assert_eq!(iq.half_of(4), 1, "first top-half position");
        iq.set_mode(IqMode::Toggled);
        assert_eq!(iq.half_of(3), 0, "toggling must not move the physical boundary");
        assert_eq!(iq.half_of(4), 1);
        // In toggled mode the midpoint position is the *head* (rank 0).
        assert_eq!(iq.position_of_rank(0), 4);
        assert_eq!(iq.half_of(iq.position_of_rank(0)), 1);
        iq.set_mode(IqMode::Normal);
        assert_eq!(iq.position_of_rank(0), 0);
        assert_eq!(iq.half_of(iq.position_of_rank(0)), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn queue_is_capped_at_64_entries() {
        let _ = IssueQueue::new(66);
    }

    #[test]
    fn gating_runs_every_cycle() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for _ in 0..5 {
            iq.tick(6, &mut act);
        }
        assert_eq!(act.gating_cycles, 5);
    }
}
