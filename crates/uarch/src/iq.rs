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
//! The slots are the only state; next to them the queue keeps a bit index
//! derived from them (one `u64` bit per physical position, plus a wakeup
//! table keyed by active-list id) so that insert, select, wakeup and
//! compaction visit only the entries they affect. The index caps the queue
//! at 64 entries; [`IssueQueue::audit`] checks it against the slots.
//!
//! The wakeup table lists, per producer tag, the active-list ids of the
//! entries waiting on it, and maps each such id to its entry's position.
//! Compaction therefore moves no table bits: it rewrites the position of
//! each moved entry that still waits. Only entries with a pending operand
//! (the `tagged` mask) own an id's position: an issued or invalid entry
//! can outlive its active-list slot, whose id a new waiting entry may then
//! reuse. Two waiting entries never share an id, since each holds a live
//! active-list slot; [`IssueQueue::restore`] refuses state in which two
//! tagged entries do.

use crate::activity::IqActivity;
use crate::config::IqMode;
use serde::{Deserialize, Serialize};

/// Largest queue the bit index can hold: one `u64` bit per position.
pub(crate) const MAX_IQ_SIZE: usize = 64;

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

    /// The distinct producer tags this entry's operands wait on.
    fn tags(&self) -> impl Iterator<Item = u32> {
        let src2 = self.src2_tag.filter(|&t| self.src1_tag != Some(t));
        self.src1_tag.into_iter().chain(src2)
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
/// active-list id: each such entry owns its id's wakeup position.
///
/// # Errors
///
/// Returns a message naming the shared id.
pub(crate) fn check_tagged_ids(slots: &[Option<IqEntry>]) -> Result<(), String> {
    let tagged = |slot: &Option<IqEntry>| slot.filter(|e| e.tags().next().is_some());
    for (i, a) in slots.iter().enumerate().filter_map(|(i, s)| tagged(s).map(|e| (i, e))) {
        if slots[i + 1..].iter().filter_map(tagged).any(|b| b.rob_id == a.rob_id) {
            return Err(format!("two waiting entries share active-list id {}", a.rob_id));
        }
    }
    Ok(())
}

/// Physical position of priority rank `rank` in a queue of `2 * half`
/// entries.
fn rank_to_position(rank: usize, half: usize, mode: IqMode) -> usize {
    match mode {
        IqMode::Normal => rank,
        IqMode::Toggled if rank < half => rank + half,
        IqMode::Toggled => rank - half,
    }
}

/// The bit index of an [`IssueQueue`]: bit `p` of each mask describes
/// slot `p`. Derived from the slots and kept in step with them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Masks {
    /// Slot holds an entry.
    occupied: u64,
    /// Slot holds an entry with [`IqEntry::is_ready`].
    ready: u64,
    /// Slot holds an [`EntryState::Issued`] entry.
    issued: u64,
    /// Slot holds an [`EntryState::Invalid`] entry.
    invalid: u64,
    /// Slot holds an entry with an operand tag (listed in the waiter table).
    tagged: u64,
}

impl Masks {
    /// The masks describing `slots`.
    fn of(slots: &[Option<IqEntry>]) -> Masks {
        let mut masks = Masks::default();
        for (pos, slot) in slots.iter().enumerate() {
            if let Some(entry) = slot {
                masks.set(1 << pos, entry);
            }
        }
        masks
    }

    /// Sets `bit` in every mask that describes `entry`.
    fn set(&mut self, bit: u64, entry: &IqEntry) {
        self.occupied |= bit;
        if entry.is_ready() {
            self.ready |= bit;
        }
        match entry.state {
            EntryState::Waiting => {}
            EntryState::Issued { .. } => self.issued |= bit,
            EntryState::Invalid => self.invalid |= bit,
        }
        if entry.src1_tag.is_some() || entry.src2_tag.is_some() {
            self.tagged |= bit;
        }
    }

    /// Applies `f` to every mask.
    fn map(self, f: impl Fn(u64) -> u64) -> Masks {
        Masks {
            occupied: f(self.occupied),
            ready: f(self.ready),
            issued: f(self.issued),
            invalid: f(self.invalid),
            tagged: f(self.tagged),
        }
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
    slots: Vec<Option<IqEntry>>,
    mode: IqMode,
    replay_window: u32,
    /// Per-position index of the slots.
    masks: Masks,
    /// Row `t` (`stride` words from `t * stride`) has bit `i` set iff the
    /// tagged entry with active-list id `i` has an operand tagged `t`.
    waiters: Vec<u64>,
    /// Words per row of `waiters`: ids `0..stride * 64` fit.
    stride: usize,
    /// Rows of `waiters`: tags `0..tags` fit.
    tags: usize,
    /// `position[i]` is the physical position of the tagged entry with
    /// active-list id `i`; stale for ids no tagged entry holds.
    position: Vec<u8>,
}

impl IssueQueue {
    /// Creates an empty queue with `size` entries in the conventional mode.
    ///
    /// # Panics
    ///
    /// Panics if `size` is odd, below 4 (the two halves must be equal) or
    /// above 64 (the bit index holds one position per `u64` bit).
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size >= 4 && size.is_multiple_of(2), "queue size must be an even number >= 4");
        assert!(size <= MAX_IQ_SIZE, "queue size must be at most {MAX_IQ_SIZE}");
        IssueQueue {
            slots: vec![None; size],
            mode: IqMode::Normal,
            replay_window: 2,
            masks: Masks::default(),
            waiters: Vec::new(),
            stride: 0,
            tags: 0,
            position: Vec::new(),
        }
    }

    /// Sizes the wakeup table for active-list ids and producer tags
    /// `0..ids` up front, so that inserting such an entry never allocates.
    /// A larger id or tag still works: the table grows to fit it.
    pub(crate) fn reserve_tags(&mut self, ids: usize) {
        self.grow(ids, ids);
    }

    /// Grows the wakeup table to hold at least ids `0..ids` and tags
    /// `0..tags`, keeping its contents.
    fn grow(&mut self, ids: usize, tags: usize) {
        let stride = ids.div_ceil(64).max(self.stride);
        let tags = tags.max(self.tags);
        if stride != self.stride {
            let mut rows = vec![0; tags * stride];
            if self.stride > 0 {
                for (row, old) in
                    rows.chunks_exact_mut(stride).zip(self.waiters.chunks_exact(self.stride))
                {
                    row[..old.len()].copy_from_slice(old);
                }
            }
            self.waiters = rows;
            self.stride = stride;
        } else {
            self.waiters.resize(tags * stride, 0);
        }
        self.tags = tags;
        self.position.resize(stride * 64, 0);
    }

    /// Sets the load-replay safety window (cycles between issue and the
    /// entry becoming compactable).
    pub fn set_replay_window(&mut self, cycles: u32) {
        self.replay_window = cycles;
    }

    /// Queue capacity.
    #[must_use]
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Occupied entries (valid + not-yet-compacted invalid).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.masks.occupied.count_ones() as usize
    }

    /// Current head/tail mode.
    #[must_use]
    pub fn mode(&self) -> IqMode {
        self.mode
    }

    /// Switches the head/tail configuration.
    ///
    /// Entries do **not** move: only the priority encoding and compaction
    /// direction change, exactly as in the paper (transiently, older
    /// instructions may have lower priority than newer ones until they
    /// drain).
    pub fn set_mode(&mut self, mode: IqMode) {
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
        let s = self.slots.len();
        debug_assert!(rank < s, "rank {rank} out of range for queue of size {s}");
        rank_to_position(rank, s / 2, self.mode)
    }

    /// Reorders a mask indexed by physical position into priority order:
    /// bit `r` of the result is bit [`position_of_rank(r)`] of `mask`. In
    /// the toggled mode that is a rotation by `S/2` within the queue's `S`
    /// bits, which is its own inverse: the same call maps back.
    ///
    /// [`position_of_rank(r)`]: IssueQueue::position_of_rank
    fn by_rank(&self, mask: u64) -> u64 {
        match self.mode {
            IqMode::Normal => mask,
            IqMode::Toggled => {
                let s = self.slots.len();
                let half = s / 2;
                ((mask >> half) | (mask << half)) & (u64::MAX >> (64 - s))
            }
        }
    }

    /// One past the last occupied priority rank (0 when empty): the rank
    /// the next insert takes.
    fn tail_rank(&self) -> usize {
        64 - self.by_rank(self.masks.occupied).leading_zeros() as usize
    }

    /// Whether the queue is idle: select finds nothing to issue, and a
    /// [`tick`](IssueQueue::tick) changes nothing but the gating count (no
    /// entry is ready, issued or invalid, and the occupied priority ranks
    /// run unbroken from the head, so compaction has nothing to move).
    #[must_use]
    pub(crate) fn is_idle(&self) -> bool {
        let Masks { occupied, ready, issued, invalid, .. } = self.masks;
        let occupied = self.by_rank(occupied);
        ready | issued | invalid == 0 && occupied & occupied.wrapping_add(1) == 0
    }

    /// Physical half (0 = bottom, 1 = top) of a physical position.
    #[must_use]
    pub fn half_of(&self, position: usize) -> usize {
        usize::from(position >= self.slots.len() / 2)
    }

    /// Whether [`insert`](IssueQueue::insert) would currently succeed.
    #[must_use]
    pub fn can_insert(&self) -> bool {
        self.tail_rank() < self.slots.len()
    }

    /// Inserts a new entry at the tail (lowest-priority free slot).
    ///
    /// Returns `false` if the queue cannot accept the entry (the slot after
    /// the last occupied one, in priority order, is taken or the queue is
    /// full). Charges the payload-RAM write.
    pub fn insert(&mut self, entry: IqEntry, activity: &mut IqActivity) -> bool {
        let rank = self.tail_rank();
        if rank >= self.slots.len() {
            // Occupied run touches the lowest-priority end; dispatch must
            // wait for compaction even though holes may exist below.
            return false;
        }
        let pos = self.position_of_rank(rank);
        debug_assert!(self.slots[pos].is_none());
        self.place(pos, entry);
        activity.inserts += 1;
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
        let (half, mode) = (self.slots.len() / 2, self.mode);
        let mut ranks = self.by_rank(self.masks.ready);
        std::iter::from_fn(move || {
            if ranks == 0 {
                return None;
            }
            let rank = ranks.trailing_zeros() as usize;
            ranks &= ranks - 1;
            Some(rank_to_position(rank, half, mode))
        })
    }

    /// Physical position of the entry at priority rank `rank`, if that slot
    /// holds a ready (issuable) entry. Ranks at or past
    /// [`size`](IssueQueue::size) hold no entry and return `None` (in the
    /// toggled mode such a rank would otherwise alias a lower one).
    #[inline]
    #[must_use]
    pub fn ready_at_rank(&self, rank: usize) -> Option<usize> {
        if rank >= self.slots.len() {
            return None;
        }
        let pos = self.position_of_rank(rank);
        (self.masks.ready & (1 << pos) != 0).then_some(pos)
    }

    /// Entry at a physical position.
    #[must_use]
    pub fn entry(&self, position: usize) -> Option<&IqEntry> {
        self.slots[position].as_ref()
    }

    /// Marks the entry at `position` as issued. Charges the payload-RAM
    /// read and the select-tree grant.
    ///
    /// # Panics
    ///
    /// Panics if the position holds no ready entry.
    pub fn mark_issued(&mut self, position: usize, activity: &mut IqActivity) {
        let entry = self.slots[position].as_mut().expect("mark_issued on empty slot");
        assert!(entry.is_ready(), "mark_issued on non-ready entry");
        entry.state = EntryState::Issued { age: 0 };
        self.masks.ready &= !(1 << position);
        self.masks.issued |= 1 << position;
        activity.payload_accesses += 1; // payload RAM read
        activity.selects += 1;
    }

    /// Broadcasts a completed producer's tag; wakes matching operands.
    ///
    /// Charges one tag-broadcast event (the wires run the whole queue, so
    /// the power model splits it across both halves).
    pub fn broadcast(&mut self, rob_id: u32, activity: &mut IqActivity) {
        activity.broadcasts += 1;
        let tag = rob_id as usize;
        if tag >= self.tags {
            return;
        }
        for word in tag * self.stride..(tag + 1) * self.stride {
            let base = (word - tag * self.stride) * 64;
            let mut waiting = std::mem::take(&mut self.waiters[word]);
            while waiting != 0 {
                let id = base + waiting.trailing_zeros() as usize;
                waiting &= waiting - 1;
                self.wake(id, rob_id);
            }
        }
    }

    /// Marks the operands tagged `rob_id` of the entry with id `id`
    /// available.
    fn wake(&mut self, id: usize, rob_id: u32) {
        let pos = usize::from(self.position[id]);
        // The pipeline never reuses an id a waiting entry holds, so the
        // mapping is exact. Restored state that breaks that invariant in a
        // way `restore` cannot see (an executing op retiring a waiting
        // entry's id early) can leave it stale: wake nothing then.
        let Some(slot) = self.slots[pos].as_mut().filter(|e| e.rob_id as usize == id) else {
            return;
        };
        if slot.src1_tag == Some(rob_id) {
            slot.src1_ready = true;
            slot.src1_tag = None;
        }
        if slot.src2_tag == Some(rob_id) {
            slot.src2_ready = true;
            slot.src2_tag = None;
        }
        if slot.is_ready() {
            self.masks.ready |= 1 << pos;
        }
        if slot.src1_tag.is_none() && slot.src2_tag.is_none() {
            self.masks.tagged &= !(1 << pos);
        }
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

        // Age issued entries toward invalidation.
        let mut issued = self.masks.issued;
        while issued != 0 {
            let pos = issued.trailing_zeros() as usize;
            issued &= issued - 1;
            let slot = self.slots[pos].as_mut().expect("an issued bit names an occupied slot");
            let EntryState::Issued { age } = slot.state else {
                unreachable!("an issued bit names an issued entry")
            };
            if age + 1 >= self.replay_window {
                slot.state = EntryState::Invalid;
                self.masks.issued &= !(1 << pos);
                self.masks.invalid |= 1 << pos;
            } else {
                slot.state = EntryState::Issued { age: age + 1 };
            }
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
        // The walk works on rank-ordered masks, in which a run of ranks is
        // a run of bits even where its physical positions wrap.
        let occupied = self.by_rank(self.masks.occupied);
        let invalid = self.by_rank(self.masks.invalid);
        let dense = occupied & occupied.wrapping_add(1) == 0;
        if max_compact == 0 || (dense && invalid == 0) {
            return;
        }
        let mut ranked = self.masks.map(|m| self.by_rank(m));
        let half = self.slots.len() / 2;
        // `occupied` is non-empty (checked by `tick`), so `tail >= 1`.
        let tail = 64 - occupied.leading_zeros() as usize;
        let holes = !occupied & (u64::MAX >> (64 - tail));
        let mut gap = 0usize;
        let mut n_removed = 0usize;
        let mut wrapped = false;
        // Ranks whose entry was removed, and moved away from.
        let mut removed = 0u64;
        let mut moved = 0u64;
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
                    let dest = rank_to_position(crossing.start - shift, half, self.mode);
                    activity.long_moves[self.half_of(dest)] += 1;
                }
                if crossing.len() > allowed {
                    stop = Some(crossing.start + allowed);
                }
            }
            let run = rank..stop.unwrap_or(event);
            if !run.is_empty() {
                moved |= (u64::MAX >> (64 - run.len())) << run.start;
                self.shift_run(run, shift, &mut ranked);
            }
            if stop.is_some() || event == tail {
                break;
            }

            if holes & (1 << event) == 0 {
                let pos = rank_to_position(event, half, self.mode);
                self.clear_slot(pos);
                ranked = ranked.map(|m| m & !(1 << event));
                removed |= 1 << event;
                n_removed += 1;
            }
            gap += 1;
            rank = event + 1;
        }
        self.masks = ranked.map(|m| self.by_rank(m));

        // Charge by the physical half each entry moved from or was removed
        // in. A moved entry drives its entry-to-entry data wires and its mux
        // select wires; it also clocks its invalids-counter stages, as does
        // a removed one (entries with no invalids below them are clock
        // gated: the paper's per-entry gating optimization).
        let (moved, removed) = (self.by_rank(moved), self.by_rank(removed));
        let bottom = (1u64 << half) - 1;
        for (side, positions) in [bottom, !bottom].into_iter().enumerate() {
            let moves = u64::from((moved & positions).count_ones());
            activity.compact_moves[side] += moves;
            activity.mux_selects[side] += moves;
            activity.counter_entries[side] += moves + u64::from((removed & positions).count_ones());
        }
    }

    /// Moves the entries at ranks `run` (all occupied) down by `shift`
    /// ranks into empty slots, carrying their index bits in the
    /// rank-ordered `ranked` and the wakeup positions of the tagged ones.
    fn shift_run(&mut self, run: std::ops::Range<usize>, shift: usize, ranked: &mut Masks) {
        let half = self.slots.len() / 2;
        let bits = (u64::MAX >> (64 - run.len())) << run.start;
        let mut tagged = ranked.tagged & bits;
        while tagged != 0 {
            let rank = tagged.trailing_zeros() as usize;
            tagged &= tagged - 1;
            let from = rank_to_position(rank, half, self.mode);
            let to = rank_to_position(rank - shift, half, self.mode);
            let entry = self.slots[from].as_ref().expect("a tagged bit names an occupied slot");
            self.position[entry.rob_id as usize] = to as u8;
        }
        *ranked = ranked.map(|m| (m & !bits) | ((m & bits) >> shift));

        // The slots move in pieces whose source and destination positions
        // are both contiguous: in the toggled mode source positions jump at
        // rank `half` and destinations at rank `half + shift`.
        let mut rank = run.start;
        while rank < run.end {
            let mut end = run.end;
            if self.mode == IqMode::Toggled {
                for cut in [half, half + shift] {
                    if rank < cut && cut < end {
                        end = cut;
                    }
                }
            }
            let len = end - rank;
            let from = rank_to_position(rank, half, self.mode);
            let to = rank_to_position(rank - shift, half, self.mode);
            self.slots.copy_within(from..from + len, to);
            // Empty the source slots the piece did not land on.
            let vacated =
                if to < from { from.max(to + len)..from + len } else { from..(from + len).min(to) };
            self.slots[vacated].fill(None);
            rank = end;
        }
    }

    /// Writes `entry` into the empty slot `pos` and indexes it.
    fn place(&mut self, pos: usize, entry: IqEntry) {
        self.masks.set(1 << pos, &entry);
        let id = entry.rob_id as usize;
        if let Some(top) = entry.tags().max() {
            if id >= self.position.len() || top as usize >= self.tags {
                self.grow(id + 1, top as usize + 1);
            }
            self.position[id] = pos as u8;
            for tag in entry.tags() {
                self.waiters[tag as usize * self.stride + id / 64] |= 1 << (id % 64);
            }
        }
        self.slots[pos] = Some(entry);
    }

    /// Empties the occupied slot `pos` and drops it from the wakeup table;
    /// the caller clears its mask bits.
    fn clear_slot(&mut self, pos: usize) {
        let entry = self.slots[pos].take().expect("clearing an occupied slot");
        let id = entry.rob_id as usize;
        for tag in entry.tags() {
            self.waiters[tag as usize * self.stride + id / 64] &= !(1 << (id % 64));
        }
    }

    /// Whether row `tag` of the wakeup table lists id `id`.
    fn listed(&self, tag: usize, id: usize) -> bool {
        tag < self.tags
            && id < self.stride * 64
            && self.waiters[tag * self.stride + id / 64] & (1 << (id % 64)) != 0
    }

    /// Checks the index against the slots: each mask holds exactly the
    /// positions whose slot it describes; each wakeup row lists exactly the
    /// ids of the entries with an operand waiting on its tag, and each such
    /// id maps to its entry's position.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first disagreement.
    pub fn audit(&self) -> Result<(), String> {
        let derived = Masks::of(&self.slots);
        if self.masks != derived {
            return Err(format!("index {:x?} != {derived:x?} derived from the slots", self.masks));
        }
        for (pos, entry) in self.entries() {
            let id = entry.rob_id as usize;
            for tag in entry.tags() {
                if !self.listed(tag as usize, id) {
                    return Err(format!(
                        "slot {pos} (id {id}) waits on tag {tag} but is not listed under it"
                    ));
                }
                if usize::from(self.position[id]) != pos {
                    return Err(format!(
                        "slot {pos} waits under id {id}, which maps to position {}",
                        self.position[id]
                    ));
                }
            }
        }
        for (tag, row) in self.waiters.chunks_exact(self.stride.max(1)).enumerate() {
            for (word, &bits) in row.iter().enumerate() {
                let mut waiting = bits;
                while waiting != 0 {
                    let id = word * 64 + waiting.trailing_zeros() as usize;
                    waiting &= waiting - 1;
                    let pos = usize::from(self.position[id]);
                    let waits = self.slots[pos].as_ref().is_some_and(|e| {
                        e.rob_id as usize == id && e.tags().any(|t| t as usize == tag)
                    });
                    if !waits {
                        return Err(format!(
                            "tag {tag} lists id {id} at slot {pos}, which does not wait on it"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Captures the queue's full state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> IqState {
        IqState { slots: self.slots.clone(), mode: self.mode, replay_window: self.replay_window }
    }

    /// Restores state captured by [`snapshot`](IssueQueue::snapshot) and
    /// rebuilds the index from the restored slots.
    ///
    /// Ids and operand tags size the wakeup table, so state from outside
    /// the program must have them bounded first ([`Core::restore`] checks
    /// them against the active list).
    ///
    /// [`Core::restore`]: crate::Core::restore
    ///
    /// # Errors
    ///
    /// Returns a message if the captured slot count does not match this
    /// queue's capacity (i.e. the snapshot was taken under a different
    /// configuration), or if two entries with a pending operand share an
    /// active-list id. The queue is left untouched on error.
    pub fn restore(&mut self, state: &IqState) -> Result<(), String> {
        if state.slots.len() != self.slots.len() {
            return Err(format!(
                "issue-queue snapshot has {} slots, queue has {}",
                state.slots.len(),
                self.slots.len()
            ));
        }
        check_tagged_ids(&state.slots)?;
        self.mode = state.mode;
        self.replay_window = state.replay_window;
        self.slots.fill(None);
        self.masks = Masks::default();
        self.waiters.fill(0);
        for (pos, slot) in state.slots.iter().enumerate() {
            if let Some(entry) = slot {
                self.place(pos, *entry);
            }
        }
        Ok(())
    }

    /// Removes every trace of instruction `rob_id` (used only by tests and
    /// draining; normal entries leave via compaction).
    pub fn evict(&mut self, rob_id: u32) {
        for pos in 0..self.slots.len() {
            if matches!(self.slots[pos], Some(e) if e.rob_id == rob_id) {
                self.clear_slot(pos);
                self.masks = self.masks.map(|m| m & !(1 << pos));
            }
        }
    }

    /// Positions (physical) of all occupied slots, for inspection.
    pub fn occupied_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(move |&p| self.slots[p].is_some())
    }

    /// Snapshot of all occupied entries (diagnostics).
    pub fn entries(&self) -> impl Iterator<Item = (usize, &IqEntry)> + '_ {
        self.slots.iter().enumerate().filter_map(|(p, slot)| slot.as_ref().map(|e| (p, e)))
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
        assert_eq!(act.inserts, 3);
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
        iq.audit().expect("the reused id indexes the waiting entry");
        iq.mark_issued(0, &mut act);
        for _ in 0..4 {
            iq.tick(6, &mut act);
            iq.audit().expect("compaction keeps the index");
        }
        assert_eq!(iq.occupancy(), 1, "both issued entries compacted away");
        assert_eq!(iq.entry(0).map(|e| (e.rob_id, e.src1_tag)), Some((5, Some(9))));
        iq.broadcast(9, &mut act);
        assert_eq!(iq.ready_positions().collect::<Vec<_>>(), vec![0]);
        iq.audit().expect("the woken entry leaves the table");
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
        iq.audit().expect("restored index");
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
