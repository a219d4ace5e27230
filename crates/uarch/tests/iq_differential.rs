//! Differential test of the rank-ordered issue queue against a reference
//! model: the scan-based queue over physical slots that the bit-indexed
//! designs replaced, kept here verbatim in logic.
//!
//! The queues are driven through the same random operation sequences;
//! after every operation their slots, mode, ready order, insert
//! admission, occupancy and activity counters must agree exactly, and each
//! queue under test must audit clean. Mid-sequence, a queue may be
//! snapshotted and restored into a fresh one that is then driven
//! alongside the original, and the mode may toggle while the queue is
//! full, so the rotation of a whole queue's lanes and masks is covered.
//!
//! Entry ids are recycled the way the pipeline's active list recycles
//! them, so a new waiting entry often shares its id with an issued or
//! invalid entry still lingering in the queue.

use powerbalance_uarch::{EntryState, IqActivity, IqEntry, IqMode, IssueQueue};
use proptest::prelude::*;

/// The scan-based compacting issue queue: every operation walks the slots.
mod reference {
    use powerbalance_uarch::{EntryState, IqActivity, IqEntry, IqMode, IqState};

    #[derive(Debug, Clone)]
    pub struct ReferenceQueue {
        slots: Vec<Option<IqEntry>>,
        mode: IqMode,
        replay_window: u32,
        occupancy: usize,
    }

    impl ReferenceQueue {
        pub fn new(size: usize) -> Self {
            ReferenceQueue {
                slots: vec![None; size],
                mode: IqMode::Normal,
                replay_window: 2,
                occupancy: 0,
            }
        }

        pub fn set_replay_window(&mut self, cycles: u32) {
            self.replay_window = cycles;
        }

        pub fn occupancy(&self) -> usize {
            self.occupancy
        }

        pub fn set_mode(&mut self, mode: IqMode) {
            self.mode = mode;
        }

        pub fn position_of_rank(&self, rank: usize) -> usize {
            let s = self.slots.len();
            match self.mode {
                IqMode::Normal => rank,
                IqMode::Toggled => (s / 2 + rank) % s,
            }
        }

        fn half_of(&self, position: usize) -> usize {
            usize::from(position >= self.slots.len() / 2)
        }

        pub fn can_insert(&self) -> bool {
            let s = self.slots.len();
            if self.occupancy == s {
                return false;
            }
            match (0..s).rev().find(|&r| self.slots[self.position_of_rank(r)].is_some()) {
                Some(last) => last + 1 < s,
                None => true,
            }
        }

        pub fn insert(&mut self, entry: IqEntry, activity: &mut IqActivity) -> bool {
            let s = self.slots.len();
            if self.occupancy == s {
                return false;
            }
            let mut insert_rank = 0;
            for rank in (0..s).rev() {
                if self.slots[self.position_of_rank(rank)].is_some() {
                    insert_rank = rank + 1;
                    break;
                }
            }
            if insert_rank >= s {
                return false;
            }
            let pos = self.position_of_rank(insert_rank);
            self.slots[pos] = Some(entry);
            self.occupancy += 1;
            activity.inserts += 1;
            activity.payload_accesses += 1;
            true
        }

        pub fn ready_positions(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.slots.len()).filter_map(move |rank| self.ready_at_rank(rank))
        }

        pub fn ready_at_rank(&self, rank: usize) -> Option<usize> {
            if rank >= self.slots.len() {
                return None;
            }
            let pos = self.position_of_rank(rank);
            match &self.slots[pos] {
                Some(e) if e.is_ready() => Some(pos),
                _ => None,
            }
        }

        pub fn mark_issued(&mut self, position: usize, activity: &mut IqActivity) {
            let entry = self.slots[position].as_mut().expect("mark_issued on empty slot");
            assert!(entry.is_ready(), "mark_issued on non-ready entry");
            entry.state = EntryState::Issued { age: 0 };
            activity.payload_accesses += 1;
            activity.selects += 1;
        }

        pub fn broadcast(&mut self, rob_id: u32, activity: &mut IqActivity) {
            activity.broadcasts += 1;
            for slot in self.slots.iter_mut().flatten() {
                if slot.src1_tag == Some(rob_id) {
                    slot.src1_ready = true;
                    slot.src1_tag = None;
                }
                if slot.src2_tag == Some(rob_id) {
                    slot.src2_ready = true;
                    slot.src2_tag = None;
                }
            }
        }

        pub fn tick(&mut self, max_compact: usize, activity: &mut IqActivity) {
            activity.gating_cycles += 1;
            if self.occupancy == 0 {
                return;
            }
            for slot in self.slots.iter_mut().flatten() {
                if let EntryState::Issued { age } = slot.state {
                    if age + 1 >= self.replay_window {
                        slot.state = EntryState::Invalid;
                    } else {
                        slot.state = EntryState::Issued { age: age + 1 };
                    }
                }
            }
            let s = self.slots.len();
            let Some(last_occ) =
                (0..s).rev().find(|&r| self.slots[self.position_of_rank(r)].is_some())
            else {
                return;
            };
            let mut gap = 0usize;
            let mut removed = 0usize;
            let mut wrapped = false;
            for rank in 0..=last_occ {
                let pos = self.position_of_rank(rank);
                let is_invalid =
                    matches!(self.slots[pos], Some(IqEntry { state: EntryState::Invalid, .. }));
                if self.slots[pos].is_none() {
                    gap += 1;
                    continue;
                }
                if is_invalid && removed < max_compact {
                    self.slots[pos] = None;
                    self.occupancy -= 1;
                    removed += 1;
                    gap += 1;
                    activity.counter_entries[self.half_of(pos)] += 1;
                    continue;
                }
                let shift = gap.min(max_compact);
                if shift == 0 {
                    continue;
                }
                let dest = self.position_of_rank(rank - shift);
                if dest > pos {
                    if wrapped {
                        break;
                    }
                    wrapped = true;
                }
                let entry = self.slots[pos].take().expect("checked occupied");
                assert!(self.slots[dest].is_none(), "simultaneous moves cannot collide");
                self.slots[dest] = Some(entry);
                let from_half = self.half_of(pos);
                activity.compact_moves[from_half] += 1;
                activity.mux_selects[from_half] += 1;
                activity.counter_entries[from_half] += 1;
                if dest > pos {
                    activity.long_moves[self.half_of(dest)] += 1;
                }
            }
        }

        pub fn snapshot(&self) -> IqState {
            IqState {
                slots: self.slots.clone(),
                mode: self.mode,
                replay_window: self.replay_window,
            }
        }

        pub fn restore(&mut self, state: &IqState) {
            assert_eq!(state.slots.len(), self.slots.len());
            self.slots = state.slots.clone();
            self.mode = state.mode;
            self.replay_window = state.replay_window;
            self.occupancy = self.slots.iter().filter(|s| s.is_some()).count();
        }

        pub fn evict(&mut self, rob_id: u32) {
            for slot in self.slots.iter_mut() {
                if matches!(slot, Some(e) if e.rob_id == rob_id) {
                    *slot = None;
                    self.occupancy -= 1;
                }
            }
        }
    }
}

use reference::ReferenceQueue;

/// Active-list ids as the pipeline hands them out: a ring of `size` slots
/// allocated at the tail and freed in order at the head. An instruction
/// retires once it has completed, which needs it issued; its queue entry
/// may linger after that, issued or invalid, while its id is reused.
#[derive(Debug, Clone, Copy)]
struct ActiveList {
    size: u32,
    head: u32,
    len: u32,
}

impl ActiveList {
    fn alloc(&mut self) -> Option<u32> {
        (self.len < self.size).then(|| {
            self.len += 1;
            (self.head + self.len - 1) % self.size
        })
    }

    /// Undoes the last `alloc` (dispatch allocates only what it inserts).
    fn unalloc(&mut self) {
        self.len -= 1;
    }

    /// Frees the oldest id unless its entry still waits: on an operand, or
    /// to issue.
    fn retire(&mut self, iq: &IssueQueue) {
        let head = self.head;
        let waits = |e: &IqEntry| {
            e.state == EntryState::Waiting || e.src1_tag.is_some() || e.src2_tag.is_some()
        };
        if self.len > 0 && !iq.entries().any(|(_, e)| e.rob_id == head && waits(&e)) {
            self.head = (self.head + 1) % self.size;
            self.len -= 1;
        }
    }
}

/// One operand as drawn: a producer tag (from a small range, so tags
/// repeat and both operands often wait on the same producer) and whether
/// the ready flag disagrees with the tag (a state the pipeline never
/// builds, but the queue's API accepts).
#[derive(Debug, Clone, Copy)]
struct Operand {
    tag: Option<u32>,
    odd_ready: bool,
}

impl Operand {
    fn ready(self) -> bool {
        self.tag.is_none() != self.odd_ready
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Operand, Operand, bool),
    Retire,
    IssueNth(usize),
    Broadcast(u32),
    Tick(usize),
    ReplayWindow(u32),
    Toggle,
    Evict(u32),
    SnapshotRestore,
    RestoreAlongside,
    FillAndToggle,
}

fn operand() -> impl Strategy<Value = Operand> {
    (0u32..16, 0u32..10)
        .prop_map(|(t, odd)| Operand { tag: (t < 10).then_some(t), odd_ready: odd == 0 })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (operand(), operand(), any::<bool>()).prop_map(|(a, b, m)| Op::Insert(a, b, m)),
        4 => Just(Op::Retire),
        4 => (0usize..64).prop_map(Op::IssueNth),
        3 => (0u32..12).prop_map(Op::Broadcast),
        5 => (0usize..=6).prop_map(Op::Tick),
        1 => (1u32..=3).prop_map(Op::ReplayWindow),
        1 => Just(Op::Toggle),
        1 => (0u32..128).prop_map(Op::Evict),
        1 => Just(Op::SnapshotRestore),
        1 => Just(Op::RestoreAlongside),
        1 => Just(Op::FillAndToggle),
    ]
}

fn size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(4usize), Just(8), Just(32), Just(64)]
}

/// Active-list sizes: small rings reuse ids within a few inserts; rings
/// larger than the biggest queue let every queue size fill up.
fn ring_size() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..=12, 80u32..=128]
}

/// Asserts that the two queues are indistinguishable.
fn agree(
    iq: &IssueQueue,
    reference: &ReferenceQueue,
    act: &IqActivity,
    ref_act: &IqActivity,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(iq.snapshot(), reference.snapshot(), "slots differ after step {}", step);
    let ready: Vec<usize> = iq.ready_positions().collect();
    let ref_ready: Vec<usize> = reference.ready_positions().collect();
    prop_assert_eq!(ready, ref_ready, "ready order differs after step {}", step);
    for rank in 0..=iq.size() {
        prop_assert_eq!(iq.ready_at_rank(rank), reference.ready_at_rank(rank));
    }
    prop_assert_eq!(
        iq.can_insert(),
        reference.can_insert(),
        "admission differs after step {}",
        step
    );
    prop_assert_eq!(iq.occupancy(), reference.occupancy(), "occupancy differs after step {}", step);
    prop_assert_eq!(*act, *ref_act, "activity differs after step {}", step);
    if let Err(msg) = iq.audit() {
        return Err(TestCaseError::fail(format!("index audit after step {step}: {msg}")));
    }
    Ok(())
}

/// The entry an insert of operands `a` and `b` builds.
fn entry(rob_id: u32, a: Operand, b: Operand, is_mem: bool) -> IqEntry {
    IqEntry {
        rob_id,
        state: EntryState::Waiting,
        src1_ready: a.ready(),
        src2_ready: b.ready(),
        src1_tag: a.tag,
        src2_tag: b.tag,
        is_mem,
        needs_fp_mul: false,
    }
}

/// The queues under test, each with its own activity counters: the
/// original, and any restored from its snapshots along the way.
type UnderTest = Vec<(IssueQueue, IqActivity)>;

/// Inserts `entry` into every queue and the reference; all must agree on
/// whether it fits.
fn insert_everywhere(
    queues: &mut UnderTest,
    reference: &mut ReferenceQueue,
    ref_act: &mut IqActivity,
    entry: IqEntry,
) -> Result<bool, TestCaseError> {
    let inserted = reference.insert(entry, ref_act);
    for (iq, act) in queues.iter_mut() {
        prop_assert_eq!(iq.insert(entry, act), inserted);
    }
    Ok(inserted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation leaves each queue under test exactly where the
    /// scan-based reference leaves it, including every activity counter
    /// the power model reads.
    #[test]
    fn indexed_queue_matches_the_scan_based_reference(
        size in size(),
        window in 1u32..=3,
        ids in ring_size(),
        ops in prop::collection::vec(op(), 1..300),
    ) {
        let mut queues: UnderTest = vec![(IssueQueue::new(size), IqActivity::default())];
        let mut reference = ReferenceQueue::new(size);
        queues[0].0.set_replay_window(window);
        reference.set_replay_window(window);
        let mut ref_act = IqActivity::default();
        let mut mode = IqMode::Normal;
        let mut active = ActiveList { size: ids, head: 0, len: 0 };

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(a, b, is_mem) => {
                    let Some(rob_id) = active.alloc() else { continue };
                    let entry = entry(rob_id, a, b, is_mem);
                    if !insert_everywhere(&mut queues, &mut reference, &mut ref_act, entry)? {
                        active.unalloc();
                    }
                }
                Op::Retire => active.retire(&queues[0].0),
                Op::IssueNth(n) => {
                    let ready: Vec<usize> = queues[0].0.ready_positions().collect();
                    if !ready.is_empty() {
                        let pos = ready[n % ready.len()];
                        for (iq, act) in &mut queues {
                            iq.mark_issued(pos, act);
                        }
                        reference.mark_issued(pos, &mut ref_act);
                    }
                }
                Op::Broadcast(tag) => {
                    for (iq, act) in &mut queues {
                        iq.broadcast(tag, act);
                    }
                    reference.broadcast(tag, &mut ref_act);
                }
                Op::Tick(max_compact) => {
                    for (iq, act) in &mut queues {
                        iq.tick(max_compact, act);
                    }
                    reference.tick(max_compact, &mut ref_act);
                }
                Op::ReplayWindow(cycles) => {
                    for (iq, _) in &mut queues {
                        iq.set_replay_window(cycles);
                    }
                    reference.set_replay_window(cycles);
                }
                Op::Toggle => {
                    mode = mode.flipped();
                    for (iq, _) in &mut queues {
                        iq.set_mode(mode);
                    }
                    reference.set_mode(mode);
                }
                Op::Evict(n) => {
                    let rob_id = n % active.size;
                    for (iq, _) in &mut queues {
                        iq.evict(rob_id);
                    }
                    reference.evict(rob_id);
                }
                Op::SnapshotRestore => {
                    // Resume everything from the captured state in fresh
                    // queues: the masks and lanes must rebuild from the
                    // slots alone.
                    let state = queues[0].0.snapshot();
                    for (iq, _) in &mut queues {
                        *iq = IssueQueue::new(size);
                        iq.restore(&state).expect("same capacity");
                    }
                    reference = ReferenceQueue::new(size);
                    reference.restore(&state);
                }
                Op::RestoreAlongside => {
                    // A restored copy joins the original and must stay in
                    // step with it from here on.
                    if queues.len() < 3 {
                        let (original, act) = &queues[0];
                        let mut restored = IssueQueue::new(size);
                        restored.restore(&original.snapshot()).expect("same capacity");
                        let act = *act;
                        queues.push((restored, act));
                    }
                }
                Op::FillAndToggle => {
                    // Fill with ready entries until the queue refuses one,
                    // then toggle with every rank occupied.
                    let ready = Operand { tag: None, odd_ready: false };
                    while let Some(rob_id) = active.alloc() {
                        let entry = entry(rob_id, ready, ready, rob_id % 3 == 0);
                        if !insert_everywhere(&mut queues, &mut reference, &mut ref_act, entry)? {
                            active.unalloc();
                            break;
                        }
                    }
                    mode = mode.flipped();
                    for (iq, _) in &mut queues {
                        iq.set_mode(mode);
                    }
                    reference.set_mode(mode);
                }
            }
            for (iq, act) in &queues {
                agree(iq, &reference, act, &ref_act, step)?;
            }
        }
    }
}

/// A full queue with every kind of entry (waiting on one or two tags,
/// issued at several ages, invalid, memory ops) toggles back and forth
/// exactly as the reference does, and wakes and compacts alike afterwards.
#[test]
fn toggling_a_full_queue_rotates_every_lane_and_mask() {
    for size in [4, 32, 64] {
        let mut iq = IssueQueue::new(size);
        let mut reference = ReferenceQueue::new(size);
        iq.set_replay_window(3);
        reference.set_replay_window(3);
        let (mut act, mut ref_act) = (IqActivity::default(), IqActivity::default());
        for id in 0..size as u32 {
            let tag = |k: u32| (id % k == 0).then_some(1000 + id % 7);
            let entry = IqEntry {
                rob_id: id,
                state: EntryState::Waiting,
                src1_ready: tag(2).is_none(),
                src2_ready: tag(3).is_none(),
                src1_tag: tag(2),
                src2_tag: tag(3),
                is_mem: id % 5 == 0,
                needs_fp_mul: false,
            };
            assert!(iq.insert(entry, &mut act));
            assert!(reference.insert(entry, &mut ref_act));
        }
        assert!(!iq.can_insert(), "the queue is full");
        let ready: Vec<usize> = iq.ready_positions().collect();
        for &pos in ready.iter().step_by(2) {
            iq.mark_issued(pos, &mut act);
            reference.mark_issued(pos, &mut ref_act);
        }
        iq.tick(0, &mut act);
        reference.tick(0, &mut ref_act);
        for mode in [IqMode::Toggled, IqMode::Normal, IqMode::Toggled] {
            iq.set_mode(mode);
            reference.set_mode(mode);
            assert_eq!(iq.snapshot(), reference.snapshot(), "size {size}, {mode:?}");
            iq.audit().expect("rotated masks stay consistent");
        }
        for tag in 1000..1007 {
            iq.broadcast(tag, &mut act);
            reference.broadcast(tag, &mut ref_act);
        }
        for _ in 0..4 {
            iq.tick(2, &mut act);
            reference.tick(2, &mut ref_act);
        }
        assert_eq!(iq.snapshot(), reference.snapshot(), "size {size} after wakeup and compaction");
        assert_eq!(act, ref_act);
    }
}
