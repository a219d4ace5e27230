//! The active list (reorder buffer) and rename map.

use powerbalance_isa::{ArchReg, MicroOp, TOTAL_ARCH_REGS};
use serde::{Deserialize, Serialize};

/// Lifecycle state of an active-list entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobState {
    /// Dispatched into the issue queue, not yet issued.
    Dispatched,
    /// Issued to a functional unit, executing.
    Issued,
    /// Finished execution; eligible for in-order commit.
    Completed,
}

/// One in-flight instruction in the active list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobEntry {
    /// Front-end unique id (used to match fetch redirects).
    pub uid: u64,
    /// The instruction.
    pub op: MicroOp,
    /// Lifecycle state.
    pub state: RobState,
    /// This branch was mispredicted at fetch; its completion un-stalls the
    /// front end.
    pub is_redirect: bool,
}

/// Serializable state of an [`ActiveList`], captured by
/// [`ActiveList::snapshot`] and reapplied with [`ActiveList::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActiveListState {
    /// Slot contents by physical index (`None` = free).
    pub entries: Vec<Option<RobEntry>>,
    /// Oldest in-flight slot.
    pub head: usize,
    /// Next allocation slot.
    pub tail: usize,
}

/// Circular active list of in-flight instructions.
///
/// Allocation is in program order at dispatch; retirement is in order from
/// the head at commit. Entry indices (`rob_id`) are physical slot numbers;
/// they double as wakeup tags because a slot is never reused while any
/// consumer still waits on it (consumers' tags are cleared at the producer's
/// writeback, which precedes its commit).
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{ActiveList, RobState};
/// use powerbalance_isa::{MicroOp, OpClass};
///
/// let mut rob = ActiveList::new(4);
/// let id = rob.alloc(1, MicroOp::new(OpClass::IntAlu), false).expect("space");
/// rob.set_state(id, RobState::Completed);
/// assert_eq!(rob.commit_ready(), Some(id));
/// rob.retire();
/// assert!(rob.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ActiveList {
    entries: Vec<Option<RobEntry>>,
    head: usize,
    tail: usize,
    len: usize,
}

impl ActiveList {
    /// Creates an empty active list with `size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "active list must be non-empty");
        ActiveList { entries: vec![None; size], head: 0, tail: 0, len: 0 }
    }

    /// Capacity.
    #[must_use]
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// Entries currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when no further instruction can be dispatched.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.entries.len()
    }

    /// Allocates the next entry in program order; returns its `rob_id`,
    /// or `None` when full.
    pub fn alloc(&mut self, uid: u64, op: MicroOp, is_redirect: bool) -> Option<u32> {
        if self.is_full() {
            return None;
        }
        let id = self.tail;
        debug_assert!(self.entries[id].is_none());
        self.entries[id] = Some(RobEntry { uid, op, state: RobState::Dispatched, is_redirect });
        self.tail = (self.tail + 1) % self.entries.len();
        self.len += 1;
        Some(id as u32)
    }

    /// Immutable access to an entry.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[must_use]
    pub fn entry(&self, rob_id: u32) -> &RobEntry {
        self.entries[rob_id as usize].as_ref().expect("rob_id refers to a freed entry")
    }

    /// Updates the lifecycle state of an entry.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn set_state(&mut self, rob_id: u32, state: RobState) {
        self.entries[rob_id as usize].as_mut().expect("rob_id refers to a freed entry").state =
            state;
    }

    /// The head entry's id if it has completed and may retire.
    #[must_use]
    pub fn commit_ready(&self) -> Option<u32> {
        match &self.entries[self.head] {
            Some(e) if e.state == RobState::Completed => Some(self.head as u32),
            _ => None,
        }
    }

    /// Retires the head entry, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or the head has not completed.
    pub fn retire(&mut self) -> RobEntry {
        let entry = self.entries[self.head].take().expect("retire on empty active list");
        assert_eq!(entry.state, RobState::Completed, "in-order commit requires completion");
        self.head = (self.head + 1) % self.entries.len();
        self.len -= 1;
        entry
    }

    /// Captures the list's full state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> ActiveListState {
        ActiveListState { entries: self.entries.clone(), head: self.head, tail: self.tail }
    }

    /// Restores state captured by [`snapshot`](ActiveList::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if the captured slot count does not match this
    /// list's capacity, or head/tail fall outside it.
    pub fn restore(&mut self, state: &ActiveListState) -> Result<(), String> {
        if state.entries.len() != self.entries.len() {
            return Err(format!(
                "active-list snapshot has {} slots, list has {}",
                state.entries.len(),
                self.entries.len()
            ));
        }
        if state.head >= state.entries.len() || state.tail >= state.entries.len() {
            return Err("active-list snapshot head/tail out of range".into());
        }
        self.entries = state.entries.clone();
        self.head = state.head;
        self.tail = state.tail;
        self.len = self.entries.iter().filter(|e| e.is_some()).count();
        Ok(())
    }
}

/// Producer state of one architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
enum Producer {
    /// Value architecturally available.
    #[default]
    Ready,
    /// Being produced by the given active-list entry.
    InFlight(u32),
}

/// The rename map: architectural register -> in-flight producer.
///
/// At dispatch each source operand resolves either to *ready* or to the
/// `rob_id` of its producer (the wakeup tag). Each destination claims the
/// register; the claim is released at the producer's writeback.
///
/// The map derives the vendored serde traits so a [`snapshot`] of the whole
/// core can embed it directly.
///
/// [`snapshot`]: crate::Core::snapshot
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RenameMap {
    map: [Producer; TOTAL_ARCH_REGS as usize],
}

impl RenameMap {
    /// Creates a map with all registers ready.
    #[must_use]
    pub fn new() -> Self {
        RenameMap { map: [Producer::Ready; TOTAL_ARCH_REGS as usize] }
    }

    /// Resolves a source operand: `None` if the value is ready, or the
    /// producer's `rob_id` to wait on.
    #[must_use]
    pub fn resolve(&self, reg: ArchReg) -> Option<u32> {
        match self.map[reg.flat_index()] {
            Producer::Ready => None,
            Producer::InFlight(id) => Some(id),
        }
    }

    /// Active-list indices of every in-flight producer the map names.
    pub(crate) fn producers(&self) -> impl Iterator<Item = u32> + '_ {
        self.map.iter().filter_map(|p| match p {
            Producer::Ready => None,
            Producer::InFlight(id) => Some(*id),
        })
    }

    /// Records `rob_id` as the latest producer of `reg`.
    pub fn claim(&mut self, reg: ArchReg, rob_id: u32) {
        self.map[reg.flat_index()] = Producer::InFlight(rob_id);
    }

    /// Releases the claim at the producer's writeback, if it still holds it
    /// (a younger producer may have reclaimed the register).
    pub fn release(&mut self, reg: ArchReg, rob_id: u32) {
        if self.map[reg.flat_index()] == Producer::InFlight(rob_id) {
            self.map[reg.flat_index()] = Producer::Ready;
        }
    }
}

impl Default for RenameMap {
    fn default() -> Self {
        RenameMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance_isa::OpClass;

    fn op() -> MicroOp {
        MicroOp::new(OpClass::IntAlu)
    }

    #[test]
    fn alloc_until_full_then_retire_in_order() {
        let mut rob = ActiveList::new(3);
        let a = rob.alloc(0, op(), false).expect("space");
        let b = rob.alloc(1, op(), false).expect("space");
        let c = rob.alloc(2, op(), false).expect("space");
        assert!(rob.is_full());
        assert_eq!(rob.alloc(3, op(), false), None);

        // Completing out of order does not allow out-of-order commit.
        rob.set_state(c, RobState::Completed);
        assert_eq!(rob.commit_ready(), None);
        rob.set_state(a, RobState::Completed);
        assert_eq!(rob.commit_ready(), Some(a));
        let retired = rob.retire();
        assert_eq!(retired.uid, 0);

        rob.set_state(b, RobState::Completed);
        assert_eq!(rob.commit_ready(), Some(b));
        let _ = rob.retire();
        let _ = rob.retire();
        assert!(rob.is_empty());
    }

    #[test]
    fn slots_are_reused_circularly() {
        let mut rob = ActiveList::new(2);
        for i in 0..10 {
            let id = rob.alloc(i, op(), false).expect("space");
            rob.set_state(id, RobState::Completed);
            let _ = rob.retire();
        }
        assert!(rob.is_empty());
    }

    #[test]
    #[should_panic(expected = "in-order commit")]
    fn retire_requires_completion() {
        let mut rob = ActiveList::new(2);
        let _ = rob.alloc(0, op(), false);
        let _ = rob.retire();
    }

    #[test]
    fn rename_resolve_claim_release() {
        let mut map = RenameMap::new();
        let r1 = ArchReg::int(1);
        assert_eq!(map.resolve(r1), None, "initially ready");
        map.claim(r1, 7);
        assert_eq!(map.resolve(r1), Some(7));
        map.release(r1, 7);
        assert_eq!(map.resolve(r1), None);
    }

    #[test]
    fn release_ignores_stale_producer() {
        let mut map = RenameMap::new();
        let r1 = ArchReg::int(1);
        map.claim(r1, 7);
        map.claim(r1, 9); // younger producer reclaims
        map.release(r1, 7); // stale release must not clear
        assert_eq!(map.resolve(r1), Some(9));
        map.release(r1, 9);
        assert_eq!(map.resolve(r1), None);
    }

    #[test]
    fn active_list_snapshot_round_trips() {
        let mut rob = ActiveList::new(4);
        let a = rob.alloc(0, op(), false).expect("space");
        let _ = rob.alloc(1, op(), true).expect("space");
        rob.set_state(a, RobState::Completed);
        let _ = rob.retire();
        let state = rob.snapshot();

        let mut fresh = ActiveList::new(4);
        fresh.restore(&state).expect("same capacity");
        assert_eq!(fresh.len(), rob.len());
        assert_eq!(fresh.snapshot(), state);
        // Allocation continues from the captured tail.
        assert_eq!(fresh.alloc(2, op(), false), rob.alloc(2, op(), false));

        let mut wrong = ActiveList::new(8);
        assert!(wrong.restore(&state).is_err());
    }

    #[test]
    fn rename_map_serde_round_trips() {
        use serde::{Deserialize, Serialize};
        let mut map = RenameMap::new();
        map.claim(ArchReg::int(3), 11);
        map.claim(ArchReg::fp(7), 4);
        let round = RenameMap::deserialize(&map.serialize()).expect("round trip");
        assert_eq!(round, map);
    }

    #[test]
    fn int_and_fp_registers_are_independent() {
        let mut map = RenameMap::new();
        map.claim(ArchReg::int(3), 1);
        assert_eq!(map.resolve(ArchReg::fp(3)), None);
        assert_eq!(map.resolve(ArchReg::int(3)), Some(1));
    }
}
