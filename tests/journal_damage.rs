//! Property tests for crash-journal replay over damaged files.
//!
//! A valid six-record journal is damaged three ways — truncation at every
//! byte offset, random byte flips, and a random garbage tail — and then
//! reopened. Every damaged file must open (`Ok`, no panic), must not
//! bring back a pending campaign under an id the undamaged journal never
//! named, and must be healed by the compaction the open performs: an
//! immediate second open finds no tail damage.
//!
//! Records carry no checksum, so a flip inside a record can leave valid
//! JSON that names a different id (a `1` flipped to a `5`). For flips
//! the id check therefore allows the ids of the records the flips landed
//! in; everywhere else it is strict.

use powerbalance_harness::CampaignSpec;
use powerbalance_server::journal::{Event, Journal, Record};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn spec(name: &str) -> CampaignSpec {
    CampaignSpec::new(name)
        .config("base", powerbalance::SimConfig::default())
        .benchmark("gzip")
        .cycles(1_000)
}

/// A fresh scratch directory under the system temp dir.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "powerbalance-journal-damage-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

/// Writes the undamaged journal into `dir` — campaign 1 completed,
/// campaign 2 failed, campaign 3 still pending — and returns the journal
/// file's path and bytes.
fn pristine(dir: &Path) -> (PathBuf, Vec<u8>) {
    let (journal, _) = Journal::open(dir).expect("journal opens in an empty dir");
    for event in [
        Event::Submitted { id: 1, spec: spec("a") },
        Event::Submitted { id: 2, spec: spec("b") },
        Event::Started { id: 1 },
        Event::Submitted { id: 3, spec: spec("c") },
        Event::Completed { id: 1 },
        Event::Failed { id: 2, error: "boom".into() },
    ] {
        journal.append(event).expect("append works");
    }
    let path = journal.path().to_path_buf();
    let bytes = std::fs::read(&path).expect("journal is readable");
    (path, bytes)
}

/// The ids the undamaged journal names.
fn pristine_ids() -> BTreeSet<u64> {
    BTreeSet::from([1, 2, 3])
}

/// Installs `bytes` as the journal at `path` and checks the replay
/// contract: both opens succeed, every pending id is in `allowed`, and
/// the second open finds no tail damage.
fn check_replay(path: &Path, bytes: &[u8], allowed: &BTreeSet<u64>) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).expect("damaged journal is writable");
    let dir = path.parent().expect("journal lives in a directory");
    let (_, first) = Journal::open(dir).map_err(|e| TestCaseError::fail(format!("open: {e}")))?;
    for (id, _) in &first.pending {
        prop_assert!(allowed.contains(id), "pending id {} is not in {:?}", id, allowed);
    }
    let (_, second) =
        Journal::open(dir).map_err(|e| TestCaseError::fail(format!("reopen: {e}")))?;
    prop_assert_eq!(second.tail_discarded, 0, "compaction left damage behind");
    let ids =
        |pending: &[(u64, CampaignSpec)]| pending.iter().map(|(id, _)| *id).collect::<Vec<_>>();
    prop_assert_eq!(ids(&second.pending), ids(&first.pending));
    Ok(())
}

/// The id of every line of `bytes` that contains one of `offsets` and
/// still parses as a journal record.
fn ids_of_damaged_records(bytes: &[u8], offsets: &[usize]) -> BTreeSet<u64> {
    let mut ids = BTreeSet::new();
    let mut start = 0;
    for line in bytes.split(|b| *b == b'\n') {
        let end = start + line.len();
        if offsets.iter().any(|&at| (start..=end).contains(&at)) {
            let record = std::str::from_utf8(line)
                .ok()
                .and_then(|text| serde::json::from_str::<Record>(text).ok());
            if let Some(record) = record {
                ids.insert(match record.event {
                    Event::Submitted { id, .. }
                    | Event::Started { id }
                    | Event::Completed { id }
                    | Event::Failed { id, .. }
                    | Event::Cancelled { id } => id,
                });
            }
        }
        start = end + 1;
    }
    ids
}

#[test]
fn undamaged_journal_replays_its_pending_campaign() {
    let dir = tempdir("pristine");
    let (_, bytes) = pristine(&dir);
    assert_eq!(bytes.iter().filter(|b| **b == b'\n').count(), 6);
    let (_, recovery) = Journal::open(&dir).expect("journal reopens");
    assert_eq!(recovery.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![3]);
    assert_eq!(recovery.terminal.len(), 2);
    assert_eq!(recovery.tail_discarded, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_offset_heals() {
    let dir = tempdir("truncate");
    let (path, bytes) = pristine(&dir);
    for len in 0..=bytes.len() {
        if let Err(e) = check_replay(&path, &bytes[..len], &pristine_ids()) {
            panic!("truncated to {len} of {} bytes: {e}", bytes.len());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_flips_heal(flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..5)) {
        let dir = tempdir("flip");
        let (path, mut bytes) = pristine(&dir);
        let offsets: Vec<usize> = flips.iter().map(|(at, _)| at % bytes.len()).collect();
        for (&at, (_, mask)) in offsets.iter().zip(&flips) {
            bytes[at] ^= mask;
        }
        let mut allowed = pristine_ids();
        allowed.extend(ids_of_damaged_records(&bytes, &offsets));
        let outcome = check_replay(&path, &bytes, &allowed);
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
    }

    #[test]
    fn garbage_tail_heals(tail in prop::collection::vec(any::<u8>(), 1..512)) {
        let dir = tempdir("garbage");
        let (path, mut bytes) = pristine(&dir);
        bytes.extend_from_slice(&tail);
        let outcome = check_replay(&path, &bytes, &pristine_ids());
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
    }
}
