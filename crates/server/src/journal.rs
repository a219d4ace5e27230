//! Crash-safe campaign journal: an append-only JSON-lines log of campaign
//! lifecycle records, fsync'd at record boundaries.
//!
//! ## Record format (DESIGN.md §16)
//!
//! One [`Record`] per line, serialized with the in-repo `serde::json`
//! (compact form — no embedded newlines, so lines are self-delimiting):
//!
//! ```json
//! {"version":1,"seq":3,"event":{"Completed":{"id":2}}}
//! ```
//!
//! * `version` — [`JOURNAL_VERSION`]; records from another version stop
//!   replay at that point (treated as corruption, not silently skipped).
//! * `seq` — strictly increasing per file, starting at 1. A gap or
//!   regression marks the spot where a torn write landed.
//! * `event` — the lifecycle transition; `Submitted` carries the full
//!   [`CampaignSpec`] so recovery can re-run without the client.
//!
//! ## Durability and recovery
//!
//! Every append writes one full line and calls `sync_data` before
//! returning, so a record either exists completely or not at all; a crash
//! can only tear the *final* line. Replay accepts the longest valid prefix
//! and discards the tail from the first unparsable/out-of-order record
//! (counted in [`Recovery::tail_discarded`]) — the same "heal, don't
//! fail" contract the `WarmStartCache` applies to corrupt checkpoints.
//!
//! Replay is order-insensitive at the campaign level: a terminal event
//! wins over `Submitted`/`Started` no matter where it appears, which makes
//! the live system free to append `Submitted` from the submitting thread
//! and `Started`/terminal events from worker threads without an ordering
//! handshake.
//!
//! After replay the journal is *compacted*: the file is atomically
//! rewritten (temp file + rename + directory-independent fsync) to hold
//! only the `Submitted` records of still-pending campaigns, re-sequenced
//! from 1. Terminal tombstones therefore survive exactly one restart —
//! long enough for clients of the previous incarnation to observe the
//! outcome — and the log stays proportional to live work instead of
//! growing forever.

use powerbalance_harness::CampaignSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version stamped on every journal record. Bump on any incompatible
/// change to [`Record`] or [`Event`]; replay stops at the first record
/// from a different version.
pub const JOURNAL_VERSION: u32 = 1;

/// One journal line: a versioned, sequenced lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Strictly increasing per-file sequence number, from 1.
    pub seq: u64,
    /// The lifecycle transition.
    pub event: Event,
}

/// A campaign lifecycle transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A campaign entered the queue. Carries the full spec so recovery
    /// can re-run it without the submitting client.
    Submitted {
        /// Campaign id (stable across restarts).
        id: u64,
        /// The submitted spec.
        spec: CampaignSpec,
    },
    /// The campaign left the queue and began executing. Informational
    /// for replay: a started-but-unfinished campaign is re-queued exactly
    /// like a never-started one.
    Started {
        /// Campaign id.
        id: u64,
    },
    /// The campaign completed successfully.
    Completed {
        /// Campaign id.
        id: u64,
    },
    /// The campaign failed.
    Failed {
        /// Campaign id.
        id: u64,
        /// Failure description.
        error: String,
    },
    /// The campaign was cancelled.
    Cancelled {
        /// Campaign id.
        id: u64,
    },
}

impl Event {
    fn id(&self) -> u64 {
        match self {
            Event::Submitted { id, .. }
            | Event::Started { id }
            | Event::Completed { id }
            | Event::Failed { id, .. }
            | Event::Cancelled { id } => *id,
        }
    }
}

/// How a recovered campaign ended, for tombstone records.
#[derive(Debug, Clone, PartialEq)]
pub enum TerminalKind {
    /// Finished successfully. The result itself is not journaled, so a
    /// recovered `Completed` campaign reports its state but serves `410
    /// Gone` for the result body.
    Completed,
    /// Failed with the recorded error.
    Failed(String),
    /// Cancelled before finishing.
    Cancelled,
}

/// What replaying a journal found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Campaigns with no terminal record, in ascending id order:
    /// re-queue these. Started-but-unfinished campaigns appear here too —
    /// that is the crash-recovery re-queue.
    pub pending: Vec<(u64, CampaignSpec)>,
    /// Campaigns that did reach a terminal state, as tombstones: id, how
    /// they ended, and the spec when its `Submitted` record survived.
    pub terminal: Vec<(u64, TerminalKind, Option<CampaignSpec>)>,
    /// Records discarded from the corrupt tail, if any.
    pub tail_discarded: u64,
    /// Highest campaign id seen anywhere in the log (0 if none); the
    /// next fresh id must be greater.
    pub max_id: u64,
}

struct Writer {
    file: File,
    next_seq: u64,
    depth: u64,
}

/// An open, live journal. Appends are serialized and fsync'd; `depth`
/// tracks submitted-but-not-terminal campaigns for `/metrics`.
pub struct Journal {
    path: PathBuf,
    writer: Mutex<Writer>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

/// File name of the journal inside its directory.
const JOURNAL_FILE: &str = "journal.log";

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, replays it, and
    /// compacts the file down to still-pending submissions.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or rewriting the
    /// journal. A *corrupt* journal is not an error — the valid prefix is
    /// recovered and the damage reported in [`Recovery::tail_discarded`].
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let recovery = replay(&path);

        // Compact: atomically rewrite the file with only the pending
        // submissions, re-sequenced from 1. This both truncates any
        // corrupt tail (so it cannot confuse a later open) and drops
        // tombstones after the one restart that serves them.
        let tmp = dir.join("journal.log.tmp");
        let mut seq = 0u64;
        {
            let mut out = File::create(&tmp)?;
            for (id, spec) in &recovery.pending {
                seq += 1;
                let record = Record {
                    version: JOURNAL_VERSION,
                    seq,
                    event: Event::Submitted { id: *id, spec: spec.clone() },
                };
                writeln!(out, "{}", serde::json::to_string(&record))?;
            }
            out.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;

        let file = OpenOptions::new().append(true).open(&path)?;
        let journal = Journal {
            path,
            writer: Mutex::new(Writer {
                file,
                next_seq: seq + 1,
                depth: recovery.pending.len() as u64,
            }),
        };
        Ok((journal, recovery))
    }

    /// Appends one event and fsyncs before returning. The record is
    /// durable (or absent) at every crash point.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors; on error the in-memory sequence is
    /// not advanced, so a later append reuses the number (replay treats a
    /// torn duplicate as tail corruption, which is the safe reading).
    pub fn append(&self, event: Event) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let record = Record { version: JOURNAL_VERSION, seq: writer.next_seq, event };
        let line = serde::json::to_string(&record);
        writeln!(writer.file, "{line}")?;
        writer.file.sync_data()?;
        writer.next_seq += 1;
        match &record.event {
            Event::Submitted { .. } => writer.depth += 1,
            Event::Completed { .. } | Event::Failed { .. } | Event::Cancelled { .. } => {
                writer.depth = writer.depth.saturating_sub(1);
            }
            Event::Started { .. } => {}
        }
        Ok(())
    }

    /// Submitted-but-not-terminal campaigns currently recorded — the
    /// journal's live depth, exported as a `/metrics` gauge.
    #[must_use]
    pub fn depth(&self) -> u64 {
        self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner).depth
    }

    /// Path of the journal file on disk.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Replays `path` (absent file = empty journal) into a [`Recovery`].
fn replay(path: &Path) -> Recovery {
    let mut recovery = Recovery::default();
    let file = match File::open(path) {
        Ok(file) => file,
        Err(_) => return recovery,
    };

    // Campaign id -> latest known state. Terminal wins over everything;
    // replay order between Submitted/Started and a terminal record does
    // not matter (the live system appends them from different threads).
    let mut specs: HashMap<u64, CampaignSpec> = HashMap::new();
    let mut terminal: HashMap<u64, TerminalKind> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();

    let mut expected_seq = 1u64;
    let mut lines = BufReader::new(file).split(b'\n');
    let mut corrupt = 0u64;
    for line in &mut lines {
        let Ok(line) = line else {
            corrupt += 1;
            break;
        };
        if line.is_empty() {
            continue;
        }
        let parsed = std::str::from_utf8(&line)
            .ok()
            .and_then(|text| serde::json::from_str::<Record>(text).ok());
        let Some(record) = parsed else {
            corrupt += 1;
            break;
        };
        if record.version != JOURNAL_VERSION || record.seq != expected_seq {
            corrupt += 1;
            break;
        }
        expected_seq += 1;
        let id = record.event.id();
        recovery.max_id = recovery.max_id.max(id);
        match record.event {
            Event::Submitted { id, spec } => {
                if !specs.contains_key(&id) && !terminal.contains_key(&id) {
                    order.push(id);
                }
                specs.entry(id).or_insert(spec);
            }
            Event::Started { .. } => {}
            Event::Completed { id } => {
                terminal.insert(id, TerminalKind::Completed);
            }
            Event::Failed { id, error } => {
                terminal.insert(id, TerminalKind::Failed(error));
            }
            Event::Cancelled { id } => {
                terminal.insert(id, TerminalKind::Cancelled);
            }
        }
    }
    // Everything after the first bad record is tail damage: count it so
    // the operator sees the loss, but keep the valid prefix.
    recovery.tail_discarded = if corrupt > 0 { corrupt + lines.count() as u64 } else { 0 };

    let mut pending: Vec<(u64, CampaignSpec)> = Vec::new();
    for id in order {
        match terminal.remove(&id) {
            Some(kind) => recovery.terminal.push((id, kind, specs.remove(&id))),
            None => {
                if let Some(spec) = specs.remove(&id) {
                    pending.push((id, spec));
                }
            }
        }
    }
    // Terminal records whose Submitted line was lost to corruption (or
    // raced behind them) still tombstone: the id existed, only its spec
    // may be gone.
    let mut orphans: Vec<_> = terminal
        .into_iter()
        .map(|(id, kind)| {
            let spec = specs.remove(&id);
            (id, kind, spec)
        })
        .collect();
    orphans.sort_by_key(|(id, _, _)| *id);
    recovery.terminal.extend(orphans);
    recovery.terminal.sort_by_key(|(id, _, _)| *id);
    pending.sort_by_key(|(id, _)| *id);
    recovery.pending = pending;
    recovery
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> CampaignSpec {
        CampaignSpec::new(name)
            .config("base", powerbalance::SimConfig::default())
            .benchmark("gzip")
            .cycles(1000)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pb-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn round_trips_lifecycle_and_requeues_unfinished() {
        let dir = tempdir("lifecycle");
        {
            let (journal, recovery) = Journal::open(&dir).expect("open");
            assert!(recovery.pending.is_empty());
            journal.append(Event::Submitted { id: 1, spec: spec("a") }).unwrap();
            journal.append(Event::Submitted { id: 2, spec: spec("b") }).unwrap();
            journal.append(Event::Started { id: 1 }).unwrap();
            journal.append(Event::Completed { id: 1 }).unwrap();
            journal.append(Event::Started { id: 2 }).unwrap();
            assert_eq!(journal.depth(), 1);
            // Crash here: campaign 2 was leased/running but never finished.
        }
        let (journal, recovery) = Journal::open(&dir).expect("reopen");
        assert_eq!(recovery.max_id, 2);
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].0, 2);
        assert_eq!(recovery.pending[0].1.name, "b");
        assert_eq!(recovery.terminal.len(), 1);
        assert_eq!(recovery.terminal[0].0, 1);
        assert_eq!(recovery.terminal[0].1, TerminalKind::Completed);
        assert_eq!(recovery.terminal[0].2.as_ref().map(|s| s.name.as_str()), Some("a"));
        assert_eq!(recovery.tail_discarded, 0);
        assert_eq!(journal.depth(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_survive_exactly_one_restart() {
        let dir = tempdir("tombstone");
        {
            let (journal, _) = Journal::open(&dir).expect("open");
            journal.append(Event::Submitted { id: 7, spec: spec("x") }).unwrap();
            journal.append(Event::Failed { id: 7, error: "boom".into() }).unwrap();
        }
        let (_, recovery) = Journal::open(&dir).expect("first reopen");
        assert_eq!(recovery.terminal.len(), 1);
        assert_eq!(recovery.terminal[0].0, 7);
        assert_eq!(recovery.terminal[0].1, TerminalKind::Failed("boom".into()));
        let (_, recovery) = Journal::open(&dir).expect("second reopen");
        assert!(recovery.terminal.is_empty());
        assert!(recovery.pending.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_tail_heals_and_is_counted() {
        let dir = tempdir("garbage");
        {
            let (journal, _) = Journal::open(&dir).expect("open");
            journal.append(Event::Submitted { id: 1, spec: spec("a") }).unwrap();
            journal.append(Event::Submitted { id: 2, spec: spec("b") }).unwrap();
        }
        // Simulate a torn final write plus trailing noise.
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(file, "{{\"version\":1,\"seq\":3,\"event\":{{\"Comp").unwrap();
        writeln!(file, "not json at all").unwrap();
        drop(file);

        let (_, recovery) = Journal::open(&dir).expect("reopen over garbage");
        assert_eq!(recovery.pending.len(), 2);
        assert_eq!(recovery.tail_discarded, 2);
        // Compaction removed the damage: a second open is clean.
        let (_, recovery) = Journal::open(&dir).expect("clean reopen");
        assert_eq!(recovery.pending.len(), 2);
        assert_eq!(recovery.tail_discarded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_sequence_stops_replay() {
        let dir = tempdir("seq");
        {
            let (journal, _) = Journal::open(&dir).expect("open");
            journal.append(Event::Submitted { id: 1, spec: spec("a") }).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        // seq jumps 2 -> replay must stop before this record.
        let record = Record {
            version: JOURNAL_VERSION,
            seq: 5,
            event: Event::Submitted { id: 9, spec: spec("z") },
        };
        writeln!(file, "{}", serde::json::to_string(&record)).unwrap();
        drop(file);

        let (_, recovery) = Journal::open(&dir).expect("reopen");
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].0, 1);
        assert_eq!(recovery.tail_discarded, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_wins_regardless_of_record_order() {
        let dir = tempdir("order");
        {
            let (journal, _) = Journal::open(&dir).expect("open");
            // Terminal arrives before Submitted (threads race in the live
            // system); the campaign must still read as terminal.
            journal.append(Event::Cancelled { id: 3 }).unwrap();
            journal.append(Event::Submitted { id: 3, spec: spec("c") }).unwrap();
        }
        let (_, recovery) = Journal::open(&dir).expect("reopen");
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.terminal.len(), 1);
        assert_eq!(recovery.terminal[0].0, 3);
        assert_eq!(recovery.terminal[0].1, TerminalKind::Cancelled);
        assert_eq!(recovery.terminal[0].2.as_ref().map(|s| s.name.as_str()), Some("c"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
