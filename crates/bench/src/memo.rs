//! Cross-run cell memoization by content hash (`figures --memo PATH`).
//!
//! The resume journal replays cells of **one interrupted experiment** — its
//! header pins seed, figure set, and scale, and a fresh run truncates it.
//! The memo store is the complementary index over the same
//! [`RecordLog`] format: it persists completed
//! [`SweepCell`](crate::sweep::SweepCell) outcomes **across** runs and
//! experiments, keyed by a content hash over everything the cell's bits
//! depend on:
//!
//! * the **code salt** ([`code_salt`](crate::journal::code_salt)), derived from the workspace sources
//!   at build time — any code change invalidates every stored cell at once;
//! * the **memo config hash** — the `figures` binary hashes the knobs that
//!   reshape cell inputs (scale, geometry, tenant count) but *not* the
//!   figure-id list, so `figures fig13 --memo m` reuses cells a
//!   `figures all --memo m` run already paid for;
//! * the experiment **seed** and the **chaos (fault-plan) parameters**;
//! * the cell's own coordinates: figure id, cell index, label.
//!
//! A sweep cell is a pure function of exactly those inputs (cells share no
//! state and draw randomness only from streams split from `(seed, figure,
//! cell index)`), so replaying a key hit is byte-identical to re-running
//! the cell.
//!
//! The log handles framing, fsync and corruption (the intact prefix is
//! trusted, a torn or flipped tail truncated away on open). A store whose
//! header salt differs from the current build's — a **stale** store — is
//! discarded wholesale and recreated empty; results from old code never
//! leak into new figures. Every failure mode degrades soft: an unreadable,
//! unwritable, or corrupt store costs cache hits, never figures.

use std::collections::BTreeMap;
use std::path::Path;

use crate::journal::{fnv1a, JournalEntry, RecordLog};

/// Header scope of every memo store: the memo index spans experiments, so
/// its scope is a fixed tag that no journal scope is expected to equal.
const MEMO_SCOPE: u64 = u64::from_le_bytes(*b"AFFMEMO\0");

/// Inputs a memo key is derived from — everything a cell's output bytes can
/// depend on, and nothing scheduling-dependent.
#[derive(Debug, Clone, Copy)]
pub struct KeyParts<'a> {
    /// [`code_salt`](crate::journal::code_salt) of the running build.
    pub salt: u64,
    /// The harness's config hash (scale/geometry/tenants — not figure ids).
    pub config: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Chaos seed, when the run injects fault timelines.
    pub chaos: Option<u64>,
    /// Fault events per chaos timeline, as sampled (only meaningful with
    /// chaos).
    pub chaos_intensity: u32,
    /// Figure id (`"fig13"`, …).
    pub figure: &'a str,
    /// Cell index within its plan (declaration order).
    pub cell_idx: u64,
    /// Cell label — double-checks the index still names the same cell.
    pub label: &'a str,
}

/// FNV-1a content hash over the key parts (strings length-prefixed so
/// adjacent fields cannot alias).
pub fn memo_key(p: &KeyParts<'_>) -> u64 {
    let mut bytes = Vec::with_capacity(64 + p.figure.len() + p.label.len());
    bytes.extend_from_slice(&p.salt.to_le_bytes());
    bytes.extend_from_slice(&p.config.to_le_bytes());
    bytes.extend_from_slice(&p.seed.to_le_bytes());
    match p.chaos {
        None => bytes.push(0),
        Some(c) => {
            bytes.push(1);
            bytes.extend_from_slice(&c.to_le_bytes());
            bytes.extend_from_slice(&p.chaos_intensity.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&(p.figure.len() as u32).to_le_bytes());
    bytes.extend_from_slice(p.figure.as_bytes());
    bytes.extend_from_slice(&p.cell_idx.to_le_bytes());
    bytes.extend_from_slice(&(p.label.len() as u32).to_le_bytes());
    bytes.extend_from_slice(p.label.as_bytes());
    fnv1a(&bytes)
}

/// The memo store: the content-key index over a [`RecordLog`]'s intact
/// prefix, plus the log's append handle for this run's new cells.
#[derive(Debug)]
pub struct MemoStore {
    entries: BTreeMap<u64, JournalEntry>,
    log: Option<RecordLog>,
    /// Whether an existing store was discarded for a salt/magic mismatch.
    pub invalidated: bool,
    /// First I/O error that disabled the store (reads miss, writes no-op).
    pub error: Option<String>,
}

impl MemoStore {
    /// Open (or create) the store at `path` for the given salt.
    ///
    /// * missing file → fresh store;
    /// * wrong magic or salt → **stale**: recreated empty (`invalidated`);
    /// * torn/corrupt tail → intact prefix kept, tail truncated;
    /// * any I/O error → disabled store ([`MemoStore::error`] set).
    pub fn open(path: &Path, salt: u64) -> MemoStore {
        match RecordLog::open(path, salt, MEMO_SCOPE, true) {
            Ok((log, replayed)) => MemoStore {
                entries: replayed.records.into_iter().collect(),
                log: Some(log),
                invalidated: replayed.stale,
                error: None,
            },
            Err((op, e)) => MemoStore {
                entries: BTreeMap::new(),
                log: None,
                invalidated: false,
                error: Some(format!("memo {op} failed: {e}")),
            },
        }
    }

    /// Cached entry for `key`, if any.
    pub fn get(&self, key: u64) -> Option<&JournalEntry> {
        self.entries.get(&key)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one entry under `key` and fsync it durable. A write failure
    /// disables the store for the rest of the run (first error kept); the
    /// in-memory map is updated regardless so this run still hits.
    pub fn insert(&mut self, key: u64, entry: &JournalEntry) {
        if let Some(Err(e)) = self.log.as_mut().map(|log| log.append(key, entry)) {
            self.log = None;
            self.error.get_or_insert(format!("memo append failed: {e}"));
        }
        self.entries.insert(key, entry.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::code_salt;
    use crate::report::Row;
    use crate::sweep::CellData;

    fn entry(figure: &str, idx: u64, v: f64) -> JournalEntry {
        JournalEntry {
            figure: figure.into(),
            cell_idx: idx,
            label: format!("{figure}#{idx}"),
            attempts: 1,
            wall_ns: 1_000,
            result: Ok(CellData::Rows {
                rows: vec![Row::new("r", vec![v, f64::NAN])],
                sim_cycles: 7,
            }),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("aff-memo-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(format!("{name}-{}.memo", std::process::id()))
    }

    fn key(figure: &str, idx: u64) -> u64 {
        memo_key(&KeyParts {
            salt: code_salt(),
            config: 5,
            seed: 42,
            chaos: None,
            chaos_intensity: 0,
            figure,
            cell_idx: idx,
            label: &format!("{figure}#{idx}"),
        })
    }

    #[test]
    fn roundtrip_across_reopen() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let salt = code_salt();
        let mut s = MemoStore::open(&path, salt);
        assert!(s.error.is_none(), "{:?}", s.error);
        assert!(s.is_empty() && !s.invalidated);
        s.insert(key("fig4", 0), &entry("fig4", 0, 1.5));
        s.insert(key("fig4", 1), &entry("fig4", 1, 2.5));
        drop(s);
        let s = MemoStore::open(&path, salt);
        assert_eq!(s.len(), 2);
        assert!(!s.invalidated);
        let e = s.get(key("fig4", 1)).expect("hit");
        assert_eq!(e.label, "fig4#1");
        match &e.result {
            Ok(CellData::Rows { rows, sim_cycles }) => {
                assert_eq!(*sim_cycles, 7);
                assert_eq!(rows[0].values[0], 2.5);
                assert!(rows[0].values[1].is_nan());
            }
            other => panic!("wrong shape: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_salt_invalidates_the_whole_store() {
        let path = tmp("stale");
        std::fs::remove_file(&path).ok();
        let mut s = MemoStore::open(&path, 111);
        s.insert(key("fig4", 0), &entry("fig4", 0, 1.0));
        drop(s);
        // A different salt (new code version / bumped epoch) sees nothing.
        let s = MemoStore::open(&path, 222);
        assert!(s.is_empty());
        assert!(s.invalidated);
        drop(s);
        // And the file was recreated under the new salt: reopening with it
        // stays empty, reopening with the *old* salt is now also empty.
        assert!(MemoStore::open(&path, 222).is_empty());
        let old = MemoStore::open(&path, 111);
        assert!(old.is_empty() && old.invalidated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_tail_keeps_the_intact_prefix() {
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        let salt = code_salt();
        let mut s = MemoStore::open(&path, salt);
        s.insert(key("fig4", 0), &entry("fig4", 0, 1.0));
        s.insert(key("fig4", 1), &entry("fig4", 1, 2.0));
        drop(s);
        let mut bytes = std::fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // flip a bit in the last record's payload
        std::fs::write(&path, &bytes).expect("rewrite");
        let mut s = MemoStore::open(&path, salt);
        assert_eq!(s.len(), 1, "intact prefix only");
        assert!(!s.invalidated);
        assert!(s.get(key("fig4", 0)).is_some());
        assert!(s.get(key("fig4", 1)).is_none());
        // The corrupt tail was truncated: appending then reopening yields
        // both entries again.
        s.insert(key("fig4", 1), &entry("fig4", 1, 3.0));
        drop(s);
        assert_eq!(MemoStore::open(&path, salt).len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_separate_every_input() {
        let base = KeyParts {
            salt: 1,
            config: 2,
            seed: 3,
            chaos: None,
            chaos_intensity: 0,
            figure: "fig13",
            cell_idx: 4,
            label: "bfs/AffAlloc",
        };
        let k = memo_key(&base);
        assert_ne!(k, memo_key(&KeyParts { salt: 9, ..base }));
        assert_ne!(k, memo_key(&KeyParts { config: 9, ..base }));
        assert_ne!(k, memo_key(&KeyParts { seed: 9, ..base }));
        assert_ne!(k, memo_key(&KeyParts { chaos: Some(0), ..base }));
        assert_ne!(k, memo_key(&KeyParts { figure: "fig14", ..base }));
        assert_ne!(k, memo_key(&KeyParts { cell_idx: 5, ..base }));
        assert_ne!(k, memo_key(&KeyParts { label: "bfs/NDC", ..base }));
        // chaos intensity only matters when chaos is on.
        assert_eq!(k, memo_key(&KeyParts { chaos_intensity: 7, ..base }));
        let chaotic = KeyParts { chaos: Some(5), ..base };
        assert_ne!(
            memo_key(&chaotic),
            memo_key(&KeyParts { chaos_intensity: 7, ..chaotic })
        );
    }

    #[test]
    fn io_problems_degrade_to_a_disabled_store() {
        let dir = std::env::temp_dir().join("aff_memo_is_a_dir");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut s = MemoStore::open(&dir, 1);
        assert!(s.error.is_some());
        // Disabled store: inserts are harmless, reads hit only this run's
        // in-memory entries.
        s.insert(7, &entry("fig4", 0, 1.0));
        assert!(s.get(7).is_some());
        let _ = std::fs::remove_dir(&dir);
    }
}
