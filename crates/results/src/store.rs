//! The on-disk results store: per-writer append-only segments of
//! checksummed lines, byte-budgeted.
//!
//! The store root (default `.gskew/results/`) holds only segments:
//!
//! ```text
//! seg-<creation-nanos>-<pid>-<seq>.jsonl   one line per put:
//!     <16-hex fnv1a of the payload> <compact record JSON>\n
//! ```
//!
//! A handle that writes appends to a segment of its own, created on its
//! first put, so concurrent writers never share a file and no writer
//! appends after another's torn tail. Each put is one unbuffered write
//! of a whole line, so a fresh [`ResultsStore::open`] sees every record
//! whose put has returned. `open` reads every segment in name (that is,
//! creation) order into memory, a later line overriding an earlier one
//! for the same fingerprint. A line that is torn, fails its checksum or
//! does not parse is dropped and counted; the cell just re-simulates.
//! Reads are served from memory. [`ResultsStore::gc`] evicts the
//! oldest-inserted records until a byte budget holds and compacts the
//! survivors into one segment. It must not run while another handle
//! writes to the same store.

use crate::fingerprint::{fnv1a, to_hex};
use crate::json::Json;
use crate::record::ResultRecord;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The default store location, relative to the working directory.
pub const DEFAULT_STORE_DIR: &str = ".gskew/results";

#[derive(Debug)]
struct Entry {
    record: ResultRecord,
    /// Bytes of the record's line, newline included.
    bytes: u64,
    /// Monotonic insertion stamp; smallest is garbage-collected first.
    stamp: u64,
}

/// A results store rooted at one directory.
#[derive(Debug)]
pub struct ResultsStore {
    root: PathBuf,
    entries: HashMap<u64, Entry>,
    next_stamp: u64,
    /// Segments this handle read or wrote, oldest first.
    segments: Vec<PathBuf>,
    /// This handle's own segment, created on its first put.
    writer: Option<File>,
    dropped_lines: usize,
}

/// What one [`ResultsStore::gc`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Records deleted.
    pub removed: usize,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Bytes still resident after the pass.
    pub remaining_bytes: u64,
}

impl ResultsStore {
    /// Open (creating if needed) a store rooted at `root` and read every
    /// segment in it. Files that are not segments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a message on filesystem errors. Damaged lines are not
    /// errors: they are dropped and counted in [`Self::dropped_lines`].
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultsStore, String> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let mut segments = Vec::new();
        for entry in fs::read_dir(&root).map_err(|e| format!("read {}: {e}", root.display()))? {
            let path = entry
                .map_err(|e| format!("read {}: {e}", root.display()))?
                .path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("seg-") && name.ends_with(".jsonl") {
                segments.push(path);
            }
        }
        segments.sort();
        let mut store = ResultsStore {
            root,
            entries: HashMap::new(),
            next_stamp: 0,
            segments: Vec::new(),
            writer: None,
            dropped_lines: 0,
        };
        for path in segments {
            let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                match line.strip_suffix(b"\n").and_then(parse_line) {
                    Some(record) => store.insert(record, line.len()),
                    None => store.dropped_lines += 1,
                }
            }
            store.segments.push(path);
        }
        Ok(store)
    }

    /// Number of records served.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of the lines of every served record.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// Every served fingerprint, in unspecified order.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    /// Whether a record with this fingerprint is served.
    pub fn contains(&self, fp: u64) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Number of segments this handle read or wrote.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Lines dropped while opening: torn, failing their checksum, or
    /// not a record.
    pub fn dropped_lines(&self) -> usize {
        self.dropped_lines
    }

    fn insert(&mut self, record: ResultRecord, bytes: usize) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(
            record.fingerprint,
            Entry {
                record,
                bytes: bytes as u64,
                stamp,
            },
        );
    }

    /// Insert (or overwrite) a record, addressed by its fingerprint, by
    /// appending one line to this handle's segment.
    ///
    /// # Errors
    ///
    /// Returns a message on filesystem errors.
    pub fn put(&mut self, record: &ResultRecord) -> Result<(), String> {
        let line = encode_line(record);
        let file = match &mut self.writer {
            Some(file) => file,
            None => {
                let path = self.root.join(segment_name());
                let file = OpenOptions::new()
                    .append(true)
                    .create_new(true)
                    .open(&path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                self.segments.push(path);
                self.writer.insert(file)
            }
        };
        file.write_all(line.as_bytes())
            .map_err(|e| format!("append to {}: {e}", self.root.display()))?;
        self.insert(record.clone(), line.len());
        Ok(())
    }

    /// The record with this fingerprint, or `None` when none is served.
    pub fn get(&self, fp: u64) -> Option<ResultRecord> {
        self.entries.get(&fp).map(|e| e.record.clone())
    }

    /// Every served record, sorted by fingerprint.
    pub fn records(&self) -> Vec<ResultRecord> {
        let mut records: Vec<ResultRecord> =
            self.entries.values().map(|e| e.record.clone()).collect();
        records.sort_unstable_by_key(|r| r.fingerprint);
        records
    }

    /// Drop oldest-inserted records until at most `budget_bytes` of lines
    /// remain, write the survivors to one new segment, and delete every
    /// segment this handle read or wrote before. Not safe while another
    /// handle writes to the store: a line it appends to a segment this
    /// handle read is deleted with that segment.
    ///
    /// # Errors
    ///
    /// Returns a message on filesystem errors (deletion of an
    /// already-missing segment is not an error).
    pub fn gc(&mut self, budget_bytes: u64) -> Result<GcStats, String> {
        let mut by_age: Vec<(u64, u64)> =
            self.entries.iter().map(|(&fp, e)| (e.stamp, fp)).collect();
        by_age.sort_unstable();
        let mut stats = GcStats {
            remaining_bytes: self.total_bytes(),
            ..GcStats::default()
        };
        for &(_, fp) in &by_age {
            if stats.remaining_bytes <= budget_bytes {
                break;
            }
            let entry = self.entries.remove(&fp).expect("listed above");
            stats.removed += 1;
            stats.freed_bytes += entry.bytes;
            stats.remaining_bytes -= entry.bytes;
        }
        let survivors: String = by_age[stats.removed..]
            .iter()
            .map(|(_, fp)| encode_line(&self.entries[fp].record))
            .collect();
        let path = self.root.join(segment_name());
        write_atomic(&path, survivors.as_bytes())?;
        self.writer = None;
        for old in std::mem::replace(&mut self.segments, vec![path]) {
            match fs::remove_file(&old) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("remove {}: {e}", old.display())),
            }
        }
        Ok(stats)
    }
}

/// A record's segment line: checksum, space, payload, newline. The
/// compact serializer escapes every control character, so the payload
/// never holds a raw newline.
fn encode_line(record: &ResultRecord) -> String {
    let payload = record.to_json().to_string_compact();
    format!("{} {payload}\n", to_hex(fnv1a(payload.as_bytes())))
}

/// The record of one segment line (newline stripped), or `None` when the
/// checksum does not match the payload or the payload is not a record.
fn parse_line(line: &[u8]) -> Option<ResultRecord> {
    let payload = line.get(17..)?;
    if line[16] != b' ' || line[..16] != *to_hex(fnv1a(payload)).as_bytes() {
        return None;
    }
    let json = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
    ResultRecord::from_json(&json).ok()
}

/// A segment name unique to this handle that sorts by creation time.
fn segment_name() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!(
        "seg-{nanos:020}-{:010}-{:06}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Write `contents` to `path` atomically: a tmp file in the same
/// directory, flushed, then renamed over the destination.
///
/// # Errors
///
/// Returns a message on filesystem errors.
pub fn write_atomic(path: &Path, contents: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CellKey;
    use proptest::prelude::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bpred-results-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(spec: &str, mispredicted: u64) -> ResultRecord {
        let key = CellKey {
            bench: "groff".into(),
            spec: spec.into(),
            len: 1_000,
            seed: 0x5EED_0000,
            policy: "count".into(),
        };
        let fingerprint = key.fingerprint("wl", "1");
        ResultRecord {
            experiment: "test".into(),
            key,
            fingerprint,
            engine_version: "1".into(),
            conditional: 1_000,
            mispredicted,
            novel: 0,
            elapsed_ms: 1.0,
        }
    }

    /// `n` records with distinct fingerprints.
    fn records(n: u64) -> Vec<ResultRecord> {
        (0..n)
            .map(|i| record(&format!("gshare:n={},h=4", 8 + i), i))
            .collect()
    }

    /// Every file in `root`, sorted by name.
    fn files(root: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let root = temp_root("roundtrip");
        let mut store = ResultsStore::open(&root).unwrap();
        let r = record("gshare:n=10,h=4", 123);
        store.put(&r).unwrap();
        assert_eq!(store.get(r.fingerprint), Some(r.clone()));
        assert_eq!(store.len(), 1);
        assert!(store.total_bytes() > 0);

        // A fresh handle sees the persisted state while the first is
        // still alive, and counts the same bytes.
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.get(r.fingerprint), Some(r.clone()));
        assert!(reopened.contains(r.fingerprint));
        assert_eq!(reopened.records(), vec![r]);
        assert_eq!(reopened.total_bytes(), store.total_bytes());
        assert_eq!((reopened.segments(), reopened.dropped_lines()), (1, 0));
        drop(store);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn root_holds_only_segments_and_readers_create_none() {
        let root = temp_root("layout");
        fs::create_dir_all(root.join("records")).unwrap();
        fs::write(root.join("index.json"), "{}").unwrap();
        let reader = ResultsStore::open(&root).unwrap();
        assert!(reader.is_empty(), "legacy files are ignored");
        assert_eq!(files(&root).len(), 2, "a reader writes nothing");
        fs::remove_dir_all(&root).unwrap();

        let mut store = ResultsStore::open(&root).unwrap();
        for r in records(3) {
            store.put(&r).unwrap();
        }
        let files = files(&root);
        assert_eq!(files.len(), 1, "{files:?}");
        let name = files[0].file_name().unwrap().to_str().unwrap();
        assert!(
            name.starts_with("seg-") && name.ends_with(".jsonl"),
            "{name}"
        );
        let text = fs::read_to_string(&files[0]).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let (checksum, payload) = line.split_once(' ').unwrap();
            assert_eq!(checksum, to_hex(fnv1a(payload.as_bytes())));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_record_fails_checksum_and_reads_as_absent() {
        let root = temp_root("corrupt");
        let mut store = ResultsStore::open(&root).unwrap();
        let r = record("gshare:n=10,h=4", 123);
        store.put(&r).unwrap();
        let path = files(&root).remove(0);
        let tampered = fs::read_to_string(&path).unwrap().replace("123", "124");
        fs::write(&path, tampered).unwrap();
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.get(r.fingerprint), None);
        assert!(reopened.records().is_empty(), "corrupt records are skipped");
        assert_eq!(reopened.dropped_lines(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_enforces_budget_oldest_first() {
        let root = temp_root("gc");
        let mut store = ResultsStore::open(&root).unwrap();
        let all = records(3);
        for r in &all {
            store.put(r).unwrap();
        }
        // A budget one byte short of the total must evict exactly the
        // oldest record.
        let budget = store.total_bytes() - 1;
        let stats = store.gc(budget).unwrap();
        assert_eq!(stats.removed, 1);
        assert!(stats.freed_bytes > 0);
        assert!(store.total_bytes() <= budget);
        assert_eq!(store.get(all[0].fingerprint), None, "oldest evicted");
        assert!(store.get(all[1].fingerprint).is_some());
        assert!(store.get(all[2].fingerprint).is_some());

        // gc leaves one segment holding exactly the survivors, and no
        // tmp files.
        let files = files(&root);
        assert_eq!(files.len(), 1, "{files:?}");
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.records(), store.records());
        assert_eq!(reopened.total_bytes(), store.total_bytes());

        // Puts after a gc land in a new segment and survive a reopen.
        let late = record("gshare:n=20,h=4", 7);
        store.put(&late).unwrap();
        assert_eq!(
            ResultsStore::open(&root).unwrap().get(late.fingerprint),
            Some(late)
        );

        // A zero budget clears everything; gc on an empty store is a no-op.
        let stats = store.gc(0).unwrap();
        assert_eq!(stats.removed, 3);
        assert_eq!(stats.remaining_bytes, 0);
        assert!(store.is_empty());
        assert_eq!(store.gc(0).unwrap(), GcStats::default());
        assert!(ResultsStore::open(&root).unwrap().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn overwrite_same_fingerprint_keeps_one_entry() {
        let root = temp_root("overwrite");
        let mut store = ResultsStore::open(&root).unwrap();
        let r = record("gshare:n=10,h=4", 123);
        let newer = ResultRecord {
            experiment: "newer".into(),
            ..r.clone()
        };
        store.put(&r).unwrap();
        store.put(&newer).unwrap();
        assert_eq!(store.len(), 1);
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get(r.fingerprint), Some(newer));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn no_tmp_files_survive_writes() {
        let root = temp_root("tmp");
        let mut store = ResultsStore::open(&root).unwrap();
        store.put(&record("gshare:n=10,h=4", 9)).unwrap();
        store.gc(u64::MAX).unwrap();
        store.put(&record("gshare:n=11,h=4", 9)).unwrap();
        for path in files(&root) {
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(
                name.starts_with("seg-") && name.ends_with(".jsonl"),
                "{name}"
            );
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let root = temp_root("concurrent");
        // Both handles open before either writes, as two processes
        // started together would.
        let mut a = ResultsStore::open(&root).unwrap();
        let mut b = ResultsStore::open(&root).unwrap();
        let all = records(10);
        for pair in all.chunks(2) {
            a.put(&pair[0]).unwrap();
            b.put(&pair[1]).unwrap();
        }
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.len(), all.len());
        for r in &all {
            assert_eq!(reopened.get(r.fingerprint).as_ref(), Some(r));
        }
        assert_eq!(reopened.segments(), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_tail_drops_only_the_last_line_and_later_puts_survive() {
        let root = temp_root("torn");
        let all = records(4);
        let mut store = ResultsStore::open(&root).unwrap();
        for r in &all {
            store.put(r).unwrap();
        }
        drop(store);
        let path = files(&root).remove(0);
        let full = fs::read(&path).unwrap();
        let last_start = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in last_start + 1..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let reopened = ResultsStore::open(&root).unwrap();
            assert_eq!(reopened.records().len(), 3, "cut at {cut}");
            for r in &all[..3] {
                assert_eq!(
                    reopened.get(r.fingerprint).as_ref(),
                    Some(r),
                    "cut at {cut}"
                );
            }
            assert_eq!(reopened.get(all[3].fingerprint), None, "cut at {cut}");
            assert_eq!(reopened.dropped_lines(), 1, "cut at {cut}");
        }

        // The next writer gets its own segment, so the torn tail cannot
        // swallow its record.
        let mut writer = ResultsStore::open(&root).unwrap();
        writer.put(&all[3]).unwrap();
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.get(all[3].fingerprint).as_ref(), Some(&all[3]));
        assert_eq!((reopened.segments(), reopened.dropped_lines()), (2, 1));
        fs::remove_dir_all(&root).unwrap();
    }

    proptest! {
        #[test]
        fn one_flipped_bit_loses_only_its_own_record(pick in any::<u64>(), bit in 0u32..8) {
            let root = temp_root("bitflip");
            let all = records(5);
            let mut store = ResultsStore::open(&root).unwrap();
            for r in &all {
                store.put(r).unwrap();
            }
            drop(store);
            let path = files(&root).remove(0);
            let mut bytes = fs::read(&path).unwrap();
            let at = (pick % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
            fs::write(&path, &bytes).unwrap();
            // The damaged line is the one holding the flipped byte; a
            // flipped newline also merges the line after it.
            let line_of = |offset: usize| bytes[..offset].iter().filter(|&&b| b == b'\n').count();
            let damaged = line_of(at);
            let merged = if bytes[at] ^ (1 << bit) == b'\n' { damaged + 1 } else { damaged };
            let reopened = ResultsStore::open(&root).unwrap();
            for (i, r) in all.iter().enumerate() {
                let served = reopened.get(r.fingerprint);
                if (damaged..=merged).contains(&i) {
                    prop_assert_eq!(served, None, "line {} damaged at byte {}", i, at);
                } else {
                    prop_assert_eq!(served.as_ref(), Some(r), "line {} intact", i);
                }
            }
            prop_assert!(reopened.dropped_lines() >= 1);
            fs::remove_dir_all(&root).unwrap();
        }
    }
}
