//! Seed-range checkpoints: the CRC-wrapped JSONL line format, its lossy
//! reader, the coalescing writer, and atomic compaction. This file is the
//! only one that knows the line format; the session sees entries.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write as _};
use std::path::{Path, PathBuf};

use agreement_analysis::{crc32, read_json_object, JsonReader, JsonWriter};

use super::OrchestrateError;
use crate::record::TrialRecord;

/// One completed, persisted seed range of a scenario: the unit of resumption.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// The scenario's registry id.
    pub scenario: String,
    /// The base seed the range ran under (a changed seed invalidates it).
    pub base_seed: u64,
    /// The campaign's total trial count (a changed count invalidates it).
    pub trials: u64,
    /// Range start (inclusive).
    pub lo: u64,
    /// Range end (exclusive).
    pub hi: u64,
    /// The range's records, in trial order.
    pub records: Vec<TrialRecord>,
}

impl CheckpointEntry {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object();
        w.key("scenario").str(&self.scenario);
        w.key("base_seed").u64(self.base_seed);
        w.key("trials").u64(self.trials);
        w.key("lo").u64(self.lo);
        w.key("hi").u64(self.hi);
        w.key("records").begin_array();
        for record in &self.records {
            record.write_json(w);
        }
        w.end_array().end_object();
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, String> {
        fn read_records(r: &mut JsonReader<'_>) -> Result<Vec<TrialRecord>, String> {
            let mut records = Vec::new();
            r.begin_array()?;
            while r.next_element()? {
                records.push(TrialRecord::read_json(r)?);
            }
            Ok(records)
        }
        read_json_object!(r, {
            "scenario" => scenario: r.string().map(String::from),
            "base_seed" => base_seed: r.u64(),
            "trials" => trials: r.u64(),
            "lo" => lo: r.u64(),
            "hi" => hi: r.u64(),
            "records" => records: read_records(r),
        });
        Ok(CheckpointEntry {
            scenario,
            base_seed,
            trials,
            lo,
            hi,
            records,
        })
    }
}

/// Appends one newline-terminated checkpoint line to `out`: the entry's JSON
/// (formatted into the scratch buffer `body`) wrapped with a CRC32 of exactly
/// the bytes between `"entry":` and the closing brace. The wrapper is parsed
/// textually on read, so verification never depends on re-serialization.
fn push_checkpoint_line(entry: &CheckpointEntry, body: &mut String, out: &mut String) {
    body.clear();
    entry.write_json(&mut JsonWriter::new(body));
    let crc = crc32(body.as_bytes());
    writeln!(out, "{{\"crc\":{crc},\"entry\":{body}}}").expect("writing to a String cannot fail");
}

/// Parses one complete checkpoint line, the CRC-wrapped form written by
/// [`append_checkpoint`]. The CRC is verified before a byte of the body
/// reaches the JSON reader.
fn parse_checkpoint_line(line: &str) -> Result<CheckpointEntry, String> {
    let (crc_text, tail) = line
        .strip_prefix("{\"crc\":")
        .and_then(|rest| rest.split_once(",\"entry\":"))
        .ok_or_else(|| "not a '{\"crc\":…,\"entry\":…}' checkpoint line".to_string())?;
    let expected: u32 = crc_text
        .trim()
        .parse()
        .map_err(|_| format!("unparseable checkpoint CRC '{crc_text}'"))?;
    let body = tail
        .strip_suffix('}')
        .ok_or_else(|| "CRC wrapper is not brace-terminated".to_string())?;
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checkpoint line CRC mismatch: recorded {expected}, body checksums to {actual}"
        ));
    }
    let mut reader = JsonReader::new(body);
    let entry = CheckpointEntry::read_json(&mut reader)?;
    reader.finish()?;
    Ok(entry)
}

/// What [`load_checkpoint`] found in a checkpoint file.
#[derive(Default)]
struct CheckpointLoad {
    entries: Vec<CheckpointEntry>,
    /// Newline-terminated lines skipped as damaged.
    damaged: usize,
    /// The file ends mid-line: appending to it as it is would glue the next
    /// line onto the torn one.
    torn_tail: bool,
}

/// [`read_checkpoint_lossy`], which see, through one reused line buffer —
/// and remembering whether the last line ended in a newline.
fn load_checkpoint(path: &Path) -> Result<CheckpointLoad, OrchestrateError> {
    let mut reader = io::BufReader::new(std::fs::File::open(path)?);
    let mut load = CheckpointLoad::default();
    let mut line = Vec::new();
    let mut number = 0u64;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(load);
        }
        number += 1;
        load.torn_tail = line.last() != Some(&b'\n');
        let parsed = std::str::from_utf8(&line)
            .map_err(|err| err.to_string())
            .map(str::trim)
            .and_then(|text| match text {
                "" => Ok(None),
                text => parse_checkpoint_line(text).map(Some),
            });
        match parsed {
            Ok(entry) => load.entries.extend(entry),
            Err(_) if load.torn_tail => {}
            Err(err) => {
                eprintln!(
                    "orchestrate: skipping damaged checkpoint line {number} in {}: {err}",
                    path.display()
                );
                load.damaged += 1;
            }
        }
    }
}

/// Reads a checkpoint file: one CRC-wrapped [`CheckpointEntry`] per line. A
/// line counts as written once its newline is on disk: an unterminated final
/// line that fails to parse is the expected shape of a crash mid-append and
/// is skipped silently; a *terminated* line that fails — CRC mismatch,
/// truncated middle, invalid UTF-8, unparseable JSON, a bare entry without
/// its CRC wrapper — is **skipped and logged to stderr**, never trusted and
/// never fatal: the ranges it held are simply re-run. Returns the surviving
/// entries and how many lines were skipped as damaged (callers use a nonzero
/// count to trigger [`compact_checkpoint`]).
///
/// # Errors
///
/// Propagates file I/O errors only.
pub fn read_checkpoint_lossy(
    path: &Path,
) -> Result<(Vec<CheckpointEntry>, usize), OrchestrateError> {
    let load = load_checkpoint(path)?;
    Ok((load.entries, load.damaged))
}

/// Reads a checkpoint file, returning the surviving entries. See
/// [`read_checkpoint_lossy`] for the damage-tolerance contract.
///
/// # Errors
///
/// Propagates file I/O errors only.
pub fn read_checkpoint(path: &Path) -> Result<Vec<CheckpointEntry>, OrchestrateError> {
    Ok(read_checkpoint_lossy(path)?.0)
}

/// An open checkpoint file accepting coalesced appends: one CRC'd line per
/// completed range, written with a **single** `write` syscall each. The
/// one-shot [`append_checkpoint`] pays an open + format + write per call;
/// a [`Session`] instead keeps one of these for the whole run, which is what
/// makes per-range checkpointing cheap on large campaigns.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: std::fs::File,
    // Reused across appends: the entry's JSON, then the whole line.
    body: String,
    line: String,
}

impl CheckpointWriter {
    /// Opens `path` for appending, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn open(path: &Path) -> Result<Self, OrchestrateError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(CheckpointWriter::over(file))
    }

    pub(super) fn over(file: std::fs::File) -> Self {
        CheckpointWriter {
            file,
            body: String::new(),
            line: String::new(),
        }
    }

    /// Appends one entry as a single newline-terminated write, so a crash
    /// between calls can tear at most the final line — the shape
    /// [`read_checkpoint_lossy`] already tolerates. `File::write_all` on an
    /// append-mode descriptor needs no explicit flush: the data is in the
    /// kernel when this returns.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn append(&mut self, entry: &CheckpointEntry) -> Result<(), OrchestrateError> {
        self.line.clear();
        push_checkpoint_line(entry, &mut self.body, &mut self.line);
        self.file.write_all(self.line.as_bytes())?;
        Ok(())
    }
}

/// Appends one entry to a checkpoint file (creating it if needed) — the
/// one-shot form of [`CheckpointWriter`] for callers (and tests) seeding a
/// file outside a session. Each line carries a CRC32 of its body, so later
/// damage is detected on read.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn append_checkpoint(path: &Path, entry: &CheckpointEntry) -> Result<(), OrchestrateError> {
    CheckpointWriter::open(path)?.append(entry)
}

/// Rewrites a checkpoint file to hold exactly `entries`, atomically: the new
/// contents are written to a sibling temporary file, synced, and renamed
/// over the original, so a crash at any point leaves either the old file or
/// the new one — never a half-written hybrid. Called on resume when
/// [`read_checkpoint_lossy`] found damaged lines, so the damage is shed once
/// instead of being re-skipped (and re-logged) on every later resume.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn compact_checkpoint(
    path: &Path,
    entries: &[CheckpointEntry],
) -> Result<(), OrchestrateError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut writer = CheckpointWriter::over(std::fs::File::create(&tmp)?);
    for entry in entries {
        writer.append(entry)?;
    }
    writer.file.sync_all()?;
    drop(writer);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// What a resuming session does with its checkpoint file: loads the entries
/// (none when the file does not exist yet) and reopens it for appending.
/// Damaged lines are shed once via an atomic compaction, and so is a torn
/// tail — the next append would otherwise land on the torn line, fail its
/// CRC on the following resume and lose a freshly computed range.
pub(super) fn resume_checkpoint(
    path: &Path,
) -> Result<(Vec<CheckpointEntry>, CheckpointWriter), OrchestrateError> {
    let mut entries = Vec::new();
    if path.exists() {
        let load = load_checkpoint(path)?;
        if load.damaged > 0 || load.torn_tail {
            eprintln!(
                "orchestrate: checkpoint {} held {} damaged line(s), torn tail: {}; compacting",
                path.display(),
                load.damaged,
                load.torn_tail
            );
            compact_checkpoint(path, &load.entries)?;
        }
        entries = load.entries;
    }
    Ok((entries, CheckpointWriter::open(path)?))
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) fn record(trial: u64) -> TrialRecord {
        use agreement_sim::Metrics;
        TrialRecord {
            trial,
            seed: 100 + trial,
            agreement: true,
            validity: true,
            terminated: true,
            violations: 0,
            halted: false,
            decided: None,
            first_decision_at: Some(trial),
            all_decided_at: Some(trial),
            duration: trial,
            longest_chain: 0,
            metrics: Metrics::default(),
        }
    }

    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "agreement-orchestrate-{tag}-{}-{unique}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn checkpoint_round_trips_and_survives_a_torn_tail() {
        let path = temp_path("roundtrip");
        let entries = [
            CheckpointEntry {
                scenario: "a/b/c/n5t1".to_string(),
                base_seed: 7,
                trials: 10,
                lo: 0,
                hi: 3,
                records: (0..3).map(record).collect(),
            },
            CheckpointEntry {
                scenario: "a/b/c/n5t1".to_string(),
                base_seed: 7,
                trials: 10,
                lo: 3,
                hi: 5,
                records: (3..5).map(record).collect(),
            },
        ];
        for entry in &entries {
            append_checkpoint(&path, entry).unwrap();
        }
        assert_eq!(read_checkpoint(&path).unwrap(), entries);

        // A torn final line (coordinator died mid-append) is skipped.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"scenario\":\"a/b/c/n5t1\",\"base_se");
        std::fs::write(&path, contents).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), entries);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_interior_checkpoint_lines_are_skipped_not_fatal() {
        let path = temp_path("corrupt");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 0,
            trials: 2,
            lo,
            hi: lo + 1,
            records: vec![record(lo)],
        };
        append_checkpoint(&path, &entry(0)).unwrap();
        // Damage sandwiched between two good lines: the good ones survive.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("not json at all\n");
        std::fs::write(&path, contents).unwrap();
        append_checkpoint(&path, &entry(1)).unwrap();
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(entries, vec![entry(0), entry(1)]);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flipped_checkpoint_line_fails_its_crc_and_is_skipped() {
        let path = temp_path("bitflip");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 9,
            trials: 3,
            lo,
            hi: lo + 1,
            records: vec![record(lo)],
        };
        for lo in 0..3 {
            append_checkpoint(&path, &entry(lo)).unwrap();
        }
        // Flip one byte inside the middle line's entry body. The damaged
        // JSON may still parse (a digit changed in place stays valid JSON) —
        // only the CRC catches it.
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        let mut middle = lines[1].to_string().into_bytes();
        let target = middle.len() - 10;
        middle[target] ^= 0x01;
        let damaged = format!(
            "{}\n{}\n{}\n",
            lines[0],
            String::from_utf8(middle).unwrap(),
            lines[2]
        );
        std::fs::write(&path, damaged).unwrap();

        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(entries, vec![entry(0), entry(2)]);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_bare_entry_without_its_crc_wrapper_is_a_damaged_line() {
        let path = temp_path("bare");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "bare/scenario".to_string(),
            base_seed: 4,
            trials: 4,
            lo,
            hi: lo + 2,
            records: vec![record(lo), record(lo + 1)],
        };
        // The pre-CRC format: the bare entry JSON, no wrapper. Nothing
        // un-checksummed reaches the JSON reader any more.
        let mut bare = String::new();
        entry(0).write_json(&mut JsonWriter::new(&mut bare));
        assert!(parse_checkpoint_line(&bare).is_err());
        std::fs::write(&path, format!("{bare}\n")).unwrap();
        append_checkpoint(&path, &entry(2)).unwrap();
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(entries, vec![entry(2)]);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_terminated_last_line_that_fails_its_crc_is_damage_not_a_torn_tail() {
        let path = temp_path("lastline");
        let entry = CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 1,
            trials: 2,
            lo: 0,
            hi: 1,
            records: vec![record(0)],
        };
        append_checkpoint(&path, &entry).unwrap();
        let mut contents = std::fs::read_to_string(&path).unwrap();
        let damaged_last = contents.replace("\"lo\":0", "\"lo\":1");
        contents.push_str(&damaged_last);
        // Invalid UTF-8 is damage too, not an I/O error.
        let mut bytes = contents.into_bytes();
        bytes.extend_from_slice(b"{\"crc\":1,\"entry\":\"\xff\"}\n");
        std::fs::write(&path, bytes).unwrap();
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.entries, vec![entry]);
        assert_eq!(load.damaged, 2);
        assert!(!load.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_append_after_a_torn_tail_survives_the_next_resume() {
        let path = temp_path("torn-append");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 3,
            trials: 3,
            lo,
            hi: lo + 1,
            records: vec![record(lo)],
        };
        append_checkpoint(&path, &entry(0)).unwrap();
        let whole = std::fs::read_to_string(&path).unwrap();
        let torn = &whole[..whole.len() / 2];
        std::fs::write(&path, format!("{whole}{torn}")).unwrap();

        // The issue's reproduction: [0, torn] on disk, the resumed session
        // appends 1 and 2, and the next resume must see all three.
        let (entries, mut writer) = resume_checkpoint(&path).unwrap();
        assert_eq!(entries, vec![entry(0)]);
        writer.append(&entry(1)).unwrap();
        writer.append(&entry(2)).unwrap();
        drop(writer);
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.entries, vec![entry(0), entry(1), entry(2)]);
        assert_eq!(load.damaged, 0);
        assert!(!load.torn_tail);

        // An unterminated last line that still checks out is kept, and still
        // flagged so that nothing is appended onto it.
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, contents.trim_end()).unwrap();
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.entries.len(), 3);
        assert!(load.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_16_000_record_checkpoint_line_round_trips() {
        // Hours with the quadratic string lexer; linear now, so it runs in
        // the default profile.
        let path = temp_path("long-line");
        let entry = CheckpointEntry {
            scenario: "psync/ben-or/benign-eventual/unanimous-1/n7t1".to_string(),
            base_seed: u64::MAX - 16_000,
            trials: 16_000,
            lo: 0,
            hi: 16_000,
            records: (0..16_000).map(record).collect(),
        };
        append_checkpoint(&path, &entry).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 4_000_000);
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(entries, vec![entry]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_checkpoint_rewrites_atomically_and_round_trips() {
        let path = temp_path("compact");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "c".to_string(),
            base_seed: 1,
            trials: 4,
            lo,
            hi: lo + 2,
            records: (lo..lo + 2).map(record).collect(),
        };
        // A file with damage in the middle...
        append_checkpoint(&path, &entry(0)).unwrap();
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("garbage line\n");
        std::fs::write(&path, contents).unwrap();
        append_checkpoint(&path, &entry(2)).unwrap();
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(skipped, 1);
        // ...compacts to a clean file holding exactly the survivors.
        compact_checkpoint(&path, &entries).unwrap();
        let (clean, skipped_after) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(clean, entries);
        assert_eq!(skipped_after, 0);
        // No temporary residue.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
