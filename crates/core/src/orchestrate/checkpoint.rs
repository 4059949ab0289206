//! Seed-range checkpoints: the CRC-wrapped JSONL line format, its lossy
//! reader, the coalescing writer, atomic compaction, and the resume policy
//! both executors share ([`RangeLedger`]). This file is the only one that
//! knows the line format; the executors see ranges.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, Write as _};
use std::path::{Path, PathBuf};

use agreement_analysis::{crc32, read_json_object, JsonReader, JsonWriter};

use super::{OrchestrateError, MAX_RANGE_TRIALS};
use crate::record::TrialRecord;
use crate::scenario::ScenarioSpec;

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
    out.push_str("{\"crc\":");
    JsonWriter::new(out).u64(crc32(body.as_bytes()).into());
    out.push_str(",\"entry\":");
    out.push_str(body);
    out.push_str("}\n");
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
                    "checkpoint: skipping damaged line {number} in {}: {err}",
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
/// a checkpointed run instead keeps one of these for the whole run, which
/// is what makes per-range checkpointing cheap on large campaigns.
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

/// Whether `records` are exactly trials `lo..hi`, in order.
pub(super) fn holds_exactly(records: &[TrialRecord], lo: u64, hi: u64) -> bool {
    hi.checked_sub(lo) == Some(records.len() as u64)
        && records
            .iter()
            .zip(lo..)
            .all(|(record, trial)| record.trial == trial)
}

/// The resume policy a session and [`ScenarioSpec::run_checkpointed`]
/// share: one workload's settled ranges, restored from its checkpoint or
/// [settled](RangeLedger::settle) and appended to it, on their way to the
/// [merge](RangeLedger::merge).
pub(crate) struct RangeLedger {
    /// `spec.id()`, as checkpoint entries name the workload.
    scenario: String,
    base_seed: u64,
    trials: u64,
    /// Where settled ranges are appended; none without a checkpoint.
    pub(super) writer: Option<CheckpointWriter>,
    /// Settled ranges, disjoint, by start: `lo → (hi, records)`.
    settled: BTreeMap<u64, (u64, Vec<TrialRecord>)>,
    /// Trials the settled ranges cover.
    covered: u64,
}

impl RangeLedger {
    /// A ledger for `spec`'s run that restores this exact workload's entries
    /// (scenario id, base seed, trial count) from `checkpoint`, each reported
    /// to `on_restored`. Damaged lines and a torn tail are shed first by an
    /// atomic compaction (an append onto a torn line would be lost), and only
    /// then is the writer opened (the rename would orphan its inode). An
    /// entry is checked, not trusted: one that is not a nonempty range inside
    /// `0..trials` holding exactly its trials, or that overlaps a range
    /// already restored, is skipped and logged — its trials simply re-run.
    pub(crate) fn resume(
        spec: &ScenarioSpec,
        checkpoint: Option<&Path>,
        mut on_restored: impl FnMut(u64, u64),
    ) -> Result<Self, OrchestrateError> {
        let mut ledger = RangeLedger {
            scenario: spec.id(),
            base_seed: spec.base_seed,
            trials: spec.trials,
            writer: None,
            settled: BTreeMap::new(),
            covered: 0,
        };
        let Some(path) = checkpoint else {
            return Ok(ledger);
        };
        let load = match path.exists() {
            true => load_checkpoint(path)?,
            false => CheckpointLoad::default(),
        };
        if load.damaged > 0 || load.torn_tail {
            eprintln!(
                "checkpoint: {} held {} damaged line(s), torn tail: {}; compacting",
                path.display(),
                load.damaged,
                load.torn_tail
            );
            compact_checkpoint(path, &load.entries)?;
        }
        ledger.writer = Some(CheckpointWriter::open(path)?);
        let (scenario, total) = (&ledger.scenario, ledger.trials);
        for entry in load.entries {
            let (lo, hi) = (entry.lo, entry.hi);
            if (&entry.scenario, entry.base_seed, entry.trials) != (scenario, spec.base_seed, total)
            {
                continue;
            }
            // Restored ranges are disjoint, so only the last one starting
            // before `hi` can reach past `lo`.
            let overlaps = ledger
                .settled
                .range(..hi)
                .next_back()
                .is_some_and(|(_, &(end, _))| end > lo);
            if lo >= hi || hi > total || overlaps || !holds_exactly(&entry.records, lo, hi) {
                eprintln!(
                    "checkpoint: skipping entry {lo}..{hi} of '{scenario}': not a new \
                     range of 0..{total} holding exactly its trials ({} record(s))",
                    entry.records.len()
                );
                continue;
            }
            on_restored(lo, hi);
            ledger.covered += hi - lo;
            ledger.settled.insert(lo, (hi, entry.records));
        }
        Ok(ledger)
    }

    /// The trials no settled range covers, in trial order, cut into ranges
    /// of at most `chunk` trials (clamped to 1..=65 536).
    pub(crate) fn missing(&self, chunk: u64) -> VecDeque<(u64, u64)> {
        let chunk = chunk.clamp(1, MAX_RANGE_TRIALS);
        let settled = self.settled.iter().map(|(&lo, &(hi, _))| (lo, hi));
        let mut missing = VecDeque::new();
        let mut cursor = 0;
        for (lo, hi) in settled.chain([(self.trials, self.trials)]) {
            while cursor < lo {
                let end = (cursor + chunk).min(lo);
                missing.push_back((cursor, end));
                cursor = end;
            }
            cursor = cursor.max(hi);
        }
        missing
    }

    /// Whether the range `lo..hi` is settled.
    pub(crate) fn holds(&self, (lo, hi): (u64, u64)) -> bool {
        self.settled.get(&lo).is_some_and(|&(end, _)| end == hi)
    }

    /// Whether the settled ranges cover every trial.
    pub(crate) fn is_complete(&self) -> bool {
        self.covered >= self.trials
    }

    /// Settles `lo..hi`, a missing range, with its records: appends them to
    /// the checkpoint as one line (an I/O error leaves the range missing),
    /// then keeps them for the merge.
    pub(crate) fn settle(
        &mut self,
        lo: u64,
        hi: u64,
        mut records: Vec<TrialRecord>,
    ) -> Result<(), OrchestrateError> {
        if let Some(writer) = self.writer.as_mut() {
            // The records move through the entry and back out.
            let entry = CheckpointEntry {
                scenario: self.scenario.clone(),
                base_seed: self.base_seed,
                trials: self.trials,
                lo,
                hi,
                records,
            };
            writer.append(&entry)?;
            records = entry.records;
        }
        self.covered += hi - lo;
        self.settled.insert(lo, (hi, records));
        Ok(())
    }

    /// The settled ranges merged into the `0..trials` record stream, the
    /// one a single-process campaign produces; a
    /// [`Coverage`](OrchestrateError::Coverage) error unless they tile
    /// `0..trials` exactly with every record in its own slot.
    pub(crate) fn merge(self) -> Result<Vec<TrialRecord>, OrchestrateError> {
        let total = self.trials;
        let mut merged: Vec<TrialRecord> = Vec::with_capacity(total as usize);
        for (lo, (hi, records)) in self.settled {
            if lo != merged.len() as u64 || records.len() as u64 != hi - lo {
                return Err(OrchestrateError::Coverage(format!(
                    "ranges do not tile 0..{total}: {lo}..{hi} carries {} record(s) and follows \
                     {} merged trial(s)",
                    records.len(),
                    merged.len()
                )));
            }
            merged.extend(records);
        }
        if merged.len() as u64 != total {
            return Err(OrchestrateError::Coverage(format!(
                "ranges cover 0..{} of 0..{total}",
                merged.len()
            )));
        }
        for (slot, record) in merged.iter().enumerate() {
            if record.trial != slot as u64 {
                return Err(OrchestrateError::Coverage(format!(
                    "slot {slot} holds trial {}",
                    record.trial
                )));
            }
        }
        Ok(merged)
    }
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
        use crate::experiments::Scale;
        use crate::scenario::scenario_registry;

        let mut spec = scenario_registry(Scale::Quick).remove(0);
        spec.trials = 3;
        let path = temp_path("torn-append");
        let entry = |lo: u64| CheckpointEntry {
            scenario: spec.id(),
            base_seed: spec.base_seed,
            trials: 3,
            lo,
            hi: lo + 1,
            records: vec![record(lo)],
        };
        append_checkpoint(&path, &entry(0)).unwrap();
        let whole = std::fs::read_to_string(&path).unwrap();
        let torn = &whole[..whole.len() / 2];
        std::fs::write(&path, format!("{whole}{torn}")).unwrap();

        // [0, torn] on disk, the resumed run settles 1 and 2, and the next
        // resume must see all three.
        let mut restored = Vec::new();
        let mut ledger =
            RangeLedger::resume(&spec, Some(&path), |lo, hi| restored.push((lo, hi))).unwrap();
        assert_eq!(restored, [(0, 1)]);
        ledger.settle(1, 2, vec![record(1)]).unwrap();
        ledger.settle(2, 3, vec![record(2)]).unwrap();
        drop(ledger);
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

    /// A ledger of `trials` trials, without a checkpoint, that has settled
    /// `ranges`.
    fn ledger(trials: u64, ranges: &[(u64, u64, Vec<TrialRecord>)]) -> RangeLedger {
        RangeLedger {
            scenario: String::new(),
            base_seed: 0,
            trials,
            writer: None,
            settled: ranges
                .iter()
                .map(|(lo, hi, records)| (*lo, (*hi, records.clone())))
                .collect(),
            covered: ranges.iter().map(|(lo, hi, _)| hi - lo).sum(),
        }
    }

    /// What a ledger of `trials` trials that has settled `ranges` is
    /// missing, in chunks of `chunk`.
    fn missing(trials: u64, ranges: &[(u64, u64)], chunk: u64) -> Vec<(u64, u64)> {
        let ranges: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| (lo, hi, (lo..hi).map(record).collect()))
            .collect();
        ledger(trials, &ranges).missing(chunk).into()
    }

    #[test]
    fn missing_complements_arbitrary_coverage() {
        assert_eq!(missing(10, &[], 10), vec![(0, 10)]);
        assert_eq!(missing(10, &[(0, 10)], 10), Vec::<(u64, u64)>::new());
        assert_eq!(
            missing(10, &[(2, 5), (7, 9)], 10),
            vec![(0, 2), (5, 7), (9, 10)]
        );
        assert_eq!(missing(10, &[(5, 10), (0, 2)], 10), vec![(2, 5)]);
        assert_eq!(missing(0, &[], 10), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn missing_is_chunked_without_gaps() {
        assert_eq!(
            missing(12, &[(7, 10)], 3),
            vec![(0, 3), (3, 6), (6, 7), (10, 12)]
        );
        // A zero chunk is clamped, not an infinite loop.
        assert_eq!(missing(2, &[], 0).len(), 2);
        // And a chunk past the range cap is cut to it.
        assert_eq!(
            missing(MAX_RANGE_TRIALS + 1, &[], u64::MAX).last(),
            Some(&(MAX_RANGE_TRIALS, MAX_RANGE_TRIALS + 1))
        );
    }

    #[test]
    fn merge_validates_tiling_and_slots() {
        let done = [
            (3, 5, vec![record(3), record(4)]),
            (0, 3, vec![record(0), record(1), record(2)]),
        ];
        let merged = ledger(5, &done).merge().unwrap();
        assert_eq!(merged.len(), 5);
        assert!(merged.iter().enumerate().all(|(i, r)| r.trial == i as u64));

        let gap = [(0, 2, vec![record(0), record(1)])];
        assert!(matches!(
            ledger(5, &gap).merge(),
            Err(OrchestrateError::Coverage(_))
        ));
        let overlap = [
            (0, 3, vec![record(0), record(1), record(2)]),
            (2, 5, vec![record(2), record(3), record(4)]),
        ];
        assert!(matches!(
            ledger(5, &overlap).merge(),
            Err(OrchestrateError::Coverage(_))
        ));
        let short = [(0, 3, vec![record(0)])];
        assert!(matches!(
            ledger(3, &short).merge(),
            Err(OrchestrateError::Coverage(_))
        ));
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

    // The text decoders on bytes they did not write: every input decodes to
    // what `JsonValue::parse` of the same text describes, or is refused.

    use super::super::wire::tests::{below, mutants};
    use crate::record::{JsonlSink, ReportSink, ScenarioMeta};
    use agreement_analysis::JsonValue;
    use agreement_model::Bit;
    use agreement_sim::Metrics;

    /// `value`'s member `key`; the last one when it repeats.
    fn last<'v>(value: &'v JsonValue, key: &str) -> Option<&'v JsonValue> {
        match value {
            JsonValue::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The record a parsed tree describes, read from the tree alone: the
    /// oracle the text decoder is held to.
    fn record_of_tree(tree: &JsonValue) -> Option<TrialRecord> {
        let int = |value: &JsonValue, key: &str| last(value, key)?.as_u64();
        let flag = |key: &str| last(tree, key)?.as_bool();
        let opt = |key: &str| match last(tree, key)? {
            JsonValue::Null => Some(None),
            value => value.as_u64().map(Some),
        };
        let m = last(tree, "metrics")?;
        Some(TrialRecord {
            trial: int(tree, "trial")?,
            seed: int(tree, "seed")?,
            agreement: flag("agreement")?,
            validity: flag("validity")?,
            terminated: flag("terminated")?,
            violations: int(tree, "violations")?,
            halted: flag("halted")?,
            decided: match opt("decided")? {
                None => None,
                Some(0) => Some(Bit::Zero),
                Some(1) => Some(Bit::One),
                Some(_) => return None,
            },
            first_decision_at: opt("first_decision_at")?,
            all_decided_at: opt("all_decided_at")?,
            duration: int(tree, "duration")?,
            longest_chain: int(tree, "longest_chain")?,
            metrics: Metrics {
                messages_sent: int(m, "messages_sent")?,
                messages_delivered: int(m, "messages_delivered")?,
                messages_dropped: int(m, "messages_dropped")?,
                rounds: int(m, "rounds")?,
                windows: int(m, "windows")?,
                steps: int(m, "steps")?,
                resets_consumed: int(m, "resets_consumed")?,
                crashes: int(m, "crashes")?,
                coin_flips: int(m, "coin_flips")?,
                max_chain: int(m, "max_chain")?,
            },
        })
    }

    fn entry_of_tree(tree: &JsonValue) -> Option<CheckpointEntry> {
        let int = |key: &str| last(tree, key)?.as_u64();
        let records = last(tree, "records")?.as_array()?;
        Some(CheckpointEntry {
            scenario: last(tree, "scenario")?.as_str()?.to_string(),
            base_seed: int("base_seed")?,
            trials: int("trials")?,
            lo: int("lo")?,
            hi: int("hi")?,
            records: records.iter().map(record_of_tree).collect::<Option<_>>()?,
        })
    }

    /// Whether some object in `tree` names a member twice.
    fn repeats_a_key(tree: &JsonValue) -> bool {
        match tree {
            JsonValue::Object(pairs) => pairs.iter().enumerate().any(|(i, (key, value))| {
                pairs[..i].iter().any(|(k, _)| k == key) || repeats_a_key(value)
            }),
            JsonValue::Array(items) => items.iter().any(repeats_a_key),
            _ => false,
        }
    }

    /// Runs `decode` on `text`, failing with the input if it panics.
    fn decode_unwinding<T>(text: &str, decode: fn(&str) -> Result<T, String>) -> Result<T, String> {
        std::panic::catch_unwind(|| decode(text))
            .unwrap_or_else(|_| panic!("a decoder panicked on {text:?}"))
    }

    fn decode_record(text: &str) -> Result<TrialRecord, String> {
        let mut reader = JsonReader::new(text);
        let record = TrialRecord::read_json(&mut reader)?;
        reader.finish()?;
        Ok(record)
    }

    /// Holds a decoder's answer on `text` to the tree's. A decoded value is
    /// the one the tree describes. A refusal must be excused: the tree
    /// describes nothing, or the text holds what the reader may refuse while
    /// a last-wins reading of the tree accepts it (an earlier duplicate of
    /// the wrong type, or a `-0`, which the tree reads as 0). Returns whether
    /// it decoded.
    fn agrees_with_tree<T: PartialEq + std::fmt::Debug>(
        text: &str,
        decoded: Result<T, String>,
        oracle: fn(&JsonValue) -> Option<T>,
    ) -> bool {
        let tree = JsonValue::parse(text);
        let described = tree.as_ref().ok().and_then(oracle);
        match decoded {
            Ok(value) => {
                assert_eq!(Some(&value), described.as_ref(), "decoded {text:?}");
                true
            }
            Err(err) => {
                let excused = described.is_none()
                    || tree.as_ref().is_ok_and(repeats_a_key)
                    || text.contains("-0");
                assert!(excused, "refused {text:?}: {err}");
                false
            }
        }
    }

    fn wrap(body: &str) -> String {
        format!("{{\"crc\":{},\"entry\":{body}}}", crc32(body.as_bytes()))
    }

    /// A checkpoint line around `body` with its CRC right, so the bytes reach
    /// the JSON reader.
    fn check_wrapped(body: &str) -> bool {
        let decoded = decode_unwinding(&wrap(body), parse_checkpoint_line);
        agrees_with_tree(body, decoded, entry_of_tree)
    }

    /// A damaged whole line: if it still decodes, then to what the body its
    /// wrapper names describes.
    fn check_line(line: &str) {
        if let Ok(entry) = decode_unwinding(line, parse_checkpoint_line) {
            let body = line
                .strip_prefix("{\"crc\":")
                .and_then(|rest| rest.split_once(",\"entry\":"))
                .and_then(|(_, tail)| tail.strip_suffix('}'))
                .expect("a decoded line has its wrapper");
            agrees_with_tree(body, Ok(entry), entry_of_tree);
        }
    }

    /// `count` seeded mutants of `text` (the wire test's bit flips, cuts and
    /// splices of a donor's slice), read back as UTF-8, lossily.
    fn text_mutants(text: &str, donors: &[String], state: &mut u64, count: usize) -> Vec<String> {
        let donors: Vec<Vec<u8>> = donors
            .iter()
            .map(|donor| donor.clone().into_bytes())
            .collect();
        mutants(text.as_bytes(), &donors, state, count)
            .iter()
            .map(|bytes| String::from_utf8_lossy(bytes).into_owned())
            .collect()
    }

    /// An object as its members' spelled keys and value texts.
    type Members = Vec<(String, String)>;

    fn members_of(text: &str) -> Members {
        match JsonValue::parse(text).expect("a written object parses") {
            JsonValue::Object(pairs) => pairs
                .into_iter()
                .map(|(key, value)| (JsonValue::from(key).to_string(), value.to_string()))
                .collect(),
            _ => unreachable!(),
        }
    }

    fn render(members: &Members) -> String {
        let spelled: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        format!("{{{}}}", spelled.join(","))
    }

    /// Variants of `members` whose first `at` members keep the written order
    /// and spelling, and that leave it at member `at`: swapped with the next
    /// one, an unknown member, the previous member repeated, the key escaped,
    /// whitespace before the key. Each describes the same value as `members`.
    fn leaving_at(members: &Members, at: usize) -> Vec<Members> {
        let mut variants = Vec::new();
        let mut edit = |change: &dyn Fn(&mut Members)| {
            let mut variant = members.clone();
            change(&mut variant);
            variants.push(variant);
        };
        if at + 1 < members.len() {
            edit(&|m: &mut Members| m.swap(at, at + 1));
        }
        // An unknown member whose key extends the expected one.
        let key = &members[at].0;
        let unknown = (
            format!("{}_\"", &key[..key.len() - 1]),
            r#"[1,{"a":null},"s",-2.5e3]"#.to_string(),
        );
        edit(&|m: &mut Members| m.insert(at, unknown.clone()));
        if at > 0 {
            edit(&|m: &mut Members| m.insert(at, m[at - 1].clone()));
        }
        edit(&|m: &mut Members| {
            let key = &mut m[at].0;
            *key = format!("\"\\u{:04x}{}", key.as_bytes()[1], &key[2..]);
        });
        edit(&|m: &mut Members| m[at].0.insert(0, ' '));
        variants
    }

    /// Member `at` repeated ahead of itself with `value`, then as written:
    /// the last one wins, or the reader refuses the first.
    fn shadowed(members: &Members, at: usize, value: &str) -> Members {
        let mut variant = members.clone();
        variant.insert(at, (members[at].0.clone(), value.to_string()));
        variant
    }

    /// `text` with the value of one of its numbers replaced by a run of 18 to
    /// 21 digits, sometimes behind leading zeros.
    fn digit_run(text: &str, state: &mut u64) -> String {
        let numbers: Vec<usize> = text
            .match_indices(':')
            .map(|(at, _)| at + 1)
            .filter(|&at| text.as_bytes().get(at).is_some_and(u8::is_ascii_digit))
            .collect();
        let at = numbers[below(state, numbers.len())];
        let end = at + text[at..].bytes().take_while(u8::is_ascii_digit).count();
        let zeros = ["", "", "0", "00"][below(state, 4)];
        let mut run: String = (0..18 + below(state, 4))
            .map(|_| char::from(b'0' + below(state, 10) as u8))
            .collect();
        if zeros.is_empty() && run.starts_with('0') {
            run.replace_range(..1, "1");
        }
        format!("{}{zeros}{run}{}", &text[..at], &text[end..])
    }

    #[test]
    fn record_and_checkpoint_decoders_fail_loudly_on_bytes_they_did_not_write() {
        use crate::experiments::Scale;
        use crate::scenario::scenario_registry;
        use crate::Campaign;

        // Real records of all three models: decided and undecided, halted
        // and crashed.
        let registry = scenario_registry(Scale::Quick);
        let mut records = Vec::new();
        for id in [
            "psync/ben-or/benign-eventual/unanimous-1/n7t1",
            "e7/committee5/non-adaptive-crash/unanimous-1/n18t2",
            "e1/reset-tolerant/split-vote/split/n7t1",
        ] {
            let spec = registry.iter().find(|spec| spec.id() == id).expect(id);
            records.extend(spec.run_range_records(&Campaign::serial(), 0, 5).unwrap());
        }
        let texts: Vec<String> = records
            .iter()
            .map(|record| {
                let mut text = String::new();
                record.write_json(&mut JsonWriter::new(&mut text));
                text
            })
            .collect();
        let meta = ScenarioMeta {
            id: "psync/ben-or/benign-eventual/unanimous-1/n7t1".to_string(),
            model: "partial-sync".to_string(),
            n: 7,
            t: 1,
            trials: records.len() as u64,
            base_seed: 0,
            time_cap: 100,
        };
        let mut jsonl = JsonlSink::new();
        records
            .iter()
            .for_each(|record| jsonl.record_trial(&meta, record));
        let lines: Vec<String> = jsonl.as_str().lines().map(String::from).collect();

        // Declared order throughout: the written texts, and the same with a
        // number's digits replaced (the reader decides on values alone).
        let mut state = 0x0DEC_0DE5_u64;
        for (text, record) in texts.iter().zip(&records) {
            assert_eq!(decode_record(text), Ok(*record));
            for _ in 0..24 {
                let run = digit_run(text, &mut state);
                agrees_with_tree(&run, decode_unwinding(&run, decode_record), record_of_tree);
            }
        }

        // Leaving the declared order at every member of both objects: each
        // variant still decodes, to the same record.
        for text in &texts {
            let top = members_of(text);
            let metrics_at = top.len() - 1;
            let metrics = members_of(&top[metrics_at].1);
            let mut variants: Vec<String> = (0..top.len())
                .flat_map(|at| leaving_at(&top, at))
                .map(|variant| render(&variant))
                .collect();
            for at in 0..metrics.len() {
                for variant in leaving_at(&metrics, at) {
                    let mut outer = top.clone();
                    outer[metrics_at].1 = render(&variant);
                    variants.push(render(&outer));
                }
            }
            for variant in &variants {
                let decoded = decode_unwinding(variant, decode_record);
                assert!(
                    agrees_with_tree(variant, decoded, record_of_tree),
                    "{variant}"
                );
            }
            // A repeated member: the last one wins, or a first one of the
            // wrong type is refused.
            for at in 0..top.len() {
                for value in ["0", "null", "true", "\"x\"", "{}"] {
                    let variant = render(&shadowed(&top, at, value));
                    agrees_with_tree(
                        &variant,
                        decode_unwinding(&variant, decode_record),
                        record_of_tree,
                    );
                }
            }
        }

        // Damaged bytes: records alone and behind a JSONL line's scenario id.
        let donors: Vec<String> = texts.iter().chain(&lines).cloned().collect();
        let (mut tried, mut decoded) = (0, 0);
        for text in texts.iter().chain(&lines) {
            for mutant in text_mutants(text, &donors, &mut state, 120) {
                let outcome = decode_unwinding(&mutant, decode_record);
                decoded += usize::from(agrees_with_tree(&mutant, outcome, record_of_tree));
                tried += 1;
            }
        }
        assert!(
            decoded > 0 && decoded < tried,
            "{decoded} of {tried} mutants decoded"
        );

        // Checkpoint lines: an entry of real records, in order and left at
        // every member, its records varied in place, then damaged bytes with
        // the CRC made right (they reach the reader) and left wrong.
        let entry = CheckpointEntry {
            scenario: meta.id.clone(),
            base_seed: 0x5EED,
            trials: 100,
            lo: 40,
            hi: 40 + records.len() as u64,
            records: records.clone(),
        };
        let mut body = String::new();
        entry.write_json(&mut JsonWriter::new(&mut body));
        let mut line = String::new();
        push_checkpoint_line(&entry, &mut String::new(), &mut line);
        assert_eq!(line, format!("{}\n", wrap(&body)));
        assert_eq!(parse_checkpoint_line(line.trim_end()), Ok(entry.clone()));
        let members = members_of(&body);
        for at in 0..members.len() {
            for variant in leaving_at(&members, at) {
                assert!(check_wrapped(&render(&variant)));
            }
        }
        let records_at = members.len() - 1;
        for (at, text) in texts.iter().enumerate().step_by(4) {
            let record_members = members_of(text);
            for variant in leaving_at(&record_members, below(&mut state, record_members.len())) {
                let mut varied = texts.clone();
                varied[at] = render(&variant);
                let mut outer = members.clone();
                outer[records_at].1 = format!("[{}]", varied.join(","));
                assert!(check_wrapped(&render(&outer)));
            }
        }
        let (mut tried, mut decoded) = (0, 0);
        for mutant in text_mutants(&body, &donors, &mut state, 300) {
            decoded += usize::from(check_wrapped(&mutant));
            tried += 1;
        }
        for _ in 0..40 {
            decoded += usize::from(check_wrapped(&digit_run(&body, &mut state)));
            tried += 1;
        }
        assert!(
            decoded > 0 && decoded < tried,
            "{decoded} of {tried} bodies decoded"
        );
        let whole = [line.trim_end().to_string()];
        for mutant in text_mutants(&whole[0], &whole, &mut state, 300) {
            check_line(&mutant);
        }
    }
}
