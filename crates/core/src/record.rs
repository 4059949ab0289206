//! Structured per-trial results and the composable report-sink pipeline.
//!
//! A [`Campaign`](crate::Campaign) no longer collapses its trials straight
//! into one aggregate: every trial produces a [`TrialRecord`] — seed, outcome
//! flags and the full [`Metrics`] of the run — and records stream, in trial
//! order, into any number of [`ReportSink`]s. Sinks are where presentation
//! and aggregation happen:
//!
//! * [`TableSink`] reproduces today's plain-text aggregate table (one row per
//!   scenario, the `scenarios` binary's output),
//! * [`JsonlSink`] writes one JSON object per trial (machine-readable stream),
//! * [`CsvSink`] writes one summary row per scenario,
//! * [`JsonReportSink`] collects full [`ScenarioReport`]s as one JSON
//!   document (the `--json` output).
//!
//! Record streams are **bit-identical across thread counts** (the campaign
//! fans trials out but always hands them to sinks in trial order), so every
//! sink output is deterministic for a given spec and seed — a property pinned
//! by the workspace tests.

use agreement_analysis::{read_json_object, JsonMembers, JsonReader, JsonValue, JsonWriter};
use agreement_model::{Bit, InputAssignment};
use agreement_sim::{Metrics, RunOutcome};

use crate::report::{fmt_f64, fmt_rate, Table};
use crate::scenario::ScenarioReport;

/// Identity of the scenario whose trial records are being streamed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioMeta {
    /// The scenario's stable id (`[tag/]protocol/adversary/inputs/n<n>t<t>`).
    pub id: String,
    /// Execution model label (`windowed` / `async` / `partial-sync`).
    pub model: String,
    /// Number of processors.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// Number of trials.
    pub trials: u64,
    /// Base seed; trial `i` used `base_seed + i`, wrapping past `u64::MAX`.
    pub base_seed: u64,
    /// The scheduler's time cap (windows or steps, per the model): undecided
    /// trials contribute this value to decision-time aggregation.
    pub time_cap: u64,
}

/// Bytes of the longest [`TrialRecord::write_json_fields`] rendering: every
/// integer at `u64::MAX`, every bool `false`, `decided` `null` (a test pins
/// it).
const RECORD_MEMBERS_MAX: usize = 680;

/// The structured result of one seeded trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Trial index within the plan (`0..trials`).
    pub trial: u64,
    /// The seed this trial ran with.
    pub seed: u64,
    /// Agreement held (no two processors decided differently).
    pub agreement: bool,
    /// Validity held (every decided value was some processor's input).
    pub validity: bool,
    /// Every correct processor decided within the limit.
    pub terminated: bool,
    /// Number of recorded violations.
    pub violations: u64,
    /// The adversary halted the execution before the limit.
    pub halted: bool,
    /// The commonly decided value, when agreement held and someone decided.
    pub decided: Option<Bit>,
    /// Time of the first decision, if any.
    pub first_decision_at: Option<u64>,
    /// Time at which the last correct processor decided, if all did.
    pub all_decided_at: Option<u64>,
    /// Windows/steps elapsed.
    pub duration: u64,
    /// The scheduler's running-time chain metric.
    pub longest_chain: u64,
    /// Structured counters of the run.
    pub metrics: Metrics,
}

impl TrialRecord {
    /// Distills a [`RunOutcome`] (plus the inputs needed for the validity
    /// check) into its record. The heavyweight trace is dropped here, which
    /// is what lets campaigns keep thousands of trials in flight.
    pub fn from_outcome(
        trial: u64,
        seed: u64,
        outcome: &RunOutcome,
        inputs: &InputAssignment,
    ) -> Self {
        TrialRecord {
            trial,
            seed,
            agreement: outcome.agreement_holds(),
            validity: outcome.validity_holds(inputs),
            terminated: outcome.all_correct_decided(),
            violations: outcome.violations.len() as u64,
            halted: outcome.halted_by_adversary,
            decided: outcome.decided_value(),
            first_decision_at: outcome.first_decision_at,
            all_decided_at: outcome.all_decided_at,
            duration: outcome.duration,
            longest_chain: outcome.longest_chain,
            metrics: outcome.metrics,
        }
    }

    /// Writes the record as a JSON object straight into `w` (field order is
    /// stable). Together with [`TrialRecord::read_json`] this is the record's
    /// one field table: checkpoint lines, the JSONL stream and the tree
    /// conversions below are all produced by it.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object();
        self.write_json_fields(w);
        w.end_object();
    }

    /// The members of [`TrialRecord::write_json`]'s object without its
    /// braces, for callers that lead the same object with members of their
    /// own (the JSONL line's `scenario`). They are rendered in one pass on
    /// the stack and reach `w` as one write.
    pub fn write_json_fields(&self, w: &mut JsonWriter<'_>) {
        let m = &self.metrics;
        let mut out = JsonMembers::<RECORD_MEMBERS_MAX>::new();
        out.raw(b"\"trial\":").u64(self.trial);
        out.raw(b",\"seed\":").u64(self.seed);
        out.raw(b",\"agreement\":").bool(self.agreement);
        out.raw(b",\"validity\":").bool(self.validity);
        out.raw(b",\"terminated\":").bool(self.terminated);
        out.raw(b",\"violations\":").u64(self.violations);
        out.raw(b",\"halted\":").bool(self.halted);
        out.raw(b",\"decided\":")
            .opt_u64(self.decided.map(|bit| bit.as_index() as u64));
        out.raw(b",\"first_decision_at\":")
            .opt_u64(self.first_decision_at);
        out.raw(b",\"all_decided_at\":")
            .opt_u64(self.all_decided_at);
        out.raw(b",\"duration\":").u64(self.duration);
        out.raw(b",\"longest_chain\":").u64(self.longest_chain);
        out.raw(b",\"metrics\":{");
        out.raw(b"\"messages_sent\":").u64(m.messages_sent);
        out.raw(b",\"messages_delivered\":")
            .u64(m.messages_delivered);
        out.raw(b",\"messages_dropped\":").u64(m.messages_dropped);
        out.raw(b",\"rounds\":").u64(m.rounds);
        out.raw(b",\"windows\":").u64(m.windows);
        out.raw(b",\"steps\":").u64(m.steps);
        out.raw(b",\"resets_consumed\":").u64(m.resets_consumed);
        out.raw(b",\"crashes\":").u64(m.crashes);
        out.raw(b",\"coin_flips\":").u64(m.coin_flips);
        out.raw(b",\"max_chain\":").u64(m.max_chain);
        out.raw(b"}");
        w.members(&out);
    }

    /// Reads back the object [`TrialRecord::write_json`] writes, members in
    /// any order, unknown members ignored.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, missing or mistyped field.
    pub fn read_json(r: &mut JsonReader<'_>) -> Result<Self, String> {
        fn read_metrics(r: &mut JsonReader<'_>) -> Result<Metrics, String> {
            read_json_object!(r, {
                "messages_sent" => messages_sent: r.u64(),
                "messages_delivered" => messages_delivered: r.u64(),
                "messages_dropped" => messages_dropped: r.u64(),
                "rounds" => rounds: r.u64(),
                "windows" => windows: r.u64(),
                "steps" => steps: r.u64(),
                "resets_consumed" => resets_consumed: r.u64(),
                "crashes" => crashes: r.u64(),
                "coin_flips" => coin_flips: r.u64(),
                "max_chain" => max_chain: r.u64(),
            });
            Ok(Metrics {
                messages_sent,
                messages_delivered,
                messages_dropped,
                rounds,
                windows,
                steps,
                resets_consumed,
                crashes,
                coin_flips,
                max_chain,
            })
        }
        read_json_object!(r, {
            "trial" => trial: r.u64(),
            "seed" => seed: r.u64(),
            "agreement" => agreement: r.bool(),
            "validity" => validity: r.bool(),
            "terminated" => terminated: r.bool(),
            "violations" => violations: r.u64(),
            "halted" => halted: r.bool(),
            "decided" => decided: r.opt_u64(),
            "first_decision_at" => first_decision_at: r.opt_u64(),
            "all_decided_at" => all_decided_at: r.opt_u64(),
            "duration" => duration: r.u64(),
            "longest_chain" => longest_chain: r.u64(),
            "metrics" => metrics: read_metrics(r),
        });
        Ok(TrialRecord {
            trial,
            seed,
            agreement,
            validity,
            terminated,
            violations,
            halted,
            decided: match decided {
                None => None,
                Some(0) => Some(Bit::Zero),
                Some(1) => Some(Bit::One),
                Some(other) => {
                    return Err(format!("field 'decided' must be 0, 1 or null, got {other}"))
                }
            },
            first_decision_at,
            all_decided_at,
            duration,
            longest_chain,
            metrics,
        })
    }

    /// The record as a JSON tree: [`TrialRecord::write_json`]'s text, parsed.
    pub fn to_json(&self) -> JsonValue {
        let mut text = String::new();
        self.write_json(&mut JsonWriter::new(&mut text));
        JsonValue::parse(&text).expect("the record encoder writes valid JSON")
    }

    /// Rebuilds a record from the JSON shape [`TrialRecord::to_json`] emits,
    /// by running [`TrialRecord::read_json`] over the tree's text.
    ///
    /// # Errors
    ///
    /// Returns the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        Self::read_json(&mut JsonReader::new(&value.to_string()))
    }
}

/// Receives one scenario's trial records in trial order.
///
/// Sinks compose: the runner calls every sink for every event, so table
/// output, JSONL streams and aggregation can all be produced from one pass.
pub trait ReportSink {
    /// A new scenario's trials are about to stream.
    fn begin_scenario(&mut self, meta: &ScenarioMeta) {
        let _ = meta;
    }

    /// One trial's record (called in trial order).
    fn record_trial(&mut self, meta: &ScenarioMeta, record: &TrialRecord) {
        let _ = (meta, record);
    }

    /// The scenario's trials are complete; `report` holds the aggregate and
    /// distributions computed from the full record stream.
    fn end_scenario(&mut self, meta: &ScenarioMeta, report: &ScenarioReport) {
        let _ = (meta, report);
    }
}

/// Streams `records` (already in trial order) through `sinks` and returns the
/// finished [`ScenarioReport`].
pub fn stream_records(
    meta: &ScenarioMeta,
    records: &[TrialRecord],
    sinks: &mut [&mut dyn ReportSink],
) -> ScenarioReport {
    for sink in sinks.iter_mut() {
        sink.begin_scenario(meta);
    }
    for record in records {
        for sink in sinks.iter_mut() {
            sink.record_trial(meta, record);
        }
    }
    let report = ScenarioReport::from_records(meta.clone(), records);
    for sink in sinks.iter_mut() {
        sink.end_scenario(meta, &report);
    }
    report
}

/// Renders one aggregate row per scenario into a plain-text [`Table`] — the
/// `scenarios` binary's historical output, now just another sink.
#[derive(Debug)]
pub struct TableSink {
    table: Table,
}

impl TableSink {
    /// The column headers of the scenario table.
    pub const COLUMNS: [&'static str; 8] = [
        "scenario",
        "model",
        "trials",
        "termination",
        "agreement",
        "validity",
        "mean time",
        "mean chain",
    ];

    /// Creates the sink with the table's title and caption.
    pub fn new(title: impl Into<String>, caption: impl Into<String>) -> Self {
        TableSink {
            table: Table::new(title, caption, Self::COLUMNS.to_vec()),
        }
    }

    /// Pushes a non-result row (e.g. an infeasible scenario marker).
    pub fn push_failure(&mut self, id: String, reason: String) {
        self.table.push_row(vec![
            id,
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            reason,
            "-".to_string(),
        ]);
    }

    /// The finished table.
    pub fn into_table(self) -> Table {
        self.table
    }
}

impl ReportSink for TableSink {
    fn end_scenario(&mut self, meta: &ScenarioMeta, report: &ScenarioReport) {
        let aggregate = &report.aggregate;
        self.table.push_row(vec![
            meta.id.clone(),
            meta.model.clone(),
            aggregate.trials.to_string(),
            fmt_rate(aggregate.termination_rate),
            fmt_rate(aggregate.agreement_rate),
            fmt_rate(aggregate.validity_rate),
            fmt_f64(aggregate.decision_time.mean),
            fmt_f64(aggregate.chain_length.mean),
        ]);
    }
}

/// Writes one JSON object per trial, newline-delimited (JSONL), each tagged
/// with its scenario id.
#[derive(Debug, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The JSONL document accumulated so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the JSONL document.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl ReportSink for JsonlSink {
    fn begin_scenario(&mut self, meta: &ScenarioMeta) {
        // One allocation sized for the scenario's lines instead of a chain
        // of doublings (each holding old and new buffer at once). Only pages
        // that get written count, so a generous guess costs nothing.
        let lines = usize::try_from(meta.trials).unwrap_or(usize::MAX);
        let _ = self
            .out
            .try_reserve(lines.saturating_mul(meta.id.len() + 400));
    }

    fn record_trial(&mut self, meta: &ScenarioMeta, record: &TrialRecord) {
        let mut w = JsonWriter::new(&mut self.out);
        w.begin_object().key("scenario").str(&meta.id);
        record.write_json_fields(&mut w);
        w.end_object();
        self.out.push('\n');
    }
}

/// Writes one comma-separated summary row per scenario (header included).
#[derive(Debug)]
pub struct CsvSink {
    out: String,
}

impl CsvSink {
    /// The header row.
    pub const HEADER: &'static str = "id,model,n,t,trials,base_seed,termination_rate,\
        agreement_rate,validity_rate,violation_rate,decision_time_mean,decision_time_p50,\
        decision_time_p90,decision_time_max,chain_mean,chain_max,messages_mean,resets_mean";

    /// A sink holding only the header row.
    pub fn new() -> Self {
        CsvSink {
            out: format!("{}\n", Self::HEADER),
        }
    }

    /// The CSV document accumulated so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the CSV document.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl Default for CsvSink {
    fn default() -> Self {
        CsvSink::new()
    }
}

impl ReportSink for CsvSink {
    fn end_scenario(&mut self, meta: &ScenarioMeta, report: &ScenarioReport) {
        // Scenario ids contain no commas or quotes by construction, so no
        // field quoting is needed; floats use shortest-round-trip format.
        let aggregate = &report.aggregate;
        let row = [
            meta.id.clone(),
            meta.model.clone(),
            meta.n.to_string(),
            meta.t.to_string(),
            meta.trials.to_string(),
            meta.base_seed.to_string(),
            aggregate.termination_rate.to_string(),
            aggregate.agreement_rate.to_string(),
            aggregate.validity_rate.to_string(),
            aggregate.violation_rate.to_string(),
            aggregate.decision_time.mean.to_string(),
            report.decision_times.percentile(50.0).to_string(),
            report.decision_times.percentile(90.0).to_string(),
            aggregate.decision_time.max.to_string(),
            aggregate.chain_length.mean.to_string(),
            aggregate.chain_length.max.to_string(),
            aggregate.messages.mean.to_string(),
            aggregate.resets.mean.to_string(),
        ];
        self.out.push_str(&row.join(","));
        self.out.push('\n');
    }
}

/// Collects every scenario's [`ScenarioReport`] as one JSON document:
/// `{"scale": ..., "scenarios": [...]}` (the `scale` header only when set).
/// This is the `--json` output of the binaries and the shape of the committed
/// `tests/golden/subquad-quick.json` byte pin — defined here, in one place,
/// so the emitting binaries and the `--check` validator cannot drift apart.
#[derive(Debug, Default)]
pub struct JsonReportSink {
    scale: Option<String>,
    reports: Vec<JsonValue>,
}

impl JsonReportSink {
    /// An empty sink with no document header.
    pub fn new() -> Self {
        JsonReportSink::default()
    }

    /// An empty sink whose document leads with a `"scale"` header (the run
    /// parameters deliberately exclude timestamps: emitted documents must be
    /// reproducible).
    pub fn with_scale(scale: impl Into<String>) -> Self {
        JsonReportSink {
            scale: Some(scale.into()),
            reports: Vec::new(),
        }
    }

    /// The collected document.
    pub fn into_json(self) -> JsonValue {
        let mut doc = JsonValue::object();
        if let Some(scale) = self.scale {
            doc.push("scale", scale);
        }
        doc.push("scenarios", JsonValue::Array(self.reports));
        doc
    }
}

impl ReportSink for JsonReportSink {
    fn end_scenario(&mut self, _meta: &ScenarioMeta, report: &ScenarioReport) {
        self.reports.push(report.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_analysis::Histogram;
    use agreement_model::ProcessorRng;
    use agreement_sim::Metrics;

    fn record(trial: u64) -> TrialRecord {
        TrialRecord {
            trial,
            seed: 0x5EED + trial,
            agreement: true,
            validity: true,
            terminated: trial.is_multiple_of(2),
            violations: 0,
            halted: false,
            decided: if trial.is_multiple_of(2) {
                Some(Bit::One)
            } else {
                None
            },
            first_decision_at: Some(trial + 1),
            all_decided_at: if trial.is_multiple_of(2) {
                Some(trial + 3)
            } else {
                None
            },
            duration: trial + 3,
            longest_chain: 2 * trial,
            metrics: Metrics {
                messages_sent: 10 * trial,
                messages_delivered: 9 * trial,
                messages_dropped: trial,
                rounds: 2,
                windows: trial + 3,
                steps: 0,
                resets_consumed: trial,
                crashes: 0,
                coin_flips: 5 * trial,
                max_chain: 2 * trial,
            },
        }
    }

    fn meta(trials: u64) -> ScenarioMeta {
        ScenarioMeta {
            id: "test/proto/adv/split/n7t1".to_string(),
            model: "windowed".to_string(),
            n: 7,
            t: 1,
            trials,
            base_seed: 0x5EED,
            time_cap: 100,
        }
    }

    #[test]
    fn trial_record_json_round_trips() {
        for trial in 0..4 {
            let original = record(trial);
            let json = original.to_json();
            let text = json.to_string();
            let parsed = JsonValue::parse(&text).expect("record emits valid JSON");
            let rebuilt = TrialRecord::from_json(&parsed).expect("record parses back");
            assert_eq!(rebuilt, original, "round trip changed the record: {text}");
        }
    }

    #[test]
    fn trial_record_from_json_reports_missing_fields() {
        let mut json = record(0).to_json();
        if let JsonValue::Object(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "seed");
        }
        let err = TrialRecord::from_json(&json).unwrap_err();
        assert!(err.contains("seed"), "unexpected error: {err}");
    }

    /// The tree a record has always printed as — the reference the text
    /// codec is held to, byte for byte.
    fn reference_tree(r: &TrialRecord) -> JsonValue {
        let mut metrics = JsonValue::object();
        metrics
            .push("messages_sent", r.metrics.messages_sent)
            .push("messages_delivered", r.metrics.messages_delivered)
            .push("messages_dropped", r.metrics.messages_dropped)
            .push("rounds", r.metrics.rounds)
            .push("windows", r.metrics.windows)
            .push("steps", r.metrics.steps)
            .push("resets_consumed", r.metrics.resets_consumed)
            .push("crashes", r.metrics.crashes)
            .push("coin_flips", r.metrics.coin_flips)
            .push("max_chain", r.metrics.max_chain);
        let mut tree = JsonValue::object();
        tree.push("trial", r.trial)
            .push("seed", r.seed)
            .push("agreement", r.agreement)
            .push("validity", r.validity)
            .push("terminated", r.terminated)
            .push("violations", r.violations)
            .push("halted", r.halted)
            .push("decided", r.decided.map(|bit| bit.as_index() as u64))
            .push("first_decision_at", r.first_decision_at)
            .push("all_decided_at", r.all_decided_at)
            .push("duration", r.duration)
            .push("longest_chain", r.longest_chain)
            .push("metrics", metrics);
        tree
    }

    /// Draws a record whose integers lean on the extremes (`0`, `u64::MAX`).
    fn arbitrary_record(rng: &mut ProcessorRng, mix: u64) -> TrialRecord {
        let mut int = || match rng.range(4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.range(1000),
            _ => rng.ticket(),
        };
        let mut metric = [0u64; 10];
        metric.fill_with(&mut int);
        TrialRecord {
            trial: int(),
            seed: u64::MAX - mix,
            agreement: mix & 8 != 0,
            validity: mix & 16 != 0,
            terminated: mix & 32 != 0,
            violations: int(),
            halted: mix & 64 != 0,
            // Every None/Some mix of the three optionals, in turn.
            decided: (mix & 1 != 0).then_some(if mix & 128 != 0 { Bit::One } else { Bit::Zero }),
            first_decision_at: (mix & 2 != 0).then(&mut int),
            all_decided_at: (mix & 4 != 0).then(&mut int),
            duration: int(),
            longest_chain: int(),
            metrics: Metrics {
                messages_sent: metric[0],
                messages_delivered: metric[1],
                messages_dropped: metric[2],
                rounds: metric[3],
                windows: metric[4],
                steps: metric[5],
                resets_consumed: metric[6],
                crashes: metric[7],
                coin_flips: metric[8],
                max_chain: metric[9],
            },
        }
    }

    fn read_text(text: &str) -> Result<TrialRecord, String> {
        let mut reader = JsonReader::new(text);
        let record = TrialRecord::read_json(&mut reader)?;
        reader.finish()?;
        Ok(record)
    }

    /// Prints a tree with its members shuffled (recursively) and whitespace
    /// around every token.
    fn shuffled_and_padded(value: &JsonValue, rng: &mut ProcessorRng, out: &mut String) {
        let pad = |rng: &mut ProcessorRng| [" ", "\n", "\t \r", ""][rng.range(4) as usize];
        match value {
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, at) in rng.permutation(pairs.len()).into_iter().enumerate() {
                    let (key, member) = &pairs[at];
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(pad(rng));
                    out.push_str(&JsonValue::from(key.as_str()).to_string());
                    out.push_str(pad(rng));
                    out.push(':');
                    out.push_str(pad(rng));
                    shuffled_and_padded(member, rng, out);
                    out.push_str(pad(rng));
                }
                out.push('}');
            }
            leaf => out.push_str(&leaf.to_string()),
        }
    }

    #[test]
    fn text_codec_equals_the_tree_and_agrees_with_it_on_every_rejection() {
        let rng = &mut ProcessorRng::from_seed(0xC0DEC);
        let ids = [
            "e1/reset-tolerant/split-vote/split/n13t2",
            "quote\"back\\slash/ctl\u{1}\n\t\r\u{1f}/é∆😀/\u{7f}",
            "",
        ];
        for mix in 0..256u64 {
            let record = arbitrary_record(rng, mix);
            let tree = reference_tree(&record);
            let mut text = String::new();
            record.write_json(&mut JsonWriter::new(&mut text));
            assert_eq!(text, tree.to_string());
            assert_eq!(read_text(&text), Ok(record));
            assert_eq!(record.to_json(), tree);
            assert_eq!(TrialRecord::from_json(&tree), Ok(record));

            // The JSONL line: the same members behind a hostile scenario id.
            let mut meta = meta(1);
            meta.id = ids[mix as usize % ids.len()].to_string();
            let mut sink = JsonlSink::new();
            sink.record_trial(&meta, &record);
            let mut line = JsonValue::object();
            line.push("scenario", meta.id.as_str());
            let JsonValue::Object(members) = &tree else {
                unreachable!()
            };
            for (key, member) in members {
                line.push(key.as_str(), member.clone());
            }
            assert_eq!(sink.as_str(), format!("{line}\n"));
            assert_eq!(read_text(sink.as_str()), Ok(record));
            let parsed = JsonValue::parse(sink.as_str()).expect("the line parses");
            assert_eq!(
                parsed.get("scenario").and_then(JsonValue::as_str),
                Some(meta.id.as_str())
            );

            // Any member order, any whitespace.
            let mut loose = String::new();
            shuffled_and_padded(&line, rng, &mut loose);
            assert_eq!(read_text(&loose), Ok(record), "{loose}");
            let parsed = JsonValue::parse(&loose).expect("the loose form parses");
            assert_eq!(TrialRecord::from_json(&parsed), Ok(record));
        }

        // Rejections: the text path and the tree path refuse the same inputs,
        // and both name the offending member.
        let tree = reference_tree(&arbitrary_record(rng, 0xFF));
        let members = |tree: &JsonValue| match tree {
            JsonValue::Object(members) => members.clone(),
            _ => unreachable!(),
        };
        let top = members(&tree);
        let inner = members(tree.get("metrics").expect("metrics"));
        // `tree` with `name` (a member of `metrics` when `nested`) replaced,
        // or removed for `None`, must be refused by both paths.
        let rejected = |nested: bool, name: &str, put: Option<&JsonValue>| {
            let mut list = if nested { inner.clone() } else { top.clone() };
            let at = list.iter().position(|(key, _)| key == name).unwrap();
            match put {
                Some(value) => list[at].1 = value.clone(),
                None => drop(list.remove(at)),
            }
            let mut edited = JsonValue::Object(list);
            if nested {
                let mut outer = top.clone();
                outer.last_mut().expect("metrics is last").1 = edited;
                edited = JsonValue::Object(outer);
            }
            for err in [
                read_text(&edited.to_string()).expect_err("the text path accepted it"),
                TrialRecord::from_json(&edited).expect_err("the tree path accepted it"),
            ] {
                assert!(err.contains(name), "{name}: {err}");
            }
        };
        let bad_ints = [
            JsonValue::Float(1.5),
            JsonValue::Int(-1),
            JsonValue::Int(1 << 64),
            JsonValue::Bool(true),
            JsonValue::String("1".to_string()),
        ];
        for (nested, list) in [(false, &top), (true, &inner)] {
            for (name, member) in list {
                rejected(nested, name, None);
                match member {
                    JsonValue::Int(_) | JsonValue::Null => {
                        bad_ints
                            .iter()
                            .for_each(|bad| rejected(nested, name, Some(bad)));
                    }
                    JsonValue::Bool(_) => rejected(nested, name, Some(&JsonValue::Int(1))),
                    _ => rejected(nested, name, Some(&JsonValue::Null)),
                }
            }
        }
        rejected(false, "decided", Some(&JsonValue::Int(2)));
        for text in ["null", "[]", "{", "{\"trial\":1", ""] {
            assert!(read_text(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn the_longest_record_fills_the_members_buffer_exactly() {
        // Each member at its longest: integers at u64::MAX, `false` over
        // `true`, `null` over the one digit of `decided`, and u64::MAX over
        // `null` for the other optionals.
        let longest = TrialRecord {
            trial: u64::MAX,
            seed: u64::MAX,
            agreement: false,
            validity: false,
            terminated: false,
            violations: u64::MAX,
            halted: false,
            decided: None,
            first_decision_at: Some(u64::MAX),
            all_decided_at: Some(u64::MAX),
            duration: u64::MAX,
            longest_chain: u64::MAX,
            metrics: Metrics {
                messages_sent: u64::MAX,
                messages_delivered: u64::MAX,
                messages_dropped: u64::MAX,
                rounds: u64::MAX,
                windows: u64::MAX,
                steps: u64::MAX,
                resets_consumed: u64::MAX,
                crashes: u64::MAX,
                coin_flips: u64::MAX,
                max_chain: u64::MAX,
            },
        };
        let mut text = String::new();
        longest.write_json_fields(&mut JsonWriter::new(&mut text));
        assert_eq!(text.len(), RECORD_MEMBERS_MAX);
        assert_eq!(read_text(&format!("{{{text}}}")), Ok(longest));
    }

    #[test]
    fn jsonl_sink_emits_one_parseable_line_per_trial() {
        let meta = meta(3);
        let records: Vec<TrialRecord> = (0..3).map(record).collect();
        let mut sink = JsonlSink::new();
        stream_records(&meta, &records, &mut [&mut sink]);
        let lines: Vec<&str> = sink.as_str().lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let value = JsonValue::parse(line).expect("every JSONL line parses");
            assert_eq!(
                value.get("scenario").and_then(JsonValue::as_str),
                Some(meta.id.as_str())
            );
            assert_eq!(
                value.get("trial").and_then(JsonValue::as_u64),
                Some(i as u64)
            );
            let rebuilt = TrialRecord::from_json(&value).expect("line carries a full record");
            assert_eq!(rebuilt, records[i]);
        }
    }

    #[test]
    fn table_sink_row_matches_the_aggregate() {
        let meta = meta(4);
        let records: Vec<TrialRecord> = (0..4).map(record).collect();
        let mut sink = TableSink::new("t", "c");
        let report = stream_records(&meta, &records, &mut [&mut sink]);
        let table = sink.into_table();
        assert_eq!(table.rows().len(), 1);
        assert_eq!(table.cell(0, 0), Some(meta.id.as_str()));
        assert_eq!(table.cell(0, 2), Some("4"));
        assert_eq!(
            table.cell(0, 3),
            Some(fmt_rate(report.aggregate.termination_rate).as_str())
        );
        assert_eq!(
            table.cell(0, 6),
            Some(fmt_f64(report.aggregate.decision_time.mean).as_str())
        );
    }

    #[test]
    fn csv_sink_emits_header_and_scenario_rows() {
        let meta = meta(2);
        let records: Vec<TrialRecord> = (0..2).map(record).collect();
        let mut sink = CsvSink::new();
        stream_records(&meta, &records, &mut [&mut sink]);
        let lines: Vec<&str> = sink.as_str().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("id,model,n,t,trials"));
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), CsvSink::HEADER.split(',').count());
        assert_eq!(fields[0], meta.id);
        assert_eq!(fields[4], "2");
        // Every numeric field parses back as f64.
        for field in &fields[6..] {
            field.parse::<f64>().expect("numeric CSV field");
        }
    }

    #[test]
    fn multiple_sinks_compose_in_one_pass() {
        let meta = meta(3);
        let records: Vec<TrialRecord> = (0..3).map(record).collect();
        let mut table = TableSink::new("t", "c");
        let mut jsonl = JsonlSink::new();
        let mut csv = CsvSink::new();
        let mut json = JsonReportSink::new();
        stream_records(
            &meta,
            &records,
            &mut [&mut table, &mut jsonl, &mut csv, &mut json],
        );
        assert_eq!(table.into_table().rows().len(), 1);
        assert_eq!(jsonl.as_str().lines().count(), 3);
        assert_eq!(csv.as_str().lines().count(), 2);
        let doc = json.into_json();
        assert_eq!(
            doc.get("scenarios")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn report_percentiles_come_from_the_record_stream() {
        let meta = meta(5);
        let records: Vec<TrialRecord> = (0..5).map(record).collect();
        let report = stream_records(&meta, &records, &mut []);
        let expected: Vec<f64> = records
            .iter()
            .map(|r| r.all_decided_at.unwrap_or(meta.time_cap) as f64)
            .collect();
        assert_eq!(report.decision_times, Histogram::from_samples(&expected));
    }
}
