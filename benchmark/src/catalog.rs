//! The benchmark's vocabulary: every workload and every metric, by name, with
//! unit, direction and regression bound. `BENCHMARK.json` at the repo root
//! repeats these tables for the driver; a harness test keeps the two equal,
//! and results are printed by walking these tables, so a printed name cannot
//! drift from a declared one.

/// The seed a run uses when `--seed` is not given; also the seed of the
/// pinned correctness probes in `expected/pins.json`.
pub const DEFAULT_SEED: u64 = 24301;

/// How long a run measures when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 15;

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen before `compare`
/// (and the driver) call it a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricInfo {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "window_small_n",
        why: "The paper's setting (windows, resets, full-information split-vote adversary) at n=13: \
              adversary, window scheduler, protocol and the dense buffer do the work; sinks almost none.",
    },
    WorkloadInfo {
        name: "async_large_n",
        why: "Sampled committee at n=1000 under a trivial fair adversary: the same sim layer on sparse \
              lanes, multicast and the payload arena, ~2 ms/trial; the memory-heavy case.",
    },
    WorkloadInfo {
        name: "orchestrated_stream",
        why: "20 000 trials of ~20 us through 2 worker processes: block codec, framed transport, \
              slot-ordered merge, checkpoint append and JSONL/JSON sinks dominate; sim does little.",
    },
    WorkloadInfo {
        name: "orchestrated_resume",
        why: "Resume 2 000 trials from a checkpoint holding 6 of 8 ranges: checkpoint load, \
              analysis::json parse and complement dispatch, the read side of what the stream workload writes.",
    },
    WorkloadInfo {
        name: "search_fuzz",
        why: "Schedule search at n=7, 20 000-trial budget in batches of 32: genome-decoding adversaries, \
              corpus and signature work on top of NoTrace campaigns; the other thing users run for hours.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics, reported by every untraced run of every workload.
/// The time metrics carry the largest bound the contract allows: on the
/// shared 2-core box this was sized on, interference phases outlast a whole
/// run and spread unchanged code by 5-16 % (see `README.md`). None of them
/// can read 0. Failures are not a metric here: every run reports
/// `failed` against `attempted`, and both must stay as they are (0 failed).
pub const END_TO_END: [MetricInfo; 4] = [
    e2e("trials_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_ktrial", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The per-layer metrics, reported by every traced run. A layer the workload
/// does not exercise reads 0 (orchestration on the single-process workloads,
/// search outside `search_fuzz`). Layer = crate/module name.
pub const PER_LAYER: [MetricInfo; 68] = [
    // sim: the execution core as the workload drives it.
    lower("sim.run_ns_per_trial", "ns"),
    lower("sim.self_ns_per_delivery", "ns"),
    lower("sim.reinit_ns_per_trial", "ns"),
    lower("sim.sends_per_trial", "count"),
    lower("sim.deliveries_per_trial", "count"),
    lower("sim.drops_per_trial", "count"),
    lower("sim.windows_per_trial", "count"),
    lower("sim.steps_per_trial", "count"),
    lower("sim.resets_per_trial", "count"),
    lower("sim.buffer.push_pop_ns", "ns"),
    lower("sim.buffer.multicast_ns_per_recipient", "ns"),
    // adversary: decisions taken through the timed wrapper.
    lower("adversary.decide_ns", "ns"),
    lower("adversary.decisions_per_trial", "count"),
    lower("adversary.share", "share"),
    // protocols: state-machine transitions through the timed wrapper.
    lower("protocols.on_message_ns", "ns"),
    lower("protocols.calls_per_trial", "count"),
    lower("protocols.share", "share"),
    lower("protocols.coin_flips_per_trial", "count"),
    lower("protocols.rounds_per_trial", "count"),
    // core.runner / core.record: distillation, aggregation and the sinks.
    lower("core.runner.distill_ns", "ns"),
    lower("core.runner.aggregate_ns_per_record", "ns"),
    lower("core.record.jsonl_ns_per_record", "ns"),
    lower("core.record.jsonl_bytes_per_record", "B"),
    lower("core.record.json_report_ns_per_record", "ns"),
    lower("core.record.csv_ns_per_record", "ns"),
    // core.block: the columnar wire codec.
    lower("core.block.encode_ns_per_record", "ns"),
    lower("core.block.decode_ns_per_record", "ns"),
    lower("core.block.bytes_per_record", "B"),
    lower("core.block.encode_lz_ns_per_record", "ns"),
    higher("core.block.lz_ratio", "ratio"),
    // net.transport: frames, sockets and the bounded channel.
    higher("net.transport.frame_encode_mb_s", "MB/s"),
    higher("net.transport.frame_read_mb_s", "MB/s"),
    higher("net.transport.loopback_frames_per_s", "1/s"),
    higher("net.transport.loopback_mb_s", "MB/s"),
    higher("net.transport.channel_ops_per_s", "1/s"),
    // core.orchestrate: dispatch, merge and checkpoints.
    higher("core.orchestrate.efficiency", "ratio"),
    lower("core.orchestrate.range_service_ms_p50", "ms"),
    lower("core.orchestrate.range_service_ms_tail", "ms"),
    higher("core.orchestrate.range_service_tail_pct", "pct"),
    lower("core.orchestrate.ranges_assigned", "count"),
    lower("core.orchestrate.ranges_completed", "count"),
    higher("core.orchestrate.ranges_restored", "count"),
    lower("core.orchestrate.workers_lost", "count"),
    lower("core.orchestrate.ranges_speculated", "count"),
    lower("core.orchestrate.respawns", "count"),
    lower("core.orchestrate.spawn_ms", "ms"),
    lower("core.orchestrate.checkpoint_append_ns_per_record", "ns"),
    lower("core.orchestrate.checkpoint_bytes_per_record", "B"),
    lower("core.orchestrate.checkpoint_read_ns_per_record", "ns"),
    lower("core.orchestrate.checkpoint_compact_ms", "ms"),
    // analysis: the std-only codecs everything above is built on.
    higher("analysis.json.parse_mb_s_small", "MB/s"),
    higher("analysis.json.parse_mb_s_line", "MB/s"),
    higher("analysis.json.emit_mb_s", "MB/s"),
    higher("analysis.crc.mb_s", "MB/s"),
    higher("analysis.lz.compress_mb_s", "MB/s"),
    higher("analysis.lz.decompress_mb_s", "MB/s"),
    // search: the schedule fuzzer on top of the campaign.
    higher("search.novel_share", "share"),
    higher("search.corpus_size", "count"),
    higher("search.best_fitness", "count"),
    lower("search.signature_ns", "ns"),
    lower("search.shrink_ms", "ms"),
    lower("search.overhead_ns_per_trial", "ns"),
    // The run itself and the tracing.
    higher("run.rounds", "count"),
    lower("run.round_ms_p50", "ms"),
    lower("run.round_ms_tail", "ms"),
    higher("run.round_tail_pct", "pct"),
    lower("trace.overhead_share", "share"),
    higher("trace.coverage_share", "share"),
];

/// Looks a workload up by name.
pub fn find_workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_analysis::JsonValue;
    use std::collections::BTreeSet;

    fn is_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(is_name(name), "malformed name '{name}'");
            assert!(seen.insert(name), "name '{name}' is used twice");
        }
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_unit(metric.unit), "malformed unit '{}'", metric.unit);
        }
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200, "{}: why too long", workload.name);
            assert!(!workload.why.contains('\n'));
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        assert!(END_TO_END
            .iter()
            .any(|m| { m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower }));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for metric in &END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must say the same thing.
    #[test]
    fn tables_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let entries = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap().to_vec();
        let text_of =
            |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).unwrap().to_string();

        let workloads = entries("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (declared, ours) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text_of(declared, "name"), ours.name);
            assert_eq!(text_of(declared, "why"), ours.why);
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = entries(key);
            assert_eq!(declared.len(), table.len(), "{key}: metric count differs");
            for (declared, ours) in declared.iter().zip(table) {
                assert_eq!(text_of(declared, "name"), ours.name);
                assert_eq!(text_of(declared, "unit"), ours.unit, "{}", ours.name);
                assert_eq!(
                    text_of(declared, "better"),
                    ours.better.label(),
                    "{}",
                    ours.name
                );
                assert_eq!(
                    declared.get("bound").and_then(JsonValue::as_f64),
                    ours.bound,
                    "{}",
                    ours.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_u64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            entries("paths"),
            vec![JsonValue::String("benchmark".to_string())]
        );
    }
}
