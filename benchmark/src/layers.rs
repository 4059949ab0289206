//! The traced run: untraced rounds, traced rounds, then an isolated drive of
//! every layer on the records this workload actually produced — all through
//! public functions, from outside the program.
//!
//! Each layer metric names, in `benchmark/README.md`, the end-to-end metric
//! and workload it is expected to move. A layer a workload does not exercise
//! (orchestration on the single-process workloads, search outside
//! `search_fuzz`) reads 0.

use std::collections::BTreeMap;
use std::fs;
use std::io::Cursor;
use std::time::{Duration, Instant};

use agreement_adversary::{build_from_genome, Genome};
use agreement_analysis::{crc32, lz_compress, lz_decompress, JsonValue};
use agreement_core::block::{decode_block, encode_block};
use agreement_core::orchestrate::{compact_checkpoint, read_checkpoint_lossy, CheckpointWriter};
use agreement_core::{
    stream_records, Aggregate, Campaign, CsvSink, JsonReportSink, JsonlSink, ProtocolSpec,
    ReportSink, TrialRecord,
};
use agreement_model::{Bit, NoTrace, Payload, ProcessorId};
use agreement_net::transport::{bounded, encode_frame, read_frame, Connection, Listener};
use agreement_search::{fitness, novelty_signature, shrink, Corpus, CorpusEntry, Predicate};
use agreement_sim::{ExecutionCore, MessageBuffer, NoProbe};

use crate::measure::Reporter;
use crate::stats::{median, supported_tail};
use crate::trace::{calibrate_probe, Tracer};
use crate::workloads::{out_dir, replay, Bench, Kind, ReplayTimes};

/// Records per block frame on the orchestration wire (its default).
const BLOCK_RECORDS: usize = agreement_core::orchestrate::DEFAULT_BATCH_RECORDS as usize;

/// Records per checkpoint line the read-side drives use: the resume
/// workload's range size. Parse time grows with the square of the line
/// length, so the line length is part of the metric's definition.
const LINE_RECORDS: usize = 250;

/// Timed drives a traced run makes (rounded up); the last three tenths of the
/// run length are split evenly among them.
const DRIVES: f64 = 30.0;

/// Trials the isolated sim replay runs for workloads whose rounds do not run
/// the simulation in this process.
const ISOLATED_REPLAY_TRIALS: usize = 2_000;

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Median wall seconds of one call of `op`, calling it until `budget` is
/// spent — at least three times unless a single call already overruns it.
fn seconds_per_call(budget: Duration, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let call_started = Instant::now();
        op();
        samples.push(call_started.elapsed().as_secs_f64());
        let spent = started.elapsed();
        if (spent >= budget && samples.len() >= 3) || spent >= budget * 3 {
            return median(&samples);
        }
    }
}

/// The per-layer values of one traced run, keyed by metric name.
struct Layers<'a> {
    bench: &'a Bench,
    records: &'a [TrialRecord],
    budget: Duration,
    reporter: &'a Reporter,
    values: BTreeMap<&'static str, f64>,
}

impl Layers<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Times `op` within the per-drive budget, then beats so the watchdog
    /// sees progress between drives.
    fn time(&self, op: impl FnMut()) -> f64 {
        let seconds = seconds_per_call(self.budget, op);
        self.reporter.update(|_| {});
        seconds
    }

    fn sinks_and_aggregation(&mut self) {
        let (meta, records) = (&self.bench.meta, self.records);
        let count = records.len() as u64;
        let stream_with = |sink: &mut dyn ReportSink| {
            stream_records(meta, records, &mut [sink]);
        };
        let aggregate = self.time(|| {
            std::hint::black_box(Aggregate::from_records(records, meta.time_cap));
        });
        let mut bytes = 0;
        let jsonl = self.time(|| {
            let mut sink = JsonlSink::new();
            stream_with(&mut sink);
            bytes = sink.as_str().len();
        });
        let json_report = self.time(|| {
            let mut sink = JsonReportSink::new();
            stream_with(&mut sink);
            std::hint::black_box(sink.into_json().to_string());
        });
        let csv = self.time(|| {
            let mut sink = CsvSink::new();
            stream_with(&mut sink);
            std::hint::black_box(sink.as_str().len());
        });
        self.set(
            "core.runner.aggregate_ns_per_record",
            per(aggregate * 1e9, count),
        );
        self.set("core.record.jsonl_ns_per_record", per(jsonl * 1e9, count));
        self.set(
            "core.record.jsonl_bytes_per_record",
            per(bytes as f64, count),
        );
        self.set(
            "core.record.json_report_ns_per_record",
            per(json_report * 1e9, count),
        );
        self.set("core.record.csv_ns_per_record", per(csv * 1e9, count));
    }

    fn distill(&mut self) -> Result<(), String> {
        let spec = &self.bench.spec;
        let inputs = spec.inputs.materialize(spec.n);
        let outcomes = (0..4)
            .map(|i| spec.run_single(spec.base_seed + i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|err| err.to_string())?;
        let pass = self.time(|| {
            for (i, outcome) in outcomes.iter().enumerate() {
                std::hint::black_box(TrialRecord::from_outcome(i as u64, 0, outcome, &inputs));
            }
        });
        self.set(
            "core.runner.distill_ns",
            per(pass * 1e9, outcomes.len() as u64),
        );
        Ok(())
    }

    /// Block codec, then frames and sockets carrying those blocks.
    fn wire(&mut self) -> Result<(), String> {
        let records = self.records;
        let count = records.len() as u64;
        let mut blocks: Vec<Vec<u8>> = Vec::new();
        let encode = self.time(|| {
            blocks = records
                .chunks(BLOCK_RECORDS)
                .map(|chunk| encode_block(7, chunk, false))
                .collect();
        });
        let mut packed = 0;
        let encode_lz = self.time(|| {
            packed = records
                .chunks(BLOCK_RECORDS)
                .map(|chunk| encode_block(7, chunk, true).len())
                .sum();
        });
        let block_bytes: usize = blocks.iter().map(Vec::len).sum();
        let mut decoded = 0;
        let decode = self.time(|| {
            decoded = blocks
                .iter()
                .map(|block| decode_block(block).map_or(0, |(_, records)| records.len()))
                .sum();
        });
        if decoded as u64 != count {
            return Err(format!(
                "block decode returned {decoded} of {count} records"
            ));
        }
        self.set("core.block.encode_ns_per_record", per(encode * 1e9, count));
        self.set("core.block.decode_ns_per_record", per(decode * 1e9, count));
        self.set(
            "core.block.bytes_per_record",
            per(block_bytes as f64, count),
        );
        self.set(
            "core.block.encode_lz_ns_per_record",
            per(encode_lz * 1e9, count),
        );
        self.set("core.block.lz_ratio", block_bytes as f64 / packed as f64);

        // The LZ codec on the bytes the wire would hand it.
        let body: Vec<u8> = blocks.concat();
        let mut compressed = Vec::new();
        let compress = self.time(|| compressed = lz_compress(&body));
        let decompress = self.time(|| {
            std::hint::black_box(lz_decompress(&compressed, body.len()).map_or(0, |out| out.len()));
        });
        self.set("analysis.lz.compress_mb_s", mb_per_s(body.len(), compress));
        self.set(
            "analysis.lz.decompress_mb_s",
            mb_per_s(body.len(), decompress),
        );

        // Enough block-sized frames that a pass is not over before it began.
        let frames: Vec<&Vec<u8>> = blocks.iter().cycle().take(blocks.len().max(256)).collect();
        let payload_bytes: usize = frames.iter().map(|frame| frame.len()).sum();
        let mut wire = Vec::new();
        let frame_encode = self.time(|| {
            wire.clear();
            for frame in &frames {
                wire.extend_from_slice(&encode_frame(frame));
            }
        });
        let mut read_back = 0;
        let frame_read = self.time(|| {
            let mut cursor = Cursor::new(&wire);
            read_back = 0;
            while let Ok(Some(frame)) = read_frame(&mut cursor) {
                read_back += frame.len();
            }
        });
        if read_back != payload_bytes {
            return Err(format!(
                "frame read returned {read_back} of {payload_bytes} bytes"
            ));
        }
        self.set(
            "net.transport.frame_encode_mb_s",
            mb_per_s(payload_bytes, frame_encode),
        );
        self.set(
            "net.transport.frame_read_mb_s",
            mb_per_s(payload_bytes, frame_read),
        );

        let loopback = self
            .loopback(&frames)
            .map_err(|err| format!("loopback: {err}"))?;
        self.set(
            "net.transport.loopback_frames_per_s",
            frames.len() as f64 / loopback,
        );
        self.set(
            "net.transport.loopback_mb_s",
            mb_per_s(payload_bytes, loopback),
        );

        const ITEMS: u64 = 100_000;
        let channel = self.time(|| {
            let (tx, rx) = bounded::<u64>(1024);
            std::thread::scope(|scope| {
                scope.spawn(move || (0..ITEMS).for_each(|item| drop(tx.send(item))));
                let mut received = 0;
                while rx.recv().is_ok() {
                    received += 1;
                }
                assert_eq!(received, ITEMS, "the bounded channel lost items");
            });
        });
        self.set("net.transport.channel_ops_per_s", ITEMS as f64 / channel);
        Ok(())
    }

    /// Seconds to push `frames` through one `Listener`/`Connection` pair on
    /// localhost, CRC on, the sender on its own thread.
    fn loopback(&self, frames: &[&Vec<u8>]) -> std::io::Result<f64> {
        let listener = Listener::bind_local()?;
        let addr = listener.local_addr()?.to_string();
        let sender = Connection::connect(&addr)?;
        let receiver = listener.accept_deadline(Instant::now() + Duration::from_secs(10))?;
        let seconds = self.time(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    frames
                        .iter()
                        .for_each(|frame| drop(sender.send((*frame).clone())))
                });
                for _ in 0..frames.len() {
                    assert!(
                        receiver.recv().is_some(),
                        "the loopback connection closed early"
                    );
                }
            });
        });
        Ok(seconds)
    }

    /// Checkpoint append/read/compact and the JSON, CRC codecs under them.
    fn checkpoint_and_json(&mut self) -> Result<(), String> {
        let bench = self.bench;
        let records = self.records;
        let count = records.len() as u64;
        let fail = |err: agreement_core::orchestrate::OrchestrateError| err.to_string();
        let entry_of = |chunk: &[TrialRecord]| bench.checkpoint_entry(chunk);
        // Append in the ranges the session's own chunking would complete.
        let range = bench
            .default_ranges()
            .first()
            .map_or(1, |&(lo, hi)| (hi - lo) as usize);
        let entries: Vec<_> = records.chunks(range.max(1)).map(entry_of).collect();
        let path = bench.scratch.path().join("drive-append.jsonl");
        let mut io_error = None;
        let append = self.time(|| {
            let _ = fs::remove_file(&path);
            let written = CheckpointWriter::open(&path)
                .and_then(|mut writer| entries.iter().try_for_each(|entry| writer.append(entry)));
            io_error = written.err().or(io_error.take());
        });
        if let Some(err) = io_error {
            return Err(fail(err));
        }
        let bytes = fs::metadata(&path).map_err(|err| err.to_string())?.len();
        self.set(
            "core.orchestrate.checkpoint_append_ns_per_record",
            per(append * 1e9, count),
        );
        self.set(
            "core.orchestrate.checkpoint_bytes_per_record",
            per(bytes as f64, count),
        );

        // The read side, on lines of the resume workload's range size.
        let lines: Vec<_> = records.chunks(LINE_RECORDS).take(2).map(entry_of).collect();
        let line_records: u64 = lines.iter().map(|entry| entry.records.len() as u64).sum();
        let read_path = bench.scratch.path().join("drive-read.jsonl");
        compact_checkpoint(&read_path, &lines).map_err(fail)?;
        let mut read_back = 0;
        let read = self.time(|| {
            read_back = read_checkpoint_lossy(&read_path).map_or(0, |(entries, _)| {
                entries.iter().map(|e| e.records.len() as u64).sum()
            });
        });
        if read_back != line_records {
            return Err(format!(
                "checkpoint read returned {read_back} of {line_records} records"
            ));
        }
        let compact = self.time(|| {
            let _ = compact_checkpoint(&read_path, &lines);
        });
        self.set(
            "core.orchestrate.checkpoint_read_ns_per_record",
            per(read * 1e9, line_records),
        );
        self.set("core.orchestrate.checkpoint_compact_ms", compact * 1e3);

        // One real checkpoint line, and a 1 KiB document of the same records:
        // equal bytes/s on both means parsing is linear in the input.
        let text = fs::read_to_string(&read_path).map_err(|err| err.to_string())?;
        let line = text
            .lines()
            .next()
            .ok_or("the checkpoint drive wrote no line")?;
        let mut small = String::from("[");
        for record in records {
            if small.len() >= 1024 {
                break;
            }
            if small.len() > 1 {
                small.push(',');
            }
            small.push_str(&record.to_json().to_string());
        }
        small.push(']');
        let parse_small = self.time(|| {
            for _ in 0..64 {
                std::hint::black_box(JsonValue::parse(&small).is_ok());
            }
        });
        let mut parsed = JsonValue::Null;
        let parse_line = self.time(|| parsed = JsonValue::parse(line).unwrap_or(JsonValue::Null));
        if parsed.is_null() {
            return Err("a checkpoint line did not parse".to_string());
        }
        let emit = self.time(|| {
            std::hint::black_box(parsed.to_string().len());
        });
        let crc = self.time(|| {
            for _ in 0..16 {
                std::hint::black_box(crc32(std::hint::black_box(line.as_bytes())));
            }
        });
        self.set(
            "analysis.json.parse_mb_s_small",
            mb_per_s(small.len() * 64, parse_small),
        );
        self.set(
            "analysis.json.parse_mb_s_line",
            mb_per_s(line.len(), parse_line),
        );
        self.set("analysis.json.emit_mb_s", mb_per_s(line.len(), emit));
        self.set("analysis.crc.mb_s", mb_per_s(line.len() * 16, crc));
        Ok(())
    }

    /// The message buffer alone, at the workload's `n` and layout.
    fn buffer(&mut self) {
        let spec = &self.bench.spec;
        let n = spec.n;
        let id = ProcessorId::new;
        let payload = || Payload::Report {
            round: 3,
            value: Bit::One,
        };
        // Committee-sized recipient set: every processor up to 20 of them.
        let recipients: Vec<ProcessorId> = (0..n.min(20)).map(id).collect();
        const OPS: usize = 4_096;
        let mut buffer = MessageBuffer::with_choice(n, spec.buffer);
        let push_pop = self.time(|| {
            for op in 0..OPS {
                let (from, to) = (id(op % n), recipients[(op * 7 + 3) % recipients.len()]);
                buffer.enqueue_unicast(from, to, payload(), op as u64);
                std::hint::black_box(buffer.pop(from, to));
            }
        });
        const CASTS: usize = 256;
        let multicast = self.time(|| {
            for cast in 0..CASTS {
                let from = id(cast % n);
                buffer.multicast(from, &recipients, payload(), cast as u64);
                for &to in &recipients {
                    std::hint::black_box(buffer.pop(from, to));
                }
            }
        });
        self.set("sim.buffer.push_pop_ns", push_pop * 1e9 / OPS as f64);
        self.set(
            "sim.buffer.multicast_ns_per_recipient",
            multicast * 1e9 / (CASTS * recipients.len()) as f64,
        );
    }

    /// `ExecutionCore::reinit` after a finished trial — what every campaign
    /// trial but a worker's first begins with.
    fn reinit(&mut self) -> Result<(), String> {
        let spec = &self.bench.spec;
        let cfg = spec.config().map_err(|err| err.to_string())?;
        let instance = spec
            .protocol
            .instantiate(&cfg)
            .map_err(|err| err.to_string())?;
        let inputs = spec.inputs.materialize(spec.n);
        let builder = instance.builder.as_ref();
        let mut core = ExecutionCore::with_parts(
            cfg,
            inputs.clone(),
            builder,
            spec.base_seed,
            NoProbe,
            NoTrace,
        );
        let factory = spec.factory().map_err(|err| err.to_string())?;
        let ctx = agreement_adversary::AdversaryBuildCtx::new(cfg, spec.base_seed).with_targets(
            spec.targets
                .clone()
                .unwrap_or_else(|| instance.committee.clone()),
        );
        factory.build(&ctx).run(&mut core, spec.limits);
        let mut seed = spec.base_seed;
        let reinit = self.time(|| {
            seed += 1;
            core.reinit(cfg, &inputs, builder, seed);
        });
        self.set("sim.reinit_ns_per_trial", reinit * 1e9);
        Ok(())
    }

    /// The sim, adversary and protocol numbers from replayed trials: the
    /// traced rounds' own for campaign workloads, an isolated replay of the
    /// workload's spec otherwise (genome adversaries for the search).
    fn simulation(&mut self, in_round: ReplayTimes) -> Result<(), String> {
        let bench = self.bench;
        let spec = &bench.spec;
        let (records, times) = match bench.kind {
            Kind::Campaign => (self.records.to_vec(), in_round),
            Kind::Stream | Kind::Resume => {
                let factory = spec.factory().map_err(|err| err.to_string())?;
                let trials: Vec<(u64, u64)> = (0..spec.trials.min(ISOLATED_REPLAY_TRIALS as u64))
                    .map(|t| (t, spec.base_seed + t))
                    .collect();
                replay(spec, &trials, |_, ctx| factory.build(ctx))?
            }
            Kind::Search => {
                let corpus: Vec<_> = bench
                    .search_reference
                    .iter()
                    .flat_map(|outcome| outcome.corpus.iter())
                    .collect();
                let trials: Vec<(u64, u64)> = corpus
                    .iter()
                    .cycle()
                    .take(if corpus.is_empty() {
                        0
                    } else {
                        ISOLATED_REPLAY_TRIALS
                    })
                    .map(|entry| (entry.record.trial, entry.record.seed))
                    .collect();
                replay(spec, &trials, |index, ctx| {
                    build_from_genome(&corpus[index % corpus.len()].genome, &ctx.cfg)
                        .expect("corpus genomes carry the spec's model")
                })?
            }
        };
        self.reporter.update(|_| {});
        let trials = times.trials;
        let sum = |field: fn(&TrialRecord) -> u64| records.iter().map(field).sum::<u64>() as f64;
        let per_trial = |total: f64| per(total, records.len() as u64);
        let probe = times.probe;
        let delivered = sum(|r| r.metrics.messages_delivered);
        let (adversary, protocol) = (probe.adversary, probe.protocol);
        let self_ns = times
            .run_ns
            .saturating_sub(adversary.total_ns() + protocol.total_ns());
        self.set("sim.run_ns_per_trial", per(times.run_ns as f64, trials));
        self.set(
            "sim.self_ns_per_delivery",
            if delivered > 0.0 {
                self_ns as f64 / delivered
            } else {
                0.0
            },
        );
        self.set(
            "sim.sends_per_trial",
            per_trial(sum(|r| r.metrics.messages_sent)),
        );
        self.set("sim.deliveries_per_trial", per_trial(delivered));
        self.set(
            "sim.drops_per_trial",
            per_trial(sum(|r| r.metrics.messages_dropped)),
        );
        self.set(
            "sim.windows_per_trial",
            per_trial(sum(|r| r.metrics.windows)),
        );
        self.set("sim.steps_per_trial", per_trial(sum(|r| r.metrics.steps)));
        self.set(
            "sim.resets_per_trial",
            per_trial(sum(|r| r.metrics.resets_consumed)),
        );
        self.set("adversary.decide_ns", adversary.mean_ns());
        self.set(
            "adversary.decisions_per_trial",
            per(adversary.calls as f64, trials),
        );
        self.set(
            "adversary.share",
            per(adversary.total_ns() as f64, times.run_ns),
        );
        self.set("protocols.on_message_ns", protocol.mean_ns());
        self.set(
            "protocols.calls_per_trial",
            per(protocol.calls as f64, trials),
        );
        self.set(
            "protocols.share",
            per(protocol.total_ns() as f64, times.run_ns),
        );
        self.set(
            "protocols.coin_flips_per_trial",
            per_trial(sum(|r| r.metrics.coin_flips)),
        );
        self.set(
            "protocols.rounds_per_trial",
            per_trial(sum(|r| r.metrics.rounds)),
        );

        // Cohen–Keidar–Spiegelman's budget: a committee of k among n spends
        // at most k² + k·n messages per protocol round.
        if let ProtocolSpec::SampledCommittee { size, .. } = spec.protocol {
            let budget = sum(|r| r.metrics.rounds) * (size * size + size * spec.n) as f64;
            let sent = sum(|r| r.metrics.messages_sent);
            if sent > budget {
                return Err(format!(
                    "{sent} messages sent, above the k² + k·n budget of {budget} for the rounds run"
                ));
            }
        }
        Ok(())
    }

    /// Orchestration: efficiency against the in-process parallel campaign,
    /// range service times and event counts per round (every round, traced
    /// or not, reports its events).
    fn orchestration(&mut self, untraced_round_s: f64) -> Result<(), String> {
        let bench = self.bench;
        let log = &bench.orchestration;
        let orchestrated = matches!(bench.kind, Kind::Stream | Kind::Resume);
        let mut efficiency = 0.0;
        if orchestrated {
            let spec = &bench.spec;
            let mut failed = false;
            let parallel = self.time(|| {
                failed |= spec
                    .run_range_records(&Campaign::parallel(), 0, spec.trials)
                    .is_err();
            });
            if failed {
                return Err("the parallel campaign did not resolve the spec".to_string());
            }
            efficiency = parallel / untraced_round_s;
        }
        let (tail_pct, tail_ms) = supported_tail(&log.service_ms);
        let per_round = |count: u64| per(count as f64, log.rounds);
        self.set("core.orchestrate.efficiency", efficiency);
        self.set(
            "core.orchestrate.range_service_ms_p50",
            median(&log.service_ms),
        );
        self.set("core.orchestrate.range_service_ms_tail", tail_ms);
        self.set(
            "core.orchestrate.range_service_tail_pct",
            if log.service_ms.is_empty() {
                0.0
            } else {
                f64::from(tail_pct)
            },
        );
        self.set("core.orchestrate.ranges_assigned", per_round(log.assigned));
        self.set(
            "core.orchestrate.ranges_completed",
            per_round(log.completed),
        );
        self.set("core.orchestrate.ranges_restored", per_round(log.restored));
        self.set("core.orchestrate.workers_lost", per_round(log.workers_lost));
        self.set(
            "core.orchestrate.ranges_speculated",
            per_round(log.speculated),
        );
        self.set("core.orchestrate.respawns", per_round(log.respawns));
        self.set("core.orchestrate.spawn_ms", bench.spawn_ms);
        Ok(())
    }

    /// Search: corpus statistics, signature and shrink cost, and what the
    /// driver adds per trial on top of running the trials.
    fn search(&mut self) -> Result<(), String> {
        let bench = self.bench;
        let records = self.records;
        let cap = bench.meta.time_cap;
        let signature = self.time(|| {
            for record in records {
                std::hint::black_box((novelty_signature(record), fitness(record, cap)));
            }
        });
        self.set(
            "search.signature_ns",
            per(signature * 1e9, records.len() as u64),
        );
        for name in [
            "search.novel_share",
            "search.corpus_size",
            "search.best_fitness",
            "search.shrink_ms",
            "search.overhead_ns_per_trial",
        ] {
            self.set(name, 0.0);
        }
        let Some(outcome) = &bench.search_reference else {
            return Ok(());
        };
        let spec = &bench.spec;
        let best = outcome.best().ok_or("the search kept no genome")?;
        // From outside only the final corpus is visible: kept signatures over
        // genomes evaluated (admissions later replaced or evicted are not).
        self.set(
            "search.novel_share",
            per(outcome.corpus.len() as f64, outcome.trials_run),
        );
        self.set("search.corpus_size", outcome.corpus.len() as f64);
        self.set("search.best_fitness", best.fitness as f64);

        let predicate = Predicate::classify(&best.record, cap);
        let mut shrunk = Ok(());
        let shrink_s = self.time(|| {
            shrunk = shrink(spec, &best.genome, best.record.seed, predicate, cap, 200).map(|_| ());
        });
        shrunk?;
        self.set("search.shrink_ms", shrink_s * 1e3);

        // What the driver does per genome besides running its trial, from
        // the public pieces it is built of: draw a genome, decode it into an
        // adversary, score the record, offer it to the corpus. (Mutation is
        // private to the driver and not included; the genomes the driver
        // evaluated are not visible from outside, so "run_search minus the
        // same trials run bare" cannot be formed.)
        let cfg = spec.config().map_err(|err| err.to_string())?;
        let model = best.genome.model();
        let entries: Vec<_> = outcome.corpus.iter().collect();
        let tape_len = bench.search.tape_len;
        let per_pass = self.time(|| {
            let mut corpus = Corpus::new(bench.search.corpus_cap);
            for (i, entry) in entries.iter().enumerate() {
                let genome = Genome::from_seed(model, spec.base_seed + i as u64, tape_len);
                std::hint::black_box(build_from_genome(&genome, &cfg).is_ok());
                corpus.consider(CorpusEntry {
                    signature: novelty_signature(&entry.record),
                    fitness: fitness(&entry.record, cap),
                    genome,
                    record: entry.record,
                });
            }
            std::hint::black_box(corpus.len());
        });
        self.set(
            "search.overhead_ns_per_trial",
            per(per_pass * 1e9, entries.len() as u64),
        );
        Ok(())
    }
}

/// The traced run of one workload. Fills `RunLog::layers` with every
/// per-layer metric and writes the spans to `benchmark/out/trace-<name>.json`.
pub fn traced_run(
    name: &'static str,
    seed: u64,
    seconds: f64,
    reporter: &Reporter,
) -> Result<(), String> {
    let mut bench = Bench::set_up(name, seed)?;
    reporter.update(|log| {
        log.trials_per_round = bench.spec.trials;
        log.worker_pids = crate::workloads::Rounds::worker_pids(&bench);
    });
    let mut round_s: Vec<f64> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let mut tracer = Tracer::new();
    calibrate_probe();

    // One warm-up round, then untraced and traced rounds in turn for two
    // thirds of the run (the rest is for the isolated drives). Alternating
    // puts both kinds through the same interference, so the difference of
    // their medians is the tracing overhead and not the box's mood.
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 7 || started.elapsed().as_secs_f64() < 0.65 * seconds {
        let traced = rounds > 0 && rounds % 2 == 0;
        let round_started = Instant::now();
        let outcome = if traced {
            tracer.set_round(traced_s.len() as u32);
            tracer.span("round", |tracer| bench.run_round(tracer))
        } else {
            bench.run_round(&mut Tracer::off())
        };
        let took = round_started.elapsed().as_secs_f64();
        let counted = rounds > 0 && outcome.failed == 0;
        rounds += 1;
        reporter.update(|log| {
            log.attempted += outcome.attempted;
            log.failed += outcome.failed;
            if counted && !traced {
                log.round_s.push(took);
            }
        });
        if counted {
            if traced { &mut traced_s } else { &mut round_s }.push(took);
        }
    }

    let untraced_round_s = median(&round_s);
    let in_round = bench.replayed;
    let mut layers = Layers {
        bench: &bench,
        records: &bench.reference.records,
        budget: Duration::from_secs_f64((0.3 * seconds / DRIVES).max(0.005)),
        reporter,
        values: BTreeMap::new(),
    };
    layers.sinks_and_aggregation();
    layers.distill()?;
    layers.wire()?;
    layers.checkpoint_and_json()?;
    layers.buffer();
    layers.reinit()?;
    layers.simulation(in_round)?;
    layers.orchestration(untraced_round_s)?;
    layers.search()?;

    // The table's rows must sum to the traced rounds' wall clock: coverage is
    // the share of it that lies inside some layer's span.
    let totals = tracer.totals();
    let round_total = totals.get("round").copied().unwrap_or_default();
    let all_rounds_ms: Vec<f64> = round_s.iter().chain(&traced_s).map(|s| s * 1e3).collect();
    let (tail_pct, tail_ms) = supported_tail(&all_rounds_ms);
    layers.set("run.rounds", all_rounds_ms.len() as f64);
    layers.set("run.round_ms_p50", median(&all_rounds_ms));
    layers.set("run.round_ms_tail", tail_ms);
    layers.set("run.round_tail_pct", f64::from(tail_pct));
    layers.set(
        "trace.overhead_share",
        (median(&traced_s) - untraced_round_s) / untraced_round_s,
    );
    layers.set(
        "trace.coverage_share",
        1.0 - per(round_total.self_ns as f64, round_total.busy_ns),
    );
    let values = layers.values;

    let path = out_dir().join(format!("trace-{name}.json"));
    fs::write(&path, tracer.to_json(name).to_string())
        .map_err(|err| format!("writing {}: {err}", path.display()))?;
    eprintln!(
        "benchmark: {name}: spans and self-time table written to {}",
        path.display()
    );
    reporter.update(|log| log.layers = values);
    Ok(())
}
