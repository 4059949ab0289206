//! The JSON control frames of the orchestration wire: the only file that
//! names a frame field. Both halves speak through [`Message::encode`] and
//! [`Message::decode`]; a range's records travel beside these frames as one
//! binary block ([`crate::block`]), told apart by its first byte.

use std::time::Instant;

use agreement_analysis::{read_json_object, JsonReader, JsonWriter};
use agreement_net::transport::Connection;
use agreement_sim::RunLimits;

use super::OrchestrateError;
use crate::experiments::Scale;

/// The one protocol version coordinator and worker speak. Workers are only
/// ever spawned from the coordinator's own build, so a mismatch means a stale
/// worker binary, and [`read_hello`] refuses it.
pub(super) const PROTO_VERSION: u64 = 4;

/// One range assignment: everything a worker needs to rebuild the workload
/// from its registry and run trials `lo..hi` of it.
#[derive(Debug, PartialEq)]
pub(super) struct Run {
    pub job: u64,
    pub scenario: String,
    pub scale: Scale,
    pub trials: u64,
    pub base_seed: u64,
    pub limits: RunLimits,
    pub lo: u64,
    pub hi: u64,
}

/// Every JSON frame of the protocol.
#[derive(Debug, PartialEq)]
pub(super) enum Message {
    /// Worker → coordinator, first frame of a connection.
    Hello { pid: u64, proto: u64 },
    /// Coordinator → worker; answered with one block or one error.
    Run(Run),
    /// Worker → coordinator: `job` could not be executed.
    WorkerError { job: u64, message: String },
    /// Coordinator → worker.
    Shutdown,
}

/// Why a frame is not a [`Message`].
#[derive(Debug, PartialEq, Eq)]
pub(super) enum WireError {
    /// Well-formed JSON whose `type` this protocol version does not define.
    UnknownType(String),
    /// Not UTF-8, bad JSON, or a frame of a known type with a missing or
    /// mistyped field.
    Invalid(String),
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

fn decode_scale(r: &mut JsonReader<'_>) -> Result<Scale, String> {
    match &*r.string()? {
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale '{other}'")),
    }
}

impl Message {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_object().key("type");
        match self {
            Message::Hello { pid, proto } => {
                w.str("hello");
                w.key("pid").u64(*pid);
                w.key("proto").u64(*proto);
            }
            Message::Run(run) => {
                w.str("run");
                w.key("job").u64(run.job);
                w.key("scenario").str(&run.scenario);
                w.key("scale").str(scale_label(run.scale));
                w.key("trials").u64(run.trials);
                w.key("base_seed").u64(run.base_seed);
                w.key("max_windows").u64(run.limits.max_windows);
                w.key("max_steps").u64(run.limits.max_steps);
                w.key("lo").u64(run.lo);
                w.key("hi").u64(run.hi);
            }
            Message::WorkerError { job, message } => {
                w.str("error");
                w.key("job").u64(*job);
                w.key("message").str(message);
            }
            Message::Shutdown => {
                w.str("shutdown");
            }
        }
        w.end_object();
        out.into_bytes()
    }

    /// Decodes one JSON frame. Members may come in any order and unknown
    /// ones are skipped, but every member of the frame's type must be there:
    /// a run frame without its job is an error, not job 0. The one optional
    /// member is the hello's `proto`: the hello that predates it is protocol
    /// 1's, and says so here for [`read_hello`] to refuse by number.
    pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
        let text = std::str::from_utf8(frame).map_err(|err| WireError::Invalid(err.to_string()))?;
        let kind = parse(text, |r| {
            read_json_object!(r, { "type" => kind: r.string() });
            Ok(kind.into_owned())
        });
        let kind = kind.map_err(WireError::Invalid)?;
        let body = match kind.as_str() {
            "hello" => parse(text, |r| {
                let (mut pid, mut proto) = (None, 1);
                r.begin_object()?;
                while let Some(key) = r.next_key()? {
                    match &*key {
                        "pid" => pid = Some(r.u64()?),
                        "proto" => proto = r.u64()?,
                        _ => drop(r.value()?),
                    }
                }
                let pid = pid.ok_or("missing field 'pid'")?;
                Ok(Message::Hello { pid, proto })
            }),
            "run" => parse(text, |r| {
                read_json_object!(r, {
                    "job" => job: r.u64(),
                    "scenario" => scenario: r.string(),
                    "scale" => scale: decode_scale(r),
                    "trials" => trials: r.u64(),
                    "base_seed" => base_seed: r.u64(),
                    "max_windows" => max_windows: r.u64(),
                    "max_steps" => max_steps: r.u64(),
                    "lo" => lo: r.u64(),
                    "hi" => hi: r.u64(),
                });
                let scenario = scenario.into_owned();
                let limits = RunLimits {
                    max_windows,
                    max_steps,
                };
                Ok(Message::Run(Run {
                    job,
                    scenario,
                    scale,
                    trials,
                    base_seed,
                    limits,
                    lo,
                    hi,
                }))
            }),
            "error" => parse(text, |r| {
                read_json_object!(r, {
                    "job" => job: r.u64(),
                    "message" => message: r.string(),
                });
                let message = message.into_owned();
                Ok(Message::WorkerError { job, message })
            }),
            "shutdown" => Ok(Message::Shutdown),
            _ => return Err(WireError::UnknownType(kind)),
        };
        body.map_err(|reason| WireError::Invalid(format!("{kind}: {reason}")))
    }
}

/// Runs one typed reader over the whole of `text`.
fn parse<T>(text: &str, read: fn(&mut JsonReader<'_>) -> Result<T, String>) -> Result<T, String> {
    let mut r = JsonReader::new(text);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Receives a new connection's hello and checks the one thing it negotiates:
/// the worker speaks this build's protocol. Returns the worker's pid.
pub(super) fn read_hello(
    conn: &Connection,
    deadline: Instant,
    index: usize,
) -> Result<u64, OrchestrateError> {
    let hello = conn.recv_deadline(deadline);
    let refusal = match hello.map(|frame| Message::decode(&frame)) {
        Ok(Ok(Message::Hello { pid, proto })) if proto == PROTO_VERSION => return Ok(pid),
        Ok(Ok(Message::Hello { proto, .. })) => format!(
            "speaks wire protocol {proto}, this coordinator speaks {PROTO_VERSION}: \
             a stale worker binary, rebuild it"
        ),
        Ok(Ok(other)) => format!("opened with {other:?}, not a hello"),
        Ok(Err(err)) => format!("sent an undecodable hello: {err:?}"),
        Err(err) => format!("sent no hello: {err:?}"),
    };
    let refusal = format!("worker {index} {refusal}");
    Err(OrchestrateError::Protocol(refusal))
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::checkpoint::tests::record;
    use super::*;
    use crate::block::{decode_block, encode_block};
    use crate::record::TrialRecord;
    use agreement_analysis::read_varint;
    use agreement_model::Bit;
    use agreement_net::transport::{encode_frame, read_frame, write_frame, Listener};
    use std::io::Cursor;
    use std::time::Duration;

    fn run_frame() -> Run {
        Run {
            job: 9,
            scenario: "e2/reset-tolerant \"quoted\"/n13t2".to_string(),
            scale: Scale::Full,
            trials: 16_000,
            base_seed: u64::MAX - 7,
            limits: RunLimits {
                max_windows: 300,
                max_steps: u64::MAX,
            },
            lo: 250,
            hi: 500,
        }
    }

    fn invalid(frame: &[u8]) -> String {
        match Message::decode(frame) {
            Err(WireError::Invalid(reason)) => reason,
            other => panic!("expected an invalid frame, got {other:?}"),
        }
    }

    /// One of every JSON frame of the protocol.
    fn messages() -> Vec<Message> {
        vec![
            Message::Hello {
                pid: 4242,
                proto: PROTO_VERSION,
            },
            Message::Run(run_frame()),
            Message::WorkerError {
                job: 3,
                message: "no scenario 'x'\nin the registry".to_string(),
            },
            Message::Shutdown,
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for message in messages() {
            assert_eq!(Message::decode(&message.encode()), Ok(message));
        }
        // Any member order, unknown members skipped.
        let shuffled = br#"{"message":"m","later":[1,{"x":null}],"type":"error","job":3}"#;
        let error = Message::WorkerError {
            job: 3,
            message: "m".to_string(),
        };
        assert_eq!(Message::decode(shuffled), Ok(error));
    }

    #[test]
    fn decode_rejects_what_this_protocol_does_not_define() {
        let unknown = |kind: &str| Err(WireError::UnknownType(kind.to_string()));
        assert_eq!(Message::decode(br#"{"type":"bogus"}"#), unknown("bogus"));
        // Protocol 1's per-trial stream is gone, not tolerated.
        let record = br#"{"type":"record","job":0,"record":{"trial":0}}"#;
        assert_eq!(Message::decode(record), unknown("record"));

        // A missing member is an error naming it — never a default.
        let run = String::from_utf8(Message::Run(run_frame()).encode()).unwrap();
        let without_job = run.replace("\"job\":9,", "");
        assert_ne!(without_job, run);
        assert!(invalid(without_job.as_bytes()).contains("missing field 'job'"));
        assert!(invalid(br#"{"type":"error","job":1}"#).contains("'message'"));
        assert!(invalid(br#"{"type":"hello","proto":2}"#).contains("'pid'"));
        assert!(invalid(br#"{"job":1}"#).contains("'type'"));

        // Mistyped members, unknown scales, and bytes that are not a JSON
        // object at all.
        assert!(invalid(br#"{"type":"error","job":"1","message":"m"}"#).contains("'job'"));
        assert!(invalid(run.replace("\"full\"", "\"huge\"").as_bytes()).contains("huge"));
        invalid(b"{\"type\":\"shutdown\"} trailing");
        invalid(b"[1,2]");
        invalid(b"");
        invalid(b"{\"type\":\"shut\xffdown\"}");
    }

    #[test]
    fn a_hello_of_another_protocol_version_is_refused_naming_both_versions() {
        let listener = Listener::bind_local().unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let deadline = Instant::now() + Duration::from_secs(30);
        let greet = |hello: Vec<u8>| {
            let worker = Connection::connect(&addr).unwrap();
            worker.send(hello).unwrap();
            let conn = listener.accept_deadline(deadline).unwrap();
            read_hello(&conn, deadline, 0)
        };
        let pid = 77;
        let current = Message::Hello {
            pid,
            proto: PROTO_VERSION,
        };
        assert!(matches!(greet(current.encode()), Ok(77)));

        let stale = [
            // The hello protocol 1 workers sent carries no version at all.
            (1, br#"{"type":"hello","pid":77}"#.to_vec()),
            (1, Message::Hello { pid, proto: 1 }.encode()),
            (2, Message::Hello { pid, proto: 2 }.encode()),
            (3, Message::Hello { pid, proto: 3 }.encode()),
        ];
        for (proto, hello) in stale {
            match greet(hello) {
                Err(OrchestrateError::Protocol(message)) => assert!(
                    message.contains(&format!("speaks wire protocol {proto},"))
                        && message.contains(&format!("coordinator speaks {PROTO_VERSION}")),
                    "refusal must name both versions: {message}"
                ),
                other => panic!("a protocol {proto} hello must be refused, got {other:?}"),
            }
        }
        // Not a hello at all.
        assert!(matches!(
            greet(Message::Shutdown.encode()),
            Err(OrchestrateError::Protocol(_))
        ));
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    pub(in crate::orchestrate) fn below(state: &mut u64, bound: usize) -> usize {
        (xorshift(state) % bound.max(1) as u64) as usize
    }

    /// `count` seeded mutants of `frame`: bit flips, truncations at random
    /// lengths, and splices of a random slice of a random `donor`.
    pub(in crate::orchestrate) fn mutants(
        frame: &[u8],
        donors: &[Vec<u8>],
        state: &mut u64,
        count: usize,
    ) -> Vec<Vec<u8>> {
        (0..count)
            .map(|_| {
                let mut bytes = frame.to_vec();
                match xorshift(state) % 3 {
                    0 if !bytes.is_empty() => {
                        for _ in 0..=below(state, 8) {
                            let bit = below(state, bytes.len() * 8);
                            bytes[bit / 8] ^= 1 << (bit % 8);
                        }
                    }
                    1 => bytes.truncate(below(state, bytes.len())),
                    _ => {
                        let donor = &donors[below(state, donors.len())];
                        let from = below(state, donor.len() + 1);
                        let slice = &donor[from..from + below(state, donor.len() - from + 1)];
                        let at = below(state, bytes.len() + 1);
                        let end = at + below(state, bytes.len() - at + 1);
                        bytes.splice(at..end, slice.iter().copied());
                    }
                }
                bytes
            })
            .collect()
    }

    /// Copies of `frame` with the byte span `at..end` (a header field)
    /// overwritten by runs of `0xFF`: open-ended ones, which read on into
    /// the next field, and ones closed by a `0x01`.
    fn saturated(frame: &[u8], at: usize, end: usize) -> Vec<Vec<u8>> {
        (1..=11)
            .flat_map(|run| {
                let open = vec![0xFF; run];
                let mut closed = vec![0xFF; run - 1];
                closed.push(0x01);
                [open, closed]
            })
            .map(|field| [&frame[..at], &field[..], &frame[end..]].concat())
            .collect()
    }

    /// The block header's three varint fields (job, record count, raw body
    /// length), each saturated in turn.
    fn saturated_block_headers(block: &[u8]) -> Vec<Vec<u8>> {
        let mut pos = 3;
        (0..3)
            .flat_map(|_| {
                let at = pos;
                read_varint(block, &mut pos).expect("a valid block header");
                saturated(block, at, pos)
            })
            .collect()
    }

    /// Runs `check` on `bytes`, failing with the input if it panics.
    fn survives(decoder: &str, bytes: &[u8], check: impl Fn(&[u8]) + std::panic::RefUnwindSafe) {
        let outcome = std::panic::catch_unwind(|| check(bytes));
        assert!(outcome.is_ok(), "{decoder} panicked on {bytes:02x?}");
    }

    fn check_message(bytes: &[u8]) {
        if let Ok(message) = Message::decode(bytes) {
            assert_eq!(Message::decode(&message.encode()), Ok(message));
        }
    }

    fn check_block(bytes: &[u8]) {
        if let Ok(decoded) = decode_block(bytes) {
            for compress in [false, true] {
                let again = encode_block(decoded.0, &decoded.1, compress);
                assert_eq!(decode_block(&again).as_ref(), Ok(&decoded));
            }
        }
    }

    fn check_stream(bytes: &[u8]) {
        let mut stream = Cursor::new(bytes);
        // Every frame read consumes at least its length prefix, so this ends.
        while let Ok(Some(payload)) = read_frame(&mut stream) {
            let again = read_frame(&mut Cursor::new(encode_frame(&payload)));
            assert_eq!(again.ok().flatten().as_ref(), Some(&payload));
        }
    }

    #[test]
    fn wire_decoders_fail_loudly_on_mutated_frames_and_never_panic() {
        let records: Vec<TrialRecord> = (0..300u64)
            .map(|trial| {
                let mut record = record(trial);
                record.decided = [None, Some(Bit::Zero), Some(Bit::One)][trial as usize % 3];
                record.metrics.messages_sent = trial * trial;
                record.metrics.rounds = trial % 7;
                record
            })
            .collect();
        let mut frames: Vec<Vec<u8>> = messages().iter().map(Message::encode).collect();
        let mut blocks = Vec::new();
        for count in [0, 1, 300] {
            for compress in [false, true] {
                blocks.push(encode_block(11, &records[..count], compress));
            }
        }
        frames.extend(blocks.iter().cloned());
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }

        let mut state = 0x5EED_F0CC_u64;
        let mut inputs = Vec::new();
        for frame in &frames {
            inputs.extend(mutants(frame, &frames, &mut state, 400));
        }
        for block in &blocks {
            inputs.extend(saturated_block_headers(block));
        }
        for input in &inputs {
            survives("Message::decode", input, check_message);
            survives("decode_block", input, check_block);
        }

        let donors = [stream.clone()];
        let mut streams = mutants(&stream, &donors, &mut state, 400);
        streams.extend(saturated(&stream, 0, 4));
        for input in &streams {
            survives("read_frame", input, check_stream);
        }
    }
}
