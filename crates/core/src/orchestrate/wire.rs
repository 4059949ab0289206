//! The JSON control frames of the orchestration wire: the only file that
//! names a frame field. Both halves speak through [`Message::encode`] and
//! [`Message::decode`]; record batches travel beside these frames as binary
//! blocks ([`crate::block`]), told apart by their first byte.

use std::time::Instant;

use agreement_analysis::{read_json_object, JsonReader, JsonWriter};
use agreement_net::transport::Connection;
use agreement_sim::RunLimits;

use super::OrchestrateError;
use crate::experiments::Scale;

/// The one protocol version coordinator and worker speak. Workers are only
/// ever spawned from the coordinator's own build, so a mismatch means a stale
/// worker binary, and [`read_hello`] refuses it.
pub(super) const PROTO_VERSION: u64 = 2;

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
    /// Records per block frame.
    pub batch: u64,
    /// Whether block bodies pass through the LZ codec.
    pub compress: bool,
}

/// Every JSON frame of the protocol.
#[derive(Debug, PartialEq)]
pub(super) enum Message {
    /// Worker → coordinator, first frame of a connection.
    Hello { pid: u64, proto: u64 },
    /// Coordinator → worker.
    Run(Run),
    /// Worker → coordinator, after the last block of `job`.
    RangeDone { job: u64, lo: u64, hi: u64 },
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
                w.key("batch").u64(run.batch);
                w.key("compress").bool(run.compress);
            }
            Message::RangeDone { job, lo, hi } => {
                w.str("range_done");
                w.key("job").u64(*job);
                w.key("lo").u64(*lo);
                w.key("hi").u64(*hi);
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
                    "batch" => batch: r.u64(),
                    "compress" => compress: r.bool(),
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
                    batch,
                    compress,
                }))
            }),
            "range_done" => parse(text, |r| {
                read_json_object!(r, {
                    "job" => job: r.u64(),
                    "lo" => lo: r.u64(),
                    "hi" => hi: r.u64(),
                });
                Ok(Message::RangeDone { job, lo, hi })
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
mod tests {
    use super::*;
    use agreement_net::transport::Listener;
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
            batch: 256,
            compress: true,
        }
    }

    fn invalid(frame: &[u8]) -> String {
        match Message::decode(frame) {
            Err(WireError::Invalid(reason)) => reason,
            other => panic!("expected an invalid frame, got {other:?}"),
        }
    }

    #[test]
    fn every_message_round_trips() {
        let (job, lo, hi) = (3, 10, 20);
        let messages = [
            Message::Hello {
                pid: 4242,
                proto: PROTO_VERSION,
            },
            Message::Run(run_frame()),
            Message::RangeDone { job, lo, hi },
            Message::WorkerError {
                job,
                message: "no scenario 'x'\nin the registry".to_string(),
            },
            Message::Shutdown,
        ];
        for message in messages {
            assert_eq!(Message::decode(&message.encode()), Ok(message));
        }
        // Any member order, unknown members skipped.
        let shuffled = br#"{"hi":20,"later":[1,{"x":null}],"lo":10,"type":"range_done","job":3}"#;
        assert_eq!(
            Message::decode(shuffled),
            Ok(Message::RangeDone { job, lo, hi })
        );
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
        assert!(invalid(br#"{"type":"range_done","job":1,"lo":2}"#).contains("'hi'"));
        assert!(invalid(br#"{"type":"hello","proto":2}"#).contains("'pid'"));
        assert!(invalid(br#"{"job":1}"#).contains("'type'"));

        // Mistyped members, unknown scales, and bytes that are not a JSON
        // object at all.
        assert!(invalid(br#"{"type":"range_done","job":"1","lo":2,"hi":3}"#).contains("'job'"));
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
            br#"{"type":"hello","pid":77}"#.to_vec(),
            Message::Hello { pid, proto: 1 }.encode(),
        ];
        for hello in stale {
            match greet(hello) {
                Err(OrchestrateError::Protocol(message)) => assert!(
                    message.contains("speaks wire protocol 1")
                        && message.contains(&format!("coordinator speaks {PROTO_VERSION}")),
                    "refusal must name both versions: {message}"
                ),
                other => panic!("a protocol 1 hello must be refused, got {other:?}"),
            }
        }
        // Not a hello at all.
        assert!(matches!(
            greet(Message::Shutdown.encode()),
            Err(OrchestrateError::Protocol(_))
        ));
    }
}
