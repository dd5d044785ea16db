//! The control plane: [`Command`], [`Response`], and [`ControlManager`].
//!
//! The paper's `ControlManager` is a Swing GUI that queries proxies for
//! their state, renders the current filter configuration, and lets an
//! administrator insert and remove filters at specified locations on a
//! given stream.  The reproduction keeps the protocol and drops the GUI:
//! commands are structured values with a stable one-line text encoding
//! (easy to ship over any control connection and to script in tests), and
//! the manager applies them to a [`Proxy`] and returns structured
//! responses.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::ProxyError;
use crate::proxy::{Proxy, ProxyStatus};
use crate::registry::FilterSpec;

/// A management command addressed to a proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Report the proxy's full status.
    Query,
    /// Report the proxy's telemetry snapshot as JSON (requires
    /// [`Proxy::enable_telemetry`]).
    QueryTelemetry,
    /// List the filter kinds the proxy can instantiate.
    ListKinds,
    /// Create a new stream.
    AddStream {
        /// Stream name.
        stream: String,
    },
    /// Instantiate a filter from a spec and splice it into a stream.
    Insert {
        /// Stream name.
        stream: String,
        /// Position in the chain.
        position: usize,
        /// What to instantiate.
        spec: FilterSpec,
    },
    /// Remove the filter at a position.
    Remove {
        /// Stream name.
        stream: String,
        /// Position in the chain.
        position: usize,
    },
    /// Move a filter between positions.
    Move {
        /// Stream name.
        stream: String,
        /// Current position.
        from: usize,
        /// Target position.
        to: usize,
    },
}

/// The proxy's reply to a [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Command applied; nothing further to report.
    Ok,
    /// Full status snapshot (reply to [`Command::Query`]).
    Status(ProxyStatus),
    /// Telemetry snapshot as JSON (reply to [`Command::QueryTelemetry`]).
    /// The one multi-line response in the protocol: the payload is the
    /// [`Proxy::telemetry_json`] document verbatim.
    Telemetry(String),
    /// Available filter kinds (reply to [`Command::ListKinds`]).
    Kinds(Vec<String>),
    /// The command failed.
    Error(String),
}

impl Command {
    /// Parses the one-line text encoding, e.g.
    /// `insert stream=audio pos=0 kind=fec-encoder n=6 k=4`.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::MalformedCommand`] if the verb is unknown or a
    /// required field is missing or malformed.
    pub fn parse(line: &str) -> Result<Command, ProxyError> {
        let mut words = line.split_whitespace();
        let verb = words
            .next()
            .ok_or_else(|| ProxyError::MalformedCommand("empty command".to_string()))?;
        let mut fields: BTreeMap<String, String> = BTreeMap::new();
        for word in words {
            let (key, value) = word.split_once('=').ok_or_else(|| {
                ProxyError::MalformedCommand(format!("expected key=value, got {word}"))
            })?;
            fields.insert(key.to_string(), value.to_string());
        }
        let take = |fields: &mut BTreeMap<String, String>, key: &str| -> Result<String, ProxyError> {
            fields
                .remove(key)
                .ok_or_else(|| ProxyError::MalformedCommand(format!("missing field {key}")))
        };
        let parse_usize = |value: &str, key: &str| -> Result<usize, ProxyError> {
            value
                .parse()
                .map_err(|_| ProxyError::MalformedCommand(format!("field {key} is not a number")))
        };
        match verb {
            "query" => Ok(Command::Query),
            "telemetry" => Ok(Command::QueryTelemetry),
            "kinds" => Ok(Command::ListKinds),
            "add-stream" => Ok(Command::AddStream {
                stream: take(&mut fields, "stream")?,
            }),
            "insert" => {
                let stream = take(&mut fields, "stream")?;
                let position = parse_usize(&take(&mut fields, "pos")?, "pos")?;
                let kind = take(&mut fields, "kind")?;
                let mut spec = FilterSpec::new(kind);
                for (key, value) in fields {
                    spec = spec.with_param(key, value);
                }
                Ok(Command::Insert {
                    stream,
                    position,
                    spec,
                })
            }
            "remove" => Ok(Command::Remove {
                stream: take(&mut fields, "stream")?,
                position: parse_usize(&take(&mut fields, "pos")?, "pos")?,
            }),
            "move" => Ok(Command::Move {
                stream: take(&mut fields, "stream")?,
                from: parse_usize(&take(&mut fields, "from")?, "from")?,
                to: parse_usize(&take(&mut fields, "to")?, "to")?,
            }),
            other => Err(ProxyError::MalformedCommand(format!("unknown verb {other}"))),
        }
    }

    /// The one-line text encoding of this command (inverse of
    /// [`parse`](Self::parse)).
    pub fn encode(&self) -> String {
        match self {
            Command::Query => "query".to_string(),
            Command::QueryTelemetry => "telemetry".to_string(),
            Command::ListKinds => "kinds".to_string(),
            Command::AddStream { stream } => format!("add-stream stream={stream}"),
            Command::Insert {
                stream,
                position,
                spec,
            } => {
                let mut line = format!("insert stream={stream} pos={position} kind={}", spec.kind);
                for (key, value) in &spec.params {
                    line.push_str(&format!(" {key}={value}"));
                }
                line
            }
            Command::Remove { stream, position } => {
                format!("remove stream={stream} pos={position}")
            }
            Command::Move { stream, from, to } => {
                format!("move stream={stream} from={from} to={to}")
            }
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ok => write!(f, "ok"),
            Response::Kinds(kinds) => write!(f, "kinds {}", kinds.join(",")),
            Response::Error(message) => write!(f, "error {message}"),
            Response::Telemetry(json) => write!(f, "telemetry {json}"),
            Response::Status(status) => {
                write!(f, "status proxy={}", status.name)?;
                for stream in &status.streams {
                    write!(
                        f,
                        " stream={}:[{}] in={} out={}",
                        stream.name,
                        stream.filters.join(","),
                        stream.stats.packets_in,
                        stream.stats.packets_out
                    )?;
                }
                for session in &status.sessions {
                    write!(
                        f,
                        " session={}:head[{}]",
                        session.name,
                        session.head_filters.join(",")
                    )?;
                    for lane in &session.lanes {
                        write!(
                            f,
                            " lane={}:[{}] delivered={} recovered={} queued={}",
                            lane.name,
                            lane.filters.join(","),
                            lane.delivered,
                            lane.recovered,
                            lane.queue_depth
                        )?;
                    }
                }
                for transport in &status.transports {
                    write!(
                        f,
                        " udp={} at={} rx={} tx={} decode-err={} drop={} unknown-stream={} io-err={} \
                         tx-batches={} gso-refused={}",
                        transport.name,
                        transport.ingress_addr,
                        transport.ingress.rx_packets,
                        transport.egress.tx_packets,
                        transport.ingress.decode_errors,
                        transport.ingress.dropped + transport.egress.dropped,
                        transport.unknown_streams,
                        transport.io_errors,
                        transport.egress.tx_batches,
                        transport.egress.gso_refused,
                    )?;
                }
                if !status.secure.is_empty() {
                    // The stats-struct metrics render in their snapshot
                    // order: sealed, opened, rejected, rekeys.
                    write!(
                        f,
                        " secure={}",
                        rapidware_telemetry::format_metrics(
                            &rapidware_telemetry::StatSource::snapshot(&status.secure)
                        )
                    )?;
                }
                if let Some(runtime) = &status.runtime {
                    write!(
                        f,
                        " runtime=workers:{} live:{} steals:{} polls:{} depths:[{}]",
                        runtime.workers,
                        runtime.live_tasks,
                        runtime.steals,
                        runtime.polls,
                        runtime
                            .shards
                            .iter()
                            .map(|shard| shard.queued.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// Applies management commands to a [`Proxy`].
///
/// The control manager supports management of multiple proxies in the
/// paper; here one manager owns one proxy and a higher-level session (see
/// `rapidware-pavilion`) instantiates one manager per proxy.
#[derive(Debug)]
pub struct ControlManager {
    proxy: Proxy,
}

impl ControlManager {
    /// Wraps a proxy for management.
    pub fn new(proxy: Proxy) -> Self {
        Self { proxy }
    }

    /// Read access to the managed proxy.
    pub fn proxy(&self) -> &Proxy {
        &self.proxy
    }

    /// Mutable access to the managed proxy (e.g. to obtain stream
    /// endpoints).
    pub fn proxy_mut(&mut self) -> &mut Proxy {
        &mut self.proxy
    }

    /// Executes a structured command.  Errors are folded into
    /// [`Response::Error`] so a remote administrator always gets a reply.
    pub fn execute(&mut self, command: Command) -> Response {
        let result = match command {
            Command::Query => return Response::Status(self.proxy.status()),
            Command::QueryTelemetry => {
                return match self.proxy.telemetry_json() {
                    Some(json) => Response::Telemetry(json),
                    None => Response::Error("telemetry not enabled".to_string()),
                };
            }
            Command::ListKinds => {
                return Response::Kinds(self.proxy.status().available_kinds);
            }
            Command::AddStream { stream } => self.proxy.add_stream_pooled(stream).map(|_| ()),
            Command::Insert {
                stream,
                position,
                spec,
            } => self.proxy.insert_filter(&stream, position, &spec),
            Command::Remove { stream, position } => {
                self.proxy.remove_filter(&stream, position).map(|_| ())
            }
            Command::Move { stream, from, to } => self.proxy.move_filter(&stream, from, to),
        };
        match result {
            Ok(()) => Response::Ok,
            Err(err) => Response::Error(err.to_string()),
        }
    }

    /// Parses and executes one text command line, returning the textual
    /// reply.
    pub fn execute_line(&mut self, line: &str) -> String {
        match Command::parse(line) {
            Ok(command) => self.execute(command).to_string(),
            Err(err) => Response::Error(err.to_string()).to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trip_through_text() {
        let commands = vec![
            Command::Query,
            Command::QueryTelemetry,
            Command::ListKinds,
            Command::AddStream {
                stream: "audio".into(),
            },
            Command::Insert {
                stream: "audio".into(),
                position: 1,
                spec: FilterSpec::new("fec-encoder")
                    .with_param("n", "6")
                    .with_param("k", "4"),
            },
            Command::Remove {
                stream: "audio".into(),
                position: 0,
            },
            Command::Move {
                stream: "audio".into(),
                from: 2,
                to: 0,
            },
        ];
        for command in commands {
            let line = command.encode();
            let parsed = Command::parse(&line).unwrap();
            assert_eq!(parsed, command, "line: {line}");
            assert_eq!(command.to_string(), line);
        }
    }

    #[test]
    fn malformed_commands_are_rejected() {
        for line in [
            "",
            "fire-the-lasers",
            "insert stream=a",
            "insert stream=a pos=zero kind=null",
            "remove stream=a",
            "insert stream=a pos=0",
            "move stream=a from=1",
            "insert notakeyvalue",
        ] {
            assert!(Command::parse(line).is_err(), "should reject: {line:?}");
        }
    }

    #[test]
    fn manager_executes_a_management_session() {
        let mut manager = ControlManager::new(Proxy::new("managed"));
        assert_eq!(manager.execute_line("add-stream stream=audio"), "ok");
        assert_eq!(
            manager.execute_line("insert stream=audio pos=0 kind=fec-encoder n=6 k=4"),
            "ok"
        );
        assert_eq!(
            manager.execute_line("insert stream=audio pos=1 kind=tap name=downlink"),
            "ok"
        );
        let status = manager.execute_line("query");
        assert!(status.contains("fec-encoder(6,4)"));
        assert!(status.contains("downlink"));
        assert_eq!(manager.execute_line("remove stream=audio pos=0"), "ok");
        let status = manager.execute_line("query");
        assert!(!status.contains("fec-encoder"));
        let kinds = manager.execute_line("kinds");
        assert!(kinds.starts_with("kinds "));
        assert!(kinds.contains("transcoder"));
    }

    #[test]
    fn telemetry_verb_returns_json_once_enabled() {
        let mut manager = ControlManager::new(Proxy::new("observed"));
        // Without enable_telemetry the verb reports a clean error.
        let reply = manager.execute_line("telemetry");
        assert!(reply.starts_with("error"), "{reply}");
        assert!(reply.contains("telemetry not enabled"), "{reply}");
        manager.proxy_mut().enable_telemetry();
        manager.execute_line("add-stream stream=audio");
        let reply = manager.execute_line("telemetry");
        assert!(reply.starts_with("telemetry {"), "{reply}");
        assert!(reply.contains("\"stream.audio.packets_in\""), "{reply}");
        match manager.execute(Command::QueryTelemetry) {
            Response::Telemetry(json) => assert!(json.contains("\"histograms\"")),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn manager_reports_errors_as_responses() {
        let mut manager = ControlManager::new(Proxy::new("managed"));
        let reply = manager.execute_line("insert stream=ghost pos=0 kind=null");
        assert!(reply.starts_with("error"));
        assert!(reply.contains("unknown stream"));
        let reply = manager.execute_line("definitely not a command");
        assert!(reply.starts_with("error"));
        // Structured path as well.
        let response = manager.execute(Command::Remove {
            stream: "ghost".into(),
            position: 0,
        });
        assert!(matches!(response, Response::Error(_)));
    }

    #[test]
    fn query_returns_structured_status() {
        let mut manager = ControlManager::new(Proxy::new("p1"));
        manager.execute(Command::AddStream {
            stream: "s".into(),
        });
        match manager.execute(Command::Query) {
            Response::Status(status) => {
                assert_eq!(status.name, "p1");
                assert_eq!(status.streams.len(), 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let _ = manager.proxy();
        let _ = manager.proxy_mut();
    }
}
