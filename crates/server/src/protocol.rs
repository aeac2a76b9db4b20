//! The wire protocol: length-prefixed frames of typed messages.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length, then the payload — an opcode byte followed by the message
//! body. Integers are little-endian; strings are a `u32` byte length
//! plus UTF-8 bytes. A frame longer than [`MAX_FRAME_BYTES`] is a
//! protocol error before any allocation happens, so a hostile length
//! prefix cannot balloon server memory.
//!
//! Requests ([`Request`]) flow client → server, responses
//! ([`Response`]) flow back; the connection is strictly
//! request/reply. Errors are typed on the wire as an [`ErrorCode`]
//! plus a human-readable message, so clients can tell a plan error
//! from an overload rejection from a cancellation without parsing
//! prose.

use std::fmt;
use std::io::{self, Read, Write};

/// Version carried in `Hello` / `HelloOk`. The server rejects a client
/// whose major version it does not speak.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's payload. Large enough for any realistic
/// result batch, small enough that a hostile length prefix cannot make
/// the server allocate gigabytes.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

// Request opcodes.
const OP_HELLO: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_PREPARE: u8 = 0x03;
const OP_EXECUTE: u8 = 0x04;
const OP_BEGIN: u8 = 0x05;
const OP_COMMIT: u8 = 0x06;
const OP_ROLLBACK: u8 = 0x07;
const OP_CANCEL: u8 = 0x08;
const OP_METRICS: u8 = 0x09;
const OP_GOODBYE: u8 = 0x0A;

// Response opcodes.
const OP_HELLO_OK: u8 = 0x81;
const OP_ROWS: u8 = 0x82;
const OP_ERROR: u8 = 0x83;
const OP_PREPARED: u8 = 0x84;
const OP_OUTCOME: u8 = 0x85;
const OP_METRICS_TEXT: u8 = 0x86;
const OP_BYE: u8 = 0x87;

/// A malformed frame: bad opcode, truncated body, oversize length,
/// invalid UTF-8. The server answers with [`ErrorCode::Protocol`] and
/// closes the connection (after a torn frame the stream offset is
/// unknowable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

/// Typed wire error codes — the stable part of an error reply. The
/// message alongside is for humans and may change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame; the server closes the connection after this.
    Protocol = 1,
    /// The statement did not parse.
    Parse = 2,
    /// The planner rejected the query.
    Plan = 3,
    /// Prepared-statement bind failure (arity or type).
    Bind = 4,
    /// The `FROM` table is not registered.
    UnknownTable = 5,
    /// The admission queue is full; retry later.
    Overloaded = 6,
    /// The query was cancelled (explicitly, by timeout, or by morsel
    /// budget — the message says which).
    Cancelled = 7,
    /// Transaction-state misuse (nested `BEGIN`, stray `COMMIT`, …).
    Transaction = 8,
    /// The statement is valid but this surface does not serve it, or
    /// an unclassified engine error.
    Unsupported = 9,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Parse,
            3 => ErrorCode::Plan,
            4 => ErrorCode::Bind,
            5 => ErrorCode::UnknownTable,
            6 => ErrorCode::Overloaded,
            7 => ErrorCode::Cancelled,
            8 => ErrorCode::Transaction,
            9 => ErrorCode::Unsupported,
            _ => return None,
        })
    }
}

/// One result row on the wire — the engine's
/// [`Row`](vagg_db::Row) without the engine types.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// The (possibly fused) group key.
    pub group: u32,
    /// The per-column parts of a composite key (one entry for plain
    /// grouping).
    pub group_parts: Vec<u32>,
    /// One value per selected aggregate, in `SELECT` order.
    pub values: Vec<f64>,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session; must be the first frame.
    Hello {
        /// The protocol version the client speaks.
        version: u32,
    },
    /// Run one SQL statement. `query_id` is the client-chosen handle
    /// `Cancel` refers to; ids are scoped to the whole server, so any
    /// connection may cancel it.
    Query {
        /// Client-chosen cancellation handle.
        query_id: u64,
        /// The statement.
        sql: String,
    },
    /// Plan and cache a statement with `?` placeholders.
    Prepare {
        /// The parameterised statement.
        sql: String,
    },
    /// Bind and run a prepared statement.
    Execute {
        /// Client-chosen cancellation handle (like `Query`).
        query_id: u64,
        /// The id `Prepared` returned.
        statement: u32,
        /// One value per `?` placeholder.
        params: Vec<u64>,
    },
    /// Open a transaction on this session.
    Begin {
        /// `BEGIN READ ONLY` (pinned snapshot) vs plain `BEGIN`
        /// (buffered writes).
        read_only: bool,
    },
    /// Commit the open transaction.
    Commit,
    /// Roll the open transaction back.
    Rollback,
    /// Trip the cancel token of every in-flight query registered under
    /// `query_id` — on *any* connection.
    Cancel {
        /// The target query's client-chosen handle.
        query_id: u64,
    },
    /// Ask for the server's metrics as Prometheus text.
    Metrics,
    /// Close the session cleanly.
    Goodbye,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is open.
    HelloOk {
        /// The protocol version the server speaks.
        version: u32,
        /// Human-readable server identification.
        server: String,
    },
    /// A `SELECT`'s result rows.
    Rows(Vec<WireRow>),
    /// A non-`SELECT` statement's acknowledgement (rendered outcome).
    Outcome(String),
    /// A `Prepare` succeeded; `Execute` with this id.
    Prepared {
        /// Server-assigned statement id, scoped to this connection.
        statement: u32,
    },
    /// The metrics exposition.
    Metrics(String),
    /// A typed failure.
    Error {
        /// The stable, machine-readable classification.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Goodbye acknowledgement; the server closes after sending it.
    Bye,
}

// ---------------------------------------------------------------------
// Framing

/// Writes one frame: length prefix then payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_BYTES);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` is a clean EOF at a frame
/// boundary; an EOF mid-frame is an error (torn frame).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len[1..])?,
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Body primitives

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.at < n {
            return Err(FrameError(format!(
                "truncated body: wanted {n} bytes, {} left",
                self.buf.len() - self.at
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError("invalid UTF-8".into()))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError(format!(
                "{} trailing bytes after the message body",
                self.buf.len() - self.at
            )))
        }
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Request encode/decode

impl Request {
    /// Serialises the request into a frame payload.
    ///
    /// An `Execute` counts its parameters in a `u16`: a caller with more
    /// than `u16::MAX` of them must refuse before encoding, as
    /// [`crate::Client::execute`] does.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { version } => {
                buf.push(OP_HELLO);
                buf.extend_from_slice(&version.to_le_bytes());
            }
            Request::Query { query_id, sql } => {
                buf.push(OP_QUERY);
                buf.extend_from_slice(&query_id.to_le_bytes());
                put_string(&mut buf, sql);
            }
            Request::Prepare { sql } => {
                buf.push(OP_PREPARE);
                put_string(&mut buf, sql);
            }
            Request::Execute {
                query_id,
                statement,
                params,
            } => {
                buf.push(OP_EXECUTE);
                buf.extend_from_slice(&query_id.to_le_bytes());
                buf.extend_from_slice(&statement.to_le_bytes());
                buf.extend_from_slice(&(params.len() as u16).to_le_bytes());
                for p in params {
                    buf.extend_from_slice(&p.to_le_bytes());
                }
            }
            Request::Begin { read_only } => {
                buf.push(OP_BEGIN);
                buf.push(u8::from(*read_only));
            }
            Request::Commit => buf.push(OP_COMMIT),
            Request::Rollback => buf.push(OP_ROLLBACK),
            Request::Cancel { query_id } => {
                buf.push(OP_CANCEL);
                buf.extend_from_slice(&query_id.to_le_bytes());
            }
            Request::Metrics => buf.push(OP_METRICS),
            Request::Goodbye => buf.push(OP_GOODBYE),
        }
        buf
    }

    /// Parses a frame payload as a request.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            OP_HELLO => Request::Hello { version: c.u32()? },
            OP_QUERY => Request::Query {
                query_id: c.u64()?,
                sql: c.string()?,
            },
            OP_PREPARE => Request::Prepare { sql: c.string()? },
            OP_EXECUTE => {
                let query_id = c.u64()?;
                let statement = c.u32()?;
                let n = c.u16()? as usize;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(c.u64()?);
                }
                Request::Execute {
                    query_id,
                    statement,
                    params,
                }
            }
            OP_BEGIN => Request::Begin {
                read_only: c.u8()? != 0,
            },
            OP_COMMIT => Request::Commit,
            OP_ROLLBACK => Request::Rollback,
            OP_CANCEL => Request::Cancel { query_id: c.u64()? },
            OP_METRICS => Request::Metrics,
            OP_GOODBYE => Request::Goodbye,
            op => return Err(FrameError(format!("unknown request opcode {op:#04x}"))),
        };
        c.done()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Response encode/decode

impl Response {
    /// Serialises the response into a frame payload.
    ///
    /// A row counts its group parts and its values in a `u16` each:
    /// they are the query's grouping columns and aggregates, which no
    /// statement has anywhere near `u16::MAX` of.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloOk { version, server } => {
                buf.push(OP_HELLO_OK);
                buf.extend_from_slice(&version.to_le_bytes());
                put_string(&mut buf, server);
            }
            Response::Rows(rows) => {
                buf.push(OP_ROWS);
                buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    buf.extend_from_slice(&row.group.to_le_bytes());
                    buf.extend_from_slice(&(row.group_parts.len() as u16).to_le_bytes());
                    for p in &row.group_parts {
                        buf.extend_from_slice(&p.to_le_bytes());
                    }
                    buf.extend_from_slice(&(row.values.len() as u16).to_le_bytes());
                    for v in &row.values {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Response::Outcome(text) => {
                buf.push(OP_OUTCOME);
                put_string(&mut buf, text);
            }
            Response::Prepared { statement } => {
                buf.push(OP_PREPARED);
                buf.extend_from_slice(&statement.to_le_bytes());
            }
            Response::Metrics(text) => {
                buf.push(OP_METRICS_TEXT);
                put_string(&mut buf, text);
            }
            Response::Error { code, message } => {
                buf.push(OP_ERROR);
                buf.extend_from_slice(&(*code as u16).to_le_bytes());
                put_string(&mut buf, message);
            }
            Response::Bye => buf.push(OP_BYE),
        }
        buf
    }

    /// Parses a frame payload as a response.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            OP_HELLO_OK => Response::HelloOk {
                version: c.u32()?,
                server: c.string()?,
            },
            OP_ROWS => {
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let group = c.u32()?;
                    let parts = c.u16()? as usize;
                    let mut group_parts = Vec::with_capacity(parts);
                    for _ in 0..parts {
                        group_parts.push(c.u32()?);
                    }
                    let vals = c.u16()? as usize;
                    let mut values = Vec::with_capacity(vals);
                    for _ in 0..vals {
                        values.push(c.f64()?);
                    }
                    rows.push(WireRow {
                        group,
                        group_parts,
                        values,
                    });
                }
                Response::Rows(rows)
            }
            OP_OUTCOME => Response::Outcome(c.string()?),
            OP_PREPARED => Response::Prepared {
                statement: c.u32()?,
            },
            OP_METRICS_TEXT => Response::Metrics(c.string()?),
            OP_ERROR => {
                let raw = c.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| FrameError(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: c.string()?,
                }
            }
            OP_BYE => Response::Bye,
            op => return Err(FrameError(format!("unknown response opcode {op:#04x}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello { version: 1 });
        round_trip_request(Request::Query {
            query_id: 42,
            sql: "SELECT g, COUNT(*) FROM r GROUP BY g".into(),
        });
        round_trip_request(Request::Prepare {
            sql: "SELECT g, SUM(v) FROM r WHERE v > ? GROUP BY g".into(),
        });
        round_trip_request(Request::Execute {
            query_id: 7,
            statement: 3,
            params: vec![10, 20, 30],
        });
        round_trip_request(Request::Begin { read_only: true });
        round_trip_request(Request::Commit);
        round_trip_request(Request::Rollback);
        round_trip_request(Request::Cancel { query_id: 42 });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Goodbye);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::HelloOk {
            version: 1,
            server: "vagg".into(),
        });
        round_trip_response(Response::Rows(vec![
            WireRow {
                group: 3,
                group_parts: vec![1, 2],
                values: vec![2.0, 7.5],
            },
            WireRow {
                group: 0,
                group_parts: vec![0],
                values: vec![],
            },
        ]));
        round_trip_response(Response::Outcome("inserted 3 rows".into()));
        round_trip_response(Response::Prepared { statement: 9 });
        round_trip_response(Response::Metrics("vagg_queries 1\n".into()));
        round_trip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        });
        round_trip_response(Response::Bye);
    }

    #[test]
    fn garbage_is_a_typed_frame_error() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF, 1, 2, 3]).is_err());
        // Truncated string length.
        assert!(Request::decode(&[OP_PREPARE, 0xFF, 0xFF, 0xFF]).is_err());
        // String length pointing past the body.
        assert!(Request::decode(&[OP_PREPARE, 100, 0, 0, 0, b'x']).is_err());
        // Trailing junk after a complete message.
        assert!(Request::decode(&[OP_COMMIT, 0]).is_err());
        // Non-UTF8 SQL.
        assert!(Request::decode(&[OP_PREPARE, 2, 0, 0, 0, 0xC3, 0x28]).is_err());
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // A hostile length prefix errors before allocating.
        let huge = (u32::MAX).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());

        // A torn frame (EOF mid-payload) is an error, not a hang.
        let torn = [5u8, 0, 0, 0, b'x'];
        assert!(read_frame(&mut &torn[..]).is_err());
    }
}
