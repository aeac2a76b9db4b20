//! A blocking client for the vagg wire protocol.
//!
//! [`Client`] owns one connection and speaks strict request/reply.
//! It exists for tests, benches and the example programs; it is also
//! the reference implementation for anyone writing a client in
//! another language — every method is a thin, readable mapping onto
//! one [`Request`] frame.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, WireRow, PROTOCOL_VERSION,
};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server sent a frame this client cannot parse, or a request
    /// does not fit a frame (nothing was sent).
    Frame(FrameError),
    /// The server answered with a typed error.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// The human-readable detail.
        message: String,
    },
    /// The server answered with the wrong response kind (a protocol
    /// state bug on one side).
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl ClientError {
    /// The server's typed error code, when this is a server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A statement's reply: rows for a `SELECT`, a rendered outcome for
/// everything else.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A `SELECT`'s result rows.
    Rows(Vec<WireRow>),
    /// A non-`SELECT` acknowledgement.
    Outcome(String),
}

/// One blocking connection to a vagg server.
pub struct Client {
    stream: TcpStream,
    next_query_id: u64,
}

impl Client {
    /// Connects and completes the `Hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Self {
            stream,
            next_query_id: 0,
        };
        match client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { .. } => Ok(client),
            other => Err(unexpected(&other)),
        }
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Ok(Response::decode(&payload)?)
    }

    fn fresh_query_id(&mut self) -> u64 {
        self.next_query_id += 1;
        self.next_query_id
    }

    /// Runs one SQL statement under a fresh query id.
    pub fn run(&mut self, sql: &str) -> Result<Reply, ClientError> {
        let query_id = self.fresh_query_id();
        self.run_with_id(query_id, sql)
    }

    /// Runs one SQL statement under a caller-chosen query id — the
    /// handle [`Client::cancel`] (from any connection) refers to.
    pub fn run_with_id(&mut self, query_id: u64, sql: &str) -> Result<Reply, ClientError> {
        match self.call(&Request::Query {
            query_id,
            sql: sql.into(),
        })? {
            Response::Rows(rows) => Ok(Reply::Rows(rows)),
            Response::Outcome(text) => Ok(Reply::Outcome(text)),
            other => Err(server_or_unexpected(other)),
        }
    }

    /// Runs a `SELECT` and returns its rows (an error if the statement
    /// was not a `SELECT`).
    pub fn query(&mut self, sql: &str) -> Result<Vec<WireRow>, ClientError> {
        match self.run(sql)? {
            Reply::Rows(rows) => Ok(rows),
            Reply::Outcome(text) => Err(ClientError::Unexpected(format!(
                "expected rows, got outcome: {text}"
            ))),
        }
    }

    /// Plans and caches a statement with `?` placeholders; returns the
    /// statement id for [`Client::execute`].
    pub fn prepare(&mut self, sql: &str) -> Result<u32, ClientError> {
        match self.call(&Request::Prepare { sql: sql.into() })? {
            Response::Prepared { statement } => Ok(statement),
            other => Err(server_or_unexpected(other)),
        }
    }

    /// Binds and runs a prepared statement.
    ///
    /// More parameters than an `Execute` frame can count (`u16::MAX`)
    /// are a [`ClientError::Frame`], returned before anything is sent:
    /// the connection and its session stay as they were.
    pub fn execute(&mut self, statement: u32, params: &[u64]) -> Result<Vec<WireRow>, ClientError> {
        if u16::try_from(params.len()).is_err() {
            return Err(ClientError::Frame(FrameError(format!(
                "{} parameters exceed the {} an Execute frame counts",
                params.len(),
                u16::MAX
            ))));
        }
        let query_id = self.fresh_query_id();
        match self.call(&Request::Execute {
            query_id,
            statement,
            params: params.to_vec(),
        })? {
            Response::Rows(rows) => Ok(rows),
            other => Err(server_or_unexpected(other)),
        }
    }

    /// Opens a transaction on this session.
    pub fn begin(&mut self, read_only: bool) -> Result<String, ClientError> {
        self.outcome(&Request::Begin { read_only })
    }

    /// Commits the open transaction.
    pub fn commit(&mut self) -> Result<String, ClientError> {
        self.outcome(&Request::Commit)
    }

    /// Rolls the open transaction back.
    pub fn rollback(&mut self) -> Result<String, ClientError> {
        self.outcome(&Request::Rollback)
    }

    /// Trips the cancel token of every in-flight query registered under
    /// `query_id`, whichever connections submitted them.
    pub fn cancel(&mut self, query_id: u64) -> Result<String, ClientError> {
        self.outcome(&Request::Cancel { query_id })
    }

    /// Fetches the server's metrics as Prometheus text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(server_or_unexpected(other)),
        }
    }

    /// Closes the session cleanly.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(server_or_unexpected(other)),
        }
    }

    fn outcome(&mut self, request: &Request) -> Result<String, ClientError> {
        match self.call(request)? {
            Response::Outcome(text) => Ok(text),
            other => Err(server_or_unexpected(other)),
        }
    }
}

fn server_or_unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        other => unexpected(&other),
    }
}

fn unexpected(resp: &Response) -> ClientError {
    ClientError::Unexpected(format!("{resp:?}"))
}
