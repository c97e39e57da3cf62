//! A blocking client for the `sxsi serve` protocol — used by the
//! `sxsi client` CLI subcommand and the integration tests, and usable
//! as a library by anything that wants to talk to a running daemon.
//!
//! Connecting performs the `hello` handshake immediately, so a
//! successfully constructed [`Client`] is known to speak the same
//! [`PROTOCOL_VERSION`] as the server.

use std::fmt;
use std::io;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

use super::protocol::{
    read_frame, write_frame, FrameError, Response, MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
};
use super::Conn;
use crate::request::Request;

/// What can go wrong talking to a daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting to the socket failed.
    Connect(io::Error),
    /// A frame could not be read or written.
    Frame(FrameError),
    /// The server sent something outside the protocol (e.g. an
    /// unparsable response payload or a failed handshake).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// One connection to a running `sxsi serve` daemon, already past the
/// `hello` handshake.
///
/// Reads block indefinitely by default (queries may legitimately take a
/// while on a loaded server); the *server* enforces idle timeouts, not
/// the client.
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Connects over TCP (e.g. `127.0.0.1:7878`) and shakes hands.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Connect)?;
        // One query is one small frame each way; Nagle would trade
        // ~40ms of delayed-ACK latency for nothing.
        stream.set_nodelay(true).map_err(ClientError::Connect)?;
        Self::handshake(Conn::Tcp(stream))
    }

    /// Connects over a Unix-domain socket and shakes hands.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(path).map_err(ClientError::Connect)?;
        Self::handshake(Conn::Unix(stream))
    }

    fn handshake(mut conn: Conn) -> Result<Client, ClientError> {
        let hello = format!("hello {PROTOCOL_VERSION}");
        write_frame(&mut conn, hello.as_bytes()).map_err(FrameError::Io)?;
        match Self::read_response_on(&mut conn)? {
            Response::Ok { .. } => Ok(Client { conn }),
            Response::Err { code, message } => {
                Err(ClientError::Protocol(format!("handshake rejected ({code}): {message}")))
            }
        }
    }

    /// Sends one raw request payload and reads the response frame.
    pub fn request(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.conn, payload).map_err(FrameError::Io)?;
        Self::read_response_on(&mut self.conn)
    }

    fn read_response_on(conn: &mut Conn) -> Result<Response, ClientError> {
        let payload = read_frame(conn, MAX_RESPONSE_FRAME)?;
        Response::parse(&payload)
            .ok_or_else(|| ClientError::Protocol("unparsable response payload".into()))
    }

    /// Sends a query batch or a search.  On success the body is
    /// byte-identical to what `sxsi query`/`exists`/`search` print for the
    /// same request on the same target.
    pub fn send(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.request(request.encode().as_bytes())
    }

    /// Fetches the `stats` body (counters, histograms, cache state).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.expect_ok_body(b"stats")
    }

    /// Fetches the `info` body (server and per-index descriptions).
    pub fn info(&mut self) -> Result<String, ClientError> {
        self.expect_ok_body(b"info")
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_ok_body(b"ping").map(drop)
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_ok_body(b"shutdown").map(drop)
    }

    fn expect_ok_body(&mut self, command: &[u8]) -> Result<String, ClientError> {
        match self.request(command)? {
            Response::Ok { body, .. } => Ok(body),
            Response::Err { code, message } => Err(ClientError::Protocol(format!(
                "{} failed ({code}): {message}",
                String::from_utf8_lossy(command)
            ))),
        }
    }
}
