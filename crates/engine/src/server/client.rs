//! A blocking client for the `sxsi serve` protocol — used by the
//! `sxsi client` CLI subcommand and the integration tests, and usable
//! as a library by anything that wants to talk to a running daemon.
//!
//! Connecting performs the `hello` handshake immediately, so a
//! successfully constructed [`Client`] is known to speak the same
//! [`PROTOCOL_VERSION`] as the server.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

use super::protocol::{
    escape_query, read_frame, write_frame, ErrorCode, FrameError, Response, MAX_RESPONSE_FRAME,
    PROTOCOL_VERSION,
};
use super::OutputKind;

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

enum ClientConn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for ClientConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientConn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientConn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientConn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientConn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientConn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientConn::Unix(s) => s.flush(),
        }
    }
}

/// One connection to a running `sxsi serve` daemon, already past the
/// `hello` handshake.
///
/// Reads block indefinitely by default (queries may legitimately take a
/// while on a loaded server); the *server* enforces idle timeouts, not
/// the client.
pub struct Client {
    conn: ClientConn,
}

impl Client {
    /// Connects over TCP (e.g. `127.0.0.1:7878`) and shakes hands.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Connect)?;
        // One query is one small frame each way; Nagle would trade
        // ~40ms of delayed-ACK latency for nothing.
        stream.set_nodelay(true).map_err(ClientError::Connect)?;
        Self::handshake(ClientConn::Tcp(stream))
    }

    /// Connects over a Unix-domain socket and shakes hands.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(path).map_err(ClientError::Connect)?;
        Self::handshake(ClientConn::Unix(stream))
    }

    fn handshake(mut conn: ClientConn) -> Result<Client, ClientError> {
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

    fn read_response_on(conn: &mut ClientConn) -> Result<Response, ClientError> {
        let payload = read_frame(conn, MAX_RESPONSE_FRAME)?;
        Response::parse(&payload)
            .ok_or_else(|| ClientError::Protocol("unparsable response payload".into()))
    }

    /// Runs a batch of XPath expressions, returning the server's
    /// response.  On success the body is byte-identical to what
    /// `sxsi query`/`sxsi exists` would print for the same options.
    pub fn query(
        &mut self,
        index: Option<&str>,
        output: OutputKind,
        limit: Option<u64>,
        offset: u64,
        xpaths: &[&str],
    ) -> Result<Response, ClientError> {
        let args = format!("output={} offset={offset}", output.as_str());
        self.send("query", index, limit, &args, xpaths)
    }

    /// Runs a ranked keyword search, returning the server's response.
    /// On success the body is byte-identical to what `sxsi search`
    /// would print for the same index and options.
    pub fn search(
        &mut self,
        index: Option<&str>,
        mode: &str,
        limit: Option<u64>,
        terms: &[&str],
    ) -> Result<Response, ClientError> {
        self.send("search", index, limit, &format!("mode={mode}"), terms)
    }

    /// Sends the request shape `query` and `search` share: the command,
    /// its arguments, then one escaped entry per body line.
    fn send(
        &mut self,
        command: &str,
        index: Option<&str>,
        limit: Option<u64>,
        args: &str,
        entries: &[&str],
    ) -> Result<Response, ClientError> {
        let mut payload = command.to_string();
        if let Some(index) = index {
            payload.push_str(" index=");
            payload.push_str(index);
        }
        let limit = limit.map_or_else(|| "none".to_string(), |n| n.to_string());
        payload.push_str(&format!(" {args} limit={limit}"));
        for entry in entries {
            payload.push('\n');
            payload.push_str(&escape_query(entry));
        }
        self.request(payload.as_bytes())
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
        match self.request(b"ping")? {
            Response::Ok { .. } => Ok(()),
            Response::Err { code, message } => {
                Err(ClientError::Protocol(format!("ping failed ({code}): {message}")))
            }
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(b"shutdown")? {
            Response::Ok { .. } => Ok(()),
            Response::Err { code, message } => {
                Err(ClientError::Protocol(format!("shutdown failed ({code}): {message}")))
            }
        }
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

/// Maps a server error frame onto the CLI's exit-code taxonomy
/// (`docs/guide.md#exit-codes`): `unsupported-query` → 3, everything
/// else → 1.  (Exit 4, exists-without-match, is not an error frame: the
/// client derives it from the `all_found=` detail of an `exists`
/// response.)
pub fn exit_code_for(code: ErrorCode) -> i32 {
    match code {
        ErrorCode::UnsupportedQuery => 3,
        _ => 1,
    }
}
