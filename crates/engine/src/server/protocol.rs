//! The `sxsi serve` wire protocol: length-prefixed frames carrying
//! UTF-8 command/response payloads.
//!
//! The byte-level layout is documented for external clients in
//! `docs/protocol.md`; this module is the single in-tree implementation
//! (server and client share it, so the two cannot drift).
//!
//! # Frames
//!
//! Every message is one *frame*: a 4-byte little-endian payload length
//! followed by exactly that many payload bytes.  Requests are capped at
//! [`MAX_REQUEST_FRAME`]; a larger announced length is rejected with a
//! structured error frame and the connection is closed (the stream
//! cannot be re-synchronized after an un-read body).  Responses are
//! capped at the looser [`MAX_RESPONSE_FRAME`] because serialized
//! subtrees can be large.
//!
//! # Payloads
//!
//! A request payload is UTF-8 text: a command line, then command-
//! specific extra lines.  Because XPath strings may themselves contain
//! newlines (the paper's M11 does), query expressions travel
//! percent-encoded ([`escape_query`]/[`unescape_query`]).
//!
//! A response payload is either `ok[ <detail>]\n<body>` or a single
//! `error code=<code> <message>` line — see [`Response`].

use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version exchanged in the `hello` command.  Bumped on any
/// incompatible frame or payload change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on request payloads (1 MiB — queries are small).
pub const MAX_REQUEST_FRAME: u32 = 1 << 20;

/// Upper bound on response payloads (256 MiB — serialized subtrees).
pub const MAX_RESPONSE_FRAME: u32 = 1 << 28;

/// What went wrong while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream at a frame boundary (no bytes of a new frame
    /// had been read) — the peer is done, not broken.
    Closed,
    /// End of stream in the middle of a frame (inside the length prefix
    /// or the payload): `got` of `expected` payload-plus-prefix bytes
    /// arrived.
    Truncated {
        /// Bytes that did arrive.
        got: usize,
        /// Bytes the frame announced.
        expected: usize,
    },
    /// The announced payload length exceeds the cap.
    Oversized {
        /// The announced length.
        len: u64,
        /// The applicable cap.
        max: u64,
    },
    /// The read timed out (the socket's read timeout elapsed).
    TimedOut,
    /// Any other I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { got, expected } => {
                write!(f, "truncated frame: got {got} of {expected} bytes")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: announced {len} bytes, cap is {max}")
            }
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes, reporting how many arrived before
/// EOF/timeout so the caller can distinguish clean close from truncation.
fn read_exact_counting(r: &mut impl Read, buf: &mut [u8]) -> Result<(), (usize, FrameError)> {
    let mut filled = 0;
    while filled < buf.len() {
        // lint:allow(index: filled < buf.len() is the loop condition)
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err((filled, FrameError::Closed)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err((filled, FrameError::TimedOut)),
            Err(e) => return Err((filled, FrameError::Io(e))),
        }
    }
    Ok(())
}

/// Reads one frame (length prefix + payload), enforcing `max_payload`.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    if let Err((got, err)) = read_exact_counting(r, &mut prefix) {
        return Err(match err {
            // EOF before any byte is a clean close; EOF inside the
            // prefix is a truncated frame.
            FrameError::Closed if got == 0 => FrameError::Closed,
            FrameError::Closed => FrameError::Truncated { got, expected: 4 },
            other => other,
        });
    }
    let len = u32::from_le_bytes(prefix);
    if len > max_payload {
        return Err(FrameError::Oversized { len: u64::from(len), max: u64::from(max_payload) });
    }
    let mut payload = vec![0u8; len as usize];
    if let Err((got, err)) = read_exact_counting(r, &mut payload) {
        return Err(match err {
            FrameError::Closed => FrameError::Truncated { got: 4 + got, expected: 4 + len as usize },
            other => other,
        });
    }
    Ok(payload)
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload over 4 GiB"))?;
    // One write call for prefix + payload: splitting them into two TCP
    // segments makes Nagle's algorithm hold the payload until the
    // prefix is ACKed, adding ~40ms of delayed-ACK latency per frame.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Percent-encodes a query string for single-line transport: `%`, CR,
/// LF and NUL become `%25`, `%0D`, `%0A`, `%00`.  Everything else is
/// passed through, so encoded queries stay readable in traces.
pub fn escape_query(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    for c in query.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\r' => out.push_str("%0D"),
            '\n' => out.push_str("%0A"),
            '\0' => out.push_str("%00"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_query`].  Returns `None` on any `%` sequence other
/// than the four it emits.
pub fn unescape_query(encoded: &str) -> Option<String> {
    let mut out = String::with_capacity(encoded.len());
    let mut parts = encoded.split('%');
    out.push_str(parts.next().unwrap_or_default());
    for part in parts {
        let (code, rest) = (part.get(..2)?, part.get(2..)?);
        out.push(match code {
            "25" => '%',
            "0D" => '\r',
            "0A" => '\n',
            "00" => '\0',
            _ => return None,
        });
        out.push_str(rest);
    }
    Some(out)
}

/// Machine-readable error categories carried in `error code=…` frames.
///
/// The query-shape codes deliberately mirror the CLI's exit-code
/// taxonomy (`docs/guide.md#exit-codes`): `parse-error` is the daemon
/// analog of exit 1 on a bad query string, `unsupported-query` of
/// exit 3.  The `sxsi client` subcommand maps them back to those exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame payload was not valid UTF-8 or was empty.
    BadFrame,
    /// EOF arrived in the middle of a frame.
    TruncatedFrame,
    /// The announced frame length exceeds the request cap.
    OversizedFrame,
    /// The first command was not a `hello`, or named an incompatible
    /// protocol version.
    BadVersion,
    /// The command name is not known.
    UnknownCommand,
    /// A command argument is missing or malformed.
    BadArgument,
    /// The requested index id is not loaded.
    UnknownIndex,
    /// A query string failed to parse.
    ParseError,
    /// A query parsed but compiles to a shape the engine does not
    /// support (the daemon analog of CLI exit 3).
    UnsupportedQuery,
    /// The server hit an internal inconsistency while assembling a
    /// response (a server bug, not a client error).
    Internal,
    /// The connection idled past the server's read timeout.
    Timeout,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire token for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::TruncatedFrame => "truncated-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::UnknownCommand => "unknown-command",
            ErrorCode::BadArgument => "bad-argument",
            ErrorCode::UnknownIndex => "unknown-index",
            ErrorCode::ParseError => "parse-error",
            ErrorCode::UnsupportedQuery => "unsupported-query",
            ErrorCode::Internal => "internal",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parses a wire token.
    pub fn parse(token: &str) -> Option<Self> {
        Some(match token {
            "bad-frame" => ErrorCode::BadFrame,
            "truncated-frame" => ErrorCode::TruncatedFrame,
            "oversized-frame" => ErrorCode::OversizedFrame,
            "bad-version" => ErrorCode::BadVersion,
            "unknown-command" => ErrorCode::UnknownCommand,
            "bad-argument" => ErrorCode::BadArgument,
            "unknown-index" => ErrorCode::UnknownIndex,
            "parse-error" => ErrorCode::ParseError,
            "unsupported-query" => ErrorCode::UnsupportedQuery,
            "internal" => ErrorCode::Internal,
            "timeout" => ErrorCode::Timeout,
            "shutting-down" => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }

    /// The `sxsi` exit code of this error (`docs/guide.md#exit-codes`):
    /// `unsupported-query` → 3, everything else → 1.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorCode::UnsupportedQuery => 3,
            _ => 1,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `ok[ <detail>]\n<body>`: the command succeeded.
    Ok {
        /// The rest of the `ok` line (may be empty).
        detail: String,
        /// Everything after the first line, verbatim.
        body: String,
    },
    /// `error code=<code> <message>`: a structured failure.
    Err {
        /// The machine-readable category.
        code: ErrorCode,
        /// The human-readable message (single line).
        message: String,
    },
}

impl Response {
    /// Renders a success payload.
    pub fn render_ok(detail: &str, body: &str) -> Vec<u8> {
        let mut out = String::with_capacity(4 + detail.len() + body.len());
        out.push_str("ok");
        if !detail.is_empty() {
            out.push(' ');
            out.push_str(detail);
        }
        out.push('\n');
        out.push_str(body);
        out.into_bytes()
    }

    /// Renders an error payload.  `message` is flattened to one line.
    pub fn render_error(code: ErrorCode, message: &str) -> Vec<u8> {
        let flat: String =
            message.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).collect();
        format!("error code={code} {flat}").into_bytes()
    }

    /// Parses a response payload.  Returns `None` when the payload is
    /// not UTF-8 or matches neither shape.
    pub fn parse(payload: &[u8]) -> Option<Response> {
        let text = std::str::from_utf8(payload).ok()?;
        if let Some(rest) = text.strip_prefix("ok") {
            let (first_line, body) = match rest.split_once('\n') {
                Some((head, body)) => (head, body),
                None => (rest, ""),
            };
            let detail = first_line.strip_prefix(' ').unwrap_or(first_line);
            return Some(Response::Ok { detail: detail.to_string(), body: body.to_string() });
        }
        let rest = text.strip_prefix("error ")?;
        let rest = rest.strip_prefix("code=")?;
        let (code_token, message) = rest.split_once(' ').unwrap_or((rest, ""));
        Some(Response::Err {
            code: ErrorCode::parse(code_token)?,
            message: message.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello 1").unwrap();
        assert_eq!(buf.len(), 4 + 7);
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, MAX_REQUEST_FRAME).unwrap(), b"hello 1");
        assert!(matches!(read_frame(&mut cursor, MAX_REQUEST_FRAME), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_announced_length_is_rejected_before_reading_the_body() {
        let mut frame = (MAX_REQUEST_FRAME + 1).to_le_bytes().to_vec();
        frame.extend_from_slice(b"xx");
        let mut cursor = io::Cursor::new(frame);
        match read_frame(&mut cursor, MAX_REQUEST_FRAME) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u64::from(MAX_REQUEST_FRAME) + 1);
                assert_eq!(max, u64::from(MAX_REQUEST_FRAME));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn every_byte_truncation_is_detected() {
        let mut full = Vec::new();
        write_frame(&mut full, b"stats").unwrap();
        for cut in 1..full.len() {
            let mut cursor = io::Cursor::new(full[..cut].to_vec());
            match read_frame(&mut cursor, MAX_REQUEST_FRAME) {
                Err(FrameError::Truncated { got, expected }) => {
                    assert_eq!(got, cut);
                    // Inside the prefix the reader cannot know the
                    // payload length yet, so `expected` is the prefix.
                    let known = if cut < 4 { 4 } else { full.len() };
                    assert_eq!(expected, known);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn query_escaping_roundtrips() {
        let tricky = "//*/*[ contains( . , \"1999\n11\n26\") ]";
        let encoded = escape_query(tricky);
        assert!(!encoded.contains('\n'));
        assert_eq!(unescape_query(&encoded).unwrap(), tricky);
        assert_eq!(unescape_query(&escape_query("100%")).unwrap(), "100%");
        assert_eq!(unescape_query("%zz"), None);
        assert_eq!(unescape_query("%0"), None);
        // Only the four escapes `escape_query` emits decode.
        assert_eq!(unescape_query("//it%65m"), None);
        assert_eq!(unescape_query("%41"), None);
        assert_eq!(unescape_query("%C3%A9"), None);
        assert_eq!(unescape_query("%2"), None);
    }

    #[test]
    fn response_roundtrip() {
        let ok = Response::render_ok("pong", "body line\n");
        assert_eq!(
            Response::parse(&ok).unwrap(),
            Response::Ok { detail: "pong".into(), body: "body line\n".into() }
        );
        let ok_plain = Response::render_ok("", "");
        assert_eq!(
            Response::parse(&ok_plain).unwrap(),
            Response::Ok { detail: String::new(), body: String::new() }
        );
        let err = Response::render_error(ErrorCode::UnknownIndex, "no index 'x'\nloaded: y");
        match Response::parse(&err).unwrap() {
            Response::Err { code, message } => {
                assert_eq!(code, ErrorCode::UnknownIndex);
                assert_eq!(message, "no index 'x' loaded: y");
            }
            other => panic!("expected Err, got {other:?}"),
        }
        assert_eq!(Response::parse(b"\xff\xfe"), None);
        assert_eq!(Response::parse(b"error code=not-a-code x"), None);
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::TruncatedFrame,
            ErrorCode::OversizedFrame,
            ErrorCode::BadVersion,
            ErrorCode::UnknownCommand,
            ErrorCode::BadArgument,
            ErrorCode::UnknownIndex,
            ErrorCode::ParseError,
            ErrorCode::UnsupportedQuery,
            ErrorCode::Timeout,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }
}
