//! Minimal std-only HTTP/1.1 support for the query service.
//!
//! The service needs exactly four GET endpoints, so this is a deliberately
//! small subset of the protocol: request-line + headers are parsed with hard
//! limits (no bodies are read — all endpoints are GET), and responses always
//! carry `Content-Length`, so one connection can carry many requests. The
//! parse reports whether the client allows that ([`Request::keep_alive`]);
//! every response says `Connection: keep-alive` or `Connection: close` to
//! match what the server does next. Malformed input maps to a typed
//! [`ParseError`] which the server answers with `400 Bad Request`; nothing
//! in the parse path can panic on attacker-controlled bytes.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest accepted request line (method + target + version), bytes.
pub(crate) const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum number of header lines read before the request is rejected.
pub(crate) const MAX_HEADERS: usize = 64;

/// Why an incoming request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Connection closed before a full request arrived.
    UnexpectedEof,
    /// Request line or a header exceeded the size limits.
    TooLarge,
    /// The request line is not `METHOD TARGET HTTP/1.x`.
    BadRequestLine,
    /// The target contains an invalid percent-escape.
    BadEscape,
    /// A header line is not `Name: value`.
    BadHeader,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedEof => write!(f, "connection closed mid-request"),
            ParseError::TooLarge => write!(f, "request exceeds size limits"),
            ParseError::BadRequestLine => write!(f, "malformed request line"),
            ParseError::BadEscape => write!(f, "invalid percent-encoding in target"),
            ParseError::BadHeader => write!(f, "malformed header line"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed request: method, decoded path, decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, e.g. `/pedigree/42`.
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub params: Vec<(String, String)>,
    /// Whether the client allows the connection to carry another request:
    /// HTTP/1.1 allows it unless a `Connection` header lists `close`;
    /// HTTP/1.0 only when one lists `keep-alive`. A request announcing a
    /// body (`Content-Length` other than 0, or `Transfer-Encoding`) never
    /// allows it, because the body is not read and would be taken for the
    /// next request.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Read one CRLF/LF-terminated line into `buf` (cleared first), so one
/// buffer serves the request line and all header lines of a request
/// instead of a fresh `Vec` + `String` per line.
fn read_line_into(r: &mut impl BufRead, buf: &mut Vec<u8>, limit: usize) -> Result<(), ParseError> {
    buf.clear();
    loop {
        let mut byte = 0u8;
        match io_read_exact(r, std::slice::from_mut(&mut byte)) {
            Ok(()) => {}
            Err(_) => return Err(ParseError::UnexpectedEof),
        }
        if byte == b'\n' {
            break;
        }
        buf.push(byte);
        if buf.len() > limit {
            return Err(ParseError::TooLarge);
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(())
}

fn io_read_exact(r: &mut impl BufRead, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf)
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-decode `s`, additionally mapping `+` to a space (form encoding).
///
/// # Errors
/// [`ParseError::BadEscape`] on a truncated or non-hex escape, or when the
/// decoded bytes are not UTF-8.
pub(crate) fn percent_decode(s: &str) -> Result<String, ParseError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let (hi, lo) = (
                    bytes.get(i + 1).copied().and_then(hex_val),
                    bytes.get(i + 2).copied().and_then(hex_val),
                );
                match (hi, lo) {
                    (Some(h), Some(l)) => out.push(h << 4 | l),
                    _ => return Err(ParseError::BadEscape),
                }
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| ParseError::BadEscape)
}

fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), ParseError> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return Err(ParseError::BadRequestLine);
    }
    let path = percent_decode(raw_path)?;
    let mut params = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            params.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    Ok((path, params))
}

/// Case-insensitive ASCII match of header `name` against `lower`.
fn header_is(name: &[u8], lower: &str) -> bool {
    name.trim_ascii().eq_ignore_ascii_case(lower.as_bytes())
}

/// Whether the comma-separated header `value` lists `token`.
fn lists_token(value: &[u8], token: &str) -> bool {
    value.split(|&b| b == b',').any(|t| t.trim_ascii().eq_ignore_ascii_case(token.as_bytes()))
}

/// Read and parse one HTTP/1.1 request (request line + headers) from `r`.
/// Headers are consumed; only `Connection`, `Content-Length` and
/// `Transfer-Encoding` are looked at (for [`Request::keep_alive`]); bodies
/// are never read. Called repeatedly on one reader, it parses pipelined
/// requests in order.
///
/// The request line and every header share one line buffer, and headers
/// are validated as byte slices (they are never UTF-8-decoded): the parse
/// allocates only for the owned `Request` fields, not per line.
///
/// # Errors
/// A typed [`ParseError`] for anything that should answer `400`.
pub fn parse_request(r: &mut impl BufRead) -> Result<Request, ParseError> {
    let mut line: Vec<u8> = Vec::with_capacity(256);
    read_line_into(r, &mut line, MAX_REQUEST_LINE)?;
    let req_line = std::str::from_utf8(&line).map_err(|_| ParseError::BadRequestLine)?;
    let mut parts = req_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::BadRequestLine),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequestLine);
    }
    // The owned fields are extracted before the header loop reuses `line`.
    let (path, params) = parse_target(target)?;
    let method = method.to_string();
    let (mut close, mut keep, mut body) = (false, false, false);
    let http11 = version == "HTTP/1.1";
    for _ in 0..MAX_HEADERS {
        read_line_into(r, &mut line, MAX_REQUEST_LINE)?;
        if line.is_empty() {
            let keep_alive = !close && !body && (keep || http11);
            return Ok(Request { method, path, params, keep_alive });
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            return Err(ParseError::BadHeader);
        };
        let (name, value) = line.split_at(colon);
        let value = value.get(1..).unwrap_or_default();
        if header_is(name, "connection") {
            close |= lists_token(value, "close");
            keep |= lists_token(value, "keep-alive");
        } else if header_is(name, "content-length") {
            body |= value.trim_ascii() != b"0";
        } else if header_is(name, "transfer-encoding") {
            body = true;
        }
    }
    Err(ParseError::TooLarge)
}

/// An outgoing response. [`Response::render`] appends the full HTTP/1.1
/// message, with `Content-Length` and a `Connection` header saying whether
/// the server keeps the connection, to a byte buffer the caller sends with
/// one write; [`Response::write_to`] writes the `Connection: close` form
/// straight to a stream.
///
/// The body is borrowed, not owned: handlers render into a reusable
/// per-worker buffer and the response lends it to the writer, so the
/// serve path allocates no response memory once the buffer has warmed up.
#[derive(Debug, Clone, Copy)]
pub struct Response<'a> {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes, borrowed from the render buffer.
    pub body: &'a [u8],
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

impl<'a> Response<'a> {
    /// A JSON response borrowing `body`.
    #[must_use]
    pub fn json(status: u16, body: &'a str) -> Self {
        Self { status, content_type: "application/json", body: body.as_bytes() }
    }

    /// A plain-text response borrowing `body`.
    #[must_use]
    pub fn text(status: u16, body: &'a str) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", body: body.as_bytes() }
    }

    /// A `200 OK` response in the Prometheus text exposition format
    /// (version 0.0.4, the content type scrapers negotiate).
    #[must_use]
    pub fn prometheus(body: &'a str) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.as_bytes(),
        }
    }

    fn write_head(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )
    }

    /// Append the whole message to `out`, announcing `Connection:
    /// keep-alive` or `Connection: close`. Head and body go out in one
    /// write: with persistent connections and `TCP_NODELAY`, a reply split
    /// over several small writes stalls the client.
    pub(crate) fn render(&self, out: &mut Vec<u8>, keep_alive: bool) {
        // Writing into a `Vec` cannot fail.
        let _ = self.write_head(out, keep_alive);
        out.extend_from_slice(self.body);
    }

    /// Serialise onto `w` with `Connection: close`.
    ///
    /// # Errors
    /// Propagates I/O errors (e.g. the client hung up).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_head(w, false)?;
        w.write_all(self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        parse_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_params() {
        let r = parse("GET /search?first=flora&last=mac%20rae&m=5 HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("valid request");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/search");
        assert_eq!(r.param("first"), Some("flora"));
        assert_eq!(r.param("last"), Some("mac rae"));
        assert_eq!(r.param("m"), Some("5"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn plus_decodes_to_space() {
        let r = parse("GET /search?first=mary+ann HTTP/1.1\r\n\r\n").expect("valid");
        assert_eq!(r.param("first"), Some("mary ann"));
    }

    #[test]
    fn malformed_request_line_rejected() {
        assert_eq!(parse("GARBAGE\r\n\r\n"), Err(ParseError::BadRequestLine));
        assert_eq!(parse("GET /x EXTRA HTTP/1.1\r\n\r\n"), Err(ParseError::BadRequestLine));
        assert_eq!(parse("GET /x SPDY/9\r\n\r\n"), Err(ParseError::BadRequestLine));
        assert_eq!(parse("GET relative HTTP/1.1\r\n\r\n"), Err(ParseError::BadRequestLine));
    }

    #[test]
    fn bad_escapes_rejected() {
        assert_eq!(parse("GET /x?a=%zz HTTP/1.1\r\n\r\n"), Err(ParseError::BadEscape));
        assert_eq!(parse("GET /x?a=%2 HTTP/1.1\r\n\r\n"), Err(ParseError::BadEscape));
        assert_eq!(percent_decode("%ff"), Err(ParseError::BadEscape)); // not UTF-8
    }

    #[test]
    fn eof_mid_request_rejected() {
        assert_eq!(parse("GET / HTTP/1.1\r\nHost: x"), Err(ParseError::UnexpectedEof));
    }

    #[test]
    fn header_without_colon_rejected() {
        assert_eq!(parse("GET / HTTP/1.1\r\nnocolon\r\n\r\n"), Err(ParseError::BadHeader));
    }

    #[test]
    fn oversized_request_line_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 10));
        assert_eq!(parse(&raw), Err(ParseError::TooLarge));
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw), Err(ParseError::TooLarge));
    }

    #[test]
    fn keep_alive_decisions() {
        for (headers, version, expect) in [
            ("", "HTTP/1.1", true),
            ("", "HTTP/1.0", false),
            ("Connection: close\r\n", "HTTP/1.1", false),
            ("Connection: Keep-Alive\r\n", "HTTP/1.0", true),
            ("connection:   CLOSE  \r\n", "HTTP/1.1", false),
            ("CONNECTION:\tkeep-alive \r\n", "HTTP/1.0", true),
            ("Connection: keep-alive\r\nConnection: close\r\n", "HTTP/1.1", false),
            ("Connection: close\r\nConnection: keep-alive\r\n", "HTTP/1.0", false),
            ("Connection: keep-alive\r\nConnection: keep-alive\r\n", "HTTP/1.0", true),
            ("Connection: Upgrade, close\r\n", "HTTP/1.1", false),
            ("Connection: closed\r\n", "HTTP/1.1", true),
            ("X-Connection: close\r\n", "HTTP/1.1", true),
            ("Content-Length: 0\r\n", "HTTP/1.1", true),
            ("Content-Length: 5\r\n", "HTTP/1.1", false),
            ("Transfer-Encoding: chunked\r\n", "HTTP/1.1", false),
        ] {
            let raw = format!("GET /healthz {version}\r\nHost: x\r\n{headers}\r\n");
            let req = parse(&raw).expect("valid request");
            assert_eq!(req.keep_alive, expect, "{raw:?}");
        }
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::with_capacity(5, raw.as_bytes());
        let a = parse_request(&mut r).expect("first");
        let b = parse_request(&mut r).expect("second");
        assert_eq!((a.path.as_str(), a.keep_alive), ("/a", true));
        assert_eq!((b.path.as_str(), b.param("x"), b.keep_alive), ("/b", Some("1"), false));
        assert_eq!(parse_request(&mut r), Err(ParseError::UnexpectedEof));
    }

    /// Seeded mutation fuzzing of a two-request pipelined stream: splices,
    /// duplications, truncations and byte flips, parsed repeatedly from one
    /// small-buffered reader as the server does. Every call returns a
    /// `Request` or a typed `ParseError` and consumes input, so the loop
    /// reaches end of input within one call per byte.
    #[test]
    fn mutated_pipelined_streams_never_panic() {
        use snaps_rng::{check_cases, Rng};
        const SEED: &[u8] =
            b"GET /search?first=flora&last=mac%20rae&m=5 HTTP/1.1\r\nHost: x\r\n\r\n\
            GET /pedigree/7?g=2 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";

        fn span(rng: &mut Rng, len: usize) -> (usize, usize) {
            let a = rng.gen_range(0..=len);
            let b = rng.gen_range(0..=len);
            (a.min(b), a.max(b))
        }

        check_cases(512, |rng| {
            let mut bytes = SEED.to_vec();
            for _ in 0..rng.gen_range(1..=6) {
                let len = bytes.len();
                match rng.gen_range(0..4u8) {
                    0 => {
                        let (a, b) = span(rng, len);
                        let piece = bytes[a..b].to_vec();
                        let (c, d) = span(rng, len);
                        bytes.splice(c..d, piece);
                    }
                    1 => {
                        let (a, b) = span(rng, len);
                        let piece = bytes[a..b].to_vec();
                        bytes.splice(b..b, piece);
                    }
                    2 => bytes.truncate(rng.gen_range(0..=len)),
                    _ if len > 0 => {
                        let at = rng.gen_range(0..len);
                        bytes[at] = match rng.gen_range(0..4u8) {
                            0 => b'\r',
                            1 => b'\n',
                            2 => b':',
                            _ => rng.gen_range(0..=u8::MAX),
                        };
                    }
                    _ => {}
                }
            }
            let mut r = BufReader::with_capacity(rng.gen_range(1..=64), bytes.as_slice());
            let mut calls = 0;
            loop {
                calls += 1;
                assert!(calls <= bytes.len() + 1, "parse made no progress on {bytes:?}");
                match parse_request(&mut r) {
                    Ok(req) => assert!(req.path.starts_with('/'), "{req:?}"),
                    Err(ParseError::UnexpectedEof) => break,
                    Err(_) => {}
                }
            }
        });
    }

    #[test]
    fn response_wire_format() {
        for keep_alive in [false, true] {
            let mut out = Vec::new();
            Response::json(200, "{\"ok\":true}").render(&mut out, keep_alive);
            let s = String::from_utf8(out).unwrap();
            assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
            assert!(s.contains("Content-Type: application/json\r\n"));
            assert!(s.contains("Content-Length: 11\r\n"));
            let connection = if keep_alive { "keep-alive" } else { "close" };
            assert!(s.contains(&format!("Connection: {connection}\r\n")), "{s}");
            assert!(s.ends_with("\r\n\r\n{\"ok\":true}"));
        }
        // `write_to` keeps the close form, byte for byte.
        let (mut written, mut rendered) = (Vec::new(), Vec::new());
        Response::json(404, "{}").write_to(&mut written).unwrap();
        Response::json(404, "{}").render(&mut rendered, false);
        assert_eq!(written, rendered);
    }
}
