//! A hand-rolled HTTP/1.1 request parser and response writer on plain
//! `std::io` streams — no external dependencies.
//!
//! The parser is *incremental*: it reads from the socket into an internal
//! buffer until a full head (`\r\n\r\n`) and declared body are available,
//! enforcing size limits while bytes arrive (an oversized request is
//! rejected before it is ever buffered whole). Leftover bytes stay in the
//! buffer, so pipelined or keep-alive requests on one connection parse
//! naturally. Socket read timeouts surface as [`ParseError::Timeout`] —
//! that is the slow-loris defence: a client trickling a request slower
//! than the configured timeout gets `408` and the connection closed.

use std::io::{self, Read, Write};

/// Size limits enforced while a request streams in.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of declared body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercase as sent.
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Header name/value pairs in arrival order; names kept as sent.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The path portion of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The raw query string of the target (without the `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, query)| query)
    }

    /// Whether the query string contains `key=value` (or bare `key` when
    /// `value` is empty) among its `&`-separated parameters. No percent
    /// decoding — the gateway's query parameters are plain tokens.
    pub fn query_flag(&self, key: &str, value: &str) -> bool {
        self.query().is_some_and(|query| {
            query.split('&').any(|pair| {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                k == key && v == value
            })
        })
    }

    /// The value of the first `key=value` pair among the `&`-separated
    /// query parameters (a bare `key` reads as the empty value). No percent
    /// decoding — the gateway's query parameters are plain tokens.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an explicit
    /// `Connection` header overrides either.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(value) if value.eq_ignore_ascii_case("close") => false,
            Some(value) if value.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be parsed. Each maps to one HTTP status.
#[derive(Debug)]
pub enum ParseError {
    /// Syntactically invalid request (`400`).
    BadRequest(String),
    /// Request line + headers exceeded `max_head_bytes` (`431`).
    HeadTooLarge,
    /// Declared body exceeds `max_body_bytes` (`413`).
    BodyTooLarge,
    /// A feature this server does not implement (`501`), e.g. chunked
    /// request bodies.
    Unsupported(String),
    /// An HTTP version other than 1.0/1.1 (`505`).
    BadVersion,
    /// The socket read timed out. `mid_request` distinguishes a slow-loris
    /// stall inside a request (`408`) from an idle keep-alive connection
    /// timing out between requests (quiet close).
    Timeout {
        /// Whether any bytes of the next request had already arrived.
        mid_request: bool,
    },
    /// The peer closed the connection mid-request.
    UnexpectedEof,
    /// Any other socket error.
    Io(io::Error),
}

impl ParseError {
    /// The HTTP status code this error maps to, if a response is owed.
    pub fn status(&self) -> Option<u16> {
        match self {
            ParseError::BadRequest(_) => Some(400),
            ParseError::HeadTooLarge => Some(431),
            ParseError::BodyTooLarge => Some(413),
            ParseError::Unsupported(_) => Some(501),
            ParseError::BadVersion => Some(505),
            ParseError::Timeout { mid_request: true } => Some(408),
            ParseError::Timeout { mid_request: false } => None,
            ParseError::UnexpectedEof | ParseError::Io(_) => None,
        }
    }
}

/// Incremental request reader over one connection.
#[derive(Debug)]
pub struct RequestReader<R> {
    stream: R,
    buffer: Vec<u8>,
    limits: Limits,
}

impl<R: Read> RequestReader<R> {
    /// Wraps a readable stream.
    pub fn new(stream: R, limits: Limits) -> Self {
        Self {
            stream,
            buffer: Vec::new(),
            limits,
        }
    }

    /// Reads the next request off the connection. `Ok(None)` means the peer
    /// closed cleanly between requests.
    pub fn read_request(&mut self) -> Result<Option<Request>, ParseError> {
        // Phase 1: accumulate the head.
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buffer) {
                break end;
            }
            if self.buffer.len() > self.limits.max_head_bytes {
                return Err(ParseError::HeadTooLarge);
            }
            match self.fill()? {
                0 if self.buffer.is_empty() => return Ok(None),
                0 => return Err(ParseError::UnexpectedEof),
                _ => {}
            }
        };

        let head = std::str::from_utf8(&self.buffer[..head_end])
            .map_err(|_| ParseError::BadRequest("non-UTF-8 request head".into()))?;
        if head.len() > self.limits.max_head_bytes {
            return Err(ParseError::HeadTooLarge);
        }
        let (method, target, http11, headers) = parse_head(head)?;

        // Phase 2: the declared body. A chunked transfer-encoding takes
        // precedence over any Content-Length (RFC 9112 §6.3); encodings
        // other than a single `chunked` stay a typed 501.
        let body_start = head_end + 4;
        let (body, consumed) = match header_value(&headers, "transfer-encoding") {
            Some(encoding) if encoding.trim().eq_ignore_ascii_case("chunked") => {
                self.read_chunked_body(body_start)?
            }
            Some(encoding) => {
                return Err(ParseError::Unsupported(format!(
                    "transfer-encoding \"{}\"",
                    encoding.trim()
                )));
            }
            None => {
                let content_length = match header_value(&headers, "content-length") {
                    Some(text) => parse_size(text, 10)
                        .ok_or_else(|| ParseError::BadRequest("invalid Content-Length".into()))?,
                    None => 0,
                };
                if content_length > self.limits.max_body_bytes {
                    return Err(ParseError::BodyTooLarge);
                }
                while self.buffer.len() < body_start + content_length {
                    if self.fill()? == 0 {
                        return Err(ParseError::UnexpectedEof);
                    }
                }
                (
                    self.buffer[body_start..body_start + content_length].to_vec(),
                    body_start + content_length,
                )
            }
        };
        // Keep any pipelined bytes for the next call.
        self.buffer.drain(..consumed);

        Ok(Some(Request {
            method,
            target,
            http11,
            headers,
            body,
        }))
    }

    /// Decodes a chunked request body starting at `body_start` in the
    /// buffer. Returns the reassembled body and the buffer offset one past
    /// the terminating blank trailer line, so pipelined requests keep
    /// working. `max_body_bytes` is enforced on the *accumulated* decoded
    /// size, before each chunk's data is buffered; everything that is not
    /// chunk data — size lines with their extensions, the CRLF closing each
    /// chunk, trailer fields — draws on one `max_head_bytes` allowance for
    /// the whole body, so a peer cannot grow the buffer without bound
    /// through framing the decoded-size cap never sees.
    fn read_chunked_body(&mut self, body_start: usize) -> Result<(Vec<u8>, usize), ParseError> {
        let mut body = Vec::new();
        let mut pos = body_start;
        let mut framing_left = self.limits.max_head_bytes;
        loop {
            let line_end = self.find_crlf(pos, framing_left)?;
            framing_left -= line_end + 2 - pos;
            let line = std::str::from_utf8(&self.buffer[pos..line_end])
                .map_err(|_| ParseError::BadRequest("non-UTF-8 chunk size line".into()))?;
            // Chunk extensions (anything after `;`) are legal; ignore them.
            let size = parse_size(line.split(';').next().unwrap_or(line), 16)
                .ok_or_else(|| ParseError::BadRequest("invalid chunk size".into()))?;
            if body.len().saturating_add(size) > self.limits.max_body_bytes {
                return Err(ParseError::BodyTooLarge);
            }
            pos = line_end + 2;
            if size == 0 {
                // Discard trailer fields until the blank line that ends the
                // chunked message.
                loop {
                    let trailer_end = self.find_crlf(pos, framing_left)?;
                    framing_left -= trailer_end + 2 - pos;
                    if trailer_end == pos {
                        return Ok((body, pos + 2));
                    }
                    pos = trailer_end + 2;
                }
            }
            framing_left = framing_left
                .checked_sub(2)
                .ok_or_else(|| ParseError::BadRequest("oversized chunk metadata".into()))?;
            while self.buffer.len() < pos + size + 2 {
                if self.fill()? == 0 {
                    return Err(ParseError::UnexpectedEof);
                }
            }
            body.extend_from_slice(&self.buffer[pos..pos + size]);
            if &self.buffer[pos + size..pos + size + 2] != b"\r\n" {
                return Err(ParseError::BadRequest(
                    "chunk data not CRLF-terminated".into(),
                ));
            }
            pos += size + 2;
        }
    }

    /// Fills until a CRLF appears at or after `from`; returns its offset.
    /// The line, CRLF included, must fit in `framing_left` — what remains of
    /// the chunked body's framing allowance — and so must whatever is
    /// buffered of a line whose CRLF has not arrived yet.
    fn find_crlf(&mut self, from: usize, framing_left: usize) -> Result<usize, ParseError> {
        loop {
            let window_start = from.min(self.buffer.len());
            let line_end = self.buffer[window_start..]
                .windows(2)
                .position(|w| w == b"\r\n")
                .map(|offset| window_start + offset);
            let line_bytes =
                line_end.map_or(self.buffer.len() - window_start, |end| end + 2 - from);
            if line_bytes > framing_left {
                return Err(ParseError::BadRequest("oversized chunk metadata".into()));
            }
            if let Some(end) = line_end {
                return Ok(end);
            }
            if self.fill()? == 0 {
                return Err(ParseError::UnexpectedEof);
            }
        }
    }

    fn fill(&mut self) -> Result<usize, ParseError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(n) => {
                self.buffer.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(self.fill()?),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(ParseError::Timeout {
                    mid_request: !self.buffer.is_empty(),
                })
            }
            Err(e) => Err(ParseError::Io(e)),
        }
    }
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A body or chunk size: after trimming, one or more digits of `radix` and
/// nothing else (RFC 9112 `1*DIGIT` / `1*HEXDIG`) — the sign `str::parse`
/// and `from_str_radix` would also take is a framing error here.
fn parse_size(text: &str, radix: u32) -> Option<usize> {
    let digits = text.trim();
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    usize::from_str_radix(digits, radix).ok()
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

type Head = (String, String, bool, Vec<(String, String)>);

fn parse_head(head: &str) -> Result<Head, ParseError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| ParseError::BadRequest("invalid method".into()))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/') || *t == "*")
        .ok_or_else(|| ParseError::BadRequest("invalid request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::BadRequest("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequest("malformed request line".into()));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return Err(ParseError::BadVersion),
        _ => return Err(ParseError::BadRequest("invalid HTTP version".into())),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadRequest("malformed header line".into()))?;
        // RFC 9110 `token`: a name with any other byte (a tab or space
        // before the colon, say) would pass as an unknown field while
        // another parser reads it as the framing header it resembles.
        let token = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
        if name.is_empty() || !name.bytes().all(token) {
            return Err(ParseError::BadRequest("malformed header name".into()));
        }
        // Two Content-Length fields never agree on where the body ends.
        if name.eq_ignore_ascii_case("content-length")
            && header_value(&headers, "content-length").is_some()
        {
            return Err(ParseError::BadRequest("repeated Content-Length".into()));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok((method.to_string(), target.to_string(), http11, headers))
}

/// An outgoing HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added on write).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A response carrying a JSON body.
    pub fn json(status: u16, body: &crate::json::Json) -> Self {
        Self::new(status)
            .with_header("Content-Type", "application/json")
            .with_body(body.encode().into_bytes())
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Self::new(status)
            .with_header("Content-Type", content_type)
            .with_body(body.into())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Serializes the response to the wire, stamping `Content-Length` and
    /// `Connection` from `keep_alive`.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        RequestReader::new(raw, Limits::default()).read_request()
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let request = read_one(raw).unwrap().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/v1/infer");
        assert_eq!(request.body, b"abcd");
        assert!(request.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        assert_eq!(request.header("HOST"), Some("x"));
    }

    #[test]
    fn strips_query_from_path_and_honours_connection_close() {
        let raw = b"GET /metrics?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let request = read_one(raw).unwrap().unwrap();
        assert_eq!(request.path(), "/metrics");
        assert!(!request.keep_alive());
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec();
        let mut reader = RequestReader::new(&raw[..], Limits::default());
        assert_eq!(reader.read_request().unwrap().unwrap().target, "/a");
        assert_eq!(reader.read_request().unwrap().unwrap().target, "/b");
        assert!(reader.read_request().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(
            read_one(b"NOT A REQUEST\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            read_one(b"get /lower HTTP/1.1\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            read_one(b"GET /x HTTP/2.0\r\n\r\n"),
            Err(ParseError::BadVersion)
        ));
        assert!(matches!(
            read_one(b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
    }

    #[test]
    fn enforces_head_and_body_limits() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let huge_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(200));
        assert!(matches!(
            RequestReader::new(huge_head.as_bytes(), limits).read_request(),
            Err(ParseError::HeadTooLarge)
        ));
        let big_body = b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            RequestReader::new(&big_body[..], limits).read_request(),
            Err(ParseError::BodyTooLarge)
        ));
    }

    #[test]
    fn truncated_requests_are_unexpected_eof() {
        assert!(matches!(
            read_one(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ParseError::UnexpectedEof)
        ));
        assert!(matches!(
            read_one(b"GET /x HT"),
            Err(ParseError::UnexpectedEof)
        ));
    }

    #[test]
    fn chunked_bodies_reassemble() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let request = read_one(raw).unwrap().unwrap();
        assert_eq!(request.body, b"Wikipedia");
        // Chunked request then a pipelined plain request on one connection.
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    3;ext=1\r\nabc\r\n0\r\nTrailer: ignored\r\n\r\n\
                    GET /next HTTP/1.1\r\n\r\n"
            .to_vec();
        let mut reader = RequestReader::new(&raw[..], Limits::default());
        assert_eq!(reader.read_request().unwrap().unwrap().body, b"abc");
        assert_eq!(reader.read_request().unwrap().unwrap().target, "/next");
        // A body split into many small chunks stays inside the default
        // framing allowance.
        let mut split = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for i in 0..250 {
            split.extend_from_slice(format!("2\r\n{:02}\r\n", i % 100).as_bytes());
        }
        split.extend_from_slice(b"0\r\n\r\n");
        let request = read_one(&split).unwrap().unwrap();
        assert_eq!(request.body.len(), 500);
        assert_eq!(&request.body[..6], b"000102");
    }

    #[test]
    fn chunked_bodies_enforce_limits_and_syntax() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        // Accumulated chunk sizes exceed the body cap before the data for
        // the oversized chunk is ever demanded.
        let big = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nabcdef\r\n6\r\n";
        assert!(matches!(
            RequestReader::new(&big[..], limits).read_request(),
            Err(ParseError::BodyTooLarge)
        ));
        // Malformed hex size line.
        assert!(matches!(
            read_one(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        // Chunk data not CRLF-terminated.
        assert!(matches!(
            read_one(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX0\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        // Truncated mid-chunk is an EOF, not a hang.
        assert!(matches!(
            read_one(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nab"),
            Err(ParseError::UnexpectedEof)
        ));
        // Non-chunked transfer encodings stay a typed 501.
        assert!(matches!(
            read_one(b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"),
            Err(ParseError::Unsupported(_))
        ));
    }

    #[test]
    fn framing_fields_are_strict_about_digits_duplicates_and_names() {
        let bad_request = |raw: &'static [u8]| {
            let mut reader = RequestReader::new(raw, Limits::default());
            match reader.read_request() {
                Err(ParseError::BadRequest(_)) => {}
                other => panic!(
                    "expected the typed 400 for {:?}, got {other:?}",
                    String::from_utf8_lossy(raw)
                ),
            }
            reader
        };
        // (a), (b) Sizes are 1*DIGIT / 1*HEXDIG: no sign, no blank.
        bad_request(b"POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd");
        bad_request(b"POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n");
        bad_request(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n+4\r\nabcd\r\n0\r\n\r\n",
        );
        // (c) Two Content-Length fields never agree on where the body ends,
        // even when they carry the same value.
        bad_request(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 0\r\n\r\nabcd");
        bad_request(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd");
        // (d) A field name that is not a token must not slip past as an
        // unknown header: here it would turn the body into a second,
        // smuggled request.
        let smuggle =
            b"POST /v1/infer HTTP/1.1\r\nContent-Length\t: 27\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        assert!(
            !matches!(bad_request(smuggle).read_request(), Ok(Some(_))),
            "the bytes after the rejected head are never served as a request"
        );
        bad_request(b"GET /x HTTP/1.1\r\nX(y): 1\r\n\r\n");

        // Well-formed framing still parses: leading zeros, either hex case,
        // a chunk extension after the size, any header-name case.
        let body_of = |raw: &[u8]| read_one(raw).unwrap().unwrap().body;
        assert_eq!(
            body_of(b"POST /x HTTP/1.1\r\ncOnTeNt-LeNgTh: 004\r\n\r\nabcd"),
            b"abcd"
        );
        assert_eq!(
            body_of(
                b"POST /x HTTP/1.1\r\nTRANSFER-ENCODING: chunked\r\n\r\n\
                  A\r\n0123456789\r\na;ext=1\r\nabcdefghij\r\n00\r\n\r\n"
            ),
            b"0123456789abcdefghij"
        );
    }

    #[test]
    fn chunked_framing_draws_on_one_budget_per_body() {
        const HEAD: &[u8] = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let limits = Limits {
            max_head_bytes: 1024,
            max_body_bytes: 64,
        };
        // Whatever the peer sends, one body buffers at most its head, the
        // framing allowance, the body cap and the read that overran them.
        let buffered_cap = HEAD.len() + limits.max_head_bytes + limits.max_body_bytes + 4096;
        let rejects = |raw: &[u8]| {
            assert!(raw.len() > 2 * buffered_cap, "input must outrun the cap");
            let mut reader = RequestReader::new(raw, limits);
            match reader.read_request() {
                Err(ParseError::BadRequest(reason)) => {
                    assert_eq!(reason, "oversized chunk metadata")
                }
                other => panic!("expected the typed 400, got {other:?}"),
            }
            assert!(
                reader.buffer.len() <= buffered_cap,
                "buffered {} of {} bytes",
                reader.buffer.len(),
                raw.len()
            );
        };

        // (a) Every trailer line is short, but together they run to ten
        // times the allowance before the terminating blank line.
        let mut trailers = [HEAD, b"0\r\n"].concat();
        while trailers.len() < 10 * limits.max_head_bytes + buffered_cap {
            trailers.extend_from_slice(b"a: b\r\n");
        }
        trailers.extend_from_slice(b"\r\n");
        rejects(&trailers);

        // (b) One-byte chunks, each size line padded with an extension just
        // under the per-line bound: the decoded body stays tiny while the
        // framing runs to many times the allowance.
        let chunk = format!("1;{}\r\nx\r\n", "e".repeat(limits.max_head_bytes - 16));
        let mut padded = HEAD.to_vec();
        for _ in 0..16 {
            padded.extend_from_slice(chunk.as_bytes());
        }
        padded.extend_from_slice(b"0\r\n\r\n");
        rejects(&padded);
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(
            200,
            &crate::json::Json::object(vec![("ok", crate::json::Json::Bool(true))]),
        )
        .write_to(&mut out, true)
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
