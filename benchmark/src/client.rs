//! The load generator's side of the wire: request bytes, a keep-alive
//! connection, and an incremental HTTP/1.1 response parser that timestamps
//! every complete chunk of a chunked NDJSON stream.
//!
//! The parser is fed whatever `read` returned, so a step event split
//! across two TCP segments is only counted once its last byte (and the
//! chunk's trailing CRLF) has arrived — time-to-first-event must not fire
//! on a partial chunk.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Bytes of one `POST` with a JSON body on a keep-alive connection.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Bytes of one body-less request (`GET`, `DELETE`).
pub fn bare(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Head,
    Body { remaining: usize },
    ChunkSize,
    ChunkData { remaining: usize },
    ChunkEnd,
    Trailer,
    Done,
}

/// Incremental parser of one HTTP/1.1 response (`Content-Length` or
/// `Transfer-Encoding: chunked`).
#[derive(Debug)]
pub struct ResponseParser {
    pending: Vec<u8>,
    state: State,
    status: u16,
    body: Vec<u8>,
    chunks: usize,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseParser {
    /// A parser expecting a status line.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            state: State::Head,
            status: 0,
            body: Vec::new(),
            chunks: 0,
        }
    }

    /// Consumes `bytes`; afterwards [`chunks`](Self::chunks) counts every
    /// data chunk that has arrived *completely* and
    /// [`is_done`](Self::is_done) tells whether the response has ended.
    pub fn feed(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.pending.extend_from_slice(bytes);
        let mut cursor = 0;
        loop {
            let rest = &self.pending[cursor..];
            match self.state {
                State::Head => {
                    let Some(end) = find(rest, b"\r\n\r\n") else {
                        break;
                    };
                    let (status, state) = parse_head(&rest[..end])?;
                    self.status = status;
                    self.state = state;
                    cursor += end + 4;
                }
                State::Body { remaining } => {
                    let take = remaining.min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    cursor += take;
                    self.state = if take == remaining {
                        State::Done
                    } else {
                        State::Body {
                            remaining: remaining - take,
                        }
                    };
                    if take < remaining {
                        break;
                    }
                }
                State::ChunkSize => {
                    let Some(end) = find(rest, b"\r\n") else {
                        break;
                    };
                    let text = std::str::from_utf8(&rest[..end]).map_err(|_| bad("chunk size"))?;
                    let digits = text.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(digits, 16).map_err(|_| bad("chunk size"))?;
                    cursor += end + 2;
                    self.state = if size == 0 {
                        State::Trailer
                    } else {
                        State::ChunkData { remaining: size }
                    };
                }
                State::ChunkData { remaining } => {
                    let take = remaining.min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    cursor += take;
                    if take < remaining {
                        self.state = State::ChunkData {
                            remaining: remaining - take,
                        };
                        break;
                    }
                    self.state = State::ChunkEnd;
                }
                State::ChunkEnd => {
                    if rest.len() < 2 {
                        break;
                    }
                    if &rest[..2] != b"\r\n" {
                        return Err(bad("chunk terminator"));
                    }
                    cursor += 2;
                    self.chunks += 1;
                    self.state = State::ChunkSize;
                }
                State::Trailer => {
                    // The gateway sends no trailers: the stream ends with
                    // the empty line after the 0-size chunk.
                    let Some(end) = find(rest, b"\r\n") else {
                        break;
                    };
                    cursor += end + 2;
                    if end == 0 {
                        self.state = State::Done;
                    }
                }
                State::Done => break,
            }
        }
        self.pending.drain(..cursor);
        Ok(())
    }

    /// Data chunks received completely so far.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Whether the response has ended.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// The status code (0 until the head is complete).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body so far (chunk payloads concatenated).
    #[cfg(test)]
    pub fn body(&self) -> &[u8] {
        &self.body
    }
}

/// Status code and body framing of a complete response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, State)> {
    let head = std::str::from_utf8(head).map_err(|_| bad("response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut length = 0usize;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = value.trim().parse().map_err(|_| bad("content length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.trim().eq_ignore_ascii_case("chunked");
        }
    }
    let state = if chunked {
        State::ChunkSize
    } else if length == 0 {
        State::Done
    } else {
        State::Body { remaining: length }
    };
    Ok((status, state))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

/// One response with the client-side timeline of its arrival, every time
/// measured from the moment the request was handed to `write`.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (chunk payloads concatenated for a chunked response).
    pub body: Vec<u8>,
    /// Send → first response byte.
    pub first_byte: Duration,
    /// Send → each completely received data chunk (empty when not chunked).
    pub chunk_done: Vec<Duration>,
    /// Send → last response byte.
    pub total: Duration,
}

impl Reply {
    /// Send → first complete result-bearing unit: the first step-event
    /// chunk of a streamed response, the whole body of a blocking one.
    pub fn first_event(&self) -> Duration {
        self.chunk_done.first().copied().unwrap_or(self.total)
    }

    /// The body as text.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// A keep-alive connection with one request outstanding at a time (the
/// closed loop: the next request leaves only after this reply is in).
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
}

impl Connection {
    /// Connects with `TCP_NODELAY` and a generous read timeout (a hang is
    /// reported as an I/O error, never waited out).
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { stream })
    }

    /// Sends `request` and reads the complete response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        let sent = Instant::now();
        self.stream.write_all(request)?;
        let mut parser = ResponseParser::new();
        let mut first_byte = None;
        let mut chunk_done = Vec::new();
        let mut scratch = [0u8; 4096];
        while !parser.is_done() {
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "gateway closed mid-response",
                ));
            }
            let now = sent.elapsed();
            first_byte.get_or_insert(now);
            parser.feed(&scratch[..n])?;
            chunk_done.resize(parser.chunks(), now);
        }
        Ok(Reply {
            status: parser.status(),
            first_byte: first_byte.unwrap_or_default(),
            chunk_done,
            total: sent.elapsed(),
            body: std::mem::take(&mut parser.body),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENTS: [&str; 3] = [
        "{\"event\":\"step\",\"index\":0}\n",
        "{\"event\":\"step\",\"index\":1}\n",
        "{\"event\":\"result\"}\n",
    ];

    /// A chunked NDJSON response framed the way the gateway frames it.
    fn stream() -> Vec<u8> {
        let mut out = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\
            Content-Type: application/x-ndjson\r\n\r\n"
            .to_vec();
        for event in EVENTS {
            out.extend_from_slice(format!("{:x}\r\n{event}\r\n", event.len()).as_bytes());
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    /// Offset just past the first chunk's trailing CRLF.
    fn first_chunk_end(stream: &[u8]) -> usize {
        let head = find(stream, b"\r\n\r\n").unwrap() + 4;
        let size_line = format!("{:x}\r\n", EVENTS[0].len()).len();
        head + size_line + EVENTS[0].len() + 2
    }

    #[test]
    fn parses_a_content_length_response() {
        let mut parser = ResponseParser::new();
        parser
            .feed(b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 5\r\n\r\nhello")
            .unwrap();
        assert!(parser.is_done());
        assert_eq!(parser.status(), 429);
        assert_eq!(parser.body(), b"hello");
        assert_eq!(parser.chunks(), 0);
    }

    #[test]
    fn a_body_less_response_ends_at_its_head() {
        let mut parser = ResponseParser::new();
        parser.feed(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert!(parser.is_done());
        assert_eq!(parser.status(), 204);
    }

    #[test]
    fn chunked_stream_split_at_every_offset() {
        let stream = stream();
        let first_end = first_chunk_end(&stream);
        for split in 0..=stream.len() {
            let mut parser = ResponseParser::new();
            parser.feed(&stream[..split]).unwrap();
            // First-event detection: no chunk counts before its last byte
            // (trailing CRLF included) is in.
            if split < first_end {
                assert_eq!(parser.chunks(), 0, "partial chunk counted at {split}");
            } else {
                assert!(parser.chunks() >= 1, "complete chunk missed at {split}");
            }
            assert_eq!(parser.is_done(), split == stream.len());
            parser.feed(&stream[split..]).unwrap();
            assert!(parser.is_done(), "split {split}");
            assert_eq!(parser.chunks(), 3);
            assert_eq!(parser.status(), 200);
            let lines: Vec<&str> = std::str::from_utf8(parser.body())
                .unwrap()
                .lines()
                .collect();
            assert_eq!(lines.len(), 3);
            assert_eq!(lines[2], "{\"event\":\"result\"}");
        }
    }

    #[test]
    fn chunked_stream_fed_byte_by_byte() {
        let stream = stream();
        let mut parser = ResponseParser::new();
        let mut seen = Vec::new();
        for (i, byte) in stream.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte)).unwrap();
            if seen.len() < parser.chunks() {
                seen.push(i + 1);
            }
        }
        assert!(parser.is_done());
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], first_chunk_end(&stream));
    }

    #[test]
    fn malformed_chunk_sizes_are_errors() {
        let mut parser = ResponseParser::new();
        let result =
            parser.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nabc\r\n");
        assert!(result.is_err());
    }

    #[test]
    fn request_builders_frame_the_body() {
        let bytes = post("/v1/infer", "{\"a\":1}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/infer HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
        assert_eq!(
            bare("DELETE", "/v1/sessions/sess-0-1"),
            b"DELETE /v1/sessions/sess-0-1 HTTP/1.1\r\nHost: bench\r\n\r\n"
        );
    }
}
