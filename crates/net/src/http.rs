//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! Just enough of the protocol for the wire format: one request line or
//! status line, `\r\n`-terminated headers, and a `Content-Length`-framed
//! body. Persistent connections are the default (HTTP/1.1 keep-alive);
//! chunked transfer, compression, and multi-line headers are out of
//! scope — both ends of the wire are this crate.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on a message body; larger announcements are rejected
/// before any allocation, so a corrupt length can't balloon memory.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Upper bound on header section size.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Room reserved ahead of the body of an outgoing message: a first line
/// and a handful of headers.
const HEAD_ROOM: usize = 256;

/// A parsed request head plus body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Request target (`/query`, `/metrics`, …).
    pub path: String,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// A parsed response head plus body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

fn find_header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A connection torn down mid-message: `UnexpectedEof`, not
/// `InvalidData` — the peer vanished, the bytes were not malformed.
/// Clients classify this as a transport failure.
fn torn_down(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, message.into())
}

/// Reads one `\r\n`-terminated line into `line` and returns it without
/// the terminator, taking whole spans out of the reader's buffer.
/// `Ok(None)` signals clean EOF **before any byte** — the peer closed a
/// keep-alive connection between messages.
fn read_line<'l>(
    reader: &mut impl BufRead,
    budget: &mut usize,
    line: &'l mut Vec<u8>,
) -> io::Result<Option<&'l str>> {
    line.clear();
    let read = reader
        .by_ref()
        .take(*budget as u64)
        .read_until(b'\n', line)?;
    *budget = budget.saturating_sub(read);
    let Some(line) = line.strip_suffix(b"\n") else {
        return match (*budget, read) {
            (0, _) => Err(bad_data("header section too large")),
            (_, 0) => Ok(None),
            _ => Err(torn_down("connection closed mid-line")),
        };
    };
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    std::str::from_utf8(line)
        .map(Some)
        .map_err(|_| bad_data("non-UTF-8 header line"))
}

fn read_headers(
    reader: &mut impl BufRead,
    budget: &mut usize,
    line: &mut Vec<u8>,
) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, budget, line)?
            .ok_or_else(|| torn_down("connection closed inside headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad_data(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
}

fn read_body(reader: &mut impl BufRead, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
    let length = find_header(headers, "content-length")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| bad_data(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(bad_data(format!("body of {length} bytes exceeds limit")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Appends the header lines, the `Content-Length` line and the body to
/// a message that already holds its first line, and sends the whole
/// message with one write.
fn write_message(
    writer: &mut impl Write,
    mut message: Vec<u8>,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    for (name, value) in headers {
        message.extend_from_slice(name.as_bytes());
        message.extend_from_slice(b": ");
        message.extend_from_slice(value.as_bytes());
        message.extend_from_slice(b"\r\n");
    }
    write!(message, "Content-Length: {}\r\n\r\n", body.len())?;
    message.extend_from_slice(body);
    writer.write_all(&message)?;
    writer.flush()
}

/// Reads one request. `Ok(None)` means the peer closed the idle
/// connection cleanly (keep-alive end-of-life, not an error).
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<HttpRequest>> {
    let mut budget = MAX_HEADER_BYTES;
    let mut line = Vec::new();
    let Some(request_line) = read_line(reader, &mut budget, &mut line)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_ascii_uppercase(), p.to_owned(), v),
        _ => return Err(bad_data(format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad_data(format!("unsupported protocol {version:?}")));
    }
    let headers = read_headers(reader, &mut budget, &mut line)?;
    let body = read_body(reader, &headers)?;
    Ok(Some(HttpRequest {
        method,
        path,
        headers,
        body,
    }))
}

/// Writes one request with a `Content-Length`-framed body.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut message = Vec::with_capacity(HEAD_ROOM + body.len());
    write!(message, "{method} {path} HTTP/1.1\r\n")?;
    write_message(writer, message, headers, body)
}

/// Reads one response.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let mut budget = MAX_HEADER_BYTES;
    let mut line = Vec::new();
    let status_line = read_line(reader, &mut budget, &mut line)?
        .ok_or_else(|| torn_down("connection closed before response"))?;
    let mut parts = status_line.split_whitespace();
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(bad_data(format!("malformed status line {status_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad_data(format!("unsupported protocol {version:?}")));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| bad_data(format!("bad status code {status:?}")))?;
    let headers = read_headers(reader, &mut budget, &mut line)?;
    let body = read_body(reader, &headers)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Writes one response with a `Content-Length`-framed body.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut message = Vec::with_capacity(HEAD_ROOM + body.len());
    write!(message, "HTTP/1.1 {status} {reason}\r\n")?;
    write_message(writer, message, headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_through_a_buffer() {
        let mut buffer = Vec::new();
        write_request(
            &mut buffer,
            "POST",
            "/query",
            &[("X-Client", "tester"), ("Content-Type", "application/json")],
            b"{\"op\":\"ask\"}\n",
        )
        .unwrap();
        let mut reader = BufReader::new(buffer.as_slice());
        let req = read_request(&mut reader).unwrap().expect("one request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("x-client"), Some("tester"));
        assert_eq!(req.header("X-CLIENT"), Some("tester"));
        assert_eq!(req.body, b"{\"op\":\"ask\"}\n");
        // The connection is now idle; a clean close reads as None.
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn response_round_trips_through_a_buffer() {
        let mut buffer = Vec::new();
        write_response(
            &mut buffer,
            429,
            "Too Many Requests",
            &[("Retry-After", "1")],
            b"{}",
        )
        .unwrap();
        let resp = read_response(&mut BufReader::new(buffer.as_slice())).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, b"{}");
    }

    /// Counts `write` calls and keeps what they carried.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write_of_pinned_bytes() {
        let mut out = CountingWriter::default();
        let headers = [("Host", "sofya"), ("X-Deadline-Ms", "250")];
        write_request(&mut out, "POST", "/query", &headers, b"{\"op\":\"ask\"}\n").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "POST /query HTTP/1.1\r\nHost: sofya\r\nX-Deadline-Ms: 250\r\n\
             Content-Length: 13\r\n\r\n{\"op\":\"ask\"}\n"
        );

        let mut out = CountingWriter::default();
        let headers = [("Content-Type", "application/json"), ("Retry-After", "7")];
        write_response(&mut out, 503, "Service Unavailable", &headers, b"").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Retry-After: 7\r\nContent-Length: 0\r\n\r\n"
        );
    }

    #[test]
    fn the_header_budget_counts_every_line() {
        // Exactly at the limit parses; one byte over does not, however
        // the bytes are split across lines.
        let head = "GET / HTTP/1.1\r\n";
        let filler = |len: usize| format!("X-Pad: {}\r\n", "a".repeat(len - 9));
        let rest = MAX_HEADER_BYTES - head.len() - 2;
        for (pad, ok) in [(rest, true), (rest + 1, false)] {
            let message = format!("{head}{}{}\r\n", filler(pad / 2), filler(pad - pad / 2));
            let parsed = read_request(&mut BufReader::new(message.as_bytes()));
            assert_eq!(parsed.is_ok(), ok, "{} header bytes", message.len());
        }
    }

    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let msg = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_request(&mut BufReader::new(msg.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(read_request(&mut BufReader::new(&b"NOT HTTP\r\n\r\n"[..])).is_err());
        assert!(read_request(&mut BufReader::new(&b"GET / SPDY/9\r\n\r\n"[..])).is_err());
    }
}
