//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The service only needs five verbs' worth of surface: parse a request
//! line, a handful of headers (`Content-Length`, `Content-Type`,
//! `Connection`), read the body, and write a framed response. Pulling a
//! full async stack in for that would dwarf the rest of the crate, and
//! the engine's worker pool already owns the machine's parallelism —
//! so connections are plain blocking sockets handled by a small
//! dedicated thread pool.

use bigdansing_common::{Error, Result};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body the server accepts (16 MiB). Streaming clients
/// are expected to chunk their deltas into many small POSTs; this is a
/// guard against a single malformed length header pinning memory.
pub const MAX_BODY: usize = 16 << 20;

/// Largest request head — request line plus every header — the server
/// reads (64 KiB; this API's heads are a few hundred bytes). Without it
/// a peer that sends bytes and never a newline grows one `String`
/// until the process dies.
const MAX_HEAD: usize = 64 << 10;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-cased (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string, e.g. `/tenant/acme/records`.
    pub path: String,
    /// Query parameters (`?wait=1` → `{"wait": "1"}`).
    pub query: HashMap<String, String>,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or an error naming the offending request.
    pub fn body_str(&self) -> Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| Error::Parse(format!("{} {}: body is not UTF-8", self.method, self.path)))
    }

    /// True when the client asked to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        !self
            .headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Query parameter lookup.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Split the path into its non-empty segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Outcome of waiting for the next request on a keep-alive connection.
pub enum ReadOutcome {
    /// A complete request arrived.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The socket's read timeout elapsed with no bytes received — the
    /// caller can check its shutdown flag and wait again.
    Idle,
}

/// Read one request off `reader`: at most `MAX_HEAD` bytes of head
/// and [`MAX_BODY`] of body, whatever the peer sends.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<ReadOutcome> {
    let mut head = reader.by_ref().take(MAX_HEAD as u64);
    // the cap is spent: the head was cut short, not ended by a blank line
    let too_long = || Error::Parse(format!("http: request head exceeds {MAX_HEAD} bytes"));
    let mut line = String::new();
    let n = match head.read_line(&mut line) {
        Ok(n) => n,
        Err(e)
            if line.is_empty()
                && matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
        {
            return Ok(ReadOutcome::Idle);
        }
        Err(e) => return Err(Error::Io(format!("http: read request line: {e}"))),
    };
    if n == 0 {
        return Ok(ReadOutcome::Closed);
    }
    if head.limit() == 0 {
        return Err(too_long());
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_ascii_uppercase(), t.to_string()),
        _ => return Err(Error::Parse(format!("http: bad request line {line:?}"))),
    };

    let mut headers = HashMap::new();
    loop {
        let mut h = String::new();
        let n = head
            .read_line(&mut h)
            .map_err(|e| Error::Io(format!("http: read header: {e}")))?;
        let h = h.trim_end();
        if n == 0 || h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    if head.limit() == 0 {
        return Err(too_long());
    }

    let len: usize = match headers.get("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| Error::Parse(format!("http: bad Content-Length {v:?}")))?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(Error::Parse(format!(
            "http: body of {len} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|e| Error::Io(format!("http: read body: {e}")))?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, HashMap::new()),
    };
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

fn parse_query(q: &str) -> HashMap<String, String> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Write a response with the given status, content type, and body.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing() {
        let q = parse_query("wait=1&format=jsonl&flag");
        assert_eq!(q.get("wait").map(String::as_str), Some("1"));
        assert_eq!(q.get("format").map(String::as_str), Some("jsonl"));
        assert_eq!(q.get("flag").map(String::as_str), Some(""));
    }

    #[test]
    fn json_escaping_covers_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
