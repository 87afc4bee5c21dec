//! A tiny blocking HTTP client for the coordinator, tests, smoke
//! scripts, and CI.
//!
//! [`Connection`] keeps one TCP connection alive across requests
//! (`Connection: keep-alive`, `Content-Length`-framed reads capped at
//! [`MAX_RESPONSE_BYTES`]) — the coordinator holds one per dispatch lane
//! so the dispatch path pays no connect/teardown tax. The free functions
//! ([`request`], [`get`], ...) are one request on a fresh [`Connection`],
//! so one-shot admin calls and the coordinator's harvest get the same
//! framing, size cap and timeouts. [`send_raw`] alone reads to EOF, for
//! the fuzz corpora.

use crate::proto::MAX_BATCH;
use cardopc_json::Json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// The parser's message for non-JSON bodies.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(&self.body_str())
    }
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Connection/IO failures and unparseable responses.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    request_with_timeout(addr, method, path, body, Duration::from_secs(30))
}

/// [`request`] with an explicit per-IO timeout. The fleet coordinator uses
/// this to enforce tile leases: a worker that does not answer a dispatch
/// within the lease loses the tile.
///
/// # Errors
///
/// See [`request`]; additionally `TimedOut`/`WouldBlock` when the deadline
/// passes mid-read, and `InvalidData` when the response declares more than
/// [`MAX_RESPONSE_BYTES`].
pub fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    Connection::new(addr).request_with_timeout(method, path, body, timeout)
}

/// `GET path`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<HttpResponse> {
    request(addr, "GET", path, None)
}

/// `POST path` with a JSON body.
///
/// # Errors
///
/// See [`request`].
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> io::Result<HttpResponse> {
    request(addr, "POST", path, Some(body))
}

/// `DELETE path`.
///
/// # Errors
///
/// See [`request`].
pub fn delete(addr: SocketAddr, path: &str) -> io::Result<HttpResponse> {
    request(addr, "DELETE", path, None)
}

/// A keep-alive HTTP connection to one peer.
///
/// The first request connects lazily; later requests reuse the stream.
/// Responses are `Content-Length`-framed (reading to EOF would wait out
/// the peer, which is holding the connection open on purpose). A request
/// that fails on a *reused* stream retries once on a fresh connection —
/// the idle server end may have timed the old one out between requests —
/// so callers see a stale-connection race as one successful request, not
/// an error. Tile dispatch is idempotent (workers answer re-sends from
/// their checkpoint), which is what makes the retry safe.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Requests that reused an already-open stream (telemetry for the
    /// dispatch-overhead accounting in the scaling bench).
    reused: u64,
}

impl Connection {
    /// A connection handle to `addr`; nothing is connected yet.
    pub fn new(addr: SocketAddr) -> Connection {
        Connection {
            addr,
            stream: None,
            reused: 0,
        }
    }

    /// The peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many requests reused an already-open stream.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Sends one request over the kept-alive stream and reads the framed
    /// response.
    ///
    /// # Errors
    ///
    /// Connection/IO failures (after the single stale-reuse retry) and
    /// unparseable responses.
    pub fn request_with_timeout(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> io::Result<HttpResponse> {
        let had_stream = self.stream.is_some();
        match self.try_request(method, path, body, timeout) {
            Ok(response) => {
                if had_stream {
                    self.reused += 1;
                }
                Ok(response)
            }
            // The reused stream was stale (server idle-timeout, worker
            // restart); retry once on a fresh connection. `try_request`
            // already dropped the dead stream.
            Err(_) if had_stream => self.try_request(method, path, body, timeout),
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> io::Result<HttpResponse> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, timeout)?;
            // Small request/response exchanges on a long-lived stream are
            // exactly what Nagle + delayed-ACK punishes (~40 ms per
            // coalesced write); send segments immediately.
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("just ensured");
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let body = body.unwrap_or("");
        // One buffer, one write: a head-then-body write pair on a reused
        // stream can stall on the peer's delayed ACK.
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        message.push_str(body);
        let result = stream
            .write_all(message.as_bytes())
            .and_then(|()| stream.flush())
            .and_then(|()| read_framed_response(stream));
        match result {
            Ok(response) => {
                // Honour the server's decision to close (errors, drains).
                if response
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Largest framed response body a [`Connection`] accepts. The largest
/// legitimate one answers a full dispatch: [`MAX_BATCH`] record lines, each
/// allowed what any single message of this protocol is
/// ([`MAX_BODY_BYTES`](crate::http::MAX_BODY_BYTES), 4 MiB — the record of
/// the densest tile at CLI defaults is ≈ 150 KB, an array tile's 2.4 KB):
/// 64 × 4 MiB = 256 MiB. A peer declaring more is answered with
/// `InvalidData` before a byte of the body is read.
pub const MAX_RESPONSE_BYTES: usize = MAX_BATCH * crate::http::MAX_BODY_BYTES;

/// Reads one `Content-Length`-framed response off a kept-alive stream.
fn read_framed_response(stream: &mut TcpStream) -> io::Result<HttpResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 8192];
        match stream.read(&mut chunk)? {
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let mut response = parse_response(&buf[..head_end + 4])?;
    let content_length = match response.header("content-length") {
        Some(raw) => raw
            .trim()
            .parse::<usize>()
            .map_err(|_| bad("bad content-length in response"))?,
        None => return Err(bad("response lacks content-length")),
    };
    if content_length > MAX_RESPONSE_BYTES {
        return Err(bad("response body too large"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        match stream.read(&mut chunk)? {
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated body",
                ))
            }
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_length);
    response.body = body;
    Ok(response)
}

/// Writes arbitrary bytes to the server and reads until the connection
/// closes (or a read fails or times out, after 30 s). The fuzz tests use
/// this to deliver malformed requests that [`request`] could never produce.
///
/// # Errors
///
/// Connection and write failures.
pub fn send_raw(addr: SocketAddr, bytes: &[u8]) -> io::Result<Vec<u8>> {
    let timeout = Duration::from_secs(30);
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(bytes)?;
    let _ = stream.flush();
    // Half-close: the server sees EOF instead of waiting out its read
    // timeout when `bytes` is a truncated request.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    Ok(response)
}

/// Splits a raw response into status, headers, and body.
fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-utf8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A peer that accepts one connection, reads the request, writes
    /// `answer` and then sends nothing more until the client hangs up.
    fn stalling_peer(answer: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 1024];
            let _ = stream.read(&mut request);
            stream.write_all(&answer).unwrap();
            // Returns once the client closes its end.
            let _ = stream.read_to_end(&mut Vec::new());
        });
        (addr, peer)
    }

    #[test]
    fn a_body_cut_short_by_the_deadline_is_an_error_not_a_truncated_ok() {
        let (addr, peer) =
            stalling_peer(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc".to_vec());
        let err = request_with_timeout(addr, "GET", "/", None, Duration::from_millis(200))
            .expect_err("a 3-byte body of a declared 10 was accepted");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "{err:?}"
        );
        peer.join().unwrap();
    }

    #[test]
    fn an_oversized_declared_length_is_refused_before_the_body() {
        let declared = MAX_RESPONSE_BYTES + 1;
        let (addr, peer) = stalling_peer(
            format!("HTTP/1.1 200 OK\r\ncontent-length: {declared}\r\n\r\n").into_bytes(),
        );
        // Waiting for a body byte would run into the 30 s deadline instead.
        let err = get(addr, "/v1/records").expect_err("an oversized answer was accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err:?}");
        peer.join().unwrap();
    }
}
