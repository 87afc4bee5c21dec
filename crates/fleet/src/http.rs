//! Hand-rolled HTTP/1.1 over [`std::net::TcpStream`] (no crates.io
//! access): request parsing, response writing, and the one [`Server`] the
//! correction service and the fleet worker both run. The subset is small
//! and strict: `Content-Length` framing only (chunked bodies are a 501; a
//! length that is not all digits, or repeated with another value, a 400
//! per RFC 9112 §6.3) and hard caps on head and body size. Every parse
//! failure maps to a 4xx/5xx status, never a panic.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes (correction requests are small JSON).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Per-connection socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Most connections a [`Server`] serves at once; one more is shed.
pub const MAX_CONNECTIONS: usize = 64;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw query string (without the `?`), if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// A request parse failure, carrying the status the peer should receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// HTTP status to answer with (always 4xx or 5xx).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl ParseError {
    fn new(status: u16, message: impl Into<String>) -> ParseError {
        ParseError {
            status,
            message: message.into(),
        }
    }
}

/// Outcome of reading one request off a connection.
pub enum ReadOutcome {
    /// A syntactically valid request.
    Request(Request),
    /// Malformed input; answer with the carried status and close.
    Malformed(ParseError),
    /// The peer closed or timed out before sending a full head; there is
    /// nobody to answer.
    Disconnected,
}

/// Reads and parses one request, enforcing the size limits.
pub fn read_request(stream: &mut TcpStream) -> ReadOutcome {
    read_next_request(stream, &mut Vec::new())
}

/// [`read_request`] on a kept-alive stream: `buf` holds the bytes read
/// past the previous request (the start of a pipelined one) and is left
/// holding whatever follows this one.
fn read_next_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));

    // Accumulate until the blank line that ends the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return ReadOutcome::Malformed(ParseError::new(431, "request head too large"));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Disconnected
                } else {
                    ReadOutcome::Malformed(ParseError::new(400, "truncated request head"))
                }
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return ReadOutcome::Disconnected,
        }
    };

    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return ReadOutcome::Malformed(ParseError::new(400, "non-utf8 request head")),
    };
    let mut request = match parse_head(head) {
        Ok(r) => r,
        Err(e) => return ReadOutcome::Malformed(e),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.trim().is_empty())
    {
        return ReadOutcome::Malformed(ParseError::new(501, "chunked bodies not supported"));
    }

    let content_length = match content_length(&request) {
        Ok(n) => n,
        Err(e) => return ReadOutcome::Malformed(e),
    };
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::Malformed(ParseError::new(413, "request body too large"));
    }

    let body_end = head_end + 4 + content_length;
    while buf.len() < body_end {
        let mut chunk = [0u8; 8192];
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Malformed(ParseError::new(400, "truncated body")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return ReadOutcome::Malformed(ParseError::new(408, "body read timed out")),
        }
    }
    request.body = buf[head_end + 4..body_end].to_vec();
    buf.drain(..body_end);
    ReadOutcome::Request(request)
}

/// The body length a request declares (0 without `Content-Length`). A
/// value that is not `1*DIGIT`, or duplicates that differ, are a 400:
/// either would let two parsers frame the stream differently.
fn content_length(request: &Request) -> Result<usize, ParseError> {
    let mut values = request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length");
    let Some((_, first)) = values.next() else {
        return Ok(0);
    };
    let digits = first.bytes().all(|b| b.is_ascii_digit()) && values.all(|(_, v)| v == first);
    (first.parse().ok().filter(|_| digits))
        .ok_or_else(|| ParseError::new(400, "bad content-length"))
}

/// Index of the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses the request line and headers (everything before the blank line).
fn parse_head(head: &str) -> Result<Request, ParseError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::new(400, "empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| ParseError::new(400, "bad method"))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or_else(|| ParseError::new(400, "bad request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::new(400, "missing http version"))?;
    if parts.next().is_some() {
        return Err(ParseError::new(400, "malformed request line"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::new(505, "unsupported http version"));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::new(400, "malformed header"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::new(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
    })
}

/// A response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers (e.g. `Retry-After`).
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error document `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            cardopc_json::Json::obj(vec![("error", cardopc_json::Json::Str(message.into()))])
                .to_string_compact(),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialises and writes the response; `keep_alive` answers
    /// `Connection: keep-alive` so the peer may send another request on the
    /// same stream, else `Connection: close`. Errors are swallowed (the
    /// peer may already be gone, which is its prerogative).
    pub fn write_framed(&self, stream: &mut TcpStream, keep_alive: bool) {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // Head and body go out in one write: separate small writes on a
        // kept-alive stream can stall on Nagle + the peer's delayed ACK.
        let mut message = head.into_bytes();
        message.extend_from_slice(&self.body);
        let _ = stream.write_all(&message).and_then(|()| stream.flush());
    }
}

/// A role's routes, served by a [`Server`].
pub trait Handler: Send + Sync + 'static {
    /// Answers one well-formed request.
    fn route(&self, request: &Request) -> Response;

    /// Sees every response just before it is written — including the
    /// answers to malformed requests and to shed connections.
    fn answered(&self, _response: &Response) {}
}

/// The HTTP server both roles run. A named thread accepts (backing off
/// 50 ms after an `accept()` error instead of busy-spinning). Each
/// connection gets a thread and one of [`MAX_CONNECTIONS`] slots, handed
/// back by a drop guard, on unwind too; past the cap a connection is
/// **shed** with `503` + `Retry-After: 1`, so a full server still answers.
/// A connection (`TCP_NODELAY`) is served until the peer stops asking for
/// `Connection: keep-alive`, sends malformed input (answered, then
/// closed), idles past [`IO_TIMEOUT`], or the server stops; bytes after a
/// request begin the next one, so pipelined requests are answered in
/// order. [`Server::stop`] (idempotent, also on drop) sets the stop flag,
/// wakes the accept thread with a throwaway connection and joins it, then
/// waits for the requests being answered — the stop request's own answer
/// among them — to be written.
pub struct Server {
    handle: StopHandle,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

/// Requests a [`Server`]'s stop, from its handler too; the owner joins.
#[derive(Clone)]
pub struct StopHandle(Arc<Core>);

/// What the accept thread, the connections and the stop handles share.
struct Core {
    addr: SocketAddr,
    stopping: AtomicBool,
    active: AtomicUsize,
    /// Requests read and not yet answered.
    answering: AtomicUsize,
}

impl Server {
    /// Binds `addr`, builds the handler (handing it a [`StopHandle`]) and
    /// starts accepting on thread `{name}-accept`.
    ///
    /// # Errors
    ///
    /// Bind/listen failures and an accept thread that cannot be spawned.
    pub fn start<H: Handler>(
        addr: &str,
        name: &str,
        handler: impl FnOnce(StopHandle) -> Arc<H>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let handle = StopHandle(Arc::new(Core {
            addr: listener.local_addr()?,
            stopping: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            answering: AtomicUsize::new(0),
        }));
        let handler = handler(handle.clone());
        let (core, name) = (Arc::clone(&handle.0), name.to_string());
        let accept_thread = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&listener, &core, &handler, &name))?;
        Ok(Server {
            handle,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.0.addr
    }

    /// Blocks until the server has stopped accepting — as soon as a stop
    /// is requested, by [`Server::stop`] or a [`StopHandle`] — and has
    /// written the answers to the requests it had read, so a process that
    /// exits next does not cut one off.
    pub fn wait_stopped(&self) {
        let mut accept_thread = self
            .accept_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(thread) = accept_thread.take() {
            let _ = thread.join();
        }
        // A poll: it runs once, at the end of the server's life.
        while self.handle.0.answering.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops accepting and joins the accept thread; idempotent.
    pub fn stop(&self) {
        self.handle.stop();
        self.wait_stopped();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl StopHandle {
    /// Sets the server's stop flag and wakes its accept thread.
    pub fn stop(&self) {
        if !self.0.stopping.swap(true, Ordering::AcqRel) {
            // Unblock the blocking accept() with a throwaway connection.
            let _ = TcpStream::connect(self.0.addr);
        }
    }
}

/// A connection's slot, owned by its thread and handed back on drop.
struct Slot(Arc<Core>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One request being answered, from its read to its answer's write.
struct Answering<'a>(&'a AtomicUsize);

impl Drop for Answering<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop<H: Handler>(listener: &TcpListener, core: &Arc<Core>, handler: &Arc<H>, name: &str) {
    loop {
        let accepted = listener.accept();
        if core.stopping.load(Ordering::Acquire) {
            return;
        }
        let Ok((mut stream, _)) = accepted else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let slot = Slot(Arc::clone(core));
        if core.active.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
            let shed = Response::error(503, "server is saturated").with_header("retry-after", "1");
            handler.answered(&shed);
            shed.write_framed(&mut stream, false);
            continue;
        }
        let handler = Arc::clone(handler);
        let _ = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || serve_connection(stream, &slot, &*handler));
    }
}

fn serve_connection(mut stream: TcpStream, slot: &Slot, handler: &impl Handler) {
    // Keep-alive peers exchange small messages back to back; Nagle would
    // add delayed-ACK stalls between them.
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    loop {
        let outcome = read_next_request(&mut stream, &mut carry);
        // Counted from here: an idle keep-alive read owes no answer.
        slot.0.answering.fetch_add(1, Ordering::AcqRel);
        let _answering = Answering(&slot.0.answering);
        let (response, keep_alive) = match outcome {
            ReadOutcome::Disconnected => return,
            // Framing is unrecoverable after a malformed request.
            ReadOutcome::Malformed(e) => (Response::error(e.status, &e.message), false),
            // Only an explicit `Connection: keep-alive` keeps the stream,
            // not HTTP/1.1's implicit default: every in-repo client that
            // wants reuse says so.
            ReadOutcome::Request(request) => (
                handler.route(&request),
                request
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive")),
            ),
        };
        let keep_alive = keep_alive && !slot.0.stopping.load(Ordering::Acquire);
        handler.answered(&response);
        response.write_framed(&mut stream, keep_alive);
        if !keep_alive {
            return;
        }
    }
}

/// Canonical reason phrases for the statuses the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
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

    #[test]
    fn parse_head_accepts_basic_requests() {
        let r = parse_head("GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.query, None);
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));

        let r = parse_head("POST /v1/jobs?dry=1 HTTP/1.1\r\nContent-Length: 2").unwrap();
        assert_eq!(r.path, "/v1/jobs");
        assert_eq!(r.query.as_deref(), Some("dry=1"));
    }

    #[test]
    fn parse_head_rejects_malformed_lines() {
        for bad in [
            "",
            "GET",
            "GET /x",
            "get /x HTTP/1.1",
            "GET x HTTP/1.1",
            "GET /x HTTP/2.0",
            "GET /x HTTP/1.1 extra",
            "GET /x HTTP/1.1\r\nno-colon-header",
            "GET /x HTTP/1.1\r\nbad name: v",
            "GET /x HTTP/1.1\r\n: empty",
        ] {
            let e = parse_head(bad).unwrap_err();
            assert!((400..600).contains(&e.status), "{bad:?} -> {e:?}");
        }
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    /// [`read_request`] on a loopback stream whose peer wrote `raw` and
    /// half-closed.
    fn read_raw(raw: &[u8]) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.write_all(raw).unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        read_request(&mut listener.accept().unwrap().0)
    }

    #[test]
    fn content_length_must_be_digits_and_agree_with_its_duplicates() {
        // A `{}` body under the given headers: the body it frames, or the
        // status it is refused with.
        let framed = |headers: &str| match read_raw(
            format!("POST /x HTTP/1.1\r\n{headers}\r\n\r\n{{}}").as_bytes(),
        ) {
            ReadOutcome::Request(r) => Ok(r.body_str().unwrap().to_string()),
            ReadOutcome::Malformed(e) => Err(e.status),
            ReadOutcome::Disconnected => Err(0),
        };
        assert_eq!(framed("content-length: 2"), Ok("{}".into()));
        assert_eq!(
            framed("Content-Length: 2\r\ncontent-length: 2"),
            Ok("{}".into())
        );
        assert_eq!(framed("content-length: 1"), Ok("{".into()));
        for bad in [
            // Framed as 2 bytes, the other 38 would be the next request.
            "content-length: 2\r\ncontent-length: 40",
            "content-length: 40\r\ncontent-length: 2",
            "content-length: +2",
            "content-length: -2",
            "content-length: 0x2",
            "content-length: 2, 2",
            "content-length:",
            "content-length: 99999999999999999999999",
        ] {
            assert_eq!(framed(bad), Err(400), "{bad:?}");
        }
    }

    /// Stops its server, then takes 200 ms to answer and marks the answer
    /// built.
    struct SlowStop {
        stop: StopHandle,
        built: Arc<AtomicBool>,
    }

    impl Handler for SlowStop {
        fn route(&self, _: &Request) -> Response {
            self.stop.stop();
            std::thread::sleep(Duration::from_millis(200));
            self.built.store(true, Ordering::SeqCst);
            Response::text(202, "stopping")
        }
    }

    #[test]
    fn a_stopped_server_writes_the_answers_it_owes_before_it_is_done() {
        let built = Arc::new(AtomicBool::new(false));
        let server = Server::start("127.0.0.1:0", "slow-stop", |stop| {
            let built = Arc::clone(&built);
            Arc::new(SlowStop { stop, built })
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /stop HTTP/1.1\r\n\r\n").unwrap();
        // What a process exiting right after `wait_stopped` would cut off.
        server.wait_stopped();
        assert!(built.load(Ordering::SeqCst), "returned before the answer");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 202"), "{reply}");
    }

    /// Panics on `/panic`, answers 200 everywhere else.
    struct Panicky;

    impl Handler for Panicky {
        fn route(&self, request: &Request) -> Response {
            assert_ne!(request.path, "/panic", "the handler panics");
            Response::text(200, "ok")
        }
    }

    #[test]
    fn panicking_handlers_hand_their_connection_slots_back() {
        let server = Server::start("127.0.0.1:0", "panicky", |_| Arc::new(Panicky)).unwrap();
        let get = |path: &str| {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            let mut reply = String::new();
            let _ = stream.read_to_string(&mut reply);
            reply
        };
        // More panics than slots: a slot that leaked on unwind would leave
        // every later connection shed with a 503.
        for _ in 0..MAX_CONNECTIONS + 8 {
            assert_eq!(get("/panic"), "", "a panicked connection just closes");
        }
        for _ in 0..8 {
            let reply = get("/ok");
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        }
    }
}
