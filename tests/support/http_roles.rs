//! Wire checks every role served by `http::Server` must pass — the
//! correction service (`crates/serve/tests/service.rs`) and the fleet
//! worker (`crates/fleet/tests/fleet.rs`). Included with `#[path]`.

use cardopc_fleet::client;
use cardopc_fleet::http::MAX_CONNECTIONS;
use cardopc_geometry::SplitMix64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Throws hand-picked nasties covering each parser rejection path, then
/// seeded mutations of a valid `POST post` carrying `body`, at the server.
/// `get` is a `GET` route of the role. Every reply must be silence or a
/// well-formed HTTP status.
pub fn assert_malformed_requests_answered(addr: SocketAddr, post: &str, get: &str, body: &str) {
    let nasties: Vec<Vec<u8>> = vec![
        b"garbage\r\n\r\n".to_vec(),
        b"GET\r\n\r\n".to_vec(),
        format!("GET {get} HTTP/2.0\r\n\r\n").into_bytes(),
        format!("get {get} HTTP/1.1\r\n\r\n").into_bytes(),
        format!("GET {} HTTP/1.1\r\n\r\n", &get[1..]).into_bytes(),
        format!("POST {post} HTTP/1.1\r\ncontent-length: nope\r\n\r\n").into_bytes(),
        format!("POST {post} HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n").into_bytes(),
        format!("POST {post} HTTP/1.1\r\ncontent-length: +2\r\n\r\n{{}}").into_bytes(),
        format!("POST {post} HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 40\r\n\r\n{{}}")
            .into_bytes(),
        format!("POST {post} HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n").into_bytes(),
        [
            format!("POST {post} HTTP/1.1\r\ncontent-length: 7\r\n\r\n").as_bytes(),
            b"\xff\xfe\x00bad",
        ]
        .concat(),
        format!("GET {get} HTTP/1.1\r\nno-colon\r\n\r\n").into_bytes(),
        format!("POST {post} HTTP/1.1\r\ncontent-length: 2\r\n\r\n{{}}").into_bytes(),
        format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(20_000)).into_bytes(),
        // Deep nesting: a megabyte of '[' used to recurse once per byte
        // and overflow the connection thread's stack (a process abort,
        // not a panic); the parser's depth cap must answer 400 instead.
        deep_nesting_request(post, "[", 1_000_000),
        deep_nesting_request(post, "{\"k\":", 400_000),
    ];
    for raw in &nasties {
        let reply = client::send_raw(addr, raw).unwrap();
        assert_status_is_sane(&reply, raw);
    }

    // Deterministic random mutations of a valid request.
    let template = format!(
        "POST {post} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    let mut rng = SplitMix64::new(0xcafe);
    for _ in 0..48 {
        let mut mutated = template.clone();
        for _ in 0..(1 + rng.next_u64() % 8) {
            let kind = rng.next_u64() % 3;
            let at = (rng.next_u64() as usize) % mutated.len();
            match kind {
                0 => mutated[at] = (rng.next_u64() & 0xff) as u8,
                1 => mutated.truncate(at),
                _ => mutated.insert(at, (rng.next_u64() & 0xff) as u8),
            }
            if mutated.is_empty() {
                break;
            }
        }
        let reply = client::send_raw(addr, &mutated).unwrap();
        assert_status_is_sane(&reply, &mutated);
    }
}

/// A `POST post` whose body is `unit` repeated `times` — a pathologically
/// deep JSON document within the 4 MB body limit.
fn deep_nesting_request(post: &str, unit: &str, times: usize) -> Vec<u8> {
    let body = unit.repeat(times);
    format!(
        "POST {post} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A reply to garbage must be either silence (peer-level drop) or a
/// well-formed HTTP response; a mutated-but-still-valid request may
/// legitimately succeed, so any status is acceptable — it just has to BE
/// a status.
fn assert_status_is_sane(reply: &[u8], sent: &[u8]) {
    if reply.is_empty() {
        return;
    }
    let head = String::from_utf8_lossy(&reply[..reply.len().min(64)]).into_owned();
    assert!(
        head.starts_with("HTTP/1.1 "),
        "non-HTTP reply {head:?} to {:?}",
        String::from_utf8_lossy(&sent[..sent.len().min(80)])
    );
    let status: u16 = head["HTTP/1.1 ".len()..]
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .expect("numeric status");
    assert!((100..600).contains(&status), "status {status}");
}

/// Two keep-alive `GET /healthz` in one write on one stream: both are
/// answered, in order, without waiting for the stream's idle timeout.
pub fn assert_pipelined_requests_answered(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let one = "GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: keep-alive\r\n\r\n";
    stream.write_all(format!("{one}{one}").as_bytes()).unwrap();
    let mut received = Vec::new();
    let mut chunk = [0u8; 4096];
    while framed_statuses(&received).len() < 2 {
        let n = stream
            .read(&mut chunk)
            .expect("both pipelined requests answered within 5 s");
        assert!(n > 0, "closed after {:?}", framed_statuses(&received));
        received.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(framed_statuses(&received), [200, 200]);
}

/// Statuses of the complete `Content-Length`-framed responses `bytes`
/// starts with.
fn framed_statuses(mut bytes: &[u8]) -> Vec<u16> {
    let mut statuses = Vec::new();
    while let Some(end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
        let head = String::from_utf8_lossy(&bytes[..end]).to_ascii_lowercase();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("framed response");
        if bytes.len() < end + 4 + length {
            break;
        }
        statuses.push(head["http/1.1 ".len()..][..3].parse().unwrap());
        bytes = &bytes[end + 4 + length..];
    }
    statuses
}

/// With [`MAX_CONNECTIONS`] idle keep-alive connections held open, the
/// next request is shed with `503` + `Retry-After`; once one connection
/// is released, `/healthz` answers `200` again.
pub fn assert_sheds_at_saturation(addr: SocketAddr) {
    let timeout = Duration::from_secs(5);
    let mut held: Vec<client::Connection> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut conn = client::Connection::new(addr);
            let r = conn.request_with_timeout("GET", "/healthz", None, timeout);
            assert_eq!(r.unwrap().header("connection"), Some("keep-alive"));
            conn
        })
        .collect();
    let shed = client::get(addr, "/healthz").unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body_str());
    assert_eq!(shed.header("retry-after"), Some("1"));

    drop(held.pop());
    let deadline = Instant::now() + timeout;
    loop {
        let health = client::get(addr, "/healthz").unwrap();
        if health.status == 200 {
            break;
        }
        assert_eq!(health.status, 503, "{}", health.body_str());
        assert!(
            Instant::now() < deadline,
            "the released slot never came back"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
