//! Adversarial HTTP framing: whatever bytes arrive, the parser must
//! return a clean error (or a clean EOF) — never panic, hang, or
//! over-allocate — and a live server fed garbage must answer `400` or
//! close the connection, then keep serving well-formed traffic.

use proptest::prelude::*;
use sofya_endpoint::{EndpointExt, LocalEndpoint};
use sofya_net::http::{read_request, read_response, write_request, MAX_BODY_BYTES};
use sofya_net::{HttpServer, Json, RemoteEndpoint, ServerConfig};
use sofya_rdf::{Term, TripleStore};
use std::io::{BufReader, Read, Write};
use std::sync::Arc;

/// Hands out at most `chunk` bytes per `read` call, simulating a peer
/// whose request line and headers straddle arbitrary TCP segment
/// boundaries.
struct Drip<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Drip<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn parse(bytes: &[u8]) -> std::io::Result<Option<sofya_net::http::HttpRequest>> {
    read_request(&mut BufReader::new(bytes))
}

fn valid_request(path: &str, client: &str, body: &[u8]) -> Vec<u8> {
    let mut buffer = Vec::new();
    write_request(
        &mut buffer,
        "POST",
        path,
        &[("X-Client", client), ("Content-Type", "application/json")],
        body,
    )
    .unwrap();
    buffer
}

#[test]
fn every_truncation_of_a_valid_request_fails_cleanly() {
    let message = valid_request(
        "/query",
        "tester",
        b"{\"op\":\"ask\",\"query\":\"ASK {}\"}\n",
    );
    for cut in 0..message.len() {
        match parse(&message[..cut]) {
            // Cut before the first byte: a clean keep-alive close.
            Ok(None) => assert_eq!(cut, 0, "mid-message truncation at {cut} read as clean EOF"),
            Ok(Some(_)) => panic!("truncation at {cut} of {} parsed fully", message.len()),
            Err(_) => {} // clean error — what a server turns into 400/close
        }
    }
}

#[test]
fn oversized_headers_and_bodies_are_bounded() {
    // A request line that never ends must exhaust the header budget,
    // not memory.
    let mut endless = b"POST /".to_vec();
    endless.extend(std::iter::repeat_n(b'a', 80 * 1024));
    assert!(parse(&endless).is_err());
    // An enormous announced body is rejected before allocation.
    let huge = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES as u64 + 1
    );
    assert!(parse(huge.as_bytes()).is_err());
    // Content-Length that isn't a number at all.
    let nan = "POST /query HTTP/1.1\r\nContent-Length: over9000\r\n\r\n";
    assert!(parse(nan.as_bytes()).is_err());
    // Non-UTF-8 header bytes are rejected, not lossily accepted.
    let mut binary = b"POST /query HTTP/1.1\r\nX-Junk: ".to_vec();
    binary.extend([0xFF, 0xFE, 0x80]);
    binary.extend(b"\r\n\r\n");
    assert!(parse(&binary).is_err());
}

proptest! {
    /// A valid request parses identically no matter how the bytes are
    /// chopped across reads.
    #[test]
    fn split_across_reads_parses_identically(
        chunk in 1usize..40,
        client in "[a-z]{1,8}",
        body in "[ -~]{0,64}",
    ) {
        let message = valid_request("/query", &client, body.as_bytes());
        let drip = Drip { data: &message, pos: 0, chunk };
        let request = read_request(&mut BufReader::new(drip))
            .expect("dripped request parses")
            .expect("one request");
        prop_assert_eq!(request.method.as_str(), "POST");
        prop_assert_eq!(request.header("x-client"), Some(client.as_str()));
        prop_assert_eq!(&request.body[..], body.as_bytes());
    }

    /// Arbitrary garbage never panics the parser, and a truncated
    /// Content-Length body is always an error, not a short read. Nor
    /// does a body of nothing but openers, however deep: the JSON parser
    /// refuses it at its nesting cap instead of recursing to the end.
    #[test]
    fn garbage_never_panics(
        garbage in proptest::collection::vec(0u8..=255, 0..200),
        chunk in 1usize..16,
        opener in 0usize..4,
        depth in 0usize..200_000,
    ) {
        let opener = ["[", "{\"k\":", "[{\"requests\":", " [\n"][opener];
        let drip = Drip { data: &garbage, pos: 0, chunk };
        let _ = read_request(&mut BufReader::new(drip)); // any Ok/Err, no panic
        let _ = Json::parse(&String::from_utf8_lossy(&garbage));
        let nested = Json::parse(&opener.repeat(depth));
        prop_assert!(nested.is_err(), "{depth} unclosed {opener:?} parsed");
    }

    #[test]
    fn truncated_bodies_error_out(
        announced in 1usize..512,
        sent in 0usize..256,
        chunk in 1usize..16,
    ) {
        // Announce more body bytes than we send.
        let shortfall = sent.min(announced.saturating_sub(1));
        let mut message =
            format!("POST /query HTTP/1.1\r\nContent-Length: {announced}\r\n\r\n").into_bytes();
        message.extend(std::iter::repeat_n(b'x', shortfall));
        let drip = Drip { data: &message, pos: 0, chunk };
        prop_assert!(read_request(&mut BufReader::new(drip)).is_err());
    }
}

/// A live server fed malformed framing answers `400` or closes — and
/// the next, well-formed request on a fresh connection still succeeds.
#[test]
fn live_server_survives_malformed_clients() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let server = HttpServer::start(
        Arc::new(LocalEndpoint::new("kb", store)),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();

    let attacks: &[&[u8]] = &[
        b"\r\n\r\n",
        b"NOT HTTP AT ALL\r\n\r\n",
        b"GET / SPDY/9\r\n\r\n",
        b"POST /query HTTP/1.1\r\nbroken header line\r\n\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: oops\r\n\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort",
        b"POST /query HTTP/1.1\r\nX-Junk: \xFF\xFE\r\n\r\n",
    ];
    let reply_to = |attack: &[u8]| {
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        conn.write_all(attack).unwrap();
        // Signal we're done writing so a body-starved read sees EOF
        // instead of waiting out the poll loop.
        let _ = conn.shutdown(std::net::Shutdown::Write);
        let mut reply = Vec::new();
        conn.take(4096).read_to_end(&mut reply).expect("no hang");
        String::from_utf8_lossy(&reply).into_owned()
    };
    for attack in attacks {
        let reply = reply_to(attack);
        assert!(
            reply.is_empty() || reply.starts_with("HTTP/1.1 400"),
            "malformed input answered with: {reply}"
        );
    }
    // Well-formed HTTP around a body that is all openers: without a
    // nesting cap, parsing it recurses once per byte and takes the whole
    // process down with the connection thread's stack.
    let reply = reply_to(&valid_request("/query", "attacker", &vec![b'['; 1 << 20]));
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("\"kind\":\"other\""), "{reply}");
    assert!(reply.contains("nesting deeper than 64"), "{reply}");

    // The server is unharmed.
    let remote = RemoteEndpoint::new("kb", addr);
    assert!(remote.ask("ASK { <e:s> <e:p> <e:o> }").unwrap());
    server.shutdown();
}

/// A client that pauses between the head and the body for longer than
/// the server's idle poll is slow, not malformed: the request is
/// answered, and the connection stays usable.
#[test]
fn a_pause_inside_a_request_is_waited_out() {
    let mut store = TripleStore::new();
    store.insert_terms(&Term::iri("e:s"), &Term::iri("e:p"), &Term::iri("e:o"));
    let config = ServerConfig::default();
    let pause = config.poll_interval * 3;
    let server = HttpServer::start(
        Arc::new(LocalEndpoint::new("kb", store)),
        config,
        "127.0.0.1:0",
    )
    .expect("bind loopback");

    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let message = valid_request(
        "/query",
        "slow",
        b"{\"op\":\"ask\",\"query\":\"ASK { <e:s> <e:p> <e:o> }\"}\n",
    );
    let body_at = message.len() - 20;
    // Pause after the head and again inside the body; then once more
    // with no pause, on the same connection.
    for cuts in [vec![body_at - 30, body_at], vec![]] {
        let mut sent = 0;
        for cut in cuts {
            conn.write_all(&message[sent..cut]).unwrap();
            sent = cut;
            std::thread::sleep(pause);
        }
        conn.write_all(&message[sent..]).unwrap();
        let response = read_response(&mut reader).expect("answered, not disconnected");
        assert_eq!(response.status, 200);
        assert_eq!(
            String::from_utf8_lossy(&response.body),
            "{\"ok\":true,\"response\":{\"type\":\"boolean\",\"value\":true}}\n"
        );
    }
    server.shutdown();
}
