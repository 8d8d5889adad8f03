//! The HTTP client backend: a [`sofya_endpoint::Endpoint`] that executes
//! over the wire.
//!
//! [`RemoteEndpoint`] renders each typed request to the wire format,
//! POSTs it to a [`crate::HttpServer`] (or anything speaking the same
//! protocol), and decodes the envelope back into the exact
//! [`Response`] / [`EndpointError`] local execution would produce — so
//! [`sofya_endpoint::InstrumentedEndpoint`] and the alignment pipeline
//! compose over it unchanged.
//!
//! Connections are reused across requests (HTTP/1.1 keep-alive, one
//! pooled connection guarded by a mutex, kept together with its read
//! buffer). A send on a previously pooled connection that fails
//! mid-flight is sent once more on a fresh dial — the server may have
//! expired the idle connection. Transport-level failures (connect/read
//! timeouts, refused or reset connections, mid-response disconnects)
//! surface as the typed [`EndpointError::Unavailable`] without a hint;
//! only non-transport decode failures fall back to
//! [`EndpointError::Other`].
//!
//! A busy server's admission refuses a job with a `503` and a hint
//! before the job runs; the client reads the hint from the envelope's
//! exact `retry_after_ms` (its `Retry-After` header rounds it up to
//! whole seconds for foreign clients), waits the hint out, with the
//! connection lock released, and sends again — a bounded number of
//! times, and only while the caller's deadline leaves more than the
//! hint. Every other failure reaches the caller at once.
//!
//! Deadlines propagate: each send carries the budget's *remaining* time
//! as `X-Deadline-Ms`, so the server enforces what is left of the
//! caller's budget rather than restarting its own clock; the same
//! remainder, plus a grace, caps the socket timeouts, so a hung peer
//! costs a budgeted call its deadline, not the configured I/O timeout.

use crate::http::{read_response, write_request, HttpResponse};
use crate::json::Json;
use crate::wire::{envelope_from_json, WireRequest};
use parking_lot::Mutex;
use sofya_endpoint::{Endpoint, EndpointError, Request, Response};
use sofya_sparql::QueryBudget;
use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How many times one call sends a request again after a busy server's
/// hinted `503`, before that refusal reaches the caller.
const MAX_HINTED_RESENDS: u32 = 3;

/// How long past the caller's deadline a budgeted send still waits on
/// its socket. The server kills the query at the deadline and answers
/// `504`; this is the room that answer has to arrive in first.
const DEADLINE_GRACE: Duration = Duration::from_secs(1);

/// Client knobs.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Sent as the `X-Client` header: the server's quota and accounting
    /// key for this client.
    pub client_id: String,
    /// TCP connect timeout; a budgeted call's deadline may cut it short.
    pub connect_timeout: Duration,
    /// Read/write timeout per HTTP round trip; likewise.
    pub io_timeout: Duration,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        Self {
            client_id: "sofya".to_owned(),
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// An endpoint backed by a remote HTTP server.
#[derive(Debug)]
pub struct RemoteEndpoint {
    name: String,
    addr: SocketAddr,
    config: RemoteConfig,
    conn: Mutex<Option<Conn>>,
}

/// The pooled connection.
#[derive(Debug)]
struct Conn {
    /// The socket inside its read buffer; requests are written through
    /// [`BufReader::get_mut`].
    stream: BufReader<TcpStream>,
    /// The socket's read/write timeout; zero (no socket takes it) until set.
    timeout: Duration,
}

impl RemoteEndpoint {
    /// Creates a client for the server at `addr` with default knobs.
    /// Dials lazily on the first request.
    pub fn new(name: impl Into<String>, addr: SocketAddr) -> Self {
        Self::with_config(name, addr, RemoteConfig::default())
    }

    /// Creates a client with explicit timeouts and client id.
    pub fn with_config(name: impl Into<String>, addr: SocketAddr, config: RemoteConfig) -> Self {
        Self {
            name: name.into(),
            addr,
            config,
            conn: Mutex::new(None),
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fetches the server's `GET /metrics` report as raw JSON text.
    pub fn fetch_metrics(&self) -> Result<String, EndpointError> {
        let response = self.roundtrip("GET", "/metrics", b"", &QueryBudget::unlimited())?;
        if response.status != 200 {
            return Err(EndpointError::Other(format!(
                "metrics fetch failed with HTTP {}",
                response.status
            )));
        }
        String::from_utf8(response.body)
            .map_err(|e| EndpointError::Other(format!("non-UTF-8 metrics body: {e}")))
    }

    fn dial(&self, budget: &QueryBudget) -> Result<Conn, EndpointError> {
        let timeout = capped(self.config.connect_timeout, budget);
        let stream = TcpStream::connect_timeout(&self.addr, timeout)
            .map_err(|e| classify_io(format!("connect to {}", self.addr), &e, budget, timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream: BufReader::new(stream),
            timeout: Duration::ZERO,
        })
    }

    /// One HTTP round trip with connection reuse: take the pooled
    /// connection (or dial), send, receive, and pool the connection
    /// again on success. A failure on a *reused* connection gets one
    /// more send on a fresh dial, with what is left of the deadline; a
    /// failure on a fresh connection surfaces.
    fn roundtrip(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        budget: &QueryBudget,
    ) -> Result<HttpResponse, EndpointError> {
        let mut pooled = self.conn.lock();
        let mut reused = pooled.take();
        loop {
            let was_pooled = reused.is_some();
            let mut conn = match reused.take() {
                Some(conn) => conn,
                None => self.dial(budget)?,
            };
            match self.send_recv(&mut conn, method, path, body, budget) {
                Ok(response) => {
                    *pooled = Some(conn);
                    return Ok(response);
                }
                // The pooled connection may have been closed server-side
                // while idle; send exactly once more on a fresh dial.
                Err(_) if was_pooled => budget.check_expired()?,
                Err(e) => return Err(classify_io("http round trip", &e, budget, conn.timeout)),
            }
        }
    }

    /// One send and receive on `conn`. The socket timeout and the
    /// `X-Deadline-Ms` header are both taken from the budget as it
    /// stands now, so a second send carries only what the first left.
    fn send_recv(
        &self,
        conn: &mut Conn,
        method: &str,
        path: &str,
        body: &[u8],
        budget: &QueryBudget,
    ) -> std::io::Result<HttpResponse> {
        let timeout = capped(self.config.io_timeout, budget);
        if conn.timeout != timeout {
            conn.stream.get_ref().set_read_timeout(Some(timeout))?;
            conn.stream.get_ref().set_write_timeout(Some(timeout))?;
            conn.timeout = timeout;
        }
        let deadline_value;
        let mut headers = vec![
            ("Host", "sofya"),
            ("X-Client", self.config.client_id.as_str()),
            ("Content-Type", "application/json"),
        ];
        if let Some(left) = budget.remaining_time() {
            // Round down, but never announce 0 for a still-live budget
            // (0 means "already expired" server-side).
            deadline_value = (left.as_millis() as u64).max(1).to_string();
            headers.push(("X-Deadline-Ms", &deadline_value));
        }
        write_request(conn.stream.get_mut(), method, path, &headers, body)?;
        read_response(&mut conn.stream)
    }

    /// One `POST /query` exchange, decoded as local execution answers.
    fn exchange(&self, body: &[u8], budget: &QueryBudget) -> Result<Response, EndpointError> {
        let response = self.roundtrip("POST", "/query", body, budget)?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|e| EndpointError::Other(format!("non-UTF-8 response body: {e}")))?;
        let json = Json::parse(text.trim_end_matches('\n'))
            .map_err(|e| EndpointError::Other(format!("bad response JSON: {e}")))?;
        match envelope_from_json(&json) {
            Ok(result) => result,
            Err(e) => Err(EndpointError::Other(format!(
                "HTTP {} with undecodable envelope: {e}",
                response.status
            ))),
        }
    }
}

/// `configured`, capped for a budgeted call at what is left of its
/// deadline plus [`DEADLINE_GRACE`].
fn capped(configured: Duration, budget: &QueryBudget) -> Duration {
    budget
        .remaining_time()
        .map_or(configured, |left| configured.min(left + DEADLINE_GRACE))
}

/// Classifies a transport-level I/O failure after a socket wait of up
/// to `waited`: a timeout that fires once the caller's deadline has
/// passed is that deadline's kill; other timeouts, refused, reset, or
/// torn-down connections are the unhinted [`EndpointError::Unavailable`]
/// class; anything else — notably `InvalidData` from a malformed frame
/// — stays opaque.
fn classify_io(
    context: impl std::fmt::Display,
    error: &std::io::Error,
    budget: &QueryBudget,
    waited: Duration,
) -> EndpointError {
    match error.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock
            if budget.remaining_time() == Some(Duration::ZERO) =>
        {
            EndpointError::DeadlineExceeded { elapsed: waited }
        }
        ErrorKind::TimedOut
        | ErrorKind::WouldBlock
        | ErrorKind::ConnectionRefused
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected
        | ErrorKind::UnexpectedEof => EndpointError::Unavailable {
            message: format!("{context}: {error}"),
            retry_after: None,
        },
        _ => EndpointError::Other(format!("{context}: {error}")),
    }
}

impl Endpoint for RemoteEndpoint {
    /// The remaining time of the caller's budget travels as
    /// `X-Deadline-Ms`; an already-expired or cancelled budget fails
    /// locally without spending a round trip. Scan/binding caps are
    /// enforced by the *server's* configuration — they do not travel.
    /// A busy server's hinted `503` is waited out and the request sent
    /// again, while the budget leaves more than the hint.
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        let wire = WireRequest::from_request(&req)?;
        let mut body = wire.to_json().to_text();
        body.push('\n');
        let mut resends = 0;
        loop {
            // Refused before anything is sent: no time has been spent on it.
            budget.check_expired()?;
            match self.exchange(body.as_bytes(), budget) {
                // Admission refused the job, so it never ran: safe to
                // send again once the hint has passed.
                Err(EndpointError::Unavailable {
                    retry_after: Some(hint),
                    ..
                }) if resends < MAX_HINTED_RESENDS
                    && budget.remaining_time().is_none_or(|left| left > hint) =>
                {
                    std::thread::sleep(hint);
                    resends += 1;
                }
                result => return result,
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    fn unlimited() -> QueryBudget {
        QueryBudget::unlimited()
    }

    #[test]
    fn transport_failures_classify_as_unavailable() {
        for kind in [
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::BrokenPipe,
            ErrorKind::NotConnected,
            ErrorKind::UnexpectedEof,
        ] {
            let got = classify_io(
                "ctx",
                &Error::new(kind, "boom"),
                &unlimited(),
                Duration::ZERO,
            );
            assert!(
                matches!(got, EndpointError::Unavailable { .. }),
                "{kind:?} is a transport failure, got {got:?}"
            );
        }
    }

    #[test]
    fn non_transport_failures_stay_opaque() {
        for kind in [ErrorKind::InvalidData, ErrorKind::PermissionDenied] {
            let got = classify_io(
                "ctx",
                &Error::new(kind, "boom"),
                &unlimited(),
                Duration::ZERO,
            );
            assert!(
                matches!(got, EndpointError::Other(_)),
                "{kind:?} is not transport flakiness, got {got:?}"
            );
        }
    }

    /// Only a timeout past the caller's deadline is the deadline's kill:
    /// before it, or without a deadline, a timeout is a transport failure,
    /// and a reset is one whatever the deadline.
    #[test]
    fn a_timeout_past_the_deadline_is_the_deadlines_kill() {
        let spent = QueryBudget::unlimited().with_time_limit(Duration::ZERO);
        let live = QueryBudget::unlimited().with_time_limit(Duration::from_secs(60));
        let waited = Duration::from_millis(1200);
        for kind in [ErrorKind::TimedOut, ErrorKind::WouldBlock] {
            let timeout = Error::new(kind, "boom");
            assert_eq!(
                classify_io("ctx", &timeout, &spent, waited),
                EndpointError::DeadlineExceeded { elapsed: waited }
            );
            for budget in [&live, &unlimited()] {
                let got = classify_io("ctx", &timeout, budget, waited);
                assert!(matches!(got, EndpointError::Unavailable { .. }), "{got:?}");
            }
        }
        let reset = Error::new(ErrorKind::ConnectionReset, "boom");
        let got = classify_io("ctx", &reset, &spent, waited);
        assert!(matches!(got, EndpointError::Unavailable { .. }), "{got:?}");
    }
}
