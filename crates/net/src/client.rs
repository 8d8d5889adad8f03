//! The HTTP client backend: a [`sofya_endpoint::Endpoint`] that executes
//! over the wire.
//!
//! [`RemoteEndpoint`] renders each typed request to the wire format,
//! POSTs it to a [`crate::HttpServer`] (or anything speaking the same
//! protocol), and decodes the envelope back into the exact
//! [`Response`] / [`EndpointError`] local execution would produce — so
//! the whole middleware stack (caching, instrumentation, retry)
//! and the alignment pipeline compose over it unchanged.
//!
//! Connections are reused across requests (HTTP/1.1 keep-alive, one
//! pooled connection guarded by a mutex, kept together with its read
//! buffer). A send on a previously pooled connection that fails
//! mid-flight is retried once on a fresh dial — the server may have
//! expired the idle connection. Transport-level failures (connect/read
//! timeouts, refused or reset connections, mid-response disconnects)
//! surface as the typed, retryable [`EndpointError::Unavailable`] — the
//! class [`sofya_endpoint::RetryEndpoint`] backs off on and its circuit
//! breaker counts; only non-transport decode failures fall back to
//! [`EndpointError::Other`].
//!
//! Deadlines propagate: when executed with a budget carrying a
//! deadline, the client sends the *remaining* time as `X-Deadline-Ms`,
//! so the server enforces what is left of the caller's budget rather
//! than restarting its own clock.

use crate::http::{read_response, write_request, HttpResponse};
use crate::json::Json;
use crate::wire::{envelope_from_json, WireRequest};
use parking_lot::Mutex;
use sofya_endpoint::{Endpoint, EndpointError, Request, Response};
use sofya_sparql::QueryBudget;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client knobs.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Sent as the `X-Client` header: the server's quota and accounting
    /// key for this client.
    pub client_id: String,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout per HTTP round trip.
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
    /// The pooled connection inside its read buffer; requests are
    /// written through [`BufReader::get_mut`].
    conn: Mutex<Option<BufReader<TcpStream>>>,
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
        let response = self.roundtrip("GET", "/metrics", b"", None)?;
        if response.status != 200 {
            return Err(EndpointError::Other(format!(
                "metrics fetch failed with HTTP {}",
                response.status
            )));
        }
        String::from_utf8(response.body)
            .map_err(|e| EndpointError::Other(format!("non-UTF-8 metrics body: {e}")))
    }

    fn dial(&self) -> Result<BufReader<TcpStream>, EndpointError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| classify_io(format!("connect to {}", self.addr), &e))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.io_timeout));
        let _ = stream.set_write_timeout(Some(self.config.io_timeout));
        Ok(BufReader::new(stream))
    }

    /// One HTTP round trip with connection reuse: take the pooled
    /// connection (or dial), send, receive, and pool the connection
    /// again on success. A failure on a *reused* connection gets one
    /// retry on a fresh dial; a failure on a fresh connection surfaces.
    fn roundtrip(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        deadline_ms: Option<u64>,
    ) -> Result<HttpResponse, EndpointError> {
        let mut pooled = self.conn.lock();
        let (mut conn, was_pooled) = match pooled.take() {
            Some(conn) => (conn, true),
            None => (self.dial()?, false),
        };
        let first = match self.send_recv(&mut conn, method, path, body, deadline_ms) {
            Ok(response) => {
                *pooled = Some(conn);
                return Ok(response);
            }
            Err(first) if !was_pooled => return Err(classify_io("http round trip", &first)),
            Err(first) => first,
        };
        // The pooled connection may have been closed server-side while
        // idle; retry exactly once on a fresh dial.
        let mut conn = self.dial()?;
        match self.send_recv(&mut conn, method, path, body, deadline_ms) {
            Ok(response) => {
                *pooled = Some(conn);
                Ok(response)
            }
            Err(second) => Err(classify_io(
                format!("http round trip failed twice: {first}; then"),
                &second,
            )),
        }
    }

    fn send_recv(
        &self,
        conn: &mut BufReader<TcpStream>,
        method: &str,
        path: &str,
        body: &[u8],
        deadline_ms: Option<u64>,
    ) -> std::io::Result<HttpResponse> {
        let deadline_value;
        let mut headers = vec![
            ("Host", "sofya"),
            ("X-Client", self.config.client_id.as_str()),
            ("Content-Type", "application/json"),
        ];
        if let Some(ms) = deadline_ms {
            deadline_value = ms.to_string();
            headers.push(("X-Deadline-Ms", &deadline_value));
        }
        write_request(conn.get_mut(), method, path, &headers, body)?;
        read_response(conn)
    }
}

/// Classifies a transport-level I/O failure: timeouts, refused, reset,
/// or torn-down connections are the retryable
/// [`EndpointError::Unavailable`] class (the circuit breaker counts
/// them); anything else — notably `InvalidData` from a malformed frame
/// — stays opaque.
fn classify_io(context: impl std::fmt::Display, error: &std::io::Error) -> EndpointError {
    use std::io::ErrorKind;
    match error.kind() {
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
    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        // Refused before anything is sent: no time has been spent on it.
        budget.check_expired()?;
        let deadline_ms = budget.remaining_time().map(|left| {
            // Round down, but never announce 0 for a still-live budget
            // (0 means "already expired" server-side).
            (left.as_millis() as u64).max(1)
        });
        let wire = WireRequest::from_request(&req)?;
        let mut body = wire.to_json().to_text();
        body.push('\n');
        let response = self.roundtrip("POST", "/query", body.as_bytes(), deadline_ms)?;
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

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

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
            let got = classify_io("ctx", &Error::new(kind, "boom"));
            assert!(
                matches!(got, EndpointError::Unavailable { .. }),
                "{kind:?} must be retryable, got {got:?}"
            );
        }
    }

    #[test]
    fn non_transport_failures_stay_opaque() {
        for kind in [ErrorKind::InvalidData, ErrorKind::PermissionDenied] {
            let got = classify_io("ctx", &Error::new(kind, "boom"));
            assert!(
                matches!(got, EndpointError::Other(_)),
                "{kind:?} is not transport flakiness, got {got:?}"
            );
        }
    }
}
