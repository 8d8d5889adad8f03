//! The wire format: typed requests and responses as line-delimited JSON.
//!
//! A [`sofya_endpoint::Request`] crosses the wire as a [`WireRequest`]:
//! every non-batch shape is rendered to its SPARQL text client-side (via
//! [`Request::to_sparql`]), tagged with its response shape (`select` /
//! `ask`), and batches nest structurally. A table is a `select` of the
//! one query it renders to, its rows inline; the client splits the
//! answer (see [`crate::RemoteEndpoint`]). Prepared templates therefore
//! never travel — the server sees plain SPARQL, and the response tree a
//! remote client observes is **bit-identical** to local execution.
//!
//! `count` is one more wire op, for foreign clients: a single-cell
//! aggregate `SELECT` answered as a bare [`Response::Count`]. Our client
//! never sends it — a count is a `select` whose one cell it reads.
//!
//! Encoding is one JSON document per message, terminated by `\n` (the
//! HTTP body of one request/response is exactly one line). All encoders
//! are deterministic: same message, same bytes.
//!
//! Two codecs produce and accept those bytes. The **one-pass** codec
//! serves `/query`: [`WireRequest::write`] and [`write_envelope`] append
//! a message straight to a `String`, and [`WireRequest::parse`] and
//! [`parse_envelope`] pull one straight out of the text into
//! [`WireRequest`] / [`Response`] values — one `String` per term, each
//! row sized from `vars` — with no [`Json`] tree in between. They take
//! members in any order and any whitespace, as a foreign peer may send
//! them. The **tree** codec (`*_to_json` / `*_from_json`, through
//! [`Json`]) is the reference: the wire tests hold the one-pass text to
//! its bytes and the one-pass decoders to its verdicts, and the
//! benchmark's stage replay still times it.
//!
//! A batch nests at most [`MAX_BATCH_DEPTH`] levels: both one-pass
//! decoders refuse deeper ones, so a request the server accepts has an
//! answer the client (and the tree parser) accepts.

use crate::json::{write_json_string, Json, Parser, Scalar, MAX_NESTING};
use sofya_endpoint::{EndpointError, Request, Response};
use sofya_rdf::Term;
use sofya_sparql::{QueryBudget, ResultSet, SparqlError};
use std::fmt::Write as _;

/// The deepest batch nesting the one-pass decoders accept: the deepest
/// whose answer — two containers per batch level plus five from the
/// envelope down to a term — [`Json::parse`]'s nesting cap still reads.
pub const MAX_BATCH_DEPTH: usize = (MAX_NESTING - 5) / 2;

/// A request as it travels: SPARQL text plus the expected response
/// shape. Batches nest, mirroring [`Request::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// A `SELECT`, answered with rows.
    Select(String),
    /// An `ASK`, answered with a boolean.
    Ask(String),
    /// A single-cell aggregate `SELECT`, answered with a bare count.
    /// Decoded and served, never produced by [`WireRequest::from_request`].
    Count(String),
    /// A request set executed as one unit (one scheduler job, one
    /// snapshot pin server-side).
    Batch(Vec<WireRequest>),
}

/// Errors while encoding or decoding wire messages.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire format error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for EndpointError {
    fn from(e: WireError) -> Self {
        EndpointError::Other(e.to_string())
    }
}

impl WireRequest {
    /// Lowers a typed request into its wire form, rendering every
    /// non-batch shape to SPARQL text.
    pub fn from_request(req: &Request<'_>) -> Result<WireRequest, EndpointError> {
        Ok(match req {
            Request::Batch(subs) => WireRequest::Batch(
                subs.iter()
                    .map(WireRequest::from_request)
                    .collect::<Result<_, _>>()?,
            ),
            Request::Ask { .. } | Request::PreparedAsk { .. } => WireRequest::Ask(req.to_sparql()?),
            _ => WireRequest::Select(req.to_sparql()?),
        })
    }

    /// The request the server executes, borrowing this one's text:
    /// `count` runs as the `SELECT` it carries (one execution for the
    /// whole tree — a batch stays a single [`Request::Batch`], so one
    /// snapshot pin); [`reshape`] converts the aggregate row to a
    /// [`Response::Count`] afterwards.
    pub fn as_request(&self) -> Request<'_> {
        match self {
            WireRequest::Select(query) | WireRequest::Count(query) => Request::Select { query },
            WireRequest::Ask(query) => Request::Ask { query },
            WireRequest::Batch(subs) => {
                Request::Batch(subs.iter().map(WireRequest::as_request).collect())
            }
        }
    }

    /// Encodes to a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            WireRequest::Select(q) => {
                Json::obj([("op", Json::str("select")), ("query", Json::str(q))])
            }
            WireRequest::Ask(q) => Json::obj([("op", Json::str("ask")), ("query", Json::str(q))]),
            WireRequest::Count(q) => {
                Json::obj([("op", Json::str("count")), ("query", Json::str(q))])
            }
            WireRequest::Batch(subs) => Json::obj([
                ("op", Json::str("batch")),
                (
                    "requests",
                    Json::Arr(subs.iter().map(WireRequest::to_json).collect()),
                ),
            ]),
        }
    }

    /// Decodes from a JSON value.
    pub fn from_json(json: &Json) -> Result<WireRequest, WireError> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError("request missing \"op\"".to_owned()))?;
        let query = || {
            json.get("query")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| WireError(format!("{op} request missing \"query\"")))
        };
        match op {
            "select" => Ok(WireRequest::Select(query()?)),
            "ask" => Ok(WireRequest::Ask(query()?)),
            "count" => Ok(WireRequest::Count(query()?)),
            "batch" => {
                let subs = json
                    .get("requests")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError("batch request missing \"requests\"".to_owned()))?;
                Ok(WireRequest::Batch(
                    subs.iter()
                        .map(WireRequest::from_json)
                        .collect::<Result<_, _>>()?,
                ))
            }
            other => Err(WireError(format!("unknown request op {other:?}"))),
        }
    }
}

/// Restores the typed response shape after server-side execution: a
/// `count` leaf executed as its aggregate `SELECT` comes back as one row
/// of one integer, which this converts to [`Response::Count`]; batches
/// recurse positionally. Select and ask leaves pass through untouched.
pub fn reshape(wire: &WireRequest, response: Response) -> Result<Response, EndpointError> {
    match (wire, response) {
        // The text of a `count` leaf is the client's: any single-cell
        // `SELECT` gets here, so the cell may be no integer, or a
        // negative one that must not wrap into a huge count.
        (WireRequest::Count(_), Response::Rows(rows)) => rows
            .single_integer()
            .and_then(|n| u64::try_from(n).ok())
            .map(Response::Count)
            .ok_or_else(|| {
                EndpointError::Other("count query returned a non-aggregate result".to_owned())
            }),
        (WireRequest::Batch(subs), Response::Batch(responses)) => {
            if subs.len() != responses.len() {
                return Err(EndpointError::Other(format!(
                    "batch arity mismatch: {} requests, {} responses",
                    subs.len(),
                    responses.len()
                )));
            }
            Ok(Response::Batch(
                subs.iter()
                    .zip(responses)
                    .map(|(sub, resp)| reshape(sub, resp))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (_, response) => Ok(response),
    }
}

/// Executes one wire request against an endpoint under a
/// [`QueryBudget`]: a single call for the whole tree — so a deadline,
/// scan cap, or cancel token bounds server-side work for the request as
/// a unit — then [`reshape`].
pub fn execute_wire_budgeted(
    ep: &dyn sofya_endpoint::Endpoint,
    wire: &WireRequest,
    budget: &QueryBudget,
) -> Result<Response, EndpointError> {
    let response = ep.execute_with_budget(wire.as_request(), budget)?;
    reshape(wire, response)
}

/// Encodes one RDF term in the wire term encoding
/// (`{"t":"iri"|"lit"|"bnode","v":…}` plus optional `lang`/`dt`).
pub fn term_to_json(term: &Term) -> Json {
    match term {
        Term::Iri(value) => Json::obj([("t", Json::str("iri")), ("v", Json::str(value))]),
        Term::Literal {
            lexical,
            lang,
            datatype,
        } => {
            let mut pairs = vec![("t", Json::str("lit")), ("v", Json::str(lexical))];
            if let Some(lang) = lang {
                pairs.push(("lang", Json::str(lang)));
            }
            if let Some(datatype) = datatype {
                pairs.push(("dt", Json::str(datatype)));
            }
            Json::obj(pairs)
        }
        Term::BNode(label) => Json::obj([("t", Json::str("bnode")), ("v", Json::str(label))]),
    }
}

/// Decodes one RDF term from the wire term encoding.
pub fn term_from_json(json: &Json) -> Result<Term, WireError> {
    let tag = json
        .get("t")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError("term missing \"t\"".to_owned()))?;
    let value = json
        .get("v")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError("term missing \"v\"".to_owned()))?;
    match tag {
        "iri" => Ok(Term::Iri(value.to_owned())),
        "bnode" => Ok(Term::BNode(value.to_owned())),
        "lit" => Ok(Term::Literal {
            lexical: value.to_owned(),
            lang: json.get("lang").and_then(Json::as_str).map(str::to_owned),
            datatype: json.get("dt").and_then(Json::as_str).map(str::to_owned),
        }),
        other => Err(WireError(format!("unknown term tag {other:?}"))),
    }
}

/// Encodes a response to a JSON value.
pub fn response_to_json(response: &Response) -> Json {
    match response {
        Response::Rows(rows) => Json::obj([
            ("type", Json::str("rows")),
            (
                "vars",
                Json::Arr(rows.vars().iter().map(Json::str).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    rows.rows()
                        .iter()
                        .map(|row| {
                            Json::Arr(
                                row.iter()
                                    .map(|cell| match cell {
                                        Some(term) => term_to_json(term),
                                        None => Json::Null,
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Boolean(b) => {
            Json::obj([("type", Json::str("boolean")), ("value", Json::Bool(*b))])
        }
        Response::Count(n) => Json::obj([("type", Json::str("count")), ("value", Json::Uint(*n))]),
        Response::Batch(responses) => Json::obj([
            ("type", Json::str("batch")),
            (
                "responses",
                Json::Arr(responses.iter().map(response_to_json).collect()),
            ),
        ]),
    }
}

/// Decodes a response from a JSON value.
pub fn response_from_json(json: &Json) -> Result<Response, WireError> {
    let kind = json
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError("response missing \"type\"".to_owned()))?;
    match kind {
        "rows" => {
            let vars: Vec<String> = json
                .get("vars")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError("rows response missing \"vars\"".to_owned()))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| WireError("non-string var name".to_owned()))
                })
                .collect::<Result<_, _>>()?;
            let rows: Vec<Vec<Option<Term>>> = json
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError("rows response missing \"rows\"".to_owned()))?
                .iter()
                .map(|row| {
                    let cells = row
                        .as_arr()
                        .ok_or_else(|| WireError("row is not an array".to_owned()))?;
                    if cells.len() != vars.len() {
                        return Err(WireError(format!(
                            "row width {} does not match {} vars",
                            cells.len(),
                            vars.len()
                        )));
                    }
                    cells
                        .iter()
                        .map(|cell| match cell {
                            Json::Null => Ok(None),
                            term => term_from_json(term).map(Some),
                        })
                        .collect()
                })
                .collect::<Result<_, _>>()?;
            Ok(Response::Rows(ResultSet::new(vars, rows)))
        }
        "boolean" => Ok(Response::Boolean(
            json.get("value")
                .and_then(Json::as_bool)
                .ok_or_else(|| WireError("boolean response missing \"value\"".to_owned()))?,
        )),
        "count" => Ok(Response::Count(
            json.get("value")
                .and_then(Json::as_uint)
                .ok_or_else(|| WireError("count response missing \"value\"".to_owned()))?,
        )),
        "batch" => {
            let responses = json
                .get("responses")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError("batch response missing \"responses\"".to_owned()))?;
            Ok(Response::Batch(
                responses
                    .iter()
                    .map(response_from_json)
                    .collect::<Result<_, _>>()?,
            ))
        }
        other => Err(WireError(format!("unknown response type {other:?}"))),
    }
}

/// Encodes an endpoint error to a JSON value.
pub fn error_to_json(error: &EndpointError) -> Json {
    match error {
        EndpointError::Sparql(SparqlError::Lex { offset, message }) => Json::obj([
            ("kind", Json::str("lex")),
            ("offset", Json::Uint(*offset as u64)),
            ("message", Json::str(message)),
        ]),
        EndpointError::Sparql(SparqlError::Parse { message }) => Json::obj([
            ("kind", Json::str("parse")),
            ("message", Json::str(message)),
        ]),
        EndpointError::Sparql(SparqlError::Eval { message }) => {
            Json::obj([("kind", Json::str("eval")), ("message", Json::str(message))])
        }
        // Not a form the endpoint layer produces (`From<SparqlError>`
        // types a kill where it enters); one built by hand travels as
        // the class it would have entered as.
        EndpointError::Sparql(e @ SparqlError::Budget { .. }) => {
            error_to_json(&EndpointError::from(e.clone()))
        }
        // A client-side refusal, never a server's answer; one sent anyway
        // travels as the evaluation error it reads as.
        EndpointError::Sparql(e @ SparqlError::Unrenderable { .. }) => {
            error_to_json(&EndpointError::Sparql(SparqlError::eval(e.to_string())))
        }
        EndpointError::DeadlineExceeded { elapsed } => Json::obj([
            ("kind", Json::str("deadline")),
            (
                "elapsed_ns",
                Json::Uint(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)),
            ),
        ]),
        EndpointError::BudgetExceeded { message } => Json::obj([
            ("kind", Json::str("budget")),
            ("message", Json::str(message)),
        ]),
        EndpointError::QuotaExceeded {
            endpoint,
            max_queries,
        } => Json::obj([
            ("kind", Json::str("quota")),
            ("endpoint", Json::str(endpoint)),
            ("max_queries", Json::Uint(*max_queries)),
        ]),
        EndpointError::Unavailable {
            message,
            retry_after,
        } => {
            let mut fields = vec![
                ("kind", Json::str("unavailable")),
                ("message", Json::str(message)),
            ];
            if let Some(after) = retry_after {
                fields.push((
                    "retry_after_ms",
                    Json::Uint(u64::try_from(after.as_millis()).unwrap_or(u64::MAX)),
                ));
            }
            Json::obj(fields)
        }
        EndpointError::Other(message) => Json::obj([
            ("kind", Json::str("other")),
            ("message", Json::str(message)),
        ]),
    }
}

/// Decodes an endpoint error from a JSON value.
pub fn error_from_json(json: &Json) -> Result<EndpointError, WireError> {
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError("error missing \"kind\"".to_owned()))?;
    let message = || {
        json.get("message")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| WireError(format!("{kind} error missing \"message\"")))
    };
    match kind {
        "lex" => Ok(EndpointError::Sparql(SparqlError::Lex {
            offset: json
                .get("offset")
                .and_then(Json::as_uint)
                .ok_or_else(|| WireError("lex error missing \"offset\"".to_owned()))?
                as usize,
            message: message()?,
        })),
        "parse" => Ok(EndpointError::Sparql(SparqlError::Parse {
            message: message()?,
        })),
        "eval" => Ok(EndpointError::Sparql(SparqlError::Eval {
            message: message()?,
        })),
        "quota" => Ok(EndpointError::QuotaExceeded {
            endpoint: json
                .get("endpoint")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError("quota error missing \"endpoint\"".to_owned()))?
                .to_owned(),
            max_queries: json
                .get("max_queries")
                .and_then(Json::as_uint)
                .ok_or_else(|| WireError("quota error missing \"max_queries\"".to_owned()))?,
        }),
        "unavailable" => Ok(EndpointError::Unavailable {
            message: message()?,
            // The server's optional busy hint, exact to the millisecond
            // (its `Retry-After` header rounds it up to whole seconds).
            retry_after: json
                .get("retry_after_ms")
                .and_then(Json::as_uint)
                .map(std::time::Duration::from_millis),
        }),
        "deadline" => Ok(EndpointError::DeadlineExceeded {
            elapsed: std::time::Duration::from_nanos(
                json.get("elapsed_ns")
                    .and_then(Json::as_uint)
                    .ok_or_else(|| WireError("deadline error missing \"elapsed_ns\"".to_owned()))?,
            ),
        }),
        "budget" => Ok(EndpointError::BudgetExceeded {
            message: message()?,
        }),
        "other" => Ok(EndpointError::Other(message()?)),
        other => Err(WireError(format!("unknown error kind {other:?}"))),
    }
}

/// Encodes the full result envelope the server sends back.
pub fn envelope_to_json(result: &Result<Response, EndpointError>) -> Json {
    match result {
        Ok(response) => Json::obj([
            ("ok", Json::Bool(true)),
            ("response", response_to_json(response)),
        ]),
        Err(error) => Json::obj([("ok", Json::Bool(false)), ("error", error_to_json(error))]),
    }
}

/// Decodes the result envelope.
pub fn envelope_from_json(json: &Json) -> Result<Result<Response, EndpointError>, WireError> {
    match json.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let response = json
                .get("response")
                .ok_or_else(|| WireError("ok envelope missing \"response\"".to_owned()))?;
            Ok(Ok(response_from_json(response)?))
        }
        Some(false) => {
            let error = json
                .get("error")
                .ok_or_else(|| WireError("error envelope missing \"error\"".to_owned()))?;
            Ok(Err(error_from_json(error)?))
        }
        None => Err(WireError("envelope missing \"ok\"".to_owned())),
    }
}

// ------------------------------------------------------- one-pass codec

impl WireRequest {
    /// Appends this request's wire text to `out`: the bytes of
    /// `self.to_json().to_text()`, written without building the tree.
    pub fn write(&self, out: &mut String) {
        let (op, query) = match self {
            WireRequest::Select(query) => ("select", query),
            WireRequest::Ask(query) => ("ask", query),
            WireRequest::Count(query) => ("count", query),
            WireRequest::Batch(subs) => {
                out.push_str(r#"{"op":"batch","requests":"#);
                write_list(subs, out, WireRequest::write);
                out.push('}');
                return;
            }
        };
        let _ = write!(out, r#"{{"op":"{op}","query":"#);
        write_json_string(query, out);
        out.push('}');
    }

    /// Decodes one wire request in a single pass over `text` (trailing
    /// whitespace allowed): what [`WireRequest::from_json`] makes of the
    /// tree [`Json::parse`] builds, and an error wherever either fails —
    /// and for a batch nested deeper than [`MAX_BATCH_DEPTH`].
    pub fn parse(text: &str) -> Result<WireRequest, WireError> {
        let mut p = Parser::new(text);
        let request = request_at(&mut p, 0, 0).and_then(|request| p.end().map(|()| request));
        request.map_err(WireError)
    }
}

/// Appends the result envelope to `out`: the bytes of
/// `envelope_to_json(..).to_text()`, written without building the tree.
pub fn write_envelope(result: Result<&Response, &EndpointError>, out: &mut String) {
    match result {
        Ok(response) => {
            out.push_str(r#"{"ok":true,"response":"#);
            write_response(response, out);
        }
        Err(error) => {
            out.push_str(r#"{"ok":false,"error":"#);
            write_error(error, out);
        }
    }
    out.push('}');
}

/// Decodes the result envelope in a single pass over `text` (trailing
/// whitespace allowed): what [`envelope_from_json`] makes of the tree
/// [`Json::parse`] builds, and an error wherever either fails — and for
/// a batch nested deeper than [`MAX_BATCH_DEPTH`].
pub fn parse_envelope(text: &str) -> Result<Result<Response, EndpointError>, WireError> {
    let mut p = Parser::new(text);
    let envelope = envelope_at(&mut p).and_then(|envelope| p.end().map(|()| envelope));
    envelope.map_err(WireError)
}

/// Writes `[a,b,…]`, each element by `item`.
fn write_list<T>(items: &[T], out: &mut String, mut item: impl FnMut(&T, &mut String)) {
    out.push('[');
    for (i, element) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(element, out);
    }
    out.push(']');
}

fn write_response(response: &Response, out: &mut String) {
    match response {
        Response::Rows(rows) => {
            out.push_str(r#"{"type":"rows","vars":"#);
            write_list(rows.vars(), out, |var, out| write_json_string(var, out));
            out.push_str(r#","rows":"#);
            write_list(rows.rows(), out, |row, out| {
                write_list(row, out, |cell, out| match cell {
                    Some(term) => write_term(term, out),
                    None => out.push_str("null"),
                })
            });
        }
        Response::Boolean(b) => {
            let _ = write!(out, r#"{{"type":"boolean","value":{b}"#);
        }
        Response::Count(n) => {
            let _ = write!(out, r#"{{"type":"count","value":{n}"#);
        }
        Response::Batch(responses) => {
            out.push_str(r#"{"type":"batch","responses":"#);
            write_list(responses, out, write_response);
        }
    }
    out.push('}');
}

fn write_term(term: &Term, out: &mut String) {
    let (tag, value) = match term {
        Term::Iri(value) => ("iri", value),
        Term::Literal { lexical, .. } => ("lit", lexical),
        Term::BNode(label) => ("bnode", label),
    };
    let _ = write!(out, r#"{{"t":"{tag}","v":"#);
    write_json_string(value, out);
    if let Term::Literal { lang, datatype, .. } = term {
        if let Some(lang) = lang {
            write_str_member("lang", lang, out);
        }
        if let Some(datatype) = datatype {
            write_str_member("dt", datatype, out);
        }
    }
    out.push('}');
}

fn write_error(error: &EndpointError, out: &mut String) {
    let kind = match error {
        EndpointError::Sparql(SparqlError::Lex { .. }) => "lex",
        EndpointError::Sparql(SparqlError::Parse { .. }) => "parse",
        EndpointError::Sparql(SparqlError::Eval { .. }) => "eval",
        // Each travels as the class it would have entered as (see
        // `error_to_json`).
        EndpointError::Sparql(e @ SparqlError::Budget { .. }) => {
            return write_error(&EndpointError::from(e.clone()), out);
        }
        EndpointError::Sparql(e @ SparqlError::Unrenderable { .. }) => {
            return write_error(
                &EndpointError::Sparql(SparqlError::eval(e.to_string())),
                out,
            );
        }
        EndpointError::DeadlineExceeded { .. } => "deadline",
        EndpointError::BudgetExceeded { .. } => "budget",
        EndpointError::QuotaExceeded { .. } => "quota",
        EndpointError::Unavailable { .. } => "unavailable",
        EndpointError::Other(_) => "other",
    };
    let _ = write!(out, r#"{{"kind":"{kind}""#);
    match error {
        EndpointError::Sparql(SparqlError::Lex { offset, message }) => {
            let _ = write!(out, r#","offset":{offset}"#);
            write_str_member("message", message, out);
        }
        EndpointError::Sparql(SparqlError::Parse { message } | SparqlError::Eval { message })
        | EndpointError::BudgetExceeded { message }
        | EndpointError::Other(message) => write_str_member("message", message, out),
        EndpointError::DeadlineExceeded { elapsed } => {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            let _ = write!(out, r#","elapsed_ns":{ns}"#);
        }
        EndpointError::QuotaExceeded {
            endpoint,
            max_queries,
        } => {
            write_str_member("endpoint", endpoint, out);
            let _ = write!(out, r#","max_queries":{max_queries}"#);
        }
        EndpointError::Unavailable {
            message,
            retry_after,
        } => {
            write_str_member("message", message, out);
            if let Some(after) = retry_after {
                let ms = u64::try_from(after.as_millis()).unwrap_or(u64::MAX);
                let _ = write!(out, r#","retry_after_ms":{ms}"#);
            }
        }
        EndpointError::Sparql(SparqlError::Budget { .. } | SparqlError::Unrenderable { .. }) => {}
    }
    out.push('}');
}

/// Writes `,"key":"value"`.
fn write_str_member(key: &str, value: &str, out: &mut String) {
    let _ = write!(out, r#","{key}":"#);
    write_json_string(value, out);
}

/// A member whose decoding depends on another one of its object
/// (`"ok"`, `"type"`, `"op"`, `"vars"`). It is decoded where it stands
/// when that one came first — the order every encoder here writes —
/// else its offset is kept, the value skipped, and it is decoded from
/// there once the whole object has been read. As with [`Json::get`], the
/// first of duplicate keys counts.
enum Member<T> {
    Absent,
    Decoded(T),
    At(usize),
}

impl<T> Member<T> {
    /// Takes the value under the cursor: decoded now by `decode` if
    /// there is one, else noted (and `false`: the caller skips it).
    fn offer<'a, F>(&mut self, p: &mut Parser<'a>, decode: Option<F>) -> Result<bool, String>
    where
        F: FnOnce(&mut Parser<'a>) -> Result<T, String>,
    {
        match (&*self, decode) {
            (Member::Absent, Some(decode)) => {
                *self = Member::Decoded(decode(p)?);
                Ok(true)
            }
            (Member::Absent, None) => {
                *self = Member::At(p.pos());
                Ok(false)
            }
            _ => Ok(false),
        }
    }

    fn resolve<'a>(
        self,
        p: &Parser<'a>,
        missing: &str,
        decode: impl FnOnce(&mut Parser<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        match self {
            Member::Decoded(value) => Ok(value),
            Member::At(pos) => decode(&mut p.fork(pos)),
            Member::Absent => Err(missing.to_owned()),
        }
    }
}

/// Reads the scalar under the cursor into `slot`, unless an earlier
/// duplicate key filled it.
fn first<'a>(
    slot: &mut Option<Scalar<'a>>,
    p: &mut Parser<'a>,
    depth: usize,
) -> Result<bool, String> {
    if slot.is_some() {
        return Ok(false);
    }
    *slot = Some(p.scalar(depth)?);
    Ok(true)
}

/// Whether `slot` holds the string `tag`.
fn is(slot: &Option<Scalar<'_>>, tag: &str) -> bool {
    slot.as_ref().and_then(Scalar::as_str) == Some(tag)
}

/// The object at `depth` read flat: the first value under each of `keys`.
fn fields<'a, const N: usize>(
    p: &mut Parser<'a>,
    depth: usize,
    what: &str,
    keys: [&str; N],
) -> Result<[Option<Scalar<'a>>; N], String> {
    let mut found = std::array::from_fn(|_| None);
    p.members(depth, what, |p, key| {
        match keys.iter().zip(found.iter_mut()).find(|(k, _)| **k == key) {
            Some((_, slot)) => first(slot, p, depth + 1),
            None => Ok(false),
        }
    })?;
    Ok(found)
}

/// A request object at `depth`, inside `level` batches.
fn request_at(p: &mut Parser<'_>, depth: usize, level: usize) -> Result<WireRequest, String> {
    let (mut op, mut query, mut subs) = (None, None, Member::Absent);
    let inner = depth + 1;
    p.members(depth, "request", |p, key| match key {
        "op" => first(&mut op, p, inner),
        "query" => first(&mut query, p, inner),
        "requests" => subs.offer(
            p,
            is(&op, "batch").then_some(|p: &mut Parser<'_>| sub_requests(p, inner, level + 1)),
        ),
        _ => Ok(false),
    })?;
    let op = op
        .as_ref()
        .and_then(Scalar::as_str)
        .ok_or("request missing \"op\"")?;
    let query = || {
        query
            .and_then(Scalar::into_string)
            .ok_or_else(|| format!("{op} request missing \"query\""))
    };
    match op {
        "select" => Ok(WireRequest::Select(query()?)),
        "ask" => Ok(WireRequest::Ask(query()?)),
        "count" => Ok(WireRequest::Count(query()?)),
        "batch" => Ok(WireRequest::Batch(subs.resolve(
            p,
            "batch request missing \"requests\"",
            |p| sub_requests(p, inner, level + 1),
        )?)),
        other => Err(format!("unknown request op {other:?}")),
    }
}

/// A batch's `"requests"` array at `depth`, its items inside `level`
/// batches.
fn sub_requests(
    p: &mut Parser<'_>,
    depth: usize,
    level: usize,
) -> Result<Vec<WireRequest>, String> {
    batch_level(level)?;
    let mut subs = Vec::new();
    p.items(depth, "requests", |p| {
        subs.push(request_at(p, depth + 1, level)?);
        Ok(())
    })?;
    Ok(subs)
}

fn batch_level(level: usize) -> Result<(), String> {
    if level > MAX_BATCH_DEPTH {
        return Err(format!(
            "batches nested deeper than {MAX_BATCH_DEPTH} levels"
        ));
    }
    Ok(())
}

/// The envelope object at the root.
fn envelope_at(p: &mut Parser<'_>) -> Result<Result<Response, EndpointError>, String> {
    let (mut ok, mut response, mut error) = (None, Member::Absent, Member::Absent);
    p.members(0, "envelope", |p, key| {
        let flag = ok.as_ref().and_then(Scalar::as_bool);
        match key {
            "ok" => first(&mut ok, p, 1),
            "response" => response.offer(
                p,
                (flag == Some(true)).then_some(|p: &mut Parser<'_>| response_at(p, 1, 0)),
            ),
            "error" => error.offer(
                p,
                (flag == Some(false)).then_some(|p: &mut Parser<'_>| error_at(p, 1)),
            ),
            _ => Ok(false),
        }
    })?;
    match ok.as_ref().and_then(Scalar::as_bool) {
        Some(true) => Ok(Ok(response.resolve(
            p,
            "ok envelope missing \"response\"",
            |p| response_at(p, 1, 0),
        )?)),
        Some(false) => Ok(Err(error.resolve(
            p,
            "error envelope missing \"error\"",
            |p| error_at(p, 1),
        )?)),
        None => Err("envelope missing \"ok\"".to_owned()),
    }
}

/// A response object at `depth`, inside `level` batches.
fn response_at(p: &mut Parser<'_>, depth: usize, level: usize) -> Result<Response, String> {
    let (mut kind, mut value) = (None, None);
    let (mut vars, mut rows, mut responses) = (Member::Absent, Member::Absent, Member::Absent);
    let inner = depth + 1;
    p.members(depth, "response", |p, key| match key {
        "type" => first(&mut kind, p, inner),
        "value" => first(&mut value, p, inner),
        "vars" => vars.offer(
            p,
            is(&kind, "rows").then_some(|p: &mut Parser<'_>| var_names(p, inner)),
        ),
        "rows" => {
            let width = match &vars {
                Member::Decoded(names) if is(&kind, "rows") => Some(names.len()),
                _ => None,
            };
            rows.offer(
                p,
                width.map(|width| move |p: &mut Parser<'_>| row_table(p, inner, width)),
            )
        }
        "responses" => responses.offer(
            p,
            is(&kind, "batch").then_some(|p: &mut Parser<'_>| sub_responses(p, inner, level + 1)),
        ),
        _ => Ok(false),
    })?;
    match kind.as_ref().and_then(Scalar::as_str) {
        Some("rows") => {
            let vars =
                vars.resolve(p, "rows response missing \"vars\"", |p| var_names(p, inner))?;
            let width = vars.len();
            let rows = rows.resolve(p, "rows response missing \"rows\"", |p| {
                row_table(p, inner, width)
            })?;
            Ok(Response::Rows(ResultSet::new(vars, rows)))
        }
        Some("boolean") => value
            .as_ref()
            .and_then(Scalar::as_bool)
            .map(Response::Boolean)
            .ok_or_else(|| "boolean response missing \"value\"".to_owned()),
        Some("count") => value
            .as_ref()
            .and_then(Scalar::as_uint)
            .map(Response::Count)
            .ok_or_else(|| "count response missing \"value\"".to_owned()),
        Some("batch") => Ok(Response::Batch(responses.resolve(
            p,
            "batch response missing \"responses\"",
            |p| sub_responses(p, inner, level + 1),
        )?)),
        Some(other) => Err(format!("unknown response type {other:?}")),
        None => Err("response missing \"type\"".to_owned()),
    }
}

/// A batch's `"responses"` array at `depth`, its items inside `level`
/// batches.
fn sub_responses(p: &mut Parser<'_>, depth: usize, level: usize) -> Result<Vec<Response>, String> {
    batch_level(level)?;
    let mut responses = Vec::new();
    p.items(depth, "responses", |p| {
        responses.push(response_at(p, depth + 1, level)?);
        Ok(())
    })?;
    Ok(responses)
}

fn var_names(p: &mut Parser<'_>, depth: usize) -> Result<Vec<String>, String> {
    let mut vars = Vec::new();
    p.items(depth, "vars", |p| {
        let name = p.scalar(depth + 1)?.into_string();
        vars.push(name.ok_or("non-string var name")?);
        Ok(())
    })?;
    Ok(vars)
}

/// The `"rows"` array at `depth`, every row `width` cells.
fn row_table(
    p: &mut Parser<'_>,
    depth: usize,
    width: usize,
) -> Result<Vec<Vec<Option<Term>>>, String> {
    let mut rows = Vec::new();
    p.items(depth, "rows", |p| {
        let mut row = Vec::with_capacity(width);
        p.items(depth + 1, "row", |p| {
            row.push(cell_at(p, depth + 2)?);
            Ok(())
        })?;
        if row.len() != width {
            return Err(format!(
                "row width {} does not match {width} vars",
                row.len()
            ));
        }
        rows.push(row);
        Ok(())
    })?;
    Ok(rows)
}

fn cell_at(p: &mut Parser<'_>, depth: usize) -> Result<Option<Term>, String> {
    if p.next_is(b'{') {
        return term_at(p, depth).map(Some);
    }
    match p.scalar(depth)? {
        Scalar::Null => Ok(None),
        _ => Err("cell is neither a term nor null".to_owned()),
    }
}

fn term_at(p: &mut Parser<'_>, depth: usize) -> Result<Term, String> {
    let [tag, value, lang, datatype] = fields(p, depth, "term", ["t", "v", "lang", "dt"])?;
    let tag = tag
        .as_ref()
        .and_then(Scalar::as_str)
        .ok_or("term missing \"t\"")?;
    let value = value
        .and_then(Scalar::into_string)
        .ok_or("term missing \"v\"")?;
    match tag {
        "iri" => Ok(Term::Iri(value)),
        "bnode" => Ok(Term::BNode(value)),
        "lit" => Ok(Term::Literal {
            lexical: value,
            lang: lang.and_then(Scalar::into_string),
            datatype: datatype.and_then(Scalar::into_string),
        }),
        other => Err(format!("unknown term tag {other:?}")),
    }
}

fn error_at(p: &mut Parser<'_>, depth: usize) -> Result<EndpointError, String> {
    let [kind, message, offset, endpoint, max_queries, retry_after_ms, elapsed_ns] = fields(
        p,
        depth,
        "error",
        [
            "kind",
            "message",
            "offset",
            "endpoint",
            "max_queries",
            "retry_after_ms",
            "elapsed_ns",
        ],
    )?;
    let kind = kind
        .as_ref()
        .and_then(Scalar::as_str)
        .ok_or("error missing \"kind\"")?;
    let message = || {
        message
            .and_then(Scalar::into_string)
            .ok_or_else(|| format!("{kind} error missing \"message\""))
    };
    let uint = |field: Option<Scalar<'_>>, name: &str| {
        field
            .as_ref()
            .and_then(Scalar::as_uint)
            .ok_or_else(|| format!("{kind} error missing \"{name}\""))
    };
    Ok(match kind {
        "lex" => EndpointError::Sparql(SparqlError::Lex {
            offset: uint(offset, "offset")? as usize,
            message: message()?,
        }),
        "parse" => EndpointError::Sparql(SparqlError::Parse {
            message: message()?,
        }),
        "eval" => EndpointError::Sparql(SparqlError::Eval {
            message: message()?,
        }),
        "quota" => EndpointError::QuotaExceeded {
            endpoint: endpoint
                .and_then(Scalar::into_string)
                .ok_or("quota error missing \"endpoint\"")?,
            max_queries: uint(max_queries, "max_queries")?,
        },
        "unavailable" => EndpointError::Unavailable {
            message: message()?,
            retry_after: retry_after_ms
                .as_ref()
                .and_then(Scalar::as_uint)
                .map(std::time::Duration::from_millis),
        },
        "deadline" => EndpointError::DeadlineExceeded {
            elapsed: std::time::Duration::from_nanos(uint(elapsed_ns, "elapsed_ns")?),
        },
        "budget" => EndpointError::BudgetExceeded {
            message: message()?,
        },
        "other" => EndpointError::Other(message()?),
        other => return Err(format!("unknown error kind {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofya_endpoint::{EndpointExt, LocalEndpoint};
    use sofya_rdf::TripleStore;
    use sofya_sparql::Prepared;

    fn endpoint() -> LocalEndpoint {
        let mut store = TripleStore::new();
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::iri("e:b"));
        store.insert_terms(&Term::iri("e:a"), &Term::iri("r:p"), &Term::literal("x"));
        LocalEndpoint::new("kb", store)
    }

    #[test]
    fn request_json_round_trips() {
        let wire = WireRequest::Batch(vec![
            WireRequest::Select("SELECT ?o { <e:a> <r:p> ?o }".to_owned()),
            WireRequest::Batch(vec![WireRequest::Ask(
                "ASK { <e:a> <r:p> <e:b> }".to_owned(),
            )]),
            WireRequest::Count("SELECT (COUNT(*) AS ?n) { ?s <r:p> ?o }".to_owned()),
        ]);
        let json = wire.to_json();
        assert_eq!(WireRequest::from_json(&json).unwrap(), wire);
        let mut text = String::new();
        wire.write(&mut text);
        assert_eq!(text, json.to_text());
        assert_eq!(WireRequest::parse(&text).unwrap(), wire);
    }

    /// The exact bytes of two representative messages, from both codecs:
    /// a codec change that alters what travels fails here, not at a peer
    /// running the previous build.
    #[test]
    fn encodings_are_pinned_byte_for_byte() {
        let one_pass = |wire: &WireRequest| {
            let mut text = String::new();
            wire.write(&mut text);
            text
        };
        let one_pass_envelope = |result: &Result<Response, EndpointError>| {
            let mut text = String::new();
            write_envelope(result.as_ref(), &mut text);
            text
        };
        let batch = WireRequest::Batch(vec![
            WireRequest::Select("SELECT ?o { <e:a> <r:p> ?o }".to_owned()),
            WireRequest::Ask("ASK { <e:a> <r:p> \"x\\y\"@en }".to_owned()),
            WireRequest::Batch(vec![WireRequest::Count(
                "SELECT (COUNT(*) AS ?n) { ?s <r:p> ?o }".to_owned(),
            )]),
        ]);
        assert_eq!(one_pass(&batch), batch.to_json().to_text());
        assert_eq!(
            batch.to_json().to_text(),
            concat!(
                r#"{"op":"batch","requests":["#,
                r#"{"op":"select","query":"SELECT ?o { <e:a> <r:p> ?o }"},"#,
                r#"{"op":"ask","query":"ASK { <e:a> <r:p> \"x\\y\"@en }"},"#,
                r#"{"op":"batch","requests":["#,
                r#"{"op":"count","query":"SELECT (COUNT(*) AS ?n) { ?s <r:p> ?o }"}]}]}"#,
            )
        );

        let rows = ResultSet::new(
            vec!["s".to_owned(), "o".to_owned()],
            vec![
                vec![
                    Some(Term::iri("e:a")),
                    Some(Term::literal("tab\there \u{1} é")),
                ],
                vec![
                    Some(Term::BNode("b0".to_owned())),
                    Some(Term::Literal {
                        lexical: "1".to_owned(),
                        lang: Some("en".to_owned()),
                        datatype: Some("x:int".to_owned()),
                    }),
                ],
                vec![None, None],
            ],
        );
        let result = Ok(Response::Rows(rows));
        assert_eq!(
            one_pass_envelope(&result),
            envelope_to_json(&result).to_text()
        );
        assert_eq!(
            envelope_to_json(&result).to_text(),
            concat!(
                r#"{"ok":true,"response":{"type":"rows","vars":["s","o"],"rows":["#,
                r#"[{"t":"iri","v":"e:a"},{"t":"lit","v":"tab\there \u0001 é"}],"#,
                r#"[{"t":"bnode","v":"b0"},{"t":"lit","v":"1","lang":"en","dt":"x:int"}],"#,
                r#"[null,null]]}}"#,
            )
        );
    }

    /// Parsing is linear in the body: a 2 MiB row set, far beyond any
    /// page the aligner asks for, decodes within a debug-build test run,
    /// through the tree and in one pass.
    /// (The per-character decoder this replaced re-validated the rest of
    /// the input at every character and needed minutes for this body.)
    #[test]
    fn a_two_mebibyte_row_set_parses_in_linear_time() {
        let cell =
            |i: usize, kind: &str| Some(Term::iri(format!("http://kb.example/{kind}/{i:07}")));
        let rows: Vec<Vec<Option<Term>>> = (0..21_000)
            .map(|i| vec![cell(i, "entity"), cell(i, "linked")])
            .collect();
        let result = Ok(Response::Rows(ResultSet::new(
            vec!["x".to_owned(), "y".to_owned()],
            rows,
        )));
        let text = envelope_to_json(&result).to_text();
        assert!(text.len() >= 2 << 20, "body is only {} bytes", text.len());
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).expect("parse");
        let elapsed = started.elapsed();
        assert_eq!(envelope_from_json(&parsed).expect("decode"), result);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
        let started = std::time::Instant::now();
        assert_eq!(parse_envelope(&text).expect("decode"), result);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "decoding {} bytes in one pass took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn prepared_requests_lower_to_rendered_sparql() {
        let prepared =
            Prepared::new("SELECT ?o WHERE { ?s <r:p> ?o } ORDER BY ?o", &["s"]).unwrap();
        let args = [Term::iri("e:a")];
        let req = Request::PreparedSelect {
            prepared: &prepared,
            args: &args,
        };
        let wire = WireRequest::from_request(&req).unwrap();
        let WireRequest::Select(q) = &wire else {
            panic!("prepared select lowers to select, got {wire:?}");
        };
        assert!(q.contains("<e:a>"), "args are bound into the text: {q}");
    }

    #[test]
    fn execute_wire_reshapes_counts_and_matches_local() {
        let ep = endpoint();
        let count = Prepared::new("SELECT (COUNT(*) AS ?n) WHERE { ?s ?r ?o }", &["r"]).unwrap();
        let args = [Term::iri("r:p")];
        let local = ep.select_prepared(&count, &args).unwrap();
        // Our client sends a count as the `select` it is …
        let req = Request::PreparedSelect {
            prepared: &count,
            args: &args,
        };
        let WireRequest::Select(text) = WireRequest::from_request(&req).unwrap() else {
            panic!("a prepared count lowers to select");
        };
        // … and a foreign client's `count` op over the same text is
        // reshaped to the bare number in that select's one cell.
        let wire = WireRequest::Count(text);
        let remote_shaped = execute_wire_budgeted(&ep, &wire, &QueryBudget::unlimited()).unwrap();
        assert_eq!(remote_shaped, Response::Count(2));
        assert_eq!(local.single_integer(), Some(2));
    }

    #[test]
    fn envelope_round_trips_both_arms() {
        let ep = endpoint();
        let rows = ep
            .select("SELECT ?o { <e:a> <r:p> ?o } ORDER BY ?o")
            .unwrap();
        for result in [
            Ok(Response::Rows(rows)),
            Ok(Response::Batch(vec![
                Response::Boolean(false),
                Response::Count(7),
            ])),
            Err(EndpointError::Sparql(SparqlError::lex(3, "bad char"))),
            Err(EndpointError::QuotaExceeded {
                endpoint: "kb".to_owned(),
                max_queries: 9,
            }),
            Err(EndpointError::Unavailable {
                message: "draining".to_owned(),
                retry_after: Some(std::time::Duration::from_secs(1)),
            }),
            Err(EndpointError::Unavailable {
                message: "overloaded".to_owned(),
                retry_after: None,
            }),
            Err(EndpointError::Other("boom".to_owned())),
            Err(EndpointError::DeadlineExceeded {
                elapsed: std::time::Duration::from_nanos(1_234_567),
            }),
            Err(EndpointError::BudgetExceeded {
                message: "scanned more than 10 rows".to_owned(),
            }),
        ] {
            let json = envelope_to_json(&result);
            let text = json.to_text();
            let back = envelope_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, result);
            let mut one_pass = String::new();
            write_envelope(result.as_ref(), &mut one_pass);
            assert_eq!(one_pass, text);
            assert_eq!(parse_envelope(&text).unwrap(), result);
        }
    }
}
