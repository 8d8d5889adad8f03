//! Network layer: query and alignment over HTTP.
//!
//! This crate takes the [`sofya_endpoint::Endpoint`] abstraction across
//! process boundaries. The server side ([`HttpServer`]) fronts any local
//! endpoint with a minimal HTTP/1.1 listener whose every request passes
//! the [`sofya_service::scheduler`] gate on the connection thread that
//! read it — so remote clients get per-client quotas, bounded-backlog
//! backpressure, deadline shedding, panic containment, and latency
//! metrics. The client
//! side ([`RemoteEndpoint`]) implements `Endpoint` over that wire, so a
//! remote store composes with `InstrumentedEndpoint` and the alignment
//! pipeline unchanged: two sofya
//! instances can federate with the source store local and the target
//! store remote. The client waits out a busy server's `Retry-After`
//! itself, within the caller's deadline.
//!
//! The wire format is line-delimited JSON ([`wire`]): each request is
//! one `{"op": …}` object (select / ask / batch, with batches nesting;
//! plus `count`, served for foreign clients and never sent by ours),
//! each response one `{"ok": …}` envelope, both written and read in one
//! pass over the text, with no [`Json`] tree between. Prepared queries are
//! rendered to SPARQL text client-side — so a remote endpoint returns
//! bit-identical [`sofya_endpoint::Response`] values to local
//! execution. A whole batch is a single HTTP round trip and a single
//! server-side snapshot pin, which is what makes batched evidence
//! probes pay one RTT per relation instead of one per subject.

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod ingest;
pub mod json;
pub mod server;
pub mod wire;

pub use client::{RemoteConfig, RemoteEndpoint};
pub use ingest::{parse_ingest_body, IngestSink};
pub use json::Json;
pub use server::{HttpServer, ServerConfig};
pub use wire::{execute_wire_budgeted, term_from_json, term_to_json, WireError, WireRequest};
