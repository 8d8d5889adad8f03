//! The metric names `BENCHMARK.json` lists, and how each is computed
//! from a workload's raw samples and spans.

use crate::fixture::RunConfig;
use crate::host::Speed;
use crate::json;
use crate::openloop::MAX_LATE_SHARE;
use crate::stats::{median, percentile_or_max, quiet_quartile, sorted, Better, Blocks, MIN_BLOCKS};
use crate::trace::{per_op, Span, Time};
use crate::workloads::Outcome;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports every one, with tracing
/// off. `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("open_p95_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics read off spans: the median, over traced
/// operations, of the time an operation spent under a span name.
/// `(metric, span, total or self time)`.
const FROM_SPANS: [(&str, &str, Time); 31] = [
    ("trace.e2e_us", "e2e", Time::Total),
    ("net.unattributed_us", "e2e", Time::SelfOnly),
    (
        "net.wire.encode_request_us",
        "net.wire.encode_request",
        Time::Total,
    ),
    ("net.json.to_text_us", "net.json.to_text", Time::Total),
    (
        "net.http.request_codec_us",
        "net.http.request_codec",
        Time::Total,
    ),
    (
        "net.json.parse_request_us",
        "net.json.parse_request",
        Time::Total,
    ),
    (
        "net.wire.decode_request_us",
        "net.wire.decode_request",
        Time::Total,
    ),
    (
        "net.ingest.parse_body_us",
        "net.ingest.parse_body",
        Time::Total,
    ),
    ("service.handoff_per_op_us", "service.handoff", Time::Total),
    ("endpoint.execute_us", "endpoint.execute", Time::Total),
    ("endpoint.self_us", "endpoint.execute", Time::SelfOnly),
    ("sparql.parse_us", "sparql.parse", Time::Total),
    ("sparql.plan_us", "sparql.compile", Time::SelfOnly),
    ("sparql.eval_us", "sparql.eval", Time::Total),
    (
        "net.wire.encode_response_us",
        "net.wire.encode_response",
        Time::Total,
    ),
    (
        "net.http.response_codec_us",
        "net.http.response_codec",
        Time::Total,
    ),
    (
        "net.json.parse_response_us",
        "net.json.parse_response",
        Time::Total,
    ),
    (
        "net.wire.decode_response_us",
        "net.wire.decode_response",
        Time::Total,
    ),
    ("core.align_relation_us", "core.align_relation", Time::Total),
    ("core.self_us", "core.self", Time::Total),
    ("core.refresh_dirty_us", "core.refresh_dirty", Time::Total),
    ("rdf.load_batch_us", "rdf.load_batch", Time::Total),
    ("rdf.remove_batch_us", "rdf.remove_batch", Time::Total),
    ("rdf.snapshot_us", "rdf.snapshot", Time::Total),
    ("endpoint.publish_us", "endpoint.publish", Time::Total),
    (
        "endpoint.durable_load_us",
        "endpoint.durable_load",
        Time::Total,
    ),
    (
        "endpoint.durable_retire_us",
        "endpoint.durable_retire",
        Time::Total,
    ),
    ("durability.commit_us", "durability.commit", Time::Total),
    ("durability.self_us", "durability.commit", Time::SelfOnly),
    ("stream.offer_batch_us", "stream.offer_batch", Time::Total),
    ("stream.tracker_sync_us", "stream.tracker_sync", Time::Total),
];

/// Per-layer metrics a workload or a probe computes itself.
/// `(name, unit)`.
const DIRECT: [(&str, &str); 38] = [
    ("rdf.scan_ns_per_triple", "ns"),
    ("rdf.probe_sp_ns", "ns"),
    ("sparql.prepared_bind_us", "us"),
    ("endpoint.batch16_us", "us"),
    ("endpoint.plan_cache_len", "count"),
    ("service.handoff_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.job_p50_us", "us"),
    ("service.rejected", "count"),
    ("net.roundtrip_floor_us", "us"),
    ("net.response_bytes_per_row", "B"),
    ("core.queries_per_relation", "count"),
    ("core.round_trips_per_relation", "count"),
    ("core.rows_per_relation", "count"),
    ("core.f1", "ratio"),
    ("core.relations_remined_per_cycle", "count"),
    ("stream.expired_per_cycle", "count"),
    ("durability.fsync_us", "us"),
    ("durability.fsyncs_per_commit", "count"),
    ("durability.wal_bytes_per_user_byte", "ratio"),
    ("durability.storage_bytes_per_user_byte", "ratio"),
    ("durability.checkpoint_us", "us"),
    ("durability.checkpoint_bytes", "B"),
    ("durability.checkpoint_share", "ratio"),
    ("durability.recover_s", "s"),
    ("durability.recover_us_per_ktriple", "us"),
    ("class.count_join.p50_us", "us"),
    ("class.star2.p50_us", "us"),
    ("class.path2_sameas.p50_us", "us"),
    ("class.distinct.p50_us", "us"),
    ("class.optional.p50_us", "us"),
    ("class.filter.p50_us", "us"),
    ("class.unbound_pred.p50_us", "us"),
    ("class.ask.p50_us", "us"),
    ("class.wide_rows.p50_us", "us"),
    ("trace.ops_per_s", "1/s"),
    ("trace.sampled_ops", "count"),
    ("open.late_share", "ratio"),
];

/// `times` sorted, and `values` reordered with them.
fn in_time_order(times: &[f64], values: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut pairs: Vec<(f64, f64)> = times.iter().copied().zip(values.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs.into_iter().unzip()
}

/// The host's slowdown (see [`Speed::slowdown`]) over each of `spans`,
/// which count seconds from `origin`; one where there is no origin. A
/// traced run stops its clock while it replays, so its spans are not
/// wall-clock spans: every block then takes the whole run's slowdown.
fn slowdowns(
    speed: &Speed,
    origin: Option<Instant>,
    spans: &[(f64, f64)],
    traced: bool,
) -> Vec<f64> {
    let whole_run = speed
        .span()
        .map_or(1.0, |(from, to)| speed.slowdown(from, to));
    spans
        .iter()
        .map(|&(from, to)| match origin {
            _ if traced => whole_run,
            Some(origin) => speed.slowdown(
                origin + Duration::from_secs_f64(from.max(0.0)),
                origin + Duration::from_secs_f64(to.max(0.0)),
            ),
            None => 1.0,
        })
        .collect()
}

/// `values` as they would read on the reference host: a time shrinks by
/// the slowdown it was measured under, a rate grows by it.
fn adjusted(values: &[f64], slowdown: &[f64], better: Better) -> Vec<f64> {
    values
        .iter()
        .zip(slowdown)
        .map(|(v, slow)| match better {
            Better::Lower => v / slow,
            Better::Higher => v * slow,
        })
        .collect()
}

/// A metric read off blocks: the quiet quartile of the adjusted block
/// values, and a line saying how the blocks were spread before and after
/// adjustment.
fn over_blocks(
    label: &str,
    block: usize,
    raw: &[f64],
    slowdown: &[f64],
    better: Better,
) -> (f64, String) {
    let fair = adjusted(raw, slowdown, better);
    let value = quiet_quartile(&fair, better);
    let (low, high) = (sorted(fair.clone()), sorted(raw.to_vec()));
    let line = format!(
        "{label}: {} blocks of {block}; adjusted: quiet quartile {value:.1}, median {:.1}, range \
         {:.1} to {:.1}; as measured: quiet quartile {:.1}, median {:.1}, range {:.1} to {:.1}",
        raw.len(),
        median(&fair),
        low.first().copied().unwrap_or(0.0),
        low.last().copied().unwrap_or(0.0),
        quiet_quartile(raw, better),
        median(raw),
        high.first().copied().unwrap_or(0.0),
        high.last().copied().unwrap_or(0.0),
    );
    (value, line)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value; zero for a count or a ratio.
    pub samples: usize,
    /// A remark for the table, e.g. that a percentile fell back.
    pub remark: &'static str,
}

pub struct Report {
    pub metrics: Vec<Metric>,
    info: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    pub fn build(cfg: &RunConfig, outcome: &Outcome, speed: &Speed, spans: &[Span]) -> Report {
        let (done_s, ops_in_time) = in_time_order(&outcome.op_done_s, &outcome.op_us);
        let (due_s, open_in_time) = in_time_order(&outcome.open.due_s, &outcome.open.latency_us);
        let ops = sorted(ops_in_time.clone());
        let open = sorted(open_in_time.clone());
        let mut info = outcome.notes.clone();
        if let Some(parts) = speed.span().and_then(|(from, to)| speed.parts(from, to)) {
            info.push(format!(
                "host speed over {} readings: user-mode code {:.3} and system calls {:.3} times \
                 the reference host's time, {:.1}% of CPU time in system mode; timings are \
                 adjusted to the reference host block by block",
                speed.len(),
                parts.user,
                parts.system,
                parts.system_share * 100.0,
            ));
        }
        // Per block where the run holds enough blocks; else, at the
        // harness's own test scale, the sample read whole.
        let closed = Blocks::cut(&done_s, &ops_in_time, outcome.op_block);
        let opened = Blocks::cut(&due_s, &open_in_time, outcome.open_block);
        let whole = "too few blocks: whole sample, as measured";
        let (ops_per_s, op_p50, op_p95, op_remark) = if closed.len() >= MIN_BLOCKS {
            let slow = slowdowns(speed, outcome.closed_origin, &closed.span, cfg.trace);
            let block = outcome.op_block;
            let mut read = |label, raw: &[f64], better| {
                let (value, line) = over_blocks(label, block, raw, &slow, better);
                info.push(line);
                value
            };
            (
                read("ops_per_s", &closed.rate, Better::Higher),
                read("op_p50_us", &closed.p50, Better::Lower),
                read("op_p95_us", &closed.p95, Better::Lower),
                "",
            )
        } else {
            (
                ops.len() as f64 / outcome.timed_s.max(f64::MIN_POSITIVE),
                percentile_or_max(&ops, 0.5).0,
                percentile_or_max(&ops, 0.95).0,
                whole,
            )
        };
        let (open_p95, open_remark) = if opened.len() >= MIN_BLOCKS {
            let slow = slowdowns(speed, outcome.open.origin, &opened.span, cfg.trace);
            let (value, line) = over_blocks(
                "open_p95_us",
                outcome.open_block,
                &opened.p95,
                &slow,
                Better::Lower,
            );
            info.push(line);
            (value, "")
        } else {
            (percentile_or_max(&open, 0.95).0, whole)
        };
        let setup_spans: Vec<(f64, f64)> = outcome.setup_s.iter().map(|s| (0.0, *s)).collect();
        let setups: Vec<f64> = outcome
            .setup_s
            .iter()
            .zip(&outcome.setup_began)
            .zip(&setup_spans)
            .map(|((secs, began), span)| secs / slowdowns(speed, Some(*began), &[*span], false)[0])
            .collect();
        for (label, samples) in [("op", &ops), ("open", &open)] {
            let (p99, exact) = percentile_or_max(samples, 0.99);
            info.push(format!(
                "{label}: p99 {:.1} us{}, max {:.1} us (n={}) — printed as information, not metrics",
                p99,
                if exact { "" } else { " (too few samples: maximum)" },
                samples.last().copied().unwrap_or(0.0),
                samples.len(),
            ));
        }
        let late = outcome.open.late_share();
        info.push(format!(
            "open loop: {} sent, {} held behind an outstanding answer, {:.2}% late on the \
             generator's own account (worst {:.0} us){}",
            outcome.open.sent,
            outcome.open.blocked,
            late * 100.0,
            outcome.open.max_lateness.as_secs_f64() * 1e6,
            if late > MAX_LATE_SHARE {
                " — UNRESOLVED: the generator did not offer the load it claims"
            } else {
                ""
            },
        ));

        let metrics = if cfg.trace {
            // Only the workload's own operations: a budget probe's spans
            // share the stage names but hang under a root of their own.
            let traced: BTreeSet<u32> = spans
                .iter()
                .filter(|s| s.name == "e2e")
                .map(|s| s.op)
                .collect();
            let spans: Vec<Span> = spans
                .iter()
                .filter(|s| traced.contains(&s.op))
                .copied()
                .collect();
            let totals = per_op(&spans, Time::Total);
            let selfs = per_op(&spans, Time::SelfOnly);
            let mut metrics: Vec<Metric> = FROM_SPANS
                .iter()
                .map(|&(name, span, time)| {
                    let source = if time == Time::Total { &totals } else { &selfs };
                    let samples = source.get(span).map_or(&[][..], Vec::as_slice);
                    Metric {
                        name,
                        unit: "us",
                        value: median(samples),
                        samples: samples.len(),
                        remark: "",
                    }
                })
                .collect();
            let sampled = totals.get("e2e").map_or(0, Vec::len);
            metrics.extend(DIRECT.iter().map(|&(name, unit)| Metric {
                name,
                unit,
                value: match name {
                    "trace.ops_per_s" => ops_per_s,
                    "trace.sampled_ops" => sampled as f64,
                    "open.late_share" => late,
                    _ => outcome.layer.get(name).copied().unwrap_or(0.0),
                },
                samples: 0,
                remark: "",
            }));
            metrics
        } else {
            let value = |name| match name {
                "setup_s" => (quiet_quartile(&setups, Better::Lower), setups.len(), ""),
                "ops_per_s" => (ops_per_s, ops.len(), op_remark),
                "op_p50_us" => (op_p50, ops.len(), op_remark),
                "op_p95_us" => (op_p95, ops.len(), op_remark),
                "open_p95_us" => (open_p95, open.len(), open_remark),
                "peak_rss_mb" => (outcome.peak_rss_mb, 0, ""),
                other => unreachable!("{other} is not in END_TO_END"),
            };
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let (value, samples, remark) = value(name);
                    Metric {
                        name,
                        unit,
                        value,
                        samples,
                        remark,
                    }
                })
                .collect()
        };
        Report {
            metrics,
            info,
            attempted: outcome.attempted,
            failed: outcome.failed,
            correct: outcome.failed == 0 && outcome.attempted > 0,
        }
    }

    /// One line per metric — name, value, unit, sample count — then the
    /// informational lines.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = if m.samples > 0 {
                format!("n={}", m.samples)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:<40} {:>16.4} {:<6} {:<8} {}\n",
                m.name, m.value, m.unit, samples, m.remark
            ));
        }
        for line in &self.info {
            out.push_str(&format!("# {line}\n"));
        }
        out.push_str(&format!(
            "# attempted {} failed {} — {}\n",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        ));
        out
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
