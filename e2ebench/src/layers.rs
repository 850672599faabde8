//! Per-layer numbers, measured from outside the program: the daemons'
//! span log (traced run), `status` counter deltas, and direct calls
//! into each layer's public functions on the workload's own inputs.

use crate::inputs::Key;
use crate::load::{Sample, SpanCollector};
use crate::stats::{mean, median, summarize};
use crate::Metric;
use relim_core::diagram::StrengthOrder;
use relim_core::rightclosed::right_closed_sets;
use relim_core::roundelim::{r_step, rbar_step};
use relim_core::{Engine, Problem};
use relim_json::Json;
use relim_service::ops::OpRequest;
use relim_service::protocol;
use relim_service::ring::Ring;
use relim_service::store::ResultStore;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Counter movements over a phase, summed over daemons (and over the
/// daemons of successive passes).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
    pub evictions: u64,
    pub max_depth: u64,
    pub aged_promotions: u64,
    pub remote_hits: u64,
    pub remote_misses: u64,
    pub fetch_failures: u64,
    pub degraded_local: u64,
    pub r_steps: u64,
    pub rbar_steps: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

fn counter(doc: &Json, path: &str) -> u64 {
    let mut node = Some(doc);
    for part in path.split('.') {
        node = node.and_then(|n| n.get(part));
    }
    node.and_then(Json::as_i64).map_or(0, |v| v.max(0) as u64)
}

impl Counters {
    /// Adds the movement from `before` to `after` of one daemon.
    pub fn add(&mut self, before: &Json, after: &Json) {
        let d = |path: &str| counter(after, path).saturating_sub(counter(before, path));
        self.hits += d("store.mem_hits") + d("store.disk_hits");
        self.misses += d("store.misses");
        self.stores += d("store.stores");
        self.evictions += d("store.evictions");
        self.max_depth = self.max_depth.max(counter(after, "queue.max_depth"));
        self.aged_promotions += d("queue.aged_promotions");
        self.remote_hits += d("peer.remote_hits");
        self.remote_misses += d("peer.remote_misses");
        self.fetch_failures += d("peer.fetch_err") + d("peer.fetch_timeout");
        self.degraded_local += d("peer.degraded_local");
        self.r_steps += d("engine.r_steps");
        self.rbar_steps += d("engine.rbar_steps");
        self.cache_hits += d("engine.cache_hits");
        self.cache_misses += d("engine.cache_misses");
    }

    pub fn add_all(&mut self, before: &[Json], after: &[Json]) {
        for (b, a) in before.iter().zip(after) {
            self.add(b, a);
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        vec![
            Metric::new("store.hit_ratio", ratio(self.hits, self.hits + self.misses), "ratio"),
            Metric::new("store.stores", self.stores as f64, "count"),
            Metric::new("store.evictions", self.evictions as f64, "count"),
            Metric::new("queue.max_depth", self.max_depth as f64, "count"),
            Metric::new("queue.aged_promotions", self.aged_promotions as f64, "count"),
            Metric::new(
                "fleet.remote_hit_ratio",
                ratio(self.remote_hits, self.remote_hits + self.remote_misses),
                "ratio",
            ),
            Metric::new("fleet.remote_hits", self.remote_hits as f64, "count"),
            Metric::new("fleet.fetch_failures", self.fetch_failures as f64, "count"),
            Metric::new("fleet.degraded_local", self.degraded_local as f64, "count"),
            Metric::new("engine.r_steps", self.r_steps as f64, "count"),
            Metric::new("engine.rbar_steps", self.rbar_steps as f64, "count"),
            Metric::new(
                "engine.cache_hit_ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
                "ratio",
            ),
        ]
    }
}

/// The span-derived numbers of a traced phase, with the attribution
/// identities and their residuals.
pub fn span_metrics(
    samples: &[Sample],
    spans: &SpanCollector,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut by_trace: HashMap<u64, Vec<&relim_service::trace::Span>> = HashMap::new();
    for (_, span) in &spans.spans {
        by_trace.entry(span.trace_id).or_default().push(span);
    }
    let names = [
        ("parse", "server.parse_us"),
        ("store-read", "store.read_us"),
        ("queue-wait", "queue.wait_us"),
        ("compute", "server.compute_ms"),
        ("store-write", "store.write_us"),
        ("peer-fetch", "fleet.peer_fetch_us"),
        ("fetch-serve", "fleet.fetch_serve_us"),
    ];
    let mut values: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut client, mut wire, mut request, mut children, mut unattributed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut missing_roots = 0usize;
    for sample in samples.iter().filter(|s| s.trace_id != 0 && s.ok()) {
        let Some(trace) = by_trace.get(&sample.trace_id) else {
            missing_roots += 1;
            continue;
        };
        let Some(root) = trace.iter().find(|s| s.name == "request" && s.parent.is_none()) else {
            missing_roots += 1;
            continue;
        };
        let us = |ns: u64| ns as f64 / 1e3;
        let mut child_sum = 0u64;
        for span in trace {
            let Some(&(_, metric)) = names.iter().find(|(n, _)| *n == span.name) else { continue };
            let scale = if metric.ends_with("_ms") { 1e6 } else { 1e3 };
            values.entry(metric).or_default().push(span.dur_ns as f64 / scale);
            if span.parent == Some(root.span_id) {
                child_sum += span.dur_ns;
            }
        }
        client.push(us(sample.service_ns));
        request.push(us(root.dur_ns));
        wire.push(us(sample.service_ns) - us(root.dur_ns));
        children.push(us(child_sum));
        unattributed.push(us(root.dur_ns) - us(child_sum));
    }
    let mut out = Vec::new();
    let mut push_with_tail = |name: &str, unit: &'static str, vals: &[f64], tail: bool| {
        let s = summarize(vals);
        out.push(Metric::new(name, s.p50, unit));
        if tail {
            out.push(Metric::new(&format!("{name}.tail"), s.tail, unit));
        }
        notes.push(format!(
            "  {name:<24} n={:<7} p50={:<10.3} p{}={:.3} ({} beyond)",
            s.count, s.p50, s.tail_pct, s.tail, s.tail_beyond
        ));
    };
    push_with_tail("server.request_us", "us", &request, true);
    push_with_tail("client.wire_us", "us", &wire, true);
    push_with_tail("server.unattributed_us", "us", &unattributed, false);
    for (_, metric) in names {
        let unit = if metric.ends_with("_ms") { "ms" } else { "us" };
        let tail = matches!(metric, "server.compute_ms" | "queue.wait_us");
        push_with_tail(metric, unit, values.get(metric).map_or(&[][..], Vec::as_slice), tail);
    }
    // The identities hold per request by construction; over the whole
    // run they hold exactly for means and only roughly for medians.
    let ident = |label: &str, total: &[f64], parts: &[&[f64]]| {
        let mean_res = mean(total) - parts.iter().map(|p| mean(p)).sum::<f64>();
        let med_res = median(total) - parts.iter().map(|p| median(p)).sum::<f64>();
        (
            format!("  {label}: residual of means {mean_res:.3} us, of medians {med_res:.3} us"),
            med_res,
        )
    };
    let (line, client_res) =
        ident("client = client.wire + server.request", &client, &[&wire, &request]);
    notes.push(line);
    let (line, request_res) = ident(
        "server.request = children + server.unattributed",
        &request,
        &[&children, &unattributed],
    );
    notes.push(line);
    out.push(Metric::new("trace.client_residual_us", client_res, "us"));
    out.push(Metric::new("trace.request_residual_us", request_res, "us"));
    out.push(Metric::new("trace.dropped", (spans.dropped + missing_roots as u64) as f64, "count"));
    notes.push(format!(
        "  spans collected {} in {} batches; lost to the window {}; traced requests without a root span {}",
        spans.spans.len(),
        spans.batches,
        spans.dropped,
        missing_roots
    ));
    out
}

/// Median per-call time in microseconds of `f` over `items`, each item
/// called `reps` times.
fn time_each<T>(items: &[T], reps: usize, scale: f64, mut f: impl FnMut(&T)) -> f64 {
    let mut times = Vec::with_capacity(items.len() * reps);
    for _ in 0..reps {
        for item in items {
            let start = Instant::now();
            f(item);
            times.push(start.elapsed().as_nanos() as f64 / scale);
        }
    }
    median(&times)
}

/// Direct calls into each layer's public functions on `wire_ops` (the
/// requests exactly as the workload sends them) and `engine_keys` (the
/// workload's `Δ = 3` inputs, which the engine timers run on).
pub fn direct_metrics(
    wire_ops: &[OpRequest],
    result_lens: &[usize],
    engine_keys: &[Key],
    ring_members: &[String],
) -> Vec<Metric> {
    let lines: Vec<String> =
        wire_ops.iter().map(|op| protocol::render_job_request(op, None, None)).collect();
    let reps = (20_000 / lines.len().max(1)).clamp(3, 200);
    let parse_us = time_each(&lines, reps, 1e3, |l| {
        black_box(protocol::parse_request(black_box(l)).expect("generated lines parse"));
    });
    // The daemon normalises the spelling while parsing; digest what it
    // would digest.
    let parsed: Vec<OpRequest> = lines
        .iter()
        .filter_map(|l| match protocol::parse_request(l).ok()?.body {
            protocol::RequestBody::Job { op, .. } => Some(op),
            _ => None,
        })
        .collect();
    let digest_us = time_each(&parsed, reps, 1e3, |op| {
        black_box(op.digest().expect("generated requests are valid"));
    });
    let entries: Vec<(String, String, String)> = parsed
        .iter()
        .zip(result_lens)
        .map(|(op, &len)| {
            let key = op.canonical_key().expect("valid");
            (relim_service::store::digest_of(&key), key, "x".repeat(len))
        })
        .collect();
    let put_us = {
        let mut times = Vec::new();
        for _ in 0..reps.min(20) {
            let store = ResultStore::in_memory(1024);
            for (digest, key, result) in &entries {
                let start = Instant::now();
                store.put(digest, key, result).expect("in-memory put");
                times.push(start.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        median(&times)
    };
    let store = ResultStore::in_memory(1024);
    for (digest, key, result) in &entries {
        store.put(digest, key, result).expect("in-memory put");
    }
    let get_us = time_each(&entries, reps, 1e3, |(digest, key, _)| {
        black_box(store.get(digest, key));
    });
    let ring = Ring::new(ring_members.to_vec());
    let owner_ns = time_each(&entries, reps, 1.0, |(digest, _, _)| {
        black_box(ring.owner_of(digest));
    });
    let execute_ms = time_each(engine_keys, 1, 1e6, |k| {
        black_box(k.op.execute(&Engine::sequential()).expect("workload requests execute"));
    });
    let mut problems: Vec<&Problem> = Vec::new();
    for p in engine_keys.iter().filter_map(|k| k.problem.as_ref()) {
        if !problems.iter().any(|q| q.render() == p.render()) {
            problems.push(p);
        }
    }
    // A step may end in a refusal (`TooManyLabels`); it is timed all
    // the same, as the daemon would pay for it.
    let r_ms = time_each(&problems, 1, 1e6, |p| {
        let _ = black_box(r_step(p));
    });
    let rbar_inputs: Vec<Problem> =
        problems.iter().filter_map(|p| r_step(p).ok()).map(|s| s.problem).collect();
    let rbar_ms = time_each(&rbar_inputs, 1, 1e6, |p| {
        let _ = black_box(rbar_step(p));
    });
    let sets_us = time_each(&problems, 20, 1e3, |p| {
        black_box(right_closed_sets(&StrengthOrder::of_constraint(p.edge(), p.alphabet().len())));
    });
    vec![
        Metric::new("protocol.parse_request_us", parse_us, "us"),
        Metric::new("ops.digest_us", digest_us, "us"),
        Metric::new("store.get_us", get_us, "us"),
        Metric::new("store.put_us", put_us, "us"),
        Metric::new("ring.owner_of_ns", owner_ns, "ns"),
        Metric::new("engine.execute_ms", execute_ms, "ms"),
        Metric::new("engine.r_step_ms", r_ms, "ms"),
        Metric::new("engine.rbar_step_ms", rbar_ms, "ms"),
        Metric::new("rightclosed.sets_us", sets_us, "us"),
    ]
}
