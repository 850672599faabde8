//! The three workloads. Each sets up its daemons several times (the
//! median is `setup_s`), then runs a timed, untraced phase for the
//! end-to-end metrics and — with `--trace 1` — a traced phase plus the
//! outside-in layer timers.

use crate::expected::Checker;
use crate::inputs::{self, Key, Rng, Zipf, SPELLINGS};
use crate::layers::{direct_metrics, span_metrics, Counters};
use crate::load::{burst, closed_loop, prewarm, request, Daemons, Sample, SpanCollector};
use crate::stats::{median, peak_rss_mb, percentile, summarize, HostMonitor, HostSample};
use crate::{Args, Metric, Report};
use relim_service::ops::OpRequest;
use relim_service::ring::Ring;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Traced closed-loop requests between two span dumps: at most three
/// spans per warm hit keeps a batch inside the daemon's 4096-span window.
const TRACE_BATCH: usize = 1000;

/// `fleet_mixed` interactive requests prepared per second of run: more
/// than the closed-loop clients complete (5000–9000 per second on two
/// vCPUs), so the sequence does not run out.
const FLEET_SEQUENCE_PER_S: f64 = 20000.0;
/// Every `FLEET_SPECIAL_EVERY`-th interactive request is a cold compute,
/// and the one halfway between two of them a first read: a run's mix
/// then does not depend on how many requests it completes, as long as
/// the pools last (527 cold keys, 1062 first reads: up to 21k requests
/// per second in a 25-second run). Pre-warming at most `FIRST_READS`
/// first reads keeps each daemon's store under its 1024-entry bound.
const FLEET_SPECIAL_EVERY: usize = 1000;
const FIRST_READS: usize = 750;
/// The bulk sweeps go out in `BURSTS` bursts on a fixed cadence, each to
/// one daemon: its share of the sweeps (the two heaviest first, so they
/// hold both executors), then `BURST_COLD` cold interactive computes
/// that queue behind them and overtake the waiting sweeps until aging
/// promotes one.
const BURSTS: usize = 2;
const BURST_COLD: usize = 6;
/// A `fleet_mixed` run is invalid when a burst went out later than its
/// due time by more than this: the bulk load then no longer follows its
/// cadence. The sender finishes its current request first, a cold
/// compute of up to about 100 ms at worst. (Burst latencies are timed
/// from the due time, so smaller slips are already charged to them.)
const MAX_LATENESS: Duration = Duration::from_millis(250);

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one timed phase produced.
#[derive(Default)]
struct Phase {
    /// The closed-loop clients' requests.
    samples: Vec<Sample>,
    /// `fleet_mixed` only: the bulk sweeps, and the cold computes sent
    /// in the same bursts.
    bulk: Vec<Sample>,
    burst: Vec<Sample>,
    wall_s: f64,
    /// Host readings, one every `SLICE` through the phase.
    host: Vec<HostSample>,
    counters: Counters,
    spans: SpanCollector,
    /// `fleet_mixed` only: how late each burst went out behind its due
    /// time (µs).
    lateness_us: Vec<f64>,
}

/// Runs `make` `SETUPS` times, timing each; keeps the last result and
/// stops the others.
fn setup(make: impl Fn() -> Result<Daemons, String>) -> Result<(Vec<f64>, Daemons), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let daemons = make()?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(daemons) {
            Daemons::stop(old);
        }
    }
    Ok((times, kept.expect("at least one set-up")))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Phase {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().chain(&self.bulk).chain(&self.burst)
    }

    fn failed(&self) -> usize {
        self.all().filter(|s| !s.ok()).count()
    }
}

fn ok_latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.ok()).map(|s| ms(s.latency_ns)).collect()
}

/// The per-window notes: successful-request rate and latency summary of
/// the closed-loop requests in this many equal time windows, so that a
/// stall (a bulk burst, host steal) can be placed in time.
const WINDOWS: usize = 10;

fn window_notes(phase: &Phase, notes: &mut Vec<String>) {
    let ok: Vec<&Sample> = phase.samples.iter().filter(|s| s.ok()).collect();
    let (Some(first), Some(last)) =
        (ok.iter().map(|s| s.start).min(), ok.iter().map(|s| s.start).max())
    else {
        return;
    };
    let span = (last - first).as_secs_f64().max(f64::MIN_POSITIVE);
    let mut latencies = vec![Vec::new(); WINDOWS];
    for s in ok {
        let w = ((s.start - first).as_secs_f64() / span * WINDOWS as f64) as usize;
        latencies[w.min(WINDOWS - 1)].push(ms(s.latency_ns));
    }
    notes.push("closed-loop requests per window:".into());
    for w in &latencies {
        let l = summarize(w);
        let mut sorted = w.clone();
        sorted.sort_by(f64::total_cmp);
        notes.push(format!(
            "  {:>9.1} req/s  n={:<7} p50={:.4} ms  tail p{} = {:.4} ms ({} samples beyond)  p99={:.4} ms",
            l.count as f64 / (span / WINDOWS as f64),
            l.count,
            l.p50,
            l.tail_pct,
            l.tail,
            l.tail_beyond,
            percentile(&sorted, 99.0)
        ));
    }
}

/// The timed phase is cut into slices of this length, between two host
/// readings.
const SLICE: Duration = Duration::from_millis(250);
/// A slice is quiet when the hypervisor stole at most this share of the
/// machine's CPU time in it.
const QUIET_STEAL: f64 = 0.02;

/// One slice of the timed phase.
struct Slice {
    from: Instant,
    to: Instant,
    steal: f64,
    cpu_ms: f64,
}

impl Slice {
    fn holds(&self, s: &Sample) -> bool {
        (self.from..self.to).contains(&s.start)
    }
}

/// The share of the machine's CPU time the hypervisor stole between two
/// readings.
fn steal_share(a: &HostSample, b: &HostSample) -> f64 {
    (b.steal - a.steal) as f64 / (b.total - a.total).max(1) as f64
}

/// The slices the end-to-end metrics are taken over: every quiet slice,
/// or the least stolen third of all slices when fewer than a third are
/// quiet. On a 2-vCPU VM whose hypervisor steals up to 45% of the CPU
/// for seconds to minutes at a time, a stolen second cuts warm-hit
/// throughput by up to two thirds and multiplies the p95 up to tenfold.
fn measured_slices(host: &[HostSample]) -> Vec<Slice> {
    let mut slices: Vec<Slice> = host
        .windows(2)
        .map(|w| Slice {
            from: w[0].at,
            to: w[1].at,
            steal: steal_share(&w[0], &w[1]),
            cpu_ms: w[1].cpu_ms - w[0].cpu_ms,
        })
        .collect();
    let third = slices.len().div_ceil(3);
    if slices.iter().filter(|s| s.steal <= QUIET_STEAL).count() >= third {
        slices.retain(|s| s.steal <= QUIET_STEAL);
    } else {
        slices.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        slices.truncate(third);
    }
    slices
}

/// The end-to-end metrics of the untraced phase, over the requests sent
/// in its measured slices: throughput counts every completed request
/// over the length of those slices, the latency percentiles are over
/// the closed-loop requests, CPU is the process's in those slices.
fn end_to_end(setup_s: f64, phase: &Phase, notes: &mut Vec<String>) -> Vec<Metric> {
    let slices = measured_slices(&phase.host);
    let measured = |s: &Sample| slices.iter().any(|slice| slice.holds(s));
    let length_s: f64 = slices.iter().map(|s| (s.to - s.from).as_secs_f64()).sum();
    let cpu_ms: f64 = slices.iter().map(|s| s.cpu_ms).sum();
    let completed = phase.all().filter(|s| s.ok() && measured(s)).count();
    let mut sorted: Vec<f64> =
        phase.samples.iter().filter(|s| s.ok() && measured(s)).map(|s| ms(s.latency_ns)).collect();
    sorted.sort_by(f64::total_cmp);
    let latency = summarize(&sorted);
    let (first, last) = (phase.host.first(), phase.host.last());
    let phase_steal = first.zip(last).map_or(0.0, |(a, b)| steal_share(a, b));
    let measured_steal = slices.iter().map(|s| s.steal).fold(0.0, f64::max);
    notes.push(format!(
        "measured {} of {} slices of {} ms (quiet: hypervisor steal at most {:.0}%, else the least stolen third): {:.1} s; steal {:.1}% over the phase, at most {:.1}% in a measured slice",
        slices.len(),
        phase.host.len().saturating_sub(1),
        SLICE.as_millis(),
        QUIET_STEAL * 100.0,
        length_s,
        phase_steal * 100.0,
        measured_steal * 100.0
    ));
    notes.push(format!(
        "measured: {completed} requests succeeded; latency tail p{} = {:.4} ms with {} samples beyond; p90={:.4} p99={:.4} ms",
        latency.tail_pct,
        latency.tail,
        latency.tail_beyond,
        percentile(&sorted, 90.0),
        percentile(&sorted, 99.0)
    ));
    let all_completed = phase.all().filter(|s| s.ok()).count();
    let mut all_sorted = ok_latencies_ms(&phase.samples);
    all_sorted.sort_by(f64::total_cmp);
    let whole = summarize(&all_sorted);
    let phase_cpu_ms = first.zip(last).map_or(0.0, |(a, b)| b.cpu_ms - a.cpu_ms);
    notes.push(format!(
        "whole phase: {all_completed} requests succeeded in {:.2} s ({:.1} req/s), {} closed-loop ones served as cached; p50={:.4} ms, tail p{} = {:.4} ms, {:.4} CPU ms per request",
        phase.wall_s,
        all_completed as f64 / phase.wall_s,
        phase.samples.iter().filter(|s| s.cached).count(),
        whole.p50,
        whole.tail_pct,
        whole.tail,
        phase_cpu_ms / all_completed.max(1) as f64
    ));
    window_notes(phase, notes);
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_rps", completed as f64 / length_s, "1/s"),
        Metric::new("latency_p50_ms", latency.p50, "ms"),
        Metric::new("latency_tail_ms", latency.tail, "ms"),
        Metric::new("cpu_ms_per_req", cpu_ms / completed.max(1) as f64, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Per-layer metrics that do not need the trace: failures, bulk latency,
/// schedule keeping.
fn phase_extras(phase: &Phase) -> Vec<Metric> {
    let all = phase.all().count();
    vec![
        Metric::new("error_rate", phase.failed() as f64 / all.max(1) as f64, "ratio"),
        Metric::new("bulk_latency_p50_ms", median(&ok_latencies_ms(&phase.bulk)), "ms"),
        Metric::new("fleet.gen_lateness_p99_us", lateness_us(phase, 99.0), "us"),
        Metric::new("fleet.gen_lateness_max_us", lateness_us(phase, 100.0), "us"),
    ]
}

fn lateness_us(phase: &Phase, p: f64) -> f64 {
    let mut v = phase.lateness_us.clone();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Whether the bulk cadence was kept (always true without bulk load).
fn schedule_kept(phase: &Phase) -> bool {
    lateness_us(phase, 100.0) <= MAX_LATENESS.as_secs_f64() * 1e6
}

/// Assembles the report of a run.
fn finish(
    args: &Args,
    setup_s: f64,
    untraced: Phase,
    traced: Option<(Phase, Vec<Metric>)>,
    mut notes: Vec<String>,
) -> Report {
    let e2e = end_to_end(setup_s, &untraced, &mut notes);
    let mut valid = schedule_kept(&untraced);
    if !valid {
        notes.push("INVALID: the bulk cadence slipped beyond the allowed lateness".into());
    }
    let attempted = untraced.all().count();
    let failed = untraced.failed();
    let mut per_layer = Vec::new();
    let mut traced_failed = 0;
    if let Some((phase, direct)) = traced {
        let mut span_notes = vec!["traced phase (spans, p50 and tail):".to_owned()];
        let samples: Vec<Sample> = phase.all().copied().collect();
        let spans = span_metrics(&samples, &phase.spans, &mut span_notes);
        let dropped = spans.iter().find(|m| m.name == "trace.dropped").map_or(0.0, |m| m.value);
        if dropped > 0.0 {
            valid = false;
            notes.push(format!("INVALID: the traced run lost {dropped} spans"));
        }
        traced_failed = phase.failed();
        if traced_failed > 0 {
            notes.push(format!("traced phase: {traced_failed} failed requests"));
        }
        per_layer.extend(spans);
        let ratio =
            median(&ok_latencies_ms(&phase.samples)) / median(&ok_latencies_ms(&untraced.samples));
        per_layer.push(Metric::new("trace.overhead_ratio", ratio, "ratio"));
        per_layer.extend(direct);
        notes.extend(span_notes);
    }
    per_layer.extend(untraced.counters.metrics());
    per_layer.extend(phase_extras(&untraced));
    Report {
        workload: args.workload.clone(),
        e2e,
        per_layer,
        attempted,
        failed,
        correct: failed == 0 && traced_failed == 0 && valid,
        notes,
    }
}

/// Runs closed-loop clients for `seconds` of request time. Traced runs
/// go in batches of `TRACE_BATCH` requests with a span dump after each.
fn timed_closed_loop<S>(
    args: &Args,
    daemons: &Daemons,
    traced: bool,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S) -> Option<Sample> + Sync,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let before = daemons.status()?;
    let monitor = HostMonitor::start(SLICE);
    let threads = nproc();
    let mut batch = 0;
    while phase.wall_s < args.seconds {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds - phase.wall_s);
        let issued = AtomicUsize::new(0);
        let start = Instant::now();
        let samples = closed_loop(
            threads,
            |t| init(batch * threads + t),
            |state| {
                if Instant::now() >= deadline
                    || (traced && issued.fetch_add(1, Ordering::Relaxed) >= TRACE_BATCH)
                {
                    return None;
                }
                step(state)
            },
        );
        phase.wall_s += start.elapsed().as_secs_f64();
        if phase.samples.is_empty() {
            phase.samples = samples;
        } else {
            phase.samples.extend(samples);
        }
        if traced {
            phase.spans.collect(&daemons.clients)?;
        }
        batch += 1;
    }
    phase.host = monitor.stop();
    phase.counters.add_all(&before, &daemons.status()?);
    Ok(phase)
}

/// Every request of `keys` in every spelling, as sent on the wire.
fn spelled(keys: &[Key]) -> Vec<[OpRequest; 4]> {
    keys.iter().map(|k| SPELLINGS.map(|s| k.spelled(s))).collect()
}

fn delta3(keys: &[Key]) -> Vec<Key> {
    keys.iter().filter(|k| k.problem.as_ref().is_some_and(|p| p.delta() == 3)).cloned().collect()
}

// ---------------------------------------------------------------------
// cold_certificates

pub fn cold_certificates(args: &Args) -> Result<Report, String> {
    let keys = inputs::cold_population();
    let checker = Checker::new(&keys)?;
    let spawn = || {
        let d = Daemons::single(false)?;
        d.ready()?;
        Ok(d)
    };
    let (mut setup_s, first) = setup(spawn)?;
    let (untraced, spawn_s) = cold_phase(args, &keys, &checker, Some(first), false)?;
    setup_s.extend(spawn_s);
    let traced = if args.trace {
        let (phase, _) = cold_phase(args, &keys, &checker, None, true)?;
        let ops: Vec<OpRequest> = keys.iter().map(|k| k.op.clone()).collect();
        let direct = direct_metrics(&ops, &checker.lens(), &delta3(&keys), &two_members());
        Some((phase, direct))
    } else {
        None
    };
    let notes = vec![format!(
        "{} distinct keys per pass, {} passes, each on a fresh daemon",
        keys.len(),
        untraced.samples.len() / keys.len()
    )];
    Ok(finish(args, median(&setup_s), untraced, traced, notes))
}

/// Whole passes over the population, each on a fresh daemon, in a
/// seeded order; passes continue while the next one fits in
/// `--seconds` (at least one). Also returns every daemon's set-up time:
/// each pass pays one.
fn cold_phase(
    args: &Args,
    keys: &[Key],
    checker: &Checker,
    mut first: Option<Daemons>,
    traced: bool,
) -> Result<(Phase, Vec<f64>), String> {
    let mut phase = Phase::default();
    let mut spawn_s = Vec::new();
    let monitor = HostMonitor::start(SLICE);
    for pass in 0.. {
        let daemons = match first.take() {
            Some(d) => d,
            None => {
                let start = Instant::now();
                let d = Daemons::single(traced)?;
                d.ready()?;
                spawn_s.push(start.elapsed().as_secs_f64());
                d
            }
        };
        let mut order: Vec<usize> = (0..keys.len()).collect();
        Rng::new(args.seed, 1000 + pass).shuffle(&mut order);
        let before = daemons.status()?;
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let samples = closed_loop(
            nproc(),
            |_| (),
            |()| {
                let &k = order.get(next.fetch_add(1, Ordering::Relaxed))?;
                Some(request(&daemons.clients[0], &keys[k].op, traced, checker, k))
            },
        );
        let pass_s = start.elapsed().as_secs_f64();
        phase.wall_s += pass_s;
        phase.samples.extend(samples);
        // Every pass sends the same requests to a fresh daemon, so the
        // first pass's counters stand for all and repeat exactly.
        if pass == 0 {
            phase.counters.add_all(&before, &daemons.status()?);
        }
        if traced {
            phase.spans.collect(&daemons.clients)?;
            phase.spans.new_daemons();
        }
        daemons.stop();
        if phase.wall_s + pass_s > args.seconds {
            break;
        }
    }
    phase.host = monitor.stop();
    Ok((phase, spawn_s))
}

fn two_members() -> Vec<String> {
    vec!["127.0.0.1:7401".to_owned(), "127.0.0.1:7402".to_owned()]
}

// ---------------------------------------------------------------------
// warm_hits

/// The Zipf exponent of the warm key popularity.
const ZIPF_S: f64 = 1.0;

fn warm_daemon(keys: &[Key], checker: &Checker, traced: bool) -> Result<Daemons, String> {
    let d = Daemons::single(traced)?;
    d.ready()?;
    let ops: Vec<OpRequest> = keys.iter().map(|k| k.op.clone()).collect();
    let all: Vec<usize> = (0..keys.len()).collect();
    let client = d.clients[0].clone();
    let failed = prewarm(nproc(), &ops, &all, checker, |_| client.clone());
    if failed > 0 {
        return Err(format!("{failed} pre-warm requests failed"));
    }
    Ok(d)
}

pub fn warm_hits(args: &Args) -> Result<Report, String> {
    let keys = inputs::warm_universe();
    let checker = Checker::new(&keys)?;
    let wire = spelled(&keys);
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let mut rank_to_key: Vec<usize> = (0..keys.len()).collect();
    Rng::new(args.seed, 1).shuffle(&mut rank_to_key);
    let (setup_s, daemons) = setup(|| warm_daemon(&keys, &checker, false))?;
    let setup_s = median(&setup_s);
    let run = |d: &Daemons, traced: bool| {
        timed_closed_loop(
            args,
            d,
            traced,
            |stream| Rng::new(args.seed, 100 + stream as u64),
            |rng| {
                let k = rank_to_key[zipf.sample(rng)];
                let op = &wire[k][rng.below(SPELLINGS.len())];
                Some(request(&d.clients[0], op, traced, &checker, k))
            },
        )
    };
    let untraced = run(&daemons, false)?;
    daemons.stop();
    let traced = if args.trace {
        let d = warm_daemon(&keys, &checker, true)?;
        let phase = run(&d, true);
        d.stop();
        let wire_ops: Vec<OpRequest> = wire.iter().flatten().cloned().collect();
        let lens: Vec<usize> = checker.lens().iter().flat_map(|&l| [l; 4]).collect();
        let direct = direct_metrics(&wire_ops, &lens, &delta3(&keys), &two_members());
        Some((phase?, direct))
    } else {
        None
    };
    let notes = vec![format!(
        "{} warm keys, Zipf s={ZIPF_S}, {} spellings each, {} closed-loop clients",
        keys.len(),
        SPELLINGS.len(),
        nproc()
    )];
    Ok(finish(args, setup_s, untraced, traced, notes))
}

// ---------------------------------------------------------------------
// fleet_mixed

/// The `fleet_mixed` key list: warm universe, first-read pool, cold
/// computes, bulk sweeps — one index space for the checker.
struct FleetKeys {
    keys: Vec<Key>,
    warm: std::ops::Range<usize>,
    first: std::ops::Range<usize>,
    cold: std::ops::Range<usize>,
    bulk: std::ops::Range<usize>,
}

impl FleetKeys {
    fn new() -> FleetKeys {
        let mut keys = inputs::warm_universe();
        let warm = 0..keys.len();
        keys.extend(inputs::first_read_pool());
        let first = warm.end..keys.len();
        keys.extend(inputs::fleet_cold_universe());
        let cold = first.end..keys.len();
        keys.extend(inputs::bulk_sweeps());
        let bulk = cold.end..keys.len();
        FleetKeys { keys, warm, first, cold, bulk }
    }
}

/// One request of the closed-loop client: key, entry daemon, spelling.
#[derive(Debug, Clone, Copy)]
struct Interactive {
    key: usize,
    entry: usize,
    spelling: usize,
}

/// One burst: due offset, entry daemon, keys in send order.
struct Burst {
    at: Duration,
    entry: usize,
    keys: Vec<usize>,
}

/// The seeded `fleet_mixed` inputs for a run of `seconds`.
struct FleetSchedule {
    /// Taken in order by the closed-loop client.
    interactive: Vec<Interactive>,
    bursts: Vec<Burst>,
}

fn fleet_schedule(seed: u64, seconds: f64, fk: &FleetKeys) -> FleetSchedule {
    let mut rng = Rng::new(seed, 7);
    let zipf = Zipf::new(fk.warm.len(), ZIPF_S);
    let mut rank_to_key: Vec<usize> = fk.warm.clone().collect();
    rng.shuffle(&mut rank_to_key);
    let mut first: Vec<usize> = fk.first.clone().collect();
    rng.shuffle(&mut first);
    let mut cold = stratified(&fk.keys, fk.cold.clone(), &mut rng).into_iter();
    let sweeps: Vec<usize> = fk.bulk.clone().collect();
    let per_burst = sweeps.len().div_ceil(BURSTS);
    let mut bursts: Vec<Burst> = sweeps
        .chunks(per_burst)
        .map(|chunk| {
            let mut keys = chunk.to_vec();
            keys.extend(cold.by_ref().take(BURST_COLD));
            Burst { at: Duration::ZERO, entry: rng.below(2), keys }
        })
        .collect();
    rng.shuffle(&mut bursts);
    let gap = seconds / bursts.len() as f64;
    for (i, b) in bursts.iter_mut().enumerate() {
        b.at = Duration::from_secs_f64(gap * (i as f64 + 0.5));
    }
    let mut first = first.into_iter();
    let len = (FLEET_SEQUENCE_PER_S * seconds) as usize;
    let interactive = (0..len)
        .map(|i| {
            let special = match i % FLEET_SPECIAL_EVERY {
                0 => cold.next(),
                n if n == FLEET_SPECIAL_EVERY / 2 => first.next(),
                _ => None,
            };
            Interactive {
                key: special.unwrap_or_else(|| rank_to_key[zipf.sample(&mut rng)]),
                entry: rng.below(2),
                spelling: rng.below(SPELLINGS.len()),
            }
        })
        .collect();
    FleetSchedule { interactive, bursts }
}

/// The cold keys in a seeded order that takes one key of every problem
/// per round, so each run computes the same mix of problems (their costs
/// differ by up to 50×) and only the budgets and the order are drawn.
fn stratified(keys: &[Key], range: std::ops::Range<usize>, rng: &mut Rng) -> Vec<usize> {
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for k in range {
        let problem = keys[k].name.rsplit(' ').next().unwrap_or("");
        match groups.iter_mut().find(|(p, _)| *p == problem) {
            Some((_, g)) => g.push(k),
            None => groups.push((problem, vec![k])),
        }
    }
    for (_, g) in &mut groups {
        rng.shuffle(g);
    }
    let rounds = groups.iter().map(|(_, g)| g.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..groups.len()).collect();
        rng.shuffle(&mut order);
        out.extend(order.into_iter().filter_map(|g| groups[g].1.get(round).copied()));
    }
    out
}

/// Two peers; warm keys pre-warmed at both (owner computes, the other
/// reads through), the schedule's first-read keys only at their ring
/// owner. Pre-warming only those keeps each daemon's store under its
/// 1024-entry bound for a 25-second run, so no warm key is evicted.
fn fleet_daemons(
    fk: &FleetKeys,
    first: &[usize],
    checker: &Checker,
    traced: bool,
) -> Result<Daemons, String> {
    let d = Daemons::fleet(2, traced)?;
    d.ready()?;
    let ring = Ring::new(d.addrs.clone());
    let owner = |k: usize| {
        let addr = ring.owner_of(&fk.keys[k].digest).expect("non-empty ring");
        d.addrs.iter().position(|a| a == addr).expect("ring member")
    };
    let ops: Vec<OpRequest> = fk.keys.iter().map(|k| k.op.clone()).collect();
    let warm: Vec<usize> = fk.warm.clone().collect();
    let mut failed = prewarm(nproc(), &ops, &warm, checker, |k| d.clients[owner(k)].clone());
    failed += prewarm(nproc(), &ops, &warm, checker, |k| d.clients[1 - owner(k)].clone());
    failed += prewarm(nproc(), &ops, first, checker, |k| d.clients[owner(k)].clone());
    if failed > 0 {
        return Err(format!("{failed} pre-warm requests failed"));
    }
    Ok(d)
}

fn fleet_phase(
    seconds: f64,
    schedule: &FleetSchedule,
    fk: &FleetKeys,
    wire: &[[OpRequest; 4]],
    checker: &Checker,
    d: &Daemons,
    traced: bool,
) -> Result<Phase, String> {
    let before = d.status()?;
    let collector = Mutex::new(SpanCollector::default());
    let collect_error = Mutex::new(None);
    let sent_bursts = Mutex::new((Vec::new(), Vec::new()));
    let next = AtomicUsize::new(0);
    let monitor = HostMonitor::start(SLICE);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    // `nproc` closed-loop clients take the interactive sequence in turn;
    // the last one also sends each burst once it is due, and waits for
    // the burst's replies before its next request. A traced run dumps the
    // spans of both daemons every `TRACE_BATCH` requests.
    let clients = nproc();
    let samples = closed_loop(
        clients,
        |t| schedule.bursts[..if t + 1 == clients { schedule.bursts.len() } else { 0 }].iter(),
        |bursts| {
            if Instant::now() >= end {
                return None;
            }
            if let Some(b) = bursts.as_slice().first().filter(|b| Instant::now() >= t0 + b.at) {
                bursts.next();
                let due = t0 + b.at;
                let late_us = (Instant::now() - due).as_nanos() as f64 / 1e3;
                let jobs: Vec<(&OpRequest, usize)> =
                    b.keys.iter().map(|&k| (&fk.keys[k].op, k)).collect();
                let replies = burst(&d.clients[b.entry], &jobs, traced, checker, due);
                let mut sent = sent_bursts.lock().expect("burst lock");
                sent.0.extend(replies);
                sent.1.push(late_us);
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let a = schedule.interactive.get(i)?;
            if traced && i > 0 && i.is_multiple_of(TRACE_BATCH) {
                if let Err(e) = collector.lock().expect("collector lock").collect(&d.clients) {
                    *collect_error.lock().expect("error lock") = Some(e);
                    return None;
                }
            }
            let op = &wire[a.key][a.spelling];
            Some(request(&d.clients[a.entry], op, traced, checker, a.key))
        },
    );
    if let Some(e) = collect_error.into_inner().expect("error lock") {
        return Err(e);
    }
    let (burst_samples, lateness_us) = sent_bursts.into_inner().expect("burst lock");
    // `burst` keeps the send order, so the samples line up with the keys.
    let sent = schedule.bursts.iter().flat_map(|b| &b.keys);
    let (bulk, burst): (Vec<_>, Vec<_>) =
        sent.zip(burst_samples).partition(|(k, _)| fk.bulk.contains(k));
    let mut phase = Phase {
        samples,
        bulk: bulk.into_iter().map(|(_, s)| s).collect(),
        burst: burst.into_iter().map(|(_, s)| s).collect(),
        wall_s: t0.elapsed().as_secs_f64(),
        host: monitor.stop(),
        lateness_us,
        ..Phase::default()
    };
    phase.counters.add_all(&before, &d.status()?);
    let mut spans = collector.into_inner().expect("collector lock");
    if traced {
        spans.collect(&d.clients)?;
    }
    phase.spans = spans;
    Ok(phase)
}

pub fn fleet_mixed(args: &Args) -> Result<Report, String> {
    let fk = FleetKeys::new();
    let checker = Checker::new(&fk.keys)?;
    let wire = spelled(&fk.keys);
    let schedule = fleet_schedule(args.seed, args.seconds, &fk);
    let first: Vec<usize> = schedule
        .interactive
        .iter()
        .map(|a| a.key)
        .filter(|k| fk.first.contains(k))
        .take(FIRST_READS)
        .collect();
    let (setup_s, daemons) = setup(|| fleet_daemons(&fk, &first, &checker, false))?;
    let members = daemons.addrs.clone();
    let untraced = fleet_phase(args.seconds, &schedule, &fk, &wire, &checker, &daemons, false);
    daemons.stop();
    let untraced = untraced?;
    let interactive = &schedule.interactive;
    let traced = if args.trace {
        let d = fleet_daemons(&fk, &first, &checker, true)?;
        let phase = fleet_phase(args.seconds, &schedule, &fk, &wire, &checker, &d, true);
        d.stop();
        let wire_ops: Vec<OpRequest> =
            interactive.iter().map(|a| wire[a.key][a.spelling].clone()).take(4000).collect();
        let lens: Vec<usize> =
            interactive.iter().map(|a| checker.lens()[a.key]).take(4000).collect();
        let mut engine_keys: Vec<Key> = interactive
            .iter()
            .filter(|a| fk.cold.contains(&a.key))
            .take(20)
            .map(|a| fk.keys[a.key].clone())
            .collect();
        engine_keys.extend(delta3(&fk.keys[fk.warm.clone()]));
        let direct = direct_metrics(&wire_ops, &lens, &engine_keys, &members);
        Some((phase?, direct))
    } else {
        None
    };
    let notes = vec![format!(
        "{} closed-loop clients: {} requests, 1 in {FLEET_SPECIAL_EVERY} a cold compute and 1 in {FLEET_SPECIAL_EVERY} a first read, the rest warm hits; {} bursts on a fixed cadence, {} sweeps and {} cold computes in all",
        nproc(),
        untraced.samples.len(),
        schedule.bursts.len(),
        untraced.bulk.len(),
        untraced.burst.len()
    )];
    Ok(finish(args, median(&setup_s), untraced, traced, notes))
}
