//! The stateful round-elimination session: [`Engine`].
//!
//! The automatic lower-bound machinery of the paper is one long
//! computation — a round-elimination chain driven step by step — yet the
//! crate's historical surface exposed it as stateless free functions
//! (`rr_step_with`, `iterate_rr_with`, `auto_lower_bound`, …), each taking
//! an ad-hoc [`Pool`]. The [`Engine`] replaces that surface with a
//! *session object* that owns:
//!
//! * a **persistent-pool handle** (a width policy over the process-wide
//!   worker set of `relim-pool` — the `Engine` is the one component that
//!   hands the pool to the rest of the system),
//! * the default step limits and the optional lineage recorder, and
//! * session counters surfaced through [`EngineReport`] (per-operator
//!   step counts, `R̄` enumeration work, batch counts, wall time),
//!   shared by every clone of the handle — daemon executors and sweep
//!   tasks included.
//!
//! Each `R̄` step derives everything it needs from its input problem;
//! the session keeps no per-problem state, so clones on other threads
//! share nothing but atomic counters.
//!
//! Determinism is inherited, not re-argued: every `Engine` method is
//! **byte-identical** to its free-function counterpart at any thread
//! count, because the session runs the same pooled operators and pool
//! results are canonically re-sorted. The differential suite at the
//! workspace root pins this.
//!
//! # Example
//!
//! ```
//! use relim_core::engine::Engine;
//! use relim_core::Problem;
//!
//! let engine = Engine::builder().threads(2).build();
//! let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
//!
//! // One full R̄(R(·)) application through the session.
//! let (_r, rr) = engine.rr_step(&mis).unwrap();
//! assert!(rr.problem.alphabet().len() >= 3);
//!
//! // The session observed the work.
//! let report = engine.report();
//! assert_eq!((report.r_steps, report.rbar_steps), (1, 1));
//! ```
#![deny(missing_docs)]

use crate::autolb::{self, AutoLbOptions, AutoLbOutcome};
use crate::autoub::{self, AutoUbOptions, AutoUbOutcome};
use crate::config::SetConfig;
use crate::error::{RelimError, Result};
use crate::iterate::{self, IterationOutcome};
use crate::lineage::LineageGraph;
use crate::problem::Problem;
use crate::roundelim::{self, RbarWork, Step, MAX_LABELS};
use relim_pool::Pool;
pub use relim_pool::{parse_threads, ThreadsEnvError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Builder for an [`Engine`] session.
///
/// ```
/// use relim_core::engine::Engine;
///
/// let engine = Engine::builder()
///     .threads(4)        // pool width (0 = available parallelism)
///     .max_steps(6)      // default iteration step limit
///     .label_limit(20)   // default iteration label limit
///     .build();
/// assert_eq!(engine.threads(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: usize,
    max_steps: usize,
    label_limit: usize,
    record_lineage: bool,
}

impl EngineBuilder {
    /// Pool width the session shards over; `0` (the default) means
    /// [`Pool::available_parallelism`]. Output never depends on this —
    /// only wall clock does.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = threads;
        self
    }

    /// Default maximum number of `R̄(R(·))` applications for
    /// [`Engine::iterate`] (default 8).
    pub fn max_steps(mut self, max_steps: usize) -> EngineBuilder {
        self.max_steps = max_steps;
        self
    }

    /// Default alphabet-size abort threshold for [`Engine::iterate`]
    /// (default 20).
    pub fn label_limit(mut self, label_limit: usize) -> EngineBuilder {
        self.label_limit = label_limit;
        self
    }

    /// Whether the session records its derivation DAG (default `false`).
    /// When on, [`Engine::iterate`], [`Engine::auto_lower_bound`] and
    /// [`Engine::auto_upper_bound`] intern every intermediate problem and
    /// operator application into a [`LineageGraph`] retrievable through
    /// [`Engine::lineage`]. Recording digests every intermediate problem
    /// (one render + hash per node plus one reduction per step), so it is
    /// opt-in: with the flag off the drivers skip a single `Option` check
    /// and allocate nothing — the bench alloc-gate budgets assume the off
    /// path.
    pub fn record_lineage(mut self, record: bool) -> EngineBuilder {
        self.record_lineage = record;
        self
    }

    /// Builds the session. Cheap: no threads are spawned until the first
    /// parallel batch reaches the process-wide worker set.
    pub fn build(self) -> Engine {
        Engine {
            shared: Arc::new(EngineShared {
                pool: Pool::new(self.threads),
                r_steps: AtomicU64::new(0),
                rbar_steps: AtomicU64::new(0),
                rbar_raw_configs: AtomicU64::new(0),
                rbar_maximal_configs: AtomicU64::new(0),
                dominance_filters: AtomicU64::new(0),
                iterate_runs: AtomicU64::new(0),
                autolb_runs: AtomicU64::new(0),
                autoub_runs: AtomicU64::new(0),
                map_batches: AtomicU64::new(0),
                wall_ns: AtomicU64::new(0),
                max_steps: self.max_steps,
                label_limit: self.label_limit,
                lineage: if self.record_lineage {
                    Some(Mutex::new(LineageGraph::new()))
                } else {
                    None
                },
            }),
        }
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder { threads: 0, max_steps: 8, label_limit: 20, record_lineage: false }
    }
}

/// The shared state behind a (cheaply clonable) [`Engine`] handle.
struct EngineShared {
    pool: Pool,
    r_steps: AtomicU64,
    rbar_steps: AtomicU64,
    rbar_raw_configs: AtomicU64,
    rbar_maximal_configs: AtomicU64,
    dominance_filters: AtomicU64,
    iterate_runs: AtomicU64,
    autolb_runs: AtomicU64,
    autoub_runs: AtomicU64,
    map_batches: AtomicU64,
    wall_ns: AtomicU64,
    max_steps: usize,
    label_limit: usize,
    /// The derivation DAG, recorded only when the session was built with
    /// [`EngineBuilder::record_lineage`] — `None` keeps the hot loop
    /// allocation-free (a single branch per step, no lock, no digest).
    lineage: Option<Mutex<LineageGraph>>,
}

/// A stateful round-elimination session.
///
/// Construction is through [`Engine::builder`] (or the [`Engine::sequential`]
/// / [`Engine::from_env`] shorthands). The handle is cheap to clone
/// (`Arc`-shared state) and `Send + Sync`, so it can travel into the
/// `'static` task closures of [`Engine::map_owned`] — sweeps shard their
/// parameter points over the session while each point's engine calls
/// count into the same report.
///
/// Every method is byte-identical to its sequential free-function
/// reference (`roundelim::rr_step`, `iterate::iterate_rr_unmemoized`, …)
/// at any thread count; see the module docs.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("threads", &self.threads()).finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts building a session.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// A single-threaded session: every operation runs inline on the
    /// calling thread. This is the reference schedule parallel sessions
    /// must match byte-for-byte.
    pub fn sequential() -> Engine {
        Engine::builder().threads(1).build()
    }

    /// A session sized from the `RELIM_THREADS` environment variable
    /// (available parallelism when unset), with default limits.
    ///
    /// # Panics
    ///
    /// Panics when `RELIM_THREADS` is set but not a positive integer; use
    /// [`Engine::try_from_env`] to surface the error instead.
    pub fn from_env() -> Engine {
        match Engine::try_from_env() {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Engine::from_env`].
    ///
    /// # Errors
    ///
    /// Returns the [`ThreadsEnvError`] describing a malformed
    /// `RELIM_THREADS` value (`0`, empty, non-numeric).
    pub fn try_from_env() -> std::result::Result<Engine, ThreadsEnvError> {
        let pool = Pool::try_from_env()?;
        Ok(Engine::builder().threads(pool.threads()).build())
    }

    /// Number of workers this session splits parallel batches for.
    pub fn threads(&self) -> usize {
        self.shared.pool.threads()
    }

    /// What the standard library reports as available parallelism (at
    /// least 1). Exposed here so downstream crates need no direct
    /// `relim-pool` dependency.
    pub fn available_parallelism() -> usize {
        Pool::available_parallelism()
    }

    /// Applies `R(·)` (universal step on the edge constraint).
    ///
    /// # Errors
    ///
    /// Same as [`crate::roundelim::r_step`].
    pub fn r_step(&self, p: &Problem) -> Result<Step> {
        self.timed(|| {
            self.shared.r_steps.fetch_add(1, Ordering::Relaxed);
            roundelim::r_step(p)
        })
    }

    /// Applies `R̄(·)` (universal step on the node constraint), sharding
    /// the enumeration and dominance filter over the session pool.
    ///
    /// # Errors
    ///
    /// Same as [`crate::roundelim::rbar_step`].
    pub fn rbar_step(&self, p: &Problem) -> Result<Step> {
        self.timed(|| self.rbar_step_inner(p))
    }

    /// One full `Π ↦ R̄(R(Π))` application, returning both intermediate
    /// steps.
    ///
    /// # Errors
    ///
    /// Same as [`crate::roundelim::rr_step`].
    pub fn rr_step(&self, p: &Problem) -> Result<(Step, Step)> {
        self.timed(|| self.rr_step_inner(p))
    }

    /// Removes dominated configurations (see
    /// [`crate::roundelim::dominance_filter`]), sharding the maximality
    /// checks over the session pool.
    pub fn dominance_filter(&self, configs: Vec<SetConfig>) -> Vec<SetConfig> {
        self.timed(|| {
            self.shared.dominance_filters.fetch_add(1, Ordering::Relaxed);
            roundelim::dominance_filter_pooled(configs, &self.shared.pool)
        })
    }

    /// Iterates `R̄(R(·))` with the session's default step and label
    /// limits (see [`EngineBuilder::max_steps`] /
    /// [`EngineBuilder::label_limit`]).
    pub fn iterate(&self, p: &Problem) -> IterationOutcome {
        self.iterate_with_limits(p, self.shared.max_steps, self.shared.label_limit)
    }

    /// Iterates `R̄(R(·))` from `p`, up to `max_steps` applications,
    /// aborting before any step whose input alphabet exceeds
    /// `label_limit`.
    pub fn iterate_with_limits(
        &self,
        p: &Problem,
        max_steps: usize,
        label_limit: usize,
    ) -> IterationOutcome {
        self.timed(|| {
            self.shared.iterate_runs.fetch_add(1, Ordering::Relaxed);
            self.record_lineage_root(p);
            iterate::iterate_with_step(p, max_steps, label_limit, |prev| self.traced_rr_step(prev))
        })
    }

    /// Runs the automatic lower-bound search (see [`crate::autolb`]) with
    /// every `R̄(R(·))` application served by this session.
    pub fn auto_lower_bound(&self, p: &Problem, opts: &AutoLbOptions) -> AutoLbOutcome {
        self.timed(|| {
            self.shared.autolb_runs.fetch_add(1, Ordering::Relaxed);
            self.record_lineage_root(p);
            let outcome =
                autolb::auto_lower_bound_with_step(p, opts, |prev| self.traced_rr_step(prev));
            if let Some(lineage) = &self.shared.lineage {
                let mut graph = lineage.lock().expect("lineage lock");
                for step in &outcome.steps {
                    graph.record_merge(&step.raw, &step.problem, &step.merges);
                }
            }
            outcome
        })
    }

    /// Runs the automatic upper-bound search (see [`crate::autoub`]) with
    /// every `R̄(R(·))` application served by this session.
    pub fn auto_upper_bound(&self, p: &Problem, opts: &AutoUbOptions) -> AutoUbOutcome {
        self.timed(|| {
            self.shared.autoub_runs.fetch_add(1, Ordering::Relaxed);
            self.record_lineage_root(p);
            let outcome =
                autoub::auto_upper_bound_with_step(p, opts, |prev| self.traced_rr_step(prev));
            if let Some(lineage) = &self.shared.lineage {
                let mut graph = lineage.lock().expect("lineage lock");
                for step in &outcome.steps {
                    graph.record_harden(&step.raw, &step.problem, &step.removals);
                }
            }
            outcome
        })
    }

    /// Applies `f` to every owned item over the session pool, returning
    /// results in input order at any thread count. This is how sweeps and
    /// bench grids shard work while keeping the `Engine` the only
    /// consumer of the underlying pool crate: clone the handle into the
    /// closure and call back into the session from inside the tasks
    /// (nested parallelism degrades to inline execution, never deadlocks).
    pub fn map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        self.shared.map_batches.fetch_add(1, Ordering::Relaxed);
        self.shared.pool.map_owned(items, f)
    }

    /// Fallible [`Engine::map_owned`]: the collected successes, or the
    /// error of the earliest failing item (deterministic at any thread
    /// count).
    ///
    /// # Errors
    ///
    /// The error produced by the lowest-indexed failing item.
    pub fn try_map_owned<T, R, E, F>(&self, items: Vec<T>, f: F) -> std::result::Result<Vec<R>, E>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        E: Send + 'static,
        F: Fn(&T) -> std::result::Result<R, E> + Send + Sync + 'static,
    {
        self.shared.map_batches.fetch_add(1, Ordering::Relaxed);
        self.shared.pool.try_map_owned(items, f)
    }

    /// A snapshot of the session counters.
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// // Sinkless orientation is a fixed point: the search detects it
    /// // after one R̄(R(·)) application, and a repeated probe redoes it.
    /// let engine = Engine::sequential();
    /// let so = Problem::from_text("O I I", "[O I] I").unwrap();
    /// assert!(engine.iterate_with_limits(&so, 5, 20).reached_fixed_point());
    /// assert!(engine.iterate_with_limits(&so, 5, 20).reached_fixed_point());
    /// let report = engine.report();
    /// assert_eq!((report.iterate_runs, report.r_steps, report.rbar_steps), (2, 2, 2));
    /// ```
    pub fn report(&self) -> EngineReport {
        let (lineage_nodes, lineage_edges) = match &self.shared.lineage {
            None => (0, 0),
            Some(m) => {
                let graph = m.lock().expect("lineage lock");
                (graph.node_count() as u64, graph.edge_count() as u64)
            }
        };
        EngineReport {
            threads: self.threads(),
            r_steps: self.shared.r_steps.load(Ordering::Relaxed),
            rbar_steps: self.shared.rbar_steps.load(Ordering::Relaxed),
            rbar_raw_configs: self.shared.rbar_raw_configs.load(Ordering::Relaxed),
            rbar_maximal_configs: self.shared.rbar_maximal_configs.load(Ordering::Relaxed),
            dominance_filters: self.shared.dominance_filters.load(Ordering::Relaxed),
            iterate_runs: self.shared.iterate_runs.load(Ordering::Relaxed),
            autolb_runs: self.shared.autolb_runs.load(Ordering::Relaxed),
            autoub_runs: self.shared.autoub_runs.load(Ordering::Relaxed),
            map_batches: self.shared.map_batches.load(Ordering::Relaxed),
            wall_ns: self.shared.wall_ns.load(Ordering::Relaxed),
            record_lineage: self.shared.lineage.is_some(),
            lineage_nodes,
            lineage_edges,
        }
    }

    /// Times one public entry point into the session wall-clock counter.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.shared.wall_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// `R̄(·)` without the entry-point timer (shared by the step drivers
    /// so wall time is not double counted).
    fn rbar_step_inner(&self, p: &Problem) -> Result<Step> {
        let n = p.alphabet().len();
        if n > MAX_LABELS {
            return Err(RelimError::TooManyLabels { requested: n });
        }
        self.shared.rbar_steps.fetch_add(1, Ordering::Relaxed);
        let mut work = RbarWork::default();
        let step = roundelim::rbar_step_pooled(p, &self.shared.pool, &mut work);
        self.shared.rbar_raw_configs.fetch_add(work.raw, Ordering::Relaxed);
        self.shared.rbar_maximal_configs.fetch_add(work.maximal, Ordering::Relaxed);
        step
    }

    /// `R̄(R(·))` without the entry-point timer.
    fn rr_step_inner(&self, p: &Problem) -> Result<(Step, Step)> {
        self.shared.r_steps.fetch_add(1, Ordering::Relaxed);
        let r = roundelim::r_step(p)?;
        let rr = self.rbar_step_inner(&r.problem)?;
        Ok((r, rr))
    }

    /// [`Engine::rr_step_inner`] plus lineage recording — the step
    /// closure handed to the iterate/autolb/autoub drivers. With
    /// recording off this is one branch on a `None`; nothing else.
    fn traced_rr_step(&self, p: &Problem) -> Result<(Step, Step)> {
        let result = self.rr_step_inner(p);
        if let Some(lineage) = &self.shared.lineage {
            if let Ok((r, rr)) = &result {
                lineage.lock().expect("lineage lock").record_rr_step(p, &r.problem, &rr.problem);
            }
        }
        result
    }

    /// Records the initial chain element of a driver run (the input with
    /// unused labels dropped — exactly what the driver loops start from).
    fn record_lineage_root(&self, p: &Problem) {
        if let Some(lineage) = &self.shared.lineage {
            let (initial, _) = p.drop_unused_labels();
            lineage.lock().expect("lineage lock").record_root(&initial);
        }
    }

    /// Whether this session records its derivation DAG (see
    /// [`EngineBuilder::record_lineage`]).
    pub fn recording_lineage(&self) -> bool {
        self.shared.lineage.is_some()
    }

    /// A snapshot of the recorded derivation DAG, or `None` when the
    /// session was built without [`EngineBuilder::record_lineage`].
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// let engine = Engine::builder().threads(1).record_lineage(true).build();
    /// let so = Problem::from_text("O I I", "[O I] I").unwrap();
    /// engine.iterate_with_limits(&so, 5, 20);
    /// let lineage = engine.lineage().expect("recording was enabled");
    /// assert!(lineage.node_count() >= 3);
    /// assert!(Engine::sequential().lineage().is_none(), "off by default");
    /// ```
    pub fn lineage(&self) -> Option<LineageGraph> {
        self.shared.lineage.as_ref().map(|m| m.lock().expect("lineage lock").clone())
    }
}

/// A snapshot of an [`Engine`] session's counters — see
/// [`Engine::report`].
///
/// Counts are cumulative since construction and record how many times
/// each operator ran. `wall_ns` is the total wall
/// time spent inside the session's round-elimination operators (steps,
/// iterations, bound searches, dominance filters) — the generic
/// [`Engine::map_owned`] passthrough is *not* timed, because its tasks
/// routinely call back into those operators and would double-count.
/// Unlike every other field `wall_ns` is schedule-dependent, so tests
/// must not compare it.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Pool width of the session.
    pub threads: usize,
    /// `R(·)` applications (including those inside `rr_step`, iterations
    /// and bound searches).
    pub r_steps: u64,
    /// `R̄(·)` applications.
    pub rbar_steps: u64,
    /// Configurations the `R̄` universal enumeration emitted, summed over
    /// the `R̄(·)` applications this session served (the ∀-DFS's exact
    /// output before the dominance filter).
    pub rbar_raw_configs: u64,
    /// Of those, the maximal configurations that survived the dominance
    /// filter.
    pub rbar_maximal_configs: u64,
    /// Stand-alone dominance filter calls.
    pub dominance_filters: u64,
    /// [`Engine::iterate`] / [`Engine::iterate_with_limits`] runs.
    pub iterate_runs: u64,
    /// [`Engine::auto_lower_bound`] runs.
    pub autolb_runs: u64,
    /// [`Engine::auto_upper_bound`] runs.
    pub autoub_runs: u64,
    /// Parallel batches submitted through [`Engine::map_owned`] /
    /// [`Engine::try_map_owned`] (sweep points, Monte-Carlo chunks, bench
    /// grids).
    pub map_batches: u64,
    /// Total wall time (nanoseconds) spent inside the session's
    /// round-elimination operators (not the `map_owned` passthroughs —
    /// their tasks call back into the operators, which would double
    /// count). Schedule-dependent — never byte-stable across runs.
    pub wall_ns: u64,
    /// Whether the session records its derivation DAG (see
    /// [`EngineBuilder::record_lineage`]) — a configuration echo, like
    /// `threads`.
    pub record_lineage: bool,
    /// Distinct problems in the recorded [`LineageGraph`] (0 with
    /// recording off). Deliberately *not* part of
    /// [`EngineReport::snapshot_pairs`]: the bench baseline schema pins
    /// that list, and every committed kernel records with lineage off.
    pub lineage_nodes: u64,
    /// Operator applications in the recorded [`LineageGraph`] (0 with
    /// recording off); see `lineage_nodes` for why it is not a snapshot
    /// pair.
    pub lineage_edges: u64,
}

impl EngineReport {
    /// The **deterministic** counters of this report as stable
    /// `(name, value)` pairs, in a fixed order — the serializable
    /// snapshot persisted into `BENCH_relim.json` kernels so CI diffs
    /// operator counts exactly, not just timings.
    ///
    /// Deliberately excludes `wall_ns` (schedule-dependent) and the
    /// configuration fields (`threads`, `record_lineage` — inputs, not
    /// observations). For a fixed workload on a fixed
    /// session configuration, every pair is byte-stable across runs,
    /// thread counts and machines.
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// let engine = Engine::sequential();
    /// engine.rr_step(&Problem::from_text("A A", "A A").unwrap()).unwrap();
    /// let pairs = engine.report().snapshot_pairs();
    /// assert_eq!(pairs[0], ("r_steps", 1));
    /// assert!(pairs.iter().any(|&(k, v)| k == "rbar_steps" && v == 1));
    /// ```
    pub fn snapshot_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("r_steps", self.r_steps),
            ("rbar_steps", self.rbar_steps),
            ("rbar_raw_configs", self.rbar_raw_configs),
            ("rbar_maximal_configs", self.rbar_maximal_configs),
            ("dominance_filters", self.dominance_filters),
            ("iterate_runs", self.iterate_runs),
            ("autolb_runs", self.autolb_runs),
            ("autoub_runs", self.autoub_runs),
            ("map_batches", self.map_batches),
        ]
    }

    /// The movement of the [`EngineReport::snapshot_pairs`] counters
    /// between `before` and this report — the engine's span seam: the
    /// serving layer snapshots a report around a job's compute and
    /// attaches the deltas to that job's trace span, giving "what did
    /// the engine do for *this* request" without touching the engine's
    /// hot path. On a shared engine concurrent jobs move the counters too,
    /// so the deltas are attributed, not exact, under concurrency.
    ///
    /// ```
    /// use relim_core::engine::Engine;
    /// use relim_core::Problem;
    ///
    /// let engine = Engine::sequential();
    /// let before = engine.report();
    /// engine.rr_step(&Problem::from_text("A A", "A A").unwrap()).unwrap();
    /// let delta = engine.report().delta_pairs(&before);
    /// assert!(delta.iter().any(|&(k, v)| k == "rbar_steps" && v == 1));
    /// ```
    pub fn delta_pairs(&self, before: &EngineReport) -> Vec<(&'static str, u64)> {
        self.snapshot_pairs()
            .into_iter()
            .zip(before.snapshot_pairs())
            .map(|((name, after), (_, before))| (name, after.saturating_sub(before)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mis3() -> Problem {
        Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap()
    }

    #[test]
    fn engine_rr_step_matches_free_functions() {
        let p = mis3();
        let free = roundelim::rr_step(&p).unwrap();
        for threads in [1, 2, 8] {
            let engine = Engine::builder().threads(threads).build();
            let (r, rr) = engine.rr_step(&p).unwrap();
            assert_eq!(r.problem.render(), free.0.problem.render(), "threads = {threads}");
            assert_eq!(rr.problem.render(), free.1.problem.render(), "threads = {threads}");
            assert_eq!(rr.provenance, free.1.provenance, "threads = {threads}");
        }
    }

    #[test]
    fn report_counts_operators() {
        let engine = Engine::sequential();
        let p = mis3();
        engine.r_step(&p).unwrap();
        engine.rbar_step(&p).unwrap();
        engine.rr_step(&p).unwrap();
        engine.dominance_filter(Vec::new());
        let report = engine.report();
        assert_eq!(report.r_steps, 2); // r_step + the one inside rr_step
        assert_eq!(report.rbar_steps, 2);
        assert_eq!(report.dominance_filters, 1);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn iterate_uses_builder_defaults() {
        let engine = Engine::builder().threads(1).max_steps(1).label_limit(40).build();
        let outcome = engine.iterate(&mis3());
        assert!(outcome.stats.len() <= 2, "max_steps(1) caps the iteration");
    }

    #[test]
    fn map_owned_counts_batches_and_preserves_order() {
        let engine = Engine::builder().threads(4).build();
        let got = engine.map_owned((0u64..100).collect(), |&x| x * 3);
        assert_eq!(got, (0..100).map(|x| x * 3).collect::<Vec<u64>>());
        let tried: std::result::Result<Vec<u64>, ()> =
            engine.try_map_owned((0u64..10).collect(), |&x| Ok(x));
        assert_eq!(tried.unwrap().len(), 10);
        assert_eq!(engine.report().map_batches, 2);
    }

    #[test]
    fn clones_share_the_session() {
        let engine = Engine::sequential();
        let clone = engine.clone();
        clone.rr_step(&mis3()).unwrap();
        assert_eq!(engine.report().rbar_steps, 1, "clones must observe the same counters");
    }

    #[test]
    fn env_constructors_agree_with_pool() {
        let tried = Engine::try_from_env().expect("ambient RELIM_THREADS must be valid in tests");
        assert_eq!(tried.threads(), Pool::try_from_env().unwrap().threads());
        assert_eq!(Engine::from_env().threads(), tried.threads());
        assert!(Engine::available_parallelism() >= 1);
    }
}
