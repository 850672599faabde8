//! Iterated round elimination with bookkeeping.
//!
//! Drives `Π ↦ R̄(R(Π))` repeatedly, recording description sizes and
//! detecting fixed points — the workflow behind both the "doubly
//! exponential growth" observation (paper §1.2, experiment E13) and
//! fixed-point lower bounds (§1.2, "Fixed points").
//!
//! The session API ([`crate::engine::Engine::iterate`]) drives the loop
//! through the `Engine`'s pooled steps; [`iterate_rr_unmemoized`] is the
//! session-free reference the differential suites compare it against.

use crate::iso;
use crate::problem::Problem;
use crate::roundelim::{r_step, rbar_step_pooled, RbarWork, Step};
use relim_pool::Pool;

/// Why an iteration stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The latest problem is isomorphic to the previous one.
    FixedPoint,
    /// The configured maximum number of steps was reached.
    MaxSteps,
    /// The alphabet exceeded `label_limit` (doubly-exponential growth).
    LabelLimit {
        /// Labels the next step would have had to handle.
        labels: usize,
    },
    /// A step produced an empty constraint.
    Degenerate {
        /// Engine error message.
        message: String,
    },
}

/// Description-size statistics for one problem in the iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepStats {
    /// Iteration index (0 = input problem).
    pub step: usize,
    /// Alphabet size (used labels only).
    pub labels: usize,
    /// Node configuration count.
    pub node_configs: usize,
    /// Edge configuration count.
    pub edge_configs: usize,
}

/// The outcome of an iterated round-elimination search
/// ([`crate::engine::Engine::iterate`] / [`iterate_rr_unmemoized`]).
#[derive(Debug, Clone)]
pub struct IterationOutcome {
    /// Per-step statistics, starting with the input problem.
    pub stats: Vec<StepStats>,
    /// The problems themselves (unused labels dropped), aligned with
    /// `stats`.
    pub problems: Vec<Problem>,
    /// Why the iteration stopped.
    pub stopped: StopReason,
}

impl IterationOutcome {
    /// Whether a fixed point was found.
    pub fn reached_fixed_point(&self) -> bool {
        self.stopped == StopReason::FixedPoint
    }
}

fn stats_of(step: usize, p: &Problem) -> StepStats {
    StepStats {
        step,
        labels: p.alphabet().len(),
        node_configs: p.node().len(),
        edge_configs: p.edge().len(),
    }
}

/// The session-free reference for [`crate::engine::Engine::iterate`]: the
/// same loop over plain pooled steps, with no `Engine` state anywhere.
/// Exists so differential tests can pin that the session changes nothing;
/// not deprecated on purpose.
pub fn iterate_rr_unmemoized(
    p: &Problem,
    max_steps: usize,
    label_limit: usize,
    pool: &Pool,
) -> IterationOutcome {
    iterate_with_step(p, max_steps, label_limit, |prev| {
        let r = r_step(prev)?;
        let rr = rbar_step_pooled(&r.problem, pool, &mut RbarWork::default())?;
        Ok((r, rr))
    })
}

/// The shared iteration loop, parameterized over how one step is computed
/// (the engine passes its counting, lineage-recording session step).
pub(crate) fn iterate_with_step(
    p: &Problem,
    max_steps: usize,
    label_limit: usize,
    mut step_fn: impl FnMut(&Problem) -> crate::error::Result<(Step, Step)>,
) -> IterationOutcome {
    let (current, _) = p.drop_unused_labels();
    let mut problems = vec![current];
    let mut stats = vec![stats_of(0, &problems[0])];
    for step in 1..=max_steps {
        let prev = problems.last().expect("non-empty").clone();
        if prev.alphabet().len() > label_limit {
            return IterationOutcome {
                stats,
                problems,
                stopped: StopReason::LabelLimit { labels: prev.alphabet().len() },
            };
        }
        match step_fn(&prev) {
            Ok((_, rr)) => {
                let (reduced, _) = rr.problem.drop_unused_labels();
                let fixed = iso::isomorphic(&reduced, &prev);
                stats.push(stats_of(step, &reduced));
                problems.push(reduced);
                if fixed {
                    return IterationOutcome { stats, problems, stopped: StopReason::FixedPoint };
                }
            }
            Err(crate::error::RelimError::TooManyLabels { requested }) => {
                return IterationOutcome {
                    stats,
                    problems,
                    stopped: StopReason::LabelLimit { labels: requested },
                }
            }
            Err(e) => {
                return IterationOutcome {
                    stats,
                    problems,
                    stopped: StopReason::Degenerate { message: e.to_string() },
                }
            }
        }
    }
    IterationOutcome { stats, problems, stopped: StopReason::MaxSteps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn sinkless_orientation_fixed_point_detected() {
        let so = Problem::from_text("O I I I", "[O I] I").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&so, 4, 20);
        assert!(outcome.reached_fixed_point());
        // Sizes stable across the confirming step.
        assert_eq!(outcome.stats[0].labels, outcome.stats[1].labels);
    }

    #[test]
    fn mis_growth_hits_label_limit() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&mis, 10, 20);
        assert!(matches!(outcome.stopped, StopReason::LabelLimit { .. }));
        // Strictly growing label counts before the stop.
        let labels: Vec<usize> = outcome.stats.iter().map(|s| s.labels).collect();
        assert!(labels.windows(2).all(|w| w[1] >= w[0]));
        assert!(labels.last().unwrap() > &labels[0]);
    }

    #[test]
    fn max_steps_respected() {
        let mis = Problem::from_text("M M M\nP O O", "M [P O]\nO O").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&mis, 1, 64);
        assert!(matches!(outcome.stopped, StopReason::MaxSteps) || outcome.stats.len() <= 2);
        assert!(outcome.stats.len() <= 2);
    }

    #[test]
    fn trivial_problem_is_fixed_point() {
        // One self-compatible label: R̄(R(·)) keeps the problem trivial.
        let p = Problem::from_text("A A", "A A").unwrap();
        let outcome = Engine::sequential().iterate_with_limits(&p, 3, 20);
        assert!(outcome.reached_fixed_point());
    }

    fn render_outcome(o: &IterationOutcome) -> String {
        let rendered: Vec<String> = o.problems.iter().map(Problem::render).collect();
        format!("{:?}\n{:?}\n{}", o.stats, o.stopped, rendered.join("\n---\n"))
    }

    #[test]
    fn session_iteration_matches_unmemoized_reference() {
        for (node, edge) in
            [("O I I I", "[O I] I"), ("M M M\nP O O", "M [P O]\nO O"), ("A A", "A A")]
        {
            let p = Problem::from_text(node, edge).unwrap();
            let reference = render_outcome(&iterate_rr_unmemoized(&p, 6, 20, &Pool::sequential()));
            let session = render_outcome(&Engine::sequential().iterate_with_limits(&p, 6, 20));
            assert_eq!(session, reference, "problem: {node} / {edge}");
        }
    }
}
