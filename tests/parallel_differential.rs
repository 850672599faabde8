//! Differential property tests for the round-elimination `Engine`
//! sessions: at thread counts 1, 2 and 8, every `Engine` method must
//! produce **byte-identical** output to the sequential reference — the
//! determinism invariant the work-stealing pool promises (results are
//! collected and canonically re-sorted, so the schedule can never leak
//! into the output) — and a repeated call on the same session must
//! reproduce the first byte-for-byte. The references are the session-free
//! sequential paths (`rr_step`, `dominance_filter_reference`,
//! `iterate_rr_unmemoized`) — the deprecated pool-taking wrappers this
//! suite used to exercise served their one-release window and are gone.
//!
//! Problems are drawn from the full space of small LCLs (random non-empty
//! subsets of the node/edge configuration spaces), seeded via the standard
//! `PROPTEST_SEED` plumbing. The adversarial dominance-filter inputs
//! (all-equal cardinality signatures, singleton buckets, empty inputs,
//! empty member sets, duplicates) are pinned deterministically below the
//! property tests.

use mis_domset_lb::pool::Pool;
use mis_domset_lb::relim::autolb::{self, AutoLbOptions};
use mis_domset_lb::relim::iterate::{iterate_rr_unmemoized, IterationOutcome};
use mis_domset_lb::relim::roundelim::{
    dominance_filter, dominance_filter_reference, r_step, rr_step, universal_node_configs,
    universal_node_configs_frontier,
};
use mis_domset_lb::relim::{Alphabet, Config, Constraint, Label, LabelSet, Problem, SetConfig};
use mis_domset_lb::Engine;
use proptest::prelude::*;

/// The engine configurations every differential below sweeps: thread
/// counts 1/2/8.
fn engine_grid() -> Vec<Engine> {
    [1usize, 2, 8].into_iter().map(|threads| Engine::builder().threads(threads).build()).collect()
}

/// All multisets of `k` labels over `num_labels` labels.
fn multisets(num_labels: u8, k: u32) -> Vec<Config> {
    let labels: Vec<Label> = (0..num_labels).map(Label::new).collect();
    let mut out = Vec::new();
    let mut cur: Vec<Label> = Vec::new();
    fn rec(labels: &[Label], start: usize, k: u32, cur: &mut Vec<Label>, out: &mut Vec<Config>) {
        if k == 0 {
            out.push(Config::new(cur.clone()));
            return;
        }
        for (i, &l) in labels.iter().enumerate().skip(start) {
            cur.push(l);
            rec(labels, i, k - 1, cur, out);
            cur.pop();
        }
    }
    rec(&labels, 0, k, &mut cur, &mut out);
    out
}

/// Random small problems: any non-empty subset of the node configuration
/// space × any non-empty subset of the edge configuration space.
fn problems() -> impl Strategy<Value = Problem> {
    ((2u8..=3), (2u32..=3)).prop_flat_map(|(num_labels, delta)| {
        let node_space = multisets(num_labels, delta);
        let edge_space = multisets(num_labels, 2);
        let node_max = (1u32 << node_space.len()) - 1;
        let edge_max = (1u32 << edge_space.len()) - 1;
        ((1u32..=node_max), (1u32..=edge_max)).prop_map(move |(node_mask, edge_mask)| {
            let names: Vec<String> = (0..num_labels).map(|i| format!("L{i}")).collect();
            let pick = |space: &[Config], mask: u32| -> Vec<Config> {
                space
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, c)| c.clone())
                    .collect()
            };
            Problem::new(
                Alphabet::new(&names).expect("valid"),
                Constraint::from_configs(pick(&node_space, node_mask)).expect("non-empty"),
                Constraint::from_configs(pick(&edge_space, edge_mask)).expect("non-empty"),
            )
            .expect("valid")
        })
    })
}

/// Canonical rendering of an `rr_step` outcome, errors included (a
/// parallel run must reproduce even the failure byte-for-byte).
fn render_rr(
    outcome: &mis_domset_lb::relim::error::Result<(
        mis_domset_lb::relim::Step,
        mis_domset_lb::relim::Step,
    )>,
) -> String {
    match outcome {
        Ok((r, rr)) => format!(
            "R: {}\nprov: {:?}\nRR: {}\nprov: {:?}",
            r.problem.render(),
            r.provenance,
            rr.problem.render(),
            rr.provenance
        ),
        Err(e) => format!("error: {e:?}"),
    }
}

/// Random set-configurations of one degree — input for the dominance
/// filter differential.
fn set_configs() -> impl Strategy<Value = Vec<SetConfig>> {
    ((2u32..=4), (0u64..u64::MAX)).prop_map(|(degree, seed)| {
        // Derive a deterministic pseudo-random batch from the seed: enough
        // structure for domination chains, cheap enough for many cases.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..60)
            .map(|_| {
                SetConfig::new(
                    (0..degree).map(|_| LabelSet::from_bits((next() % 31 + 1) as u32)).collect(),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Engine::rr_step` — at threads 1/2/8, first or repeated call on a
    /// session — is byte-identical to the sequential `rr_step`, including
    /// on degenerate problems where every path must fail with the same
    /// error.
    #[test]
    fn rr_step_identical_across_engines(p in problems()) {
        let sequential = render_rr(&rr_step(&p));
        for engine in engine_grid() {
            let got = render_rr(&engine.rr_step(&p));
            prop_assert_eq!(&got, &sequential, "engine threads = {}", engine.threads());
            // A repeated step on the same session must not change a byte.
            let again = render_rr(&engine.rr_step(&p));
            prop_assert_eq!(&again, &sequential, "repeat call, threads = {}", engine.threads());
        }
    }

    /// The residual ∀-DFS emits the frontier DFS's raw `R̄` sequence at
    /// widths 1/2/8, on the problem and on its `R(·)` image.
    #[test]
    fn rbar_raw_emission_matches_frontier_dfs(p in problems()) {
        assert_raw_emission_matches_frontier(&p, "problem");
        if let Ok(r) = r_step(&p) {
            assert_raw_emission_matches_frontier(&r.problem, "R(problem)");
        }
    }

    /// The bucketed, sharded dominance filter agrees with the seed's
    /// quadratic reference at every thread count.
    #[test]
    fn dominance_filter_identical_across_thread_counts(configs in set_configs()) {
        let reference = dominance_filter_reference(configs.clone());
        for engine in engine_grid() {
            let filtered = engine.dominance_filter(configs.clone());
            prop_assert_eq!(&filtered, &reference, "threads = {}", engine.threads());
        }
    }

    /// End-to-end `Engine::iterate_with_limits` (a full fixed-point
    /// search, not a single step) is byte-identical across threads 1/2/8
    /// — and the session-free `iterate_rr_unmemoized` reference agrees
    /// exactly with it at every thread count.
    #[test]
    fn iterate_identical_across_engines(p in problems()) {
        let reference =
            render_outcome(&iterate_rr_unmemoized(&p, 4, 12, &Pool::sequential()));
        for engine in engine_grid() {
            let session = render_outcome(&engine.iterate_with_limits(&p, 4, 12));
            prop_assert_eq!(&session, &reference, "engine threads = {}", engine.threads());
        }
        for threads in [1usize, 2, 8] {
            let unmemoized =
                render_outcome(&iterate_rr_unmemoized(&p, 4, 12, &Pool::new(threads)));
            prop_assert_eq!(&unmemoized, &reference, "session-free, threads = {}", threads);
        }
    }

    /// The automatic lower-bound search through a session — any width,
    /// first call or a repeat after an unrelated call on the same
    /// session — matches the cold sequential session outcome exactly.
    #[test]
    fn autolb_identical_across_engines(p in problems()) {
        let opts = AutoLbOptions { max_steps: 2, label_budget: 5, ..Default::default() };
        let render = |o: &autolb::AutoLbOutcome| {
            let chain: Vec<String> = o.chain().map(Problem::render).collect();
            format!("{:?} {} {}", o.stopped, o.certified_rounds, chain.join("|"))
        };
        let reference = render(&Engine::sequential().auto_lower_bound(&p, &opts));
        for engine in engine_grid() {
            prop_assert_eq!(&render(&engine.auto_lower_bound(&p, &opts)), &reference,
                            "engine threads = {}", engine.threads());
            // An unrelated probe, then the same search again on the same
            // session: still byte-identical.
            engine.iterate_with_limits(&p, 1, 12);
            prop_assert_eq!(&render(&engine.auto_lower_bound(&p, &opts)), &reference,
                            "repeat call, threads = {}", engine.threads());
        }
    }
}

/// Canonical rendering of a full iteration outcome: per-step stats, stop
/// reason, and every intermediate problem's exact text.
fn render_outcome(o: &IterationOutcome) -> String {
    let rendered: Vec<String> = o.problems.iter().map(Problem::render).collect();
    format!("{:?}\n{:?}\n{}", o.stats, o.stopped, rendered.join("\n---\n"))
}

/// The production residual ∀-DFS ([`universal_node_configs`]) must emit
/// exactly the frontier DFS's raw `Vec<SetConfig>` — same configurations,
/// same order, before the dominance filter — at pool widths 1, 2 and 8.
fn assert_raw_emission_matches_frontier(p: &Problem, what: &str) {
    let reference = universal_node_configs_frontier(p).map_err(|e| format!("{e:?}"));
    for threads in [1usize, 2, 8] {
        let got = universal_node_configs(p, &Pool::new(threads)).map_err(|e| format!("{e:?}"));
        assert_eq!(got, reference, "{what}: threads = {threads}\n{}", p.render());
    }
}

fn problem(node: &str, edge: &str) -> Problem {
    Problem::from_text(node, edge).expect("valid problem")
}

/// Δ = 1: every prefix is a leaf after one candidate.
#[test]
fn rbar_raw_emission_delta_one() {
    let p = problem("A\nB", "A B\nB B");
    assert_eq!(p.delta(), 1);
    assert_raw_emission_matches_frontier(&p, "Δ = 1");
    assert_raw_emission_matches_frontier(&r_step(&p).unwrap().problem, "R(Δ = 1)");
}

/// Δ = 9 > `INLINE_DEGREE`: residual multisets start out spilled to the
/// heap and shrink back inline as the DFS descends.
#[test]
fn rbar_raw_emission_spilled_configs() {
    let p = problem("O I^8\nI^9", "O I\nI I");
    assert!(p.delta() as usize > mis_domset_lb::relim::config::INLINE_DEGREE);
    assert_raw_emission_matches_frontier(&p, "Δ = 9");
    assert_raw_emission_matches_frontier(&r_step(&p).unwrap().problem, "R(Δ = 9)");
}

/// The generator problem whose `iterate` chain grows from 3 to 7 to 81
/// labels: node `L0²L1, L0²L2, L0L1L2, L0L2², L1³, L1²L2, L1L2²`, edge
/// `L0L1, L2²`.
fn blowup_problem() -> Problem {
    problem("L0^2 L1\nL0^2 L2\nL0 L1 L2\nL0 L2^2\nL1^3\nL1^2 L2\nL1 L2^2", "L0 L1\nL2^2")
}

/// The 18-label `R(·)` image of the blow-up chain's second problem, whose
/// `R̄` step yields the 81 labels: the heaviest enumeration any
/// differential suite reaches (47,528 raw configurations for 74 maximal
/// ones).
fn blowup_heavy_rbar_input() -> Problem {
    let (_, rr) = rr_step(&blowup_problem()).unwrap();
    assert_eq!(rr.problem.alphabet().len(), 7);
    let r = r_step(&rr.problem).unwrap().problem;
    assert_eq!(r.alphabet().len(), 18);
    r
}

/// Every cheap `R̄` input of the blow-up chain against the frontier DFS;
/// the heavy step at widths 1/2/8 against its pinned sizes (the frontier
/// oracle on it takes ~30 s in a debug build: see the tier-2 test below).
#[test]
fn rbar_raw_emission_81_label_blowup() {
    let p = blowup_problem();
    assert_raw_emission_matches_frontier(&p, "blow-up problem");
    let (r, rr) = rr_step(&p).unwrap();
    assert_raw_emission_matches_frontier(&r.problem, "R(blow-up problem)");
    assert_raw_emission_matches_frontier(&rr.problem, "R̄(R(blow-up problem))");

    let heavy = blowup_heavy_rbar_input();
    let raw = universal_node_configs(&heavy, &Pool::sequential()).unwrap();
    assert_eq!(raw.len(), 47_528);
    assert_eq!(dominance_filter(raw.clone()).len(), 74);
    for threads in [2usize, 8] {
        assert!(universal_node_configs(&heavy, &Pool::new(threads)).unwrap() == raw);
    }
}

/// The heavy blow-up step against the frontier DFS oracle.
#[test]
#[ignore = "tier-2: the frontier oracle needs ~30 s in a debug build; run with --ignored in release"]
fn rbar_raw_emission_81_label_blowup_heavy_step() {
    assert_raw_emission_matches_frontier(&blowup_heavy_rbar_input(), "heavy blow-up step");
}

/// `Engine::dominance_filter` must match the seed's quadratic reference
/// on `configs` at thread counts 1, 2 and 8 (and via the sequential
/// entry point).
fn assert_matches_reference(configs: Vec<SetConfig>, what: &str) {
    let reference = dominance_filter_reference(configs.clone());
    assert_eq!(dominance_filter(configs.clone()), reference, "{what}: sequential entry point");
    for threads in [1usize, 2, 8] {
        assert_eq!(
            Engine::builder().threads(threads).build().dominance_filter(configs.clone()),
            reference,
            "{what}: threads = {threads}"
        );
    }
}

fn set(bits: u32) -> LabelSet {
    LabelSet::from_bits(bits)
}

/// All-equal cardinality signatures: every configuration has the sorted
/// cardinality vector `[2, 2]`, so the whole input lands in **one**
/// bucket and the signature pre-check can prune nothing — domination is
/// decided by support subsets and the matching alone.
#[test]
fn dominance_adversarial_all_equal_signatures() {
    let two_element_sets: Vec<LabelSet> =
        [0b0011u32, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100].map(set).to_vec();
    let mut configs = Vec::new();
    for &a in &two_element_sets {
        for &b in &two_element_sets {
            configs.push(SetConfig::new(vec![a, b]));
        }
    }
    assert_matches_reference(configs, "all-equal signatures");
}

/// Singleton buckets: pairwise distinct cardinality signatures (a strict
/// chain of nested sets), so every bucket holds exactly one configuration
/// and all domination happens *across* buckets.
#[test]
fn dominance_adversarial_singleton_buckets() {
    let chain: Vec<SetConfig> = (1..=6u32)
        .map(|k| {
            let grown = set((1 << k) - 1); // {0}, {0,1}, ..., {0..5}
            SetConfig::new(vec![set(1), grown])
        })
        .collect();
    assert_matches_reference(chain, "singleton buckets");
}

/// Empty configuration sets, in both senses: an empty *input* (no
/// configurations at all) and configurations whose member sets are
/// `LabelSet::EMPTY` (cardinality-0 positions — every set dominates
/// them, so only the all-empty equality case survives inside a bucket).
#[test]
fn dominance_adversarial_empty_inputs_and_empty_sets() {
    assert_matches_reference(Vec::new(), "empty input");

    let empty = LabelSet::EMPTY;
    let configs = vec![
        SetConfig::new(vec![empty, empty]),
        SetConfig::new(vec![empty, set(0b1)]),
        SetConfig::new(vec![set(0b1), set(0b11)]),
        SetConfig::new(vec![empty, empty]),
        SetConfig::new(vec![set(0b11), set(0b11)]),
    ];
    assert_matches_reference(configs, "empty member sets");
}

/// Exact duplicates never dominate each other (domination is strict), so
/// every copy must survive — a classic fast-path trap.
#[test]
fn dominance_adversarial_duplicates_survive_together() {
    let dup = SetConfig::new(vec![set(0b01), set(0b01)]);
    let bigger = SetConfig::new(vec![set(0b11), set(0b01)]);
    let configs = vec![dup.clone(), dup.clone(), dup.clone(), bigger.clone()];
    let reference = dominance_filter_reference(configs.clone());
    // The duplicates are all dominated by `bigger`; `bigger` survives.
    assert_eq!(reference, vec![bigger.clone()]);
    assert_matches_reference(configs, "duplicates with a dominator");

    // Without a dominator, all copies survive together.
    let configs = vec![dup.clone(), dup.clone(), dup];
    let reference = dominance_filter_reference(configs.clone());
    assert_eq!(reference.len(), 3);
    assert_matches_reference(configs, "duplicates alone");
}

/// A single configuration short-circuits every path; degree-0
/// configurations (empty position lists) exercise the trivial-matching
/// corner.
#[test]
fn dominance_adversarial_degenerate_shapes() {
    let lone = vec![SetConfig::new(vec![set(0b1), set(0b10)])];
    assert_matches_reference(lone, "single configuration");

    let degree_zero = vec![SetConfig::new(Vec::new()), SetConfig::new(Vec::new())];
    assert_matches_reference(degree_zero, "degree-0 configurations");
}
