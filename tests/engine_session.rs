//! Session-level behavior of `relim_core::engine::Engine`: one pool
//! handle and one set of counters owned by the session and shared by
//! every clone of the handle. The assertions here are the acceptance
//! criteria of the session API: repeated searches on one session, and
//! clones of it running on other threads, reproduce a fresh session's
//! output byte-for-byte, the builder knobs are observable and never
//! change a byte, and `EngineReport` counts what actually ran.

use mis_domset_lb::family::family;
use mis_domset_lb::relim::autolb::AutoLbOptions;
use mis_domset_lb::relim::autoub::AutoUbOptions;
use mis_domset_lb::relim::iterate::IterationOutcome;
use mis_domset_lb::relim::Problem;
use mis_domset_lb::Engine;
use std::sync::{Arc, Barrier};

fn sinkless() -> Problem {
    Problem::from_text("O I I", "[O I] I").unwrap()
}

/// The full observable surface of an iteration: stats, stop reason and
/// every intermediate problem, rendered.
fn render_iteration(o: &IterationOutcome) -> String {
    let rendered: Vec<String> = o.problems.iter().map(Problem::render).collect();
    format!("{:?}\n{:?}\n{}", o.stats, o.stopped, rendered.join("\n---\n"))
}

/// An `iterate` probe followed by two `autolb` merge searches on the same
/// session: both searches match each other and a cold session's search
/// byte-for-byte, and the report counts every run.
#[test]
fn autolb_repeat_searches_on_one_session_are_byte_identical() {
    let engine = Engine::sequential();
    let so = sinkless();
    engine.iterate_with_limits(&so, 1, 20);

    let first = engine.auto_lower_bound(&so, &AutoLbOptions::default());
    assert!(first.unbounded());
    let second = engine.auto_lower_bound(&so, &AutoLbOptions::default());
    let report = engine.report();
    assert_eq!((report.iterate_runs, report.autolb_runs), (1, 2), "{report:?}");

    let render = |o: &mis_domset_lb::relim::autolb::AutoLbOutcome| {
        let chain: Vec<String> = o.chain().map(Problem::render).collect();
        format!("{:?} {} {}", o.stopped, o.certified_rounds, chain.join("|"))
    };
    assert_eq!(render(&first), render(&second), "a repeat search changed the outcome");
    let cold = Engine::sequential().auto_lower_bound(&so, &AutoLbOptions::default());
    assert_eq!(render(&first), render(&cold), "session reuse changed the outcome");
}

/// Sinkless orientation never becomes trivial, so one `autoub` chain
/// runs to its step budget: exactly one `R̄(R(·))` per step.
#[test]
fn autoub_chain_on_a_fixed_point_runs_to_its_step_budget() {
    let engine = Engine::sequential();
    let opts = AutoUbOptions { max_steps: 3, label_budget: 20, coloring: None };
    let outcome = engine.auto_upper_bound(&sinkless(), &opts);
    assert!(outcome.bound.is_none(), "sinkless orientation never becomes trivial");
    let report = engine.report();
    assert_eq!((report.autoub_runs, report.r_steps, report.rbar_steps), (1, 3, 3), "{report:?}");
}

/// Every builder knob is echoed or obeyed, and none changes a byte: a
/// wide, lineage-recording session iterating on its builder defaults
/// matches a plain sequential session given the same limits.
#[test]
fn builder_knobs_are_observable_and_output_neutral() {
    let mis = family::mis(3).unwrap();
    let plain = Engine::builder().threads(1).build();
    let tuned =
        Engine::builder().threads(2).max_steps(3).label_limit(20).record_lineage(true).build();
    let a = plain.iterate_with_limits(&mis, 3, 20);
    let b = tuned.iterate(&mis);
    assert_eq!(render_iteration(&a), render_iteration(&b));
    let (plain, tuned) = (plain.report(), tuned.report());
    assert_eq!((plain.threads, tuned.threads), (1, 2));
    assert!(!plain.record_lineage && tuned.record_lineage);
    assert!(tuned.lineage_nodes >= 1, "{tuned:?}");
    assert_eq!(plain.rbar_steps, tuned.rbar_steps, "same limits, same steps");
}

/// A workload mixing a fixed point, doubly-exponential growth, a trivial
/// problem and a second fixed point, as `(node, edge, max_steps,
/// label_limit)`.
const CLONE_WORKLOAD: &[(&str, &str, usize, usize)] = &[
    ("O I I", "[O I] I", 4, 20),
    ("M M M\nP O O", "M [P O]\nO O", 2, 20),
    ("A A", "A A", 3, 20),
    ("O I I I", "[O I] I", 4, 20),
];

/// One session handle fans out across a sweep and across threads: clones
/// share the counters, the sweep's outputs match a cold session's, and M
/// threads running clones of one session — each walking the workload from
/// a different offset, started together — match a fresh sequential
/// session byte-for-byte.
#[test]
fn sweep_clones_share_the_session() {
    use mis_domset_lb::family::lemma6;
    let engine = Engine::builder().threads(2).build();
    let sweep = lemma6::verify_sweep(4, &engine).unwrap();
    let cold = lemma6::verify_sweep(4, &Engine::sequential()).unwrap();
    assert_eq!(format!("{sweep:?}"), format!("{cold:?}"));
    assert!(engine.report().map_batches >= 1, "the sweep must go through the session");

    let references: Vec<String> = CLONE_WORKLOAD
        .iter()
        .map(|&(node, edge, steps, limit)| {
            let p = Problem::from_text(node, edge).unwrap();
            render_iteration(&Engine::sequential().iterate_with_limits(&p, steps, limit))
        })
        .collect();
    let threads = 4;
    let shared = Engine::sequential();
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = shared.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (0..CLONE_WORKLOAD.len())
                    .map(|i| {
                        let idx = (i + t) % CLONE_WORKLOAD.len();
                        let (node, edge, steps, limit) = CLONE_WORKLOAD[idx];
                        let p = Problem::from_text(node, edge).unwrap();
                        (idx, render_iteration(&engine.iterate_with_limits(&p, steps, limit)))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        for (idx, got) in handle.join().expect("clone thread panicked") {
            assert_eq!(got, references[idx], "problem #{idx} drifted on a shared session");
        }
    }
    let report = shared.report();
    assert_eq!(report.iterate_runs, (threads * CLONE_WORKLOAD.len()) as u64, "{report:?}");
}

/// The report's operator counters track what actually ran.
#[test]
fn report_counts_session_operators() {
    let engine = Engine::sequential();
    let mis = family::mis(3).unwrap();
    engine.rr_step(&mis).unwrap();
    engine.iterate_with_limits(&mis, 1, 40);
    engine.auto_lower_bound(&mis, &AutoLbOptions { max_steps: 1, ..Default::default() });
    let report = engine.report();
    assert_eq!(report.iterate_runs, 1);
    assert_eq!(report.autolb_runs, 1);
    assert!(report.r_steps >= 3, "{report:?}");
    assert!(report.rbar_steps >= 3, "{report:?}");
    assert_eq!(report.threads, 1);
}
