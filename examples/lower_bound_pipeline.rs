//! The full lower-bound pipeline of the paper, end to end:
//!
//! 1. mechanical verification of Lemmas 6 and 8 at small Δ,
//! 2. the Lemma 13 chain and its Ω(log Δ) length (Table E9),
//! 3. the Theorem 1 / Corollary 2 bounds (Table E10).
//!
//! ```text
//! cargo run --release --example lower_bound_pipeline
//! ```

use mis_domset_lb::family::family::PiParams;
use mis_domset_lb::family::lemma8::Lemma8Machinery;
use mis_domset_lb::family::{bounds, lemma6, sequence};
use mis_domset_lb::Engine;

fn main() {
    // One engine session drives the whole pipeline: every sweep point and
    // Lemma 8 computation below shares its worker pool.
    let engine = Engine::from_env();

    // ---------------------------------------------------------------
    // Phase 1: mechanical lemma verification (engine-checked).
    // ---------------------------------------------------------------
    println!("=== Phase 1: Lemma 6 sweep (Δ = 3..6, all valid a, x) ===");
    for delta in 3..=6 {
        let reports = lemma6::verify_sweep(delta, &engine).expect("sweep");
        let ok = reports.iter().filter(|r| r.matches_paper()).count();
        println!("Δ = {delta}: {}/{} parameter points verified", ok, reports.len());
        assert_eq!(ok, reports.len());
    }

    println!("\n=== Phase 1b: Lemma 8 — full R̄(R(Π)) at Δ = 3, 4 ===");
    for (delta, a, x) in [(3u32, 2u32, 0u32), (4, 3, 0), (4, 4, 1)] {
        let params = PiParams { delta, a, x };
        let mach = Lemma8Machinery::compute(&params, &engine).expect("compute");
        let report = mach.verify();
        println!(
            "Δ={delta}, a={a}, x={x}: |Σ''|={:<3} |N''|={:<5} relaxes→Π_rel: {}  Π_rel=Π⁺: {}",
            report.rr_label_count,
            report.rr_node_config_count,
            report.all_node_configs_relax,
            report.pi_rel_equals_pi_plus,
        );
        assert!(report.matches_paper());
    }

    // ---------------------------------------------------------------
    // Phase 2: the Lemma 13 chain (experiment E9).
    // ---------------------------------------------------------------
    println!("\n=== Phase 2: chain length t(Δ, k) — the Ω(log Δ) bound (E9) ===");
    println!("{:>10} {:>8} {:>8} {:>12} {:>12}", "Δ", "t_paper", "t_exact", "t/log2Δ", "sound");
    let deltas = [8u32, 64, 512, 4096, 1 << 15, 1 << 18, 1 << 21, 1 << 24];
    for &delta in &deltas {
        let chain = sequence::paper_chain(delta, 0);
        let exact = sequence::exact_chain(delta, 0);
        println!(
            "{:>10} {:>8} {:>8} {:>12.3} {:>12}",
            delta,
            chain.length(),
            exact.length(),
            chain.slope(),
            sequence::chain_transitions_sound(&chain),
        );
    }

    // ---------------------------------------------------------------
    // Phase 3: Theorem 1 / Corollary 2 tables (experiment E10).
    // ---------------------------------------------------------------
    println!("\n=== Phase 3: Theorem 1 — min{{t(Δ,k), log_Δ n}} for n = 10^9 (E10) ===");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>12} {:>12}",
        "Δ", "t", "log_Δ n", "det LB", "log_Δ logn", "rand LB"
    );
    for row in bounds::theorem1_table(1e9, &[4, 16, 64, 256, 1024, 4096, 1 << 14, 1 << 18], 0) {
        println!(
            "{:>8} {:>6} {:>10.2} {:>10.2} {:>12.3} {:>12.3}",
            row.delta, row.t, row.det_cap, row.det_bound, row.rand_cap, row.rand_bound
        );
    }

    println!("\n=== Corollary 2: balanced Δ* and the √log n shape ===");
    println!("{:>12} {:>10} {:>12} {:>12}", "n", "Δ*", "det bound", "√log₂n");
    for exp in [6, 9, 12, 18, 24, 30] {
        let n = 10f64.powi(exp);
        let (delta_star, b) = bounds::corollary2_det(n);
        println!("{:>12.0e} {:>10} {:>12.2} {:>12.2}", n, delta_star, b, n.log2().sqrt());
    }

    println!("\nk-degradation at Δ = 2^15 (Theorem 1 requires k ≤ Δ^ε):");
    for k in [0u32, 1, 2, 4, 8, 16, 64, 256] {
        println!("  k = {:>4}: t(Δ,k) = {}", k, bounds::pn_lower_bound(1 << 15, k));
    }
}
