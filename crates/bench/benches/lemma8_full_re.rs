//! E5: the full `R̄(R(Π_Δ(a,x)))` computation and its Lemma 8 relaxation —
//! the step the paper reasons about without computing, done exactly.

use bench::shared_engine;
use criterion::{criterion_group, criterion_main, Criterion};
use lb_family::family::PiParams;
use lb_family::lemma8::Lemma8Machinery;

fn print_tables() {
    println!("\n[E5/Lemma 8] full RR computation + relaxation check:");
    println!(
        "{:>4} {:>3} {:>3} {:>9} {:>8} {:>9} {:>9}",
        "D", "a", "x", "|Sigma''|", "|N''|", "relaxes", "rel=plus"
    );
    let engine = shared_engine();
    let grid: Vec<PiParams> = [
        (3u32, 2u32, 0u32),
        (4, 2, 0),
        (4, 3, 0),
        (4, 3, 1),
        (4, 4, 0),
        (4, 4, 1),
        (4, 4, 2),
        (5, 3, 0),
        (5, 4, 1),
        (5, 5, 2),
    ]
    .into_iter()
    .map(|(delta, a, x)| PiParams { delta, a, x })
    .filter(PiParams::lemma6_applicable)
    .collect();
    // The grid is submitted to the session's persistent workers; rows
    // print in grid order, and every point runs on the one session.
    let session = engine.clone();
    for row in engine.map_owned(grid, move |params| {
        let mach = Lemma8Machinery::compute(params, &session).expect("compute");
        let report = mach.verify();
        assert!(report.matches_paper(), "Lemma 8 must verify at {params:?}");
        format!(
            "{:>4} {:>3} {:>3} {:>9} {:>8} {:>9} {:>9}",
            params.delta,
            params.a,
            params.x,
            report.rr_label_count,
            report.rr_node_config_count,
            report.all_node_configs_relax,
            report.pi_rel_equals_pi_plus
        )
    }) {
        println!("{row}");
    }
}

fn bench(c: &mut Criterion) {
    print_tables();
    for (delta, a, x) in [(3u32, 2u32, 0u32), (4, 3, 0), (5, 4, 1)] {
        let params = PiParams { delta, a, x };
        c.bench_function(&format!("lemma8_full_rr_d{delta}_a{a}_x{x}"), |b| {
            let engine = shared_engine();
            b.iter(|| {
                let mach = Lemma8Machinery::compute(&params, &engine).expect("compute");
                assert!(mach.verify().matches_paper());
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
