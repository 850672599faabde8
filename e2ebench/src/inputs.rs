//! Request generation: the fixed key universes of the three workloads,
//! their spellings, and the seeded choices made over them.
//!
//! Every universe is fixed (independent of the seed); the seed only
//! shuffles, samples and spells. That keeps the stored expected-output
//! digests (`expected.txt`) valid for every seed.

use lb_family::family::{mis, pi, pi_plus, sweep_points, PiParams};
use relim_core::Problem;
use relim_service::ops::{Criterion, OpRequest};

/// splitmix64: a small, seedable, reproducible generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) sampling over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One named problem of the paper's families.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub problem: Problem,
}

fn named(name: String, problem: relim_core::error::Result<Problem>) -> Named {
    Named { name, problem: problem.expect("family parameters are valid") }
}

/// `mis(Δ)` for each `Δ` of `mis_deltas`, then `Π` and `Π⁺` at every
/// sweep point of each `Δ` of `family_deltas`.
pub fn paper_problems(mis_deltas: &[u32], family_deltas: &[u32]) -> Vec<Named> {
    let mut out: Vec<Named> =
        mis_deltas.iter().map(|&d| named(format!("mis({d})"), mis(d))).collect();
    for &d in family_deltas {
        for PiParams { delta, a, x } in sweep_points(d) {
            let params = PiParams { delta, a, x };
            out.push(named(format!("pi({delta},{a},{x})"), pi(&params)));
            out.push(named(format!("pi+({delta},{a},{x})"), pi_plus(&params)));
        }
    }
    out
}

/// The seven `Δ = 3` problems: `mis(3)`, `Π_3` and `Π⁺_3` at each sweep
/// point.
pub fn delta3_problems() -> Vec<Named> {
    paper_problems(&[3], &[3])
}

/// How a request spells its constraints. Every spelling of one problem
/// has the same canonical key; the daemon's parse and canonicalisation
/// do the work of finding that out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spelling {
    /// `;` between configuration lines instead of a newline.
    pub semicolons: bool,
    /// `M M X` instead of `M^2 X`.
    pub expanded: bool,
}

pub const CANONICAL: Spelling = Spelling { semicolons: false, expanded: false };

pub const SPELLINGS: [Spelling; 4] = [
    CANONICAL,
    Spelling { semicolons: true, expanded: false },
    Spelling { semicolons: false, expanded: true },
    Spelling { semicolons: true, expanded: true },
];

fn spell_constraint(p: &Problem, node: bool, spelling: Spelling, suffix: &str) -> String {
    let constraint = if node { p.node() } else { p.edge() };
    let lines: Vec<String> = constraint
        .iter()
        .map(|config| {
            let mut parts = Vec::new();
            for (label, count) in config.counts() {
                let name = format!("{}{suffix}", p.alphabet().name(label));
                if spelling.expanded {
                    parts.extend(std::iter::repeat_n(name.clone(), count as usize));
                } else if count == 1 {
                    parts.push(name);
                } else {
                    parts.push(format!("{name}^{count}"));
                }
            }
            parts.join(" ")
        })
        .collect();
    lines.join(if spelling.semicolons { ";" } else { "\n" })
}

/// `(node, edge)` constraint text of `p` in `spelling`.
pub fn spell(p: &Problem, spelling: Spelling) -> (String, String) {
    (spell_constraint(p, true, spelling, ""), spell_constraint(p, false, spelling, ""))
}

/// `op` with its constraint text replaced (sweeps have none and are
/// returned unchanged). The text is put on the wire as given: `;`
/// survives to the daemon, which normalises it.
pub fn respell(op: &OpRequest, p: &Problem, spelling: Spelling) -> OpRequest {
    let (n, e) = spell(p, spelling);
    let mut op = op.clone();
    match &mut op {
        OpRequest::AutoLb { node, edge, .. }
        | OpRequest::AutoUb { node, edge, .. }
        | OpRequest::Iterate { node, edge, .. }
        | OpRequest::ZeroRound { node, edge } => {
            *node = n;
            *edge = e;
        }
        OpRequest::Sweep { .. } => {}
    }
    op
}

/// One request of a key universe: the canonical op, its problem (for
/// respelling) and a short human name.
#[derive(Debug, Clone)]
pub struct Key {
    pub name: String,
    pub op: OpRequest,
    pub problem: Option<Problem>,
    pub digest: String,
}

impl Key {
    fn new(name: String, op: OpRequest, problem: Option<Problem>) -> Key {
        let digest = op.digest().expect("generated requests are valid");
        Key { name, op, problem, digest }
    }

    /// This key's request in `spelling` (the canonical op for sweeps).
    pub fn spelled(&self, spelling: Spelling) -> OpRequest {
        match &self.problem {
            Some(p) if spelling != CANONICAL => respell(&self.op, p, spelling),
            _ => self.op.clone(),
        }
    }
}

fn text(p: &Problem) -> (String, String) {
    spell(p, CANONICAL)
}

pub fn autolb_key(n: &Named, max_steps: usize, labels: usize) -> Key {
    let (node, edge) = text(&n.problem);
    let op = OpRequest::AutoLb { node, edge, max_steps, labels, criterion: Criterion::Gadget };
    Key::new(format!("autolb/{max_steps}/{labels} {}", n.name), op, Some(n.problem.clone()))
}

pub fn iterate_key(n: &Named, max_steps: usize, label_limit: usize) -> Key {
    let (node, edge) = text(&n.problem);
    let op = OpRequest::Iterate { node, edge, max_steps, label_limit };
    Key::new(format!("iterate/{max_steps}/{label_limit} {}", n.name), op, Some(n.problem.clone()))
}

pub fn autoub_key(n: &Named) -> Key {
    let (node, edge) = text(&n.problem);
    let op = OpRequest::auto_ub(&node, &edge).expect("family problems parse");
    Key::new(format!("autoub {}", n.name), op, Some(n.problem.clone()))
}

pub fn zero_round_key(n: &Named) -> Key {
    let (node, edge) = text(&n.problem);
    let op = OpRequest::zero_round(&node, &edge).expect("family problems parse");
    Key::new(format!("zero-round {}", n.name), op, Some(n.problem.clone()))
}

pub fn sweep_key(delta: u32, lemma: u32) -> Key {
    let op = OpRequest::sweep(delta, lemma).expect("servable sweep");
    Key::new(format!("sweep lemma{lemma} Δ={delta}"), op, None)
}

/// CLI-default budgets (`autolb` 6/6, `iterate` 5/16).
pub fn default_autolb(n: &Named) -> Key {
    autolb_key(n, 6, 6)
}

pub fn default_iterate(n: &Named) -> Key {
    iterate_key(n, 5, 16)
}

/// `p` with `suffix` appended to every label name: the same problem up
/// to naming, hence a distinct canonical key with the same cost.
fn renamed(n: &Named, suffix: &str) -> Named {
    let node = spell_constraint(&n.problem, true, CANONICAL, suffix);
    let edge = spell_constraint(&n.problem, false, CANONICAL, suffix);
    let problem = Problem::from_text(&node, &edge).expect("renamed family problems parse");
    Named { name: format!("{}{suffix}", n.name), problem }
}

/// `cold_certificates`: the paper population. `mis(Δ)` for Δ ∈ {3,4,5}
/// and `Π`/`Π⁺` at every sweep point of `Δ = 3` (9 problems), each with
/// `autolb` and `iterate` at CLI defaults, plus `autoub` on the seven
/// `Δ = 3` problems: 25 distinct keys. The `Δ = 4` family level (12
/// problems, about 19 s of the 21 s of CPU a pass would otherwise cost)
/// is trimmed whole so that a run holds many passes; see README.md.
pub fn cold_population() -> Vec<Key> {
    let mut keys = Vec::new();
    for n in paper_problems(&[3, 4, 5], &[3]) {
        keys.push(default_autolb(&n));
        keys.push(default_iterate(&n));
        if n.problem.delta() == 3 {
            keys.push(autoub_key(&n));
        }
    }
    keys
}

/// Problems whose one-step `iterate` costs at most tens of
/// milliseconds: `mis(3..=8)`, and `Π`/`Π⁺` at `Δ = 3` and `Π` at
/// `Δ = 4` (`Π⁺_3(3,0)` excepted: it alone costs about 90 ms a step).
fn cheap_iterate_problems() -> Vec<Named> {
    let mut out = paper_problems(&[3, 4, 5, 6, 7, 8], &[3]);
    out.retain(|n| n.name != "pi+(3,3,0)");
    out.extend(paper_problems(&[], &[4]).into_iter().filter(|n| n.name.starts_with("pi(")));
    out
}

/// The warm key universe (`warm_hits`, and the warm share of
/// `fleet_mixed`): `zero-round` on `mis(2..=12)` and on `Π`/`Π⁺` at every
/// sweep point of `Δ = 3..=8`, one- and two-step `iterate` on cheap
/// problems at three label limits, and the `Δ = 3` `autolb` and `autoub`
/// certificates. Payloads run from about 90 B to 5 KB.
pub fn warm_universe() -> Vec<Key> {
    let mut keys: Vec<Key> = paper_problems(&(2..=12).collect::<Vec<_>>(), &[3, 4, 5, 6, 7, 8])
        .iter()
        .map(zero_round_key)
        .collect();
    for n in cheap_iterate_problems() {
        for limit in [8, 12, 16] {
            keys.push(iterate_key(&n, 1, limit));
        }
    }
    for n in delta3_problems() {
        keys.push(iterate_key(&n, 2, 16));
        keys.push(default_autolb(&n));
        keys.push(autoub_key(&n));
    }
    keys
}

/// Label renamings that make the first-read pool.
const RENAMINGS: [&str; 6] = ["_a", "_b", "_c", "_d", "_e", "_f"];

/// `fleet_mixed` first reads: `zero-round` on label-renamed copies of
/// the warm `zero-round` problems, pre-warmed only at their ring owner
/// (each run uses about 525 of these 1062).
pub fn first_read_pool() -> Vec<Key> {
    let base = paper_problems(&(2..=12).collect::<Vec<_>>(), &[3, 4, 5, 6, 7, 8]);
    RENAMINGS
        .iter()
        .flat_map(|suffix| base.iter().map(move |n| zero_round_key(&renamed(n, suffix))))
        .collect()
}

/// `fleet_mixed` cold computes: `autolb` and `iterate` on the seven
/// `Δ = 3` problems at non-default budgets (`autolb` steps 1..=6 ×
/// labels 4..=10, `iterate` steps 1..=4 × limits 8..=16), minus any key
/// the warm universe already holds.
pub fn fleet_cold_universe() -> Vec<Key> {
    let warm: std::collections::HashSet<String> =
        warm_universe().into_iter().map(|k| k.digest).collect();
    let mut keys = Vec::new();
    for n in delta3_problems() {
        for steps in 1..=6 {
            for labels in 4..=10 {
                keys.push(autolb_key(&n, steps, labels));
            }
        }
        for steps in 1..=4 {
            for limit in 8..=16 {
                keys.push(iterate_key(&n, steps, limit));
            }
        }
    }
    keys.retain(|k| !warm.contains(&k.digest));
    keys
}

/// `fleet_mixed` bulk sweeps: Lemma 6 at `Δ = 3..=7`, Lemma 8 at
/// `Δ = 3..=5`, as two bursts of four, each heaviest first (Lemma 8
/// `Δ = 5` about 1.3 s, Lemma 6 `Δ = 7` 190 ms; Lemma 8 `Δ = 4` 85 ms,
/// Lemma 6 `Δ = 6` 57 ms; the rest under 16 ms).
pub fn bulk_sweeps() -> Vec<Key> {
    [(5, 8), (7, 6), (3, 6), (3, 8), (4, 8), (6, 6), (5, 6), (4, 6)]
        .into_iter()
        .map(|(delta, lemma)| sweep_key(delta, lemma))
        .collect()
}
