//! `e2ebench` — the end-to-end benchmark of the relim daemon fleet.
//!
//! ```text
//! e2ebench --workload <cold_certificates|warm_hits|fleet_mixed> --seed N --seconds S --trace 0|1
//! e2ebench --repeat R --workload W [--seed N] [--seconds S]   # steadiness check
//! e2ebench --write-expected                                   # regenerate expected.txt
//! ```
//!
//! Daemons run in this process through the public `relim_service` API.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Run it from the
//! repository root; see `e2ebench/README.md`.

mod expected;
mod inputs;
mod layers;
mod load;
mod stats;
mod workloads;

use relim_json::Json;
use std::process::ExitCode;

/// The workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["cold_certificates", "warm_hits", "fleet_mixed"];

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        // A ratio of empty sets reads as 0, never as NaN in the JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name: name.to_owned(), value, unit }
    }
}

/// Everything one run measured.
pub struct Report {
    pub workload: String,
    pub e2e: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub notes: Vec<String>,
}

impl Report {
    fn print(&self, trace: bool) {
        println!("workload {}", self.workload);
        for note in &self.notes {
            println!("{note}");
        }
        println!("end-to-end:");
        for m in &self.e2e {
            println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        if trace {
            println!("per-layer:");
            for m in &self.per_layer {
                println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
        println!("attempted {} failed {} correct {}", self.attempted, self.failed, self.correct);
        let metrics = if trace { &self.per_layer } else { &self.e2e };
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            (
                "metrics".into(),
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Float(m.value)),
                                    ("unit".into(), Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.render_compact());
    }
}

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <{}> --seed N --seconds S --trace 0|1\n       \
         e2ebench --repeat R --workload W [--seed N] [--seconds S]\n       \
         e2ebench --write-expected",
        WORKLOADS.join("|")
    )
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = flag(args, "--seed").unwrap_or("1").parse().map_err(|_| "bad --seed")?;
    let seconds: f64 =
        flag(args, "--seconds").unwrap_or("20").parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn run(args: &Args) -> Result<Report, String> {
    // A traced run measures twice (untraced, then traced) within the same
    // time budget as an untraced one.
    let mut args = args.clone();
    if args.trace {
        args.seconds /= 2.0;
    }
    let args = &args;
    match args.workload.as_str() {
        "cold_certificates" => workloads::cold_certificates(args),
        "warm_hits" => workloads::warm_hits(args),
        "fleet_mixed" => workloads::fleet_mixed(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs the measuring command `repeats` times in child processes (so
/// each run has its own peak RSS), seeds `seed..seed+repeats`, and
/// prints each end-to-end metric's median and quartile spread against
/// its bound in `BENCHMARK.json`.
fn repeat(args: &Args, repeats: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let bench = Json::parse(&bench)?;
    let bound = |name: &str| -> Option<f64> {
        bench.get("end_to_end")?.as_arr()?.iter().find_map(|m| {
            (m.get("name")?.as_str()? == name).then(|| match m.get("bound") {
                Some(Json::Float(f)) => *f,
                Some(Json::Int(i)) => *i as f64,
                _ => 0.0,
            })
        })
    };
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    let mut all_correct = true;
    for i in 0..repeats {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = Json::parse(last).map_err(|e| format!("seed {seed}: no result line ({e})"))?;
        all_correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("seed {seed}: result has no metrics"));
        };
        let mut line = format!("seed {seed}:");
        for (name, m) in metrics {
            let v = match m.get("value") {
                Some(Json::Float(f)) => *f,
                Some(Json::Int(i)) => *i as f64,
                _ => 0.0,
            };
            line.push_str(&format!(" {name}={v:.6}"));
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
        println!("{line}");
    }
    println!("{:<18} {:>14} {:>10} {:>7}  verdict", "metric", "median", "spread", "bound");
    let mut steady = true;
    for (name, vs) in &values {
        let q = quartiles(vs);
        let spread = if q.1 == 0.0 { 0.0 } else { (q.2 - q.0) / q.1 };
        let b = bound(name).unwrap_or(0.0);
        let verdict = if spread <= b / 3.0 {
            "steady"
        } else if spread <= b {
            "within bound"
        } else {
            steady = false;
            "TOO WIDE"
        };
        println!("{name:<18} {:>14.6} {spread:>10.4} {b:>7.3}  {verdict}", q.1);
    }
    Ok(steady && all_correct)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--write-expected") {
        let mut keys = inputs::cold_population();
        keys.extend(inputs::warm_universe());
        keys.extend(inputs::fleet_cold_universe());
        keys.extend(inputs::bulk_sweeps());
        return match expected::write_expected(&keys) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(r) = flag(&argv, "--repeat") {
        let Ok(r) = r.parse::<u64>() else {
            eprintln!("error: bad --repeat\n{}", usage());
            return ExitCode::from(2);
        };
        return match repeat(&args, r) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            report.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
