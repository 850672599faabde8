//! Output checks: every served result is compared with the bytes
//! `OpRequest::execute` produces in-process.
//!
//! Expensive results are stored with the benchmark as digests
//! (`expected.txt`, written by `--write-expected`); `zero-round`
//! results cost microseconds and are recomputed in-process before any
//! daemon starts. Either way the reference never comes from a daemon.

use crate::inputs::Key;
use relim_core::Engine;
use relim_service::client::JobReply;
use relim_service::ops::OpRequest;
use relim_service::store::digest_of;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The digest file, relative to the checkout root.
pub const EXPECTED_PATH: &str = "e2ebench/expected.txt";

/// A result's length and 128-bit FNV-1a digest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    len: usize,
    hash: String,
}

impl Fingerprint {
    fn of(result: &str) -> Fingerprint {
        Fingerprint { len: result.len(), hash: digest_of(result) }
    }
}

fn computed_in_process(op: &OpRequest) -> bool {
    matches!(op, OpRequest::ZeroRound { .. })
}

fn load_stored() -> Result<HashMap<String, Fingerprint>, String> {
    let text = std::fs::read_to_string(EXPECTED_PATH)
        .map_err(|e| format!("cannot read {EXPECTED_PATH}: {e}"))?;
    let mut out = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let mut fields = line.split_whitespace();
        let (Some(digest), Some(len), Some(hash)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("malformed line in {EXPECTED_PATH}: {line}"));
        };
        let len = len.parse().map_err(|_| format!("bad length in {EXPECTED_PATH}: {line}"))?;
        out.insert(digest.to_owned(), Fingerprint { len, hash: hash.to_owned() });
    }
    Ok(out)
}

/// The reference results of one workload's keys, indexed like the keys.
pub struct Checker {
    expected: Vec<Fingerprint>,
    digests: Vec<String>,
    /// The first verified response of each key; later responses are
    /// compared with it byte for byte, which keeps hashing off the hot
    /// path.
    verified: Vec<OnceLock<String>>,
}

impl Checker {
    /// References for `keys`: stored digests, or an in-process run for
    /// `zero-round`.
    pub fn new(keys: &[Key]) -> Result<Checker, String> {
        let stored = load_stored()?;
        let engine = Engine::sequential();
        let mut expected = Vec::with_capacity(keys.len());
        for key in keys {
            let fingerprint = if computed_in_process(&key.op) {
                let result = key.op.execute(&engine).map_err(|e| format!("{}: {e}", key.name))?;
                Fingerprint::of(&result)
            } else {
                stored.get(&key.digest).cloned().ok_or_else(|| {
                    format!("{} ({}) has no entry in {EXPECTED_PATH}", key.name, key.digest)
                })?
            };
            expected.push(fingerprint);
        }
        Ok(Checker {
            expected,
            digests: keys.iter().map(|k| k.digest.clone()).collect(),
            verified: keys.iter().map(|_| OnceLock::new()).collect(),
        })
    }

    /// The reference result length of every key.
    pub fn lens(&self) -> Vec<usize> {
        self.expected.iter().map(|f| f.len).collect()
    }

    /// Whether `reply` is the exact answer to key `index`.
    pub fn check(&self, index: usize, reply: &JobReply) -> bool {
        if reply.digest != self.digests[index] {
            return false;
        }
        if let Some(known) = self.verified[index].get() {
            return *known == reply.result;
        }
        if Fingerprint::of(&reply.result) != self.expected[index] {
            return false;
        }
        let _ = self.verified[index].set(reply.result.clone());
        true
    }
}

/// Runs every stored-digest key in-process on a fresh sequential engine
/// and writes `expected.txt`; prints each key's cost to stderr.
pub fn write_expected(keys: &[Key]) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = String::from(
        "# Reference results of the e2ebench key universes: request digest, result\n\
         # length in bytes, FNV-1a-128 of the result. Written by\n\
         # `e2ebench --write-expected` from OpRequest::execute on a sequential Engine.\n",
    );
    for key in keys.iter().filter(|k| !computed_in_process(&k.op)) {
        if !seen.insert(key.digest.clone()) {
            continue;
        }
        let engine = Engine::sequential();
        let start = Instant::now();
        let result = key.op.execute(&engine).map_err(|e| format!("{}: {e}", key.name))?;
        eprintln!(
            "{:>10.1} ms {:>6} B  {}",
            start.elapsed().as_secs_f64() * 1e3,
            result.len(),
            key.name
        );
        let fp = Fingerprint::of(&result);
        out.push_str(&format!("{} {} {}  {}\n", key.digest, fp.len, fp.hash, key.name));
    }
    std::fs::write(EXPECTED_PATH, out).map_err(|e| format!("cannot write {EXPECTED_PATH}: {e}"))
}
