//! Operation accounting: every operation the benchmark attempts, its
//! output digest, and why it failed if it did.
//!
//! An operation fails when it returns an error, when its digest differs
//! from the committed reference or from an earlier run of the same
//! operation, or when a cross-check of its output disagrees. An
//! operation counts as failed once however many checks it fails.

use std::collections::BTreeMap;

/// One attempted operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operation name, stable across runs (`passive`, `job:j07`, ...).
    pub name: String,
    /// Output digest; `None` when the operation returned an error.
    pub digest: Option<u64>,
}

/// The run's operations and failures.
#[derive(Debug, Default)]
pub struct Ledger {
    ops: Vec<Op>,
    failures: Vec<(usize, String)>,
}

impl Ledger {
    /// Record an operation's outcome; an `Err` is a failure. Returns
    /// the operation's index.
    pub fn record(&mut self, name: &str, outcome: Result<u64, String>) -> usize {
        let idx = self.ops.len();
        let digest = match outcome {
            Ok(d) => Some(d),
            Err(e) => {
                self.failures.push((idx, format!("error: {e}")));
                None
            }
        };
        self.ops.push(Op {
            name: name.to_string(),
            digest,
        });
        idx
    }

    /// Mark operation `idx` failed for `why`.
    pub fn fail(&mut self, idx: usize, why: String) {
        self.failures.push((idx, why));
    }

    /// The recorded operations, in order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    /// Distinct operations that failed at least once.
    pub fn failed(&self) -> usize {
        let mut idx: Vec<usize> = self.failures.iter().map(|(i, _)| *i).collect();
        idx.sort_unstable();
        idx.dedup();
        idx.len()
    }

    /// Every failure reason, as `(operation name, reason)`.
    pub fn failures(&self) -> Vec<(String, String)> {
        self.failures
            .iter()
            .map(|(i, why)| (self.ops[*i].name.clone(), why.clone()))
            .collect()
    }

    /// The first digest recorded under each operation name.
    pub fn first_digests(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for op in &self.ops {
            if let Some(d) = op.digest {
                out.entry(op.name.clone()).or_insert(d);
            }
        }
        out
    }

    /// Fail every operation whose digest differs from the first digest
    /// recorded under its name: repeated runs of one operation must
    /// agree.
    pub fn check_repeats(&mut self) {
        let first = self.first_digests();
        self.check_against(&first, "an earlier run", false);
    }

    /// Fail every operation whose digest differs from `reference`, or
    /// that `reference` does not list.
    pub fn check_reference(&mut self, reference: &BTreeMap<String, u64>) {
        self.check_against(reference, "the committed digest", true);
    }

    fn check_against(&mut self, reference: &BTreeMap<String, u64>, what: &str, strict: bool) {
        let mut found = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let Some(d) = op.digest else { continue };
            match reference.get(&op.name) {
                Some(&want) if want != d => found.push((
                    i,
                    format!("digest {d:016x} differs from {what} {want:016x}"),
                )),
                None if strict => found.push((i, format!("no reference digest in {what}"))),
                _ => {}
            }
        }
        self.failures.extend(found);
    }
}

/// Parse committed reference digests: one `<workload> <op> <hex>` per
/// line; `#` starts a comment. Returns the entries for `workload`.
pub fn parse_reference(text: &str, workload: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, op, hex) = (f.next()?, f.next()?, f.next()?);
            let d = u64::from_str_radix(hex, 16).ok()?;
            (w == workload).then(|| (op.to_string(), d))
        })
        .collect()
}
