//! Output digests: FNV-64 over each operation's results.
//!
//! A digest covers every field that is a deterministic function of the
//! operation's inputs, written through `Debug` (exact for floats, which
//! print their shortest round-trip form) or as raw bits. Hash sets are
//! sorted first, since their iteration order changes per process; the
//! energy ledgers (hash maps) are covered through the rendered reports
//! instead. Cache attribution is left out of job digests: it describes
//! how a job was served, not what it produced.

use satiot_core::sweep_server::JobRecord;
use satiot_core::{ActiveResults, PassiveResults};
use satiot_terrestrial::campaign::TerrestrialResults;
use std::collections::HashSet;
use std::fmt::{self, Debug, Write};

/// Streaming FNV-1a 64-bit hasher that `Debug` output can be written
/// into without building the string.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hash raw bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash a `u64` (little-endian bytes).
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hash a value's `Debug` rendering, followed by a separator.
    pub fn debug<T: Debug + ?Sized>(&mut self, v: &T) {
        write!(self, "{v:?};").expect("hashing never fails");
    }

    /// Hash a hash set in sorted order.
    fn sorted_set(&mut self, set: &HashSet<u64>) {
        let mut v: Vec<u64> = set.iter().copied().collect();
        v.sort_unstable();
        self.debug(&v);
    }

    /// The digest so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a passive campaign's results: pass records, decoded
/// traces, sketch, faults and sink accounting.
pub fn passive(r: &PassiveResults) -> u64 {
    let mut h = Fnv::default();
    h.debug(&r.passes);
    h.debug(&r.traces.traces);
    h.debug(&r.sketch);
    h.debug(&r.faults);
    h.debug(&r.sink);
    h.finish()
}

/// Digest of an active campaign's results.
pub fn active(r: &ActiveResults) -> u64 {
    let mut h = Fnv::default();
    h.debug(&r.timelines);
    h.debug(&r.latency_min);
    h.debug(&r.sent);
    h.sorted_set(&r.delivered_seqs);
    h.debug(&r.counters);
    h.debug(&r.node_drop_ratio);
    h.u64(r.server.arrivals);
    h.u64(r.horizon_s.to_bits());
    h.debug(&r.faults);
    h.finish()
}

/// Digest of a terrestrial campaign's results.
pub fn terrestrial(r: &TerrestrialResults) -> u64 {
    let mut h = Fnv::default();
    h.debug(&r.timelines);
    h.debug(&r.sent);
    h.sorted_set(&r.delivered_seqs);
    h.u64(r.horizon_s.to_bits());
    h.debug(&r.faults);
    h.finish()
}

/// Digest of a sweep job's record: its spec, fingerprint, RNG stream
/// position, trace and fault counts, per-constellation outcomes and
/// sketch.
pub fn job(r: &JobRecord) -> u64 {
    let mut h = Fnv::default();
    h.debug(&r.job);
    h.u64(r.fingerprint);
    h.debug(&r.rng_state);
    h.u64(r.traces_total);
    h.u64(r.emitted);
    h.u64(r.faults);
    h.debug(&r.constellations);
    h.debug(&r.sketch);
    h.finish()
}

/// Digest of rendered text.
pub fn text(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    h.finish()
}
