//! The slow-query ring buffer: the last N requests that crossed the
//! `--slow-query-micros` threshold, each with the context an operator
//! actually needs — the request line itself, the cache outcome, and the
//! request's span tree when it was traced. Replaces the old one-line
//! stderr log: instead of tailing a process's stderr, `METRICS SLOW`
//! reads the ring over the wire from any server or router.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::trace::SpanRec;

/// One slow request, captured at response time by the dispatcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// The request verb (`RUN`, `QUERY`).
    pub verb: String,
    /// The raw request line as received.
    pub line: String,
    /// Where the answer came from: a cache-tier label (`cache: result
    /// hit`, `router cache: result hit`, …), `bypass`, or `routed`.
    pub outcome: String,
    /// Request wall time, microseconds.
    pub micros: u64,
    /// The request's span tree (empty when untraced).
    pub spans: Vec<SpanRec>,
}

impl SlowEntry {
    /// Renders the entry's `METRICS SLOW` body line (the span lines
    /// follow separately, one `# span <wire>` each).
    pub fn wire(&self) -> String {
        format!(
            "slow verb={} micros={} outcome=\"{}\" | {}",
            self.verb, self.micros, self.outcome, self.line
        )
    }
}

/// A bounded, internally synchronized ring of [`SlowEntry`]s — newest
/// last, oldest evicted first. Pushes are rare by construction (only
/// requests past the slow threshold), so a mutex is fine here.
#[derive(Debug)]
pub struct SlowRing {
    cap: usize,
    entries: Mutex<VecDeque<SlowEntry>>,
}

impl SlowRing {
    /// Default ring capacity: enough to hold a burst without unbounded
    /// growth on a pathological workload.
    pub const DEFAULT_CAP: usize = 32;

    /// Creates a ring holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an entry, evicting the oldest once full.
    pub fn push(&self, entry: SlowEntry) {
        let mut q = self.entries.lock().expect("slow ring lock");
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(entry);
    }

    /// The current contents, oldest first.
    pub fn snapshot(&self) -> Vec<SlowEntry> {
        self.entries
            .lock()
            .expect("slow ring lock")
            .iter()
            .cloned()
            .collect()
    }
}

impl Default for SlowRing {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> SlowEntry {
        SlowEntry {
            verb: "RUN".to_string(),
            line: format!("RUN q{n}"),
            outcome: "cache: cold".to_string(),
            micros: n,
            spans: Vec::new(),
        }
    }

    #[test]
    fn ring_keeps_the_newest_cap_entries_in_order() {
        let ring = SlowRing::new(3);
        for n in 0..5 {
            ring.push(entry(n));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(|e| e.micros).collect();
        assert_eq!(got, [2, 3, 4]);
    }

    #[test]
    fn wire_line_carries_verb_outcome_and_the_raw_request() {
        let e = SlowEntry {
            verb: "QUERY".to_string(),
            line: "QUERY fact=lineorder agg=sum(lo_revenue):r".to_string(),
            outcome: "router cache: result hit".to_string(),
            micros: 1234,
            spans: Vec::new(),
        };
        assert_eq!(
            e.wire(),
            "slow verb=QUERY micros=1234 outcome=\"router cache: result hit\" \
             | QUERY fact=lineorder agg=sum(lo_revenue):r"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = SlowRing::new(0);
        ring.push(entry(1));
        ring.push(entry(2));
        assert_eq!(ring.snapshot().len(), 1);
    }
}
