//! A flight recorder for EXPLAIN ANALYZE reports.
//!
//! Explain runs are most useful after the fact: when a drift flag
//! fires or a latency regression lands, the question is "what did the
//! last few plans *actually* cost, node by node?". This ring keeps the
//! most recent N reports (rendered JSON plus a label) behind a mutex,
//! evicting the oldest, so a service or bench can dump them as
//! JSON-lines post-hoc without ever growing unboundedly.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One retained report.
#[derive(Debug)]
struct FlightEntry {
    /// Monotone sequence number (1-based, never reused) — survives
    /// eviction, so gaps in a dump reveal how much was dropped.
    seq: u64,
    /// Caller-chosen label (plan name, query id, bench case).
    label: String,
    /// The report body as a JSON object string.
    json: String,
}

/// Fixed-capacity ring of the last N reports. All methods take
/// `&self`; the ring is safe to share behind an `Arc`.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<FlightEntry>,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` reports (`cap` is clamped to
    /// at least 1).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                next_seq: 1,
            }),
        }
    }

    /// Record one report; returns its sequence number. Evicts the
    /// oldest entry when full.
    pub fn record(&self, label: &str, report_json: &str) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let seq = g.next_seq;
        g.next_seq += 1;
        if g.ring.len() == self.cap {
            g.ring.pop_front();
        }
        g.ring.push_back(FlightEntry {
            seq,
            label: label.to_string(),
            json: report_json.to_string(),
        });
        seq
    }

    /// Number of reports currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// True when nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring as JSON-lines, oldest first: one object per line with
    /// `seq`, `label`, and the report under `report` (spliced raw — it
    /// is already JSON).
    pub fn dump_json_lines(&self) -> String {
        let g = self.inner.lock().unwrap();
        let mut out = String::new();
        for e in &g.ring {
            let mut o = crate::json::Obj::new();
            o.u64("seq", e.seq)
                .str("label", &e.label)
                .raw("report", &e.json);
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_last_n() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(&format!("q{i}"), &format!("{{\"i\":{i}}}"));
        }
        assert_eq!(fr.len(), 3);
        let g = fr.inner.lock().unwrap();
        let got: Vec<&str> = g.ring.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(got, ["q2", "q3", "q4"]);
        // Sequence numbers survive eviction: the dump reveals the gap.
        assert_eq!(g.ring[0].seq, 3);
    }

    #[test]
    fn dump_is_one_json_object_per_line() {
        let fr = FlightRecorder::new(8);
        fr.record("a", "{\"x\":1}");
        fr.record("b", "{\"x\":2}");
        let dump = fr.dump_json_lines();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"seq\":1,\"label\":\"a\",\"report\":{\"x\":1}}");
        assert_eq!(lines[1], "{\"seq\":2,\"label\":\"b\",\"report\":{\"x\":2}}");
    }

    #[test]
    fn capacity_is_clamped_and_shared_access_works() {
        let fr = std::sync::Arc::new(FlightRecorder::new(0));
        assert_eq!(fr.cap, 1);
        let fr2 = fr.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                fr2.record("t", "{}");
            }
        });
        for _ in 0..100 {
            fr.record("m", "{}");
        }
        t.join().unwrap();
        assert_eq!(fr.len(), 1);
    }
}
