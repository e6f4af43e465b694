//! Per-workload-phase metric tagging (DESIGN.md §13).
//!
//! A YCSB run has distinct phases — the load phase (pure inserts or one
//! bulk load) and the run phase (the workload's operation mix) — whose
//! latency profiles must not be conflated: a p99 over "load + run" answers
//! no question anyone asks. [`PhaseRecorder`] turns a stream of cumulative
//! [`MetricsSnapshot`]s into *per-phase deltas*: call
//! [`begin`](PhaseRecorder::begin) with the current snapshot when a phase
//! starts and [`finish`](PhaseRecorder::finish) with the current snapshot
//! when it ends, and each recorded [`Phase`] holds exactly the operations
//! that phase performed (counter diffs are exact; histogram diffs are
//! bucket-wise, so the phase percentiles are as accurate as the global
//! ones).
//!
//! Only compiled with the `metrics` cargo feature.

use hot_metrics::MetricsSnapshot;

/// One completed, named workload phase and its metrics delta.
pub struct Phase {
    /// Phase label, e.g. `"load"`, `"run:C"`, `"run:E"`.
    pub name: String,
    /// Operation/ROWEX deltas for exactly this phase (structural gauges
    /// are the point-in-time values at phase end).
    pub delta: MetricsSnapshot,
}

/// Tags successive metric snapshots with workload phase names by diffing.
///
/// ```
/// use hot_ycsb::PhaseRecorder;
/// # let registry = hot_metrics::Registry::new();
/// let mut phases = PhaseRecorder::new();
/// phases.begin(registry.ops_snapshot());
/// // ... perform the load phase against the instrumented index ...
/// phases.finish("load", registry.ops_snapshot());
/// phases.begin(registry.ops_snapshot());
/// // ... perform the run phase ...
/// phases.finish("run:C", registry.ops_snapshot());
/// assert_eq!(phases.phases().len(), 2);
/// ```
#[derive(Default)]
pub struct PhaseRecorder {
    start: Option<MetricsSnapshot>,
    phases: Vec<Phase>,
}

impl PhaseRecorder {
    /// A recorder with no phases.
    pub fn new() -> PhaseRecorder {
        PhaseRecorder::default()
    }

    /// Mark a phase start: `snapshot` is the cumulative state right before
    /// the phase's first operation. Re-beginning before `finish` simply
    /// moves the start marker.
    pub fn begin(&mut self, snapshot: MetricsSnapshot) {
        self.start = Some(snapshot);
    }

    /// Close the current phase as `name`: `snapshot` is the cumulative
    /// state right after the phase's last operation. Without a matching
    /// [`begin`](Self::begin) the delta is taken from an all-zero start
    /// (i.e. the cumulative values).
    pub fn finish(&mut self, name: &str, snapshot: MetricsSnapshot) {
        let delta = match self.start.take() {
            Some(start) => snapshot.since(&start),
            None => snapshot,
        };
        self.phases.push(Phase {
            name: name.to_string(),
            delta,
        });
    }

    /// All completed phases, in recording order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Serialize all phases as one JSON object keyed by phase name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, p) in self.phases.iter().enumerate() {
            // Indent the phase's own JSON two spaces to nest legibly.
            let body = p.delta.to_json();
            let body = body.trim_end();
            out.push_str(&format!(
                "\"{}\": {}{}\n",
                p.name,
                body,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_metrics::{OpKind, Registry};

    #[test]
    fn phases_hold_exact_deltas() {
        let reg = Registry::new();
        let mut rec = PhaseRecorder::new();

        rec.begin(reg.ops_snapshot());
        for _ in 0..7 {
            reg.record_ns(OpKind::Insert, 10);
        }
        rec.finish("load", reg.ops_snapshot());

        rec.begin(reg.ops_snapshot());
        for _ in 0..13 {
            reg.record_ns(OpKind::Get, 20);
        }
        rec.finish("run:C", reg.ops_snapshot());

        let phases = rec.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "load");
        assert_eq!(phases[0].delta.op(OpKind::Insert).count, 7);
        assert_eq!(phases[0].delta.op(OpKind::Get).count, 0);
        assert_eq!(phases[1].delta.op(OpKind::Get).count, 13);
        assert_eq!(phases[1].delta.op(OpKind::Get).hist_total(), 13);
        assert_eq!(phases[1].delta.op(OpKind::Insert).count, 0);

        let json = rec.to_json();
        assert!(json.contains("\"load\"") && json.contains("\"run:C\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
