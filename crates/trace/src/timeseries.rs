//! Fixed-interval time-series sampling.
//!
//! The harness drives a [`TimeseriesRecorder`] from a periodic sim event
//! scheduled *outside* every RNG stream: each sample is a pure read of
//! queue depths, event-queue volume, the channel's last-observed class
//! census and the recorder's own per-flow counters, so enabling the
//! sampler cannot perturb a trial (pinned by `tests/trace_identity.rs`).

use std::fmt::Write;

use rica_metrics::json::{push_array, push_u64};
use rica_net::FlowId;

/// One fixed-interval snapshot of simulator state.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Sample time (sim nanoseconds).
    pub t_ns: u64,
    /// Events still scheduled in the event queue.
    pub pending_events: usize,
    /// Events popped since the trial started.
    pub popped_events: u64,
    /// Control packets queued at MACs, summed over terminals.
    pub ctrl_queued: usize,
    /// Data packets queued on pair links, summed over terminals.
    pub data_queued: usize,
    /// Pair links with a transmission in flight.
    pub links_in_flight: usize,
    /// Last-observed channel-class census over instantiated pairs,
    /// indexed A = 0 … D = 3.
    pub class_census: [usize; 4],
    /// Cumulative generated packet count per flow at sample time.
    pub flow_generated: Vec<u64>,
    /// Cumulative delivered packet count per flow at sample time.
    pub flow_delivered: Vec<u64>,
}

/// Accumulates [`SampleRow`]s plus the per-flow offered/delivered
/// counters they snapshot, and renders the `timeseries` JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeseriesRecorder {
    interval_ns: u64,
    rows: Vec<SampleRow>,
    flow_generated: Vec<u64>,
    flow_delivered: Vec<u64>,
}

impl TimeseriesRecorder {
    /// A recorder sampling every `interval_ns` sim nanoseconds for a
    /// trial with `flows` flows.
    pub fn new(interval_ns: u64, flows: usize) -> TimeseriesRecorder {
        assert!(interval_ns > 0, "sampling interval must be positive");
        TimeseriesRecorder {
            interval_ns,
            rows: Vec::new(),
            flow_generated: vec![0; flows],
            flow_delivered: vec![0; flows],
        }
    }

    /// The sampling interval (sim nanoseconds).
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Counts one generated packet on `flow`.
    #[inline]
    pub fn note_generated(&mut self, flow: FlowId) {
        self.flow_generated[flow.index()] += 1;
    }

    /// Counts one delivered packet on `flow`.
    #[inline]
    pub fn note_delivered(&mut self, flow: FlowId) {
        self.flow_delivered[flow.index()] += 1;
    }

    /// Records one sample; the per-flow columns snapshot the recorder's
    /// own cumulative counters.
    pub fn push_row(
        &mut self,
        t_ns: u64,
        pending_events: usize,
        popped_events: u64,
        ctrl_queued: usize,
        data_queued: usize,
        links_in_flight: usize,
        class_census: [usize; 4],
    ) {
        self.rows.push(SampleRow {
            t_ns,
            pending_events,
            popped_events,
            ctrl_queued,
            data_queued,
            links_in_flight,
            class_census,
            flow_generated: self.flow_generated.clone(),
            flow_delivered: self.flow_delivered.clone(),
        });
    }

    /// The samples recorded so far.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Renders the artifact: one JSON document with the schema version,
    /// the interval, and a `samples` array (row fields in [`SampleRow`]
    /// order; times are integer sim nanoseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.rows.len() * 160);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"rica-timeseries-v1\",\n  \"interval_ns\": {},\n  \"flows\": {},\n  \"samples\": [",
            self.interval_ns,
            self.flow_generated.len()
        );
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"pending_events\":{},\"popped_events\":{},\"ctrl_queued\":{},\"data_queued\":{},\"links_in_flight\":{}",
                row.t_ns,
                row.pending_events,
                row.popped_events,
                row.ctrl_queued,
                row.data_queued,
                row.links_in_flight
            );
            out.push_str(",\"class_census\":");
            push_array(&mut out, row.class_census.iter().map(|&n| n as u64), push_u64);
            out.push_str(",\"flow_generated\":");
            push_array(&mut out, row.flow_generated.iter().copied(), push_u64);
            out.push_str(",\"flow_delivered\":");
            push_array(&mut out, row.flow_delivered.iter().copied(), push_u64);
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_snapshot_cumulative_flow_counters() {
        let mut ts = TimeseriesRecorder::new(1_000_000_000, 2);
        ts.note_generated(FlowId(0));
        ts.push_row(0, 1, 2, 3, 4, 5, [1, 0, 0, 0]);
        ts.note_generated(FlowId(1));
        ts.note_delivered(FlowId(0));
        ts.push_row(1_000_000_000, 1, 2, 3, 4, 5, [0, 1, 0, 0]);
        assert_eq!(ts.rows()[0].flow_generated, vec![1, 0]);
        assert_eq!(ts.rows()[0].flow_delivered, vec![0, 0]);
        assert_eq!(ts.rows()[1].flow_generated, vec![1, 1]);
        assert_eq!(ts.rows()[1].flow_delivered, vec![1, 0]);
    }

    #[test]
    fn json_artifact_shape() {
        let mut ts = TimeseriesRecorder::new(500, 1);
        ts.push_row(0, 0, 0, 0, 0, 0, [0, 0, 0, 0]);
        ts.push_row(500, 9, 8, 7, 6, 5, [4, 3, 2, 1]);
        let doc = ts.to_json();
        assert!(doc.contains("\"schema\": \"rica-timeseries-v1\""));
        assert!(doc.contains("\"class_census\":[4,3,2,1]"));
        let v = rica_metrics::parse_json(&doc).expect("the artifact is JSON");
        assert_eq!(v.u64_at("interval_ns"), Ok(500));
        let samples = v.array_at("samples").unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].u64_at("t_ns"), Ok(500));
        assert_eq!(samples[1].array_at("flow_generated").unwrap().len(), 1);
    }
}
