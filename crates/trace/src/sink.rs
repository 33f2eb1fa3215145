//! Pluggable trace destinations.

use std::any::Any;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::TraceEvent;

/// A destination for [`TraceEvent`]s.
///
/// Sinks are *observers*: a `record` implementation must not reach back
/// into the simulation. The `Any` supertrait (via
/// [`TraceSink::as_any_mut`]) lets callers recover a concrete sink after
/// a run — e.g. pull the events back out of a [`RingSink`] that was
/// handed to a `World` as a `Box<dyn TraceSink>`.
pub trait TraceSink: Any {
    /// Receives one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) {}

    /// Upcast used by [`dyn TraceSink::downcast_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl dyn TraceSink {
    /// Recovers the concrete sink type, if `self` is a `T`.
    pub fn downcast_mut<T: TraceSink>(&mut self) -> Option<&mut T> {
        self.as_any_mut().downcast_mut::<T>()
    }
}

/// Discards everything. The sink behind "zero overhead when disabled"
/// measurements: the tracing *call sites* stay live, the events go
/// nowhere.
#[derive(Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&mut self, _ev: &TraceEvent) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Streams events to a file as JSON Lines (one object per line, schema
/// documented on [`TraceEvent::to_json`]). A trace must never abort the
/// trial it observes, so the first I/O error stops the writing and waits
/// in [`JsonlSink::error`] for the caller.
pub struct JsonlSink {
    out: BufWriter<File>,
    line: String,
    written: u64,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates (truncates) the artifact file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
            line: String::with_capacity(256),
            written: 0,
            error: None,
        })
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write or flush error; check it after [`TraceSink::flush`].
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        ev.to_json(&mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(err) => self.error = Some(err),
        }
    }

    fn flush(&mut self) {
        if let Err(err) = self.out.flush() {
            self.error.get_or_insert(err);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Keeps the most recent `capacity` events in memory — flight-recorder
/// style, or unbounded collection for tests and in-process analysis.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    seen: u64,
}

impl RingSink {
    /// A ring that retains the last `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "RingSink capacity must be positive");
        RingSink { capacity, events: VecDeque::with_capacity(capacity.min(4096)), seen: 0 }
    }

    /// A ring that never evicts (collects every event).
    pub fn unbounded() -> RingSink {
        RingSink { capacity: usize::MAX, events: VecDeque::new(), seen: 0 }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Total events ever recorded (≥ the retained count).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(ev.clone());
        self.seen += 1;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_net::NodeId;
    use rica_sim::SimTime;

    fn ev(node: u32) -> TraceEvent {
        TraceEvent::MacBusy { t: SimTime::ZERO, node: NodeId(node), attempts: 1 }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = RingSink::new(2);
        ring.record(&ev(0));
        ring.record(&ev(1));
        ring.record(&ev(2));
        assert_eq!(ring.seen(), 3);
        let kept: Vec<_> = ring.events().cloned().collect();
        assert_eq!(kept, vec![ev(1), ev(2)]);
    }

    #[test]
    fn boxed_sink_downcasts_back() {
        let mut sink: Box<dyn TraceSink> = Box::new(RingSink::unbounded());
        sink.record(&ev(9));
        let ring = sink.downcast_mut::<RingSink>().expect("concrete type is RingSink");
        assert_eq!(ring.seen(), 1);
        assert!(sink.downcast_mut::<NoopSink>().is_none());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rica_trace_sink_test_{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).expect("create");
            sink.record(&ev(4));
            sink.record(&ev(5));
            assert_eq!(sink.written(), 2);
        }
        let body = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<_> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":0,\"ev\":\"mac_busy\""));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_keeps_its_first_io_error() {
        let mut sink = JsonlSink::create("/dev/full").expect("open /dev/full");
        for node in 0..10_000 {
            sink.record(&ev(node));
        }
        sink.flush();
        let err = sink.error().expect("a full device must surface an error");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
        assert!(sink.written() < 10_000, "writing stops at the first error");
    }
}
