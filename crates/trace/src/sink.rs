//! Trace sinks: where records go.
//!
//! The instrumented layers hold an optional shared sink handle and emit
//! records through it. [`NullSink`] is the zero-cost-when-disabled default
//! (layers skip record construction entirely when no sink is installed, and
//! sinks additionally advertise [`TraceSink::enabled`] so callers can gate
//! expensive record assembly); [`JsonlSink`] buffers NDJSON lines to any
//! writer; [`MemSink`] keeps records in memory for tests and in-process
//! reductions.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use crate::record::TraceRecord;

/// A consumer of trace records.
pub trait TraceSink {
    /// Whether this sink actually records anything. Callers may skip
    /// assembling expensive records when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flushes any buffered output.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The shared, single-threaded sink handle the engine layers hold.
///
/// Simulation runs are single-threaded (parallelism lives one level up, in
/// the job runner), so `Rc<RefCell<…>>` suffices — each job owns its sink.
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// Wraps a sink in the [`SharedSink`] handle the instrumented layers expect.
pub fn shared(sink: impl TraceSink + 'static) -> SharedSink {
    Rc::new(RefCell::new(sink))
}

/// A sink that drops everything (tracing disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _rec: &TraceRecord) {}
}

/// A buffered NDJSON sink: one JSON line per record.
///
/// # Examples
///
/// ```
/// use wsn_trace::{JsonlSink, TraceRecord, TraceSink};
///
/// let mut sink = JsonlSink::new(Vec::new());
/// sink.record(&TraceRecord::Collision { t_ns: 5, node: 1 });
/// assert_eq!(sink.records(), 1);
/// let bytes = sink.into_inner().unwrap();
/// assert_eq!(
///     String::from_utf8(bytes).unwrap(),
///     "{\"ev\":\"collision\",\"t_ns\":5,\"node\":1}\n"
/// );
/// ```
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    records: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a `.jsonl` file at `path` behind a buffer.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out, records: 0 }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        // A full disk mid-trace should not abort the simulation that is
        // being observed; the flush at run end surfaces the error instead.
        if rec.write_jsonl(&mut self.out).is_ok() {
            self.records += 1;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// An in-memory sink for tests and in-process reductions.
#[derive(Debug, Clone, Default)]
pub struct MemSink {
    /// Every record received, in order.
    pub events: Vec<TraceRecord>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        MemSink::default()
    }
}

impl TraceSink for MemSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.events.push(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_reports_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(&TraceRecord::Collision { t_ns: 0, node: 0 });
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(&TraceRecord::Collision { t_ns: 1, node: 2 });
        s.record(&TraceRecord::Collision { t_ns: 2, node: 3 });
        assert_eq!(s.records(), 2);
        let text = String::from_utf8(s.into_inner().unwrap()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn mem_sink_keeps_order() {
        let mut s = MemSink::new();
        let a = TraceRecord::Collision { t_ns: 1, node: 1 };
        let b = TraceRecord::Collision { t_ns: 2, node: 2 };
        s.record(&a);
        s.record(&b);
        assert_eq!(s.events, vec![a, b]);
    }

    #[test]
    fn shared_handle_dispatches_dynamically() {
        let sink = shared(MemSink::new());
        assert!(sink.borrow().enabled());
        sink.borrow_mut()
            .record(&TraceRecord::Collision { t_ns: 0, node: 1 });
        sink.borrow_mut().flush().unwrap();
    }
}
