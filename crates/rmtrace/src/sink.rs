//! Trace sinks: where emitted records go.
//!
//! Sinks are `Send` so the same sink type works under the single-threaded
//! simulator and across `udprun`'s per-node threads. Shared sinks
//! ([`MemorySink`], [`JsonlSink`]) are cheap `Arc` handles: clone one per
//! endpoint and they interleave into a single stream.

use crate::event::TraceRecord;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Destination for trace records.
pub trait TraceSink: Send {
    /// Consume one record.
    fn emit(&mut self, rec: &TraceRecord);
    /// Flush any buffering (no-op by default).
    fn flush(&mut self) {}
}

/// The zero-cost default: discards everything.
///
/// Endpoints never reach a sink call when no sink is attached, so this
/// type exists mostly to make "tracing off" spellable where a sink value
/// is required.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn emit(&mut self, _rec: &TraceRecord) {}
}

/// Collects records in memory behind a shared handle.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Drain the records, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock().expect("memory sink poisoned"))
    }
}

impl TraceSink for MemorySink {
    fn emit(&mut self, rec: &TraceRecord) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(rec.clone());
    }
}

/// Writes one JSON object per line to a shared writer.
///
/// Records from different endpoints interleave in emission order; under
/// the deterministic simulator that order is itself deterministic, so the
/// file is byte-stable across identical runs.
#[derive(Clone)]
pub struct JsonlSink {
    out: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Wrap an arbitrary writer.
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Arc::new(Mutex::new(w)),
        }
    }

    /// Create (truncate) `path` and write buffered JSONL to it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let f = File::create(path)?;
        Ok(Self::new(Box::new(BufWriter::new(f))))
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn emit(&mut self, rec: &TraceRecord) {
        let mut w = self.out.lock().expect("jsonl sink poisoned");
        let _ = w.write_all(rec.to_json().as_bytes());
        let _ = w.write_all(b"\n");
    }

    fn flush(&mut self) {
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn memory_sink_shares_across_clones() {
        let a = MemorySink::new();
        let mut b = a.clone();
        b.emit(&TraceRecord {
            t_ns: 1,
            rank: 0,
            ev: TraceEvent::EpochChange { epoch: 2 },
        });
        assert_eq!(a.records().len(), 1);
        assert_eq!(a.take().len(), 1);
        assert!(a.records().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = JsonlSink::new(Box::new(Shared(Arc::clone(&buf))));
        s.emit(&TraceRecord {
            t_ns: 3,
            rank: 1,
            ev: TraceEvent::Drop {
                cause: crate::DropCause::Corrupt,
            },
        });
        s.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"t\":3,\"rank\":1,\"ev\":\"Drop\",\"cause\":\"Corrupt\"}\n"
        );
    }
}
