//! Span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own adapter (`sut.rs`), around
//! each call into a layer of the program; the program itself is not
//! instrumented.  They live in a preallocated vector and are written out as
//! JSON lines after the run, so recording costs two clock reads and one push.

use std::fmt::Write as _;
use std::time::Instant;

/// "No parent": the span is the root of its request.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.name`, e.g. `core.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request share this identifier.
    pub request: u32,
}

/// Records spans when enabled; a disabled tracer costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Innermost open span.
    current: u32,
    enabled: bool,
    /// Spans not recorded because the preallocated vector was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            current: ROOT,
            enabled: false,
            dropped: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn on(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            enabled: true,
            ..Self::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (a tracer made by [`Tracer::off`] has no
    /// room and stays silent).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled && self.spans.capacity() > 0;
    }

    /// Runs `f` inside a span named `name` belonging to `request`.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.current;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            request,
        });
        self.current = id;
        let out = f(self);
        self.spans[id as usize].end_ns = self.now();
        self.current = parent;
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every recorded span, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.current = ROOT;
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover, summed by name, in nanoseconds, in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_cover = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            child_cover[span.parent as usize] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, cover) in spans.iter().zip(child_cover) {
        let own = span
            .end_ns
            .saturating_sub(span.start_ns)
            .saturating_sub(cover);
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals
}

/// Appends the spans as JSON lines.  `section` says which part of the run
/// recorded them and `thread` which recorder; `parent` refers to the `id`
/// of a span of the same section and thread (`null` for a root).
pub fn write_jsonl(out: &mut String, section: &str, thread: usize, spans: &[Span]) {
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"section\":\"{section}\",\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::on(8);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (ROOT, 0, 0)
        );
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let own = self_times(spans);
        assert_eq!(
            own.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            ["outer", "inner"]
        );
        let outer = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(
            own[0].1 + own[1].1,
            outer,
            "self times partition the root's duration"
        );
        assert!(own[1].1 >= 2_000_000);
    }

    #[test]
    fn off_and_full_tracers_still_run_the_work() {
        let mut off = Tracer::off();
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
        let mut tiny = Tracer::on(1);
        tiny.span("a", 0, |t| t.span("b", 0, |_| ()));
        assert_eq!((tiny.spans().len(), tiny.dropped), (1, 1));
    }
}
