//! In-memory span tracer for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions,
//! from the benchmark's side of the call. Each span has a name (the
//! layer is the part before the first `.`), a start and end on a
//! monotonic clock, a parent, the campaign it belongs to, and the
//! calling thread's allocation count over its interval. Spans stay in
//! memory until the benchmark reports.
//!
//! A *detached* span has no parent: it times work that sits outside any
//! campaign's tree (a second call of a function that ran inside another
//! layer), so it never adds to a campaign's self times.

use std::time::Instant;

use crate::sys;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for roots and detached spans.
    pub parent: Option<usize>,
    /// The campaign the span belongs to.
    pub campaign: u32,
    /// Whether the span sits outside every campaign tree.
    pub detached: bool,
    /// Allocations the thread made between open and close.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans; a disabled tracer records nothing and costs one branch
/// per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    campaign: u32,
    allocs_at_open: Vec<u64>,
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::with_capacity(16),
            campaign: 0,
            allocs_at_open: Vec::with_capacity(16),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the campaign id new spans are tagged with.
    pub fn set_campaign(&mut self, campaign: u32) {
        self.campaign = campaign;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn push(&mut self, name: &'static str, detached: bool) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let parent = if detached {
            None
        } else {
            self.stack.last().copied()
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: u64::MAX,
            parent,
            campaign: self.campaign,
            detached,
            allocs: 0,
        });
        self.stack.push(index);
        // Read the clocks last, so the bookkeeping above is not charged
        // to the span.
        self.allocs_at_open.push(sys::thread_allocs());
        self.spans[index].start_ns = self.now_ns();
        SpanId(Some(index))
    }

    /// Open a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        self.push(name, false)
    }

    /// Open a span outside every campaign tree. Only other detached
    /// spans may be open when it is.
    pub fn open_detached(&mut self, name: &'static str) -> SpanId {
        self.push(name, true)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end = self.now_ns();
        let allocs = sys::thread_allocs();
        assert_eq!(self.stack.pop(), Some(index), "spans close in LIFO order");
        let opened = self.allocs_at_open.pop().expect("one count per open span");
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.allocs = allocs - opened;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Derived per-span figures: self time and self allocations.
#[derive(Debug)]
pub struct Analysis {
    /// Per span: duration minus the union of its children's intervals.
    pub self_ns: Vec<u64>,
    /// Per span: allocations minus its children's allocations.
    pub self_allocs: Vec<u64>,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Compute self times and self allocations of `spans`.
pub fn analyse(spans: &[Span]) -> Analysis {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    let mut self_ns = Vec::with_capacity(spans.len());
    let mut self_allocs = Vec::with_capacity(spans.len());
    for (span, kids) in spans.iter().zip(&children) {
        let covered = union_len(
            kids.iter()
                .map(|&k| (spans[k].start_ns, spans[k].end_ns))
                .collect(),
            span.start_ns,
            span.end_ns,
        );
        self_ns.push(span.dur_ns() - covered);
        let child_allocs: u64 = kids.iter().map(|&k| spans[k].allocs).sum();
        self_allocs.push(span.allocs.saturating_sub(child_allocs));
    }
    Analysis {
        self_ns,
        self_allocs,
    }
}

/// Largest relative gap allowed between a campaign root's duration and
/// the sum of the self times in its tree. Nested spans on one thread tile
/// their parent exactly, so any gap at all means a bookkeeping bug; the
/// tolerance only absorbs nothing-but-rounding in callers that convert.
pub const SELF_TIME_TOLERANCE: f64 = 1e-3;

/// The tracer's self-test over a finished trace: every span is closed,
/// every child lies inside its parent, and for each campaign root the
/// self times of its tree sum to the root's duration within
/// [`SELF_TIME_TOLERANCE`].
///
/// # Errors
///
/// A description of the first violation.
pub fn check(spans: &[Span], analysis: &Analysis) -> Result<(), String> {
    for (index, span) in spans.iter().enumerate() {
        if span.end_ns == u64::MAX || span.end_ns < span.start_ns {
            return Err(format!("span {index} `{}` is not closed", span.name));
        }
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            if span.start_ns < outer.start_ns || span.end_ns > outer.end_ns {
                return Err(format!(
                    "span {index} `{}` [{}, {}] leaves its parent `{}` [{}, {}]",
                    span.name, span.start_ns, span.end_ns, outer.name, outer.start_ns, outer.end_ns
                ));
            }
        }
    }
    // Sum self times per root by walking each span up to its root.
    let mut root_of = vec![usize::MAX; spans.len()];
    let mut tree_self = vec![0u64; spans.len()];
    for index in 0..spans.len() {
        let root = match spans[index].parent {
            Some(parent) => root_of[parent],
            None => index,
        };
        root_of[index] = root;
        tree_self[root] += analysis.self_ns[index];
    }
    for (index, span) in spans.iter().enumerate() {
        if span.parent.is_some() || span.detached {
            continue;
        }
        let dur = span.dur_ns() as f64;
        let gap = (tree_self[index] as f64 - dur).abs();
        if gap > SELF_TIME_TOLERANCE * dur.max(1.0) {
            return Err(format!(
                "campaign {}: self times sum to {} ns, root lasts {} ns",
                span.campaign,
                tree_self[index],
                span.dur_ns()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            campaign: 0,
            detached: false,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        // Overlapping children [10, 40] and [30, 60] cover 50 ns of the
        // root's 100; a child poking past the parent is clipped.
        let spans = vec![
            span("campaign", 0, 100, None),
            span("vm.run", 10, 40, Some(0)),
            span("vm.run", 30, 60, Some(0)),
            span("learn.observe", 90, 120, Some(0)),
        ];
        let analysis = analyse(&spans);
        assert_eq!(analysis.self_ns[0], 100 - 50 - 10);
        assert_eq!(analysis.self_ns[1], 30);
        assert!(check(&spans, &analysis).is_err(), "child leaves its parent");
    }

    #[test]
    fn nested_spans_tile_their_root() {
        let mut tracer = Tracer::new(true);
        tracer.set_campaign(7);
        let root = tracer.open("campaign");
        let run = tracer.open("run");
        let vm = tracer.open("vm.run");
        let boxed = std::hint::black_box(vec![1u8; 64]);
        tracer.close(vm);
        let learn = tracer.open("learn.observe");
        tracer.close(learn);
        tracer.close(run);
        tracer.close(root);
        let detached = tracer.open_detached("opt.compile");
        tracer.close(detached);
        drop(boxed);
        let spans = tracer.spans();
        let analysis = analyse(spans);
        check(spans, &analysis).expect("a well-nested trace passes");
        let total: u64 = (0..4).map(|i| analysis.self_ns[i]).sum();
        assert_eq!(total, spans[0].dur_ns());
        assert!(spans[2].allocs >= 1, "the vec! inside vm.run is counted");
        assert_eq!(spans[4].parent, None);
        assert!(spans.iter().all(|s| s.campaign == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("campaign");
        tracer.close(id);
        assert!(tracer.spans().is_empty());
    }
}
