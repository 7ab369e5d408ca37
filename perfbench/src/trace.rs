//! In-memory span recorder and the per-layer breakdown built from it.
//!
//! Spans wrap the benchmark's own calls into the workspace crates; the
//! layer of a span is its name up to the first `.` (`sram_array.read_row`
//! belongs to `sram_array`). A root span (no parent) is one unit of
//! end-to-end work — a serving wave, a network request, a figure sweep —
//! and its self time is benchmark glue that no layer claims. The
//! reconciliation check is that this unclaimed share stays small: a share
//! that goes missing means a layer on the blocking path is unmeasured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span; always lower than this span's own.
    pub parent: Option<usize>,
    /// Request (or trial) the span belongs to.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Records spans serially: spans opened while another is open nest under
/// it, so the traced run must execute on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close in LIFO order");
        out
    }

    /// Records an interval measured elsewhere (a server-reported queue or
    /// service time); `parent` must already be recorded.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        assert!(
            parent.is_none_or(|p| p < self.spans.len()),
            "parent must be recorded first"
        );
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as tab-separated lines:
    /// `index name start_ns end_ns parent request`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time of every span: its duration minus its direct children's.
/// Not clamped at zero, so self times always add back up to the roots.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

/// Per-layer self time over the root units of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Duration of each root unit, nanoseconds.
    pub units_ns: Vec<f64>,
    /// Per layer: self time inside each root unit, nanoseconds (one entry
    /// per unit, zero where the layer did not run).
    pub layers: BTreeMap<String, Vec<f64>>,
    /// Root self time summed over units — time no layer claims.
    pub unattributed_ns: f64,
}

impl Breakdown {
    /// Builds the breakdown of `spans` (parents precede children).
    pub fn of(spans: &[Span]) -> Self {
        let own = self_times(spans);
        let mut unit_of = vec![0usize; spans.len()];
        let mut units_ns = Vec::new();
        let mut unit_index = vec![usize::MAX; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                None => {
                    unit_index[i] = units_ns.len();
                    units_ns.push(s.duration_ns());
                    unit_of[i] = i;
                }
                Some(p) => unit_of[i] = unit_of[p],
            }
        }
        let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut unattributed_ns = 0.0;
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() {
                unattributed_ns += own[i];
                continue;
            }
            let per_unit = layers
                .entry(layer_of(s.name).to_string())
                .or_insert_with(|| vec![0.0; units_ns.len()]);
            per_unit[unit_index[unit_of[i]]] += own[i];
        }
        Self {
            units_ns,
            layers,
            unattributed_ns,
        }
    }

    /// Total traced end-to-end time, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.units_ns.iter().sum()
    }

    /// Each layer's share of the traced total, in percent.
    pub fn shares_pct(&self) -> BTreeMap<String, f64> {
        let total = self.total_ns().max(1.0);
        self.layers
            .iter()
            .map(|(layer, per_unit)| (layer.clone(), 100.0 * per_unit.iter().sum::<f64>() / total))
            .collect()
    }

    /// Percent of the traced total that no layer claims.
    pub fn gap_pct(&self) -> f64 {
        100.0 * self.unattributed_ns / self.total_ns().max(1.0)
    }

    /// `Ok(gap)` when the share no layer claims is within
    /// `tolerance_pct`, `Err` naming it otherwise. Self times are not
    /// clamped, so the layers plus the unclaimed time always add back up
    /// to the traced total; a share that goes missing is unclaimed time.
    pub fn reconcile(&self, tolerance_pct: f64) -> Result<f64, String> {
        let gap = self.gap_pct();
        if gap > tolerance_pct {
            return Err(format!(
                "{gap:.2} % of the traced total is claimed by no layer (tolerance {tolerance_pct} %)"
            ));
        }
        Ok(gap)
    }
}

/// Durations of the spans named `name`, summed per request id, in request
/// order — a per-request cost when one request makes many calls.
pub fn per_request_ns(spans: &[Span], name: &str) -> Vec<f64> {
    let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *totals.entry(s.request).or_default() += s.duration_ns();
    }
    totals.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Span> {
        let span = |name, start_ns, end_ns, parent, request| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        };
        vec![
            span("bench.wave", 0, 100, None, 0),
            span("neuro_system.classify", 0, 60, Some(0), 0),
            span("sram_array.read_row", 0, 40, Some(1), 0),
            span("sram_array.read_row", 40, 50, Some(1), 0),
            span("sram_serve.maintain", 60, 98, Some(0), 0),
            span("bench.wave", 100, 150, None, 1),
            span("neuro_system.classify", 100, 150, Some(5), 1),
        ]
    }

    #[test]
    fn self_time_subtracts_children_and_reconciles() {
        let b = Breakdown::of(&sample());
        assert_eq!(b.units_ns, vec![100.0, 50.0]);
        assert_eq!(b.layers["sram_array"], vec![50.0, 0.0]);
        assert_eq!(b.layers["neuro_system"], vec![10.0, 50.0]);
        assert_eq!(b.layers["sram_serve"], vec![38.0, 0.0]);
        assert_eq!(b.unattributed_ns, 2.0);
        let shares = b.shares_pct();
        assert!((shares["sram_array"] - 100.0 * 50.0 / 150.0).abs() < 1e-9);
        assert!(b.reconcile(2.0).is_ok());
        assert!(b.reconcile(1.0).is_err(), "an unclaimed share must fail");
    }

    #[test]
    fn per_request_totals_group_by_request() {
        assert_eq!(per_request_ns(&sample(), "sram_array.read_row"), vec![50.0]);
        assert_eq!(
            per_request_ns(&sample(), "neuro_system.classify"),
            vec![60.0, 50.0]
        );
    }

    #[test]
    fn tracer_nests_serially() {
        let mut t = Tracer::new();
        t.span("bench.unit", 0, |t| {
            t.span("a.x", 0, |t| t.span("b.y", 0, |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(t.to_tsv().lines().count() == 4);
        assert_eq!(layer_of("sram_net.wire"), "sram_net");
    }
}
