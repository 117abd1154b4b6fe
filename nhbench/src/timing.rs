//! Tracing from outside the program: an in-memory span log and a timing
//! [`HammerBackend`] wrapper.
//!
//! Spans are recorded at the boundaries the benchmark itself crosses
//! (point, backend construction, attack driver, table sampling, FEM
//! extraction) and written as JSONL when the run ends. The engine calls
//! inside an attack (over 200 000 `apply_pulse`/`idle` calls on the
//! guarded grid) are not stored one by one: the wrapper folds them into
//! counts and summed nanoseconds on the enclosing span, whose `child_ns`
//! entry the self-time computation subtracts like covered child time.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rram_crossbar::{CellAddress, CrosstalkHub, HammerBackend, ThermalReadout};
use rram_jart::DigitalState;
use rram_units::{Kelvin, Seconds, Volts};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Grid index of the point the span belongs to, if any.
    pub point: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded at this boundary (`child_ns` = folded call time).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    fn to_json_line(&self) -> String {
        let mut line = format!("{{\"id\":{},", self.id);
        if let Some(parent) = self.parent {
            line.push_str(&format!("\"parent\":{parent},"));
        }
        line.push_str(&format!("\"name\":\"{}\",", self.name));
        if let Some(point) = self.point {
            line.push_str(&format!("\"point\":{point},"));
        }
        line.push_str(&format!(
            "\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
            self.start_ns, self.end_ns
        ));
        for (slot, (key, value)) in self.counts.iter().enumerate() {
            if slot > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{key}\":{value}"));
        }
        line.push_str("}}");
        line
    }
}

/// An open span: close it with [`SpanLog::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    point: Option<usize>,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Spans of one run, kept in memory, shared by the worker threads.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &'static str, parent: Option<&Open>, point: Option<usize>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(Open::id),
            name,
            point,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open, counts: Vec<(&'static str, u64)>) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            point: open.point,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            counts,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f` inside a span with no counts.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        point: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, point);
        let value = f();
        self.close(open, Vec::new());
        value
    }

    /// The recorded spans, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            writeln!(out, "{}", span.to_json_line())?;
        }
        out.flush()
    }
}

/// Time and calls spent in the two integrating engine entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    pub pulse_calls: u64,
    pub pulse_ns: u64,
    pub gap_calls: u64,
    pub gap_ns: u64,
}

impl PhaseTotals {
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("apply_pulse_calls", self.pulse_calls),
            ("pulse_ns", self.pulse_ns),
            ("idle_calls", self.gap_calls),
            ("gap_ns", self.gap_ns),
            ("child_ns", self.pulse_ns + self.gap_ns),
        ]
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`HammerBackend`] that delegates every call to `inner` and times the
/// pulse phase (`apply_pulse`) and the gap phase (`idle`). Every trait
/// method is forwarded explicitly, so engine overrides of default methods
/// stay in effect.
pub struct TimingBackend {
    inner: Box<dyn HammerBackend>,
    pub totals: PhaseTotals,
}

impl TimingBackend {
    pub fn new(inner: Box<dyn HammerBackend>) -> TimingBackend {
        TimingBackend {
            inner,
            totals: PhaseTotals::default(),
        }
    }
}

impl HammerBackend for TimingBackend {
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn apply_pulse(&mut self, selected: CellAddress, amplitude: Volts, length: Seconds) {
        let started = Instant::now();
        self.inner.apply_pulse(selected, amplitude, length);
        self.totals.pulse_ns += elapsed_ns(started);
        self.totals.pulse_calls += 1;
    }
    fn idle(&mut self, duration: Seconds) {
        let started = Instant::now();
        self.inner.idle(duration);
        self.totals.gap_ns += elapsed_ns(started);
        self.totals.gap_calls += 1;
    }
    fn read(&self, address: CellAddress) -> DigitalState {
        self.inner.read(address)
    }
    fn normalized_state(&self, address: CellAddress) -> f64 {
        self.inner.normalized_state(address)
    }
    fn force_state(&mut self, address: CellAddress, state: DigitalState) {
        self.inner.force_state(address, state)
    }
    fn force_normalized_state(&mut self, address: CellAddress, normalized: f64) {
        self.inner.force_normalized_state(address, normalized)
    }
    fn thermal_readout(&self, address: CellAddress) -> ThermalReadout {
        self.inner.thermal_readout(address)
    }
    fn hub(&self) -> &CrosstalkHub {
        self.inner.hub()
    }
    fn hub_mut(&mut self) -> &mut CrosstalkHub {
        self.inner.hub_mut()
    }
    fn elapsed(&self) -> Seconds {
        self.inner.elapsed()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn peak_crosstalk(&self) -> Kelvin {
        self.inner.peak_crosstalk()
    }
    fn worker_threads(&self) -> usize {
        self.inner.worker_threads()
    }
    fn simd_isa(&self) -> &'static str {
        self.inner.simd_isa()
    }
    fn read_all(&self) -> Vec<DigitalState> {
        self.inner.read_all()
    }
    fn changed_cells(&self, reference: &[DigitalState]) -> Vec<CellAddress> {
        self.inner.changed_cells(reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurohammer::campaign::CampaignSpec;
    use neurohammer::countermeasures::run_guarded_attack;
    use neurohammer::run_attack;
    use rram_crossbar::BackendKind;
    use rram_defense::GuardSpec;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            backends: vec![BackendKind::Batched],
            guards: vec![
                GuardSpec::None,
                GuardSpec::WriteCounter {
                    threshold: 32,
                    window: Seconds(1.0),
                },
            ],
            max_pulses: 400,
            batching: true,
            threads: 1,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn the_wrapper_delegates_without_changing_a_5x5_outcome() {
        let spec = spec();
        for (_, point) in spec.keyed_points() {
            let config = spec.attack_config(&point);
            let mut bare = spec.backend_for(&point).unwrap();
            let mut wrapped = TimingBackend::new(spec.backend_for(&point).unwrap());
            assert_eq!(wrapped.simd_isa(), bare.simd_isa());
            assert_eq!(wrapped.worker_threads(), bare.worker_threads());
            if point.guard.is_none() {
                let a = run_attack(bare.as_mut(), &config);
                let b = run_attack(&mut wrapped, &config);
                assert_eq!(a, b);
                assert!(b.pulses > 0);
            } else {
                let benign = spec.benign_workload(&point);
                let a = run_guarded_attack(bare.as_mut(), &config, &point.guard, &benign);
                let b = run_guarded_attack(&mut wrapped, &config, &point.guard, &benign);
                assert_eq!(a, b);
            }
            assert_eq!(wrapped.read_all(), bare.read_all());
            assert_eq!(wrapped.peak_crosstalk(), bare.peak_crosstalk());
            assert_eq!(wrapped.elapsed(), bare.elapsed());
            assert!(wrapped.totals.pulse_calls > 0);
            assert!(wrapped.totals.pulse_ns > 0);
        }
    }

    #[test]
    fn spans_nest_and_serialise_one_per_line() {
        let log = SpanLog::new();
        let outer = log.open("point", None, Some(3));
        log.time("crossbar.build", Some(&outer), Some(3), || ());
        log.close(outer, vec![("child_ns", 5)]);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let (point, build) = (&spans[0], &spans[1]);
        assert_eq!(point.name, "point");
        assert_eq!(build.parent, Some(point.id));
        assert!(point.start_ns <= build.start_ns && build.end_ns <= point.end_ns);
        let line = point.to_json_line();
        assert!(line.starts_with("{\"id\":"), "{line}");
        assert!(line.ends_with("\"counts\":{\"child_ns\":5}}"), "{line}");
        assert!(!line.contains("parent"));
    }
}
