//! In-memory span tracer for the single-thread replay.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! a name ([`Layer`]), start, end and the span that caused it. A layer's
//! self time is its span's duration minus the part its child spans cover.
//! Spans are folded into per-layer totals once per replay tick
//! ([`Tracer::fold`]), which keeps memory bounded on long runs.

use std::time::Instant;

/// The layers the replay crosses, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One replay tick (the root span; its self time is the replay's own
    /// loop and bookkeeping).
    Tick,
    /// `SimulatedBoard::advance` + `drain_frames`: the headset stand-in.
    Synth,
    /// `StreamingChain::step` over the period's samples.
    Filter,
    /// One session's acquisition-to-window period (`advance_period` for
    /// batch sessions, the filter stage's segment for streaming ones);
    /// self time is the sliding-window push.
    Advance,
    /// Window flattening (`append_window_to` / `flat_into`).
    Gather,
    /// `Ensemble::predict_batch_into` + argmax.
    Classify,
    /// `InferenceHead::apply`: controller, serial bytes, MCU.
    Actuate,
    /// Pooled payloads through `Outlet::push` onto the transport.
    Send,
    /// `Inlet::pull_into`: the transport drain.
    Recv,
    /// `ReorderRing` insert + in-order pops, payloads back to the pool.
    Dejitter,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 10;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Tick,
        Layer::Synth,
        Layer::Filter,
        Layer::Advance,
        Layer::Gather,
        Layer::Classify,
        Layer::Actuate,
        Layer::Send,
        Layer::Recv,
        Layer::Dejitter,
    ];

    /// Metric-name stem of the layer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tick => "replay.self",
            Layer::Synth => "eeg.synth",
            Layer::Filter => "dsp.filter",
            Layer::Advance => "core.advance",
            Layer::Gather => "core.gather",
            Layer::Classify => "ml.classify",
            Layer::Actuate => "core.actuate",
            Layer::Send => "stream.send",
            Layer::Recv => "stream.recv",
            Layer::Dejitter => "stream.dejitter",
        }
    }
}

/// One recorded span (nanoseconds since the tracer's origin).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// Start time.
    pub start: u64,
    /// End time (set when the span closes).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans and folds them into per-layer self times.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Folded self time per layer, nanoseconds.
    pub self_ns: [u64; LAYERS],
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1024),
            open: Vec::with_capacity(8),
            self_ns: [0; LAYERS],
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` inside the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = end;
    }

    /// Folds every recorded span into the per-layer totals and clears
    /// them. Call with no span open.
    pub fn fold(&mut self) {
        assert!(self.open.is_empty(), "fold with an open span");
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            self.self_ns[span.layer as usize] += self_ns;
        }
        self.spans.clear();
    }

    /// Drops the folded totals (after warm-up).
    pub fn reset(&mut self) {
        self.spans.clear();
        self.self_ns = [0; LAYERS];
    }
}

/// Self time of each of the closed, properly nested `spans`: its duration
/// minus the durations of its direct children.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= s.end - s.start;
        }
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let mut t = Tracer::new();
        // tick [0,100): advance [10,60) holding synth [12,20) and filter
        // [20,50); classify [60,90); 10 ns of tick self time either side.
        t.spans.push(closed(Layer::Tick, 0, 100, None));
        t.spans.push(closed(Layer::Advance, 10, 60, Some(0)));
        t.spans.push(closed(Layer::Synth, 12, 20, Some(1)));
        t.spans.push(closed(Layer::Filter, 20, 50, Some(1)));
        t.spans.push(closed(Layer::Classify, 60, 90, Some(0)));
        t.fold();
        let ns = |l: Layer| t.self_ns[l as usize];
        assert_eq!(ns(Layer::Tick), 100 - 50 - 30);
        assert_eq!(ns(Layer::Advance), 50 - 8 - 30);
        assert_eq!(ns(Layer::Synth), 8);
        assert_eq!(ns(Layer::Filter), 30);
        assert_eq!(ns(Layer::Classify), 30);
        // Self times partition the root span exactly.
        assert_eq!(t.self_ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn live_spans_nest_and_partition_the_root() {
        let mut t = Tracer::new();
        t.enter(Layer::Tick);
        for _ in 0..3 {
            t.enter(Layer::Advance);
            t.enter(Layer::Synth);
            std::hint::black_box((0..1000).sum::<u64>());
            t.exit();
            t.exit();
        }
        t.enter(Layer::Classify);
        t.exit();
        t.exit();
        let root = t.spans[0].end - t.spans[0].start;
        t.fold();
        assert_eq!(t.self_ns.iter().sum::<u64>(), root);
        assert!(t.self_ns[Layer::Synth as usize] > 0);
        assert!(t.spans.is_empty());
    }
}
