//! The traced replay: the same sessions, the same seeded events and the
//! same label periods as the fleet, run on one thread through the layers'
//! public functions — board, filter chain, sliding window, wire, ensemble,
//! inference head — with a span around every call into a layer.
//!
//! Each replay session is assembled from public parts exactly as
//! `CognitiveArm::with_pool` and `serve::StreamSession::new` assemble
//! theirs (same subject parameters, board and wire seeds), and batch
//! sessions classify together in one `predict_batch_into` per tick as a
//! serving micro-batch group does. The replay's labels must equal the
//! fleet's, which is what shows it is the same job.

use std::sync::Arc;

use arm::controller::Controller;
use arm::safety::SafetyGate;
use cognitive_arm::pipeline::{InferenceHead, LatencyReport, SessionTrace, SlidingWindow};
use cognitive_arm::preprocess::StreamingChain;
use eeg::board::{Board, SimulatedBoard};
use eeg::signal::SubjectParams;
use eeg::{CHANNELS, SAMPLE_RATE};
use exec::ExecPool;
use ml::ensemble::{argmax, Ensemble, EnsembleScratch};
use ml::models::CLASSES;
use model_io::SavedModel;
use stream::clock::SimClock;
use stream::dejitter::ReorderRing;
use stream::inlet::{Inlet, ReceivedSample};
use stream::outlet::{Outlet, StreamInfo};
use stream::pool::PacketPool;
use stream::transport::{Transport, TransportParams, WireStats};

use crate::fleet::LabelRecord;
use crate::trace::{Layer, Tracer};
use crate::traffic::{Kind, Schedule, SessionPlan, TICK_SAMPLES};
use crate::BenchResult;

/// A streaming session's wire: outlet → transport → inlet → reorder ring,
/// with pooled payloads.
struct Wire {
    outlet: Outlet,
    transport: Transport,
    inlet: Inlet,
    pool: Arc<PacketPool>,
    reorder: ReorderRing,
    drained: Vec<ReceivedSample>,
}

/// One replayed session.
pub struct ReplaySession {
    schedule: Schedule,
    board: SimulatedBoard,
    chain: StreamingChain,
    window: SlidingWindow,
    head: InferenceHead,
    wire: Option<Box<Wire>>,
    /// Samples of the current period in flight between layers.
    frames: Vec<[f32; CHANNELS]>,
    flat: Vec<f32>,
    elapsed: u64,
    latency: LatencyReport,
    /// Scratch trace `InferenceHead::apply` appends to.
    trace: SessionTrace,
    /// Every label the session emitted.
    pub record: LabelRecord,
}

impl ReplaySession {
    fn new(
        model: &SavedModel,
        plan: &SessionPlan,
        wire: Option<TransportParams>,
    ) -> BenchResult<Self> {
        let config = &model.pipeline;
        let ensemble = model.ensemble.clone();
        let ring = ensemble.window().max(config.label_every).max(64);
        let mut board = SimulatedBoard::with_buffer_capacity(
            SubjectParams::sampled(plan.subject_seed),
            plan.subject_seed ^ 0xB0A7D,
            ring,
        );
        board.start_stream()?;
        board.set_action(plan.action);
        let mut chain = StreamingChain::new(&config.filter)?;
        if let Some(z) = &model.normalization {
            chain.set_normalization(z.clone());
        }
        let wire = (plan.kind == Kind::Streaming).then(|| {
            let mut transport = Transport::new(
                wire.unwrap_or_else(TransportParams::lsl),
                plan.subject_seed ^ 0x0057_EA11,
            );
            let pool = Arc::new(PacketPool::new());
            transport.set_pool(Arc::clone(&pool));
            Box::new(Wire {
                outlet: Outlet::new(StreamInfo::eeg_default(), SimClock::aligned()),
                transport,
                inlet: Inlet::new(SimClock::aligned()),
                pool,
                reorder: ReorderRing::new(),
                drained: Vec::new(),
            })
        });
        Ok(Self {
            schedule: Schedule::new(plan),
            board,
            chain,
            window: SlidingWindow::new(ensemble.window()),
            flat: Vec::with_capacity(CHANNELS * ensemble.window()),
            head: InferenceHead::new(
                ensemble,
                Controller::new(config.controller, SafetyGate::new(config.safety)),
            ),
            wire,
            frames: Vec::with_capacity(TICK_SAMPLES),
            elapsed: 0,
            latency: LatencyReport::default(),
            trace: SessionTrace::default(),
            record: LabelRecord::of(&[]),
        })
    }

    /// The seeded events due before the next tick.
    fn apply_events(&mut self) {
        let events = self.schedule.step();
        if let Some(a) = events.action {
            self.board.set_action(a);
        }
        if let Some(m) = events.mode {
            self.head.set_mode(m);
        }
    }

    /// Board → frames (the headset stand-in).
    fn synth(&mut self, t: &mut Tracer) -> BenchResult<()> {
        t.enter(Layer::Synth);
        self.board.advance(TICK_SAMPLES)?;
        self.frames.clear();
        let frames = &mut self.frames;
        self.board.drain_frames(|f| frames.push(*f))?;
        t.exit();
        Ok(())
    }

    /// Filters the period's frames and pushes them into the window.
    fn filter_and_window(&mut self, t: &mut Tracer) {
        t.enter(Layer::Filter);
        for f in &mut self.frames {
            self.chain.step(f);
        }
        t.exit();
        for f in &self.frames {
            self.window.push(f);
        }
    }

    /// A batch session's label period (`CognitiveArm::advance_period`):
    /// returns whether a classification is due.
    fn advance(&mut self, t: &mut Tracer) -> BenchResult<bool> {
        t.enter(Layer::Advance);
        self.synth(t)?;
        self.filter_and_window(t);
        self.elapsed += TICK_SAMPLES as u64;
        t.exit();
        Ok(self.window.is_full())
    }

    /// A streaming session's one-period segment through the wire, then
    /// classify (batch 1) and actuate when the window is full — the
    /// single-thread `StreamSession::run_for` path. Returns whether it
    /// classified.
    fn stream(&mut self, t: &mut Tracer, pool: &ExecPool) -> BenchResult<bool> {
        let base = self.elapsed as f64 / SAMPLE_RATE;
        t.enter(Layer::Advance);
        self.synth(t)?;
        let wire = self.wire.as_mut().expect("streaming sessions have a wire");
        t.enter(Layer::Send);
        for (i, frame) in self.frames.iter().enumerate() {
            let mut payload = wire.pool.take(CHANNELS);
            payload.extend_from_slice(frame);
            let t_push = base + (i + 1) as f64 / SAMPLE_RATE;
            wire.outlet.push(&mut wire.transport, payload, t_push)?;
        }
        t.exit();
        let now = base + TICK_SAMPLES as f64 / SAMPLE_RATE;
        let mut processed = self.ingest(t, now);
        // Drain what is still in flight (retransmissions land late).
        processed += self.ingest(t, f64::INFINITY);
        self.elapsed += TICK_SAMPLES as u64;
        t.exit();
        if processed != TICK_SAMPLES {
            return Err(format!("wire delivered {processed} of {TICK_SAMPLES} samples").into());
        }
        if self.window.is_full() {
            t.enter(Layer::Gather);
            self.window.flat_into(&mut self.flat);
            t.exit();
            t.enter(Layer::Classify);
            let label = self.head.classify(&self.flat, pool);
            t.exit();
            self.actuate(t, label)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Pulls what has arrived by `now`, restores sequence order, filters
    /// and windows it; returns the samples processed.
    fn ingest(&mut self, t: &mut Tracer, now: f64) -> usize {
        let wire = self.wire.as_mut().expect("streaming sessions have a wire");
        t.enter(Layer::Recv);
        wire.drained.clear();
        wire.inlet
            .pull_into(&mut wire.transport, now, &mut wire.drained);
        t.exit();
        t.enter(Layer::Dejitter);
        for sample in wire.drained.drain(..) {
            if let Some(stale) = wire.reorder.insert(sample.seq, sample.payload) {
                wire.pool.put(stale);
            }
        }
        self.frames.clear();
        while let Some(payload) = wire.reorder.pop_ready() {
            let mut s = [0.0f32; CHANNELS];
            s.copy_from_slice(&payload[..CHANNELS]);
            wire.pool.put(payload);
            self.frames.push(s);
        }
        t.exit();
        self.filter_and_window(t);
        self.frames.len()
    }

    fn actuate(&mut self, t: &mut Tracer, label: usize) -> BenchResult<()> {
        t.enter(Layer::Actuate);
        let at = self.elapsed as f64 / SAMPLE_RATE;
        let out = self
            .head
            .apply(label, at, TICK_SAMPLES, &mut self.trace, &mut self.latency);
        t.exit();
        out?;
        self.record.extend(&self.trace.labels);
        self.trace.labels.clear();
        self.trace.joints.clear();
        Ok(())
    }
}

/// Wire and packet-pool counters of the replay's streaming sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTotals {
    /// Summed transport statistics.
    pub stats: WireStats,
    /// Packets the inlet saw out of sequence order.
    pub out_of_order: u64,
    /// Payload buffers allocated fresh.
    pub pool_allocated: u64,
    /// Payload buffers served from the free list.
    pub pool_reused: u64,
}

impl WireTotals {
    fn add(&mut self, wire: &Wire) {
        let s = wire.transport.stats();
        self.stats.sent += s.sent;
        self.stats.delivered += s.delivered;
        self.stats.lost += s.lost;
        self.stats.retransmissions += s.retransmissions;
        self.out_of_order += wire.inlet.out_of_order();
        self.pool_allocated += wire.pool.allocated();
        self.pool_reused += wire.pool.reused();
    }
}

/// The replayed fleet.
pub struct Replay {
    model: SavedModel,
    wire: Option<TransportParams>,
    pool: Arc<ExecPool>,
    ensemble: Ensemble,
    scratch: EnsembleScratch,
    windows: Vec<f32>,
    probas: Vec<f32>,
    due: Vec<usize>,
    labels: Vec<usize>,
    /// Live sessions, in the fleet's admission order.
    pub live: Vec<ReplaySession>,
    /// Removed sessions, in removal order.
    pub retired: Vec<ReplaySession>,
    /// Wire counters of sessions that have left.
    retired_wire: WireTotals,
    /// Classify calls and the windows they carried: `(calls, Σk, Σk²)`.
    pub batches: (u64, u64, u64),
}

impl Replay {
    /// A replay of `plans` serving `model`, classifying on `pool`.
    ///
    /// # Errors
    ///
    /// Session assembly failures.
    pub fn new(
        model: &SavedModel,
        wire: Option<TransportParams>,
        plans: &[SessionPlan],
        pool: Arc<ExecPool>,
    ) -> BenchResult<Self> {
        let mut replay = Self {
            model: model.clone(),
            wire,
            pool,
            scratch: EnsembleScratch::new(&model.ensemble),
            ensemble: model.ensemble.clone(),
            windows: Vec::new(),
            probas: Vec::new(),
            due: Vec::new(),
            labels: Vec::new(),
            live: Vec::new(),
            retired: Vec::new(),
            retired_wire: WireTotals::default(),
            batches: (0, 0, 0),
        };
        for plan in plans {
            replay.admit(plan)?;
        }
        Ok(replay)
    }

    /// Admits a session at the end of the roster.
    ///
    /// # Errors
    ///
    /// Session assembly failures.
    pub fn admit(&mut self, plan: &SessionPlan) -> BenchResult<()> {
        self.live
            .push(ReplaySession::new(&self.model, plan, self.wire)?);
        Ok(())
    }

    /// Removes the session at roster position `victim`.
    pub fn remove(&mut self, victim: usize) {
        let gone = self.live.remove(victim);
        if let Some(wire) = &gone.wire {
            self.retired_wire.add(wire);
        }
        self.retired.push(gone);
    }

    /// Wire counters over every streaming session so far.
    #[must_use]
    pub fn wire_totals(&self) -> WireTotals {
        let mut totals = self.retired_wire;
        for wire in self.live.iter().filter_map(|s| s.wire.as_deref()) {
            totals.add(wire);
        }
        totals
    }

    /// One traced tick: every session advances one label period, batch
    /// sessions' due windows are classified in one batched call, and
    /// labels are actuated. Spans are folded into `t` at the end.
    ///
    /// # Errors
    ///
    /// Board, wire and actuation failures.
    pub fn tick(&mut self, t: &mut Tracer) -> BenchResult<()> {
        for s in &mut self.live {
            s.apply_events();
        }
        t.enter(Layer::Tick);
        self.due.clear();
        let mut solo = 0;
        for (i, s) in self.live.iter_mut().enumerate() {
            if s.wire.is_some() {
                solo += u64::from(s.stream(t, &self.pool)?);
            } else if s.advance(t)? {
                self.due.push(i);
            }
        }
        for _ in 0..solo {
            self.count_batch(1);
        }
        if !self.due.is_empty() {
            let k = self.due.len();
            t.enter(Layer::Gather);
            self.windows.clear();
            for &i in &self.due {
                self.live[i].window.append_to(&mut self.windows);
            }
            t.exit();
            t.enter(Layer::Classify);
            self.probas.clear();
            self.probas.resize(k * CLASSES, 0.0);
            self.ensemble.predict_batch_into(
                &self.windows,
                k,
                CHANNELS,
                &self.pool,
                &mut self.scratch,
                &mut self.probas,
            );
            self.labels.clear();
            self.labels
                .extend(self.probas.chunks_exact(CLASSES).map(argmax));
            t.exit();
            self.count_batch(k as u64);
            for (&i, &label) in self.due.iter().zip(&self.labels) {
                self.live[i].actuate(t, label)?;
            }
        }
        t.exit();
        t.fold();
        Ok(())
    }

    fn count_batch(&mut self, k: u64) {
        self.batches.0 += 1;
        self.batches.1 += k;
        self.batches.2 += k * k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{mismatches, Fleet};
    use crate::traffic::workload;

    #[test]
    fn replay_labels_equal_the_fleets_under_churn_and_wire() {
        let pool = Arc::new(ExecPool::new(1));
        let w = crate::traffic::Workload {
            batch: 3,
            streaming: 2,
            churn: true,
            ..workload("wire-16").unwrap()
        };
        let artifact =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/dense.cogm");
        let mut fleet = Fleet::open(Arc::clone(&pool), w, &artifact, 11, true).unwrap();
        let plans: Vec<_> = fleet.live.iter().map(|l| l.plan.clone()).collect();
        let mut replay = Replay::new(fleet.model(), w.wire, &plans, Arc::clone(&pool)).unwrap();
        let mut tracer = Tracer::new();
        for i in 0..2 * fleet.fill_ticks {
            fleet.tick();
            replay.tick(&mut tracer).unwrap();
            if i % 8 == 7 {
                let c = fleet.churn();
                replay.remove(c.victim);
                replay.admit(&c.plan).unwrap();
            }
        }
        assert_eq!(fleet.tally.failed(), 0);
        let fleet_sessions: Vec<_> = fleet.retired.iter().chain(&fleet.live).collect();
        let replay_sessions: Vec<_> = replay.retired.iter().chain(&replay.live).collect();
        assert_eq!(fleet_sessions.len(), replay_sessions.len());
        let mut labels = 0;
        for (f, r) in fleet_sessions.iter().zip(&replay_sessions) {
            assert_eq!(mismatches(f.record.as_ref().unwrap(), &r.record), 0);
            labels += r.record.classes.len();
        }
        assert!(labels > 0);
        // Every classified window was counted, and the wire moved packets.
        assert_eq!(replay.batches.1 as usize, labels);
        assert!(replay.wire_totals().stats.sent > 0);
        assert!(tracer.self_ns[Layer::Dejitter as usize] > 0);
    }
}
