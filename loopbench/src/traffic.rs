//! Seeded traffic: the workload definitions, and everything the benchmark
//! decides for the program from `--seed` — subject seeds, each session's
//! Left/Right/Idle switches and voice-mode switches, churn order, and which
//! sessions get a solo correctness check. The program under test only ever
//! receives `SessionSpec`s and `set_action`/`set_mode` calls.

use arm::controller::ControlMode;
use eeg::types::Action;
use stream::transport::TransportParams;

/// One scheduling quantum: 8 samples at 125 Hz, exactly one label period.
pub const TICK_S: f64 = 0.064;
/// Samples per tick.
pub const TICK_SAMPLES: usize = 8;

/// Which frozen artifact a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// The trained cnn+transformer ensemble (`model_roundtrip save … 21`).
    Dense,
    /// The same ensemble with one member pruned to CSR and one quantized
    /// to int8 (`model_roundtrip save-compressed … 21`).
    Compressed,
}

/// The session shapes `serve::SessionManager` admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monolithic loop, micro-batched with every batch session of the
    /// artifact.
    Batch,
    /// Two-stage streaming pipeline behind a simulated wire.
    Streaming,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The artifact every session serves.
    pub artifact: Artifact,
    /// Batch sessions in the fleet.
    pub batch: usize,
    /// Streaming sessions in the fleet.
    pub streaming: usize,
    /// Wire of the streaming sessions (`None`: the default LSL role).
    pub wire: Option<TransportParams>,
    /// One disconnect plus one admission after every tick.
    pub churn: bool,
    /// One in how many sessions gets a solo reference check.
    pub check_one_in: u64,
}

impl Workload {
    /// The kind of the transient sessions that time admission on
    /// workloads without churn: the fleet's own kind.
    #[must_use]
    pub fn probe_kind(&self) -> Kind {
        if self.batch > 0 {
            Kind::Batch
        } else {
            Kind::Streaming
        }
    }
}

/// Burst jitter far above the 8 ms sample cadence plus 5% loss with
/// retransmission: heavy reordering every tick (the `serving_load` wire).
#[must_use]
pub fn adversarial_wire() -> TransportParams {
    TransportParams {
        base_latency: 0.004,
        jitter: 0.050,
        loss_prob: 0.05,
        retransmit: true,
        timestamps: true,
        overhead_bytes: 66,
    }
}

/// The three workloads, by name.
#[must_use]
pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        "fleet-64" => Workload {
            name: "fleet-64",
            artifact: Artifact::Dense,
            batch: 64,
            streaming: 0,
            wire: None,
            churn: false,
            check_one_in: 16,
        },
        "wire-16" => Workload {
            name: "wire-16",
            artifact: Artifact::Dense,
            batch: 0,
            streaming: 16,
            wire: Some(adversarial_wire()),
            churn: false,
            check_one_in: 4,
        },
        "churn-72c" => Workload {
            name: "churn-72c",
            artifact: Artifact::Compressed,
            batch: 64,
            streaming: 8,
            wire: None,
            churn: true,
            check_one_in: 32,
        },
        _ => return None,
    };
    Some(w)
}

/// Names accepted by [`workload`].
pub const WORKLOADS: [&str; 3] = ["fleet-64", "wire-16", "churn-72c"];

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }
}

/// Everything the benchmark decides about one session at admission.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Batch or streaming.
    pub kind: Kind,
    /// The simulated subject (and their wire).
    pub subject_seed: u64,
    /// The mental task the subject starts with.
    pub action: Action,
    /// Seeds the session's [`Schedule`].
    pub schedule_seed: u64,
    /// Whether this session's labels are checked against a solo run.
    pub checked: bool,
}

const ACTIONS: [Action; 3] = [Action::Left, Action::Right, Action::Idle];
const MODES: [ControlMode; 3] = [ControlMode::Arm, ControlMode::Elbow, ControlMode::Fingers];

/// Action switches every 2–5 s of simulated time.
const ACTION_TICKS: (u32, u32) = (31, 78);
/// Voice-mode switches every 10–30 s.
const MODE_TICKS: (u32, u32) = (156, 469);

/// Calls to make on one session before a tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Events {
    /// `set_action`, when the subject switches task.
    pub action: Option<Action>,
    /// `set_mode`, when the user speaks a mode word.
    pub mode: Option<ControlMode>,
}

/// One session's seeded event stream: call [`Schedule::step`] once before
/// every tick of the session's life. Rebuilt from the plan, it replays the
/// same events, which is how solo references and the traced replay see
/// exactly the traffic the fleet saw.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Rng,
    action: Action,
    to_action: u32,
    to_mode: u32,
}

impl Schedule {
    /// The schedule of `plan`.
    #[must_use]
    pub fn new(plan: &SessionPlan) -> Self {
        let mut rng = Rng::new(plan.schedule_seed);
        let to_action = rng.between(ACTION_TICKS.0, ACTION_TICKS.1);
        let to_mode = rng.between(MODE_TICKS.0, MODE_TICKS.1);
        Self {
            rng,
            action: plan.action,
            to_action,
            to_mode,
        }
    }

    /// The events due before the session's next tick.
    pub fn step(&mut self) -> Events {
        let mut events = Events::default();
        self.to_action -= 1;
        if self.to_action == 0 {
            let current = ACTIONS.iter().position(|&a| a == self.action).unwrap_or(0);
            self.action = ACTIONS[(current + 1 + self.rng.below(2) as usize) % 3];
            events.action = Some(self.action);
            self.to_action = self.rng.between(ACTION_TICKS.0, ACTION_TICKS.1);
        }
        self.to_mode -= 1;
        if self.to_mode == 0 {
            events.mode = Some(MODES[self.rng.below(3) as usize]);
            self.to_mode = self.rng.between(MODE_TICKS.0, MODE_TICKS.1);
        }
        events
    }
}

/// The run's traffic generator: hands out session plans in admission order
/// and picks which session each churn step disconnects.
#[derive(Debug, Clone)]
pub struct Traffic {
    rng: Rng,
    check_one_in: u64,
}

impl Traffic {
    /// The generator of workload `w` at `seed`.
    #[must_use]
    pub fn new(w: &Workload, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed ^ 0xC0C0_A12A_0000_0000),
            check_one_in: w.check_one_in.max(1),
        }
    }

    /// The next session to admit.
    pub fn session(&mut self, kind: Kind) -> SessionPlan {
        SessionPlan {
            kind,
            subject_seed: self.rng.next_u64() >> 16,
            action: ACTIONS[self.rng.below(3) as usize],
            schedule_seed: self.rng.next_u64(),
            checked: self.rng.below(self.check_one_in) == 0,
        }
    }

    /// The roster position to disconnect next, among `live` sessions.
    pub fn victim(&mut self, live: usize) -> usize {
        self.rng.below(live as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic() {
        let w = workload("churn-72c").unwrap();
        let mut a = Traffic::new(&w, 7);
        let mut b = Traffic::new(&w, 7);
        for _ in 0..50 {
            let (pa, pb) = (a.session(Kind::Batch), b.session(Kind::Batch));
            assert_eq!(pa.subject_seed, pb.subject_seed);
            assert_eq!(pa.schedule_seed, pb.schedule_seed);
            assert_eq!(a.victim(72), b.victim(72));
        }
        let mut c = Traffic::new(&w, 8);
        assert_ne!(
            c.session(Kind::Batch).subject_seed,
            Traffic::new(&w, 7).session(Kind::Batch).subject_seed
        );
    }

    #[test]
    fn schedule_switches_every_few_seconds() {
        let w = workload("fleet-64").unwrap();
        let plan = Traffic::new(&w, 3).session(Kind::Batch);
        let mut s = Schedule::new(&plan);
        let events: Vec<Events> = (0..2000).map(|_| s.step()).collect();
        let switches = events.iter().filter(|e| e.action.is_some()).count();
        let modes = events.iter().filter(|e| e.mode.is_some()).count();
        // 2000 ticks = 128 s: one action switch per 2–5 s, one mode switch
        // per 10–30 s.
        assert!((25..=65).contains(&switches), "{switches} action switches");
        assert!((4..=13).contains(&modes), "{modes} mode switches");
        let mut replay = Schedule::new(&plan);
        assert!(events.iter().all(|e| *e == replay.step()));
    }
}
