//! The system under test: one `serve::SessionManager` fed seeded specs from
//! a frozen artifact and driven from outside in a closed loop — each
//! [`Fleet::tick`] is one `run_for_each(0.064)` call, and the next starts
//! when it returns. Every operation is counted; failures are tallied, never
//! panicked on.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cognitive_arm::pipeline::{CognitiveArm, LabelEvent};
use exec::ExecPool;
use model_io::SavedModel;
use serve::{ArtifactId, SessionId, SessionManager, SessionSpec};

use crate::traffic::{Kind, Schedule, SessionPlan, Traffic, Workload, TICK_S, TICK_SAMPLES};
use crate::{host, BenchResult};

/// One admitted session and what the benchmark has seen of it.
#[derive(Debug)]
pub struct Live {
    /// The manager's handle.
    pub id: SessionId,
    /// What the traffic generator decided for it.
    pub plan: SessionPlan,
    schedule: Schedule,
    /// Ticks it has been part of.
    pub age: u32,
    /// Labels it has emitted.
    pub labels: u64,
    /// Every label, for sessions whose labels are checked.
    pub record: Option<LabelRecord>,
}

/// A session's labels as the checks compare them, one byte per label: the
/// class of each, and a running hash of their timestamp bits. Compact, so
/// that what the benchmark keeps stays out of the program's peak RSS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelRecord {
    /// Class index of every label, in order.
    pub classes: Vec<u8>,
    /// FNV-1a over the timestamps' bits, in order.
    pub t_hash: u64,
}

impl LabelRecord {
    /// Appends `events`.
    pub fn extend(&mut self, events: &[LabelEvent]) {
        for e in events {
            self.classes
                .push(u8::try_from(e.label).expect("class indices fit a byte"));
            self.t_hash = host::fnv1a64_from(self.t_hash, &e.t.to_bits().to_le_bytes());
        }
    }

    /// The record of `events`.
    #[must_use]
    pub fn of(events: &[LabelEvent]) -> Self {
        let mut r = Self {
            classes: Vec::with_capacity(events.len()),
            t_hash: host::fnv1a64(&[]),
        };
        r.extend(events);
        r
    }
}

/// Failures by cause; every one counts in `failed`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Session-ticks, admissions and removals attempted.
    pub attempted: u64,
    /// Per-session errors from `run_for_each` (a poisoned session errors
    /// on every later tick), and failed `set_action`/`set_mode` calls.
    pub errors: u64,
    /// Session-ticks of loop segments whose median tick is longer than
    /// the 64 ms label period: the fleet did not keep real time.
    pub deadline: u64,
    /// Labels that differ from the solo reference, or are missing or
    /// extra against the expected count.
    pub mismatches: u64,
    /// Failed admissions and removals.
    pub admission: u64,
}

impl Tally {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.deadline += other.deadline;
        self.mismatches += other.mismatches;
        self.admission += other.admission;
    }

    /// Failed operations.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.errors + self.deadline + self.mismatches + self.admission
    }
}

/// One churn step: which roster position left, and who was admitted.
#[derive(Debug, Clone)]
pub struct Churn {
    /// Roster position of the disconnected session.
    pub victim: usize,
    /// The session admitted in its place.
    pub plan: SessionPlan,
    /// Seconds in `remove_session`.
    pub remove_s: f64,
    /// Seconds in `add_session` / `add_streaming_session`.
    pub admit_s: f64,
}

/// Labels a session emits over `age` ticks when its window fills after
/// `fill_ticks`: one per tick from the first full window on.
#[must_use]
pub fn expected_labels(age: u32, fill_ticks: u32) -> u64 {
    u64::from((age + 1).saturating_sub(fill_ticks))
}

/// Labels of `got` whose class differs from `want`'s, plus the difference
/// in length, plus one when the counts agree but a timestamp differs.
#[must_use]
pub fn mismatches(got: &LabelRecord, want: &LabelRecord) -> u64 {
    let differing = got
        .classes
        .iter()
        .zip(&want.classes)
        .filter(|(a, b)| a != b)
        .count();
    let missing = got.classes.len().abs_diff(want.classes.len());
    let times = missing == 0 && got.t_hash != want.t_hash;
    (differing + missing) as u64 + u64::from(times)
}

/// The solo reference: `CognitiveArm::run_for` of the session's spec, one
/// label period per call, with the same seeded events, over `ticks` ticks.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn solo_labels(
    model: &SavedModel,
    plan: &SessionPlan,
    ticks: u32,
    pool: &Arc<ExecPool>,
) -> BenchResult<LabelRecord> {
    let mut arm = CognitiveArm::with_pool(
        model.pipeline.clone(),
        model.ensemble.clone(),
        plan.subject_seed,
        Arc::clone(pool),
    );
    if let Some(z) = &model.normalization {
        arm.set_normalization(z.clone());
    }
    arm.set_subject_action(plan.action);
    let mut schedule = Schedule::new(plan);
    let mut labels = LabelRecord::of(&[]);
    for _ in 0..ticks {
        let events = schedule.step();
        if let Some(a) = events.action {
            arm.set_subject_action(a);
        }
        if let Some(m) = events.mode {
            arm.set_mode(m);
        }
        labels.extend(&arm.run_for(TICK_S)?.labels);
    }
    Ok(labels)
}

/// A session manager serving one workload.
pub struct Fleet {
    /// The program under test.
    pub manager: SessionManager,
    artifact: ArtifactId,
    workload: Workload,
    traffic: Traffic,
    /// Live sessions in admission order — the order `run_for_each`
    /// reports in.
    pub live: Vec<Live>,
    /// Removed sessions that carry a label record.
    pub retired: Vec<Live>,
    /// Operation and failure counts.
    pub tally: Tally,
    /// Labels emitted by every session so far.
    pub labels: u64,
    /// Ticks (windows per session) until a fresh session's first label.
    pub fill_ticks: u32,
    record_all: bool,
}

impl Fleet {
    /// Opens `artifact` on a fresh manager over `pool` and admits the
    /// workload's sessions. With `record_all`, every session keeps its
    /// labels (the traced run compares all of them); otherwise only the
    /// sessions the traffic generator picked for a solo check do.
    ///
    /// # Errors
    ///
    /// Artifact open failures and an artifact whose label period is not
    /// one tick.
    pub fn open(
        pool: Arc<ExecPool>,
        workload: Workload,
        artifact: &Path,
        seed: u64,
        record_all: bool,
    ) -> BenchResult<Self> {
        let mut manager = SessionManager::new(pool);
        let id = manager.open_artifact(artifact)?;
        let model = manager.artifact_model(id)?;
        if model.pipeline.label_every != TICK_SAMPLES {
            return Err(format!(
                "artifact labels every {} samples; the benchmark ticks every {TICK_SAMPLES}",
                model.pipeline.label_every
            )
            .into());
        }
        let fill_ticks = model.ensemble.window().div_ceil(TICK_SAMPLES) as u32;
        let mut fleet = Self {
            manager,
            artifact: id,
            workload,
            traffic: Traffic::new(&workload, seed),
            live: Vec::new(),
            retired: Vec::new(),
            tally: Tally::default(),
            labels: 0,
            fill_ticks,
            record_all,
        };
        for _ in 0..workload.batch {
            fleet.admit(Kind::Batch);
        }
        for _ in 0..workload.streaming {
            fleet.admit(Kind::Streaming);
        }
        Ok(fleet)
    }

    /// The artifact's decoded model (what every session serves).
    #[must_use]
    pub fn model(&self) -> &SavedModel {
        self.manager
            .artifact_model(self.artifact)
            .expect("the fleet's own artifact is interned")
    }

    /// The spec the program receives for `plan`.
    fn spec(&self, plan: &SessionPlan) -> SessionSpec {
        let spec = SessionSpec::from_saved(self.model().clone(), plan.subject_seed)
            .with_action(plan.action);
        match (plan.kind, self.workload.wire) {
            (Kind::Streaming, Some(wire)) => spec.with_wire(wire),
            _ => spec,
        }
    }

    /// Admits the next seeded session of `kind`. Returns its plan and the
    /// seconds in `add_session` / `add_streaming_session`; a failed
    /// admission is tallied and leaves the roster as it was.
    fn admit(&mut self, kind: Kind) -> (SessionPlan, f64) {
        let plan = self.traffic.session(kind);
        let spec = self.spec(&plan);
        self.tally.attempted += 1;
        let t0 = Instant::now();
        let admitted = match kind {
            Kind::Batch => self.manager.add_session(spec),
            Kind::Streaming => self.manager.add_streaming_session(spec),
        };
        let admit_s = t0.elapsed().as_secs_f64();
        match admitted {
            Ok(id) => self.live.push(Live {
                id,
                schedule: Schedule::new(&plan),
                record: (self.record_all || plan.checked).then(|| LabelRecord::of(&[])),
                plan: plan.clone(),
                age: 0,
                labels: 0,
            }),
            Err(_) => self.tally.admission += 1,
        }
        (plan, admit_s)
    }

    /// Disconnects the session at roster position `pos` and retires it.
    /// Returns its kind and the seconds in `remove_session`.
    fn remove(&mut self, pos: usize) -> (Kind, f64) {
        let gone = self.live.remove(pos);
        self.tally.attempted += 1;
        let t0 = Instant::now();
        let removed = self.manager.remove_session(gone.id);
        let remove_s = t0.elapsed().as_secs_f64();
        self.tally.admission += u64::from(removed.is_err());
        let kind = gone.plan.kind;
        self.retire(gone);
        (kind, remove_s)
    }

    /// Whether every live session has emitted a label.
    #[must_use]
    pub fn all_labelled(&self) -> bool {
        self.live.iter().all(|l| l.labels > 0)
    }

    /// One fleet tick: the seeded events due now, then one
    /// `run_for_each(0.064)`. Returns the call's wall seconds.
    pub fn tick(&mut self) -> f64 {
        for live in &mut self.live {
            let events = live.schedule.step();
            if let Some(a) = events.action {
                self.tally.errors += u64::from(self.manager.set_action(live.id, a).is_err());
            }
            if let Some(m) = events.mode {
                self.tally.errors += u64::from(self.manager.set_mode(live.id, m).is_err());
            }
        }
        let t0 = Instant::now();
        let results = self.manager.run_for_each(TICK_S);
        let wall = t0.elapsed().as_secs_f64();

        let n = self.live.len() as u64;
        self.tally.attempted += n;
        match results {
            Ok(results) if results.len() == self.live.len() => {
                for (live, result) in self.live.iter_mut().zip(results) {
                    live.age += 1;
                    match result {
                        Ok(trace) => {
                            live.labels += trace.labels.len() as u64;
                            self.labels += trace.labels.len() as u64;
                            if let Some(record) = &mut live.record {
                                record.extend(&trace.labels);
                            }
                        }
                        Err(_) => self.tally.errors += 1,
                    }
                }
            }
            _ => {
                self.tally.errors += n;
                for live in &mut self.live {
                    live.age += 1;
                }
            }
        }
        wall
    }

    /// One disconnect plus one admission of the same kind: the victim is
    /// the traffic generator's seeded pick.
    pub fn churn(&mut self) -> Churn {
        let victim = self.traffic.victim(self.live.len());
        let (kind, remove_s) = self.remove(victim);
        let (plan, admit_s) = self.admit(kind);
        Churn {
            victim,
            plan,
            remove_s,
            admit_s,
        }
    }

    /// One admission plus one disconnect of a transient session of `kind`
    /// that never ticks: admission timed against the fleet as it stands.
    /// Returns `(admit seconds, remove seconds)`.
    pub fn probe(&mut self, kind: Kind) -> (f64, f64) {
        let before = self.live.len();
        let (_, admit_s) = self.admit(kind);
        if self.live.len() == before {
            return (admit_s, 0.0);
        }
        let (_, remove_s) = self.remove(before);
        (admit_s, remove_s)
    }

    /// Counts a departing session's labels against the expected count and
    /// keeps its record for the label checks; a session that never ticked
    /// has no labels to check.
    fn retire(&mut self, gone: Live) {
        let expected = expected_labels(gone.age, self.fill_ticks);
        self.tally.mismatches += gone.labels.abs_diff(expected);
        if gone.record.is_some() && gone.age > 0 {
            self.retired.push(gone);
        }
    }

    /// Ends the run: counts every live session's labels against the
    /// expected count and moves it to the retired list.
    pub fn retire_all(&mut self) {
        for gone in std::mem::take(&mut self.live) {
            self.retire(gone);
        }
    }

    /// Checks every retired session picked for a solo check against its
    /// solo reference, counting differing labels as failures. Returns how
    /// many sessions were checked.
    ///
    /// # Errors
    ///
    /// A solo reference that itself fails.
    pub fn check_solo(&mut self, pool: &Arc<ExecPool>) -> BenchResult<usize> {
        let mut checked = 0;
        for gone in self.retired.iter().filter(|g| g.plan.checked) {
            let want = solo_labels(self.model(), &gone.plan, gone.age, pool)?;
            let got = gone
                .record
                .as_ref()
                .expect("checked sessions keep a record");
            self.tally.mismatches += mismatches(got, &want);
            checked += 1;
        }
        Ok(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::workload;

    fn dense() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/dense.cogm")
    }

    #[test]
    fn expected_label_counts() {
        assert_eq!(expected_labels(0, 13), 0);
        assert_eq!(expected_labels(12, 13), 0);
        assert_eq!(expected_labels(13, 13), 1);
        assert_eq!(expected_labels(100, 13), 88);
    }

    #[test]
    fn probes_leave_the_roster_as_it_was() {
        let pool = Arc::new(ExecPool::new(1));
        let w = Workload {
            batch: 3,
            ..workload("fleet-64").unwrap()
        };
        let mut fleet = Fleet::open(Arc::clone(&pool), w, &dense(), 5, true).unwrap();
        for _ in 0..fleet.fill_ticks {
            fleet.tick();
        }
        let ids: Vec<SessionId> = fleet.live.iter().map(|l| l.id).collect();
        for _ in 0..4 {
            let (admit_s, remove_s) = fleet.probe(Kind::Batch);
            assert!(admit_s > 0.0 && remove_s.is_finite());
        }
        assert_eq!(fleet.live.iter().map(|l| l.id).collect::<Vec<_>>(), ids);
        assert_eq!(fleet.manager.session_ids(), ids);
        assert!(
            fleet.retired.is_empty(),
            "never-ticked probes keep no record"
        );
        assert_eq!(fleet.tally.failed(), 0, "{:?}", fleet.tally);
    }

    #[test]
    fn forced_label_mismatch_raises_failed_ratio() {
        let pool = Arc::new(ExecPool::new(1));
        let w = Workload {
            batch: 2,
            streaming: 1,
            check_one_in: 1,
            ..workload("churn-72c").unwrap()
        };
        let mut fleet = Fleet::open(Arc::clone(&pool), w, &dense(), 5, false).unwrap();
        let ticks = fleet.fill_ticks + 4;
        for _ in 0..ticks {
            fleet.tick();
        }
        fleet.retire_all();
        assert_eq!(fleet.check_solo(&pool).unwrap(), 3);
        let clean = fleet.tally;
        assert_eq!(clean.failed(), 0, "{clean:?}");
        assert_eq!(clean.attempted, 3 + 3 * u64::from(ticks));

        // Flip one recorded label: exactly that label fails.
        let record = fleet.retired[0].record.as_mut().unwrap();
        let record_label = record.classes[2];
        record.classes[2] = (record_label + 1) % 3;
        fleet.tally = Tally::default();
        fleet.check_solo(&pool).unwrap();
        assert_eq!(fleet.tally.failed(), 1);

        // A shifted timestamp fails once.
        fleet.retired[0].record.as_mut().unwrap().classes[2] = record_label;
        fleet.retired[0].record.as_mut().unwrap().t_hash ^= 1;
        fleet.tally = Tally::default();
        fleet.check_solo(&pool).unwrap();
        assert_eq!(fleet.tally.failed(), 1);
        fleet.retired[0].record.as_mut().unwrap().t_hash ^= 1;

        // A lost label fails against both the reference and the count.
        fleet.retired[1].record.as_mut().unwrap().classes.pop();
        fleet.retired[1].labels -= 1;
        fleet.tally = Tally::default();
        fleet.check_solo(&pool).unwrap();
        let gone = fleet.retired.remove(1);
        fleet.retire(Live {
            record: None,
            ..gone
        });
        assert_eq!(fleet.tally.mismatches, 2);
    }
}
