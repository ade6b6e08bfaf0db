//! Serving benchmark for the EEG→arm loop.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload fleet-64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` drives `serve::SessionManager` from outside on a one-thread
//! pool in a closed loop (one `run_for_each(0.064)` per tick, the next as
//! soon as it returns) and reports the end-to-end metrics, each read at the
//! fastest 1% of its samples (`stats::QUIET`). `--trace 1` replays the same sessions on one thread through the
//! layers' public functions with spans around each call, alternating
//! blocks of ticks with a one-thread `run_for_each` of the same fleet, and
//! reports the per-layer metrics. Both check the program's labels; the
//! last line of standard output is the JSON result. See `NOTES.md`.

mod fleet;
mod host;
mod replay;
mod stats;
mod trace;
mod traffic;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use exec::ExecPool;
use serve::SessionManager;

use crate::fleet::{mismatches, Fleet, Tally};
use crate::replay::Replay;
use crate::trace::{Layer, Tracer};
use crate::traffic::{workload, Artifact, Workload, TICK_S, WORKLOADS};

/// Errors the benchmark reports before exiting non-zero.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups per block.
const SETUPS_PER_BLOCK: usize = 16;
/// Blocks of set-ups per run, each followed by one segment of the tick
/// loop, so that the set-ups sample the host across the whole run.
const SETUP_BLOCKS: usize = 8;
/// Set-ups per run.
const SETUPS: usize = SETUP_BLOCKS * SETUPS_PER_BLOCK;
/// Transient admit + remove pairs timed on each set-up fleet but the
/// measured one, on workloads without churn.
const PROBES_PER_FLEET: usize = 32;
/// Ticks per alternating block of the traced run.
const TRACE_BLOCK: usize = 32;
/// Pool threads. One thread measures the program's own work: on a small
/// shared host a second thread waits whenever the host runs someone else
/// on the other CPU, and a tick then measures the scheduler.
const POOL_THREADS: usize = 1;

/// FNV-1a of the frozen artifacts (`model_roundtrip save` /
/// `save-compressed` with seed 21).
const DENSE_FNV: u64 = 0xEB46_76CA_1F83_9AEB;
const COMPRESSED_FNV: u64 = 0x027B_1076_FD64_8F45;

const USAGE: &str = "usage: loopbench --workload <fleet-64|wire-16|churn-72c> --seed <u64> \
                     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                w = Some(workload(value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", WORKLOADS.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run prints: the context block, then the result line.
#[derive(Default)]
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
    /// Printed with the metrics but left out of the result line: latency
    /// tails, which host steal phases move too far between runs to gate.
    recorded: Vec<Metric>,
    /// `(key, JSON value)` pairs, recorded but not metrics.
    context: Vec<(String, String)>,
    /// Metric-name prefixes of layers the workload does not run. The
    /// result line still carries their metrics, as zeros.
    idle: Vec<&'static str>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn record(&mut self, name: &str, value: f64, unit: &'static str) {
        self.note(name, value);
        self.recorded.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_owned(), value.to_string()));
    }

    fn note_str(&mut self, key: &str, value: &str) {
        self.note(key, format!("\"{value}\""));
    }

    fn print(&self, w: &Workload) -> BenchResult<()> {
        let failed_ratio = self.tally.failed() as f64 / self.tally.attempted.max(1) as f64;
        for m in &self.metrics {
            let idle = self.idle.iter().any(|p| m.name.starts_with(p));
            println!(
                "{}/{:<32} {:>16.6} {}{}",
                w.name,
                m.name,
                m.value,
                m.unit,
                if idle {
                    " (layer not on this workload's path)"
                } else {
                    ""
                }
            );
        }
        for m in &self.recorded {
            println!(
                "{}/{:<32} {:>16.6} {} (recorded, not gated)",
                w.name, m.name, m.value, m.unit
            );
        }
        println!(
            "{}/{:<32} {:>16.6} ratio (attempted and failed in the result line)",
            w.name, "failed_ratio", failed_ratio
        );
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("context {{{}}}", context.join(", "));
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name).into());
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed(),
            metrics.join(", ")
        );
        Ok(())
    }
}

/// The frozen artifact's path, after checking its content hash.
fn frozen_artifact(a: Artifact) -> BenchResult<(PathBuf, u64)> {
    let (file, want, save) = match a {
        Artifact::Dense => ("dense.cogm", DENSE_FNV, "save"),
        Artifact::Compressed => ("compressed.cogm", COMPRESSED_FNV, "save-compressed"),
    };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("artifacts")
        .join(file);
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let got = host::fnv1a64(&bytes);
    if got != want {
        return Err(format!(
            "{} hashes to {got:#018x}, not the frozen {want:#018x}; the workload changed \
             (regenerate with `model_roundtrip {save} <path> 21` and update the hash \
             only as a benchmark change)",
            path.display()
        )
        .into());
    }
    Ok((path, got))
}

/// One timed set-up: a fresh manager opens the artifact, admits the
/// workload's sessions and ticks until every session has labelled.
fn set_up(
    pool: &Arc<ExecPool>,
    w: Workload,
    path: &Path,
    seed: u64,
    times: &mut Vec<f64>,
) -> BenchResult<Fleet> {
    let t0 = Instant::now();
    let mut fleet = Fleet::open(Arc::clone(pool), w, path, seed, false)?;
    run_until_labelled(&mut fleet)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(fleet)
}

/// Without churn, admission is timed on the set-up fleets, never on the
/// measured one: a removal leaves a tombstone in the session table, which
/// the tick loop must not see. Transient sessions of the fleet's own kind
/// are admitted into the labelled fleet and removed again, never ticked.
/// Returns the seconds of each admit + remove pair.
fn probe_admissions(fleet: &mut Fleet, w: Workload) -> Vec<f64> {
    (0..PROBES_PER_FLEET)
        .map(|_| {
            let (admit_s, remove_s) = fleet.probe(w.probe_kind());
            admit_s + remove_s
        })
        .collect()
}

/// Ticks a fresh fleet until every session has emitted its first label;
/// returns the ticks taken.
fn run_until_labelled(fleet: &mut Fleet) -> BenchResult<u32> {
    let limit = 4 * fleet.fill_ticks + 4;
    let mut ticks = 0;
    while !fleet.all_labelled() {
        if ticks == limit {
            return Err(format!("no first label from every session after {limit} ticks").into());
        }
        fleet.tick();
        ticks += 1;
    }
    Ok(ticks)
}

/// Records the host and build facts every result carries.
fn note_context(r: &mut Report, args: &Args, threads: usize, artifact_fnv: u64) {
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    r.note_str("workload", args.workload.name);
    r.note("seed", args.seed);
    r.note("run_seconds", args.seconds);
    r.note("trace", u8::from(args.trace));
    r.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    r.note("pool_threads", threads);
    r.note("dsp_simd", dsp::simd::enabled());
    r.note("ml_simd", ml::simd::enabled());
    r.note_str(
        "plan_version",
        &format!("{:?}", ml::plan::PlanVersion::runtime_default()),
    );
    r.note_str("COGARM_NO_SIMD", &env("COGARM_NO_SIMD"));
    r.note_str("COGARM_PLAN", &env("COGARM_PLAN"));
    r.note_str("artifact_fnv1a64", &format!("{artifact_fnv:#018x}"));
}

fn note_tally(r: &mut Report, t: &Tally) {
    r.note(
        "failed_ratio",
        t.failed() as f64 / t.attempted.max(1) as f64,
    );
    r.note("failed_errors", t.errors);
    r.note("failed_deadline", t.deadline);
    r.note("failed_label_mismatch", t.mismatches);
    r.note("failed_admission", t.admission);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("loopbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    match report.and_then(|r| r.print(&args.workload)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--trace 0`: set-ups interleaved with the closed tick loop, the
/// admission timings and the label checks, with tracing off.
fn run_end_to_end(args: &Args) -> BenchResult<Report> {
    let w = args.workload;
    let (path, fnv) = frozen_artifact(w.artifact)?;
    let pool = Arc::new(ExecPool::new(POOL_THREADS));
    let mut r = Report::default();
    note_context(&mut r, args, POOL_THREADS, fnv);
    r.note("ref_kernel_ms_before", host::reference_kernel_ms());
    let cpu_now = || host::cpu_seconds().ok_or("process CPU time needs clock_gettime");

    // The run alternates blocks of set-ups with segments of the closed
    // loop. A set-up is open + admit + run to every session's first
    // label, on a fresh manager; the first one is the fleet the loop
    // measures.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_tally = Tally::default();
    let mut fleet = set_up(&pool, w, &path, args.seed, &mut setup_s)?;
    // Per step of the loop (one tick, plus one churn under churn): the
    // tick's wall time, session-seconds advanced per wall-second of the
    // step, and process CPU µs per label. Room for a 1 ms step; only the
    // pages written count in peak RSS.
    let room = (args.seconds * 1e3) as usize;
    let mut ticks = Vec::with_capacity(room);
    let mut realtime = Vec::with_capacity(room);
    let mut cpu_per_label = Vec::with_capacity(room);
    let mut admits = Vec::with_capacity(if w.churn {
        room
    } else {
        SETUPS * PROBES_PER_FLEET
    });
    let labels0 = fleet.labels;
    let segment_s = args.seconds / SETUP_BLOCKS as f64;
    let (mut loop_s, mut steal_s) = (0.0, Some(0.0));
    let mut steal_pct = Vec::with_capacity(SETUP_BLOCKS);
    let mut deadline_misses = 0u64;
    let cpus = host::online_cpus() as f64;
    for block in 1..=SETUP_BLOCKS {
        while setup_s.len() < block * SETUPS_PER_BLOCK {
            let mut other = set_up(&pool, w, &path, args.seed, &mut setup_s)?;
            if !w.churn {
                admits.extend(probe_admissions(&mut other, w));
            }
            setup_tally.absorb(&other.tally);
        }

        // One segment of the closed loop. Under churn, one disconnect plus
        // one connect of a live session after every tick; the steady
        // workloads tick only.
        let steal0 = host::steal_seconds();
        let (first_tick, attempted_before) = (ticks.len(), fleet.tally.attempted);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < segment_s {
            let (sessions, labels_before) = (fleet.live.len(), fleet.labels);
            let cpu0 = cpu_now()?;
            let step0 = Instant::now();
            ticks.push(fleet.tick());
            if w.churn {
                let c = fleet.churn();
                admits.push(c.admit_s + c.remove_s);
            }
            let step = step0.elapsed().as_secs_f64();
            let cpu_s = cpu_now()? - cpu0;
            realtime.push(sessions as f64 * TICK_S / step);
            let labels = fleet.labels - labels_before;
            if labels > 0 {
                cpu_per_label.push(cpu_s * 1e6 / labels as f64);
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        loop_s += wall;
        let steal = host::steal_seconds().zip(steal0).map(|(b, a)| b - a);
        steal_s = steal_s.zip(steal).map(|(s, d)| s + d);
        steal_pct.push(steal.map_or(-1.0, |d| 100.0 * d / (wall * cpus)));

        let segment = &ticks[first_tick..];
        deadline_misses += segment.iter().filter(|&&t| t > TICK_S).count() as u64;
        if stats::median(segment) > TICK_S {
            // Every session-tick of a segment that did not keep real time.
            fleet.tally.deadline += fleet.tally.attempted - attempted_before;
        }
    }
    let labels = fleet.labels - labels0;

    fleet.retire_all();
    let checked = fleet.check_solo(&pool)?;
    let mut tally = fleet.tally;
    tally.absorb(&setup_tally);

    let tick_tail = stats::tail(&ticks, 0.99).ok_or("too few ticks for a tail percentile")?;
    let admit_tail = stats::tail(&admits, 0.99).ok_or("too few admissions for a tail")?;
    r.metric("setup_s", stats::quiet_low(&setup_s), "s");
    r.metric(
        "realtime_sessions",
        stats::quiet_high(&realtime),
        "sessions",
    );
    r.metric("tick_p1_ms", stats::quiet_low(&ticks) * 1e3, "ms");
    r.record("tick_p50_ms", stats::median(&ticks) * 1e3, "ms");
    r.record("tick_p99_ms", tick_tail.value * 1e3, "ms");
    r.metric("cpu_us_per_label", stats::quiet_low(&cpu_per_label), "us");
    r.metric("admit_p1_us", stats::quiet_low(&admits) * 1e6, "us");
    r.record("admit_p50_us", stats::median(&admits) * 1e6, "us");
    r.record("admit_p99_us", admit_tail.value * 1e6, "us");
    r.metric(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("peak RSS needs /proc/self/status")?,
        "MB",
    );

    // Medians over the whole run, which move with the host's slow phases.
    r.note("setup_s_median", stats::median(&setup_s));
    r.note("realtime_sessions_median", stats::median(&realtime));
    r.note("cpu_us_per_label_median", stats::median(&cpu_per_label));
    r.note("ticks", ticks.len());
    r.note("ticks_over_label_period", deadline_misses);
    r.note("tick_tail_percentile", tick_tail.percentile);
    r.note("admissions_timed", admit_tail.count);
    r.note("admit_tail_percentile", admit_tail.percentile);
    r.note("admissions_of_live_sessions", w.churn);
    r.note("loop_s", loop_s);
    r.note(
        "host_steal_pct",
        steal_s.map_or(-1.0, |s| 100.0 * s / (loop_s * cpus)),
    );
    r.note("labels", labels);
    r.note("sessions_solo_checked", checked);
    r.note("host_steal_pct_segments", format!("{steal_pct:.1?}"));
    r.note("ref_kernel_ms_after", host::reference_kernel_ms());
    note_tally(&mut r, &tally);
    r.correct = tally.mismatches == 0 && tally.errors == 0 && tally.admission == 0 && labels > 0;
    r.tally = tally;
    Ok(r)
}

/// `--trace 1`: alternating blocks of one-thread `run_for_each` ticks and
/// traced replay ticks over the same seeded traffic; per-layer metrics.
fn run_traced(args: &Args) -> BenchResult<Report> {
    let w = args.workload;
    let (path, fnv) = frozen_artifact(w.artifact)?;
    let pool = Arc::new(ExecPool::new(1));
    let mut r = Report::default();
    note_context(&mut r, args, 1, fnv);
    r.note("ref_kernel_ms_before", host::reference_kernel_ms());

    let mut open_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let mut manager = SessionManager::new(Arc::clone(&pool));
        let t0 = Instant::now();
        manager.open_artifact(&path)?;
        open_s.push(t0.elapsed().as_secs_f64());
    }

    let mut fleet = Fleet::open(Arc::clone(&pool), w, &path, args.seed, true)?;
    let plans: Vec<_> = fleet.live.iter().map(|l| l.plan.clone()).collect();
    let mut replay = Replay::new(fleet.model(), w.wire, &plans, Arc::clone(&pool))?;
    let mut tracer = Tracer::new();
    for _ in 0..run_until_labelled(&mut fleet)? {
        replay.tick(&mut tracer)?;
    }
    tracer.reset();
    replay.batches = (0, 0, 0);
    let wire0 = replay.wire_totals();

    let mut tick_1t = Vec::new();
    let (mut admit_s, mut remove_s) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        let mut churns = Vec::with_capacity(TRACE_BLOCK);
        for _ in 0..TRACE_BLOCK {
            tick_1t.push(fleet.tick());
            if w.churn {
                let c = fleet.churn();
                admit_s.push(c.admit_s);
                remove_s.push(c.remove_s);
                churns.push(c);
            }
        }
        for k in 0..TRACE_BLOCK {
            replay.tick(&mut tracer)?;
            if let Some(c) = churns.get(k) {
                replay.remove(c.victim);
                replay.admit(&c.plan)?;
            }
        }
    }
    let replay_ticks = tick_1t.len() as f64;
    let wire = replay.wire_totals();

    // The replay is the same job: every session's labels must match.
    let fleet_records = fleet.retired.iter().chain(&fleet.live);
    let replay_records = replay.retired.iter().chain(&replay.live);
    let mut compared = 0u64;
    let mut differing = 0u64;
    for (f, rp) in fleet_records.zip(replay_records) {
        let got = f
            .record
            .as_ref()
            .expect("the traced run records every session");
        differing += mismatches(got, &rp.record);
        compared += 1;
    }
    if compared as usize != fleet.retired.len() + fleet.live.len() {
        differing += 1;
    }
    fleet.tally.mismatches += differing;

    if !w.churn {
        for _ in 0..(SETUPS - 1) * PROBES_PER_FLEET {
            let (a, rm) = fleet.probe(w.probe_kind());
            admit_s.push(a);
            remove_s.push(rm);
        }
    }
    fleet.retire_all();

    // Per-layer self time per tick and share of the replay tick.
    let ns = |l: Layer| tracer.self_ns[l as usize] as f64;
    let replay_ns: f64 = tracer.self_ns.iter().sum::<u64>() as f64;
    let per_tick_us = |x: f64| x / replay_ticks / 1e3;
    let mut layers_ns = 0.0;
    for layer in &Layer::ALL[1..] {
        let x = ns(*layer);
        layers_ns += x;
        r.metric(format!("{}_us", layer.name()), per_tick_us(x), "us");
        r.metric(format!("{}_pct", layer.name()), 100.0 * x / replay_ns, "%");
    }
    let tick_1t_us = stats::mean(&tick_1t) * 1e6;
    let unattributed_us = tick_1t_us - per_tick_us(layers_ns);
    r.metric("replay.tick_us", per_tick_us(replay_ns), "us");
    r.metric("replay.self_us", per_tick_us(ns(Layer::Tick)), "us");
    r.metric("serve.tick_1t_us", tick_1t_us, "us");
    r.metric("serve.unattributed_us", unattributed_us, "us");
    r.metric(
        "serve.unattributed_pct",
        100.0 * unattributed_us / tick_1t_us,
        "%",
    );
    let (calls, windows, windows_sq) = replay.batches;
    r.metric(
        "ml.classify_us_per_window",
        ns(Layer::Classify) / windows.max(1) as f64 / 1e3,
        "us",
    );
    r.metric(
        "ml.batch_k",
        windows_sq as f64 / windows.max(1) as f64,
        "windows",
    );
    let sent = wire.stats.sent - wire0.stats.sent;
    let delivered = wire.stats.delivered - wire0.stats.delivered;
    let reused = wire.pool_reused - wire0.pool_reused;
    let takes = reused + wire.pool_allocated - wire0.pool_allocated;
    r.metric("stream.delivered_ratio", ratio(delivered, sent), "ratio");
    r.metric(
        "stream.retransmissions",
        (wire.stats.retransmissions - wire0.stats.retransmissions) as f64 / replay_ticks,
        "count/tick",
    );
    r.metric(
        "stream.out_of_order",
        (wire.out_of_order - wire0.out_of_order) as f64 / replay_ticks,
        "count/tick",
    );
    r.metric("stream.pool_reuse_ratio", ratio(reused, takes), "ratio");
    if sent == 0 {
        r.idle.push("stream.");
    }
    r.metric("serve.admit_us", stats::median(&admit_s) * 1e6, "us");
    r.metric("serve.remove_us", stats::median(&remove_s) * 1e6, "us");
    r.metric("model_io.open_us", stats::median(&open_s) * 1e6, "us");

    r.note("replay_ticks", tick_1t.len());
    r.note("classify_calls", calls);
    r.note("sessions_compared", compared);
    r.note("replay_label_mismatches", differing);
    r.note("ref_kernel_ms_after", host::reference_kernel_ms());
    note_tally(&mut r, &fleet.tally);
    r.correct = fleet.tally.mismatches == 0
        && fleet.tally.errors == 0
        && fleet.tally.admission == 0
        && windows > 0;
    r.tally = fleet.tally;
    Ok(r)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
