//! `serve-keyed`: a 2-shard `Service`, driven open loop and closed loop.
//!
//! Two client sessions, each keyed onto its own shard and streaming its
//! own seeded concept; one submission in `labeled_every` is labeled and
//! prequential, the others are infer-only.
//!
//! * Open loop: one generator thread sends on a schedule drawn from the
//!   seed (Poisson arrivals), alternating sessions, and never waits for
//!   answers; a second thread collects answers and timestamps them. A round
//!   trip runs from the time a submission was *due* to the time its answer
//!   was collected, so a stalled generator or service counts against the
//!   latency of every later send.
//! * Closed loop: one thread keeps a fixed number of submissions
//!   outstanding per session, waits for each session's oldest answer in
//!   turn and submits the next one in its place.
//!
//! The whole process runs on one CPU (see [`pin_to_one_cpu`]).
//!
//! An untraced run starts the service [`SETUPS`] times (set-up); serves
//! the reference rate and the closed loop with [`CLIENT_IN_FLIGHT`]
//! outstanding (throughput) once each on services it does not measure,
//! then in turn on [`ROUNDS`] services each that it does; warms the host
//! up with a saturating closed loop it does not measure; measures
//! capacity, the saturating loop's answer rate, on [`CAPACITY_SERVICES`]
//! services; then climbs down the ladder:
//! open-loop rates at falling fractions of the measured capacity, stopping
//! at the first whose p99 round trip meets the latency limit (a failed
//! submission counts as a miss) without a growing backlog. The ladder
//! follows the service's measured capacity instead of fixed rates that step
//! over it. A traced run measures the reference rate twice, without and
//! with telemetry.
//!
//! Latency figures count the sends the generator made on time (at most
//! [`ON_TIME_US`] late): a 2-vCPU host that pauses for milliseconds delays
//! the generator and the service alike, and a send it held back was not
//! offered as scheduled. The figures over every send, the generator's
//! lateness and the host's steal time are in the run's metadata.

use crate::layers::{self, pattern_index, strategy_index, PATTERNS, STRATEGIES};
use crate::stats::{
    cpu_ticks, mean, median, num, object, peak_rss_mb, quantile, ratio, sorted, text, us,
    windowed_quantile, Outcome,
};
use crate::{field, Args};
use freeway_core::admission::{AdmissionConfig, AdmissionPolicy};
use freeway_core::{
    shard_for, ClientSession, FreewayConfig, PipelineBuilder, ServeError, ServiceConfig,
    SessionOutput, SubmitOutcome,
};
use freeway_eval::metrics::{batch_accuracy, global_accuracy, stability_index};
use freeway_linalg::Matrix;
use freeway_ml::ModelSpec;
use freeway_streams::concept::{stream_rng, GmmConcept};
use freeway_streams::{Batch, DriftPhase};
use freeway_telemetry::{NoopSink, Telemetry};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Pre-generated batches per session, cycled by the generator.
const POOL: usize = 256;
/// How long the collector waits for outstanding answers after the last send.
const DRAIN: Duration = Duration::from_secs(10);
/// Service start-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Measured services of the reference rate, and of the closed loop with
/// [`CLIENT_IN_FLIGHT`] outstanding, taken in turn so that both sample the
/// whole run: `latency_p50_us` is the lowest of the reference services'
/// p50 round trips, `items_per_s` is taken over the answer-rate windows of
/// all the closed-loop services.
const ROUNDS: usize = 6;
/// Submissions each session keeps outstanding in the closed loop that
/// gives `items_per_s`. With so few the loop measures how fast the service
/// turns requests round (router, shard, learner, delivery) rather than how
/// much work the CPU can do at once, which moves more with the host: in
/// the host's slow periods (see [`pin_to_one_cpu`]) a saturating loop lost
/// a third of its rate, this one a sixth.
const CLIENT_IN_FLIGHT: u64 = 2;
/// Submissions the saturating closed loop keeps outstanding per session:
/// enough to keep a shard busy, below the submit queue's depth of 64 for
/// both sessions together.
const SATURATING_IN_FLIGHT: u64 = 16;
/// Services the saturating closed loop runs on after its warm-up; the
/// capacity is taken over the answer-rate windows of all of them.
const CAPACITY_SERVICES: usize = 4;
/// Length of a ladder rung as a share of the run length.
const RUNG_SHARE: f64 = 0.04;
/// Collector poll step while answers are outstanding at the reference
/// rate, where round trips are ~200 us. With nothing outstanding the
/// collector parks until the generator's next accepted send.
const REFERENCE_POLL: Duration = Duration::from_micros(20);
/// Collector poll step on the ladder: 1% of the latency limit is precision
/// enough to judge it, and a slower poll leaves the CPU to the service.
const LADDER_POLL: Duration = Duration::from_micros(100);
/// Round trips per window of the latency quantiles: one pause of the host
/// spoils one window, not the figure.
const P50_WINDOW: usize = 200;
const P99_WINDOW: usize = 1000;
/// Width of the windows whose answer rates give the closed loop's capacity.
const RATE_WINDOW: Duration = Duration::from_millis(100);
/// A send the generator made later than this after its due time was held
/// back by a pause of the host, not offered as scheduled.
const ON_TIME_US: f64 = 1000.0;

/// Parameters of the `serve-keyed` workload.
pub struct ServeSpec {
    labeled_every: u64,
    features: usize,
    classes: usize,
    batch: usize,
    /// Ladder rates as falling fractions of the measured capacity.
    ladder: Vec<f64>,
    reference: f64,
    p99_limit_us: f64,
}

impl ServeSpec {
    pub fn parse(spec: &Value) -> Self {
        let ladder: Vec<f64> = spec["ladder_fractions_of_capacity"]
            .as_array()
            .expect("workloads.json: ladder_fractions_of_capacity")
            .iter()
            .map(|v| v.as_f64().expect("ladder fractions are numbers"))
            .collect();
        assert!(
            ladder.windows(2).all(|w| w[0] > w[1]) && ladder.iter().all(|&f| f > 0.0 && f <= 1.0),
            "the ladder falls within (0, 1]"
        );
        Self {
            labeled_every: field(spec, "labeled_every") as u64,
            features: field(spec, "features") as usize,
            classes: field(spec, "classes") as usize,
            batch: field(spec, "batch") as usize,
            ladder,
            reference: field(spec, "reference_batches_per_s"),
            p99_limit_us: field(spec, "p99_limit_us"),
        }
    }
}

/// Lowers this thread's timer slack to 1 ns so that short sleeps end on
/// time instead of up to 50 us late (the Linux default slack).
fn fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: prctl(PR_SET_TIMERSLACK, n) takes one unsigned long
        // argument, touches no memory of this process and only changes
        // the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }
}

/// Restricts the calling thread, and every thread it starts from then on
/// (the service's router and shard workers among them), to the
/// lowest-numbered CPU it may run on, and returns that CPU; `None` when the
/// affinity cannot be read or set, and the run goes on unpinned.
///
/// On the 2-vCPU VM the benchmark was calibrated on, a service spread over
/// both vCPUs answered at rates that moved with the host by up to a third
/// (capacity 70-124k batches/s from one service to the next, the closed
/// loop with [`CLIENT_IN_FLIGHT`] outstanding 21-32k): its hand-offs
/// between threads on different vCPUs cost what the host makes them cost.
/// On one CPU the hand-offs are context switches: the reference round trip
/// spread 0.015 over four runs instead of 0.08. What is left is the speed
/// of the one vCPU, which the host still flips between a fast and a slow
/// mode for seconds at a time. Every layer of the service still runs; only
/// its threads take turns.
fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
        }
        let mut allowed = [0u8; 128];
        // SAFETY: the call writes at most `allowed.len()` bytes into
        // `allowed`; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, allowed.len(), allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..allowed.len() * 8).find(|&c| allowed[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = [0u8; 128];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: the call reads `one.len()` bytes of `one` and changes
        // only the calling thread's affinity.
        if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Send times of a Poisson arrival process at `rate` per second, as
/// offsets from the first send. Random gaps keep the schedule from locking
/// into phase with the service's polling loops, which would make a run's
/// latency depend on an arbitrary phase.
fn arrivals(rate: f64, sends: usize, seed: u64) -> Vec<Duration> {
    let mut state = seed ^ rate.to_bits();
    let mut next_uniform = || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut at = 0.0;
    (0..sends)
        .map(|_| {
            let offset = Duration::from_secs_f64(at);
            at += -(1.0 - next_uniform()).ln() / rate;
            offset
        })
        .collect()
}

/// The generated inputs: one key per shard, and each session's batches.
struct Inputs {
    seed: u64,
    keys: [u64; SHARDS],
    pools: [Vec<(Matrix, Vec<usize>)>; SHARDS],
}

fn inputs(spec: &ServeSpec, seed: u64) -> Inputs {
    // The first key `shard_for` places on each shard.
    let keys: [u64; SHARDS] = std::array::from_fn(|shard| {
        (0..).find(|&k| shard_for(k, SHARDS) == shard).expect("some key reaches every shard")
    });
    let pools = std::array::from_fn(|session| {
        // Each session's concept is fixed; the seed draws its samples. A
        // seeded concept would make accuracy a property of the seed.
        let salt = (session as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let concept =
            GmmConcept::random(spec.features, spec.classes, 2, 2.0, 1.0, &mut stream_rng(salt));
        let mut rng = stream_rng(seed ^ salt);
        (0..POOL).map(|_| concept.sample_batch(spec.batch, &mut rng)).collect()
    });
    Inputs { seed, keys, pools }
}

/// The submission a session makes after `accepted` accepted ones. Its
/// content follows the client sequence number, so a refused batch is
/// offered again at the session's next slot and an answer's labels follow
/// from its `client_seq` alone.
fn submission(
    spec: &ServeSpec,
    inputs: &Inputs,
    session: usize,
    client_seq: usize,
) -> (Batch, bool) {
    let labeled = (client_seq as u64).is_multiple_of(spec.labeled_every);
    let (x, y) = inputs.pools[session][client_seq % POOL].clone();
    let batch = if labeled {
        Batch::labeled(x, y, 0, DriftPhase::Stable)
    } else {
        Batch::unlabeled(x, 0, DriftPhase::Stable)
    };
    (batch, labeled)
}

/// A started and warmed-up service with its two sessions.
struct Fixture {
    service: freeway_core::Service,
    sessions: [Mutex<ClientSession>; SHARDS],
    telemetry: Telemetry,
    /// Submissions each session spent on warm-up.
    warmup: usize,
    setup_s: f64,
}

fn start(spec: &ServeSpec, inputs: &Inputs, traced: bool) -> Fixture {
    let telemetry =
        if traced { Telemetry::attached(Arc::new(NoopSink)) } else { Telemetry::disabled() };
    let warmup = FreewayConfig::default().pca_warmup_rows.div_ceil(spec.batch);

    let started = Instant::now();
    let service = PipelineBuilder::new(ModelSpec::lr(spec.features, spec.classes))
        .with_mini_batch(spec.batch)
        .admission(AdmissionConfig {
            policy: AdmissionPolicy::Block,
            ladder: None,
            ..Default::default()
        })
        .shards(SHARDS)
        .service(ServiceConfig::default())
        .with_telemetry(telemetry.clone())
        .build_service()
        .expect("the workload's service configuration is valid");
    let handle = service.handle();
    let mut sessions = inputs.keys.map(|key| handle.open_session(key).expect("service is running"));
    // PCA warm-up, closed loop: every session's labeled batches, answered.
    for j in 0..warmup {
        for (session, pool) in sessions.iter_mut().zip(&inputs.pools) {
            let (x, y) = pool[j % POOL].clone();
            session
                .submit_batch(Batch::labeled(x, y, 0, DriftPhase::Stable), true)
                .map_err(|(_, e)| e)
                .expect("an idle service accepts warm-up batches");
        }
        for session in &mut sessions {
            session.recv_output().expect("warm-up batches are answered");
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    Fixture { service, sessions: sessions.map(Mutex::new), telemetry, warmup, setup_s }
}

/// One send.
struct Sent {
    session: usize,
    due: Instant,
    late_us: f64,
    /// Time the sender was busy on it: building the batch and submitting.
    busy_us: f64,
    submit_us: f64,
    /// Client sequence number when accepted; `None` when refused (`Busy`).
    client_seq: Option<u64>,
}

/// One collected answer.
struct Got {
    session: usize,
    client_seq: u64,
    shard: usize,
    at: Instant,
    verdict: Verdict,
}

/// What an answer said, reduced to what the checks and metrics need.
enum Verdict {
    Answered { accuracy: f64, strategy: usize, pattern: Option<usize> },
    Shed,
    Quarantined,
    Trained,
}

impl Verdict {
    fn of(outcome: SubmitOutcome, labels: &[usize]) -> Self {
        match outcome {
            SubmitOutcome::Answered(report) => Self::Answered {
                accuracy: batch_accuracy(report.predictions(), labels),
                strategy: strategy_index(&report),
                pattern: pattern_index(&report),
            },
            SubmitOutcome::Shed(_) => Self::Shed,
            SubmitOutcome::Quarantined(_) => Self::Quarantined,
            _ => Self::Trained,
        }
    }
}

/// Answers collected by one thread. With `drop_one`, the first measured
/// answer is discarded, so the output check must fail.
struct Collected {
    got: Vec<Got>,
    drop_one: bool,
    warmup: u64,
}

impl Collected {
    fn keep(&mut self, inputs: &Inputs, session: usize, output: SessionOutput, at: Instant) {
        if self.drop_one && output.client_seq >= self.warmup {
            self.drop_one = false;
            return;
        }
        let labels = &inputs.pools[session][output.client_seq as usize % POOL].1;
        self.got.push(Got {
            session,
            client_seq: output.client_seq,
            shard: output.shard,
            at,
            verdict: Verdict::of(output.outcome, labels),
        });
    }
}

/// Library stage-histogram totals: (seconds, count) per stage.
#[derive(Clone, Copy, Default)]
struct Stages {
    ingest: (f64, u64),
    pca_project: (f64, u64),
    shift: (f64, u64),
    select: (f64, u64),
    infer: (f64, u64),
    train: (f64, u64),
}

impl Stages {
    fn read(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        let h = |stage: &str| {
            m.histograms
                .get(&format!("freeway_stage_{stage}_seconds"))
                .map_or((0.0, 0), |h| (h.sum, h.count))
        };
        Self {
            ingest: h("ingest"),
            pca_project: h("pca_project"),
            shift: h("shift"),
            select: h("select"),
            infer: h("infer"),
            train: h("train"),
        }
    }

    fn since(self, before: Self) -> Self {
        let d = |a: (f64, u64), b: (f64, u64)| (a.0 - b.0, a.1 - b.1);
        Self {
            ingest: d(self.ingest, before.ingest),
            pca_project: d(self.pca_project, before.pca_project),
            shift: d(self.shift, before.shift),
            select: d(self.select, before.select),
            infer: d(self.infer, before.infer),
            train: d(self.train, before.train),
        }
    }
}

/// How a phase offers load.
#[derive(Clone, Copy)]
enum Load {
    /// Poisson arrivals at `rate` batches/s; the collector polls every
    /// `poll` while answers are outstanding.
    Open { rate: f64, poll: Duration },
    /// `in_flight` submissions outstanding per session.
    Closed { in_flight: u64 },
}

/// Everything one phase measured.
struct Phase {
    /// Offered batches/s; 0 for the closed loop.
    rate: f64,
    window_s: f64,
    attempted: u64,
    refused: u64,
    answered: u64,
    shed: u64,
    quarantined: u64,
    /// Round trips (us) of answered submissions, ascending.
    rt_us: Vec<f64>,
    /// Round trips (us) the latency figures are taken from, in send order,
    /// infinite for a send that failed: those of the sends made on time, or
    /// of every send when fewer than half went out on time.
    judged_rt_us: Vec<f64>,
    on_time_share: f64,
    rt_by_shard: [Vec<f64>; SHARDS],
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    /// The most sends per second the sender could make: 1 / its mean busy
    /// time per send.
    sender_max_per_s: f64,
    /// Answered batches per second in each [`RATE_WINDOW`] between the
    /// first and the last answer.
    rate_windows: Vec<f64>,
    backlog_growing: bool,
    /// Share of the host's CPU time stolen by other guests during the phase.
    steal_share: f64,
    batch_acc: Vec<f64>,
    strategies: [u64; 3],
    patterns: [u64; 3],
    knowledge_entries: usize,
    stages: Stages,
    backlog_peak: usize,
    admission_shed: u64,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.refused + self.shed + self.quarantined
    }

    fn rt_p50_us(&self) -> f64 {
        windowed_quantile(&self.judged_rt_us, 0.5, P50_WINDOW)
    }

    fn rt_p99_us(&self) -> f64 {
        windowed_quantile(&self.judged_rt_us, 0.99, P99_WINDOW)
    }

    /// The p99 round trip must meet the limit, with a refused, shed or
    /// quarantined send counting as a miss, and the backlog must not grow.
    fn meets_limit(&self, spec: &ServeSpec) -> bool {
        !self.backlog_growing && self.rt_p99_us() <= spec.p99_limit_us
    }

    /// The `q`-quantile of the answer rates (batches/s) of its windows.
    fn answer_rate(&self, q: f64) -> f64 {
        quantile(&sorted(self.rate_windows.clone()), q)
    }

    fn answered_items_per_s(&self, batch: usize) -> f64 {
        ratio((self.answered as usize * batch) as f64, self.window_s)
    }
}

/// Drives one phase for `length` on a fresh fixture, checks every answer,
/// and shuts the service down.
fn run_phase(
    spec: &ServeSpec,
    inputs: &Inputs,
    load: Load,
    length: Duration,
    traced: bool,
    drop_answer: bool,
    out: &mut Outcome,
) -> Phase {
    let fixture = start(spec, inputs, traced);
    let before = Stages::read(&fixture.telemetry);
    let ticks_before = cpu_ticks();
    let mut collected =
        Collected { got: Vec::new(), drop_one: drop_answer, warmup: fixture.warmup as u64 };
    let (sent, outstanding) = match load {
        Load::Open { rate, poll } => {
            drive_open(spec, inputs, &fixture, rate, poll, length, &mut collected)
        }
        Load::Closed { in_flight } => {
            drive_closed(spec, inputs, &fixture, in_flight, length, &mut collected)
        }
    };
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => ratio((s1 - s0) as f64, (t1 - t0) as f64),
        _ => 0.0,
    };
    let after = Stages::read(&fixture.telemetry);
    let got = collected.got;
    // From the first send to the last collected answer.
    let window_s = got
        .iter()
        .map(|g| g.at)
        .max()
        .map_or(0.0, |last| last.saturating_duration_since(sent[0].due).as_secs_f64());

    let Fixture { service, sessions, warmup, .. } = fixture;
    let report = service.shutdown().expect("the service shuts down cleanly");
    let mut sessions =
        sessions.map(|s| s.into_inner().expect("no thread panicked holding a session"));
    for (i, session) in sessions.iter_mut().enumerate() {
        let mut extra = 0;
        while session.try_output().is_some() {
            extra += 1;
        }
        out.check(extra == 0, || {
            format!("session {i} received {extra} answers after its last submission was answered")
        });
    }
    drop(sessions);

    let rate = match load {
        Load::Open { rate, .. } => rate,
        Load::Closed { .. } => 0.0,
    };
    let phase = summarize(inputs, rate, window_s, &sent, &got, &outstanding, out);
    // The service's own ledger must agree with what the clients saw.
    let warm = (warmup * SHARDS) as u64;
    let accepted = sent.iter().filter(|s| s.client_seq.is_some()).count() as u64;
    let stats = report.stats;
    out.check(
        stats.submitted == warm + accepted
            && stats.answered + stats.shed + stats.quarantined == warm + accepted
            && stats.answered == warm + phase.answered
            && stats.quarantined == 0,
        || {
            format!(
                "service ledger at {rate}/s: submitted {} answered {} shed {} quarantined {}, \
                 clients saw {accepted} accepted and {} answered after {warm} warm-up",
                stats.submitted, stats.answered, stats.shed, stats.quarantined, phase.answered
            )
        },
    );
    out.check(
        phase.attempted == phase.answered + phase.refused + phase.shed + phase.quarantined,
        || {
            format!(
                "at {rate}/s: attempted {} != answered {} + refused {} + shed {} + quarantined {}",
                phase.attempted, phase.answered, phase.refused, phase.shed, phase.quarantined
            )
        },
    );
    let admission = report.run.admission();
    let knowledge_entries = report.run.shards.iter().map(|s| s.learner().knowledge().len()).sum();
    Phase {
        stages: after.since(before),
        backlog_peak: admission.backlog_peak,
        admission_shed: admission.shed,
        knowledge_entries,
        steal_share,
        ..phase
    }
}

/// Open loop: a generator thread sends on a Poisson schedule while a
/// collector thread timestamps answers. Returns the sends, and for each
/// send the answers outstanding when it was made.
fn drive_open(
    spec: &ServeSpec,
    inputs: &Inputs,
    fixture: &Fixture,
    rate: f64,
    poll: Duration,
    length: Duration,
    collected: &mut Collected,
) -> (Vec<Sent>, Vec<u64>) {
    let sends = ((length.as_secs_f64() * rate).floor() as usize).max(2);
    let offsets = arrivals(rate, sends, inputs.seed);
    let received = AtomicU64::new(0);
    let accepted_so_far = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut sent: Vec<Sent> = Vec::with_capacity(sends);
    let mut outstanding: Vec<u64> = Vec::with_capacity(sends);
    collected.got.reserve(sends);

    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            fine_timer_slack();
            let mut drain_deadline = None;
            loop {
                let mut any = false;
                for (session, slot) in fixture.sessions.iter().enumerate() {
                    let mut guard =
                        slot.lock().expect("the generator never panics holding a session");
                    while let Some(output) = guard.try_output() {
                        any = true;
                        received.fetch_add(1, Ordering::SeqCst);
                        collected.keep(inputs, session, output, Instant::now());
                    }
                }
                if any {
                    continue;
                }
                let pending =
                    received.load(Ordering::SeqCst) < accepted_so_far.load(Ordering::SeqCst);
                if stop.load(Ordering::SeqCst) {
                    if !pending {
                        break;
                    }
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                if pending {
                    std::thread::sleep(poll);
                } else {
                    std::thread::park_timeout(Duration::from_millis(1));
                }
            }
        });

        fine_timer_slack();
        let mut accepted_by = [0usize; SHARDS];
        let mut accepted = 0u64;
        let first_due = Instant::now() + Duration::from_millis(1);
        for (i, offset) in offsets.iter().enumerate() {
            let session = i % SHARDS;
            let built = Instant::now();
            let (batch, labeled) =
                submission(spec, inputs, session, fixture.warmup + accepted_by[session]);
            let build_us = us(built.elapsed());
            let due = first_due + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let send = Instant::now();
            outstanding.push(accepted.saturating_sub(received.load(Ordering::SeqCst)));
            let result = fixture.sessions[session]
                .lock()
                .expect("the collector never panics holding a session")
                .submit_batch(batch, labeled);
            let submit_us = us(send.elapsed());
            let client_seq = match result {
                Ok(seq) => {
                    accepted += 1;
                    accepted_so_far.store(accepted, Ordering::SeqCst);
                    collector.thread().unpark();
                    accepted_by[session] += 1;
                    Some(seq)
                }
                Err((_, ServeError::Busy { .. })) => None,
                Err((_, e)) => panic!("the service failed under load: {e}"),
            };
            sent.push(Sent {
                session,
                due,
                late_us: us(send - due),
                busy_us: build_us + submit_us,
                submit_us,
                client_seq,
            });
        }
        stop.store(true, Ordering::SeqCst);
        collector.thread().unpark();
        collector.join().expect("the collector thread completes");
    });
    (sent, outstanding)
}

/// Closed loop on one thread: keeps `in_flight` submissions outstanding
/// per session for `length`, then drains. It waits for each session's
/// oldest answer in turn (a session answers in `client_seq` order) and
/// refills in its place, so it sleeps until the service delivers instead
/// of polling on a timer.
fn drive_closed(
    spec: &ServeSpec,
    inputs: &Inputs,
    fixture: &Fixture,
    in_flight: u64,
    length: Duration,
    collected: &mut Collected,
) -> (Vec<Sent>, Vec<u64>) {
    let mut sessions =
        fixture.sessions.each_ref().map(|s| s.lock().expect("no other thread uses the sessions"));
    let mut sent = Vec::new();
    let mut outstanding = Vec::new();
    let mut accepted_by = [0usize; SHARDS];
    let deadline = Instant::now() + length;
    loop {
        let sending = Instant::now() < deadline;
        for session in 0..SHARDS {
            while sending && sessions[session].in_flight() < in_flight {
                let built = Instant::now();
                let (batch, labeled) =
                    submission(spec, inputs, session, fixture.warmup + accepted_by[session]);
                let send = Instant::now();
                outstanding.push(sessions.iter().map(|s| s.in_flight()).sum());
                let result = sessions[session].submit_batch(batch, labeled);
                let submit_us = us(send.elapsed());
                let client_seq = match result {
                    Ok(seq) => {
                        accepted_by[session] += 1;
                        Some(seq)
                    }
                    Err((_, ServeError::Busy { .. })) => None,
                    Err((_, e)) => panic!("the service failed under load: {e}"),
                };
                sent.push(Sent {
                    session,
                    due: send,
                    late_us: 0.0,
                    busy_us: us(built.elapsed()),
                    submit_us,
                    client_seq,
                });
                if client_seq.is_none() {
                    break;
                }
            }
            if sessions[session].in_flight() > 0 {
                let output = sessions[session]
                    .recv_output()
                    .expect("the service answers every accepted submission");
                collected.keep(inputs, session, output, Instant::now());
            }
        }
        if !sending && sessions.iter().all(|s| s.in_flight() == 0) {
            return (sent, outstanding);
        }
    }
}

/// Joins sends with answers, checks exactly-once in-order delivery from
/// the right shard, and computes the phase's figures.
fn summarize(
    inputs: &Inputs,
    rate: f64,
    window_s: f64,
    sent: &[Sent],
    got: &[Got],
    outstanding: &[u64],
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase {
        rate,
        window_s,
        attempted: sent.len() as u64,
        refused: sent.iter().filter(|s| s.client_seq.is_none()).count() as u64,
        answered: 0,
        shed: 0,
        quarantined: 0,
        rt_us: Vec::new(),
        judged_rt_us: Vec::new(),
        on_time_share: 0.0,
        rt_by_shard: Default::default(),
        late_us: sorted(sent.iter().map(|s| s.late_us).collect()),
        submit_us: sorted(sent.iter().map(|s| s.submit_us).collect()),
        sender_max_per_s: ratio(1e6, mean(&sent.iter().map(|s| s.busy_us).collect::<Vec<_>>())),
        rate_windows: rate_windows(got),
        backlog_growing: false,
        steal_share: 0.0,
        batch_acc: Vec::new(),
        strategies: [0; 3],
        patterns: [0; 3],
        knowledge_entries: 0,
        stages: Stages::default(),
        backlog_peak: 0,
        admission_shed: 0,
    };
    // (due, round trip, lateness) of every send; infinite for a failed one.
    let mut every = Vec::with_capacity(sent.len());
    for session in 0..SHARDS {
        let mine: Vec<&Sent> =
            sent.iter().filter(|s| s.session == session && s.client_seq.is_some()).collect();
        let answers: Vec<&Got> = got.iter().filter(|g| g.session == session).collect();
        let expected: Vec<u64> = mine.iter().filter_map(|s| s.client_seq).collect();
        let seen: Vec<u64> = answers.iter().map(|g| g.client_seq).collect();
        out.check(seen == expected, || {
            let missing = expected.iter().filter(|c| !seen.contains(c)).count();
            format!(
                "at {rate}/s session {session}: {} answers for {} accepted submissions \
                 ({missing} missing), or out of client_seq order",
                seen.len(),
                expected.len()
            )
        });
        let home = shard_for(inputs.keys[session], SHARDS);
        for (s, g) in mine.iter().zip(&answers) {
            out.check(g.shard == home, || {
                format!(
                    "session {session} answer {} came from shard {} not {home}",
                    g.client_seq, g.shard
                )
            });
            match g.verdict {
                Verdict::Answered { accuracy, strategy, pattern } => {
                    phase.answered += 1;
                    let rt = us(g.at.saturating_duration_since(s.due));
                    every.push((s.due, rt, s.late_us));
                    phase.rt_by_shard[g.shard.min(SHARDS - 1)].push(rt);
                    phase.batch_acc.push(accuracy);
                    phase.strategies[strategy] += 1;
                    if let Some(p) = pattern {
                        phase.patterns[p] += 1;
                    }
                }
                Verdict::Shed => {
                    phase.shed += 1;
                    every.push((s.due, f64::INFINITY, s.late_us));
                }
                Verdict::Quarantined => {
                    phase.quarantined += 1;
                    every.push((s.due, f64::INFINITY, s.late_us));
                }
                Verdict::Trained => out.check(false, || {
                    format!("session {session}: a submission was trained, not answered")
                }),
            }
        }
    }
    every.extend(
        sent.iter().filter(|s| s.client_seq.is_none()).map(|s| (s.due, f64::INFINITY, s.late_us)),
    );
    every.sort_by_key(|&(due, _, _)| due);
    let on_time: Vec<f64> =
        every.iter().filter(|&&(_, _, late)| late <= ON_TIME_US).map(|&(_, rt, _)| rt).collect();
    phase.on_time_share = ratio(on_time.len() as f64, every.len() as f64);
    phase.judged_rt_us = if phase.on_time_share >= 0.5 {
        on_time
    } else {
        every.iter().map(|&(_, rt, _)| rt).collect()
    };
    phase.rt_us = sorted(every.iter().map(|&(_, rt, _)| rt).filter(|rt| rt.is_finite()).collect());
    for rts in &mut phase.rt_by_shard {
        *rts = sorted(std::mem::take(rts));
    }
    // A growing backlog: typical sends in the last third found clearly
    // more work outstanding than those in the first third.
    let third = outstanding.len() / 3;
    if third > 0 {
        let typical = |part: &[u64]| median(&part.iter().map(|&v| v as f64).collect::<Vec<_>>());
        let (head, tail) =
            (typical(&outstanding[..third]), typical(&outstanding[outstanding.len() - third..]));
        phase.backlog_growing = tail > 2.0 * head + 4.0;
    }
    phase
}

/// Answers per second in each whole [`RATE_WINDOW`] between the first
/// and the last answer.
fn rate_windows(got: &[Got]) -> Vec<f64> {
    let (Some(first), Some(last)) =
        (got.iter().map(|g| g.at).min(), got.iter().map(|g| g.at).max())
    else {
        return Vec::new();
    };
    let width = RATE_WINDOW.as_secs_f64();
    let windows = (last.duration_since(first).as_secs_f64() / width) as usize;
    let mut counts = vec![0.0; windows];
    for g in got {
        if let Some(count) =
            counts.get_mut((g.at.duration_since(first).as_secs_f64() / width) as usize)
        {
            *count += 1.0 / width;
        }
    }
    counts
}

/// The `q`-quantile of the answer rates (batches/s) of every window of
/// `phases`. Rates take a high percentile: the host only ever adds time,
/// and on the VM the benchmark was calibrated on it flips the speed of a
/// vCPU between two modes ~30% apart for seconds at a time, so the windows
/// it slowed least give the service's rate, whichever mode a run caught
/// more.
fn pooled_rate(phases: &[Phase], q: f64) -> f64 {
    quantile(&sorted(phases.iter().flat_map(|p| p.rate_windows.iter().copied()).collect()), q)
}

fn phase_meta(phase: &Phase, spec: &ServeSpec) -> String {
    object([
        ("batches_per_s", num(phase.rate)),
        ("attempted", phase.attempted.to_string()),
        ("answered", phase.answered.to_string()),
        ("refused", phase.refused.to_string()),
        ("shed", phase.shed.to_string()),
        ("rt_p50_us", num(quantile(&phase.rt_us, 0.5))),
        ("rt_p90_us", num(quantile(&phase.rt_us, 0.9))),
        ("rt_p99_us", num(quantile(&phase.rt_us, 0.99))),
        ("on_time_share", num(phase.on_time_share)),
        ("judged_rt_p50_us", num(phase.rt_p50_us())),
        ("judged_rt_p99_us", num(phase.rt_p99_us())),
        ("late_p99_us", num(quantile(&phase.late_us, 0.99))),
        ("late_max_us", num(quantile(&phase.late_us, 1.0))),
        ("sender_max_batches_per_s", num(phase.sender_max_per_s)),
        ("answer_rate_p50_batches_per_s", num(phase.answer_rate(0.5))),
        ("answer_rate_p90_batches_per_s", num(phase.answer_rate(0.9))),
        ("host_steal_share", num(phase.steal_share)),
        ("backlog_growing", phase.backlog_growing.to_string()),
        ("answered_items_per_s", num(phase.answered_items_per_s(spec.batch))),
        ("meets_limit", phase.meets_limit(spec).to_string()),
    ])
}

pub fn run(spec: &ServeSpec, args: &Args, out: &mut Outcome) {
    let inputs = inputs(spec, args.seed);
    out.meta("batch_rows", spec.batch.to_string());
    out.meta_num("reference_batches_per_s", spec.reference);
    out.meta_num("p99_limit_us", spec.p99_limit_us);
    out.meta("generator", text("open loop, 1 thread, sleeps to each due time (timer slack 1 ns)"));
    out.meta(
        "collector",
        text("1 thread, polls both sessions every 20 us (reference) or 100 us (ladder) while answers are outstanding"),
    );
    out.meta(
        "closed_loop",
        text(&format!(
            "1 thread, waits for each answer; {CLIENT_IN_FLIGHT} (throughput) or \
             {SATURATING_IN_FLIGHT} (capacity) in flight per session"
        )),
    );
    out.meta("pinned_cpu", pin_to_one_cpu().map_or("null".to_owned(), |cpu| cpu.to_string()));
    let secs = args.seconds.as_secs_f64();
    let reference_load = Load::Open { rate: spec.reference, poll: REFERENCE_POLL };
    if args.trace {
        let half = Duration::from_secs_f64(secs / 2.0);
        let plain = run_phase(spec, &inputs, reference_load, half, false, false, out);
        let traced = run_phase(spec, &inputs, reference_load, half, true, args.drop_answer, out);
        out.meta("reference_untraced", phase_meta(&plain, spec));
        out.meta("reference_traced", phase_meta(&traced, spec));
        out.attempted = plain.attempted + traced.attempted;
        out.failed = plain.failed() + traced.failed();
        layer_metrics(spec, &inputs, &plain, &traced, out);
        return;
    }

    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let fixture = start(spec, &inputs, false);
            fixture.service.shutdown().expect("an idle service shuts down cleanly");
            fixture.setup_s
        })
        .collect();
    // The light loads run on several services, because a service's rates
    // moved for as long as it ran, and after one each that is not measured:
    // the first services of a process answered up to 30% slower than later
    // ones. Peak memory is taken after the first reference service, before
    // the closed loops fill the benchmark's own answer logs.
    let part = Duration::from_secs_f64(0.05 * secs);
    let client_load = Load::Closed { in_flight: CLIENT_IN_FLIGHT };
    run_phase(spec, &inputs, reference_load, part / 2, false, false, out);
    let mut references =
        vec![run_phase(spec, &inputs, reference_load, part, false, args.drop_answer, out)];
    let rss_mb = peak_rss_mb();
    run_phase(spec, &inputs, client_load, part / 2, false, false, out);
    let mut throughput = Vec::new();
    for round in 1..=ROUNDS {
        throughput.push(run_phase(spec, &inputs, client_load, part, false, false, out));
        if round < ROUNDS {
            references.push(run_phase(spec, &inputs, reference_load, part, false, false, out));
        }
    }

    // Capacity and the ladder are in the metadata only: a saturated
    // service's rate lost a third in the host's slow periods, more than a
    // bound a later change could be held to. After the light loads above
    // the host gives a vCPU full speed only ~1.2 s into a heavy load
    // (capacity reads about half until then, on a fresh service or not): a
    // saturating loop that is not measured comes first.
    let saturating = Load::Closed { in_flight: SATURATING_IN_FLIGHT };
    run_phase(spec, &inputs, saturating, Duration::from_secs_f64(0.05 * secs), false, false, out);
    let part = Duration::from_secs_f64(0.12 * secs / CAPACITY_SERVICES as f64);
    let closed: Vec<Phase> = (0..CAPACITY_SERVICES)
        .map(|_| run_phase(spec, &inputs, saturating, part, false, false, out))
        .collect();
    let capacity = pooled_rate(&closed, 0.9);
    let rung = Duration::from_secs_f64(RUNG_SHARE * secs);
    let mut rungs = Vec::new();
    let mut sustained = 0.0;
    // The ladder starts below the open-loop knee, which sat at 0.65-0.8 of
    // the measured capacity: there Poisson bursts overflow the 64-deep
    // submit queue. A ladder that tracked the knee spread 0.2 over five
    // seeds; from below it, the figure follows the measured capacity and
    // still steps down when a change breaks the latency limit there. A run
    // too short to measure capacity has no ladder.
    let ladder = if capacity > 0.0 { &spec.ladder[..] } else { &[] };
    for &fraction in ladder {
        let load = Load::Open { rate: fraction * capacity, poll: LADDER_POLL };
        let phase = run_phase(spec, &inputs, load, rung, false, false, out);
        rungs.push(phase_meta(&phase, spec));
        if phase.meets_limit(spec) {
            sustained = phase.answered_items_per_s(spec.batch);
            break;
        }
    }
    let reference = &references[0];
    let metas = |phases: &[Phase]| {
        format!("[{}]", phases.iter().map(|p| phase_meta(p, spec)).collect::<Vec<_>>().join(","))
    };
    out.meta("reference", metas(&references));
    out.meta("throughput", metas(&throughput));
    out.meta_num("capacity_batches_per_s", capacity);
    out.meta("capacity", metas(&closed));
    out.meta("ladder", format!("[{}]", rungs.join(",")));
    out.meta_num("sustained_items_per_s", sustained);
    out.meta("rt_samples", references.iter().map(|r| r.rt_us.len()).sum::<usize>().to_string());
    out.meta(
        "rate_windows",
        throughput.iter().map(|p| p.rate_windows.len()).sum::<usize>().to_string(),
    );
    out.meta("setup_samples", setups.len().to_string());
    let measured = || references.iter().chain(&throughput);
    out.attempted = measured().map(|p| p.attempted).sum();
    out.failed = measured().map(Phase::failed).sum();
    out.meta_num("failed_share", ratio(out.failed as f64, out.attempted as f64));

    // As for `learn-*`, the host only ever adds time: the round trip is
    // that of the reference service it slowed least, and the throughput
    // that of the closed-loop windows it slowed least.
    let p50s: Vec<f64> = references.iter().map(Phase::rt_p50_us).collect();
    out.meta_num("latency_p50_us_median_service", median(&p50s));
    out.meta_num("items_per_s_median_window", pooled_rate(&throughput, 0.5) * spec.batch as f64);
    out.e2e("setup_s", median(&setups), "s");
    out.e2e("items_per_s", pooled_rate(&throughput, 0.95) * spec.batch as f64, "items/s");
    out.e2e("latency_p50_us", quantile(&sorted(p50s), 0.0), "us");
    // Every reference service sees the same batches in the same order.
    out.e2e("accuracy", global_accuracy(&reference.batch_acc), "fraction");
    out.e2e("stability_index", stability_index(&reference.batch_acc), "fraction");
    out.e2e("peak_rss_mb", rss_mb, "MiB");
}

/// Per-layer metrics a traced serve run cannot take from outside the
/// program: the library's stage histograms give sums, not per-batch
/// times, and the per-strategy split of the infer time.
pub const NOT_MEASURED: &[&str] = &[
    "learner.infer_us.p50",
    "learner.train_us.p50",
    "learner.train_us.p99",
    "learner.infer_us.ensemble.mean",
    "learner.infer_us.clustering.mean",
    "learner.infer_us.knowledge.mean",
];

fn layer_metrics(
    spec: &ServeSpec,
    inputs: &Inputs,
    plain: &Phase,
    traced: &Phase,
    out: &mut Outcome,
) {
    let t = traced;
    let s = &t.stages;
    let per = |(sum, count): (f64, u64)| ratio(sum * 1e6, count as f64);
    let answered = t.answered as f64;
    out.layer("learner.infer_us.mean", per(s.infer), "us");
    out.layer("learner.train_us.mean", per(s.train), "us");
    for (k, name) in STRATEGIES.iter().enumerate() {
        out.layer(&format!("learner.batches.{name}"), t.strategies[k] as f64, "count");
    }
    for (k, name) in PATTERNS.iter().enumerate() {
        out.layer(&format!("drift.patterns.{name}"), t.patterns[k] as f64, "count");
    }
    let (pca, shift, select) = (per(s.pca_project), per(s.shift), per(s.select));
    out.layer("drift.pca_project_us", pca, "us");
    out.layer("drift.shift_us", shift, "us");
    out.layer("learner.select_us", select, "us");
    out.layer("learner.infer_self_us", per(s.infer) - (pca + shift + select), "us");
    out.layer("knowledge.entries", t.knowledge_entries as f64, "count");
    out.layer(
        "knowledge.hit_share",
        ratio(t.strategies[2] as f64, (t.patterns[1] + t.patterns[2]) as f64),
        "fraction",
    );

    out.layer("serve.submit_us.p50", quantile(&t.submit_us, 0.5), "us");
    out.layer("serve.submit_us.p99", quantile(&t.submit_us, 0.99), "us");
    out.layer("serve.busy_share", ratio(t.refused as f64, t.attempted as f64), "fraction");

    // Reconciliation of the mean round trip: generator lateness + submit
    // + learner (infer + train spans per answered batch) + the rest. The
    // rest is router polling, queue wait and delivery, which only spans
    // inside the program can split. The worker's `ingest` span is its wait
    // *for* work, so it is reported as idle time, not as the batch's queue
    // wait.
    let rt_mean = mean(&t.rt_us);
    let late = mean(&t.late_us);
    let submit = mean(&t.submit_us);
    let learner = ratio((s.infer.0 + s.train.0) * 1e6, answered);
    let unattributed = rt_mean - late - submit - learner;
    out.layer("runtime.learner_us", learner, "us");
    out.layer("runtime.worker_idle_us", per(s.ingest), "us");
    out.layer("runtime.unattributed_us", unattributed, "us");
    out.layer("trace.unattributed_share", ratio(unattributed, rt_mean), "fraction");
    out.meta_num("reconcile_rt_mean_us", rt_mean);
    out.meta_num("reconcile_late_us", late);
    out.meta_num("reconcile_submit_us", submit);
    out.meta_num("reconcile_learner_us", learner);
    out.check(unattributed >= -0.02 * rt_mean, || {
        format!(
            "the measured parts (late {late:.1} + submit {submit:.1} + learner {learner:.1} us) \
             exceed the mean round trip {rt_mean:.1} us"
        )
    });

    for shard in 0..SHARDS {
        out.layer(&format!("shard.answered.{shard}"), t.rt_by_shard[shard].len() as f64, "count");
        out.layer(&format!("shard.rt_p50_us.{shard}"), quantile(&t.rt_by_shard[shard], 0.5), "us");
    }
    let counts: Vec<f64> = t.rt_by_shard.iter().map(|r| r.len() as f64).collect();
    out.layer(
        "shard.skew",
        ratio(counts.iter().copied().fold(0.0, f64::max), mean(&counts)),
        "ratio",
    );
    out.layer("admission.backlog_peak", t.backlog_peak as f64, "count");
    out.layer("admission.shed", t.admission_shed as f64, "count");
    out.layer(
        "telemetry.overhead_share",
        ratio(quantile(&t.rt_us, 0.5), quantile(&plain.rt_us, 0.5)) - 1.0,
        "fraction",
    );
    out.layer("generator.late_mean_us", late, "us");
    out.layer("generator.late_p99_us", quantile(&t.late_us, 0.99), "us");
    out.layer("generator.late_max_us", quantile(&t.late_us, 1.0), "us");

    let samples: Vec<Batch> = inputs.pools[0]
        .iter()
        .take(64)
        .map(|(x, y)| Batch::labeled(x.clone(), y.clone(), 0, DriftPhase::Stable))
        .collect();
    layers::model_math(&ModelSpec::lr(spec.features, spec.classes), &samples, out);
    layers::kernels(out);
    layers::journal(&samples, false, out);
}
