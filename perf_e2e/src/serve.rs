//! The `serve_mix4` workload: closed-loop jobs through the `consim-serve`
//! daemon at its default settings (2 workers, 2,000-access slices, a
//! journaled checkpoint after every slice).
//!
//! Load is closed-loop — two client threads, one connection each, each
//! submitting its next job only after the previous one reached `Done` —
//! so a slow daemon receives less load instead of a growing backlog. A
//! seeded plan fixes every job; every fifth submission repeats a
//! configuration that an earlier daemon incarnation completed, which the
//! daemon re-serves from its journaled outcome record.

use crate::engine;
use crate::host::{self, HostTicks};
use crate::layers;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::workloads::{
    job_config, quota_refs, shared4_machine, SERVE_REFS_PER_VM, SERVE_WARMUP_PER_VM,
};
use consim::engine::SimulationConfig;
use consim::persist;
use consim_job::{
    CollectingSink, JobJournal, JobOutput, JobQueue, JobSpec, LiveQueue, PoolConfig, PrewarmCache,
    QueuePoll, ResultSink, StaticQueue, WorkerPool,
};
use consim_sched::SchedulingPolicy;
use consim_serve::{
    Client, Daemon, DaemonConfig, DaemonOutcome, JobState, ServeError, StreamFrame,
};
use consim_trace::{EventClass, TraceEvent, TraceSink};
use consim_types::{SimError, SimRng};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configurations an earlier daemon incarnation completed, which later
/// submissions repeat.
pub const PRIOR_JOBS: usize = 8;
/// Further small jobs the earlier incarnation completed, so that a daemon
/// start has a real recovery scan to do (reading, decoding and re-serving
/// every journaled record) rather than timing thread start-up alone.
pub const HISTORY_JOBS: usize = 120;
/// Per-VM quota of a history job.
const HISTORY_REFS_PER_VM: u64 = 200;
/// Every `DUPLICATE_EVERY`-th submission repeats a prior configuration.
pub const DUPLICATE_EVERY: usize = 5;
/// Plan length: more submissions than any window completes.
const PLAN_LEN: usize = 4_000;
/// Concurrent clients (one connection each). Two, so the worker always
/// has a job resident: with one client every submission wakes an idle
/// worker, which can preempt the connection handler before it replies,
/// and the ack's median swung by a quarter between runs.
const CLIENTS: usize = 2;
/// Daemon worker threads: one, not the default two. With two workers, two
/// clients and kernel writeback sharing two CPUs, every serve metric
/// spread by 14–31% between runs.
const WORKERS: usize = 1;
/// Daemon starts timed for `setup_s` (a start takes well under a
/// millisecond, so one sample says little); the last one serves the
/// window.
const SETUP_REPS: usize = 15;
/// Bound on any single reply, so a wedged daemon fails the run instead
/// of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Worker thread name prefix of `consim_job::WorkerPool`.
const WORKER_THREADS: &str = "consim-worker";

/// One planned submission.
#[derive(Debug, Clone)]
pub struct PlannedJob {
    /// The configuration submitted.
    pub config: SimulationConfig,
    /// Whether it repeats a prior configuration.
    pub duplicate: bool,
}

/// The seeded job plan of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Configurations completed by an earlier incarnation, which
    /// duplicates repeat.
    pub prior: Vec<SimulationConfig>,
    /// Small jobs the earlier incarnation also completed.
    pub history: Vec<SimulationConfig>,
    /// The submissions, in order.
    pub jobs: Vec<PlannedJob>,
}

impl Plan {
    /// The plan for `seed`: paper-mix jobs with seeded engine seeds and
    /// scheduling policies; every [`DUPLICATE_EVERY`]-th repeats a prior
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(seed: u64) -> Result<Plan, SimError> {
        let mut rng = SimRng::from_seed(seed).derive("perf_e2e/serve-plan");
        let fresh = |rng: &mut SimRng| {
            job_config(
                shared4_machine(),
                SchedulingPolicy::Affinity,
                rng.next_u64(),
                SERVE_REFS_PER_VM,
                SERVE_WARMUP_PER_VM,
            )
        };
        let prior = (0..PRIOR_JOBS)
            .map(|_| fresh(&mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        let history = (0..HISTORY_JOBS)
            .map(|_| {
                job_config(
                    shared4_machine(),
                    SchedulingPolicy::Affinity,
                    rng.next_u64(),
                    HISTORY_REFS_PER_VM,
                    0,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let jobs = (0..PLAN_LEN)
            .map(|i| {
                Ok(if i % DUPLICATE_EVERY == DUPLICATE_EVERY - 1 {
                    PlannedJob {
                        config: prior[rng.index(PRIOR_JOBS)].clone(),
                        duplicate: true,
                    }
                } else {
                    PlannedJob {
                        config: fresh(&mut rng)?,
                        duplicate: false,
                    }
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        Ok(Plan {
            prior,
            history,
            jobs,
        })
    }

    /// Every configuration the earlier incarnation journaled: the prior
    /// jobs first, then the history.
    fn journaled(&self) -> Vec<SimulationConfig> {
        self.prior.iter().chain(&self.history).cloned().collect()
    }
}

/// Runs `submit` then `wait` on `ctx`, timing both from the moment
/// `submit` is called: returns (submit result, wait result, time to the
/// ack, time to the terminal reply).
pub fn time_job<C, A, D, E>(
    ctx: &mut C,
    submit: impl FnOnce(&mut C) -> Result<A, E>,
    wait: impl FnOnce(&mut C, &A) -> Result<D, E>,
) -> Result<(A, D, Duration, Duration), E> {
    let start = Instant::now();
    let acked = submit(ctx)?;
    let ack = start.elapsed();
    let done = wait(ctx, &acked)?;
    Ok((acked, done, ack, start.elapsed()))
}

/// One completed submission as the client saw it.
#[derive(Debug)]
struct JobRecord {
    plan_index: usize,
    reported_duplicate: bool,
    state: JobState,
    outcome: Option<Vec<u8>>,
    frames: u64,
    ack: Duration,
    done: Duration,
}

/// A closed-loop client: takes the next plan entry, submits it, follows
/// its stream to `Done`, repeats until the deadline.
fn client_loop(
    client: &mut Client,
    plan: &[PlannedJob],
    next: &AtomicUsize,
    deadline: Instant,
) -> Result<Vec<JobRecord>, ServeError> {
    let mut records = Vec::new();
    while Instant::now() < deadline {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = plan.get(i) else { break };
        let (submitted, (state, outcome, frames), ack, done) = time_job(
            client,
            |c| c.submit(0, &job.config),
            |c, s| {
                c.subscribe(s.digest)?;
                // The Submitted reply and the Subscribe ack, then events.
                let mut frames = 2u64;
                loop {
                    frames += 1;
                    match c.next_stream_frame()? {
                        StreamFrame::Event(_) => {}
                        StreamFrame::Done { state, outcome } => break Ok((state, outcome, frames)),
                    }
                }
            },
        )?;
        records.push(JobRecord {
            plan_index: i,
            reported_duplicate: submitted.duplicate,
            state,
            outcome,
            frames,
            ack,
            done,
        });
    }
    Ok(records)
}

/// Outcome record bytes of each config, computed serially on a
/// single-worker pool without slicing, journal or tracing.
fn reference_outcomes(configs: &[SimulationConfig]) -> Result<Vec<Vec<u8>>, SimError> {
    let specs = configs
        .iter()
        .enumerate()
        .map(|(i, c)| JobSpec::new(i, 0, c.clone()))
        .collect();
    let sink = Arc::new(CollectingSink::new());
    WorkerPool::start(
        PoolConfig::default(),
        Arc::new(StaticQueue::new(specs)) as Arc<dyn JobQueue>,
        Arc::clone(&sink) as Arc<dyn ResultSink>,
        None,
        PrewarmCache::default(),
        None,
    )
    .join();
    sink.take()
        .into_values()
        .map(|r| match r? {
            JobOutput::Completed { outcome, .. } => persist::outcome_to_bytes(&outcome),
            other => Err(SimError::invariant(format!(
                "reference job did not complete: {other:?}"
            ))),
        })
        .collect()
}

/// Leaves `dir` as an earlier daemon incarnation would: a submission and
/// an outcome record for every configuration in `journaled`. Returns their
/// outcome bytes.
fn prepare_journal(dir: &Path, journaled: &[SimulationConfig]) -> Result<Vec<Vec<u8>>, SimError> {
    let journal = JobJournal::open(dir)?;
    let references = reference_outcomes(journaled)?;
    for (i, (config, bytes)) in journaled.iter().zip(&references).enumerate() {
        let spec = JobSpec::new(i, 0, config.clone());
        journal.store_spec(&spec)?;
        journal.store_outcome(&spec, &persist::outcome_from_bytes(bytes)?)?;
    }
    Ok(references)
}

/// The daemon's default configuration over `journal`, with [`WORKERS`]
/// workers.
fn daemon_config(journal: &Path) -> DaemonConfig {
    DaemonConfig {
        workers: WORKERS,
        ..DaemonConfig::new(journal)
    }
}

/// Starts the daemon over `journal` and waits until it accepts a
/// connection; returns the daemon, the connected client, and the time.
fn start_daemon(journal: &Path) -> Result<(Daemon, Client, Duration), ServeError> {
    let start = Instant::now();
    let daemon = Daemon::start(daemon_config(journal))?;
    let mut client = Client::connect(daemon.endpoint())?;
    client.set_timeout(Some(REPLY_TIMEOUT))?;
    client.ping()?;
    Ok((daemon, client, start.elapsed()))
}

fn stop_daemon(daemon: Daemon, mut client: Client) -> Result<(), ServeError> {
    client.shutdown()?;
    match daemon.wait() {
        DaemonOutcome::Shutdown => Ok(()),
        other => Err(ServeError::Remote(format!("daemon ended {other:?}"))),
    }
}

/// What one closed-loop window measured.
struct Window {
    /// What the daemon re-served for each journaled configuration after
    /// its recovery scan.
    recovered: Vec<Option<Vec<u8>>>,
    records: Vec<JobRecord>,
    setup: Vec<f64>,
    peak_rss_mb: f64,
    elapsed: Duration,
    worker: host::SchedStat,
    steal: f64,
}

/// Prepares the journal, times the daemon starts, and drives the closed
/// loop for `seconds`.
fn drive(plan: &Plan, journal: &Path, seconds: f64) -> Result<(Window, Vec<Vec<u8>>), ServeError> {
    let journaled = plan.journaled();
    let references = prepare_journal(journal, &journaled)?;
    let mut setup = Vec::new();
    let (daemon, mut client0) = loop {
        let (daemon, client, took) = start_daemon(journal)?;
        setup.push(took.as_secs_f64());
        if setup.len() == SETUP_REPS {
            break (daemon, client);
        }
        stop_daemon(daemon, client)?;
    };
    // Let the recovery scan's re-serving finish before the window opens.
    let mut recovered = Vec::new();
    for config in &journaled {
        let digest = persist::config_digest(config);
        recovered.push(loop {
            let status = client0.status(digest)?;
            if status.state != JobState::Pending {
                break status.outcome_bytes;
            }
            std::thread::sleep(Duration::from_millis(1));
        });
    }
    let mut clients = vec![client0];
    while clients.len() < CLIENTS {
        let c = Client::connect(daemon.endpoint())?;
        c.set_timeout(Some(REPLY_TIMEOUT))?;
        clients.push(c);
    }

    let next = AtomicUsize::new(0);
    let ticks0 = HostTicks::now();
    let worker0 = host::task_schedstat(WORKER_THREADS);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Vec<JobRecord>, ServeError>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(|| client_loop(c, &plan.jobs, &next, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let worker = host::task_schedstat(WORKER_THREADS).since(worker0);
    let steal = HostTicks::now().steal_share_since(ticks0);
    // Before the serial reference runs, whose allocations are not the
    // daemon's.
    let peak_rss_mb = host::peak_rss_mb();
    let client0 = clients.swap_remove(0);
    drop(clients);
    stop_daemon(daemon, client0)?;
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.plan_index);
    Ok((
        Window {
            recovered,
            records,
            setup,
            peak_rss_mb,
            elapsed,
            worker,
            steal,
        },
        references,
    ))
}

/// The correctness gate: the recovery scan re-served every journaled
/// outcome, every submission completed, the daemon's duplicate flag
/// matches the plan, and every outcome is byte-identical to its serial
/// reference. `journaled` holds the references of [`Plan::journaled`].
fn verify(plan: &Plan, journaled: &[Vec<u8>], window: &Window, report: &mut Report) {
    for (i, (served, expected)) in window.recovered.iter().zip(journaled).enumerate() {
        report.check(served.as_ref() == Some(expected), || {
            format!("journaled job {i} was not re-served byte-identically after recovery")
        });
    }
    let fresh: Vec<SimulationConfig> = window
        .records
        .iter()
        .filter(|r| !plan.jobs[r.plan_index].duplicate)
        .map(|r| plan.jobs[r.plan_index].config.clone())
        .collect();
    let references = match reference_outcomes(&fresh) {
        Ok(refs) => refs,
        Err(e) => return report.check(false, || format!("reference runs: {e}")),
    };
    let digests: HashMap<u64, &Vec<u8>> = plan
        .prior
        .iter()
        .zip(journaled)
        .map(|(c, b)| (persist::config_digest(c), b))
        .collect();
    let mut fresh_refs = references.iter();
    for r in &window.records {
        let job = &plan.jobs[r.plan_index];
        let expected = if job.duplicate {
            digests.get(&persist::config_digest(&job.config)).copied()
        } else {
            fresh_refs.next()
        };
        let ok = r.state == JobState::Completed
            && r.reported_duplicate == job.duplicate
            && r.outcome.as_ref().is_some_and(|o| Some(o) == expected);
        report.check(ok, || {
            format!(
                "submission {}: state {:?}, duplicate {} (planned {}), outcome {}",
                r.plan_index,
                r.state,
                r.reported_duplicate,
                job.duplicate,
                if r.outcome.as_ref() == expected {
                    "matches"
                } else {
                    "differs from its serial reference"
                }
            )
        });
    }
}

fn seconds_of(records: &[JobRecord], f: impl Fn(&JobRecord) -> Duration) -> Vec<f64> {
    records.iter().map(|r| f(r).as_secs_f64()).collect()
}

/// Prepares a fresh working directory for one run.
fn fresh_dir(dir: &Path) -> Result<(), ServeError> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(format!("{}: {e}", dir.display())))
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(seed: u64, seconds: u64, work: &Path, report: &mut Report) {
    let result = (|| -> Result<(), ServeError> {
        let plan = Plan::new(seed)?;
        fresh_dir(work)?;
        let (window, journaled) = drive(&plan, &work.join("journal"), seconds as f64)?;
        verify(&plan, &journaled, &window, report);
        let records = &window.records;
        if records.is_empty() {
            report.check(false, || "no job completed in the window".into());
            return Ok(());
        }
        let refs: u64 = records
            .iter()
            .filter(|r| !plan.jobs[r.plan_index].duplicate)
            .map(|r| quota_refs(&plan.jobs[r.plan_index].config))
            .sum();
        let worker_cpu = window.worker.on_cpu_ns as f64 / 1e9;
        let done = seconds_of(records, |r| r.done);
        let dups = records.iter().filter(|r| r.reported_duplicate).count();
        report.metric("refs_per_cpu_s", refs as f64 / worker_cpu, "1/s");
        report.metric(
            "setup_s",
            median(&window.setup).expect("setup reps").value,
            "s",
        );
        report.metric("peak_rss_mb", window.peak_rss_mb, "MB");
        report.metric("job_p50_s", median(&done).expect("records").value, "s");
        match tail(&done) {
            Some(t) => {
                report.metric("job_tail_s", t.value, "s");
                report.note(format!(
                    "job_tail_s is p{} of {} submissions ({} beyond)",
                    t.percentile, t.samples, t.beyond
                ));
            }
            None => report.check(false, || {
                format!(
                    "only {} submissions: no tail with ten samples beyond",
                    done.len()
                )
            }),
        }
        report.metric(
            "jobs_per_s",
            records.len() as f64 / window.elapsed.as_secs_f64(),
            "1/s",
        );
        report.note(format!(
            "{} submissions ({dups} duplicates), {refs} refs simulated; clocks: wall, \
             refs_per_cpu_s on the worker threads' CPU; setup_s median of {SETUP_REPS} starts",
            records.len()
        ));
        report.note(format!(
            "host: steal share {:.4}, worker run-queue wait {:.3} s, wall rate {:.0} refs/s",
            window.steal,
            window.worker.runq_wait_ns as f64 / 1e9,
            refs as f64 / window.elapsed.as_secs_f64()
        ));
        Ok(())
    })();
    if let Err(e) = result {
        report.check(false, || format!("serve run: {e}"));
    }
    let _ = std::fs::remove_dir_all(work);
}

/// A [`LiveQueue`] that records how long each job waited to be dequeued.
#[derive(Debug, Default)]
struct TimedQueue {
    inner: LiveQueue,
    pushed: Mutex<HashMap<usize, Instant>>,
    waits: Mutex<Vec<Duration>>,
}

impl TimedQueue {
    fn push(&self, config: SimulationConfig) -> Option<usize> {
        // Held across the push so a worker cannot dequeue the job before
        // its push time is on record.
        let mut pushed = self.pushed.lock().expect("push times poisoned");
        let index = self.inner.push(0, config)?;
        pushed.insert(index, Instant::now());
        Some(index)
    }

    fn dequeued(&self, job: &JobSpec) {
        let now = Instant::now();
        if let Some(at) = self
            .pushed
            .lock()
            .expect("push times poisoned")
            .get(&job.index())
        {
            self.waits.lock().expect("waits poisoned").push(now - *at);
        }
    }
}

impl JobQueue for TimedQueue {
    fn poll(&self) -> QueuePoll {
        let polled = self.inner.poll();
        if let QueuePoll::Job(job) = &polled {
            self.dequeued(job);
        }
        polled
    }

    fn recv(&self) -> Option<JobSpec> {
        let job = self.inner.recv();
        if let Some(job) = &job {
            self.dequeued(job);
        }
        job
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// A sink that wakes the submitter waiting for each job.
#[derive(Debug, Default)]
struct WakingSink {
    done: Mutex<HashMap<usize, bool>>,
    wake: Condvar,
}

impl ResultSink for WakingSink {
    fn job_finished(&self, job: &JobSpec, result: Result<JobOutput, SimError>) {
        let ok = matches!(result, Ok(JobOutput::Completed { .. }));
        self.done
            .lock()
            .expect("done set poisoned")
            .insert(job.index(), ok);
        self.wake.notify_all();
    }
}

impl WakingSink {
    fn wait(&self, index: usize) -> bool {
        let mut done = self.done.lock().expect("done set poisoned");
        loop {
            if let Some(ok) = done.get(&index) {
                return *ok;
            }
            done = self.wake.wait(done).expect("done set poisoned");
        }
    }
}

/// Collects each simulated job's busy time (its slices, checkpoints and
/// journal writes) from the pool's per-job `CellCompleted` telemetry.
#[derive(Debug, Default)]
struct BusySink {
    busy: Mutex<Vec<f64>>,
}

impl TraceSink for BusySink {
    fn record(&self, event: &TraceEvent) {
        if let TraceEvent::CellCompleted { wall_ms, .. } = event {
            self.busy
                .lock()
                .expect("busy times poisoned")
                .push(wall_ms / 1e3);
        }
    }

    fn wants(&self, class: EventClass) -> bool {
        class == EventClass::Runner
    }
}

/// What the pool replay measured (medians, in seconds).
struct PoolProbe {
    queue_wait: f64,
    busy: f64,
    latency: f64,
    jobs: usize,
}

/// Replays the plan's fresh jobs, closed-loop, straight into a worker
/// pool configured as the daemon configures its own, timing how long each
/// job waited in the queue, how long a worker was busy with it, and its
/// latency from push to completion.
fn pool_probe(plan: &Plan, journal: &Path, seconds: f64) -> Result<PoolProbe, SimError> {
    let queue = Arc::new(TimedQueue::default());
    let sink = Arc::new(WakingSink::default());
    let busy = Arc::new(BusySink::default());
    let defaults = daemon_config(journal);
    let pool = WorkerPool::start(
        PoolConfig {
            workers: defaults.workers,
            time_slice: defaults.time_slice,
            max_live: 2,
            checkpoint_every: defaults.checkpoint_every,
            fault_after: None,
        },
        Arc::clone(&queue) as Arc<dyn JobQueue>,
        Arc::clone(&sink) as Arc<dyn ResultSink>,
        Some(JobJournal::open(journal)?),
        PrewarmCache::default(),
        Some(Arc::clone(&busy) as Arc<dyn TraceSink>),
    );
    let fresh: Vec<&PlannedJob> = plan.jobs.iter().filter(|j| !j.duplicate).collect();
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let latencies = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while Instant::now() < deadline {
                    let Some(job) = fresh.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let start = Instant::now();
                    let Some(index) = queue.push(job.config.clone()) else {
                        break;
                    };
                    if sink.wait(index) {
                        let took = start.elapsed().as_secs_f64();
                        latencies.lock().expect("latencies poisoned").push(took);
                    }
                }
            });
        }
    });
    queue.close();
    pool.join();
    let waits: Vec<f64> = queue
        .waits
        .lock()
        .expect("waits poisoned")
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    let latencies = latencies.into_inner().expect("latencies poisoned");
    let busy = busy.busy.lock().expect("busy times poisoned").clone();
    let med = |v: &[f64]| median(v).map_or(0.0, |m| m.value);
    Ok(PoolProbe {
        queue_wait: med(&waits),
        busy: med(&busy),
        latency: med(&latencies),
        jobs: latencies.len(),
    })
}

/// The traced run: per-layer metrics for the daemon workload.
pub fn run_traced(seed: u64, seconds: u64, work: &Path, report: &mut Report) {
    let result = (|| -> Result<(), ServeError> {
        let plan = Plan::new(seed)?;
        fresh_dir(work)?;
        // The daemon window, for the serve counters and the job latency
        // the layer timings must account for.
        let (window, journaled) = drive(&plan, &work.join("journal"), seconds as f64 / 2.0)?;
        verify(&plan, &journaled, &window, report);
        let records = &window.records;
        let done = seconds_of(records, |r| r.done);
        let Some(p50) = median(&done) else {
            report.check(false, || "no job completed in the window".into());
            return Ok(());
        };
        let dups = records.iter().filter(|r| r.reported_duplicate).count();
        let frames: u64 = records.iter().map(|r| r.frames).sum();
        report.metric(
            "serve.duplicate_share",
            dups as f64 / records.len() as f64,
            "ratio",
        );
        report.metric(
            "serve.frames_sent",
            frames as f64 / records.len() as f64,
            "count",
        );
        // Submissions that wrote a spec record; a duplicate skips the write.
        let acks: Vec<f64> = records
            .iter()
            .filter(|r| !r.reported_duplicate)
            .map(|r| r.ack.as_secs_f64() * 1e3)
            .collect();
        report.metric(
            "serve.ack_p50_ms",
            median(&acks).map_or(0.0, |m| m.value),
            "ms",
        );
        let refs: u64 = records
            .iter()
            .filter(|r| !plan.jobs[r.plan_index].duplicate)
            .map(|r| quota_refs(&plan.jobs[r.plan_index].config))
            .sum();
        report.metric("host.steal_share", window.steal, "ratio");
        report.metric(
            "host.runq_wait_s",
            window.worker.runq_wait_ns as f64 / 1e9,
            "s",
        );
        report.metric(
            "host.wall_refs_per_s",
            refs as f64 / window.elapsed.as_secs_f64(),
            "1/s",
        );

        // The engine layers on the plan's first jobs.
        let fresh: Vec<SimulationConfig> = plan
            .jobs
            .iter()
            .filter(|j| !j.duplicate)
            .map(|j| j.config.clone())
            .collect();
        engine::engine_layers(report, Duration::from_secs(seconds) / 8, |i, _| {
            Ok(fresh[i as usize % fresh.len()].clone())
        });

        // Slice, checkpoint and journal costs of the jobs one worker holds
        // resident at a time (one per client), and the queue.
        let resident = CLIENTS / WORKERS;
        let service = layers::persistence(&fresh[..resident], work, true, report);
        let fresh_done = records.len() - dups;
        let pool = pool_probe(&plan, &work.join("pool-journal"), seconds as f64 / 4.0)?;
        report.metric("pool.queue_wait_s", pool.queue_wait, "s");
        report.metric("pool.busy_s_per_job", pool.busy, "s");
        report.metric("pool.job_p50_s", pool.latency, "s");
        report.metric(
            "serve.worker_cpu_s_per_job",
            window.worker.on_cpu_ns as f64 / 1e9 / fresh_done.max(1) as f64,
            "s",
        );
        // Two workers, the client threads and kernel writeback share two
        // CPUs, so a job also waits on the run queue between its slices.
        let runq_per_job = window.worker.runq_wait_ns as f64 / 1e9 / fresh_done.max(1) as f64;
        report.metric("serve.runq_wait_s_per_job", runq_per_job, "s");
        // The worker rotates one job of each client, so a job's latency
        // spans its own service and its neighbour's.
        if let Some(service) = service {
            report.metric(
                "serve.reconcile_share",
                resident as f64 * service / (p50.value - pool.queue_wait),
                "ratio",
            );
        }
        report.note(format!(
            "daemon job p50 {:.4} s over {} submissions; pool replay over {} jobs: \
             queue wait {:.4} s + busy {:.4} s of a {:.4} s latency",
            p50.value, p50.samples, pool.jobs, pool.queue_wait, pool.busy, pool.latency
        ));
        Ok(())
    })();
    if let Err(e) = result {
        report.check(false, || format!("serve run: {e}"));
    }
    let _ = std::fs::remove_dir_all(work);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(plan: &Plan) -> Vec<u64> {
        plan.jobs
            .iter()
            .map(|j| persist::config_digest(&j.config))
            .collect()
    }

    fn duplicate_share(plan: &Plan) -> f64 {
        plan.jobs.iter().filter(|j| j.duplicate).count() as f64 / plan.jobs.len() as f64
    }

    #[test]
    fn plan_is_seeded() {
        let a = Plan::new(7).unwrap();
        let b = Plan::new(7).unwrap();
        let c = Plan::new(8).unwrap();
        assert_eq!(digests(&a), digests(&b));
        assert_eq!(duplicate_share(&a), duplicate_share(&b));
        assert_ne!(digests(&a), digests(&c));
        assert!((duplicate_share(&a) - 1.0 / DUPLICATE_EVERY as f64).abs() < 1e-9);
    }

    #[test]
    fn duplicates_repeat_prior_configs_and_fresh_jobs_are_distinct() {
        let plan = Plan::new(3).unwrap();
        let prior: Vec<u64> = plan.prior.iter().map(persist::config_digest).collect();
        let mut fresh = std::collections::HashSet::new();
        for job in &plan.jobs {
            let d = persist::config_digest(&job.config);
            if job.duplicate {
                assert!(prior.contains(&d));
            } else {
                assert!(!prior.contains(&d));
                assert!(fresh.insert(d), "fresh job repeated");
            }
        }
    }

    #[test]
    fn latency_is_timed_from_the_submit_call() {
        let mut calls = Vec::new();
        let (_, _, ack, done) = time_job(
            &mut calls,
            |c| {
                c.push("submit");
                std::thread::sleep(Duration::from_millis(40));
                Ok::<_, ()>(1)
            },
            |c, _| {
                c.push("wait");
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(calls, ["submit", "wait"]);
        // The ack includes the whole submit call, and the job time includes
        // the ack: a clock started at the ack would read ~20 ms.
        assert!(ack >= Duration::from_millis(40), "{ack:?}");
        assert!(done >= Duration::from_millis(60), "{done:?}");
        assert!(done >= ack);
    }
}
