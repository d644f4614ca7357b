//! The persistent worker pool: long-lived OS threads that pull jobs from
//! a [`JobQueue`] and execute them in [`Simulation::advance`] time
//! slices.
//!
//! Time-sliced execution is what makes the pool more than a thread pool:
//!
//! * **Preemptive interleaving** — with `max_live > 1` a worker rotates
//!   several resident simulations, so one enormous job cannot starve an
//!   open-ended queue's short jobs behind it;
//! * **Early termination** — a job cancelled between slices
//!   ([`WorkerPool::cancel`]) simply stops advancing and reports
//!   [`JobOutput::Cancelled`]; dominated candidates in a search loop die
//!   cheaply without corrupting anyone else's aggregation;
//! * **Crash durability** — between slices the worker checkpoints the
//!   resident simulation into the [`JobJournal`], so a crash loses at
//!   most one slice of work per in-flight job.
//!
//! None of this can change results: each job's outcome is a pure function
//! of its configuration, and slicing a simulation is bit-transparent (the
//! checkpoint/advance contract), so worker count, slice length, and
//! interleaving are all schedule, not semantics.

use crate::journal::JobJournal;
use crate::queue::{JobQueue, QueuePoll};
use crate::sink::{JobOutput, JobSource, ResultSink};
use crate::spec::JobSpec;
use consim::engine::{RunStatus, Simulation, SimulationConfig, SimulationOutcome};
use consim::persist;
use consim_trace::{TraceEvent, TraceSink};
use consim_types::{FastHashMap, SimError};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Prewarm-checkpoint cache: canonical-config digest → serialized
/// checkpoint of a prewarmed-but-not-started simulation. Shared across
/// pools (and across [`crate::runner::ExperimentRunner`] clones) so
/// sweeps that retarget one configured runner still reuse it.
pub type PrewarmCache = Arc<Mutex<FastHashMap<u64, Arc<Vec<u8>>>>>;

/// Execution policy for one pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads to spawn.
    pub workers: usize,
    /// Accesses per [`Simulation::advance`] slice; `None` runs each job
    /// in one slice (no preemption points).
    pub time_slice: Option<u64>,
    /// Simulations a worker keeps resident and rotates between slices
    /// (`1` = run each job to completion before starting the next, the
    /// batch-runner discipline).
    pub max_live: usize,
    /// Checkpoint each in-flight job into the journal after every slice,
    /// slicing at this interval if `time_slice` is coarser. Effective
    /// only with a journal attached.
    pub checkpoint_every: Option<u64>,
    /// Fault injection for crash-recovery tests: once this many jobs have
    /// been *simulated* to completion (journal loads do not count), the
    /// pool trips its fault flag, stops admitting jobs, finishes and
    /// journals the in-flight ones, and winds down.
    pub fault_after: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            time_slice: None,
            max_live: 1,
            checkpoint_every: None,
            fault_after: None,
        }
    }
}

/// What a pool did, reported by [`WorkerPool::join`].
#[derive(Debug, Clone, Copy)]
pub struct PoolReport {
    /// Jobs simulated to completion in this invocation (journal loads
    /// and cancellations excluded).
    pub simulated: u64,
    /// Whether the fault injector tripped.
    pub faulted: bool,
    /// Total worker-busy time across the pool: building, advancing and
    /// journaling (checkpoints and outcome records) the jobs it simulated.
    pub busy_seconds: f64,
}

/// A pool of persistent workers executing jobs from a shared queue.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    queue: Arc<dyn JobQueue>,
    sink: Arc<dyn ResultSink>,
    journal: Option<JobJournal>,
    prewarm: PrewarmCache,
    config: PoolConfig,
    /// Runner-class telemetry sink (per-job wall time); `None` when the
    /// attached trace sink filters the class out.
    timing: Option<Arc<dyn TraceSink>>,
    cancelled: Mutex<HashSet<usize>>,
    simulated: AtomicU64,
    faulted: AtomicBool,
    busy_us: AtomicU64,
}

impl WorkerPool {
    /// Spawns `config.workers` workers over `queue`, reporting into
    /// `sink`. With a `journal`, completed outcomes are recorded (and
    /// previously recorded ones served without re-simulating); `prewarm`
    /// is the shared prewarm-checkpoint cache; `timing` receives
    /// `CellCompleted` events for simulated jobs.
    pub fn start(
        config: PoolConfig,
        queue: Arc<dyn JobQueue>,
        sink: Arc<dyn ResultSink>,
        journal: Option<JobJournal>,
        prewarm: PrewarmCache,
        timing: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue,
            sink,
            journal,
            prewarm,
            config,
            timing,
            cancelled: Mutex::new(HashSet::new()),
            simulated: AtomicU64::new(0),
            faulted: AtomicBool::new(false),
            busy_us: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("consim-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Marks job `index` for early termination: if still queued or
    /// resident it reports [`JobOutput::Cancelled`] at its next
    /// scheduling point instead of advancing further. Cancelling an
    /// already finished job is a no-op.
    pub fn cancel(&self, index: usize) {
        self.shared
            .cancelled
            .lock()
            .expect("cancel set poisoned")
            .insert(index);
    }

    /// Whether the fault injector has tripped.
    pub fn faulted(&self) -> bool {
        self.shared.faulted.load(Ordering::Relaxed)
    }

    /// Jobs simulated to completion so far.
    pub fn simulated(&self) -> u64 {
        self.shared.simulated.load(Ordering::Relaxed)
    }

    /// Waits for every worker to exit (the queue must eventually close or
    /// drain) and reports what the pool did.
    ///
    /// A pool that wound down early — the fault injector tripped and
    /// admission stopped — may leave dequeued-by-nobody jobs stranded in
    /// the queue. Those are drained here and reported to the sink as
    /// [`JobOutput::Abandoned`], so the sink hears about **every** job
    /// that entered the queue, exactly once: nothing is silently dropped
    /// between `close()` and `join()`.
    pub fn join(self) -> PoolReport {
        for handle in self.handles {
            handle.join().expect("worker thread panicked");
        }
        // Workers only exit on a closed queue, so this poll loop cannot
        // race a producer; on the normal path the backlog is already
        // empty and the loop is a single `Closed` poll.
        while let QueuePoll::Job(job) = self.shared.queue.poll() {
            self.shared
                .sink
                .job_finished(&job, Ok(JobOutput::Abandoned));
        }
        PoolReport {
            simulated: self.shared.simulated.load(Ordering::Relaxed),
            faulted: self.shared.faulted.load(Ordering::Relaxed),
            busy_seconds: self.shared.busy_us.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// One resident job: its simulation plus accumulated execution time.
struct Active {
    job: JobSpec,
    sim: Simulation,
    busy: Duration,
}

/// The slice length workers advance by: the finer of the preemption and
/// checkpoint intervals, unbounded when neither is set.
fn effective_slice(config: &PoolConfig) -> u64 {
    match (config.time_slice, config.checkpoint_every) {
        (Some(t), Some(c)) => t.min(c),
        (Some(t), None) => t,
        (None, Some(c)) => c,
        (None, None) => u64::MAX,
    }
    .max(1)
}

fn worker_loop(shared: &Shared) {
    let slice = effective_slice(&shared.config);
    let width = shared.config.max_live.max(1);
    let mut live: VecDeque<Active> = VecDeque::new();
    loop {
        // Admission: refill the resident set. A tripped fault stops
        // admission but lets in-flight jobs finish and journal first
        // (the crash-recovery contract).
        let mut closed = false;
        while live.len() < width && !shared.faulted.load(Ordering::Relaxed) {
            match shared.queue.poll() {
                QueuePoll::Job(job) => {
                    if let Some(active) = admit(shared, job) {
                        live.push_back(active);
                    }
                }
                QueuePoll::Pending => {
                    if !live.is_empty() {
                        break;
                    }
                    // Nothing resident: park on the queue rather than
                    // spin. A tripping worker closes the queue, so this
                    // wakes on fault too.
                    match shared.queue.recv() {
                        Some(job) => {
                            if let Some(active) = admit(shared, job) {
                                live.push_back(active);
                            }
                        }
                        None => {
                            closed = true;
                            break;
                        }
                    }
                }
                QueuePoll::Closed => {
                    closed = true;
                    break;
                }
            }
        }
        let Some(active) = live.pop_front() else {
            if closed || shared.faulted.load(Ordering::Relaxed) {
                return;
            }
            continue;
        };
        // Scheduling point: cancellation is honored between slices.
        if is_cancelled(shared, active.job.index()) {
            shared
                .sink
                .job_finished(&active.job, Ok(JobOutput::Cancelled));
            continue;
        }
        let Active { job, mut sim, busy } = active;
        // A slice's busy time runs through its journal write (checkpoint
        // or outcome record): the worker is occupied by the job for all of
        // it.
        let start = Instant::now();
        match sim.advance(slice, None) {
            Ok(RunStatus::Running) => {
                if shared.config.checkpoint_every.is_some() {
                    if let Some(journal) = &shared.journal {
                        if let Err(e) = journal.store_checkpoint(&job, &sim) {
                            finish_simulated(shared, &job, Err(e), busy + start.elapsed());
                            continue;
                        }
                    }
                }
                let busy = busy + start.elapsed();
                live.push_back(Active { job, sim, busy });
            }
            Ok(RunStatus::Complete) => {
                let result = sim.finish().and_then(|outcome| {
                    if let Some(journal) = &shared.journal {
                        journal.store_outcome(&job, &outcome)?;
                        // The record supersedes the mid-run checkpoint.
                        journal.discard_checkpoint(&job);
                    }
                    Ok(outcome)
                });
                finish_simulated(shared, &job, result, busy + start.elapsed());
            }
            Err(e) => finish_simulated(shared, &job, Err(e), busy + start.elapsed()),
        }
    }
}

fn is_cancelled(shared: &Shared, index: usize) -> bool {
    shared
        .cancelled
        .lock()
        .expect("cancel set poisoned")
        .contains(&index)
}

/// Brings a dequeued job into the resident set — unless the journal
/// already holds its outcome (served for free, bypassing timing and the
/// fault threshold: it was counted by the invocation that ran it) or it
/// was cancelled before ever running.
fn admit(shared: &Shared, job: JobSpec) -> Option<Active> {
    if is_cancelled(shared, job.index()) {
        shared.sink.job_finished(&job, Ok(JobOutput::Cancelled));
        return None;
    }
    if let Some(journal) = &shared.journal {
        match journal.load_outcome(&job) {
            Ok(Some(outcome)) => {
                shared.sink.job_finished(
                    &job,
                    Ok(JobOutput::Completed {
                        outcome,
                        source: JobSource::Journal,
                    }),
                );
                return None;
            }
            Ok(None) => {}
            Err(e) => {
                finish_simulated(shared, &job, Err(e), Duration::ZERO);
                return None;
            }
        }
        match journal.load_checkpoint(&job) {
            Ok(Some(mut sim)) => {
                // Trace sinks are process-local and deliberately excluded
                // from checkpoints; reattach this process's.
                if let Some(trace) = &job.config().trace {
                    sim.set_trace(trace.clone());
                }
                return Some(Active {
                    job,
                    sim,
                    busy: Duration::ZERO,
                });
            }
            Ok(None) => {}
            Err(e) => {
                finish_simulated(shared, &job, Err(e), Duration::ZERO);
                return None;
            }
        }
    }
    let start = Instant::now();
    match build_sim(shared, job.config()) {
        Ok(sim) => Some(Active {
            job,
            sim,
            busy: start.elapsed(),
        }),
        Err(e) => {
            finish_simulated(shared, &job, Err(e), start.elapsed());
            None
        }
    }
}

/// Final accounting for a job that actually ran in this invocation:
/// busy-time telemetry, the fault threshold, and the sink notification.
fn finish_simulated(
    shared: &Shared,
    job: &JobSpec,
    result: Result<SimulationOutcome, SimError>,
    busy: Duration,
) {
    shared
        .busy_us
        .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
    if let Some(sink) = &shared.timing {
        sink.record(&TraceEvent::CellCompleted {
            cell: job.cell() as u32,
            seed: job.config().seed,
            wall_ms: busy.as_secs_f64() * 1e3,
        });
    }
    let done = shared.simulated.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(k) = shared.config.fault_after {
        if done >= k && !shared.faulted.swap(true, Ordering::Relaxed) {
            // Unblock workers parked on an open queue so the pool can
            // wind down; their in-flight jobs still finish and journal.
            shared.queue.close();
        }
    }
    shared.sink.job_finished(
        job,
        result.map(|outcome| JobOutput::Completed {
            outcome,
            source: JobSource::Simulated,
        }),
    );
}

/// Builds the simulation for a job. Jobs that prewarm the LLC go through
/// the prewarm-checkpoint cache: the (expensive) bank fill for a given
/// canonical configuration is simulated once, checkpointed to memory,
/// and every later job resumes that checkpoint and adopts its own run
/// quotas — bit-identical to prewarming from scratch (the fill is
/// deterministic in the canonical configuration).
fn build_sim(shared: &Shared, cfg: &SimulationConfig) -> Result<Simulation, SimError> {
    if !cfg.prewarm_llc {
        return Simulation::new(cfg.clone());
    }
    let key = persist::prewarm_key(cfg);
    let bytes = {
        let mut cache = shared.prewarm.lock().expect("prewarm cache poisoned");
        match cache.get(&key) {
            Some(bytes) => Arc::clone(bytes),
            None => {
                // Built under the lock: the first job pays once and
                // concurrent workers with the same key wait for it
                // rather than all paying.
                let mut sim = Simulation::new(persist::prewarm_canonical_config(cfg))?;
                sim.prewarm();
                let mut buf = Vec::new();
                sim.checkpoint(&mut buf)?;
                let bytes = Arc::new(buf);
                cache.insert(key, Arc::clone(&bytes));
                bytes
            }
        }
    };
    let mut sim = Simulation::resume(bytes.as_slice())?;
    sim.adopt_config(cfg.clone())?;
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::LiveQueue;
    use crate::sink::CollectingSink;
    use std::path::PathBuf;

    /// Temp journal dir removed on drop (even on assertion failure).
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("consim-pool-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn config(seed: u64) -> SimulationConfig {
        let profile = consim_workload::WorkloadProfileBuilder::new("p")
            .footprint_blocks(2_000)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.workload(profile).refs_per_vm(600).seed(seed);
        b.build().unwrap()
    }

    fn prewarm_cache() -> PrewarmCache {
        Arc::new(Mutex::new(FastHashMap::default()))
    }

    /// Satellite regression: `close()` while a worker holds in-flight
    /// slices is a *drain* — every queued job still finishes and
    /// journals; nothing is dropped.
    #[test]
    fn close_with_in_flight_slices_drains_the_backlog() {
        let scratch = ScratchDir::new("drain");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let queue = Arc::new(LiveQueue::new());
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                time_slice: Some(100),
                max_live: 2,
                checkpoint_every: Some(50),
                fault_after: None,
            },
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            prewarm_cache(),
            None,
        );
        for seed in 0..4 {
            queue.push(0, config(seed)).unwrap();
        }
        // The worker is mid-slice on the early jobs; the rest are backlog.
        queue.close();
        let report = pool.join();
        assert!(!report.faulted);
        assert_eq!(report.simulated, 4, "close() drains, it does not drop");
        let results = sink.take();
        assert_eq!(results.len(), 4);
        for (index, result) in results {
            assert!(
                matches!(result, Ok(JobOutput::Completed { .. })),
                "job {index} must complete after close()"
            );
        }
        assert_eq!(journal.completed().unwrap().len(), 4, "all journaled");
    }

    /// Busy time covers a journaled slice's checkpoint write. With
    /// 50-access slices the worker spends most of its time writing
    /// checkpoints, so busy time that stopped at the end of `advance`
    /// would fall far short of the pool's wall time.
    #[test]
    fn busy_time_covers_journaled_checkpoints() {
        let scratch = ScratchDir::new("busy");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let queue = Arc::new(LiveQueue::new());
        // A prewarmed LLC gives every checkpoint live lines to write while
        // a 50-access slice stays cheap.
        let mut cfg = config(1);
        cfg.prewarm_llc = true;
        cfg.warmup_refs_per_vm = 0;
        queue.push(0, cfg).unwrap();
        queue.close();
        let started = Instant::now();
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                checkpoint_every: Some(50),
                ..PoolConfig::default()
            },
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::new(CollectingSink::new()) as Arc<dyn ResultSink>,
            Some(journal),
            prewarm_cache(),
            None,
        );
        let report = pool.join();
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(report.simulated, 1);
        assert!(
            report.busy_seconds >= 0.75 * wall,
            "busy {:.4} s of a {wall:.4} s pool run",
            report.busy_seconds
        );
    }

    /// Satellite regression: a pool that winds down early (fault injector)
    /// reports every stranded job as `Abandoned` — the sink hears about
    /// all submissions exactly once, and the stranded jobs remain
    /// re-runnable afterwards.
    #[test]
    fn fault_reports_stranded_jobs_as_abandoned() {
        let scratch = ScratchDir::new("abandon");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let queue = Arc::new(LiveQueue::new());
        // Submit the whole batch before any worker exists so the order of
        // admission (and therefore which job trips the fault) is fixed.
        for seed in 0..3 {
            queue.push(0, config(seed)).unwrap();
        }
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                fault_after: Some(1),
                ..PoolConfig::default()
            },
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            prewarm_cache(),
            None,
        );
        let report = pool.join();
        assert!(report.faulted);
        assert_eq!(report.simulated, 1);
        let mut results = sink.take();
        assert_eq!(results.len(), 3, "every submission is accounted for");
        assert!(matches!(
            results.remove(&0),
            Some(Ok(JobOutput::Completed { .. }))
        ));
        for index in 1..3 {
            assert!(
                matches!(results.remove(&index), Some(Ok(JobOutput::Abandoned))),
                "stranded job {index} must be reported, not silently dropped"
            );
        }
        // Abandoned jobs lost nothing: re-enqueueing the same configs
        // completes them (job 0 served from its journal record for free).
        let queue = Arc::new(LiveQueue::new());
        for seed in 0..3 {
            queue.push(0, config(seed)).unwrap();
        }
        queue.close();
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig::default(),
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            prewarm_cache(),
            None,
        );
        let report = pool.join();
        assert!(!report.faulted);
        assert_eq!(report.simulated, 2, "only the stranded jobs re-simulate");
        assert!(sink
            .take()
            .into_values()
            .all(|r| matches!(r, Ok(JobOutput::Completed { .. }))));
    }
}
