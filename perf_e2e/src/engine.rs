//! The engine workloads (`mix4_shared4`, `mix4_qos_churn`): serial jobs
//! on the calling thread, timed on its CPU clock.

use crate::host::{self, HostTicks};
use crate::layers::{self, Recorder};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::workloads::{engine_job, mix_seed, quota_refs, Workload};
use consim::engine::{Simulation, SimulationConfig, SimulationOutcome};
use consim::observe::StepObserver;
use consim::{audit_outcome, persist};
use consim_snap::fnv1a;
use consim_types::SimError;
use std::path::Path;
use std::time::{Duration, Instant};

/// Outcome digests the engine must reproduce for fixed seeds: any change
/// to simulated behaviour, however fast, fails the correctness gate.
const PINNED: [(Workload, u64, u64); 4] = [
    (Workload::Mix4Shared4, 1, 0x6368_7c88_bc51_b336),
    (Workload::Mix4Shared4, 2, 0x8fa5_a64e_0c2c_30ab),
    (Workload::Mix4QosChurn, 1, 0xecb1_40e8_6982_1403),
    (Workload::Mix4QosChurn, 2, 0xba88_af45_a2e3_b3f9),
];

/// Timings of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    /// Wall time of config build plus `Simulation::new` (plus the LLC
    /// prewarm when the job asks for one).
    pub setup_wall: Duration,
    /// CPU time of the simulation proper (first access to `finish`).
    pub sim_cpu: Duration,
    /// Wall time of the simulation proper.
    pub sim_wall: Duration,
    /// CPU time of the whole job.
    pub job_cpu: Duration,
    /// The job's quota sum (warmup plus measured references over all
    /// VMs), the work unit of the `throughput` probe.
    pub refs: u64,
}

/// One finished job: timings, outcome, and its digest.
pub struct Job {
    /// How long each part took.
    pub timing: JobTiming,
    /// What it produced.
    pub outcome: SimulationOutcome,
    /// Digest of the outcome record bytes.
    pub digest: u64,
}

/// Digest of an outcome's canonical record bytes.
pub fn outcome_digest(outcome: &SimulationOutcome) -> Result<u64, SimError> {
    Ok(fnv1a(&persist::outcome_to_bytes(outcome)?))
}

/// Builds and runs one job on this thread, notifying `observer` of every
/// access.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_job(
    build: impl FnOnce() -> Result<SimulationConfig, SimError>,
    observer: Option<&mut dyn StepObserver>,
) -> Result<Job, SimError> {
    let cpu0 = host::thread_cpu();
    let wall0 = Instant::now();
    let config = build()?;
    let mut sim = Simulation::new(config.clone())?;
    // Prewarming is set-up work; `run` would otherwise do it first thing.
    if config.prewarm_llc {
        sim.prewarm();
    }
    let setup_wall = wall0.elapsed();
    let sim_wall0 = Instant::now();
    let cpu_new = host::thread_cpu();
    let outcome = sim.run_with(observer)?;
    let cpu_end = host::thread_cpu();
    let sim_wall = sim_wall0.elapsed();
    let refs = quota_refs(&config);
    let digest = outcome_digest(&outcome)?;
    Ok(Job {
        timing: JobTiming {
            setup_wall,
            sim_cpu: cpu_end - cpu_new,
            sim_wall,
            job_cpu: cpu_end - cpu0,
            refs,
        },
        outcome,
        digest,
    })
}

/// Runs a job and passes it through the correctness gate: the run must
/// succeed and its outcome must pass the engine's counter audit.
fn gated_job(
    report: &mut Report,
    build: impl FnOnce() -> Result<SimulationConfig, SimError>,
    observer: Option<&mut dyn StepObserver>,
) -> Option<Job> {
    match run_job(build, observer) {
        Ok(job) => {
            let audit = audit_outcome(&job.outcome);
            report.check(audit.is_ok(), || format!("audit: {audit:?}"));
            Some(job)
        }
        Err(e) => {
            report.check(false, || format!("job failed: {e}"));
            None
        }
    }
}

/// Reproduces the pinned digests of `workload` (outside any timed window;
/// this also warms the allocator and caches before timing starts).
fn check_pinned(report: &mut Report, workload: Workload) {
    for &(w, seed, expected) in PINNED.iter().filter(|p| p.0 == workload) {
        if let Some(job) = gated_job(report, || engine_job(w, false, seed), None) {
            report.check(job.digest == expected, || {
                format!(
                    "{} seed {seed}: outcome digest {:#018x}, pinned {expected:#018x}",
                    w.name(),
                    job.digest
                )
            });
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(workload: Workload, seed: u64, seconds: u64, report: &mut Report) {
    check_pinned(report, workload);
    let window = Duration::from_secs(seconds);
    let ticks0 = HostTicks::now();
    let sched0 = host::own_schedstat();
    let wall0 = Instant::now();
    let mut jobs: Vec<JobTiming> = Vec::new();
    let mut first_digest = None;
    while wall0.elapsed() < window {
        let job_seed = mix_seed(seed, jobs.len() as u64);
        let Some(job) = gated_job(report, || engine_job(workload, false, job_seed), None) else {
            break;
        };
        first_digest.get_or_insert(job.digest);
        jobs.push(job.timing);
    }
    let wall = wall0.elapsed();
    let steal = HostTicks::now().steal_share_since(ticks0);
    let runq = host::own_schedstat().since(sched0);

    // Determinism: the first job, run again after the window, must
    // reproduce its outcome bit for bit.
    if let (Some(expected), Some(job)) = (
        first_digest,
        gated_job(
            report,
            || engine_job(workload, false, mix_seed(seed, 0)),
            None,
        ),
    ) {
        report.check(job.digest == expected, || {
            format!(
                "re-run of job 0 digests {:#018x}, first run {expected:#018x}",
                job.digest
            )
        });
    }
    if jobs.is_empty() {
        report.check(false, || "no job completed in the window".into());
        return;
    }

    // Medians over jobs, not totals: a burst of host interference inflates
    // a few jobs, and a total would carry it into the run's figure.
    let refs: u64 = jobs.iter().map(|j| j.refs).sum();
    let rates: Vec<f64> = jobs
        .iter()
        .map(|j| j.refs as f64 / secs(j.sim_cpu))
        .collect();
    let job_cpu: Vec<f64> = jobs.iter().map(|j| secs(j.job_cpu)).collect();
    let setup: Vec<f64> = jobs.iter().map(|j| secs(j.setup_wall)).collect();
    let p50 = median(&job_cpu).expect("at least one job");
    report.metric("refs_per_cpu_s", median(&rates).expect("jobs").value, "1/s");
    report.metric("setup_s", median(&setup).expect("jobs").value, "s");
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    report.metric("job_p50_s", p50.value, "s");
    match tail(&job_cpu) {
        Some(t) => {
            report.metric("job_tail_s", t.value, "s");
            report.note(format!(
                "job_tail_s is p{} of {} jobs ({} beyond)",
                t.percentile, t.samples, t.beyond
            ));
        }
        None => report.check(false, || {
            format!(
                "only {} jobs: no tail with ten samples beyond",
                job_cpu.len()
            )
        }),
    }
    report.metric("jobs_per_s", 1.0 / p50.value, "1/s");
    report.note(format!(
        "{} jobs, {refs} refs; clock: simulating thread CPU (setup_s: wall)",
        jobs.len()
    ));
    report.note(format!(
        "host: steal share {steal:.4}, run-queue wait {:.3} s, wall rate {:.0} refs/s over {:.2} s",
        runq.runq_wait_ns as f64 / 1e9,
        refs as f64 / jobs.iter().map(|j| secs(j.sim_wall)).sum::<f64>(),
        secs(wall)
    ));
}

/// Host diagnostics over the engine-layer jobs.
pub struct EngineLayers {
    /// Median wall time of a plain job (set-up plus simulation).
    pub job_wall_p50: f64,
    /// Host steal share over the jobs.
    pub steal: f64,
    /// Run-queue wait of this thread over the jobs.
    pub runq_s: f64,
    /// Plain jobs' references per wall second.
    pub wall_refs_per_s: f64,
}

/// Per-layer metrics of the engine: job `i` (of `config_for(i, false)`)
/// runs plain, observed, and with QoS and churn stripped
/// (`config_for(i, true)`) until `budget` is spent; then the first job's
/// observed stream is replayed through the layers.
pub fn engine_layers(
    report: &mut Report,
    budget: Duration,
    config_for: impl Fn(u64, bool) -> Result<SimulationConfig, SimError>,
) -> Option<EngineLayers> {
    // One untimed job first, so the timed ones start warm.
    gated_job(report, || config_for(0, false), None)?;
    let ticks0 = HostTicks::now();
    let sched0 = host::own_schedstat();
    let wall0 = Instant::now();
    let mut counts = Recorder::counting();
    let mut stripped_counts = Recorder::counting();
    let (mut plain_cpu, mut traced_cpu, mut stripped_cpu) = (0.0, 0.0, 0.0);
    let (mut plain_refs, mut plain_wall) = (0u64, 0.0);
    let mut job_wall = Vec::new();
    let mut jobs = 0u64;
    while jobs < 3 || wall0.elapsed() < budget {
        let plain = gated_job(report, || config_for(jobs, false), None)?;
        let traced = gated_job(report, || config_for(jobs, false), Some(&mut counts))?;
        let stripped = gated_job(
            report,
            || config_for(jobs, true),
            Some(&mut stripped_counts),
        )?;
        // The observer must not perturb the simulation.
        report.check(plain.digest == traced.digest, || {
            format!(
                "job {jobs}: observed run digests {:#018x}, plain run {:#018x}",
                traced.digest, plain.digest
            )
        });
        plain_cpu += secs(plain.timing.sim_cpu);
        plain_wall += secs(plain.timing.sim_wall);
        plain_refs += plain.timing.refs;
        job_wall.push(secs(plain.timing.setup_wall + plain.timing.sim_wall));
        traced_cpu += secs(traced.timing.sim_cpu);
        stripped_cpu += secs(stripped.timing.sim_cpu);
        jobs += 1;
    }
    let steal = HostTicks::now().steal_share_since(ticks0);
    let runq = host::own_schedstat().since(sched0);

    // Steps are the accesses the engine simulated, which exceed the quota
    // sum: VMs that met their quota keep running until the last one does.
    let steps = counts.steps as f64;
    report.metric("engine.steps", steps / jobs as f64, "count");
    report.metric("engine.ns_per_step", plain_cpu * 1e9 / steps, "ns");
    report.metric("engine.observer_overhead", traced_cpu / plain_cpu, "ratio");
    // Both sides observed, so the observer's cost cancels.
    report.metric(
        "boundary.ns_per_step_delta",
        (traced_cpu / steps - stripped_cpu / stripped_counts.steps as f64) * 1e9,
        "ns",
    );
    counts.report_shares(report, jobs);

    // Layer replays on the first job's observed stream.
    let mut recorder = Recorder::recording();
    let recorded = gated_job(report, || config_for(0, false), Some(&mut recorder))?;
    match config_for(0, false) {
        Ok(config) => layers::replay(&config, &recorded.outcome, &recorder, report),
        Err(e) => report.check(false, || e.to_string()),
    }
    Some(EngineLayers {
        job_wall_p50: median(&job_wall).expect("at least three jobs").value,
        steal,
        runq_s: runq.runq_wait_ns as f64 / 1e9,
        wall_refs_per_s: plain_refs as f64 / plain_wall,
    })
}

/// The traced run: per-layer metrics for an engine workload.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64, work: &Path, report: &mut Report) {
    let Some(engine) = engine_layers(report, Duration::from_secs(seconds) / 2, |i, stripped| {
        engine_job(workload, stripped, mix_seed(seed, i))
    }) else {
        return;
    };
    report.metric("host.steal_share", engine.steal, "ratio");
    report.metric("host.runq_wait_s", engine.runq_s, "s");
    report.metric("host.wall_refs_per_s", engine.wall_refs_per_s, "1/s");
    // The persistence layers on this workload's state; the workload itself
    // never checkpoints, queues, or talks to the daemon.
    let config = match engine_job(workload, false, mix_seed(seed, 0)) {
        Ok(c) => c,
        Err(e) => return report.check(false, || e.to_string()),
    };
    let _ = std::fs::create_dir_all(work);
    if let Some(service) = layers::persistence(std::slice::from_ref(&config), work, false, report) {
        report.metric(
            "serve.reconcile_share",
            service / engine.job_wall_p50,
            "ratio",
        );
    }
    let _ = std::fs::remove_dir_all(work);
    report.metric("serve.ack_p50_ms", 0.0, "ms");
    report.metric("pool.queue_wait_s", 0.0, "s");
    report.metric("pool.busy_s_per_job", 0.0, "s");
    report.metric("pool.job_p50_s", 0.0, "s");
    report.metric("serve.worker_cpu_s_per_job", 0.0, "s");
    report.metric("serve.runq_wait_s_per_job", 0.0, "s");
    report.metric("serve.duplicate_share", 0.0, "ratio");
    report.metric("serve.frames_sent", 0.0, "count");
}
