//! Per-layer measurements, taken from outside each layer: a
//! [`StepObserver`] counting what the engine did, replays of the observed
//! access stream through the standalone layer types, and timed calls into
//! the persistence and journal APIs.
//!
//! Each replay times one layer alone, so the replays are not additive with
//! each other or with `engine.ns_per_step`; they say how expensive a
//! layer's operation is on this workload's real stream.

use crate::host;
use crate::report::Report;
use crate::stats::median;
use consim::churn::{ChurnAction, ChurnDecision};
use consim::engine::{RunStatus, Simulation, SimulationConfig, SimulationOutcome};
use consim::machine::Layout;
use consim::metrics::MissSource;
use consim::observe::{AccessStep, StepObserver, StepOutcome};
use consim::qos::RepartitionDecision;
use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
use consim_coherence::{AccessKind, Directory};
use consim_job::{JobJournal, JobSpec};
use consim_noc::{ContentionModel, Packet};
use consim_types::{BlockAddr, CoreId, Cycle, NodeId, SimRng, ThreadId, VmId};
use consim_workload::WorkloadGenerator;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Accesses per `advance()` slice and per checkpoint at the daemon's
/// defaults (`DaemonConfig::new`).
pub const DAEMON_SLICE: u64 = 2_000;

/// One observed access, as much as the replays need.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    core: CoreId,
    block: BlockAddr,
    is_write: bool,
    outcome: StepOutcome,
}

/// A [`StepObserver`] that counts what the engine did and, optionally,
/// keeps the access stream for the replays.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Accesses observed.
    pub steps: u64,
    l0_hits: u64,
    l1_hits: u64,
    remote_l1: u64,
    llc: u64,
    memory: u64,
    upgrades: u64,
    measured_steps: u64,
    qos_epochs: u64,
    repartitions: u64,
    churn_decisions: u64,
    migrations: u64,
    record: bool,
    stream: Vec<Step>,
}

impl Recorder {
    /// Counts only.
    pub fn counting() -> Recorder {
        Recorder::default()
    }

    /// Counts and keeps the stream.
    pub fn recording() -> Recorder {
        Recorder {
            record: true,
            ..Recorder::default()
        }
    }

    /// Reports hit and miss shares (of all accesses) and the boundary
    /// counts per job.
    pub fn report_shares(&self, report: &mut Report, jobs: u64) {
        let all = self.steps.max(1) as f64;
        let per_job = |n: u64| n as f64 / jobs.max(1) as f64;
        report.metric("engine.l0_hit_share", self.l0_hits as f64 / all, "ratio");
        report.metric("engine.l1_hit_share", self.l1_hits as f64 / all, "ratio");
        report.metric(
            "engine.miss_share.remote_l1",
            self.remote_l1 as f64 / all,
            "ratio",
        );
        report.metric(
            "engine.miss_share.upgrade",
            self.upgrades as f64 / all,
            "ratio",
        );
        report.metric(
            "engine.miss_share.memory",
            self.memory as f64 / all,
            "ratio",
        );
        report.metric("engine.miss_share.llc", self.llc as f64 / all, "ratio");
        report.metric("qos.epochs", per_job(self.qos_epochs), "count");
        report.metric("qos.repartitions", per_job(self.repartitions), "count");
        report.metric("churn.decisions", per_job(self.churn_decisions), "count");
        report.metric("churn.migrations", per_job(self.migrations), "count");
    }
}

impl StepObserver for Recorder {
    fn on_step(&mut self, step: &AccessStep) {
        self.steps += 1;
        self.measured_steps += u64::from(step.measuring);
        match step.outcome {
            StepOutcome::L0Hit => self.l0_hits += 1,
            StepOutcome::L1Hit => self.l1_hits += 1,
            StepOutcome::Miss(MissSource::RemoteL1Dirty | MissSource::RemoteL1Clean) => {
                self.remote_l1 += 1
            }
            StepOutcome::Miss(
                MissSource::LocalLlc | MissSource::RemoteLlcDirty | MissSource::RemoteLlcClean,
            ) => self.llc += 1,
            StepOutcome::Miss(MissSource::Memory) => self.memory += 1,
            StepOutcome::Miss(MissSource::Upgrade) => self.upgrades += 1,
        }
        if self.record {
            self.stream.push(Step {
                core: step.core,
                block: step.block,
                is_write: step.is_write,
                outcome: step.outcome,
            });
        }
    }

    fn on_repartition(&mut self, decision: &RepartitionDecision) {
        self.qos_epochs += 1;
        self.repartitions += u64::from(decision.new_masks != decision.old_masks);
    }

    fn on_churn(&mut self, decision: &ChurnDecision) {
        self.churn_decisions += 1;
        self.migrations += decision
            .actions
            .iter()
            .filter(|a| matches!(a, ChurnAction::Migrate { .. }))
            .count() as u64;
    }
}

/// Repeats `pass` (which returns the operations it performed) until at
/// least 50 ms of thread CPU time have been spent; returns ns per
/// operation.
fn ns_per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let start = host::thread_cpu();
    let mut ops = 0u64;
    while host::thread_cpu() - start < Duration::from_millis(50) || ops == 0 {
        ops += pass();
    }
    (host::thread_cpu() - start).as_nanos() as f64 / ops as f64
}

/// Replays the recorded stream through the workload, cache, coherence and
/// NoC layers and reports each layer's cost per operation.
pub fn replay(
    config: &SimulationConfig,
    outcome: &SimulationOutcome,
    recorder: &Recorder,
    report: &mut Report,
) {
    let stream = &recorder.stream;
    let machine = &config.machine;

    // Workload generation: the job's generators, batched as the engine
    // batches them.
    let root = SimRng::from_seed(config.seed);
    let mut generators: Vec<WorkloadGenerator> = config
        .workloads
        .iter()
        .enumerate()
        .map(|(vm, p)| WorkloadGenerator::new(VmId::new(vm), p, &root))
        .collect();
    let mut batch = Vec::with_capacity(64);
    let ns = ns_per_op(|| {
        let mut refs = 0u64;
        for g in &mut generators {
            for t in 0..g.profile().threads {
                batch.clear();
                g.fill_batch(ThreadId::new(t), &mut batch, 64);
                if batch.is_empty() {
                    black_box(g.next_ref(ThreadId::new(t)));
                    refs += 1;
                }
                refs += black_box(&batch).len() as u64;
            }
        }
        refs
    });
    report.metric("workload.ns_per_ref", ns, "ns");

    // Private cache: every access through per-core L1-geometry caches.
    let mut caches: Vec<SetAssocCache> = (0..machine.num_cores)
        .map(|_| SetAssocCache::new(machine.l1, ReplacementPolicy::Lru))
        .collect();
    let ns = ns_per_op(|| {
        for s in stream {
            let cache = &mut caches[s.core.index()];
            if cache.access(s.block).is_none() {
                let state = if s.is_write {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                black_box(cache.insert(s.block, state));
            }
        }
        stream.len() as u64
    });
    report.metric("cache.ns_per_access", ns, "ns");

    let misses: Vec<(usize, Step)> = stream
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.outcome, StepOutcome::Miss(_)))
        .map(|(i, s)| (i, *s))
        .collect();

    // Directory: every miss and upgrade, in protocol order. The stream
    // carries no private-cache evictions or churn scrubs, so an untimed
    // first pass finds the requests whose requester the replayed directory
    // still lists as a holder; the timed passes evict those first, which
    // keeps every request within `Directory::handle`'s contract.
    let mut dir = Directory::new(machine.num_cores);
    let requests: Vec<(CoreId, BlockAddr, AccessKind, u8)> = misses
        .iter()
        .map(|(_, s)| {
            let (owner, sharers) = dir.state_of(s.block);
            let kind = match s.outcome {
                StepOutcome::Miss(MissSource::Upgrade)
                    if owner.is_none() && sharers.contains(s.core) =>
                {
                    AccessKind::Upgrade
                }
                StepOutcome::Miss(MissSource::Upgrade) => AccessKind::Write,
                _ if s.is_write => AccessKind::Write,
                _ => AccessKind::Read,
            };
            // An entry can list the requester as owner and as sharer, so
            // evict until it lists it as neither.
            let mut evicts = 0u8;
            while kind != AccessKind::Upgrade && dir.sharers_of(s.block).contains(s.core) {
                dir.evict(s.core, s.block);
                evicts += 1;
            }
            dir.handle(s.core, s.block, kind);
            (s.core, s.block, kind, evicts)
        })
        .collect();
    let ns = ns_per_op(|| {
        let mut dir = Directory::new(machine.num_cores);
        for &(core, block, kind, evicts) in &requests {
            for _ in 0..evicts {
                dir.evict(core, block);
            }
            black_box(dir.handle(core, block, kind));
        }
        requests.len() as u64
    });
    report.metric("coherence.ns_per_handle", ns, "ns");

    // NoC: each miss as its request and response packets, departing at
    // the step's position on the job's mean access clock.
    let Ok(layout) = Layout::new(machine) else {
        return report.check(false, || "layout of the paper machine".into());
    };
    let cycles_per_step = outcome.measured_cycles as f64 / recorder.measured_steps.max(1) as f64;
    let homes = Directory::new(machine.num_cores);
    let mut sends = 0u64;
    let ns = ns_per_op(|| {
        let mut noc = ContentionModel::new(
            *layout.mesh(),
            machine.link_latency,
            machine.router_pipeline,
        );
        sends = 0;
        for (i, s) in &misses {
            let t = Cycle::new((*i as f64 * cycles_per_step) as u64);
            let core = layout.core_node(s.core);
            let home = homes.home_of(s.block);
            let at = noc.send(&Packet::control(core, home), t);
            let arrive = match s.outcome {
                StepOutcome::Miss(MissSource::Memory) => {
                    let (_, mc) = layout.memory_controller_of(s.block);
                    let at = noc.send(&Packet::control(home, mc), at);
                    sends += 1;
                    noc.send(&Packet::data(mc, core), at + machine.memory_latency)
                }
                StepOutcome::Miss(MissSource::LocalLlc) => {
                    let bank = layout.bank_node(machine.bank_of_core(s.core));
                    noc.send(&Packet::data(bank, core), at)
                }
                StepOutcome::Miss(MissSource::Upgrade) => {
                    noc.send(&Packet::control(home, core), at)
                }
                _ => noc.send(&Packet::data(home, core), at),
            };
            black_box(arrive);
            sends += 2;
        }
        sends
    });
    report.metric("noc.ns_per_send", ns, "ns");
    // The micro bench's shape on the same model: one 6-hop data packet
    // every 10 cycles, never abutting, so ~10k intervals stay live per
    // link under the prune horizon.
    let micro_sends = sends.max(100_000);
    let ns = ns_per_op(|| {
        let mut noc = ContentionModel::new(
            *layout.mesh(),
            machine.link_latency,
            machine.router_pipeline,
        );
        let (src, dst) = (NodeId::new(0), NodeId::new(machine.num_cores - 1));
        for i in 1..=micro_sends {
            black_box(noc.send(&Packet::data(src, dst), Cycle::new(i * 10)));
        }
        micro_sends
    });
    report.metric("noc.ns_per_send_micro_shape", ns, "ns");
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_ms(values: &[Duration]) -> f64 {
    let ms: Vec<f64> = values.iter().copied().map(ms).collect();
    median(&ms).map_or(0.0, |m| m.value)
}

/// Times the persistence and slicing layers on `configs`, run the way a
/// daemon worker runs its resident jobs: rotating `advance()` slices of
/// [`DAEMON_SLICE`] accesses over the jobs, each slice followed by a
/// journaled checkpoint when `checkpointed` (only the daemon pays for
/// checkpoints; the engine workloads time them on their own state without
/// paying for them). All timings are wall-clock. Returns the modelled
/// service time of one job in seconds.
pub fn persistence(
    configs: &[SimulationConfig],
    work: &Path,
    checkpointed: bool,
    report: &mut Report,
) -> Option<f64> {
    let result = (|| -> Result<f64, consim_types::SimError> {
        let journal = JobJournal::open(work.join("layers-journal"))?;
        let specs: Vec<JobSpec> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| JobSpec::new(i, 0, c.clone()))
            .collect();
        let mut spec_times = Vec::new();
        for spec in specs.iter().cycle().take(5 * specs.len()) {
            let t = Instant::now();
            journal.store_spec(spec)?;
            spec_times.push(t.elapsed());
        }

        // The worker's schedule: one slice of each resident job in turn.
        let mut service = Duration::ZERO;
        let mut live = Vec::new();
        for (spec, config) in specs.iter().zip(configs) {
            let t = Instant::now();
            live.push((spec, Simulation::new(config.clone())?));
            service += t.elapsed();
        }
        let (mut advance, mut store, mut outcome_times) = (vec![], vec![], vec![]);
        while !live.is_empty() {
            let mut still = Vec::new();
            for (spec, mut sim) in live {
                let t = Instant::now();
                let status = sim.advance(DAEMON_SLICE, None)?;
                advance.push(t.elapsed());
                if status == RunStatus::Complete {
                    let outcome = sim.finish()?;
                    let t = Instant::now();
                    journal.store_outcome(spec, &outcome)?;
                    journal.discard_checkpoint(spec);
                    outcome_times.push(t.elapsed());
                    continue;
                }
                if checkpointed {
                    let t = Instant::now();
                    journal.store_checkpoint(spec, &sim)?;
                    store.push(t.elapsed());
                }
                still.push((spec, sim));
            }
            live = still;
        }
        let slices = advance.len() as f64 / configs.len() as f64;
        service += advance.iter().chain(&store).sum::<Duration>();
        if checkpointed {
            service += outcome_times.iter().sum::<Duration>();
        }
        let service_ms = ms(service) / configs.len() as f64;

        // The checkpoint codec alone, on a mid-run state.
        let mut sim = Simulation::new(configs[0].clone())?;
        sim.advance(DAEMON_SLICE * 3, None)?;
        let (mut encode, mut resume, mut standalone_store) = (vec![], vec![], vec![]);
        let mut bytes = Vec::new();
        for _ in 0..3 {
            bytes.clear();
            let t = Instant::now();
            sim.checkpoint(&mut bytes)?;
            encode.push(t.elapsed());
            let t = Instant::now();
            black_box(Simulation::resume(bytes.as_slice())?);
            resume.push(t.elapsed());
            if !checkpointed {
                let t = Instant::now();
                journal.store_checkpoint(&specs[0], &sim)?;
                standalone_store.push(t.elapsed());
            }
        }
        journal.discard_checkpoint(&specs[0]);
        let encode_ms = median_ms(&encode);
        // `store_checkpoint` encodes before writing; its write share is the
        // difference.
        let store_ms = median_ms(if checkpointed {
            &store
        } else {
            &standalone_store
        });
        let write_ms = (store_ms - encode_ms).max(0.0);
        let advance_ms = advance.iter().copied().map(ms).sum::<f64>() / advance.len() as f64;
        let checkpoints = store.len() as f64 / configs.len() as f64;
        report.metric("snap.bytes", bytes.len() as f64, "bytes");
        report.metric("snap.checkpoint_ms", encode_ms, "ms");
        report.metric("snap.resume_ms", median_ms(&resume), "ms");
        report.metric("journal.store_spec_ms", median_ms(&spec_times), "ms");
        report.metric("journal.store_checkpoint_ms", write_ms, "ms");
        report.metric("journal.store_outcome_ms", median_ms(&outcome_times), "ms");
        report.metric("journal.checkpoints_per_job", checkpoints, "count");
        report.metric("pool.advance_ms_per_slice", advance_ms, "ms");
        report.metric("pool.slices_per_job", slices, "count");
        report.note(format!(
            "modelled service per job ({} resident): {service_ms:.2} ms; {slices:.1} slices x \
             {advance_ms:.3} ms + {checkpoints:.1} checkpoints x {store_ms:.2} ms \
             ({encode_ms:.2} encode standalone, {write_ms:.2} write)",
            configs.len()
        ));
        Ok(service_ms / 1e3)
    })();
    match result {
        Ok(service) => Some(service),
        Err(e) => {
            report.check(false, || format!("persistence layer: {e}"));
            None
        }
    }
}
