//! The three benchmark workloads and the job configurations they run.
//!
//! Every job is the paper's heterogeneous four-VM mix (TPC-H, TPC-W,
//! SPECjbb, SPECweb) on the paper's 16-core machine with shared-4 LLC
//! banks. The workloads differ in which layers they load:
//!
//! * `mix4_shared4` — the `throughput` probe's shape, serial: the hot
//!   loop with its boundary code compiled out, no I/O;
//! * `mix4_qos_churn` — the same mix under dynamic LLC repartitioning and
//!   VM churn with live migration, both firing every few thousand cycles,
//!   so the boundary loop and the migration scrubs carry real weight;
//! * `serve_mix4` — small jobs submitted to the `consim-serve` daemon at
//!   its defaults, where checkpoint encoding and journal I/O dominate.

use consim::engine::SimulationConfig;
use consim_sched::SchedulingPolicy;
use consim_types::config::{
    ChurnPolicy, DynamicPolicy, LlcPartitioning, MachineConfig, SharingDegree,
};
use consim_types::SimError;
use consim_workload::WorkloadKind;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial engine throughput on the plain loop.
    Mix4Shared4,
    /// Serial engine throughput with QoS and churn boundaries firing.
    Mix4QosChurn,
    /// Closed-loop jobs through the daemon.
    ServeMix4,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::Mix4Shared4,
        Workload::Mix4QosChurn,
        Workload::ServeMix4,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix4Shared4 => "mix4_shared4",
            Workload::Mix4QosChurn => "mix4_qos_churn",
            Workload::ServeMix4 => "serve_mix4",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper's heterogeneous mix, one VM per entry.
pub const MIX4: [WorkloadKind; 4] = [
    WorkloadKind::TpcH,
    WorkloadKind::TpcW,
    WorkloadKind::SpecJbb,
    WorkloadKind::SpecWeb,
];

/// Quotas of one engine-workload job (per VM). Small enough that a
/// 10-second window completes a few dozen jobs, so the job-latency tail
/// has ten samples beyond it.
pub const ENGINE_REFS_PER_VM: u64 = 8_000;
/// Warmup references per VM of one engine-workload job.
pub const ENGINE_WARMUP_PER_VM: u64 = 8_000;

/// Quotas of one daemon job (per VM): a few `advance()` slices, so the
/// daemon's per-slice checkpoints dominate its latency.
pub const SERVE_REFS_PER_VM: u64 = 1_500;
/// Warmup references per VM of one daemon job.
pub const SERVE_WARMUP_PER_VM: u64 = 1_500;

/// Cycles between dynamic-QoS decisions in `mix4_qos_churn`. At the
/// Fig 15 setting (10k cycles) a job sees only a handful of boundaries.
pub const QOS_EPOCH_CYCLES: u64 = 2_000;
/// Cycles between churn decisions in `mix4_qos_churn`.
pub const CHURN_INTERVAL_CYCLES: u64 = 2_000;

/// The paper machine with shared-4 LLC banks.
pub fn shared4_machine() -> MachineConfig {
    MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4))
}

/// The `mix4_qos_churn` machine: shared-4 banks, dynamic repartitioning
/// without a dead-band, and a birth–death churn process with live
/// migration (departures free the cores migrations move to). No VM is
/// classed streaming, and the job prewarms the LLC, so the controller
/// sees cache-sensitive VMs and moves ways at most boundaries instead of
/// holding the equal split.
pub fn qos_churn_machine() -> MachineConfig {
    let vms = MIX4.len();
    shared4_machine()
        .with_llc_partitioning(LlcPartitioning::Dynamic(DynamicPolicy {
            epoch_interval: QOS_EPOCH_CYCLES,
            deadband_milli: 0,
            stream_memory_permille: 1_000,
            ..DynamicPolicy::default()
        }))
        .with_churn(ChurnPolicy {
            interval: CHURN_INTERVAL_CYCLES,
            arrival_permille: vec![300; vms],
            departure_permille: vec![100; vms],
            migration_permille: 300,
            initial_active: vms,
            min_active: vms / 2,
            migration_targets: None,
        })
}

/// The machine an engine workload runs on (`stripped` drops the QoS and
/// churn policies, for the boundary-cost comparison).
pub fn engine_machine(workload: Workload, stripped: bool) -> MachineConfig {
    match workload {
        Workload::Mix4QosChurn if !stripped => qos_churn_machine(),
        _ => shared4_machine(),
    }
}

/// Builds one job: the mix on `machine` with `policy`, `seed` and the
/// given per-VM quotas.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn job_config(
    machine: MachineConfig,
    policy: SchedulingPolicy,
    seed: u64,
    refs_per_vm: u64,
    warmup_per_vm: u64,
) -> Result<SimulationConfig, SimError> {
    let mut b = SimulationConfig::builder();
    b.machine(machine)
        .policy(policy)
        .seed(seed)
        .refs_per_vm(refs_per_vm)
        .warmup_refs_per_vm(warmup_per_vm);
    for kind in MIX4 {
        b.workload(kind.profile());
    }
    b.build()
}

/// An engine-workload job for `seed`. `mix4_qos_churn` jobs prewarm the
/// LLC (see [`qos_churn_machine`]).
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn engine_job(
    workload: Workload,
    stripped: bool,
    seed: u64,
) -> Result<SimulationConfig, SimError> {
    let mut config = job_config(
        engine_machine(workload, stripped),
        SchedulingPolicy::Affinity,
        seed,
        ENGINE_REFS_PER_VM,
        ENGINE_WARMUP_PER_VM,
    )?;
    config.prewarm_llc = workload == Workload::Mix4QosChurn;
    Ok(config)
}

/// References a job simulates when every VM meets its quota (warmup plus
/// measured, summed over VMs) — the unit the `throughput` probe counts.
pub fn quota_refs(config: &SimulationConfig) -> u64 {
    (config.refs_per_vm + config.warmup_refs_per_vm) * config.workloads.len() as u64
}

/// SplitMix64: derives well-mixed per-job seeds from the run seed.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
