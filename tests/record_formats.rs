//! Pins the bytes of the records that share the snapshot container with
//! checkpoints: outcome records, submission (spec) records and
//! configuration records (the daemon's submit wire form). Journals written
//! by earlier builds must stay readable, so any change to these bytes —
//! a codec change or a bump of the container version — has to be
//! deliberate: update the pinned digests here in the same change.

use consim::engine::{Simulation, SimulationConfig};
use consim::persist;
use consim_types::config::{CacheGeometry, MachineConfigBuilder, SharingDegree};
use consim_workload::WorkloadProfileBuilder;

/// FNV-1a, spelled out so the pin does not depend on the code under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fixed small configuration: two VMs on a 256 KB shared-4 LLC.
fn config() -> SimulationConfig {
    let machine = MachineConfigBuilder::new()
        .llc(CacheGeometry::new(256 * 1024, 16, 6).unwrap())
        .sharing(SharingDegree::SharedBy(4))
        .build()
        .unwrap();
    let mut b = SimulationConfig::builder();
    b.machine(machine)
        .refs_per_vm(1_500)
        .warmup_refs_per_vm(300)
        .track_footprint(true)
        .seed(12);
    for (name, footprint) in [("pin-a", 3_000), ("pin-b", 800)] {
        b.workload(
            WorkloadProfileBuilder::new(name)
                .footprint_blocks(footprint)
                .shared_fraction(0.3)
                .shared_access_prob(0.3)
                .shared_write_prob(0.1)
                .build()
                .unwrap(),
        );
    }
    b.build().unwrap()
}

/// Every record starts with the container header: magic, then version 4.
fn assert_header(bytes: &[u8], what: &str) {
    assert_eq!(&bytes[..4], b"CSNP", "{what} magic");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        4,
        "{what}: container version"
    );
}

#[test]
fn config_record_bytes_are_pinned() {
    let bytes = persist::config_to_bytes(&config()).unwrap();
    assert_header(&bytes, "config record");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (529, 0x55a7_6854_0e66_4875),
        "config record bytes changed"
    );
}

#[test]
fn spec_record_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("consim-record-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("job.spec");
    persist::write_spec(&path, 7, &config()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_header(&bytes, "spec record");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (535, 0x140f_a27b_b0d0_c1ec),
        "spec record bytes changed"
    );
}

#[test]
fn outcome_record_bytes_are_pinned() {
    let outcome = Simulation::new(config()).unwrap().run().unwrap();
    let bytes = persist::outcome_to_bytes(&outcome).unwrap();
    assert_header(&bytes, "outcome record");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (9935, 0xfb99_614e_783a_0649),
        "outcome record bytes changed"
    );
}
