//! Byte pins of every fault domain's campaign records.
//!
//! One fixed-seed campaign per registry domain on one small scenario
//! (IS, OpenMP, 2 cores, SIRA-64), each at width 1 (the paper's SBU
//! model) and width 3 (a single-word MBU). Each campaign database is
//! reduced to an FNV-1a digest of its JSON. The sweep databases CI pins
//! are all width 1, none samples memory, and a combined uncore space
//! draws almost no skip faults, so these digests are what catches a
//! change to one domain's sampling layout, timing core or flip hook, or
//! to the oracle coordinates of a multi-bit upset.
//!
//! Width-1 campaigns run unpruned, so every sampled fault executes its
//! flip hook. Width-3 campaigns run with class pruning, so decided
//! faults and class members also pin the oracle coordinates (pruned and
//! unpruned databases are byte-identical by construction).

use fracas::prelude::*;

/// Faults per campaign.
const FAULTS: usize = 24;

/// `(domain, width, FNV-1a of CampaignResult::to_json())`, in registry
/// order.
const PINS: [(&str, u32, u64); 20] = [
    ("gpr", 1, 0xde1359425114fc9b),
    ("gpr", 3, 0x0dfd47212c70a2cf),
    ("fpr", 1, 0x5712123abd884461),
    ("fpr", 3, 0x11aca5d42ad4b291),
    ("flags", 1, 0xf8a508d78edbe9cf),
    ("flags", 3, 0x78ac3b78cdd9b70f),
    ("skip", 1, 0x213d70f1aeae9f3e),
    ("skip", 3, 0x4a08e0d02d947df2),
    ("mem", 1, 0x6c757ac24dc59a4e),
    ("mem", 3, 0xa0d2c046c10602cc),
    ("text", 1, 0x9b7b37f76da29de1),
    ("text", 3, 0x09ef23972074e35f),
    ("cache", 1, 0xe2284789e0835589),
    ("cache", 3, 0xe88a3f925fbae445),
    ("kernelctl", 1, 0x7d4e62c438a11827),
    ("kernelctl", 3, 0xe9b2de6df47e3b17),
    ("storebuf", 1, 0x2cfcb1c32c627a6e),
    ("storebuf", 3, 0x81721ac45adf04c5),
    ("cachedata", 1, 0xe31efbdf4002569f),
    ("cachedata", 3, 0xf5f724abb1ea83aa),
];

fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn every_domain_reproduces_its_pinned_records() {
    let names: Vec<&str> = fracas_inject::domains().iter().map(|d| d.name).collect();
    let pinned: Vec<&str> = PINS.iter().step_by(2).map(|p| p.0).collect();
    assert_eq!(pinned, names, "one pair of pins per registry domain");
    let scenario = Scenario::new(App::Is, Model::Omp, 2, IsaKind::Sira64).unwrap();
    let workload = Workload::from_scenario(&scenario).unwrap();
    // The first process's data segment: a memory range the workload
    // reads and writes, so memory faults are not all Vanished.
    let data = (workload.spec.layout.region_base, workload.image.data_size());
    let mut mismatches = Vec::new();
    for (name, width, digest) in PINS {
        let mut space = if name == "mem" {
            FaultSpace {
                mem: Some(data),
                ..FaultSpace::none()
            }
        } else {
            FaultSpace::only(name)
        };
        space.mbu_width = width;
        let config = CampaignConfig {
            faults: FAULTS,
            seed: 7,
            space,
            prune_classes: width > 1,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&workload, &config);
        assert_eq!(result.records.len(), FAULTS, "{name} width {width}");
        assert_eq!(result.tally.anomaly, 0, "{name} width {width}: anomalies");
        if name == "mem" {
            assert_ne!(
                result.tally.count(Outcome::Vanished),
                result.tally.total(),
                "memory faults outside the data the workload uses"
            );
        }
        let got = fnv(result.to_json().as_bytes());
        if got != digest {
            mismatches.push(format!("(\"{name}\", {width}, {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests changed:\n{}",
        mismatches.join("\n")
    );
}
