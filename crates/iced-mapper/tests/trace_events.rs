//! The mapper's detail trace events: every commit abort and every placed
//! node leaves an instant event naming the node and tile (the abort with
//! its reason), and every failed placement a `no_candidate` event.
//!
//! Lives in its own integration-test binary: the trace collector installs
//! once per process, and detail tracing is a process-wide switch.

use std::sync::Arc;

use iced_arch::CgraConfig;
use iced_dfg::{DfgBuilder, Opcode};
use iced_kernels::{Kernel, UnrollFactor};
use iced_mapper::{map_with, MapperOptions};
use iced_trace::{ArgValue, Phase, Record, RecordingCollector};

fn instants<'a>(records: &'a [Record], want: &str) -> Vec<&'a [(String, ArgValue)]> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Instant { name, args, .. } if name == want => Some(args.as_slice()),
            _ => None,
        })
        .collect()
}

fn has_args(args: &[(String, ArgValue)], keys: &[&str]) -> bool {
    keys.iter().all(|k| args.iter().any(|(name, _)| name == k))
}

#[test]
fn commit_attempts_leave_detail_events() {
    let collector = Arc::new(RecordingCollector::new());
    assert!(
        iced_trace::install(collector.clone()).is_ok(),
        "first install in this process"
    );
    iced_trace::set_detail(true);

    let cfg = CgraConfig::iced_prototype();
    let serial = MapperOptions {
        threads: 1,
        ..MapperOptions::default()
    };
    map_with(&Kernel::Fft.dfg(UnrollFactor::X1), &cfg, &serial).expect("fft maps");
    // A ring longer than a 2×2 fabric's II cap can never close.
    let mut b = DfgBuilder::new("ring");
    let ids: Vec<_> = (0..8)
        .map(|i| b.node(Opcode::Add, format!("r{i}")))
        .collect();
    b.data_chain(&ids).unwrap();
    b.carry(ids[7], ids[0]).unwrap();
    let ring = b.finish().unwrap();
    let capped = MapperOptions {
        max_ii: 2,
        ..MapperOptions::baseline()
    };
    assert!(map_with(&ring, &CgraConfig::square(2).unwrap(), &capped).is_err());

    let records = collector.records();
    let aborted = instants(&records, "commit_aborted");
    assert_eq!(
        aborted.len() as u64,
        collector.counter_total(Phase::Mapper, "commit_aborts"),
        "one event per abort"
    );
    assert!(aborted
        .iter()
        .all(|a| has_args(a, &["ii", "node", "tile", "reason"])));
    let pruned = aborted
        .iter()
        .filter(|a| {
            a.iter().any(|(k, v)| {
                k == "reason"
                    && matches!(v, ArgValue::Str(s) if s == "no FU phase"
                        || s == "consumer deadline out of reach")
            })
        })
        .count() as u64;
    assert_eq!(
        pruned,
        collector.counter_total(Phase::Mapper, "commits_pruned")
    );
    let placed = instants(&records, "node_placed");
    assert_eq!(
        placed.len() as u64,
        collector.counter_total(Phase::Mapper, "nodes_placed")
    );
    assert!(placed
        .iter()
        .all(|a| has_args(a, &["ii", "node", "tile", "start", "rate"])));
    let stuck = instants(&records, "no_candidate");
    assert!(!stuck.is_empty(), "the ring fails to place");
    assert!(stuck.iter().all(|a| has_args(a, &["ii", "node", "label"])));
}
