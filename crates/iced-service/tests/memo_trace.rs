//! The base-mapping and partition memo counters mirror into iced-trace
//! as service-phase counters.
//!
//! Lives in its own integration-test binary: the trace collector installs
//! once per process, and this test needs to own it.

use std::collections::HashMap;
use std::sync::Arc;

use iced::trace::{Phase, RecordingCollector};
use iced_service::{Client, Server, ServiceConfig};

#[test]
fn memo_counters_reach_the_trace_collector() {
    let collector = Arc::new(RecordingCollector::new());
    assert!(
        iced::trace::install(collector.clone()).is_ok(),
        "first install in this process"
    );
    let server = Server::start(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::new(&server.local_addr().to_string());
    for strategy in ["baseline", "baseline+pg", "per-tile", "iced"] {
        let r = c
            .request(&format!(
                r#"{{"verb":"compile","kernel":"fir","strategy":"{strategy}"}}"#
            ))
            .expect("compile");
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    c.request(r#"{"verb":"simulate","kernel":"fir","iterations":100}"#)
        .expect("simulate");
    for policy in ["iced", "drips", "static"] {
        c.request(&format!(
            r#"{{"verb":"stream","pipeline":"lu","policy":"{policy}","inputs":4}}"#
        ))
        .expect("stream");
    }
    server.shutdown();
    server.wait();

    let totals: HashMap<String, u64> = collector
        .counter_totals()
        .into_iter()
        .filter(|(phase, _, _)| *phase == Phase::Service)
        .map(|(_, name, total)| (name, total))
        .collect();
    for (name, want) in [
        ("svc_mapping_memo_hits", 3),
        ("svc_mapping_memo_misses", 2),
        ("svc_partition_memo_hits", 2),
        ("svc_partition_memo_misses", 1),
    ] {
        assert_eq!(totals.get(name), Some(&want), "{name} in {totals:?}");
    }
}
