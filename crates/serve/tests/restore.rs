//! A snapshot enters the daemon through `sitw_fleet::TenantState::restore`,
//! which refuses a ledger the app records do not hold: a warm charge
//! for an app with no record, or at an MB that is not the app's
//! footprint. Such a file decodes (the text format is well formed) but
//! the node does not start on it; both committed golden snapshots
//! still restore.

use std::io;

use sitw_core::{HybridConfig, PolicySpec, ProductionConfig};
use sitw_serve::{ServeConfig, Server, Snapshot};

const HYBRID: &str = include_str!("golden/hybrid_2shard.snapshot");
const PRODUCTION: &str = include_str!("golden/production_2shard.snapshot");

/// Decodes `text` and starts a three-shard node on it (a shard count
/// other than the one that wrote the goldens).
fn start(policy: PolicySpec, text: &str) -> io::Result<Server> {
    let snapshot = Snapshot::decode(text).expect("the text format is well formed");
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 3,
        policy,
        restore_snapshot: Some(snapshot),
        ..ServeConfig::default()
    })
}

fn hybrid() -> PolicySpec {
    PolicySpec::Hybrid(HybridConfig::default())
}

#[test]
fn both_golden_snapshots_restore() {
    let production = PolicySpec::Production(ProductionConfig::default());
    for (policy, text) in [(hybrid(), HYBRID), (production, PRODUCTION)] {
        let server = start(policy, text).unwrap();
        let snapshot = server.shutdown().unwrap();
        assert_eq!(snapshot, Snapshot::decode(text).unwrap());
    }
}

#[test]
fn a_hand_edited_charge_the_records_do_not_hold_refuses_to_start() {
    assert!(HYBRID.contains("\ndwarm swing 598544175 181\n"));
    for (edited, refusal) in [
        (
            HYBRID.replace(
                "\ndwarm swing ",
                "\ndwarm ghost 598544175 181\ndwarm swing ",
            ),
            "ledger charges app 'ghost' 181 MB, which is not a recorded app's footprint",
        ),
        (
            HYBRID.replace("dwarm swing 598544175 181", "dwarm swing 598544175 182"),
            "ledger charges app 'swing' 182 MB, which is not a recorded app's footprint",
        ),
    ] {
        let err = start(hybrid(), &edited).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(err.to_string(), refusal);
    }
}
