//! The O(checksum) cold-start guarantee, stated as counters rather
//! than wall clock: mapping an aligned `psep-bundle/v4` and serving
//! distance queries and routing labels out of it must perform zero
//! per-entry decodes — every `*.wire.*_decoded` counter stays exactly
//! where it was. Loading the delta-compressed bundle, whose label and
//! table sections have no mappable layout, must decode. Either open
//! checksums each payload byte exactly once: `core.wire.crc_bytes`
//! grows by the bundle length less the 8-byte magic and 4-byte CRC.
//!
//! Sole test in this binary: it toggles the process-wide `psep-obs`
//! enable flag and resets the registry, which would race with any
//! other obs-reading test in the same process.

use path_separators::core::wire::AlignedBytes;
use path_separators::service::ServiceParams;
use path_separators::{LocationService, NodeId};
use psep_graph::generators::grids;

const DECODE_COUNTERS: [&str; 3] = [
    "oracle.wire.entries_decoded",
    "oracle.wire.portals_decoded",
    "routing.wire.entries_decoded",
];

fn crc_bytes() -> u64 {
    psep_obs::snapshot()
        .counter("core.wire.crc_bytes")
        .unwrap_or(0)
}

fn decode_counts() -> Vec<u64> {
    let snap = psep_obs::snapshot();
    DECODE_COUNTERS
        .iter()
        .map(|c| snap.counter(c).unwrap_or(0))
        .collect()
}

#[test]
fn mapped_serving_performs_zero_per_entry_decodes() {
    psep_obs::set_enabled(true);
    assert!(psep_obs::enabled(), "tests link the live obs backend");

    let g = grids::grid2d(14, 14, 1);
    let svc = LocationService::build(&g, ServiceParams::default());
    let v2 = svc.to_bytes();
    let delta = svc.to_bytes_compressed();
    let n = svc.num_nodes() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..300u32)
        .map(|i| (NodeId(i * 11 % n), NodeId((i * 17 + 3) % n)))
        .collect();

    psep_obs::reset();
    let aligned = AlignedBytes::from_slice(&v2);
    let mapped = LocationService::map_bytes(&aligned).expect("own bundle maps");
    assert!(mapped.is_borrowed());
    assert_eq!(
        crc_bytes(),
        (v2.len() - 12) as u64,
        "mapped open did not checksum each payload byte exactly once"
    );
    let expected = svc.try_query_many(&pairs).unwrap();
    assert_eq!(mapped.try_query_many(&pairs).unwrap(), expected);
    for v in [0u32, 1, n / 2, n - 1] {
        let _ = mapped.router().label(NodeId(v));
    }
    assert_eq!(
        decode_counts(),
        vec![0, 0, 0],
        "mapped cold start or queries performed per-entry decodes"
    );

    // The delta bundle decodes every entry; every counter must move —
    // proving they are live, not dead code vacuously at zero.
    let before = crc_bytes();
    let owned = LocationService::from_bytes(&delta).expect("own delta bundle loads");
    assert_eq!(
        crc_bytes() - before,
        (delta.len() - 12) as u64,
        "delta load did not checksum each payload byte exactly once"
    );
    assert_eq!(owned.try_query_many(&pairs).unwrap(), expected);
    assert!(
        decode_counts().iter().all(|&c| c > 0),
        "delta load did not touch the decode counters: {:?}",
        decode_counts()
    );
}
