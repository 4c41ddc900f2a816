//! Adversarial-bytes properties for `psep-bundle/v3`: any single-byte
//! corruption of a sealed bundle is rejected with a typed error, any
//! truncation is rejected with a typed error, and arbitrary byte soup
//! never panics either loader. Both decode paths are exercised —
//! `from_bytes` (owned) and `map_bytes` over an aligned buffer
//! (borrowed) — because they walk the envelope independently. A byte
//! flipped inside a section under a re-sealed envelope gets past the
//! checksum, so it must be stopped by the section decoders or survive
//! every request kind as a typed answer.

use std::sync::OnceLock;

use proptest::prelude::*;

use path_separators::api::Request;
use path_separators::core::wire::{seal, AlignedBytes};
use path_separators::service::{bundle_sections, ServiceError};
use path_separators::{LocationService, NodeId, ServiceParams};
use psep_graph::generators::grids;

fn sealed_bundle() -> Vec<u8> {
    let g = grids::grid2d(7, 7, 1);
    LocationService::build(&g, ServiceParams::default()).to_bytes()
}

fn sealed_compressed_bundle() -> Vec<u8> {
    let g = grids::grid2d(7, 7, 1);
    LocationService::build(&g, ServiceParams::default()).to_bytes_compressed()
}

/// Both loaders must reject `data` with an error, not a panic.
fn assert_rejected(data: &[u8], what: &str) {
    let owned = LocationService::from_bytes(data);
    assert!(
        matches!(owned, Err(ServiceError::Wire(_))),
        "{what}: from_bytes accepted corrupt bytes"
    );
    let aligned = AlignedBytes::from_slice(data);
    let mapped = LocationService::map_bytes(&aligned);
    assert!(
        matches!(mapped, Err(ServiceError::Wire(_))),
        "{what}: map_bytes accepted corrupt bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CRC-32 detects every single-byte error, so a flipped byte
    /// anywhere — magic, version word, directory, section payload, or
    /// the envelope checksum itself — must surface as a typed error.
    #[test]
    fn single_byte_flips_are_rejected(pos_seed in any::<usize>(), mask in 1u8..=255) {
        let mut bytes = sealed_bundle();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= mask;
        assert_rejected(&bytes, &format!("flip at {pos}"));
    }

    /// Truncation at an arbitrary point must be a typed error; short
    /// prefixes of a valid bundle are never themselves valid.
    #[test]
    fn truncations_are_rejected(frac in 0.0f64..1.0) {
        let bytes = sealed_bundle();
        let len = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(len < bytes.len());
        assert_rejected(&bytes[..len], &format!("truncate to {len}"));
    }

    /// Arbitrary byte soup never panics the loaders.
    #[test]
    fn byte_soup_never_panics(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = LocationService::from_bytes(&data);
        let aligned = AlignedBytes::from_slice(&data);
        let _ = LocationService::map_bytes(&aligned);
    }

    /// The delta-compressed container has the same armor: a flipped
    /// byte anywhere in a compressed bundle must surface as a typed
    /// error from both loaders.
    #[test]
    fn compressed_single_byte_flips_are_rejected(pos_seed in any::<usize>(), mask in 1u8..=255) {
        let mut bytes = sealed_compressed_bundle();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= mask;
        assert_rejected(&bytes, &format!("compressed flip at {pos}"));
    }

    /// Truncated compressed bundles are rejected, never mis-decoded.
    #[test]
    fn compressed_truncations_are_rejected(frac in 0.0f64..1.0) {
        let bytes = sealed_compressed_bundle();
        let len = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(len < bytes.len());
        assert_rejected(&bytes[..len], &format!("compressed truncate to {len}"));
    }
}

#[test]
fn every_systematic_truncation_is_rejected() {
    let bytes = sealed_bundle();
    // Every length in the envelope-and-directory region, then a coarse
    // sweep through the section payloads.
    for len in (0..256.min(bytes.len())).chain((256..bytes.len()).step_by(31)) {
        assert_rejected(&bytes[..len], &format!("truncate to {len}"));
    }
}

#[test]
fn every_directory_byte_flip_is_rejected() {
    let bytes = sealed_bundle();
    // The first 120 bytes cover magic, version word, and the section
    // directory — the region where a flip could plausibly redirect the
    // readers instead of just failing a payload CRC.
    for pos in 0..120.min(bytes.len()) {
        let mut b = bytes.clone();
        b[pos] ^= 0x01;
        assert_rejected(&b, &format!("flip at {pos}"));
    }
}

#[test]
fn compressed_bundle_roundtrips_losslessly_and_rejects_directory_flips() {
    let g = grids::grid2d(7, 7, 1);
    let svc = LocationService::build(&g, ServiceParams::default());
    let raw = svc.to_bytes();
    let delta = svc.to_bytes_compressed();
    assert!(
        delta.len() < raw.len(),
        "delta {} >= raw {}",
        delta.len(),
        raw.len()
    );
    // Loading the compressed container reproduces the exact raw bytes
    // and the exact compressed bytes — both encodings are canonical.
    let back = LocationService::from_bytes(&delta).expect("own delta bundle loads");
    assert_eq!(back.to_bytes(), raw, "delta round-trip is lossy");
    assert_eq!(back.to_bytes_compressed(), delta, "delta re-encode drifts");
    // Directory flips on the compressed container are typed errors too.
    for pos in 0..120.min(delta.len()) {
        let mut b = delta.clone();
        b[pos] ^= 0x01;
        assert_rejected(&b, &format!("compressed flip at {pos}"));
    }
}

/// Flips `mask` into byte `pos_seed % len` of section `slot` and
/// re-seals the envelope, so the checksum passes and only the section
/// decoders and the serving walks can see the damage.
fn resealed_section_flip(bytes: &[u8], slot: usize, pos_seed: usize, mask: u8) -> Vec<u8> {
    let (_, sections) = bundle_sections(bytes).expect("own bundle validates");
    let sec = sections[slot].bytes;
    let at = sec.as_ptr() as usize - bytes.as_ptr() as usize + pos_seed % sec.len();
    let mut out = bytes[..bytes.len() - 4].to_vec();
    out[at] ^= mask;
    seal(&mut out);
    out
}

/// Every request kind over pairs of the 7×7 grid.
fn every_request() -> Vec<Request> {
    // three sources to every vertex, so the routes cross most edges
    let pairs: Vec<(NodeId, NodeId)> = [0, 24, 48]
        .into_iter()
        .flat_map(|u| (0..49).map(move |v| (NodeId(u), NodeId(v))))
        .collect();
    let (u, v) = (NodeId(3), NodeId(45));
    vec![
        Request::Ping,
        Request::Stats,
        Request::Query { u, v },
        Request::QueryMany {
            pairs: pairs.clone(),
        },
        Request::QueryPath { u, v },
        Request::QueryPathMany {
            pairs: pairs.clone(),
        },
        Request::Route { u, t: v },
        Request::RouteMany { pairs },
    ]
}

/// Opens a bundle with `open`; a bundle that opens must answer every
/// request kind, where a typed `Response::Error` is an answer.
fn open_and_serve<'a>(open: impl FnOnce() -> Result<LocationService<'a>, ServiceError>) {
    // A section that fails its own decode is reported with that
    // section's error type (`Oracle` for labels, `Routing` for tables),
    // so any typed error is a rejection here.
    if let Ok(svc) = open() {
        for req in every_request() {
            let _ = svc.handle(&req);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A flipped section byte under a valid envelope never panics: both
    /// loaders reject it with a typed error, or open it and answer
    /// `handle` for every request kind.
    #[test]
    fn resealed_section_flips_never_panic(
        compressed in any::<bool>(),
        slot in 0usize..4,
        pos_seed in any::<usize>(),
        mask in 1u8..=255,
    ) {
        static BUNDLES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
        let bundles = BUNDLES.get_or_init(|| [sealed_bundle(), sealed_compressed_bundle()]);
        let bad = resealed_section_flip(&bundles[compressed as usize], slot, pos_seed, mask);
        open_and_serve(|| LocationService::from_bytes(&bad));
        let aligned = AlignedBytes::from_slice(&bad);
        open_and_serve(|| LocationService::map_bytes(&aligned));
    }
}
