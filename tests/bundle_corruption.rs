//! Adversarial-bytes properties for `psep-bundle/v4`: any single-byte
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
use path_separators::core::wire::{pad_to_8, seal, AlignedBytes, Cursor};
use path_separators::service::{bundle_sections, ServiceError, BUNDLE_MAGIC};
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

/// Replaces section `slot`'s body with `body` and re-seals the bundle
/// under a fresh directory, so the envelope validates and only the
/// section decoder sees the change: magic, version word, section count,
/// one `kind u32 | len u64` row per section, then the bodies, each
/// starting 8-aligned, and the checksum.
fn with_section(bytes: &[u8], slot: usize, body: &[u8]) -> Vec<u8> {
    let (version, sections) = bundle_sections(bytes).expect("own bundle validates");
    let bodies: Vec<&[u8]> = (0..sections.len())
        .map(|i| if i == slot { body } else { sections[i].bytes })
        .collect();
    let mut out = BUNDLE_MAGIC.to_vec();
    out.push(version as u8);
    pad_to_8(&mut out);
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (sec, body) in sections.iter().zip(&bodies) {
        out.extend_from_slice(&sec.kind.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    }
    for body in &bodies {
        pad_to_8(&mut out);
        out.extend_from_slice(body);
    }
    seal(&mut out);
    out
}

/// Byte ranges of a delta body's varint columns of `counts[i]`
/// elements each, starting `skip` bytes in.
fn varint_columns(body: &[u8], skip: usize, counts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut c = Cursor::new(&body[skip..]);
    counts
        .iter()
        .map(|&count| {
            let start = body.len() - c.remaining();
            c.skip_varints(count).expect("own body holds every column");
            start..body.len() - c.remaining()
        })
        .collect()
}

/// The body with one varint too many (the column's last one repeated)
/// or one too few (its last one dropped) at the end of `column`.
fn column_off_by_one(body: &[u8], column: std::ops::Range<usize>) -> [Vec<u8>; 2] {
    let mut c = Cursor::new(&body[column.clone()]);
    let mut last = column.start;
    while c.remaining() > 0 {
        last = column.end - c.remaining();
        c.varint().expect("own column decodes");
    }
    let too_many = [
        &body[..column.end],
        &body[last..column.end],
        &body[column.end..],
    ]
    .concat();
    let too_few = [&body[..last], &body[column.end..]].concat();
    [too_many, too_few]
}

/// One varint too many or too few in the labels' position column and in
/// each of the tables' five fixed-count record columns: the decoders
/// split the columns by counting varints, so the damage shows as a
/// shifted column, and the open must be a typed error — never a panic
/// or an arena read off by one.
#[test]
fn column_boundary_shifts_are_typed_errors() {
    let bytes = sealed_compressed_bundle();
    let (_, sections) = bundle_sections(&bytes).expect("own bundle validates");
    assert!(LocationService::from_bytes(&with_section(&bytes, 2, sections[2].bytes)).is_ok());
    let header = |body: &[u8], skip: usize| {
        let mut c = Cursor::new(&body[skip..]);
        [(); 3].map(|()| c.varint().expect("own header") as usize)
    };

    let labels = sections[2].bytes;
    let [n, entries, portals] = header(labels, 8);
    // ε, the three counts, entry counts, keys, portal counts, positions
    let cols = varint_columns(labels, 8, &[3, n, entries, entries, portals]);
    let mut damaged = vec![(2, "position", column_off_by_one(labels, cols[4].clone()))];

    // the tables body stores no entry count, offsets or keys: the child
    // count, then five record columns of the labels' entry count
    let tables = sections[3].bytes;
    let cols = varint_columns(tables, 0, &[1, entries, entries, entries, entries, entries]);
    for (name, col) in ["dist", "entry_pos", "dfs", "span", "parent"]
        .into_iter()
        .zip(&cols[1..])
    {
        damaged.push((3, name, column_off_by_one(tables, col.clone())));
    }

    for (slot, name, bodies) in damaged {
        for (body, how) in bodies.iter().zip(["too many", "too few"]) {
            let bad = with_section(&bytes, slot, body);
            let what = format!("{name} column, one varint {how}");
            assert!(
                matches!(
                    LocationService::from_bytes(&bad),
                    Err(ServiceError::Wire(_) | ServiceError::Oracle(_) | ServiceError::Routing(_))
                ),
                "{what}: from_bytes accepted a shifted column"
            );
            let aligned = AlignedBytes::from_slice(&bad);
            assert!(
                LocationService::map_bytes(&aligned).is_err(),
                "{what}: map_bytes accepted a shifted column"
            );
        }
    }
}
