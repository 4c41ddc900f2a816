//! The label-section codecs of a `psep-bundle`: a varint/delta-coded
//! body (the delta section, kind 5) and an aligned column layout (the
//! raw section, kind 3, served in place). Neither carries an envelope of
//! its own: the bundle that holds them owns magic, version and checksum.
//!
//! Both bodies are `ε` followed by the label arena's [`KeyedCsr`]
//! encoding ([`KeyedCsr::encode_delta_into`],
//! [`KeyedCsr::encode_raw_into`]), with the portals as the tails. The
//! routing tables have the same entry offsets and keys, so a bundle
//! stores them only here and decodes its tables section over them. The
//! delta body (all integers LEB128 varints unless noted):
//!
//! ```text
//! epsilon f64 bit pattern, little-endian            8 bytes
//! n, E, P and the arena's entry counts, key deltas and portal counts
//! positions per entry: first absolute, then zigzag  P varints
//! dists   raw varints                               P varints
//! ```
//!
//! Keys are strictly ascending within a vertex and portal positions are
//! non-decreasing within an entry (the greedy portal scan walks the path
//! left to right), so delta coding shrinks both streams to one or two
//! bytes per element on typical oracles — `oracle.wire.bytes_per_label`
//! in experiment E3t reports the measured ratio against the in-memory
//! arena. The raw body is `ε` as an `f64` LE followed by the arena's
//! aligned columns, the portals as `{pos u64, dist u64}` LE pairs; on a
//! little-endian host with an 8-aligned section the decoder borrows
//! every column in place and copies none. The open still walks the
//! offsets and keys once ([`KeyedCsr::new`] checks each of them), but
//! it reads no portal: the labels carry nothing derived from the tails,
//! and the merge-join takes its prune bounds from the tails it reads.
//!
//! The delta decoder keeps one cursor per column and writes each output
//! element once. It skips the `P` position varints
//! ([`Cursor::take_varints`]) to find where the dist column starts,
//! then reads both columns in lockstep, writing each portal whole.
//!
//! Decoding verifies every structural invariant; corrupt input yields
//! an [`Error`], never a panic.

use psep_core::csr::KeyedCsr;
use psep_core::wire::{put_varint, put_zigzag, Cursor, SectionReader, WireError};

use crate::error::Error;
use crate::flat::FlatLabels;
use crate::label::PortalEntry;

/// Encodes a label arena and its `ε` as a delta labels-section body
/// (see [`encode_labels_into`]).
pub fn encode_labels(flat: &FlatLabels, epsilon: f64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_labels_into(flat, epsilon, &mut out);
    out
}

/// Appends the delta labels-section body of a label arena and its `ε`
/// to `out`.
pub fn encode_labels_into(flat: &FlatLabels, epsilon: f64, out: &mut Vec<u8>) {
    let csr = flat.csr();
    out.reserve(16 + csr.num_vertices() + csr.num_entries() * 2 + csr.tails().len() * 3);
    out.extend_from_slice(&epsilon.to_bits().to_le_bytes());
    csr.encode_delta_into(out);
    for e in 0..csr.num_entries() {
        let mut prev = 0u64;
        for (i, p) in csr.tail(e).iter().enumerate() {
            if i == 0 {
                put_varint(out, p.pos);
            } else {
                let delta = i128::from(p.pos) - i128::from(prev);
                put_zigzag(out, i64::try_from(delta).expect("position delta fits i64"));
            }
            prev = p.pos;
        }
    }
    for p in csr.tails() {
        put_varint(out, p.dist);
    }
}

/// Reads the portal columns of a delta body (positions per entry, then
/// every dist) in one pass: the position column is skipped to find
/// where the dist column starts, then both are read in lockstep, each
/// portal written once.
fn decode_portals(c: &mut Cursor<'_>, portal_start: &[u32]) -> Result<Vec<PortalEntry>, WireError> {
    let total = *portal_start.last().expect("offsets are never empty") as usize;
    let mut positions = c.take_varints(total)?;
    let mut portals = Vec::with_capacity(total);
    for w in portal_start.windows(2) {
        let mut pos = 0;
        for i in 0..w[1] - w[0] {
            pos = if i == 0 {
                positions.varint()?
            } else {
                pos.checked_add_signed(positions.zigzag()?)
                    .ok_or(WireError::Corrupt("position delta leaves the u64 range"))?
            };
            let dist = c.varint()?;
            portals.push(PortalEntry { pos, dist });
        }
    }
    if positions.remaining() != 0 {
        return Err(WireError::Corrupt(
            "position column does not end where the dist column begins",
        ));
    }
    Ok(portals)
}

/// Decodes a delta labels-section body into `(labels, epsilon)`.
pub fn decode_labels(data: &[u8]) -> Result<(FlatLabels<'static>, f64), Error> {
    let mut c = Cursor::new(data);
    let epsilon = f64::from_bits(u64::from_le_bytes(
        c.bytes(8)?.try_into().expect("read exactly 8 bytes"),
    ));
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(Error::InvalidEpsilon(epsilon));
    }
    let csr = KeyedCsr::decode_delta(c, decode_portals)?;
    // Per-entry decode work actually performed — the zero-copy mapped load
    // path asserts these stay at zero.
    psep_obs::counter!("oracle.wire.entries_decoded").add(csr.num_entries() as u64);
    psep_obs::counter!("oracle.wire.portals_decoded").add(csr.tails().len() as u64);
    Ok((FlatLabels::from_csr(csr), epsilon))
}

/// Appends a label arena's raw labels-section body to `out`, which
/// must end on an 8-byte boundary so the columns land aligned.
pub fn encode_labels_flat_into(flat: &FlatLabels, epsilon: f64, out: &mut Vec<u8>) {
    out.reserve(48 + flat.heap_bytes());
    out.extend_from_slice(&epsilon.to_bits().to_le_bytes());
    flat.csr().encode_raw_into(out);
}

/// Decodes a raw labels-section body, borrowing every column in
/// place when the host and buffer allow it. All structural invariants
/// are re-validated; a header that disagrees with the payload is a
/// typed error, never a panic or misaligned read.
pub fn decode_labels_flat(bytes: &[u8]) -> Result<(FlatLabels<'_>, f64), Error> {
    let mut r = SectionReader::new(bytes);
    let epsilon = r.f64()?;
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(Error::InvalidEpsilon(epsilon));
    }
    let csr = KeyedCsr::decode_raw(r)?;
    if !csr.is_borrowed() {
        psep_obs::counter!("oracle.wire.entries_decoded").add(csr.num_entries() as u64);
        psep_obs::counter!("oracle.wire.portals_decoded").add(csr.tails().len() as u64);
    }
    Ok((FlatLabels::from_csr(csr), epsilon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DistanceOracle;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use psep_graph::graph::Weight;
    use psep_graph::NodeId;

    /// The column-at-a-time portal decoder the lockstep one replaced:
    /// it pushes every position, then revisits every portal for its
    /// dist. Kept as the reference the differential tests hold the
    /// lockstep decoder to.
    fn decode_portals_reference(
        c: &mut Cursor<'_>,
        portal_start: &[u32],
    ) -> Result<Vec<PortalEntry>, WireError> {
        let mut portals = Vec::with_capacity(*portal_start.last().unwrap() as usize);
        for w in portal_start.windows(2) {
            let mut prev = 0u64;
            for i in 0..w[1] - w[0] {
                let pos = if i == 0 {
                    c.varint()?
                } else {
                    let next = i128::from(prev) + i128::from(c.zigzag()?);
                    Weight::try_from(next)
                        .map_err(|_| WireError::Corrupt("position delta underflows"))?
                };
                portals.push(PortalEntry { pos, dist: 0 });
                prev = pos;
            }
        }
        for p in &mut portals {
            p.dist = c.varint()?;
        }
        Ok(portals)
    }

    /// [`decode_labels`] over the reference portal decoder.
    fn decode_labels_reference(data: &[u8]) -> Result<(FlatLabels<'static>, f64), Error> {
        let mut c = Cursor::new(data);
        let epsilon = f64::from_bits(u64::from_le_bytes(c.bytes(8)?.try_into().unwrap()));
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(Error::InvalidEpsilon(epsilon));
        }
        let csr = KeyedCsr::decode_delta(c, decode_portals_reference)?;
        Ok((FlatLabels::from_csr(csr), epsilon))
    }

    /// Both decoders fail on `body`, or both return equal labels.
    fn assert_decoders_agree(body: &[u8], what: &str) {
        match (decode_labels(body), decode_labels_reference(body)) {
            (Ok(new), Ok(reference)) => assert_eq!(new, reference, "{what}"),
            (Err(_), Err(_)) => {}
            (new, reference) => panic!(
                "{what}: lockstep decoder {:?}, reference {:?}",
                new.map(|_| ()),
                reference.map(|_| ())
            ),
        }
    }

    #[test]
    fn lockstep_decoder_matches_the_reference_on_every_family() {
        for family in psep_testkit::families::ALL_FAMILIES {
            for n in [80, 400] {
                let g = family.make(n, 7);
                let tree = DecompositionTree::build(&g, &*family.strategy());
                let o = crate::oracle::build_oracle(&g, &tree, Default::default());
                let body = encode_labels(o.flat_labels(), o.epsilon());
                let what = format!("{} n={n}", family.name());
                assert_eq!(decode_labels(&body).unwrap().0, *o.flat_labels(), "{what}");
                assert_decoders_agree(&body, &what);
            }
        }
    }

    /// Every truncation and every byte flip (low bit, high bit, all
    /// bits) of a grid's and a triangulated grid's labels body: the
    /// decoders fail together or agree.
    #[test]
    fn lockstep_decoder_matches_the_reference_on_damaged_bodies() {
        let grid = grids::grid2d(7, 7, 1);
        let trigrid = psep_graph::generators::planar_families::triangulated_grid(7, 7, 17);
        for g in [grid, trigrid] {
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            let o = crate::oracle::build_oracle(&g, &tree, Default::default());
            let body = encode_labels(o.flat_labels(), o.epsilon());
            for cut in 0..body.len() {
                assert_decoders_agree(&body[..cut], &format!("cut at {cut}"));
            }
            for at in 0..body.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut bad = body.clone();
                    bad[at] ^= mask;
                    assert_decoders_agree(&bad, &format!("flip {mask:#x} at {at}"));
                }
            }
        }
    }

    fn grid_oracle() -> DistanceOracle<'static> {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        crate::oracle::build_oracle(&g, &tree, crate::oracle::OracleParams::default())
    }

    #[test]
    fn encode_decode_is_bit_exact() {
        let o = grid_oracle();
        let buf = encode_labels(o.flat_labels(), o.epsilon());
        let (flat, epsilon) = decode_labels(&buf).unwrap();
        let back = DistanceOracle::from_flat(flat, epsilon);
        assert_eq!(back.flat_labels(), o.flat_labels());
        assert_eq!(back.epsilon(), o.epsilon());
        // re-encoding is byte-identical
        assert_eq!(encode_labels(back.flat_labels(), back.epsilon()), buf);
        for u in 0..36u32 {
            for v in 0..36u32 {
                assert_eq!(
                    back.query(NodeId(u), NodeId(v)),
                    o.query(NodeId(u), NodeId(v))
                );
            }
        }
    }

    #[test]
    fn wire_is_smaller_than_arena() {
        let o = grid_oracle();
        let bytes = encode_labels(o.flat_labels(), o.epsilon());
        assert!(
            bytes.len() < o.flat_labels().heap_bytes(),
            "wire {} >= arena {}",
            bytes.len(),
            o.flat_labels().heap_bytes()
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let o = grid_oracle();
        let buf = encode_labels(o.flat_labels(), o.epsilon());
        // the counts come first, so every strict prefix runs out
        for cut in 0..buf.len() {
            assert!(
                decode_labels(&buf[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn v2_section_roundtrips_borrowed_and_owned() {
        let o = grid_oracle();
        let mut sec = Vec::new();
        encode_labels_flat_into(o.flat_labels(), o.epsilon(), &mut sec);
        // canonical: re-encoding a decoded section is bit-identical
        let aligned = psep_core::wire::AlignedBytes::from_slice(&sec);
        let (flat, eps) = decode_labels_flat(&aligned).unwrap();
        assert_eq!(eps, o.epsilon());
        assert_eq!(&flat, o.flat_labels());
        if cfg!(target_endian = "little") {
            assert!(flat.is_borrowed());
            assert_eq!(flat.owned_bytes(), 0);
        }
        let mut again = Vec::new();
        encode_labels_flat_into(&flat, eps, &mut again);
        assert_eq!(again, sec);
        // unaligned input falls back to owned with identical contents
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&sec);
        let (owned, eps2) = decode_labels_flat(&shifted[1..]).unwrap();
        assert_eq!(&owned, o.flat_labels());
        assert_eq!(eps2, o.epsilon());
        // and queries agree across storage modes
        let a = DistanceOracle::from_flat(flat, eps);
        let b = DistanceOracle::from_flat(owned, eps2);
        for u in 0..36u32 {
            for v in 0..36u32 {
                assert_eq!(a.query(NodeId(u), NodeId(v)), b.query(NodeId(u), NodeId(v)));
            }
        }
    }

    #[test]
    fn v2_section_rejects_header_payload_disagreement() {
        let o = grid_oracle();
        let mut sec = Vec::new();
        encode_labels_flat_into(o.flat_labels(), o.epsilon(), &mut sec);
        // truncation at every prefix length: typed error, never a panic
        for cut in 0..sec.len().min(64) {
            assert!(decode_labels_flat(&sec[..cut]).is_err());
        }
        assert!(decode_labels_flat(&sec[..sec.len() - 1]).is_err());
        // inflated portal count: column extends past the payload
        let mut bad = sec.clone();
        let p = u64::from_le_bytes(bad[24..32].try_into().unwrap());
        bad[24..32].copy_from_slice(&(p + 1).to_le_bytes());
        assert!(decode_labels_flat(&bad).is_err());
        // trailing bytes after the last column
        let mut long = sec.clone();
        long.extend_from_slice(&[0u8; 16]);
        assert!(decode_labels_flat(&long).is_err());
    }
}
