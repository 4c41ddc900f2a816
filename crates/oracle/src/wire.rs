//! The label-section codecs of a `psep-bundle`: a varint/delta-coded
//! body (the delta section, kind 5) and an aligned column layout (the
//! raw section, kind 3, served in place). Neither carries an envelope of
//! its own: the bundle that holds them owns magic, version and checksum.
//!
//! Delta body layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! epsilon f64 bit pattern, little-endian            8 bytes
//! n       number of labels
//! E       total entries        P  total portals
//! entry count per vertex                            n varints
//! keys    per vertex: first absolute, then deltas   E varints
//! portal count per entry                            E varints
//! positions per entry: first absolute, then zigzag  P varints
//! dists   raw varints                               P varints
//! ```
//!
//! Keys are strictly ascending within a vertex and portal positions are
//! non-decreasing within an entry (the greedy portal scan walks the path
//! left to right), so delta coding shrinks both streams to one or two
//! bytes per element on typical oracles — `oracle.wire.bytes_per_label`
//! in experiment E3t reports the measured ratio against the in-memory
//! arena.
//!
//! Decoding verifies every structural invariant; corrupt input yields
//! an [`Error`], never a panic.

use psep_core::wire::{put_varint, put_zigzag, Cursor};
use psep_graph::graph::Weight;

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
    let (entry_start, keys, portal_start, portals) = flat.as_parts();
    let n = entry_start.len() - 1;
    out.reserve(16 + n + keys.len() * 2 + portals.len() * 3);
    out.extend_from_slice(&epsilon.to_bits().to_le_bytes());
    put_varint(out, n as u64);
    put_varint(out, keys.len() as u64);
    put_varint(out, portals.len() as u64);
    for v in 0..n {
        put_varint(out, (entry_start[v + 1] - entry_start[v]) as u64);
    }
    for v in 0..n {
        let mut prev = 0u64;
        for (i, &key) in keys[entry_start[v] as usize..entry_start[v + 1] as usize]
            .iter()
            .enumerate()
        {
            put_varint(out, if i == 0 { key } else { key - prev });
            prev = key;
        }
    }
    for e in 0..keys.len() {
        put_varint(out, (portal_start[e + 1] - portal_start[e]) as u64);
    }
    for e in 0..keys.len() {
        let mut prev = 0u64;
        for (i, p) in portals[portal_start[e] as usize..portal_start[e + 1] as usize]
            .iter()
            .enumerate()
        {
            if i == 0 {
                put_varint(out, p.pos);
            } else {
                let delta = i128::from(p.pos) - i128::from(prev);
                put_zigzag(out, i64::try_from(delta).expect("position delta fits i64"));
            }
            prev = p.pos;
        }
    }
    for p in portals {
        put_varint(out, p.dist);
    }
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
    // every vertex, entry, and portal costs at least one body byte, so
    // the input length bounds all three counts
    let limit = data.len();
    let n = c.length(limit)?;
    let num_entries = c.length(limit)?;
    let num_portals = c.length(limit)?;
    if num_entries > u32::MAX as usize || num_portals > u32::MAX as usize {
        return Err(Error::corrupt("entry or portal count exceeds u32 offsets"));
    }

    let mut entry_start = Vec::with_capacity(n + 1);
    entry_start.push(0u32);
    for _ in 0..n {
        let count = c.length(num_entries)?;
        let next = entry_start.last().unwrap() + count as u32;
        if next as usize > num_entries {
            return Err(Error::corrupt("entry counts exceed declared total"));
        }
        entry_start.push(next);
    }
    if *entry_start.last().unwrap() as usize != num_entries {
        return Err(Error::corrupt("entry counts do not sum to declared total"));
    }

    let mut keys = Vec::with_capacity(num_entries);
    for v in 0..n {
        let count = (entry_start[v + 1] - entry_start[v]) as usize;
        let mut prev = 0u64;
        for i in 0..count {
            let raw = c.varint()?;
            let key = if i == 0 {
                raw
            } else {
                prev.checked_add(raw)
                    .ok_or(Error::corrupt("key delta overflows"))?
            };
            keys.push(key);
            prev = key;
        }
    }

    let mut portal_start = Vec::with_capacity(num_entries + 1);
    portal_start.push(0u32);
    for _ in 0..num_entries {
        let count = c.length(num_portals)?;
        let next = portal_start.last().unwrap() + count as u32;
        if next as usize > num_portals {
            return Err(Error::corrupt("portal counts exceed declared total"));
        }
        portal_start.push(next);
    }
    if *portal_start.last().unwrap() as usize != num_portals {
        return Err(Error::corrupt("portal counts do not sum to declared total"));
    }

    let mut portals: Vec<PortalEntry> = Vec::with_capacity(num_portals);
    for e in 0..num_entries {
        let count = (portal_start[e + 1] - portal_start[e]) as usize;
        let mut prev = 0u64;
        for i in 0..count {
            let pos = if i == 0 {
                c.varint()?
            } else {
                let delta = c.zigzag()?;
                let next = i128::from(prev) + i128::from(delta);
                Weight::try_from(next).map_err(|_| Error::corrupt("position delta underflows"))?
            };
            portals.push(PortalEntry { pos, dist: 0 });
            prev = pos;
        }
    }
    for p in &mut portals {
        p.dist = c.varint()?;
    }
    if c.remaining() != 0 {
        return Err(Error::corrupt("trailing bytes after payload"));
    }
    // Per-entry decode work actually performed — the zero-copy mapped load
    // path asserts these stay at zero.
    psep_obs::counter!("oracle.wire.entries_decoded").add(num_entries as u64);
    psep_obs::counter!("oracle.wire.portals_decoded").add(num_portals as u64);
    let flat = FlatLabels::from_parts(entry_start, keys, portal_start, portals)?;
    Ok((flat, epsilon))
}

// ---------------------------------------------------------------------------
// Raw labels section: aligned little-endian arrays, the zero-copy
// counterpart of the delta body.
//
// ```text
// epsilon       f64 LE                               8 bytes
// n, E, P       u64 LE                               24 bytes
// entry_start   (n+1) × u32 LE
// pad to 8
// keys          E × u64 LE
// portal_start  (E+1) × u32 LE
// pad to 8
// portals       P × PortalEntry {pos u64, dist u64}  LE
// ```
//
// Every column starts 8-aligned relative to the section, so on a
// little-endian host with an 8-aligned section the decoder borrows all
// four columns in place — no per-entry work at all.
// ---------------------------------------------------------------------------

use psep_core::wire::{pad_to_8, put_pod_slice, ArenaStorage, SectionReader};

/// Appends a label arena's raw labels-section body to `out`, which
/// must end on an 8-byte boundary so the columns land aligned.
pub fn encode_labels_flat_into(flat: &FlatLabels, epsilon: f64, out: &mut Vec<u8>) {
    debug_assert!(out.len().is_multiple_of(8), "section must start aligned");
    let (entry_start, keys, portal_start, portals) = flat.as_parts();
    out.reserve(
        32 + entry_start.len() * 4 + keys.len() * 8 + portal_start.len() * 4 + portals.len() * 16,
    );
    out.extend_from_slice(&epsilon.to_bits().to_le_bytes());
    out.extend_from_slice(&(flat.num_labels() as u64).to_le_bytes());
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    out.extend_from_slice(&(portals.len() as u64).to_le_bytes());
    put_pod_slice(out, entry_start);
    pad_to_8(out);
    put_pod_slice(out, keys);
    put_pod_slice(out, portal_start);
    pad_to_8(out);
    put_pod_slice(out, portals);
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
    let n = r.u64()?;
    let num_entries = r.u64()?;
    let num_portals = r.u64()?;
    if n >= u32::MAX as u64 || num_entries >= u32::MAX as u64 || num_portals > u32::MAX as u64 {
        return Err(Error::corrupt("label counts exceed u32 offsets"));
    }
    let entry_start: ArenaStorage<u32> = r.pod_slice(n as usize + 1)?;
    r.align8()?;
    let keys: ArenaStorage<u64> = r.pod_slice(num_entries as usize)?;
    let portal_start: ArenaStorage<u32> = r.pod_slice(num_entries as usize + 1)?;
    r.align8()?;
    let portals: ArenaStorage<PortalEntry> = r.pod_slice(num_portals as usize)?;
    r.finish()?;
    if entry_start.is_borrowed() {
        // borrowed in place: zero per-entry decode work
    } else {
        psep_obs::counter!("oracle.wire.entries_decoded").add(num_entries);
        psep_obs::counter!("oracle.wire.portals_decoded").add(num_portals);
    }
    let flat = FlatLabels::from_storage_parts(entry_start, keys, portal_start, portals)?;
    Ok((flat, epsilon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DistanceOracle;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use psep_graph::NodeId;

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

    #[test]
    fn structurally_corrupt_body_is_rejected() {
        // hand-build a body whose counts disagree
        let mut body = Vec::new();
        body.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
        put_varint(&mut body, 1); // n = 1
        put_varint(&mut body, 5); // E = 5 …
        put_varint(&mut body, 0); // P = 0
        put_varint(&mut body, 2); // … but vertex 0 claims 2 entries
        assert!(decode_labels(&body).is_err());
    }
}
