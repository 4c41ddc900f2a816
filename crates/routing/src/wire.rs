//! The table-section codecs of a `psep-bundle`: a varint/delta-coded
//! body (the delta section, kind 6) and an aligned column layout (the
//! raw section, kind 4, served in place). Neither carries an envelope of
//! its own: the bundle that holds them owns magic, version and checksum.
//!
//! The tables are keyed exactly like the distance labels, so neither
//! body stores the vertex count, the entry offsets or the keys: the
//! labels section holds them, and both decoders take a key source — an
//! arena already checked, normally the labels' — and put the tables
//! over its key columns with [`KeyedCsr::with_keys_of`]. A body is the
//! child count `C`, the record columns, and the table arena's tails-only
//! half ([`KeyedCsr::encode_delta_tails_into`],
//! [`KeyedCsr::encode_raw_tails_into`]) with the children as the tails.
//! The delta body (all integers LEB128 varints), over the key source's
//! `n` vertices and `E` entries:
//!
//! ```text
//! C                                                 1 varint
//! dists   raw varints                               E varints
//! entry positions, raw varints                      E varints
//! dfs     raw varints                               E varints
//! spans   subtree_end − dfs (≥ 1)                   E varints
//! parents 0 = none, else vertex id + 1              E varints
//! on-path 0 = off path; 1 followed by pos,
//!         prev + 1 | 0, next + 1 | 0                E records
//! child count per entry                             E varints
//! children per entry: first absolute, then deltas   C varints
//! ```
//!
//! Children are strictly ascending within an entry, so that stream
//! delta-codes to a byte or two per element. The raw body is
//!
//! ```text
//! C            u64 LE
//! records      E × 48-byte EntryRecord
//! child_start  (E+1) × u32 LE
//! pad to 8
//! children     C × u32 LE
//! ```
//!
//! so on a little-endian host with an 8-aligned section the decoder
//! borrows every column in place and copies none, and the key columns
//! are the key source's own (borrowed from the same bundle bytes on a
//! mapped open). The open still walks the columns once:
//! [`KeyedCsr::with_keys_of`] checks the child offsets, and
//! `FlatTables::new` checks every record and its children.
//!
//! The delta decoder keeps one cursor per column and writes each output
//! element once. The five fixed-count record columns hold `E` varints
//! each, so skipping varints ([`Cursor::take_varints`]) finds where
//! each starts. Every record's fields are then read from those five
//! cursors and the on-path column in lockstep, and the 48-byte record
//! is written whole.
//!
//! Decoding verifies every structural invariant (via `FlatTables::new`);
//! corrupt input, or a body written for a different entry count than
//! the key source's, yields an [`Error`], never a panic.

use psep_core::csr::KeyedCsr;
use psep_core::wire::{put_pod_slice, put_varint, Cursor, SectionReader, WireError};
use psep_graph::graph::NodeId;

use crate::error::Error;
use crate::flat::{EntryRecord, FlatTables, NO_NODE};

fn put_opt_node(payload: &mut Vec<u8>, v: Option<NodeId>) {
    put_varint(payload, v.map_or(0, |v| v.0 as u64 + 1));
}

/// Encodes a table arena as a delta tables-section body (see
/// [`encode_tables_into`]).
pub fn encode_tables(flat: &FlatTables) -> Vec<u8> {
    let mut out = Vec::new();
    encode_tables_into(flat, &mut out);
    out
}

/// Appends the delta tables-section body of a table arena to `out`.
pub fn encode_tables_into(flat: &FlatTables, out: &mut Vec<u8>) {
    let (csr, infos) = (flat.csr(), flat.records());
    out.reserve(8 + infos.len() * 6 + csr.tails().len() * 2);
    put_varint(out, csr.tails().len() as u64);
    for rec in infos {
        put_varint(out, rec.dist);
    }
    for rec in infos {
        put_varint(out, rec.entry_pos);
    }
    for rec in infos {
        put_varint(out, rec.dfs as u64);
    }
    for rec in infos {
        put_varint(out, (rec.subtree_end - rec.dfs) as u64);
    }
    for rec in infos {
        put_opt_node(out, rec.parent());
    }
    for rec in infos {
        match rec.on_path() {
            None => put_varint(out, 0),
            Some(op) => {
                put_varint(out, 1);
                put_varint(out, op.pos);
                put_opt_node(out, op.prev);
                put_opt_node(out, op.next);
            }
        }
    }
    csr.encode_delta_tails_into(out);
    for e in 0..csr.num_entries() {
        let mut prev = 0u64;
        for (i, &c) in csr.tail(e).iter().enumerate() {
            let raw = c.0 as u64;
            put_varint(out, if i == 0 { raw } else { raw - prev });
            prev = raw;
        }
    }
}

fn get_opt_node(c: &mut Cursor<'_>, n: usize) -> Result<u32, WireError> {
    match c.varint()? {
        0 => Ok(NO_NODE),
        raw if (raw - 1) < n as u64 => Ok((raw - 1) as u32),
        _ => Err(WireError::Corrupt("vertex id out of range")),
    }
}

/// Reads the record columns of a delta body over `n` vertices in one
/// pass: the five fixed-count columns are split off by skipping
/// `num_entries` varints each, then every record's fields are read from
/// the six cursors in lockstep and the record is written once. The
/// variable-length on-path column is last and read from `c`.
fn decode_records(
    c: &mut Cursor<'_>,
    n: usize,
    num_entries: usize,
) -> Result<Vec<EntryRecord>, WireError> {
    let mut dist_col = c.take_varints(num_entries)?;
    let mut entry_pos_col = c.take_varints(num_entries)?;
    let mut dfs_col = c.take_varints(num_entries)?;
    let mut span_col = c.take_varints(num_entries)?;
    let mut parent_col = c.take_varints(num_entries)?;
    let mut records = Vec::with_capacity(num_entries);
    for _ in 0..num_entries {
        let dist = dist_col.varint()?;
        let entry_pos = entry_pos_col.varint()?;
        let dfs = u32::try_from(dfs_col.varint()?)
            .map_err(|_| WireError::Corrupt("dfs index exceeds u32"))?;
        let span = span_col.varint()?;
        let subtree_end = u64::from(dfs) + span;
        if span == 0 || subtree_end > u64::from(u32::MAX) {
            return Err(WireError::Corrupt("subtree span out of range"));
        }
        let parent = get_opt_node(&mut parent_col, n)?;
        let (flags, path_pos, path_prev, path_next) = match c.varint()? {
            0 => (0, 0, NO_NODE, NO_NODE),
            1 => (1, c.varint()?, get_opt_node(c, n)?, get_opt_node(c, n)?),
            _ => return Err(WireError::Corrupt("on-path flag must be 0 or 1")),
        };
        records.push(EntryRecord {
            dist,
            entry_pos,
            path_pos,
            parent,
            dfs,
            subtree_end: subtree_end as u32,
            path_prev,
            path_next,
            flags,
        });
    }
    Ok(records)
}

/// Reads the child column of a delta body (ids are range-checked
/// against the vertex count by `FlatTables::new`).
fn decode_children(c: &mut Cursor<'_>, child_start: &[u32]) -> Result<Vec<NodeId>, WireError> {
    let mut children = Vec::with_capacity(*child_start.last().unwrap() as usize);
    for w in child_start.windows(2) {
        let mut prev = 0u64;
        for i in 0..w[1] - w[0] {
            let raw = c.varint()?;
            let id = if i == 0 {
                raw
            } else {
                prev.checked_add(raw)
                    .ok_or(WireError::Corrupt("child delta overflows"))?
            };
            let id32 =
                u32::try_from(id).map_err(|_| WireError::Corrupt("child vertex out of range"))?;
            children.push(NodeId(id32));
            prev = id;
        }
    }
    Ok(children)
}

/// Decodes a delta tables-section body back into a table arena over
/// the entry offsets and keys of `keys` (copied if owned, shared if
/// borrowed); the records and children are owned.
pub fn decode_tables<'k, K>(data: &[u8], keys: &KeyedCsr<'k, K>) -> Result<FlatTables<'k>, Error> {
    let (csr, records) = decode_delta_body(data, keys, decode_records)?;
    // Per-entry decode work actually performed — the zero-copy mapped load
    // path asserts this stays at zero.
    psep_obs::counter!("routing.wire.entries_decoded").add(csr.num_entries() as u64);
    FlatTables::new(csr, records.into())
}

/// Splits a delta body into the child count, the records (read by
/// `records` given `n` and `E` of `keys`) and the children, and puts the
/// children over `keys`.
fn decode_delta_body<'k, K>(
    data: &[u8],
    keys: &KeyedCsr<'k, K>,
    records: impl FnOnce(&mut Cursor<'_>, usize, usize) -> Result<Vec<EntryRecord>, WireError>,
) -> Result<(KeyedCsr<'k, NodeId>, Vec<EntryRecord>), WireError> {
    let mut c = Cursor::new(data);
    // every child costs at least one body byte
    let num_children = c.length(c.remaining())?;
    let records = records(&mut c, keys.num_vertices(), keys.num_entries())?;
    let (child_start, children) =
        KeyedCsr::decode_delta_tails(c, keys.num_entries(), num_children, decode_children)?;
    Ok((
        KeyedCsr::with_keys_of(keys, child_start, children)?,
        records,
    ))
}

/// Appends a table arena's raw tables-section body to `out`, which
/// must end on an 8-byte boundary so the columns land aligned.
pub fn encode_tables_flat_into(flat: &FlatTables, out: &mut Vec<u8>) {
    out.reserve(8 + flat.heap_bytes());
    out.extend_from_slice(&(flat.csr().tails().len() as u64).to_le_bytes());
    put_pod_slice(out, flat.records());
    flat.csr().encode_raw_tails_into(out);
}

/// Decodes a raw tables-section body over the entry offsets and keys of
/// `keys`, borrowing every column in place when the host and buffer
/// allow it. All structural invariants are re-validated; a header that
/// disagrees with the payload or with `keys` is a typed error, never a
/// panic or misaligned read.
pub fn decode_tables_flat<'a, K>(
    bytes: &'a [u8],
    keys: &KeyedCsr<'a, K>,
) -> Result<FlatTables<'a>, Error> {
    let mut r = SectionReader::new(bytes);
    let num_children = r.u64()?;
    let records = r.pod_slice::<EntryRecord>(keys.num_entries())?;
    let (child_start, children) = KeyedCsr::decode_raw_tails(r, keys.num_entries(), num_children)?;
    let csr = KeyedCsr::with_keys_of(keys, child_start, children)?;
    if !(csr.is_borrowed() && records.is_borrowed()) {
        psep_obs::counter!("routing.wire.entries_decoded").add(csr.num_entries() as u64);
    }
    FlatTables::new(csr, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::RoutingTables;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use psep_graph::NodeId;

    /// The column-at-a-time record decoder the lockstep one replaced:
    /// it pushes every record with its dist, then makes one more pass
    /// over all records per column. Kept as the reference the
    /// differential tests hold the lockstep decoder to.
    fn decode_records_reference(
        c: &mut Cursor<'_>,
        n: usize,
        num_entries: usize,
    ) -> Result<Vec<EntryRecord>, WireError> {
        let mut infos: Vec<EntryRecord> = Vec::with_capacity(num_entries);
        for _ in 0..num_entries {
            infos.push(EntryRecord {
                dist: c.varint()?,
                entry_pos: 0,
                path_pos: 0,
                parent: NO_NODE,
                dfs: 0,
                subtree_end: 0,
                path_prev: NO_NODE,
                path_next: NO_NODE,
                flags: 0,
            });
        }
        for rec in &mut infos {
            rec.entry_pos = c.varint()?;
        }
        for rec in &mut infos {
            rec.dfs = u32::try_from(c.varint()?)
                .map_err(|_| WireError::Corrupt("dfs index exceeds u32"))?;
        }
        for rec in &mut infos {
            let span = c.varint()?;
            let end = rec.dfs as u64 + span;
            if span == 0 || end > u32::MAX as u64 {
                return Err(WireError::Corrupt("subtree span out of range"));
            }
            rec.subtree_end = end as u32;
        }
        for rec in &mut infos {
            rec.parent = get_opt_node(c, n)?;
        }
        for rec in &mut infos {
            match c.varint()? {
                0 => {}
                1 => {
                    rec.flags = 1;
                    rec.path_pos = c.varint()?;
                    rec.path_prev = get_opt_node(c, n)?;
                    rec.path_next = get_opt_node(c, n)?;
                }
                _ => return Err(WireError::Corrupt("on-path flag must be 0 or 1")),
            };
        }
        Ok(infos)
    }

    /// [`decode_tables`] over the reference record decoder.
    fn decode_tables_reference<'k>(
        data: &[u8],
        keys: &KeyedCsr<'k, NodeId>,
    ) -> Result<FlatTables<'k>, Error> {
        let (csr, records) = decode_delta_body(data, keys, decode_records_reference)?;
        FlatTables::new(csr, records.into())
    }

    /// Both decoders fail on `body` over `keys`, or both return equal
    /// tables.
    fn assert_decoders_agree(body: &[u8], keys: &KeyedCsr<'_, NodeId>, what: &str) {
        match (
            decode_tables(body, keys),
            decode_tables_reference(body, keys),
        ) {
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
                let t = RoutingTables::build(&g, &tree);
                let body = encode_tables(t.flat());
                let what = format!("{} n={n}", family.name());
                let keys = t.flat().csr();
                assert_eq!(&decode_tables(&body, keys).unwrap(), t.flat(), "{what}");
                assert_decoders_agree(&body, keys, &what);
            }
        }
    }

    /// Every truncation and every byte flip (low bit, high bit, all
    /// bits) of a grid's and a triangulated grid's tables body: the
    /// decoders fail together or agree.
    #[test]
    fn lockstep_decoder_matches_the_reference_on_damaged_bodies() {
        let grid = grids::grid2d(7, 7, 1);
        let trigrid = psep_graph::generators::planar_families::triangulated_grid(7, 7, 17);
        for g in [grid, trigrid] {
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            let t = RoutingTables::build(&g, &tree);
            let (body, keys) = (encode_tables(t.flat()), t.flat().csr());
            for cut in 0..body.len() {
                assert_decoders_agree(&body[..cut], keys, &format!("cut at {cut}"));
            }
            for at in 0..body.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut bad = body.clone();
                    bad[at] ^= mask;
                    assert_decoders_agree(&bad, keys, &format!("flip {mask:#x} at {at}"));
                }
            }
        }
    }

    fn grid_tables() -> RoutingTables<'static> {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        RoutingTables::build(&g, &tree)
    }

    #[test]
    fn encode_decode_is_bit_exact() {
        let t = grid_tables();
        let buf = encode_tables(t.flat());
        let back = RoutingTables::from_flat(decode_tables(&buf, t.flat().csr()).unwrap());
        assert_eq!(back, t);
        for v in 0..36u32 {
            assert_eq!(back.label(NodeId(v)), t.label(NodeId(v)));
        }
        // re-encoding is byte-identical
        assert_eq!(encode_tables(back.flat()), buf);
    }

    #[test]
    fn wire_is_smaller_than_arena() {
        let t = grid_tables();
        let bytes = encode_tables(t.flat());
        assert!(
            bytes.len() < t.flat().heap_bytes(),
            "wire {} >= arena {}",
            bytes.len(),
            t.flat().heap_bytes()
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let t = grid_tables();
        let buf = encode_tables(t.flat());
        // the counts come first, so every strict prefix runs out
        for cut in 0..buf.len() {
            assert!(
                decode_tables(&buf[..cut], t.flat().csr()).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn raw_body_roundtrips_in_place_over_shared_keys() {
        let t = grid_tables();
        let mut raw = Vec::new();
        encode_tables_flat_into(t.flat(), &mut raw);
        let buf = psep_core::wire::AlignedBytes::from_slice(&raw);
        let keys = t.flat().csr();
        let back = decode_tables_flat(&buf, keys).unwrap();
        assert_eq!(&back, t.flat());
        let mut again = Vec::new();
        encode_tables_flat_into(&back, &mut again);
        assert_eq!(again, raw);
        // C, the records, the child offsets and the children: no entry
        // offsets and no keys
        let (e, c) = (keys.num_entries(), keys.tails().len());
        assert_eq!(
            raw.len(),
            8 + 48 * e + (4 * (e + 1)).next_multiple_of(8) + 4 * c
        );
        for cut in 0..raw.len() {
            let short = psep_core::wire::AlignedBytes::from_slice(&raw[..cut]);
            assert!(decode_tables_flat(&short, keys).is_err(), "prefix {cut}");
        }
    }

    /// A body written for more or fewer entries than the key source has
    /// is a typed error from both decoders.
    #[test]
    fn entry_count_mismatch_with_the_key_source_is_rejected() {
        let t = grid_tables();
        let g = grids::grid2d(5, 5, 1);
        let small =
            RoutingTables::build(&g, &DecompositionTree::build(&g, &AutoStrategy::default()));
        for (body_of, keys_of) in [(&t, &small), (&small, &t)] {
            let keys = keys_of.flat().csr();
            let delta = encode_tables(body_of.flat());
            assert!(decode_tables(&delta, keys).is_err());
            let mut raw = Vec::new();
            encode_tables_flat_into(body_of.flat(), &mut raw);
            let buf = psep_core::wire::AlignedBytes::from_slice(&raw);
            assert!(decode_tables_flat(&buf, keys).is_err());
        }
    }
}
