//! The table-section codecs of a `psep-bundle`: a varint/delta-coded
//! body (the delta section, kind 6) and an aligned column layout (the
//! raw section, kind 4, served in place). Neither carries an envelope of
//! its own: the bundle that holds them owns magic, version and checksum.
//!
//! Delta body layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! n       number of vertices
//! E       total entries        C  total children
//! entry count per vertex                            n varints
//! keys    per vertex: first absolute, then deltas   E varints
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
//! Keys are strictly ascending within a vertex and children within an
//! entry, so both streams delta-code to a byte or two per element.
//! Decoding verifies every structural invariant (via
//! `FlatTables::from_parts`); corrupt input yields an [`Error`], never
//! a panic.

use psep_core::wire::{put_varint, Cursor};
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
    let (entry_start, keys, infos, child_start, children) = flat.as_parts();
    let n = entry_start.len() - 1;
    out.reserve(16 + n + keys.len() * 6 + children.len() * 2);
    put_varint(out, n as u64);
    put_varint(out, keys.len() as u64);
    put_varint(out, children.len() as u64);
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
    for e in 0..keys.len() {
        put_varint(out, (child_start[e + 1] - child_start[e]) as u64);
    }
    for e in 0..keys.len() {
        let mut prev = 0u64;
        for (i, &c) in children[child_start[e] as usize..child_start[e + 1] as usize]
            .iter()
            .enumerate()
        {
            let raw = c.0 as u64;
            put_varint(out, if i == 0 { raw } else { raw - prev });
            prev = raw;
        }
    }
}

fn get_opt_node(c: &mut Cursor<'_>, n: usize) -> Result<Option<NodeId>, Error> {
    match c.varint()? {
        0 => Ok(None),
        raw if (raw - 1) < n as u64 => Ok(Some(NodeId((raw - 1) as u32))),
        _ => Err(Error::corrupt("vertex id out of range")),
    }
}

/// Decodes a delta tables-section body back into a table arena.
pub fn decode_tables(data: &[u8]) -> Result<FlatTables<'static>, Error> {
    let mut c = Cursor::new(data);
    // every vertex, entry, and child costs at least one body byte, so
    // the input length bounds all three counts
    let limit = data.len();
    let n = c.length(limit)?;
    let num_entries = c.length(limit)?;
    let num_children = c.length(limit)?;
    if num_entries > u32::MAX as usize || num_children > u32::MAX as usize {
        return Err(Error::corrupt("entry or child count exceeds u32 offsets"));
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
        let dfs = c.varint()?;
        if dfs > u32::MAX as u64 {
            return Err(Error::corrupt("dfs index exceeds u32"));
        }
        rec.dfs = dfs as u32;
    }
    for rec in &mut infos {
        let span = c.varint()?;
        let end = rec.dfs as u64 + span;
        if span == 0 || end > u32::MAX as u64 {
            return Err(Error::corrupt("subtree span out of range"));
        }
        rec.subtree_end = end as u32;
    }
    for rec in &mut infos {
        rec.parent = get_opt_node(&mut c, n)?.map_or(NO_NODE, |v| v.0);
    }
    for rec in &mut infos {
        match c.varint()? {
            0 => {}
            1 => {
                rec.flags = 1;
                rec.path_pos = c.varint()?;
                rec.path_prev = get_opt_node(&mut c, n)?.map_or(NO_NODE, |v| v.0);
                rec.path_next = get_opt_node(&mut c, n)?.map_or(NO_NODE, |v| v.0);
            }
            _ => return Err(Error::corrupt("on-path flag must be 0 or 1")),
        };
    }

    let mut child_start = Vec::with_capacity(num_entries + 1);
    child_start.push(0u32);
    for _ in 0..num_entries {
        let count = c.length(num_children)?;
        let next = child_start.last().unwrap() + count as u32;
        if next as usize > num_children {
            return Err(Error::corrupt("child counts exceed declared total"));
        }
        child_start.push(next);
    }
    if *child_start.last().unwrap() as usize != num_children {
        return Err(Error::corrupt("child counts do not sum to declared total"));
    }

    let mut children: Vec<NodeId> = Vec::with_capacity(num_children);
    for e in 0..num_entries {
        let count = (child_start[e + 1] - child_start[e]) as usize;
        let mut prev = 0u64;
        for i in 0..count {
            let raw = c.varint()?;
            let id = if i == 0 {
                raw
            } else {
                prev.checked_add(raw)
                    .ok_or(Error::corrupt("child delta overflows"))?
            };
            if id >= n as u64 {
                return Err(Error::corrupt("child vertex out of range"));
            }
            children.push(NodeId(id as u32));
            prev = id;
        }
    }
    if c.remaining() != 0 {
        return Err(Error::corrupt("trailing bytes after payload"));
    }
    // Per-entry decode work actually performed — the zero-copy mapped load
    // path asserts this stays at zero.
    psep_obs::counter!("routing.wire.entries_decoded").add(num_entries as u64);
    FlatTables::from_parts(entry_start, keys, infos, child_start, children)
}

// ---------------------------------------------------------------------------
// Raw tables section: aligned little-endian arrays, the zero-copy
// counterpart of the delta body.
//
// ```text
// n, E, C      u64 LE                        24 bytes
// entry_start  (n+1) × u32 LE
// pad to 8
// keys         E × u64 LE
// records      E × EntryRecord (48 bytes)    LE
// child_start  (E+1) × u32 LE
// pad to 8
// children     C × u32 LE (NodeId)
// ```
//
// Every column starts 8-aligned relative to the section, so on a
// little-endian host with an 8-aligned section the decoder borrows all
// five columns in place — no per-entry work at all.
// ---------------------------------------------------------------------------

use psep_core::wire::{pad_to_8, put_pod_slice, ArenaStorage, SectionReader};

/// Appends a table arena's raw tables-section body to `out`, which
/// must end on an 8-byte boundary so the columns land aligned.
pub fn encode_tables_flat_into(flat: &FlatTables, out: &mut Vec<u8>) {
    debug_assert!(out.len().is_multiple_of(8), "section must start aligned");
    let (entry_start, keys, records, child_start, children) = flat.as_parts();
    out.reserve(
        32 + entry_start.len() * 4
            + keys.len() * 8
            + records.len() * 48
            + child_start.len() * 4
            + children.len() * 4,
    );
    out.extend_from_slice(&(flat.num_nodes() as u64).to_le_bytes());
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    out.extend_from_slice(&(children.len() as u64).to_le_bytes());
    put_pod_slice(out, entry_start);
    pad_to_8(out);
    put_pod_slice(out, keys);
    put_pod_slice(out, records);
    put_pod_slice(out, child_start);
    pad_to_8(out);
    put_pod_slice(out, children);
}

/// Decodes a raw tables-section body, borrowing every column in
/// place when the host and buffer allow it. All structural invariants
/// are re-validated; a header that disagrees with the payload is a
/// typed error, never a panic or misaligned read.
pub fn decode_tables_flat(bytes: &[u8]) -> Result<FlatTables<'_>, Error> {
    let mut r = SectionReader::new(bytes);
    let n = r.u64()?;
    let num_entries = r.u64()?;
    let num_children = r.u64()?;
    if n >= u32::MAX as u64 || num_entries >= u32::MAX as u64 || num_children > u32::MAX as u64 {
        return Err(Error::corrupt("table counts exceed u32 offsets"));
    }
    let entry_start: ArenaStorage<u32> = r.pod_slice(n as usize + 1)?;
    r.align8()?;
    let keys: ArenaStorage<u64> = r.pod_slice(num_entries as usize)?;
    let records: ArenaStorage<EntryRecord> = r.pod_slice(num_entries as usize)?;
    let child_start: ArenaStorage<u32> = r.pod_slice(num_entries as usize + 1)?;
    r.align8()?;
    let children: ArenaStorage<NodeId> = r.pod_slice(num_children as usize)?;
    r.finish()?;
    if !entry_start.is_borrowed() {
        psep_obs::counter!("routing.wire.entries_decoded").add(num_entries);
    }
    FlatTables::from_storage_parts(entry_start, keys, records, child_start, children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::RoutingTables;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use psep_graph::NodeId;

    fn grid_tables() -> RoutingTables<'static> {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        RoutingTables::build(&g, &tree)
    }

    #[test]
    fn encode_decode_is_bit_exact() {
        let t = grid_tables();
        let buf = encode_tables(t.flat());
        let back = RoutingTables::from_flat(decode_tables(&buf).unwrap());
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
                decode_tables(&buf[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn structurally_corrupt_body_is_rejected() {
        // hand-build a body whose counts disagree
        let mut body = Vec::new();
        put_varint(&mut body, 1); // n = 1
        put_varint(&mut body, 5); // E = 5 …
        put_varint(&mut body, 0); // C = 0
        put_varint(&mut body, 2); // … but vertex 0 claims 2 entries
        assert!(decode_tables(&body).is_err());
    }
}
