//! Contiguous (CSR-style) routing-table storage: every vertex's table
//! in five flat arrays, mirroring `psep_oracle::FlatLabels`. The builder
//! emits straight into this form; there is no other. [`FlatTables`]
//! stores
//!
//! ```text
//! entry_start: n+1  u32         — entries of vertex v are entry_start[v]..entry_start[v+1]
//! keys:        E    u64         — packed (node, group, path), ascending per vertex
//! records:     E    EntryRecord — dist, entry_pos, parent, DFS interval, on-path links
//! child_start: E+1  u32         — children of entry e are child_start[e]..child_start[e+1]
//! children:    C    NodeId      — ascending per entry
//! ```
//!
//! so plan selection binary-searches one contiguous key slice and the
//! interval descent scans a contiguous child slice. Each column is
//! [`ArenaStorage`]: owned when built or decoded, borrowed in place
//! from an aligned `psep-bundle/v2` section. `EntryRecord` is a
//! plain-old-data struct whose in-memory layout equals its wire layout,
//! so a mapped tables section is served without touching a single
//! entry. Lookups borrow [`TableRef`]/[`EntryRef`] views.

use psep_core::wire::ArenaStorage;
use psep_graph::graph::{NodeId, Weight};
use psep_oracle::label::{pack_key, unpack_key};

use crate::error::Error;
use crate::tables::{OnPathInfo, RouteKey};

/// Sentinel for "no vertex" in an [`EntryRecord`] id field.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// One entry's fixed-size fields (everything but the variable-length
/// children list, which lives in the child arena) as plain old data:
/// 48 bytes, `#[repr(C)]`, no padding, optional ids encoded as
/// [`NO_NODE`] and the on-path flag as bit 0 of `flags`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct EntryRecord {
    pub dist: Weight,
    pub entry_pos: Weight,
    /// On-path position; canonically 0 off path.
    pub path_pos: Weight,
    /// Parent toward `Q` ([`NO_NODE`] on `Q`).
    pub parent: u32,
    pub dfs: u32,
    pub subtree_end: u32,
    /// Previous path vertex ([`NO_NODE`] off path or at position 0).
    pub path_prev: u32,
    /// Next path vertex ([`NO_NODE`] off path or at the far end).
    pub path_next: u32,
    /// Bit 0: the vertex lies on `Q`. Other bits canonically zero.
    pub flags: u32,
}

const ON_PATH: u32 = 1;

// SAFETY: `#[repr(C)]` with three `u64` fields followed by six `u32`
// fields — 48 bytes, 8-aligned, no padding, every bit pattern valid
// (structural invariants are validated separately), field order matches
// the wire layout.
unsafe impl psep_core::wire::Pod for EntryRecord {
    const SIZE: usize = 48;
    fn read_le(b: &[u8]) -> Self {
        let u64at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
        let u32at = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
        EntryRecord {
            dist: u64at(0),
            entry_pos: u64at(8),
            path_pos: u64at(16),
            parent: u32at(24),
            dfs: u32at(28),
            subtree_end: u32at(32),
            path_prev: u32at(36),
            path_next: u32at(40),
            flags: u32at(44),
        }
    }
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dist.to_le_bytes());
        out.extend_from_slice(&self.entry_pos.to_le_bytes());
        out.extend_from_slice(&self.path_pos.to_le_bytes());
        for f in [
            self.parent,
            self.dfs,
            self.subtree_end,
            self.path_prev,
            self.path_next,
            self.flags,
        ] {
            out.extend_from_slice(&f.to_le_bytes());
        }
    }
}

fn opt_id(raw: u32) -> Option<NodeId> {
    (raw != NO_NODE).then_some(NodeId(raw))
}

fn raw_id(v: Option<NodeId>) -> u32 {
    v.map_or(NO_NODE, |v| v.0)
}

impl EntryRecord {
    /// Packs one entry canonically: `d_J(v, Q)`, the nearest entry
    /// point's position, the parent toward `Q` in `T_Q`, the DFS
    /// interval `[dfs, subtree_end)`, and the on-path links iff `v`
    /// lies on `Q`.
    pub(crate) fn new(
        dist: Weight,
        entry_pos: Weight,
        parent: Option<NodeId>,
        dfs: u32,
        subtree_end: u32,
        on_path: Option<OnPathInfo>,
    ) -> Self {
        EntryRecord {
            dist,
            entry_pos,
            path_pos: on_path.map_or(0, |op| op.pos),
            parent: raw_id(parent),
            dfs,
            subtree_end,
            path_prev: raw_id(on_path.and_then(|op| op.prev)),
            path_next: raw_id(on_path.and_then(|op| op.next)),
            flags: if on_path.is_some() { ON_PATH } else { 0 },
        }
    }

    pub(crate) fn parent(&self) -> Option<NodeId> {
        opt_id(self.parent)
    }

    pub(crate) fn on_path(&self) -> Option<OnPathInfo> {
        (self.flags & ON_PATH != 0).then(|| OnPathInfo {
            pos: self.path_pos,
            prev: opt_id(self.path_prev),
            next: opt_id(self.path_next),
        })
    }
}

/// All routing tables of one graph in contiguous CSR-style arrays.
///
/// Invariants (maintained by every constructor):
///
/// * `entry_start` has `num_nodes() + 1` elements, is non-decreasing,
///   starts at 0 and ends at `keys.len()`;
/// * `child_start` has `keys.len() + 1` elements, is non-decreasing,
///   starts at 0 and ends at `children.len()`;
/// * within each vertex's range, `keys` is strictly ascending;
/// * within each entry's range, `children` is strictly ascending;
/// * every vertex id (parent, child, on-path prev/next) is `< num_nodes()`
///   and every DFS interval is non-empty (`dfs < subtree_end`);
/// * records are canonical: off-path records have zero `path_pos`,
///   `NO_NODE` (`u32::MAX`) links, no stray flag bits, and a parent (the interval
///   descent in `route` relies on it), while on-path records have none.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatTables<'a> {
    entry_start: ArenaStorage<'a, u32>,
    keys: ArenaStorage<'a, u64>,
    records: ArenaStorage<'a, EntryRecord>,
    child_start: ArenaStorage<'a, u32>,
    children: ArenaStorage<'a, NodeId>,
}

impl<'a> FlatTables<'a> {
    /// Assembles an arena directly from its five owned arrays, validating
    /// every invariant — the entry point of the table builder and of the
    /// `psep-routing/v1` decoder.
    pub(crate) fn from_parts(
        entry_start: Vec<u32>,
        keys: Vec<u64>,
        records: Vec<EntryRecord>,
        child_start: Vec<u32>,
        children: Vec<NodeId>,
    ) -> Result<Self, Error> {
        FlatTables::from_storage_parts(
            entry_start.into(),
            keys.into(),
            records.into(),
            child_start.into(),
            children.into(),
        )
    }

    /// Assembles an arena from borrowed-or-owned columns, validating
    /// every invariant — the zero-copy entry point of the
    /// `psep-bundle/v2` decoder.
    pub(crate) fn from_storage_parts(
        entry_start: ArenaStorage<'a, u32>,
        keys: ArenaStorage<'a, u64>,
        records: ArenaStorage<'a, EntryRecord>,
        child_start: ArenaStorage<'a, u32>,
        children: ArenaStorage<'a, NodeId>,
    ) -> Result<Self, Error> {
        let corrupt = |what: &'static str| Err(Error::corrupt(what));
        if entry_start.first() != Some(&0) || child_start.first() != Some(&0) {
            return corrupt("offset arrays must start at 0");
        }
        if *entry_start.last().unwrap() as usize != keys.len() {
            return corrupt("entry_start must end at keys.len()");
        }
        if records.len() != keys.len() {
            return corrupt("one record per key");
        }
        if child_start.len() != keys.len() + 1 {
            return corrupt("child_start must have one bound per entry plus one");
        }
        if *child_start.last().unwrap() as usize != children.len() {
            return corrupt("child_start must end at children.len()");
        }
        if entry_start.windows(2).any(|w| w[0] > w[1]) {
            return corrupt("entry_start must be non-decreasing");
        }
        if child_start.windows(2).any(|w| w[0] > w[1]) {
            return corrupt("child_start must be non-decreasing");
        }
        for v in 0..entry_start.len() - 1 {
            let range = entry_start[v] as usize..entry_start[v + 1] as usize;
            if keys[range].windows(2).any(|w| w[0] >= w[1]) {
                return corrupt("keys must be strictly ascending within a vertex");
            }
        }
        let n = entry_start.len() - 1;
        let in_range = |raw: u32| raw == NO_NODE || (raw as usize) < n;
        for rec in records.iter() {
            if rec.dfs >= rec.subtree_end {
                return corrupt("DFS interval must be non-empty");
            }
            if !in_range(rec.parent) {
                return corrupt("parent vertex out of range");
            }
            if rec.flags & !ON_PATH != 0 {
                return corrupt("unknown record flag bits");
            }
            if rec.flags & ON_PATH != 0 {
                if !in_range(rec.path_prev) || !in_range(rec.path_next) {
                    return corrupt("on-path link out of range");
                }
                if rec.parent != NO_NODE {
                    return corrupt("on-path record must not have a parent");
                }
            } else {
                if rec.path_pos != 0 || rec.path_prev != NO_NODE || rec.path_next != NO_NODE {
                    return corrupt("off-path record carries on-path fields");
                }
                // `route` descends via `parent` until it reaches the
                // path; a parentless off-path record would panic there.
                if rec.parent == NO_NODE {
                    return corrupt("off-path record must have a parent");
                }
            }
        }
        if children.iter().any(|c| c.index() >= n) {
            return corrupt("child vertex out of range");
        }
        for e in 0..keys.len() {
            let range = child_start[e] as usize..child_start[e + 1] as usize;
            if children[range].windows(2).any(|w| w[0] >= w[1]) {
                return corrupt("children must be strictly ascending within an entry");
            }
        }
        Ok(FlatTables {
            entry_start,
            keys,
            records,
            child_start,
            children,
        })
    }

    /// The raw arrays — what the wire format encodes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn as_parts(&self) -> (&[u32], &[u64], &[EntryRecord], &[u32], &[NodeId]) {
        (
            &self.entry_start,
            &self.keys,
            &self.records,
            &self.child_start,
            &self.children,
        )
    }

    /// Number of vertices covered.
    pub fn num_nodes(&self) -> usize {
        self.entry_start.len() - 1
    }

    /// Total `(node, group, path)` entries across all tables.
    pub fn num_entries(&self) -> usize {
        self.keys.len()
    }

    /// Total child records across all entries.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    /// Borrowed view of `v`'s table.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; use [`FlatTables::try_table`] to
    /// get an error instead.
    pub fn table(&self, v: NodeId) -> TableRef<'_> {
        self.try_table(v).unwrap()
    }

    /// Borrowed view of `v`'s table, or [`Error::NodeOutOfRange`].
    pub fn try_table(&self, v: NodeId) -> Result<TableRef<'_>, Error> {
        let i = v.index();
        if i >= self.num_nodes() {
            return Err(Error::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes(),
            });
        }
        Ok(TableRef {
            flat: self,
            lo: self.entry_start[i] as usize,
            hi: self.entry_start[i + 1] as usize,
        })
    }

    /// Heap bytes of the arena — the in-memory footprint the wire
    /// format's size is compared against in experiment E6t.
    pub fn heap_bytes(&self) -> usize {
        self.entry_start.len() * 4
            + self.keys.len() * 8
            + self.records.len() * std::mem::size_of::<EntryRecord>()
            + self.child_start.len() * 4
            + self.children.len() * 4
    }

    /// Heap bytes actually owned by this arena — zero when every column
    /// is borrowed from a mapped bundle.
    pub fn owned_bytes(&self) -> usize {
        self.entry_start.owned_bytes()
            + self.keys.owned_bytes()
            + self.records.owned_bytes()
            + self.child_start.owned_bytes()
            + self.children.owned_bytes()
    }

    /// True when every column is served in place from an external
    /// buffer (the zero-copy load path).
    pub fn is_borrowed(&self) -> bool {
        self.entry_start.is_borrowed()
            && self.keys.is_borrowed()
            && self.records.is_borrowed()
            && self.child_start.is_borrowed()
            && self.children.is_borrowed()
    }

    /// Copies any borrowed column onto the heap, detaching the arena
    /// from the buffer it was mapped from.
    pub fn into_owned(self) -> FlatTables<'static> {
        FlatTables {
            entry_start: self.entry_start.into_owned(),
            keys: self.keys.into_owned(),
            records: self.records.into_owned(),
            child_start: self.child_start.into_owned(),
            children: self.children.into_owned(),
        }
    }
}

/// A borrowed routing table: one vertex's entry range in the arena.
#[derive(Clone, Copy, Debug)]
pub struct TableRef<'a> {
    flat: &'a FlatTables<'a>,
    lo: usize,
    hi: usize,
}

impl<'a> TableRef<'a> {
    /// Number of `(node, group, path)` entries.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the table has no entries (an unreachable vertex).
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// The entry for `key`, if present (binary search).
    pub fn get(&self, key: RouteKey) -> Option<EntryRef<'a>> {
        let packed = pack_key(key.0, key.1, key.2);
        let i = self.flat.keys[self.lo..self.hi]
            .binary_search(&packed)
            .ok()?;
        Some(EntryRef {
            flat: self.flat,
            e: self.lo + i,
        })
    }

    /// All entries as `(key, entry)` pairs in ascending key order.
    pub fn entries(&self) -> impl Iterator<Item = (RouteKey, EntryRef<'a>)> + '_ {
        let flat = self.flat;
        (self.lo..self.hi).map(move |e| (unpack_key(flat.keys[e]), EntryRef { flat, e }))
    }
}

/// A borrowed routing-table entry.
#[derive(Clone, Copy, Debug)]
pub struct EntryRef<'a> {
    flat: &'a FlatTables<'a>,
    e: usize,
}

impl<'a> EntryRef<'a> {
    fn record(&self) -> &'a EntryRecord {
        &self.flat.records.as_slice()[self.e]
    }

    /// `d_J(v, Q)` — distance to the nearest path vertex.
    pub fn dist(&self) -> Weight {
        self.record().dist
    }

    /// Position of the nearest entry point `x_v` on `Q`.
    pub fn entry_pos(&self) -> Weight {
        self.record().entry_pos
    }

    /// Parent toward `Q` in the multi-source tree `T_Q` (`None` on `Q`).
    pub fn parent(&self) -> Option<NodeId> {
        self.record().parent()
    }

    /// DFS preorder index in `T_Q`.
    pub fn dfs(&self) -> u32 {
        self.record().dfs
    }

    /// One past the largest DFS index in the subtree.
    pub fn subtree_end(&self) -> u32 {
        self.record().subtree_end
    }

    /// On-path links, set iff the vertex lies on `Q`.
    pub fn on_path(&self) -> Option<OnPathInfo> {
        self.record().on_path()
    }

    /// Children in `T_Q` (for interval routing downward), ascending.
    pub fn children(&self) -> &'a [NodeId] {
        let (lo, hi) = (
            self.flat.child_start[self.e] as usize,
            self.flat.child_start[self.e + 1] as usize,
        );
        &self.flat.children.as_slice()[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::RoutingTables;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;

    fn grid_tables() -> RoutingTables<'static> {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        RoutingTables::build(&g, &tree)
    }

    #[test]
    fn records_roundtrip_their_fields_and_wire_layout() {
        use psep_core::wire::Pod;
        let tables = grid_tables();
        for rec in tables.flat().as_parts().2 {
            let on_path = rec.on_path();
            let again = EntryRecord::new(
                rec.dist,
                rec.entry_pos,
                rec.parent(),
                rec.dfs,
                rec.subtree_end,
                on_path,
            );
            assert_eq!(&again, rec);
            assert_eq!(on_path.is_some(), rec.parent().is_none());
            // wire encode/decode is bit-exact
            let mut buf = Vec::new();
            rec.write_le(&mut buf);
            assert_eq!(buf.len(), EntryRecord::SIZE);
            assert_eq!(EntryRecord::read_le(&buf), *rec);
        }
        assert_eq!(std::mem::size_of::<EntryRecord>(), 48);
    }

    #[test]
    fn out_of_range_table_is_an_error() {
        let tables = grid_tables();
        assert!(matches!(
            tables.flat().try_table(NodeId(999)),
            Err(Error::NodeOutOfRange { num_nodes: 36, .. })
        ));
    }

    #[test]
    fn from_parts_rejects_broken_invariants() {
        let tables = grid_tables();
        let (es, keys, recs, cs, ch) = tables.flat().as_parts();
        let reassembled = FlatTables::from_parts(
            es.to_vec(),
            keys.to_vec(),
            recs.to_vec(),
            cs.to_vec(),
            ch.to_vec(),
        )
        .unwrap();
        assert_eq!(&reassembled, tables.flat());
        // descending keys within a vertex
        let mut bad_keys = keys.to_vec();
        bad_keys.swap(0, 1);
        assert!(FlatTables::from_parts(
            es.to_vec(),
            bad_keys,
            recs.to_vec(),
            cs.to_vec(),
            ch.to_vec()
        )
        .is_err());
        // an empty DFS interval
        let mut bad_recs = recs.to_vec();
        bad_recs[0].subtree_end = bad_recs[0].dfs;
        assert!(FlatTables::from_parts(
            es.to_vec(),
            keys.to_vec(),
            bad_recs,
            cs.to_vec(),
            ch.to_vec()
        )
        .is_err());
        // an off-path record with no parent would panic in `route`
        if let Some(i) = recs.iter().position(|r| r.flags & ON_PATH == 0) {
            let mut bad_recs = recs.to_vec();
            bad_recs[i].parent = NO_NODE;
            assert!(FlatTables::from_parts(
                es.to_vec(),
                keys.to_vec(),
                bad_recs,
                cs.to_vec(),
                ch.to_vec()
            )
            .is_err());
        }
        // a stray flag bit is non-canonical
        let mut bad_recs = recs.to_vec();
        bad_recs[0].flags |= 2;
        assert!(FlatTables::from_parts(
            es.to_vec(),
            keys.to_vec(),
            bad_recs,
            cs.to_vec(),
            ch.to_vec()
        )
        .is_err());
        // a child id beyond n
        if !ch.is_empty() {
            let mut bad_ch = ch.to_vec();
            bad_ch[0] = NodeId(10_000);
            assert!(FlatTables::from_parts(
                es.to_vec(),
                keys.to_vec(),
                recs.to_vec(),
                cs.to_vec(),
                bad_ch
            )
            .is_err());
        }
    }
}
