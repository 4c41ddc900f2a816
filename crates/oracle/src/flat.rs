//! Contiguous (CSR-style) label storage: the whole oracle's entries and
//! portals in one [`KeyedCsr`] arena, the container the routing tables
//! use too:
//!
//! ```text
//! entry_start:  n+1   u32  — entries of vertex v are entry_start[v]..entry_start[v+1]
//! keys:         E     u64  — packed (node, group, path), ascending per vertex
//! portal_start: E+1   u32  — portals of entry e are portal_start[e]..portal_start[e+1]
//! portals:      P     PortalEntry
//! ```
//!
//! [`FlatLabels`] is the one representation of a label — what the
//! builder emits, what the wire formats encode, and what two parties
//! merge-join — so the merge-join of a query walks two contiguous key
//! slices and the portal arena linearly. Queries borrow [`LabelRef`]
//! views.
//!
//! The arena is the whole of the labels, as Theorem 2's query needs
//! nothing else: the merge-join takes its prune bounds from the portal
//! tails of the keys it matches, so opening a mapped labels section
//! reads no portal.

use psep_core::csr::KeyedCsr;
use psep_graph::graph::NodeId;

use crate::error::Error;
use crate::label::{LabelStats, PortalEntry};

/// All labels of one oracle: a [`KeyedCsr`] whose tails are the
/// entries' portals.
///
/// The arena validates the CSR invariants and may borrow its columns
/// from a mapped raw labels section; queries are bit-identical either
/// way. Nothing is derived at open: the merge-join takes its prune
/// bounds from the portal tails it reads anyway.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatLabels<'a> {
    csr: KeyedCsr<'a, PortalEntry>,
}

impl<'a> FlatLabels<'a> {
    /// Assembles labels from their four arrays, validating the CSR
    /// invariants.
    pub fn from_parts(
        entry_start: Vec<u32>,
        keys: Vec<u64>,
        portal_start: Vec<u32>,
        portals: Vec<PortalEntry>,
    ) -> Result<Self, Error> {
        let csr = KeyedCsr::new(entry_start, keys, portal_start, portals)?;
        Ok(FlatLabels { csr })
    }

    /// Wraps a validated arena — the entry point of the label builder
    /// and the section decoders.
    pub(crate) fn from_csr(csr: KeyedCsr<'a, PortalEntry>) -> Self {
        FlatLabels { csr }
    }

    /// The underlying arena — what the wire formats encode, and the key
    /// source a bundle's tables section is decoded over.
    pub fn csr(&self) -> &KeyedCsr<'a, PortalEntry> {
        &self.csr
    }

    /// Number of labels (vertices).
    pub fn num_labels(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Total `(node, group, path)` entries across all labels.
    pub fn num_entries(&self) -> usize {
        self.csr.num_entries()
    }

    /// Total portal entries — the oracle's space in the sense of
    /// Theorem 2.
    pub fn num_portals(&self) -> usize {
        self.csr.tails().len()
    }

    /// Borrowed view of `v`'s label.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; use [`FlatLabels::try_label`] to
    /// get an error instead.
    pub fn label(&self, v: NodeId) -> LabelRef<'_> {
        self.try_label(v).unwrap()
    }

    /// Borrowed view of `v`'s label, or [`Error::NodeOutOfRange`].
    pub fn try_label(&self, v: NodeId) -> Result<LabelRef<'_>, Error> {
        let i = v.index();
        if i >= self.num_labels() {
            return Err(Error::NodeOutOfRange {
                node: v,
                num_nodes: self.num_labels(),
            });
        }
        let r = self.csr.entry_range(i);
        Ok(LabelRef {
            keys: &self.csr.keys()[r.clone()],
            bounds: &self.csr.tail_start()[r.start..=r.end],
            portals: self.csr.tails(),
        })
    }

    /// Raw arrays `(entry_start, keys, portal_start, portals)` — what
    /// the wire format encodes.
    pub fn as_parts(&self) -> (&[u32], &[u64], &[u32], &[PortalEntry]) {
        self.csr.as_parts()
    }

    /// Label statistics, computed from the offsets.
    pub fn stats(&self) -> LabelStats {
        let n = self.num_labels();
        if n == 0 {
            return LabelStats::default();
        }
        let bounds = self.csr.tail_start();
        let max_size = (0..n)
            .map(|v| {
                let r = self.csr.entry_range(v);
                (bounds[r.end] - bounds[r.start]) as usize
            })
            .max()
            .unwrap_or(0);
        LabelStats {
            mean_size: self.num_portals() as f64 / n as f64,
            max_size,
            mean_entries: self.num_entries() as f64 / n as f64,
            mean_portals_per_entry: if self.num_entries() == 0 {
                0.0
            } else {
                self.num_portals() as f64 / self.num_entries() as f64
            },
        }
    }

    /// Heap bytes of the arena — the in-memory footprint the wire
    /// format's `bytes_per_label` is compared against.
    pub fn heap_bytes(&self) -> usize {
        self.csr.heap_bytes()
    }

    /// Heap bytes actually owned by this arena — zero when every column
    /// is borrowed from a mapped bundle.
    pub fn owned_bytes(&self) -> usize {
        self.csr.owned_bytes()
    }

    /// True when every column is served in place from an external
    /// buffer (the zero-copy load path).
    pub fn is_borrowed(&self) -> bool {
        self.csr.is_borrowed()
    }

    /// Copies any borrowed column onto the heap, detaching the arena
    /// from the buffer it was mapped from.
    pub fn into_owned(self) -> FlatLabels<'static> {
        FlatLabels {
            csr: self.csr.into_owned(),
        }
    }
}

/// A borrowed label: key slice plus portal bounds into the shared arena.
#[derive(Clone, Copy, Debug)]
pub struct LabelRef<'a> {
    /// Packed `(node, group, path)` keys, strictly ascending.
    keys: &'a [u64],
    /// `keys.len() + 1` bounds into `portals`.
    bounds: &'a [u32],
    /// The whole portal arena (bounds are global indices).
    portals: &'a [PortalEntry],
}

impl<'a> LabelRef<'a> {
    /// The entries as `(packed key, portals)` pairs in ascending key
    /// order — the stream the merge-join consumes.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &'a [PortalEntry])> + '_ {
        self.keys.iter().enumerate().map(|(i, &k)| {
            (
                k,
                &self.portals[self.bounds[i] as usize..self.bounds[i + 1] as usize],
            )
        })
    }

    /// Number of `(node, group, path)` entries.
    pub fn num_entries(&self) -> usize {
        self.keys.len()
    }

    /// Total portal entries (the label size of Theorem 2).
    pub fn size(&self) -> usize {
        (self.bounds[self.keys.len()] - self.bounds[0]) as usize
    }

    /// The portals stored for packed key `key`, if present.
    pub fn portals_for(&self, key: u64) -> Option<&'a [PortalEntry]> {
        let i = self.keys.binary_search(&key).ok()?;
        Some(&self.portals[self.bounds[i] as usize..self.bounds[i + 1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{build_labels, pack_key, unpack_key};
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;

    fn grid_labels() -> FlatLabels<'static> {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        build_labels(&g, &tree, 0.25, 1)
    }

    #[test]
    fn label_views_partition_the_arena_and_match_its_stats() {
        let flat = grid_labels();
        let views: Vec<LabelRef<'_>> = (0..flat.num_labels())
            .map(|v| flat.label(NodeId::from_index(v)))
            .collect();
        let entries: usize = views.iter().map(|r| r.num_entries()).sum();
        let portals: usize = views.iter().map(|r| r.size()).sum();
        assert_eq!(entries, flat.num_entries());
        assert_eq!(portals, flat.num_portals());
        let stats = flat.stats();
        assert_eq!(
            stats.max_size,
            views.iter().map(|r| r.size()).max().unwrap()
        );
        assert!((stats.mean_size - portals as f64 / views.len() as f64).abs() < 1e-12);
        assert!((stats.mean_entries - entries as f64 / views.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn label_ref_lookups_agree_with_iteration() {
        let flat = grid_labels();
        for v in 0..flat.num_labels() {
            let r = flat.label(NodeId::from_index(v));
            for (key, portals) in r.entries() {
                let (node, group, path) = unpack_key(key);
                assert_eq!(pack_key(node, group, path), key);
                assert_eq!(r.portals_for(key), Some(portals));
            }
        }
        assert_eq!(flat.label(NodeId(0)).portals_for(u64::MAX), None);
    }

    #[test]
    fn out_of_range_label_is_an_error() {
        let flat = grid_labels();
        let err = flat.try_label(NodeId(999)).unwrap_err();
        assert!(matches!(err, Error::NodeOutOfRange { .. }));
    }

    #[test]
    fn empty_labels_assemble() {
        let flat = FlatLabels::from_parts(vec![0, 0, 0], vec![], vec![0], vec![]).unwrap();
        assert_eq!(flat.num_labels(), 2);
        assert_eq!(flat.num_entries(), 0);
        assert_eq!(flat.label(NodeId(1)).entries().count(), 0);
        assert_eq!(flat.num_portals(), 0);
    }
}
