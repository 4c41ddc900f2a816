//! Vertex-major CSR assembly — the last step of the label and
//! routing-table builders.
//!
//! Both builders work one `(node, group)` of the decomposition at a
//! time, so they emit a vertex's entries scattered across the whole run
//! but already in ascending `(node, group, path)` key order. [`by_vertex`]
//! is the stable counting sort that turns such a group-major emission
//! into the vertex-major arena the serving layers read: per-vertex entry
//! offsets, one fixed-size record per entry, and per-entry offsets into
//! the entries' concatenated variable-length tails (portals for labels,
//! children for tables).

use std::ops::Range;

/// One emitted entry: its vertex, its fixed-size record, and the range
/// of its variable-length tail in the emission's tail buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Emitted<R> {
    /// Owning vertex id.
    pub vertex: u32,
    /// The entry's fixed-size fields.
    pub record: R,
    /// The entry's tail within the emission's tail buffer.
    pub tail: Range<u32>,
}

/// A vertex-major CSR arena assembled by [`by_vertex`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexCsr<R, T> {
    /// `n + 1` offsets: vertex `v`'s entries are
    /// `records[entry_start[v]..entry_start[v + 1]]`.
    pub entry_start: Vec<u32>,
    /// Entry records, vertex-major, in emission order within a vertex.
    pub records: Vec<R>,
    /// `records.len() + 1` offsets: entry `e`'s tail is
    /// `tails[tail_start[e]..tail_start[e + 1]]`.
    pub tail_start: Vec<u32>,
    /// Every entry's tail, concatenated in entry order.
    pub tails: Vec<T>,
}

/// Stable counting sort of `buckets_of` into `buckets` buckets: returns
/// `(start, order)` such that bucket `b` holds the input indices
/// `order[start[b]..start[b + 1]]`, ascending.
///
/// # Panics
///
/// Panics if a bucket is `>= buckets`.
pub fn bucket_order(
    buckets: usize,
    buckets_of: impl Iterator<Item = u32> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; buckets + 1];
    for b in buckets_of.clone() {
        start[b as usize + 1] += 1;
    }
    for b in 0..buckets {
        start[b + 1] += start[b];
    }
    let mut cursor = start[..buckets].to_vec();
    let mut order = vec![0u32; start[buckets] as usize];
    for (i, b) in buckets_of.enumerate() {
        let slot = &mut cursor[b as usize];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    (start, order)
}

/// Groups `emitted` by vertex over `n` vertices, keeping emission order
/// within each vertex, and gathers each entry's tail out of `tails`.
///
/// # Panics
///
/// Panics if a vertex is `>= n` or a tail range lies outside `tails`.
pub fn by_vertex<R: Copy, T: Copy>(
    n: usize,
    emitted: &[Emitted<R>],
    tails: &[T],
) -> VertexCsr<R, T> {
    let (entry_start, order) = bucket_order(n, emitted.iter().map(|e| e.vertex));
    let mut records = Vec::with_capacity(emitted.len());
    let mut tail_start = Vec::with_capacity(emitted.len() + 1);
    let mut gathered = Vec::with_capacity(tails.len());
    tail_start.push(0);
    for &i in &order {
        let e = &emitted[i as usize];
        records.push(e.record);
        gathered.extend_from_slice(&tails[e.tail.start as usize..e.tail.end as usize]);
        tail_start.push(gathered.len() as u32);
    }
    VertexCsr {
        entry_start,
        records,
        tail_start,
        tails: gathered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_order_is_a_stable_counting_sort() {
        let (start, order) = bucket_order(4, [2u32, 0, 2, 3, 0].into_iter());
        assert_eq!(start, vec![0, 2, 2, 4, 5]);
        assert_eq!(order, vec![1, 4, 0, 2, 3]);
    }

    #[test]
    fn by_vertex_groups_records_and_gathers_tails() {
        let tails = ['a', 'b', 'c', 'd'];
        let emitted = [
            Emitted {
                vertex: 1,
                record: 10u64,
                tail: 0..2,
            },
            Emitted {
                vertex: 0,
                record: 20,
                tail: 2..2,
            },
            Emitted {
                vertex: 1,
                record: 30,
                tail: 2..4,
            },
        ];
        let csr = by_vertex(3, &emitted, &tails);
        assert_eq!(csr.entry_start, vec![0, 1, 3, 3]);
        assert_eq!(csr.records, vec![20, 10, 30]);
        assert_eq!(csr.tail_start, vec![0, 0, 2, 4]);
        assert_eq!(csr.tails, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn empty_emission_gives_empty_vertices() {
        let csr = by_vertex::<u64, u8>(2, &[], &[]);
        assert_eq!(csr.entry_start, vec![0, 0, 0]);
        assert_eq!(csr.tail_start, vec![0]);
        assert!(csr.records.is_empty() && csr.tails.is_empty());
    }
}
