//! The keyed CSR arena shared by Theorem 2's distance labels and the
//! compact-routing tables.
//!
//! Both are per-vertex lists of entries keyed by a packed
//! `(node, group, path)` `u64`, each entry with a variable-length tail
//! (portals for labels, `T_Q` children for tables). [`KeyedCsr`] is that
//! shape, stored once:
//!
//! ```text
//! entry_start: n+1  u32  — entries of vertex v are entry_start[v]..entry_start[v+1]
//! keys:        E    u64  — strictly ascending within a vertex
//! tail_start:  E+1  u32  — tail of entry e is tails[tail_start[e]..tail_start[e+1]]
//! tails:       T    T
//! ```
//!
//! It owns the invariants of those columns, their borrowed-or-owned
//! storage, and the column order of both section encodings. A caller
//! with a per-entry column of its own (the tables' records) writes it
//! through the one hook between the keys and the tail offsets; header
//! fields outside the shared part (the labels' `ε`) are written by the
//! caller before the arena's.
//!
//! Both builders work one `(node, group)` of the decomposition at a
//! time, so they emit a vertex's entries scattered across the whole run
//! but already in ascending key order. [`by_vertex`] is the stable
//! counting sort that turns such a group-major emission into the arena.

use std::ops::Range;

use crate::wire::{
    pad_to_8, put_pod_slice, put_varint, ArenaStorage, Cursor, Pod, SectionReader, WireError,
};

/// One emitted entry: its vertex, key, per-entry record, and the range
/// of its variable-length tail in the emission's tail buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Emitted<R> {
    /// Owning vertex id.
    pub vertex: u32,
    /// The entry's packed `(node, group, path)` key.
    pub key: u64,
    /// The entry's fixed-size fields outside the arena (`()` if none).
    pub record: R,
    /// The entry's tail within the emission's tail buffer.
    pub tail: Range<u32>,
}

/// A vertex-major keyed CSR arena (see the [module docs](self)).
///
/// Each column is [`ArenaStorage`]: owned when built in memory or
/// decoded from a delta section, borrowed in place from the caller's
/// buffer when loaded from an aligned raw section. Every constructor
/// validates:
///
/// * `entry_start` starts at 0, never decreases and ends at `keys.len()`;
/// * `tail_start` has `keys.len() + 1` elements, starts at 0, never
///   decreases and ends at `tails.len()`;
/// * within each vertex's range, `keys` is strictly ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyedCsr<'a, T> {
    entry_start: ArenaStorage<'a, u32>,
    keys: ArenaStorage<'a, u64>,
    tail_start: ArenaStorage<'a, u32>,
    tails: ArenaStorage<'a, T>,
}

impl<'a, T> KeyedCsr<'a, T> {
    /// Assembles an arena from borrowed-or-owned columns (a `Vec` is
    /// an owned column), validating every invariant.
    pub fn new(
        entry_start: impl Into<ArenaStorage<'a, u32>>,
        keys: impl Into<ArenaStorage<'a, u64>>,
        tail_start: impl Into<ArenaStorage<'a, u32>>,
        tails: impl Into<ArenaStorage<'a, T>>,
    ) -> Result<Self, WireError> {
        let (entry_start, keys) = (entry_start.into(), keys.into());
        let (tail_start, tails) = (tail_start.into(), tails.into());
        let corrupt = |what: &'static str| Err(WireError::Corrupt(what));
        if entry_start.first() != Some(&0) || tail_start.first() != Some(&0) {
            return corrupt("offset arrays must start at 0");
        }
        if *entry_start.last().unwrap() as usize != keys.len() {
            return corrupt("entry_start must end at keys.len()");
        }
        if tail_start.len() != keys.len() + 1 {
            return corrupt("tail_start must have one bound per entry plus one");
        }
        if *tail_start.last().unwrap() as usize != tails.len() {
            return corrupt("tail_start must end at tails.len()");
        }
        // each check folds a whole column without branching per element
        let descends = |s: &[u32]| s.windows(2).fold(false, |d, w| d | (w[0] > w[1]));
        if descends(&entry_start) | descends(&tail_start) {
            return corrupt("offset arrays must be non-decreasing");
        }
        let mut rest = &keys[..];
        let mut unordered = false;
        for w in entry_start.windows(2) {
            let (vertex_keys, after) = rest.split_at((w[1] - w[0]) as usize);
            rest = after;
            unordered |= vertex_keys
                .windows(2)
                .fold(false, |u, k| u | (k[0] >= k[1]));
        }
        if unordered {
            return corrupt("keys must be strictly ascending within a vertex");
        }
        Ok(KeyedCsr {
            entry_start,
            keys,
            tail_start,
            tails,
        })
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.entry_start.len() - 1
    }

    /// Total entries across all vertices.
    pub fn num_entries(&self) -> usize {
        self.keys.len()
    }

    /// Vertex `v`'s entry indices.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn entry_range(&self, v: usize) -> Range<usize> {
        self.entry_start[v] as usize..self.entry_start[v + 1] as usize
    }

    /// Entry `e`'s tail.
    ///
    /// # Panics
    ///
    /// Panics if `e >= num_entries()`.
    pub fn tail(&self, e: usize) -> &[T] {
        &self.tails[self.tail_start[e] as usize..self.tail_start[e + 1] as usize]
    }

    /// Every key, vertex-major.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The `num_entries() + 1` tail offsets.
    pub fn tail_start(&self) -> &[u32] {
        &self.tail_start
    }

    /// Every entry's tail, concatenated in entry order.
    pub fn tails(&self) -> &[T] {
        &self.tails
    }

    /// The columns `(entry_start, keys, tail_start, tails)`.
    pub fn as_parts(&self) -> (&[u32], &[u64], &[u32], &[T]) {
        (&self.entry_start, &self.keys, &self.tail_start, &self.tails)
    }

    /// Heap bytes of the four columns, owned or borrowed.
    pub fn heap_bytes(&self) -> usize {
        (self.entry_start.len() + self.tail_start.len()) * 4
            + self.keys.len() * 8
            + std::mem::size_of_val(self.tails.as_slice())
    }

    /// Heap bytes actually owned — zero when every column is borrowed.
    pub fn owned_bytes(&self) -> usize {
        self.entry_start.owned_bytes()
            + self.keys.owned_bytes()
            + self.tail_start.owned_bytes()
            + self.tails.owned_bytes()
    }

    /// True when every column is served in place from an external
    /// buffer (the zero-copy load path).
    pub fn is_borrowed(&self) -> bool {
        self.entry_start.is_borrowed()
            && self.keys.is_borrowed()
            && self.tail_start.is_borrowed()
            && self.tails.is_borrowed()
    }

    /// Copies any borrowed column onto the heap.
    pub fn into_owned(self) -> KeyedCsr<'static, T>
    where
        T: Clone,
    {
        KeyedCsr {
            entry_start: self.entry_start.into_owned(),
            keys: self.keys.into_owned(),
            tail_start: self.tail_start.into_owned(),
            tails: self.tails.into_owned(),
        }
    }

    /// Appends the arena's part of a delta section body:
    ///
    /// ```text
    /// n, E, T                                        3 varints
    /// entry count per vertex                         n varints
    /// keys per vertex: first absolute, then deltas   E varints
    /// … whatever `between` writes …
    /// tail count per entry                           E varints
    /// ```
    ///
    /// The caller writes the tails themselves after this returns.
    pub fn encode_delta_into(&self, out: &mut Vec<u8>, between: impl FnOnce(&mut Vec<u8>)) {
        for count in [self.num_vertices(), self.num_entries(), self.tails.len()] {
            put_varint(out, count as u64);
        }
        for w in self.entry_start.windows(2) {
            put_varint(out, u64::from(w[1] - w[0]));
        }
        for w in self.entry_start.windows(2) {
            let mut prev = 0u64;
            for (i, &key) in self.keys[w[0] as usize..w[1] as usize].iter().enumerate() {
                put_varint(out, if i == 0 { key } else { key - prev });
                prev = key;
            }
        }
        between(out);
        for w in self.tail_start.windows(2) {
            put_varint(out, u64::from(w[1] - w[0]));
        }
    }

    /// Decodes what [`Self::encode_delta_into`] wrote, then the rest of
    /// the body: `between` reads the caller's per-entry columns (given
    /// `entry_start`), `tails` reads the tail column (given
    /// `tail_start`). The body must end there. Every count is bounded by
    /// the bytes left, so corrupt input is a typed error, never a panic
    /// or an oversized allocation.
    pub fn decode_delta<'b, X>(
        mut c: Cursor<'b>,
        between: impl FnOnce(&mut Cursor<'b>, &[u32]) -> Result<X, WireError>,
        tails: impl FnOnce(&mut Cursor<'b>, &[u32]) -> Result<Vec<T>, WireError>,
    ) -> Result<(Self, X), WireError> {
        // every vertex, entry, and tail element costs at least one body
        // byte, so the input length bounds all three counts
        let limit = c.remaining();
        let n = c.length(limit)?;
        let num_entries = c.length(limit)?;
        let num_tails = c.length(limit)?;
        if num_entries > u32::MAX as usize || num_tails > u32::MAX as usize {
            return Err(WireError::Corrupt("section counts exceed u32 offsets"));
        }
        let entry_start = read_offsets(&mut c, n, num_entries)?;
        let mut keys = Vec::with_capacity(num_entries);
        for w in entry_start.windows(2) {
            let mut prev = 0u64;
            for i in 0..w[1] - w[0] {
                let raw = c.varint()?;
                let key = if i == 0 {
                    raw
                } else {
                    prev.checked_add(raw)
                        .ok_or(WireError::Corrupt("key delta overflows"))?
                };
                keys.push(key);
                prev = key;
            }
        }
        let extra = between(&mut c, &entry_start)?;
        let tail_start = read_offsets(&mut c, num_entries, num_tails)?;
        let tails = tails(&mut c, &tail_start)?;
        if c.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes after payload"));
        }
        Ok((KeyedCsr::new(entry_start, keys, tail_start, tails)?, extra))
    }
}

/// Reads `len` varint counts summing to exactly `total` as `len + 1`
/// offsets.
fn read_offsets(c: &mut Cursor<'_>, len: usize, total: usize) -> Result<Vec<u32>, WireError> {
    let mut start = Vec::with_capacity(len + 1);
    start.push(0u32);
    let mut sum = 0usize;
    for _ in 0..len {
        sum += c.length(total)?;
        if sum > total {
            return Err(WireError::Corrupt("counts exceed declared total"));
        }
        start.push(sum as u32);
    }
    if sum != total {
        return Err(WireError::Corrupt("counts do not sum to declared total"));
    }
    Ok(start)
}

impl<'a, T: Pod> KeyedCsr<'a, T> {
    /// Appends the arena's part of a raw section body to `out`, which
    /// must end on an 8-byte boundary so the columns land aligned:
    ///
    /// ```text
    /// n, E, T       u64 LE                       24 bytes
    /// entry_start   (n+1) × u32 LE
    /// pad to 8
    /// keys          E × u64 LE
    /// … whatever `between` writes (a multiple of 8 bytes) …
    /// tail_start    (E+1) × u32 LE
    /// pad to 8
    /// tails         T × T LE
    /// ```
    pub fn encode_raw_into(&self, out: &mut Vec<u8>, between: impl FnOnce(&mut Vec<u8>)) {
        debug_assert!(out.len().is_multiple_of(8), "columns must start aligned");
        for count in [self.num_vertices(), self.num_entries(), self.tails.len()] {
            out.extend_from_slice(&(count as u64).to_le_bytes());
        }
        put_pod_slice(out, &self.entry_start);
        pad_to_8(out);
        put_pod_slice(out, &self.keys);
        between(out);
        put_pod_slice(out, &self.tail_start);
        pad_to_8(out);
        put_pod_slice(out, &self.tails);
    }

    /// Decodes what [`Self::encode_raw_into`] wrote, with `between`
    /// reading the caller's columns (given the entry count), borrowing
    /// every column in place when the host and buffer allow it. The
    /// section must end after the tails. A header that disagrees with
    /// the payload is a typed error, never a panic or misaligned read.
    pub fn decode_raw<X>(
        mut r: SectionReader<'a>,
        between: impl FnOnce(&mut SectionReader<'a>, usize) -> Result<X, WireError>,
    ) -> Result<(Self, X), WireError> {
        let n = r.u64()?;
        let num_entries = r.u64()?;
        let num_tails = r.u64()?;
        if n >= u32::MAX as u64 || num_entries >= u32::MAX as u64 || num_tails > u32::MAX as u64 {
            return Err(WireError::Corrupt("section counts exceed u32 offsets"));
        }
        let entry_start = r.pod_slice(n as usize + 1)?;
        r.align8()?;
        let keys = r.pod_slice(num_entries as usize)?;
        let extra = between(&mut r, num_entries as usize)?;
        let tail_start = r.pod_slice(num_entries as usize + 1)?;
        r.align8()?;
        let tails = r.pod_slice(num_tails as usize)?;
        r.finish()?;
        Ok((KeyedCsr::new(entry_start, keys, tail_start, tails)?, extra))
    }
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
/// Returns the arena and the entries' records in arena order.
///
/// # Panics
///
/// Panics if a vertex is `>= n`, a tail range lies outside `tails`, or
/// a vertex's keys do not ascend in emission order.
pub fn by_vertex<R: Copy, T: Copy>(
    n: usize,
    emitted: &[Emitted<R>],
    tails: &[T],
) -> (KeyedCsr<'static, T>, Vec<R>) {
    let (entry_start, order) = bucket_order(n, emitted.iter().map(|e| e.vertex));
    let mut keys = Vec::with_capacity(emitted.len());
    let mut records = Vec::with_capacity(emitted.len());
    let mut tail_start = Vec::with_capacity(emitted.len() + 1);
    let mut gathered = Vec::with_capacity(tails.len());
    tail_start.push(0);
    for &i in &order {
        let e = &emitted[i as usize];
        keys.push(e.key);
        records.push(e.record);
        gathered.extend_from_slice(&tails[e.tail.start as usize..e.tail.end as usize]);
        tail_start.push(gathered.len() as u32);
    }
    let csr = KeyedCsr::new(entry_start, keys, tail_start, gathered)
        .expect("emission keys ascend within every vertex");
    (csr, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vertex 1 owns keys 1 and 3 with tails `[5, 6]` and `[7, 8]`,
    /// vertex 0 owns key 2 with an empty tail, vertex 2 owns nothing.
    fn sample() -> (KeyedCsr<'static, u64>, Vec<u64>) {
        let emitted =
            [(1, 1, 0..2), (0, 2, 2..2), (1, 3, 2..4)].map(|(vertex, key, tail)| Emitted {
                vertex,
                key,
                record: key * 10,
                tail,
            });
        by_vertex(3, &emitted, &[5u64, 6, 7, 8])
    }

    #[test]
    fn bucket_order_is_a_stable_counting_sort() {
        let (start, order) = bucket_order(4, [2u32, 0, 2, 3, 0].into_iter());
        assert_eq!(start, vec![0, 2, 2, 4, 5]);
        assert_eq!(order, vec![1, 4, 0, 2, 3]);
    }

    #[test]
    fn by_vertex_groups_keys_records_and_gathers_tails() {
        let (csr, records) = sample();
        let parts = (&[0, 1, 3, 3][..], &[2, 1, 3][..], &[0, 0, 2, 4][..]);
        assert_eq!(
            csr.as_parts(),
            (parts.0, parts.1, parts.2, &[5, 6, 7, 8][..])
        );
        assert_eq!(records, vec![20, 10, 30]);
        assert_eq!((csr.entry_range(1), csr.tail(2)), (1..3, &[7, 8][..]));
        let (empty, _) = by_vertex::<(), u8>(2, &[], &[]);
        assert_eq!(
            empty.as_parts(),
            (&[0, 0, 0][..], &[][..], &[0][..], &[][..])
        );
    }

    #[test]
    fn new_rejects_every_broken_invariant() {
        let (csr, _) = sample();
        let (es, keys, ts, tails) = csr.as_parts();
        let build = |es: &[u32], keys: &[u64], ts: &[u32], tails: &[u64]| {
            KeyedCsr::new(es.to_vec(), keys.to_vec(), ts.to_vec(), tails.to_vec())
        };
        assert_eq!(build(es, keys, ts, tails).unwrap(), csr);
        for (es, keys, ts, tails) in [
            (&[1, 1, 3, 3][..], keys, ts, tails), // entry_start not at 0
            (es, keys, &[1, 1, 2, 4][..], tails), // tail_start not at 0
            (&[0, 1, 3, 2][..], keys, ts, tails), // entry_start past keys
            (es, keys, &[0, 0, 4][..], tails),    // a bound short
            (es, keys, ts, &tails[..3]),          // tails short
            (&[0, 2, 1, 3][..], keys, ts, tails), // entry_start decreases
            (es, keys, &[0, 2, 1, 4][..], tails), // tail_start decreases
            (es, &[2, 3, 1][..], ts, tails),      // keys descend in vertex 1
            (es, &[2, 1, 1][..], ts, tails),      // a repeated key
        ] {
            assert!(matches!(
                build(es, keys, ts, tails),
                Err(WireError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn both_codecs_roundtrip_with_a_between_column() {
        let (csr, extra) = sample();
        let mut raw = Vec::new();
        csr.encode_raw_into(&mut raw, |out| put_pod_slice(out, &extra));
        let aligned = crate::wire::AlignedBytes::from_slice(&raw);
        let (back, col) =
            KeyedCsr::<u64>::decode_raw(SectionReader::new(&aligned), |r, e| r.pod_slice::<u64>(e))
                .unwrap();
        assert_eq!((back, &*col), (csr.clone(), &extra[..]));

        let mut delta = Vec::new();
        csr.encode_delta_into(&mut delta, |out| put_varint(out, 42));
        csr.tails().iter().for_each(|&t| put_varint(&mut delta, t));
        let decode = |bytes: &[u8]| {
            KeyedCsr::decode_delta(
                Cursor::new(bytes),
                |c, _| c.varint(),
                |c, ts| (0..*ts.last().unwrap()).map(|_| c.varint()).collect(),
            )
        };
        assert_eq!(decode(&delta).unwrap(), (csr, 42));
        for cut in 0..delta.len() {
            assert!(decode(&delta[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut long = delta.clone();
        long.push(0);
        assert!(decode(&long).is_err());
        // one vertex claiming two of five declared entries
        assert!(decode(&[1, 5, 0, 2, 0, 0, 0, 0, 0, 0]).is_err());
    }
}
