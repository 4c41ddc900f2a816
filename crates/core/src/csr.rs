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
//! storage, and the column order of both section encodings. Header
//! fields outside the arena (the labels' `ε`) are written by the caller
//! before the arena's.
//!
//! The tables and the labels are keyed alike, so a bundle stores the
//! entry offsets and keys once, in the labels section. Each codec
//! therefore comes in two halves: the full encoding (counts, entry
//! offsets, keys, then the tails) and its tails-only half (tail offsets
//! and tails), which the full one calls and which the tables section
//! writes after its own record column. [`KeyedCsr::with_keys_of`] puts
//! such a tails-only arena back over the key columns of an arena that is
//! already checked, checking only the tail offsets.
//!
//! The builders work one `(node, group)` of the decomposition at a
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
        if entry_start.first() != Some(&0) {
            return corrupt("offset arrays must start at 0");
        }
        if *entry_start.last().unwrap() as usize != keys.len() {
            return corrupt("entry_start must end at keys.len()");
        }
        if descends(&entry_start) {
            return corrupt("offset arrays must be non-decreasing");
        }
        check_tail_start(&tail_start, keys.len(), tails.len())?;
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

    /// Assembles an arena over the entry offsets and keys of `keyed`,
    /// which its own constructor already checked, with tails of its own:
    /// only `tail_start` is checked. A borrowed key column stays borrowed
    /// from the same buffer; an owned one is copied.
    pub fn with_keys_of<U>(
        keyed: &KeyedCsr<'a, U>,
        tail_start: impl Into<ArenaStorage<'a, u32>>,
        tails: impl Into<ArenaStorage<'a, T>>,
    ) -> Result<Self, WireError> {
        let (tail_start, tails) = (tail_start.into(), tails.into());
        check_tail_start(&tail_start, keyed.num_entries(), tails.len())?;
        Ok(KeyedCsr {
            entry_start: keyed.entry_start.clone(),
            keys: keyed.keys.clone(),
            tail_start,
            tails,
        })
    }

    /// True when both arenas have the same entry offsets and keys.
    pub fn same_keys<U>(&self, other: &KeyedCsr<'_, U>) -> bool {
        self.entry_start[..] == other.entry_start[..] && self.keys[..] == other.keys[..]
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
    /// tail count per entry                           E varints
    /// ```
    ///
    /// The last line is [`Self::encode_delta_tails_into`]. The caller
    /// writes the tails themselves after this returns.
    pub fn encode_delta_into(&self, out: &mut Vec<u8>) {
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
        self.encode_delta_tails_into(out);
    }

    /// Appends the tails-only half of the delta encoding: one tail count
    /// per entry, `E` varints. The caller writes the tails after it.
    pub fn encode_delta_tails_into(&self, out: &mut Vec<u8>) {
        for w in self.tail_start.windows(2) {
            put_varint(out, u64::from(w[1] - w[0]));
        }
    }

    /// Decodes what [`Self::encode_delta_into`] wrote, then the tail
    /// column through `tails` (see [`Self::decode_delta_tails`]). The
    /// body must end there. Every count is bounded by the bytes left, so
    /// corrupt input is a typed error, never a panic or an oversized
    /// allocation.
    pub fn decode_delta<'b>(
        mut c: Cursor<'b>,
        tails: impl FnOnce(&mut Cursor<'b>, &[u32]) -> Result<Vec<T>, WireError>,
    ) -> Result<Self, WireError> {
        // every vertex, entry, and tail element costs at least one body
        // byte, so the input length bounds all three counts
        let limit = c.remaining();
        let n = c.length(limit)?;
        let num_entries = c.length(limit)?;
        let num_tails = c.length(limit)?;
        if num_entries > u32::MAX as usize {
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
        let (tail_start, tails) = Self::decode_delta_tails(c, num_entries, num_tails, tails)?;
        KeyedCsr::new(entry_start, keys, tail_start, tails)
    }

    /// Decodes what [`Self::encode_delta_tails_into`] wrote for
    /// `num_entries` entries whose tails sum to `num_tails`, then the
    /// tail column: `tails` reads it given the tail offsets. The body
    /// must end there. Returns `(tail_start, tails)`.
    pub fn decode_delta_tails<'b>(
        mut c: Cursor<'b>,
        num_entries: usize,
        num_tails: usize,
        tails: impl FnOnce(&mut Cursor<'b>, &[u32]) -> Result<Vec<T>, WireError>,
    ) -> Result<(Vec<u32>, Vec<T>), WireError> {
        if num_tails > u32::MAX as usize {
            return Err(WireError::Corrupt("section counts exceed u32 offsets"));
        }
        let tail_start = read_offsets(&mut c, num_entries, num_tails)?;
        let tails = tails(&mut c, &tail_start)?;
        if c.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes after payload"));
        }
        Ok((tail_start, tails))
    }
}

/// True when some offset is smaller than the one before it; folds the
/// whole column without branching per element.
fn descends(s: &[u32]) -> bool {
    s.windows(2).fold(false, |d, w| d | (w[0] > w[1]))
}

/// Checks tail offsets for `num_entries` entries over `num_tails` tails:
/// one bound per entry plus one, starting at 0, never decreasing, ending
/// at `num_tails`.
fn check_tail_start(
    tail_start: &[u32],
    num_entries: usize,
    num_tails: usize,
) -> Result<(), WireError> {
    let corrupt = |what: &'static str| Err(WireError::Corrupt(what));
    if tail_start.len() != num_entries + 1 {
        return corrupt("tail_start must have one bound per entry plus one");
    }
    if tail_start[0] != 0 {
        return corrupt("offset arrays must start at 0");
    }
    if tail_start[num_entries] as usize != num_tails {
        return corrupt("tail_start must end at tails.len()");
    }
    if descends(tail_start) {
        return corrupt("offset arrays must be non-decreasing");
    }
    Ok(())
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
    /// tail_start    (E+1) × u32 LE
    /// pad to 8
    /// tails         T × T LE
    /// ```
    ///
    /// The last three lines are [`Self::encode_raw_tails_into`].
    pub fn encode_raw_into(&self, out: &mut Vec<u8>) {
        debug_assert!(out.len().is_multiple_of(8), "columns must start aligned");
        for count in [self.num_vertices(), self.num_entries(), self.tails.len()] {
            out.extend_from_slice(&(count as u64).to_le_bytes());
        }
        put_pod_slice(out, &self.entry_start);
        pad_to_8(out);
        put_pod_slice(out, &self.keys);
        self.encode_raw_tails_into(out);
    }

    /// Appends the tails-only half of the raw encoding — `tail_start`,
    /// zero padding to 8, the tails — to `out`, which must end on an
    /// 8-byte boundary.
    pub fn encode_raw_tails_into(&self, out: &mut Vec<u8>) {
        debug_assert!(out.len().is_multiple_of(8), "columns must start aligned");
        put_pod_slice(out, &self.tail_start);
        pad_to_8(out);
        put_pod_slice(out, &self.tails);
    }

    /// Decodes what [`Self::encode_raw_into`] wrote, borrowing every
    /// column in place when the host and buffer allow it. The section
    /// must end after the tails. A header that disagrees with the
    /// payload is a typed error, never a panic or misaligned read.
    pub fn decode_raw(mut r: SectionReader<'a>) -> Result<Self, WireError> {
        let n = r.u64()?;
        let num_entries = r.u64()?;
        let num_tails = r.u64()?;
        if n >= u32::MAX as u64 || num_entries >= u32::MAX as u64 {
            return Err(WireError::Corrupt("section counts exceed u32 offsets"));
        }
        let entry_start = r.pod_slice(n as usize + 1)?;
        r.align8()?;
        let keys = r.pod_slice(num_entries as usize)?;
        let (tail_start, tails) = Self::decode_raw_tails(r, num_entries as usize, num_tails)?;
        KeyedCsr::new(entry_start, keys, tail_start, tails)
    }

    /// Decodes what [`Self::encode_raw_tails_into`] wrote for
    /// `num_entries` entries (an arena's entry count, so below
    /// `u32::MAX`) and `num_tails` tails, borrowing in place when it
    /// can; the section must end there. Returns `(tail_start, tails)`,
    /// unchecked beyond their lengths.
    pub fn decode_raw_tails(
        mut r: SectionReader<'a>,
        num_entries: usize,
        num_tails: u64,
    ) -> Result<(ArenaStorage<'a, u32>, ArenaStorage<'a, T>), WireError> {
        if num_tails > u32::MAX as u64 {
            return Err(WireError::Corrupt("section counts exceed u32 offsets"));
        }
        let tail_start = r.pod_slice(num_entries + 1)?;
        r.align8()?;
        let tails = r.pod_slice(num_tails as usize)?;
        r.finish()?;
        Ok((tail_start, tails))
    }
}

/// Stable counting sort of `(bucket, item)` pairs into `buckets`
/// buckets: returns `(start, sorted)` such that bucket `b` holds its
/// items `sorted[start[b]..start[b + 1]]`, in input order.
///
/// # Panics
///
/// Panics if a bucket is `>= buckets`.
pub fn bucket_order<X: Copy + Default>(
    buckets: usize,
    items: impl Iterator<Item = (u32, X)> + Clone,
) -> (Vec<u32>, Vec<X>) {
    let mut start = vec![0u32; buckets + 1];
    for (b, _) in items.clone() {
        start[b as usize + 1] += 1;
    }
    for b in 0..buckets {
        start[b + 1] += start[b];
    }
    let mut cursor = start[..buckets].to_vec();
    let mut sorted = vec![X::default(); start[buckets] as usize];
    for (b, x) in items {
        let slot = &mut cursor[b as usize];
        sorted[*slot as usize] = x;
        *slot += 1;
    }
    (start, sorted)
}

/// Groups the emission by vertex over `n` vertices, keeping emission
/// order within each vertex, and gathers each entry's tail. The
/// emission comes in parts (one per task, in task order), each entry's
/// tail a range of its part's tails, which parts may share; no part is
/// copied before the gather. Returns the arena and the entries' records
/// in arena order.
///
/// # Panics
///
/// Panics if a vertex is `>= n`, a tail range lies outside its part's
/// tails, or a vertex's keys do not ascend in emission order.
pub fn by_vertex<R: Copy, T: Copy>(
    n: usize,
    parts: &[(&[Emitted<R>], &[T])],
) -> (KeyedCsr<'static, T>, Vec<R>) {
    // each entry as (its vertex, (its part, its index in the part))
    let located = parts.iter().enumerate().flat_map(|(p, (emitted, _))| {
        let indexed = emitted.iter().enumerate();
        indexed.map(move |(i, e)| (e.vertex, (p as u32, i as u32)))
    });
    let (entry_start, order) = bucket_order(n, located);
    let num_tails = parts.iter().flat_map(|p| p.0).map(|e| e.tail.len()).sum();
    let mut keys = Vec::with_capacity(order.len());
    let mut records = Vec::with_capacity(order.len());
    let mut tail_start = Vec::with_capacity(order.len() + 1);
    let mut gathered = Vec::with_capacity(num_tails);
    tail_start.push(0);
    for &(p, i) in &order {
        let (emitted, tails) = parts[p as usize];
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
        // two parts: the second's tail ranges index its own tails
        let (first, second) = emitted.split_at(2);
        let mut second = second.to_vec();
        second[0].tail = 0..2;
        by_vertex(3, &[(first, &[5u64, 6]), (&[], &[]), (&second, &[7, 8])])
    }

    #[test]
    fn bucket_order_is_a_stable_counting_sort() {
        let buckets = [2u32, 0, 2, 3, 0];
        let (start, order) = bucket_order(4, buckets.into_iter().zip(0u32..));
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
        // parts that index one shared tails buffer, as a worker's groups
        // do, gather the same arena
        let entry = |vertex, key, tail| Emitted {
            vertex,
            key,
            record: key * 10,
            tail,
        };
        let shared = [9u64, 5, 6, 7, 8];
        let (first, second) = ([entry(1, 1, 1..3), entry(0, 2, 3..3)], [entry(1, 3, 3..5)]);
        let (again, again_records) = by_vertex(3, &[(&first, &shared), (&second, &shared)]);
        assert_eq!((again.as_parts(), again_records), (csr.as_parts(), records));
        let (empty, _) = by_vertex::<(), u8>(2, &[]);
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
    fn both_codecs_roundtrip() {
        let (csr, _) = sample();
        let mut raw = Vec::new();
        csr.encode_raw_into(&mut raw);
        let aligned = crate::wire::AlignedBytes::from_slice(&raw);
        let back = KeyedCsr::<u64>::decode_raw(SectionReader::new(&aligned)).unwrap();
        assert_eq!(back, csr);
        assert!(back.is_borrowed());

        let mut delta = Vec::new();
        csr.encode_delta_into(&mut delta);
        csr.tails().iter().for_each(|&t| put_varint(&mut delta, t));
        let decode = |bytes: &[u8]| {
            KeyedCsr::decode_delta(Cursor::new(bytes), |c, ts| {
                (0..*ts.last().unwrap()).map(|_| c.varint()).collect()
            })
        };
        assert_eq!(decode(&delta).unwrap(), csr);
        for cut in 0..delta.len() {
            assert!(decode(&delta[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut long = delta.clone();
        long.push(0);
        assert!(decode(&long).is_err());
        // one vertex claiming two of five declared entries
        assert!(decode(&[1, 5, 0, 2, 0, 0, 0, 0, 0, 0]).is_err());
    }

    /// The tails-only halves round-trip over another arena's keys, and
    /// the full encodings end in them.
    #[test]
    fn tails_only_halves_roundtrip_over_shared_keys() {
        let (csr, _) = sample();
        let mut raw = Vec::new();
        csr.encode_raw_tails_into(&mut raw);
        let mut full = Vec::new();
        csr.encode_raw_into(&mut full);
        assert!(full.ends_with(&raw));
        let aligned = crate::wire::AlignedBytes::from_slice(&raw);
        let (ts, tails) =
            KeyedCsr::<u64>::decode_raw_tails(SectionReader::new(&aligned), 3, 4).unwrap();
        let full = crate::wire::AlignedBytes::from_slice(&full);
        let keyed = KeyedCsr::<u64>::decode_raw(SectionReader::new(&full)).unwrap();
        let back = KeyedCsr::with_keys_of(&keyed, ts, tails).unwrap();
        assert_eq!(back, csr);
        assert_eq!(back.keys().as_ptr(), keyed.keys().as_ptr());
        for (entries, tails) in [(2, 4), (4, 4), (3, 3), (3, 5)] {
            assert!(KeyedCsr::<u64>::decode_raw_tails(
                SectionReader::new(&aligned),
                entries,
                tails
            )
            .is_err());
        }

        let mut delta = Vec::new();
        csr.encode_delta_tails_into(&mut delta);
        let mut full = Vec::new();
        csr.encode_delta_into(&mut full);
        assert!(full.ends_with(&delta));
        csr.tails().iter().for_each(|&t| put_varint(&mut delta, t));
        let decode = |bytes: &[u8], entries, tails| {
            KeyedCsr::decode_delta_tails(Cursor::new(bytes), entries, tails, |c, ts| {
                (0..*ts.last().unwrap()).map(|_| c.varint()).collect()
            })
        };
        let (ts, tails) = decode(&delta, 3, 4).unwrap();
        assert_eq!(KeyedCsr::with_keys_of(&keyed, ts, tails).unwrap(), csr);
        for (entries, tails) in [(2, 4), (4, 4), (3, 3), (3, 5)] {
            assert!(decode(&delta, entries, tails).is_err());
        }
    }

    #[test]
    fn with_keys_of_checks_the_tail_offsets() {
        let (csr, _) = sample();
        let (_, _, ts, tails) = csr.as_parts();
        let build =
            |ts: &[u32], tails: &[u64]| KeyedCsr::with_keys_of(&csr, ts.to_vec(), tails.to_vec());
        assert_eq!(build(ts, tails).unwrap(), csr);
        for (ts, tails) in [
            (&[1, 1, 2, 4][..], tails), // not at 0
            (&[0, 0, 4][..], tails),    // a bound short
            (ts, &tails[..3]),          // tails short
            (&[0, 2, 1, 4][..], tails), // decreasing
        ] {
            assert!(matches!(build(ts, tails), Err(WireError::Corrupt(_))));
        }
        let other = KeyedCsr::new(vec![0, 0, 1, 1], vec![9], vec![0, 0], Vec::<u8>::new());
        assert!(!csr.same_keys(&other.unwrap()));
        assert!(csr.same_keys(&build(ts, tails).unwrap()));
    }
}
