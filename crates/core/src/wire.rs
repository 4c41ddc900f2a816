//! Binary wire-format primitives shared by every `psep-*` artifact:
//! LEB128 varints, zigzag signed encoding, a CRC-32 checksum, and a
//! bounds-checked cursor.
//!
//! [`seal`] and [`unseal`] frame one checksummed envelope:
//!
//! ```text
//! magic (8 bytes) | version varint | payload … | crc32(version‖payload) LE (4 bytes)
//! ```
//!
//! The checksum covers everything after the magic and before itself, so
//! any bit flip in the body is rejected before decoding begins. The
//! `psep-bundle` container is the one artifact sealed this way; the
//! section bodies inside it carry no envelope of their own.
//!
//! Opening a mapped bundle does no per-entry work on its arenas, so the
//! one checksum pass is most of its cold start. [`crc32`] therefore runs
//! a carry-less-multiply kernel (x86-64 `PCLMULQDQ`, detected at run
//! time) on inputs of 128 bytes or more, and a slicing-by-8 table loop
//! on shorter inputs, tails and other CPUs; both give the same bits.
//!
//! An owned open decodes the varint columns of the delta sections
//! instead, so [`Cursor`] is built for column-at-once reading:
//! [`Cursor::varint`] inlines its one-byte case into the caller's loop,
//! and [`Cursor::take_varints`] splits off a column of known element
//! count by counting terminator bytes eight at a time, so a decoder can
//! read several columns in lockstep with one cursor each.

/// A wire-format decode failure.
#[derive(Debug)]
pub enum WireError {
    /// The leading magic bytes did not match the expected artifact type.
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 8],
        /// The bytes actually found (zero-padded if the input was short).
        found: [u8; 8],
    },
    /// The artifact's version is newer than this decoder understands.
    UnsupportedVersion(u64),
    /// The stored checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the artifact.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The input ended before the payload was complete.
    Truncated,
    /// The payload decoded but violates a structural invariant.
    Corrupt(&'static str),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`) as a
/// varint, for deltas that can go either way.
pub fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// Checksum throughput bounds the cold start of a mapped
/// `psep-bundle/v4` — the one pass over the envelope is the *only* O(n)
/// work on that path for the label and table arenas — so this is a
/// serving-latency function, not just an integrity check.
///
/// Two kernels compute it, with the same output on every host. On
/// x86-64 CPUs with the carry-less multiply instruction (`PCLMULQDQ`,
/// detected at run time), an input of 128 bytes or more is folded 64
/// bytes per round at close to memory bandwidth. A slicing-by-8 table
/// loop (eight bytes per table round) takes the bytes after the last
/// 16-byte block, every shorter input, and every input on a CPU without
/// the instruction.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 128 && clmul::detected() {
        let (blocks, tail) = bytes.as_chunks::<16>();
        // SAFETY: `detected` confirmed every target feature of
        // `clmul::update` on this CPU.
        let crc = unsafe { clmul::update(u32::MAX, blocks) };
        return !crc32_table(crc, tail);
    }
    !crc32_table(u32::MAX, bytes)
}

/// Slicing-by-8 table kernel: advances the raw (uninverted) CRC register
/// `crc` over `bytes`.
fn crc32_table(mut crc: u32, bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = T[7][(lo & 0xff) as usize]
            ^ T[6][((lo >> 8) & 0xff) as usize]
            ^ T[5][((lo >> 16) & 0xff) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xff) as usize]
            ^ T[2][((hi >> 8) & 0xff) as usize]
            ^ T[1][((hi >> 16) & 0xff) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Carry-less-multiply CRC-32 kernel: Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), with the bit-reflected constants of `0xEDB88320`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // `x^e mod P(x)`, bit-reflected and shifted left one bit: (K1, K2)
    // fold a 128-bit lane across 512 bits, (K3, K4) across 128, K5 folds
    // 96 bits to 64.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    // P(x) and μ = ⌊x^64 / P(x)⌋, bit-reflected, for the Barrett step.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU has every target feature of [`update`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the raw (uninverted) CRC register `crc` over `blocks`.
    ///
    /// Four 128-bit lanes fold 64 bytes per round, prefetching one page
    /// ahead; they then fold into one lane, which takes the remaining
    /// blocks. The 128-bit remainder folds to 64 bits, and a Barrett
    /// reduction takes it to 32.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` holds fewer than four 16-byte blocks.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (rounds, rest) = blocks.as_chunks::<4>();
        let (first, rounds) = rounds.split_first().expect("at least four blocks");
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for round in rounds {
            // Hardware prefetchers stop at 4 KiB page boundaries; asking
            // for the line one page ahead keeps a cold buffer streaming
            // (a prefetch past the end of `blocks` is a no-op hint).
            _mm_prefetch::<_MM_HINT_T0>(round.as_ptr().cast::<i8>().wrapping_add(4096));
            for (lane, b) in lanes.iter_mut().zip(round) {
                *lane = fold(*lane, load(b), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [l0, l1, l2, l3] = lanes;
        let mut x = fold(fold(fold(l0, l1, k3k4), l2, k3k4), l3, k3k4);
        for b in rest {
            x = fold(x, load(b), k3k4);
        }
        // 128 → 96 bits: the low half times K4, plus the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 bits times K5, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // register is the upper half of R ⊕ T2 (reflected bit order).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }

    /// `lane·K ⊕ next`: carries the 128-bit `lane` forward over the
    /// distance that `k` encodes (low half times `k`'s low constant,
    /// high half times its high constant) and adds the next block.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, k, 0x00);
        let hi = _mm_clmulepi64_si128(lane, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128`
        // takes any alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // t[j][b] = CRC of byte b followed by j zero bytes.
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// A bounds-checked read cursor over a received byte buffer.
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one LEB128 varint.
    ///
    /// Most varints of a section body are one byte, so that case is
    /// inlined into the caller's loop; longer ones take an out-of-line
    /// call.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.varint_slow(),
        }
    }

    /// [`Self::varint`] for any length, truncated and overlong input
    /// included.
    #[inline(never)]
    fn varint_slow(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(WireError::Truncated);
            };
            self.pos += 1;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::Corrupt("varint overflows u64"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Advances past `count` varints without decoding them, by counting
    /// their terminator bytes (high bit clear) eight bytes at a time.
    /// Where every one of `count` [`Self::varint`] calls would succeed,
    /// this lands where they would. It does not check lengths, so an
    /// overlong varint is caught by whoever decodes the skipped bytes.
    /// Fewer than `count` terminators left is [`WireError::Truncated`],
    /// with the cursor unmoved.
    pub fn skip_varints(&mut self, count: usize) -> Result<(), WireError> {
        const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
        if count == 0 {
            return Ok(());
        }
        let rest = &self.buf[self.pos..];
        let mut left = count;
        let mut words = rest.chunks_exact(8);
        let mut skipped = 0;
        // whole words while the last terminator lies beyond them
        for word in words.by_ref() {
            let w = u64::from_le_bytes(word.try_into().expect("chunk of 8 bytes"));
            let ends = (!w & HIGH_BITS).count_ones() as usize;
            if ends >= left {
                break;
            }
            left -= ends;
            skipped += 8;
        }
        for (i, &byte) in rest[skipped..].iter().enumerate() {
            if byte < 0x80 {
                left -= 1;
                if left == 0 {
                    self.pos += skipped + i + 1;
                    return Ok(());
                }
            }
        }
        Err(WireError::Truncated)
    }

    /// Splits off the next `count` varints as a cursor of their own and
    /// advances past them (see [`Self::skip_varints`]): a column of a
    /// known element count, to be read alongside the columns after it.
    pub fn take_varints(&mut self, count: usize) -> Result<Cursor<'a>, WireError> {
        let mut end = *self;
        end.skip_varints(count)?;
        let column = &self.buf[self.pos..end.pos];
        self.pos = end.pos;
        Ok(Cursor::new(column))
    }

    /// Reads one varint and checks it fits `usize` and is at most
    /// `limit` (a decompression-bomb guard derived from the input size).
    #[inline]
    pub fn length(&mut self, limit: usize) -> Result<usize, WireError> {
        let v = self.varint()?;
        if v > limit as u64 {
            return Err(WireError::Corrupt("length exceeds plausible bound"));
        }
        Ok(v as usize)
    }

    /// Reads one zigzag-encoded signed varint.
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, WireError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

/// Completes an envelope in place: appends the CRC-32 of everything
/// after `artifact`'s 8 magic bytes (version varint first), so the
/// payload is checksummed where it was written and never copied.
///
/// # Panics
///
/// Panics if `artifact` is shorter than the 8 magic bytes.
pub fn seal(artifact: &mut Vec<u8>) {
    let crc = crc32(&artifact[8..]);
    artifact.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies `data`'s magic and checksum, returning the enclosed payload
/// (version varint first). Every payload byte checksummed here is
/// counted in `core.wire.crc_bytes`.
pub fn unseal<'a>(magic: &[u8; 8], data: &'a [u8]) -> Result<&'a [u8], WireError> {
    if data.len() < 8 + 4 {
        return Err(WireError::Truncated);
    }
    if &data[..8] != magic {
        let mut found = [0u8; 8];
        found.copy_from_slice(&data[..8]);
        return Err(WireError::BadMagic {
            expected: *magic,
            found,
        });
    }
    let payload = &data[8..data.len() - 4];
    let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    let computed = crc32(payload);
    psep_obs::counter!("core.wire.crc_bytes").add(payload.len() as u64);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Zero-copy primitives for `psep-bundle` raw sections.
//
// Raw sections are aligned little-endian arrays so the wire bytes *are*
// the serving representation: on little-endian hosts a properly aligned
// buffer is borrowed in place (`ArenaStorage::Borrowed`), anywhere else
// the same bytes decode element-by-element into an owned arena with
// identical contents. Queries are bit-identical either way.
// ---------------------------------------------------------------------------

/// Backing storage for a flat arena column: either an owned `Vec` (the
/// build path, or the decode fallback) or a slice borrowed straight
/// from a mapped wire buffer (the zero-copy path).
///
/// Dereferences to `&[T]`, so arena code is storage-oblivious.
#[derive(Debug)]
pub enum ArenaStorage<'a, T> {
    /// Heap-owned column (built in memory or decoded from the wire).
    Owned(Vec<T>),
    /// Column borrowed in place from an externally owned buffer.
    Borrowed(&'a [T]),
}

impl<'a, T> ArenaStorage<'a, T> {
    /// The column as a plain slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            ArenaStorage::Owned(v) => v,
            ArenaStorage::Borrowed(s) => s,
        }
    }

    /// True if this column borrows from an external buffer.
    pub fn is_borrowed(&self) -> bool {
        matches!(self, ArenaStorage::Borrowed(_))
    }

    /// Heap bytes owned by this column (zero when borrowed).
    pub fn owned_bytes(&self) -> usize {
        match self {
            ArenaStorage::Owned(v) => std::mem::size_of_val(v.as_slice()),
            ArenaStorage::Borrowed(_) => 0,
        }
    }
}

impl<T: Clone> ArenaStorage<'_, T> {
    /// Converts into an owned column, copying if borrowed.
    pub fn into_owned(self) -> ArenaStorage<'static, T> {
        match self {
            ArenaStorage::Owned(v) => ArenaStorage::Owned(v),
            ArenaStorage::Borrowed(s) => ArenaStorage::Owned(s.to_vec()),
        }
    }
}

impl<T> std::ops::Deref for ArenaStorage<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Clone> Clone for ArenaStorage<'_, T> {
    fn clone(&self) -> Self {
        match self {
            ArenaStorage::Owned(v) => ArenaStorage::Owned(v.clone()),
            ArenaStorage::Borrowed(s) => ArenaStorage::Borrowed(s),
        }
    }
}

impl<T: PartialEq> PartialEq for ArenaStorage<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for ArenaStorage<'_, T> {}

impl<T> Default for ArenaStorage<'_, T> {
    fn default() -> Self {
        ArenaStorage::Owned(Vec::new())
    }
}

impl<T> From<Vec<T>> for ArenaStorage<'_, T> {
    fn from(v: Vec<T>) -> Self {
        ArenaStorage::Owned(v)
    }
}

/// A plain-old-data element of a raw wire column.
///
/// # Safety
///
/// Implementors guarantee: the type is `#[repr(C)]` or
/// `#[repr(transparent)]` with no padding bytes (`SIZE` equals the sum
/// of field sizes), every bit pattern is a valid value, and the
/// in-memory layout on a little-endian host equals the wire layout
/// (fields in declaration order, each little-endian). Those invariants
/// are what make `cast_pod_slice`'s pointer cast sound.
pub unsafe trait Pod: Copy + 'static {
    /// Wire size of one element in bytes.
    const SIZE: usize;
    /// Decodes one element from exactly [`Pod::SIZE`] little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;
    /// Appends this element as [`Pod::SIZE`] little-endian bytes.
    fn write_le(&self, out: &mut Vec<u8>);
}

// SAFETY: a primitive integer — 4 bytes, no padding, every bit pattern
// valid, little-endian in memory on the hosts that borrow in place.
unsafe impl Pod for u32 {
    const SIZE: usize = 4;
    fn read_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes[..4].try_into().unwrap())
    }
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

// SAFETY: a primitive integer — 8 bytes, no padding, every bit pattern
// valid, little-endian in memory on the hosts that borrow in place.
unsafe impl Pod for u64 {
    const SIZE: usize = 8;
    fn read_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes[..8].try_into().unwrap())
    }
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

// SAFETY: `NodeId` is `#[repr(transparent)]` over `u32` — same layout,
// no padding, every bit pattern valid.
unsafe impl Pod for psep_graph::NodeId {
    const SIZE: usize = 4;
    fn read_le(bytes: &[u8]) -> Self {
        psep_graph::NodeId(u32::read_le(bytes))
    }
    fn write_le(&self, out: &mut Vec<u8>) {
        self.0.write_le(out);
    }
}

/// Reinterprets `bytes` as a `[T]` in place. Returns `None` unless the
/// host is little-endian, the length is an exact multiple of
/// [`Pod::SIZE`], and the pointer is aligned for `T` — the conditions
/// under which the wire layout and the in-memory layout coincide.
fn cast_pod_slice<T: Pod>(bytes: &[u8]) -> Option<&[T]> {
    if !cfg!(target_endian = "little")
        || std::mem::size_of::<T>() != T::SIZE
        || !bytes.len().is_multiple_of(T::SIZE)
        || bytes.as_ptr().align_offset(std::mem::align_of::<T>()) != 0
    {
        return None;
    }
    // SAFETY: `T: Pod` guarantees no padding, any-bit-pattern validity,
    // and wire == memory layout on little-endian; length and alignment
    // were checked above; the borrow ties the slice to `bytes`.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / T::SIZE) })
}

/// Appends a column as little-endian wire bytes. On little-endian hosts
/// with layout-faithful `T` this is one bulk copy; otherwise it falls
/// back to per-element encoding. Output bytes are identical either way.
pub fn put_pod_slice<T: Pod>(out: &mut Vec<u8>, items: &[T]) {
    if cfg!(target_endian = "little") && std::mem::size_of::<T>() == T::SIZE {
        // SAFETY: `T: Pod` — no padding, memory layout == wire layout on
        // little-endian hosts — so the element bytes are the wire bytes.
        let raw = unsafe {
            std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items))
        };
        out.extend_from_slice(raw);
    } else {
        out.reserve(items.len() * T::SIZE);
        for it in items {
            it.write_le(out);
        }
    }
}

/// Appends zero bytes until `out.len()` is a multiple of 8 — raw columns
/// are 8-aligned relative to their section start.
pub fn pad_to_8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// A structured reader over one raw section: scalar fields, aligned pod
/// columns, and explicit zero padding, with typed errors for every
/// header/payload disagreement.
#[derive(Debug)]
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Reader at the start of `bytes` (a full section payload).
    pub fn new(bytes: &'a [u8]) -> Self {
        SectionReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a column of `count` pod elements: borrowed in place when
    /// the host and buffer allow it, decoded element by element into an
    /// owned column otherwise, with identical contents either way. The
    /// column must start 8-aligned relative to the section start (that
    /// is how the encoder laid it out), so a misaligned position means
    /// the declared lengths disagree with the payload.
    pub fn pod_slice<T: Pod>(&mut self, count: usize) -> Result<ArenaStorage<'a, T>, WireError> {
        if !self.pos.is_multiple_of(8) {
            return Err(WireError::Corrupt("misaligned section column"));
        }
        let len = count
            .checked_mul(T::SIZE)
            .ok_or(WireError::Corrupt("pod column length overflows"))?;
        let bytes = self.take(len)?;
        Ok(match cast_pod_slice::<T>(bytes) {
            Some(s) => ArenaStorage::Borrowed(s),
            None => ArenaStorage::Owned(bytes.chunks_exact(T::SIZE).map(T::read_le).collect()),
        })
    }

    /// Consumes zero padding up to the next 8-byte boundary. A nonzero
    /// pad byte means the payload was not produced by the canonical
    /// encoder.
    pub fn align8(&mut self) -> Result<(), WireError> {
        while !self.pos.is_multiple_of(8) {
            let b = self.take(1)?[0];
            if b != 0 {
                return Err(WireError::Corrupt("nonzero section padding"));
            }
        }
        Ok(())
    }

    /// Asserts the section was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::Corrupt("trailing bytes in section"));
        }
        Ok(())
    }
}

/// An 8-aligned owned byte buffer: the canonical way to hold bundle
/// bytes so every section column can be borrowed in place.
///
/// `Vec<u8>` only guarantees 1-byte alignment; this buffer is backed by
/// `Vec<u64>`, so its base address is always 8-aligned and in-place
/// borrowing is deterministic rather than allocator-dependent.
#[derive(Clone, Debug, Default)]
pub struct AlignedBytes {
    buf: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh 8-aligned buffer.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: the destination holds `words * 8 >= bytes.len()` bytes
        // and u64 has no validity constraints on its bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                buf.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        AlignedBytes {
            buf,
            len: bytes.len(),
        }
    }

    /// Reads a whole file into an 8-aligned buffer.
    pub fn read_file(path: &std::path::Path) -> Result<Self, WireError> {
        Ok(AlignedBytes::from_slice(&std::fs::read(path)?))
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `buf` owns at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast::<u8>(), self.len) }
    }
}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint().unwrap(), v);
            assert_eq!(c.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            assert_eq!(Cursor::new(&buf).zigzag().unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_is_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 20);
        buf.pop();
        assert!(matches!(
            Cursor::new(&buf).varint(),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xffu8; 11];
        assert!(matches!(
            Cursor::new(&buf).varint(),
            Err(WireError::Corrupt(_))
        ));
    }

    /// Where `k` sequential [`Cursor::varint`] calls from `start` land,
    /// or the first error they meet.
    fn varints_end(buf: &[u8], start: usize, k: usize) -> Result<usize, WireError> {
        let mut c = Cursor::new(&buf[start..]);
        for _ in 0..k {
            c.varint()?;
        }
        Ok(buf.len() - c.remaining())
    }

    /// `varint` and `varint_slow` read the same value and length, or
    /// fail the same way.
    fn assert_paths_agree(buf: &[u8]) {
        let (mut fast, mut slow) = (Cursor::new(buf), Cursor::new(buf));
        let (a, b) = (fast.varint(), slow.varint_slow());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{buf:02x?}");
        if a.is_ok() {
            assert_eq!(fast.remaining(), slow.remaining(), "{buf:02x?}");
        }
    }

    #[test]
    fn varint_paths_agree_on_every_two_byte_input() {
        assert_paths_agree(&[]);
        for b0 in 0..=255u8 {
            assert_paths_agree(&[b0]);
            for b1 in 0..=255u8 {
                assert_paths_agree(&[b0, b1]);
            }
        }
    }

    #[test]
    fn skip_varints_handles_counts_at_the_edges() {
        let mut buf = Vec::new();
        for v in [0u64, 127, 128, 1 << 40, u64::MAX, 5] {
            put_varint(&mut buf, v);
        }
        for k in 0..=6 {
            let mut c = Cursor::new(&buf);
            c.skip_varints(k).unwrap();
            assert_eq!(buf.len() - c.remaining(), varints_end(&buf, 0, k).unwrap());
        }
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.skip_varints(7), Err(WireError::Truncated)));
        assert_eq!(c.remaining(), buf.len(), "a short input leaves the cursor");
        let column = c.take_varints(2).unwrap();
        assert_eq!((column.remaining(), c.remaining()), (2, buf.len() - 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// On byte soup (a set high bit half the time, so varints of
        /// every length and inputs that end inside one are common)
        /// `skip_varints(k)` lands where `k` `varint` calls land, and is
        /// `Truncated` where they run out.
        #[test]
        fn skip_varints_lands_where_varint_calls_land(
            buf in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
            k in 0usize..48,
            start in 0usize..12,
        ) {
            let start = start.min(buf.len());
            let mut c = Cursor::new(&buf);
            c.bytes(start).unwrap();
            let skipped = c.skip_varints(k);
            match varints_end(&buf, start, k) {
                Ok(end) => {
                    proptest::prop_assert!(skipped.is_ok());
                    proptest::prop_assert_eq!(buf.len() - c.remaining(), end);
                }
                Err(WireError::Truncated) => {
                    proptest::prop_assert!(matches!(skipped, Err(WireError::Truncated)));
                    proptest::prop_assert_eq!(c.remaining(), buf.len() - start);
                }
                // an overlong varint: skipping does not check lengths
                Err(_) => {}
            }
        }

        /// Every 1–11-byte encoding: `len - 1` continuation bytes and a
        /// terminator, overflowing ones (10 bytes with a last byte above
        /// 1, and 11 bytes) included.
        #[test]
        fn varint_paths_agree_at_every_length(
            len in 1usize..=11,
            payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 11),
        ) {
            let mut buf: Vec<u8> = payload[..len - 1].iter().map(|b| b | 0x80).collect();
            buf.push(payload[len - 1] & 0x7f);
            assert_paths_agree(&buf);
            buf.push(payload[0]);
            assert_paths_agree(&buf);
        }
    }

    #[test]
    fn crc32_known_vector() {
        // the canonical IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32: the definition both kernels must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Asserts the dispatched `crc32`, the table kernel and (where the
    /// CPU has it) the carry-less-multiply kernel all equal the
    /// bit-at-a-time reference on `bytes`.
    fn assert_kernels_agree(bytes: &[u8]) {
        let (want, len) = (crc32_bitwise(bytes), bytes.len());
        assert_eq!(crc32(bytes), want, "dispatched, len {len}");
        assert_eq!(!crc32_table(u32::MAX, bytes), want, "table, len {len}");
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64 && clmul::detected() {
            let (blocks, tail) = bytes.as_chunks::<16>();
            // SAFETY: `detected` confirmed the kernel's target features.
            let crc = unsafe { clmul::update(u32::MAX, blocks) };
            assert_eq!(!crc32_table(crc, tail), want, "clmul, len {len}");
        }
    }

    #[test]
    fn crc32_kernels_agree_at_every_length_and_offset() {
        use rand::{RngCore, SeedableRng};
        let mut buf = vec![0u8; 1024 + 16];
        rand_chacha::ChaCha8Rng::seed_from_u64(0xC3C3).fill_bytes(&mut buf);
        for offset in 0..16 {
            for len in 0..=1024 {
                assert_kernels_agree(&buf[offset..offset + len]);
            }
        }
    }

    #[test]
    fn crc32_kernels_agree_on_large_random_buffers() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let mut lens: Vec<usize> = vec![1 << 20, (1 << 20) - 1, 65_536 + 15, 4096 + 64 + 16];
        lens.extend((0..8).map(|_| rng.gen_range(128usize..=1 << 20)));
        for len in lens {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            assert_kernels_agree(&buf);
        }
    }

    #[test]
    fn seal_unseal_roundtrip_and_rejection() {
        let magic = b"PSEPTEST";
        let payload = b"\x01hello world payload";
        let mut sealed = magic.to_vec();
        sealed.extend_from_slice(payload);
        seal(&mut sealed);
        assert_eq!(unseal(magic, &sealed).unwrap(), payload);

        // flipped payload byte → checksum mismatch
        let mut bad = sealed.clone();
        bad[10] ^= 0x40;
        assert!(matches!(
            unseal(magic, &bad),
            Err(WireError::ChecksumMismatch { .. })
        ));

        // wrong magic
        assert!(matches!(
            unseal(b"PSEPXXXX", &sealed),
            Err(WireError::BadMagic { .. })
        ));

        // truncation
        assert!(matches!(
            unseal(magic, &sealed[..5]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn pod_slice_roundtrips_and_borrows_when_aligned() {
        let vals: Vec<u64> = vec![0, 1, u32::MAX as u64 + 7, u64::MAX];
        let mut wire = Vec::new();
        put_pod_slice(&mut wire, &vals);
        assert_eq!(wire.len(), vals.len() * 8);

        let aligned = AlignedBytes::from_slice(&wire);
        let col = SectionReader::new(&aligned).pod_slice::<u64>(4).unwrap();
        assert_eq!(&*col, &vals[..]);
        if cfg!(target_endian = "little") {
            assert!(col.is_borrowed());
            assert_eq!(col.owned_bytes(), 0);
        }
        let owned = col.clone().into_owned();
        assert!(!owned.is_borrowed());
        assert_eq!(owned, ArenaStorage::Owned(vals.clone()));

        // A buffer one byte off alignment decodes the same elements.
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(&wire);
        let col = SectionReader::new(&shifted[1..])
            .pod_slice::<u64>(4)
            .unwrap();
        assert!(!col.is_borrowed());
        assert_eq!(&*col, &vals[..]);
        assert!(cast_pod_slice::<u64>(&aligned.as_slice()[1..9]).is_none());

        // A column longer than the section is truncated.
        let mut r = SectionReader::new(&wire[..12]);
        assert!(matches!(r.pod_slice::<u64>(2), Err(WireError::Truncated)));
        assert!(SectionReader::new(&wire[..12]).pod_slice::<u32>(3).is_ok());
    }

    #[test]
    fn section_reader_reads_fields_and_rejects_disagreement() {
        let mut sec = Vec::new();
        sec.extend_from_slice(&7u64.to_le_bytes());
        put_pod_slice(&mut sec, &[10u32, 20, 30]);
        pad_to_8(&mut sec);
        put_pod_slice(&mut sec, &[99u64]);
        let read = |sec: &[u8]| -> Result<(), WireError> {
            let mut r = SectionReader::new(sec);
            assert_eq!(r.u64()?, 7);
            assert_eq!(&*r.pod_slice::<u32>(3)?, &[10, 20, 30]);
            r.align8()?;
            assert_eq!(&*r.pod_slice::<u64>(1)?, &[99]);
            r.finish()
        };
        read(&sec).unwrap();
        // Truncated column.
        assert!(matches!(read(&sec[..16]), Err(WireError::Truncated)));
        // Nonzero padding after the u32 column.
        let mut bad = sec.clone();
        bad[21] = 1;
        assert!(matches!(read(&bad), Err(WireError::Corrupt(_))));
        // Trailing bytes.
        let mut long = sec.clone();
        long.extend_from_slice(&[0; 8]);
        assert!(matches!(read(&long), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn aligned_bytes_is_eight_aligned() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..n as u8).collect();
            let a = AlignedBytes::from_slice(&src);
            assert_eq!(a.as_slice(), &src[..]);
            assert_eq!(a.as_slice().as_ptr().align_offset(8), 0);
        }
    }
}
