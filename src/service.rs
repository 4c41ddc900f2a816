//! One-stop serving facade: build, persist, and serve a graph's whole
//! object-location stack as a single unit.
//!
//! [`LocationService`] bundles the four artifacts the paper's
//! applications share — the graph, its decomposition tree, the
//! Theorem 2 distance oracle, and the compact-routing tables — behind
//! one build call and one versioned container format. The current
//! format is `psep-bundle/v2`:
//!
//! ```text
//! "PSEPBNDL" | version=2 pad(7) | directory | graph | tree | labels | tables | crc32
//! ```
//!
//! The payload opens with the version varint zero-padded to offset 8,
//! followed by a fixed-size directory: a `u32` section count (always 4)
//! and one 24-byte row per section — `kind u32 | offset u64 | len u64 |
//! crc32 u32`, all little-endian, offsets payload-relative. Sections
//! are laid out back-to-back in kind order, each zero-padded to an
//! 8-byte boundary, and the layout is *canonical*: the first section
//! starts at offset 112, every later offset equals the aligned end of
//! its predecessor, inter-section padding is zero, and the payload ends
//! exactly at the last section's end. Any disagreement between the
//! directory and the payload is a typed [`WireError`], never a panic.
//!
//! The graph section is a canonical delta-coded edge list (edges sorted
//! by `(u, v)`), the tree section embeds the sealed `psep-tree/v1`
//! artifact, and the labels and tables sections store their CSR arenas
//! as aligned little-endian columns (the `psep-labels-flat` /
//! `psep-tables-flat` section formats). On a little-endian machine the
//! column layout **is** the in-memory layout, so [`map_bytes`] builds
//! the oracle and routing views directly over the caller's buffer —
//! the label and table arenas cost O(checksum) at open, independent of
//! the number of label entries, and N replicas mapping one file share a
//! single page cache. The graph and tree sections, which are small
//! beside the arenas, are decoded at open, so a section that does not
//! decode is rejected by the loader, not by a later call.
//!
//! v2 is the only persisted form: any other version is
//! [`WireError::UnsupportedVersion`]. Write a bundle to disk with
//! [`std::fs::write`] and open it with [`AlignedBytes::read_file`] plus
//! [`map_bytes`] (zero-copy) or [`std::fs::read`] plus [`from_bytes`].
//!
//! [`map_bytes`]: LocationService::map_bytes
//! [`from_bytes`]: LocationService::from_bytes
//! [`AlignedBytes::read_file`]: psep_core::wire::AlignedBytes::read_file

use std::sync::Arc;

use psep_core::wire::{crc32, put_varint, seal, unseal, Cursor, WireError};
use psep_core::{AutoStrategy, DecompositionParams, DecompositionTree};
use psep_graph::{Graph, NodeId, Weight};
use psep_oracle::{build_oracle, BatchQueryEngine, DistanceOracle, OracleParams, WitnessPath};
use psep_routing::{RouteOutcome, Router, RoutingTables};

// The error type moved to its own module; this re-export keeps the
// original `path_separators::service::ServiceError` path compiling.
pub use crate::error::ServiceError;

/// Magic bytes of a `psep-bundle` artifact (every version).
pub const BUNDLE_MAGIC: &[u8; 8] = b"PSEPBNDL";

/// Current bundle format version, written by [`LocationService::to_bytes`].
pub const BUNDLE_VERSION: u64 = 2;

/// Directory kind tag of the graph section.
pub const SECTION_GRAPH: u32 = 1;
/// Directory kind tag of the decomposition-tree section.
pub const SECTION_TREE: u32 = 2;
/// Directory kind tag of the raw (zero-copy) distance-labels section.
pub const SECTION_LABELS: u32 = 3;
/// Directory kind tag of the raw (zero-copy) routing-tables section.
pub const SECTION_TABLES: u32 = 4;
/// Directory kind tag of the delta-compressed distance-labels section:
/// the body is a sealed `psep-labels/v1` artifact (varint/delta-coded
/// keys and portals), decoded to owned arenas on load.
pub const SECTION_LABELS_COMPRESSED: u32 = 5;
/// Directory kind tag of the delta-compressed routing-tables section:
/// the body is a sealed `psep-routing/v1` artifact.
pub const SECTION_TABLES_COMPRESSED: u32 = 6;

/// Byte offset of the directory inside a v2 payload.
const DIR_START: usize = 8;
/// Bytes per directory row: `kind u32 | offset u64 | len u64 | crc32 u32`.
const DIR_ROW: usize = 24;
/// Number of sections in a v2 bundle.
const NUM_SECTIONS: usize = 4;
/// Byte offset of the first section: the directory end (108) aligned up.
const SECTIONS_START: usize = align8(DIR_START + 4 + NUM_SECTIONS * DIR_ROW);

/// Smallest multiple of 8 that is `>= x`.
const fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// Human-readable name of a section kind tag.
pub fn section_name(kind: u32) -> &'static str {
    match kind {
        SECTION_GRAPH => "graph",
        SECTION_TREE => "tree",
        SECTION_LABELS => "labels",
        SECTION_TABLES => "tables",
        SECTION_LABELS_COMPRESSED => "labels (delta)",
        SECTION_TABLES_COMPRESSED => "tables (delta)",
        _ => "unknown",
    }
}

/// One directory row of a bundle payload, as returned by
/// [`bundle_sections`]; the CRC has already been verified against the
/// bytes.
#[derive(Clone, Copy, Debug)]
pub struct BundleSection<'a> {
    /// Section kind tag ([`SECTION_GRAPH`] .. [`SECTION_TABLES`]).
    pub kind: u32,
    /// The section's bytes within the payload.
    pub bytes: &'a [u8],
    /// CRC-32 of the section bytes.
    pub crc32: u32,
}

/// Validates a bundle envelope and returns its format version plus the
/// four sections in kind order, without decoding any section body — the
/// O(checksum) part of loading, shared by tooling such as
/// `psep-inspect`.
pub fn bundle_sections(data: &[u8]) -> Result<(u64, Vec<BundleSection<'_>>), ServiceError> {
    let secs = unseal_v2(data)?;
    Ok((BUNDLE_VERSION, secs.rows().to_vec()))
}

/// Unseals a bundle envelope and validates its v2 directory; any other
/// format version is [`WireError::UnsupportedVersion`].
fn unseal_v2(data: &[u8]) -> Result<V2Sections<'_>, WireError> {
    let payload = unseal(BUNDLE_MAGIC, data)?;
    match Cursor::new(payload).varint()? {
        BUNDLE_VERSION => split_v2_payload(payload),
        v => Err(WireError::UnsupportedVersion(v)),
    }
}

/// The four validated sections of a v2 payload, in kind order.
struct V2Sections<'a> {
    rows: [BundleSection<'a>; NUM_SECTIONS],
}

impl<'a> V2Sections<'a> {
    fn rows(&self) -> &[BundleSection<'a>; NUM_SECTIONS] {
        &self.rows
    }

    fn graph(&self) -> &'a [u8] {
        self.rows[0].bytes
    }

    fn tree(&self) -> &'a [u8] {
        self.rows[1].bytes
    }

    fn labels(&self) -> &'a [u8] {
        self.rows[2].bytes
    }

    fn tables(&self) -> &'a [u8] {
        self.rows[3].bytes
    }

    fn labels_kind(&self) -> u32 {
        self.rows[2].kind
    }

    fn tables_kind(&self) -> u32 {
        self.rows[3].kind
    }
}

/// Validates the directory of a v2 payload against the payload itself:
/// section kinds in order, canonical back-to-back offsets, zero
/// padding, exact payload end, and a matching CRC-32 per section. Every
/// header/payload disagreement is a typed error.
fn split_v2_payload(payload: &[u8]) -> Result<V2Sections<'_>, WireError> {
    if payload.len() < SECTIONS_START {
        return Err(WireError::Truncated);
    }
    // The version varint is the single byte 2; the rest of the first
    // 8-byte word is canonical zero padding.
    if payload[0] != BUNDLE_VERSION as u8 || payload[1..DIR_START].iter().any(|&b| b != 0) {
        return Err(WireError::Corrupt("malformed bundle version word"));
    }
    let count = u32::from_le_bytes(payload[DIR_START..DIR_START + 4].try_into().unwrap());
    if count as usize != NUM_SECTIONS {
        return Err(WireError::Corrupt(
            "bundle directory must list four sections",
        ));
    }
    let dir_end = DIR_START + 4 + NUM_SECTIONS * DIR_ROW;
    if payload[dir_end..SECTIONS_START].iter().any(|&b| b != 0) {
        return Err(WireError::Corrupt("nonzero bundle directory padding"));
    }
    let mut rows = [BundleSection {
        kind: 0,
        bytes: &payload[..0],
        crc32: 0,
    }; NUM_SECTIONS];
    let mut expected_offset = SECTIONS_START;
    let mut end = SECTIONS_START;
    for (i, row) in rows.iter_mut().enumerate() {
        let e = DIR_START + 4 + i * DIR_ROW;
        let kind = u32::from_le_bytes(payload[e..e + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(payload[e + 4..e + 12].try_into().unwrap());
        let len = u64::from_le_bytes(payload[e + 12..e + 20].try_into().unwrap());
        let stored = u32::from_le_bytes(payload[e + 20..e + 24].try_into().unwrap());
        // rows stay in slot order; the label/table slots may hold either
        // the raw (zero-copy) or the delta-compressed kind
        let slot_ok = match i {
            0 => kind == SECTION_GRAPH,
            1 => kind == SECTION_TREE,
            2 => kind == SECTION_LABELS || kind == SECTION_LABELS_COMPRESSED,
            _ => kind == SECTION_TABLES || kind == SECTION_TABLES_COMPRESSED,
        };
        if !slot_ok {
            return Err(WireError::Corrupt("bundle directory sections out of order"));
        }
        let offset = usize::try_from(offset)
            .map_err(|_| WireError::Corrupt("bundle section offset overflows"))?;
        let len = usize::try_from(len)
            .map_err(|_| WireError::Corrupt("bundle section length overflows"))?;
        if offset != expected_offset {
            return Err(WireError::Corrupt(
                "bundle section offset disagrees with layout",
            ));
        }
        end = offset
            .checked_add(len)
            .ok_or(WireError::Corrupt("bundle section length overflows"))?;
        if end > payload.len() {
            return Err(WireError::Truncated);
        }
        let bytes = &payload[offset..end];
        let computed = crc32(bytes);
        if computed != stored {
            return Err(WireError::ChecksumMismatch { stored, computed });
        }
        expected_offset = align8(end);
        if payload[end..expected_offset.min(payload.len())]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(WireError::Corrupt("nonzero bundle section padding"));
        }
        *row = BundleSection {
            kind,
            bytes,
            crc32: stored,
        };
    }
    if payload.len() != end {
        return Err(WireError::Corrupt("trailing bytes after bundle sections"));
    }
    Ok(V2Sections { rows })
}

/// Assembles a canonical v2 payload from the four `(kind, body)`
/// sections (in slot order) and seals it.
fn encode_v2(sections: [(u32, &[u8]); NUM_SECTIONS]) -> Vec<u8> {
    let mut payload = vec![0u8; SECTIONS_START];
    payload[0] = BUNDLE_VERSION as u8;
    payload[DIR_START..DIR_START + 4].copy_from_slice(&(NUM_SECTIONS as u32).to_le_bytes());
    for (i, (kind, sec)) in sections.iter().enumerate() {
        while !payload.len().is_multiple_of(8) {
            payload.push(0);
        }
        let offset = payload.len();
        payload.extend_from_slice(sec);
        let e = DIR_START + 4 + i * DIR_ROW;
        payload[e..e + 4].copy_from_slice(&kind.to_le_bytes());
        payload[e + 4..e + 12].copy_from_slice(&(offset as u64).to_le_bytes());
        payload[e + 12..e + 20].copy_from_slice(&(sec.len() as u64).to_le_bytes());
        payload[e + 20..e + 24].copy_from_slice(&crc32(sec).to_le_bytes());
    }
    seal(BUNDLE_MAGIC, &payload)
}

/// Build parameters for [`LocationService::build`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceParams {
    /// Approximation parameter of the distance oracle.
    pub epsilon: f64,
    /// Worker threads for every construction stage (`0` = all available
    /// threads, honouring `PSEP_THREADS`). Construction is bit-identical
    /// at every thread count.
    pub threads: usize,
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            epsilon: 0.25,
            threads: 1,
        }
    }
}

/// The full serving stack for one graph: decomposition tree, distance
/// oracle, and compact-routing tables, built together and persisted as
/// one `psep-bundle` artifact.
///
/// The lifetime `'a` is the lifetime of a mapped bundle buffer
/// ([`Self::map_bytes`]); services built in memory or loaded with
/// [`Self::from_bytes`] own all their arenas and satisfy any lifetime
/// (use `LocationService<'static>` to store one).
///
/// # Example
///
/// ```
/// use path_separators::{LocationService, NodeId, ServiceParams};
/// use psep_graph::generators::grids;
///
/// let g = grids::grid2d(6, 6, 1);
/// let svc = LocationService::build(&g, ServiceParams::default());
/// // distance query and actual route agree on this unweighted grid
/// let est = svc.query(NodeId(0), NodeId(35)).unwrap();
/// let out = svc.route(NodeId(0), NodeId(35)).unwrap();
/// assert!(out.cost as f64 <= (1.0 + svc.epsilon()) * 10.0);
/// assert!(est >= 10);
///
/// // round-trip through the bundle format
/// let bytes = svc.to_bytes();
/// let back = LocationService::from_bytes(&bytes).unwrap();
/// assert_eq!(back.to_bytes(), bytes);
///
/// // zero-copy: serve straight out of an aligned buffer
/// let buf = psep_core::wire::AlignedBytes::from_slice(&bytes);
/// let mapped = LocationService::map_bytes(&buf).unwrap();
/// assert_eq!(mapped.query(NodeId(0), NodeId(35)), Some(est));
/// ```
#[derive(Clone, Debug)]
pub struct LocationService<'a> {
    graph: Arc<Graph>,
    tree: DecompositionTree,
    oracle: DistanceOracle<'a>,
    router: Router<'a>,
}

impl<'a> LocationService<'a> {
    /// Builds the whole stack for `g`: decomposition tree, distance
    /// oracle, and routing tables, all with `params.threads` workers.
    pub fn build(g: &Graph, params: ServiceParams) -> Self {
        let span = psep_obs::span!("service_build");
        let t0 = psep_obs::now_if_enabled();
        let tree = DecompositionTree::build_with(
            g,
            &AutoStrategy::default(),
            &DecompositionParams {
                threads: params.threads.max(1),
            },
        );
        let oracle = build_oracle(
            g,
            &tree,
            OracleParams {
                epsilon: params.epsilon,
                threads: params.threads,
            },
        );
        let tables = RoutingTables::build_with(g, &tree, params.threads);
        let graph = Arc::new(g.clone());
        let router = Router::with_shared(graph.clone(), tables);
        if let Some(t0) = t0 {
            psep_obs::histogram!("service.build_ns").record_elapsed(t0);
        }
        drop(span);
        LocationService {
            graph,
            tree,
            oracle,
            router,
        }
    }

    /// Assembles a service from prebuilt parts, checking that every part
    /// covers the same vertex set.
    pub fn from_parts(
        graph: Graph,
        tree: DecompositionTree,
        oracle: DistanceOracle<'a>,
        router: Router<'a>,
    ) -> Result<Self, ServiceError> {
        let n = graph.num_nodes();
        if oracle.num_nodes() != n || router.tables().num_nodes() != n {
            return Err(WireError::Corrupt("bundle sections disagree on vertex count").into());
        }
        Ok(LocationService {
            graph: Arc::new(graph),
            tree,
            oracle,
            router,
        })
    }

    /// The served graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The decomposition tree the oracle and tables were built over.
    pub fn tree(&self) -> &DecompositionTree {
        &self.tree
    }

    /// The distance oracle.
    pub fn oracle(&self) -> &DistanceOracle<'a> {
        &self.oracle
    }

    /// The compact router.
    pub fn router(&self) -> &Router<'a> {
        &self.router
    }

    /// Does nothing and returns `Ok(())`: every section is decoded and
    /// checked when the service is opened, so there is nothing left to
    /// warm. Kept so callers that time a warm-up step still compile.
    pub fn warm(&self) -> Result<(), ServiceError> {
        Ok(())
    }

    /// `true` when any arena serves straight out of a mapped buffer
    /// (zero-copy); `false` when the service owns all its data.
    pub fn is_borrowed(&self) -> bool {
        self.oracle.is_borrowed() || self.router.is_borrowed()
    }

    /// Number of vertices served.
    pub fn num_nodes(&self) -> usize {
        self.oracle.num_nodes()
    }

    /// The oracle's approximation parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.oracle.epsilon()
    }

    /// `(1+ε)`-approximate distance between `u` and `v`; `None` if
    /// disconnected. Thin wrapper over the canonical [`Self::try_query`].
    ///
    /// # Panics
    ///
    /// Panics if a vertex id is out of range; [`Self::try_query`]
    /// returns an error instead.
    pub fn query(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.try_query(u, v).expect("vertex id out of range")
    }

    /// `(1+ε)`-approximate distance between `u` and `v` with
    /// out-of-range ids reported as typed errors (canonical fallible
    /// form).
    pub fn try_query(&self, u: NodeId, v: NodeId) -> Result<Option<Weight>, ServiceError> {
        let t0 = psep_obs::now_if_enabled();
        let out = self.oracle.try_query(u, v)?;
        if let Some(t0) = t0 {
            psep_obs::histogram!("service.query.latency_ns").record_elapsed(t0);
        }
        Ok(out)
    }

    /// Answers a batch of distance queries in parallel, in input order
    /// (identical to querying one by one), with every vertex id
    /// validated first.
    pub fn try_query_many(
        &self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Option<Weight>>, ServiceError> {
        Ok(BatchQueryEngine::default().try_run(&self.oracle, pairs)?)
    }

    /// Reconstructs a witness path for `query(u, v)`: a real walk of
    /// the served graph whose weight exactly equals the reported `(1+ε)`
    /// estimate; `None` for disconnected pairs. Thin wrapper over the
    /// canonical [`Self::try_query_path`].
    ///
    /// # Panics
    ///
    /// Panics if a vertex id is out of range; [`Self::try_query_path`]
    /// returns an error instead.
    pub fn query_path(&self, u: NodeId, v: NodeId) -> Option<WitnessPath> {
        self.try_query_path(u, v).expect("vertex id out of range")
    }

    /// [`Self::query_path`] with out-of-range ids reported as typed
    /// errors (canonical fallible form).
    pub fn try_query_path(
        &self,
        u: NodeId,
        v: NodeId,
    ) -> Result<Option<WitnessPath>, ServiceError> {
        let t0 = psep_obs::now_if_enabled();
        let out = self.oracle.try_query_path(&self.graph, &self.tree, u, v)?;
        if let Some(t0) = t0 {
            psep_obs::histogram!("service.query_path.latency_ns").record_elapsed(t0);
        }
        Ok(out)
    }

    /// Reconstructs witness paths for a batch of pairs in parallel, in
    /// input order (identical to reconstructing one by one), with every
    /// vertex id validated first.
    pub fn try_query_path_many(
        &self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Option<WitnessPath>>, ServiceError> {
        Ok(BatchQueryEngine::default().try_run_paths(
            &self.oracle,
            &self.graph,
            &self.tree,
            pairs,
        )?)
    }

    /// Routes a message from `u` to `t`, resolving `t`'s routing label
    /// from the local tables; `None` for disconnected pairs. Thin
    /// wrapper over the canonical [`Self::try_route`].
    ///
    /// # Panics
    ///
    /// Panics if a vertex id is out of range; [`Self::try_route`]
    /// returns an error instead.
    pub fn route(&self, u: NodeId, t: NodeId) -> Option<RouteOutcome> {
        self.try_route(u, t).expect("vertex id out of range")
    }

    /// Routes a message from `u` to `t` with out-of-range ids reported
    /// as typed errors (canonical fallible form).
    pub fn try_route(&self, u: NodeId, t: NodeId) -> Result<Option<RouteOutcome>, ServiceError> {
        let t0 = psep_obs::now_if_enabled();
        let label = self.router.tables().try_label(t)?;
        let out = self.router.try_route(u, t, &label)?;
        if let Some(t0) = t0 {
            psep_obs::histogram!("service.route.latency_ns").record_elapsed(t0);
        }
        Ok(out)
    }

    /// Routes a batch of `(source, target)` pairs in parallel, in input
    /// order (identical to routing one by one), with every vertex id
    /// validated first.
    pub fn try_route_many(
        &self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Option<RouteOutcome>>, ServiceError> {
        Ok(self.router.try_route_many(pairs)?)
    }

    /// Encodes the whole service as one `psep-bundle/v2` artifact with
    /// raw (zero-copy) label and table sections. Every section encoding
    /// is canonical, so `map_bytes(b).to_bytes() == b` bit-for-bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        let labels =
            psep_oracle::wire::encode_labels_flat(self.oracle.flat_labels(), self.oracle.epsilon());
        let tables = psep_routing::wire::encode_tables_flat(self.router.tables().flat());
        self.seal_with((SECTION_LABELS, &labels), (SECTION_TABLES, &tables))
    }

    /// Encodes the whole service as a `psep-bundle/v2` artifact whose
    /// label and table sections are delta-compressed
    /// ([`SECTION_LABELS_COMPRESSED`] / [`SECTION_TABLES_COMPRESSED`]):
    /// keys and portal/table columns stored as varint deltas instead of
    /// aligned fixed-width columns. Smaller on disk and on the wire;
    /// loading decodes into owned arenas (no zero-copy mapping). Both
    /// encodings are canonical, so
    /// `map_bytes(to_bytes_compressed()).to_bytes() == to_bytes()` and
    /// the compressed form round-trips bit-identically through
    /// [`Self::map_bytes`]/[`Self::from_bytes`].
    pub fn to_bytes_compressed(&self) -> Vec<u8> {
        let labels =
            psep_oracle::wire::encode_labels(self.oracle.flat_labels(), self.oracle.epsilon());
        let tables = psep_routing::wire::encode_tables(self.router.tables().flat());
        self.seal_with(
            (SECTION_LABELS_COMPRESSED, &labels),
            (SECTION_TABLES_COMPRESSED, &tables),
        )
    }

    /// Seals the canonical graph and tree sections with the given
    /// `(kind, body)` label and table sections.
    fn seal_with(&self, labels: (u32, &[u8]), tables: (u32, &[u8])) -> Vec<u8> {
        encode_v2([
            (SECTION_GRAPH, &encode_graph(&self.graph)),
            (SECTION_TREE, &self.tree.encode()),
            labels,
            tables,
        ])
    }

    /// Decodes a `psep-bundle/v2` artifact (raw or delta sections) into
    /// a service that owns all its arenas: [`Self::map_bytes`] followed
    /// by a copy of any borrowed arena.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ServiceError> {
        let t0 = psep_obs::now_if_enabled();
        let svc = LocationService::open(data)?.into_owned();
        if let Some(t0) = t0 {
            psep_obs::histogram!("service.load_ns").record_elapsed(t0);
        }
        Ok(svc)
    }

    /// Builds a service directly **over** `data` without copying the
    /// label or table arenas out of it. Opening validates the envelope
    /// and every section CRC, cross-checks the vertex counts, and
    /// decodes the graph and tree sections, so a section that does not
    /// decode is an error here rather than a panic in a later call.
    /// The label and table arenas are not decoded entry by entry: their
    /// cost is O(checksum), however many label entries the bundle
    /// holds. Delta-compressed label and table sections have no mappable
    /// layout, so they decode into owned arenas.
    ///
    /// Zero-copy needs `data` to be little-endian-compatible and
    /// 8-aligned (e.g. [`psep_core::wire::AlignedBytes`]); otherwise
    /// the arenas are transparently copied out and everything still
    /// works. Answers are bit-identical either way.
    pub fn map_bytes(data: &'a [u8]) -> Result<Self, ServiceError> {
        let t0 = psep_obs::now_if_enabled();
        let svc = LocationService::open(data)?;
        if let Some(t0) = t0 {
            psep_obs::histogram!("service.map_ns").record_elapsed(t0);
        }
        Ok(svc)
    }

    /// The one open path behind [`Self::map_bytes`] and
    /// [`Self::from_bytes`]: validates the bundle, maps or decodes the
    /// labels and tables, and cross-checks their vertex counts against
    /// the graph section's header — peeked without decoding (or
    /// allocating) the edge list, so a bundle whose sections disagree is
    /// rejected before any graph-sized work. Then decodes the graph and
    /// tree sections.
    fn open(data: &'a [u8]) -> Result<Self, ServiceError> {
        let secs = unseal_v2(data)?;
        let oracle = decode_labels_section(secs.labels_kind(), secs.labels())?;
        let tables = decode_tables_section(secs.tables_kind(), secs.tables())?;
        let n = Cursor::new(secs.graph()).length(u32::MAX as usize)?;
        if oracle.num_nodes() != n || tables.num_nodes() != n {
            return Err(WireError::Corrupt("bundle sections disagree on vertex count").into());
        }
        let graph = Arc::new(decode_graph(secs.graph())?);
        let tree = DecompositionTree::decode(secs.tree())?;
        let router = Router::with_shared(graph.clone(), tables);
        Ok(LocationService {
            graph,
            tree,
            oracle,
            router,
        })
    }

    /// Copies any borrowed label or table arena so the service owns all
    /// its data.
    fn into_owned(self) -> LocationService<'static> {
        LocationService {
            graph: self.graph,
            tree: self.tree,
            oracle: self.oracle.into_owned(),
            router: self.router.into_owned(),
        }
    }
}

/// Decodes a v2 labels slot by its directory kind: the raw column
/// layout maps (zero-copy when aligned), the delta-compressed layout
/// decodes into owned arenas.
fn decode_labels_section(kind: u32, bytes: &[u8]) -> Result<DistanceOracle<'_>, ServiceError> {
    let (flat, epsilon) = if kind == SECTION_LABELS_COMPRESSED {
        psep_oracle::wire::decode_labels(bytes)?
    } else {
        psep_oracle::wire::decode_labels_flat(bytes)?
    };
    Ok(DistanceOracle::from_flat(flat, epsilon))
}

/// Decodes a v2 tables slot by its directory kind (see
/// [`decode_labels_section`]).
fn decode_tables_section(kind: u32, bytes: &[u8]) -> Result<RoutingTables<'_>, ServiceError> {
    let flat = if kind == SECTION_TABLES_COMPRESSED {
        psep_routing::wire::decode_tables(bytes)?
    } else {
        psep_routing::wire::decode_tables_flat(bytes)?
    };
    Ok(RoutingTables::from_flat(flat))
}

/// Canonical graph section: `n`, `m`, then edges sorted by `(u, v)`,
/// with `u` delta-coded across edges and `v` delta-coded within each
/// vertex's run (both strictly ascending, so the deltas also reject
/// self-loops and parallel edges on decode).
fn encode_graph(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, g.num_nodes() as u64);
    put_varint(&mut out, g.num_edges() as u64);
    let mut edges: Vec<(NodeId, NodeId, Weight)> = g.edge_list().collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    let mut prev_u = 0u32;
    let mut prev_v = 0u32;
    for (u, v, w) in edges {
        let du = u.0 - prev_u;
        put_varint(&mut out, du as u64);
        if du > 0 {
            prev_v = u.0; // v > u always; restart the v deltas at u
        }
        put_varint(&mut out, (v.0 - prev_v - 1) as u64);
        put_varint(&mut out, w);
        prev_u = u.0;
        prev_v = v.0;
    }
    out
}

fn decode_graph(data: &[u8]) -> Result<Graph, WireError> {
    let mut c = Cursor::new(data);
    let n = c.length(u32::MAX as usize)?;
    // each edge takes >= 3 bytes, so the input length bounds the count
    let m = c.length(data.len())?;
    let mut g = Graph::new(n);
    let mut prev_u = 0u32;
    let mut prev_v = 0u32;
    for _ in 0..m {
        let du = c.length(u32::MAX as usize)? as u32;
        let u = prev_u
            .checked_add(du)
            .ok_or(WireError::Corrupt("edge endpoint overflows u32"))?;
        if du > 0 {
            prev_v = u;
        }
        let dv = c.length(u32::MAX as usize)? as u32;
        let v = prev_v
            .checked_add(dv)
            .and_then(|x| x.checked_add(1))
            .ok_or(WireError::Corrupt("edge endpoint overflows u32"))?;
        if v as usize >= n {
            return Err(WireError::Corrupt("edge endpoint out of range"));
        }
        let w = c.varint()?;
        if w == 0 {
            return Err(WireError::Corrupt("zero edge weight"));
        }
        // u < v and strict (u, v) ordering hold by construction of the
        // deltas, so add_edge's invariants are satisfied
        g.add_edge(NodeId(u), NodeId(v), w);
        prev_u = u;
        prev_v = v;
    }
    if c.remaining() != 0 {
        return Err(WireError::Corrupt("trailing bytes after edge list"));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::wire::AlignedBytes;
    use psep_graph::generators::{grids, ktree};

    fn service() -> (Graph, LocationService<'static>) {
        let g = grids::grid2d(6, 6, 1);
        let svc = LocationService::build(&g, ServiceParams::default());
        (g, svc)
    }

    #[test]
    fn graph_section_roundtrips_weighted_graphs() {
        let g = ktree::random_weighted_k_tree(40, 3, 9, 11).graph;
        let bytes = encode_graph(&g);
        let back = decode_graph(&bytes).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        for (u, v, w) in g.edge_list() {
            assert_eq!(back.edge_weight(u, v), Some(w));
        }
        // canonical: re-encoding reproduces the bytes
        assert_eq!(encode_graph(&back), bytes);
    }

    #[test]
    fn queries_and_routes_match_the_underlying_parts() {
        let (g, svc) = service();
        for (u, v) in [(NodeId(0), NodeId(35)), (NodeId(7), NodeId(7))] {
            assert_eq!(svc.query(u, v), svc.oracle().query(u, v));
            let direct = svc
                .router()
                .route(u, v, &svc.router().tables().label(v))
                .unwrap();
            assert_eq!(svc.route(u, v).unwrap(), direct);
        }
        let pairs: Vec<_> = g.nodes().map(|v| (NodeId(0), v)).collect();
        let many = svc.try_query_many(&pairs).unwrap();
        let routes = svc.try_route_many(&pairs).unwrap();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(many[i], svc.query(u, v));
            assert_eq!(routes[i], svc.route(u, v));
        }
    }

    #[test]
    fn bundle_roundtrip_is_bit_exact() {
        let (_, svc) = service();
        let bytes = svc.to_bytes();
        let back = LocationService::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.num_nodes(), svc.num_nodes());
        assert_eq!(back.epsilon(), svc.epsilon());
        assert_eq!(
            back.query(NodeId(0), NodeId(35)),
            svc.query(NodeId(0), NodeId(35))
        );
        assert_eq!(
            back.route(NodeId(0), NodeId(35)),
            svc.route(NodeId(0), NodeId(35))
        );
    }

    #[test]
    fn compressed_bundle_roundtrips_and_shrinks() {
        let (g, svc) = service();
        let raw = svc.to_bytes();
        let compressed = svc.to_bytes_compressed();
        assert!(
            compressed.len() < raw.len(),
            "compressed {} >= raw {}",
            compressed.len(),
            raw.len()
        );
        // lossless: the loaded service re-emits both forms bit-identically
        let back = LocationService::from_bytes(&compressed).unwrap();
        assert_eq!(back.to_bytes_compressed(), compressed);
        assert_eq!(back.to_bytes(), raw);
        // the directory reports the compressed kinds, in slot order
        let (v, secs) = bundle_sections(&compressed).unwrap();
        assert_eq!(v, BUNDLE_VERSION);
        assert_eq!(
            secs.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![
                SECTION_GRAPH,
                SECTION_TREE,
                SECTION_LABELS_COMPRESSED,
                SECTION_TABLES_COMPRESSED
            ]
        );
        // answers agree with the directly built service on every pair
        for u in g.nodes() {
            assert_eq!(back.query(NodeId(0), u), svc.query(NodeId(0), u));
            assert_eq!(back.route(NodeId(0), u), svc.route(NodeId(0), u));
        }
    }

    #[test]
    fn compressed_bundles_map_via_owned_decode() {
        let (_, svc) = service();
        let buf = AlignedBytes::from_slice(&svc.to_bytes_compressed());
        let mapped = LocationService::map_bytes(&buf).unwrap();
        // compressed sections decode to owned arenas — never borrowed
        assert!(!mapped.is_borrowed());
        assert_eq!(
            mapped.query(NodeId(0), NodeId(35)),
            svc.query(NodeId(0), NodeId(35))
        );
        assert_eq!(
            mapped.route(NodeId(0), NodeId(35)),
            svc.route(NodeId(0), NodeId(35))
        );
    }

    #[test]
    fn mixed_raw_and_compressed_slots_are_rejected_only_when_misplaced() {
        let (_, svc) = service();
        // a compressed labels body in the raw labels slot must not pass:
        // the kind says raw, the body is sealed varints
        let graph = encode_graph(svc.graph());
        let tree = svc.tree().encode();
        let labels_c = psep_oracle::wire::encode_labels(svc.oracle.flat_labels(), svc.epsilon());
        let tables = psep_routing::wire::encode_tables_flat(svc.router().tables().flat());
        let spliced = encode_v2([
            (SECTION_GRAPH, &graph),
            (SECTION_TREE, &tree),
            (SECTION_LABELS, &labels_c),
            (SECTION_TABLES, &tables),
        ]);
        assert!(LocationService::from_bytes(&spliced).is_err());
        // ...while the correctly tagged mixed bundle (compressed labels,
        // raw tables) loads fine
        let mixed = encode_v2([
            (SECTION_GRAPH, &graph),
            (SECTION_TREE, &tree),
            (SECTION_LABELS_COMPRESSED, &labels_c),
            (SECTION_TABLES, &tables),
        ]);
        let back = LocationService::from_bytes(&mixed).unwrap();
        assert_eq!(
            back.query(NodeId(0), NodeId(35)),
            svc.query(NodeId(0), NodeId(35))
        );
        // a label kind in the tables slot is out of order
        let swapped = encode_v2([
            (SECTION_GRAPH, &graph),
            (SECTION_TREE, &tree),
            (SECTION_LABELS, &tables),
            (SECTION_LABELS_COMPRESSED, &labels_c),
        ]);
        assert!(matches!(
            LocationService::from_bytes(&swapped),
            Err(ServiceError::Wire(WireError::Corrupt(_)))
        ));
    }

    #[test]
    fn mapped_bundle_is_zero_copy_and_bit_identical() {
        let (g, svc) = service();
        let buf = AlignedBytes::from_slice(&svc.to_bytes());
        let mapped = LocationService::map_bytes(&buf).unwrap();
        // aligned little-endian buffer => the arenas borrow in place
        assert!(mapped.is_borrowed());
        assert!(!svc.is_borrowed());
        // re-encoding a mapped service reproduces the input bytes
        assert_eq!(mapped.to_bytes(), &buf[..]);
        for u in g.nodes() {
            assert_eq!(mapped.query(NodeId(0), u), svc.query(NodeId(0), u));
            assert_eq!(mapped.route(NodeId(0), u), svc.route(NodeId(0), u));
            assert_eq!(
                mapped.query_path(NodeId(0), u).map(|p| p.nodes),
                svc.query_path(NodeId(0), u).map(|p| p.nodes)
            );
        }
        assert_eq!(
            mapped.router().label(NodeId(7)),
            svc.router().label(NodeId(7))
        );
        assert_eq!(mapped.graph().num_edges(), g.num_edges());
    }

    #[test]
    fn mapped_bundle_falls_back_to_owned_when_misaligned() {
        let (_, svc) = service();
        let bytes = svc.to_bytes();
        // shift by one so every section lands misaligned
        let mut shifted = vec![0u8; bytes.len() + 1];
        shifted[1..].copy_from_slice(&bytes);
        let mapped = LocationService::map_bytes(&shifted[1..]).unwrap();
        assert!(!mapped.is_borrowed());
        assert_eq!(mapped.to_bytes(), bytes);
        assert_eq!(
            mapped.query(NodeId(0), NodeId(35)),
            svc.query(NodeId(0), NodeId(35))
        );
    }

    #[test]
    fn bundle_sections_reports_both_versions() {
        let (_, svc) = service();
        for (bytes, labels, tables) in [
            (svc.to_bytes(), SECTION_LABELS, SECTION_TABLES),
            (
                svc.to_bytes_compressed(),
                SECTION_LABELS_COMPRESSED,
                SECTION_TABLES_COMPRESSED,
            ),
        ] {
            let (v, secs) = bundle_sections(&bytes).unwrap();
            assert_eq!(v, BUNDLE_VERSION);
            assert_eq!(
                secs.iter().map(|s| s.kind).collect::<Vec<_>>(),
                vec![SECTION_GRAPH, SECTION_TREE, labels, tables]
            );
            for s in &secs {
                assert_eq!(crc32(s.bytes), s.crc32);
            }
        }
        // the retired version-1 envelope (length-prefixed sections) is a
        // typed error on every entry point
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        for sec in bundle_sections(&svc.to_bytes()).unwrap().1 {
            put_varint(&mut payload, sec.bytes.len() as u64);
            payload.extend_from_slice(sec.bytes);
        }
        let v1 = AlignedBytes::from_slice(&seal(BUNDLE_MAGIC, &payload));
        let unsupported = |r: Result<(), ServiceError>| {
            matches!(r, Err(ServiceError::Wire(WireError::UnsupportedVersion(1))))
        };
        assert!(unsupported(bundle_sections(&v1).map(drop)));
        assert!(unsupported(LocationService::from_bytes(&v1).map(drop)));
        assert!(unsupported(LocationService::map_bytes(&v1).map(drop)));
    }

    #[test]
    fn corrupted_bundles_are_rejected() {
        let (_, svc) = service();
        let bytes = svc.to_bytes();
        // whole-bundle checksum catches any body flip
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            LocationService::from_bytes(&bad),
            Err(ServiceError::Wire(WireError::ChecksumMismatch { .. }))
        ));
        // wrong magic
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            LocationService::from_bytes(&bad),
            Err(ServiceError::Wire(WireError::BadMagic { .. }))
        ));
        // truncation
        assert!(LocationService::from_bytes(&bytes[..bytes.len() - 5]).is_err());
    }

    /// Re-seals a tampered v2 payload so the outer CRC passes and the
    /// directory/payload disagreement itself must be caught.
    fn tampered(bytes: &[u8], tamper: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = unseal(BUNDLE_MAGIC, bytes).unwrap().to_vec();
        tamper(&mut payload);
        seal(BUNDLE_MAGIC, &payload)
    }

    /// Edits the body of section `slot` with `tamper` and re-stamps the
    /// section CRC as well, so the directory still validates and only
    /// decoding the section can catch the damage.
    fn tampered_section(bytes: &[u8], slot: usize, tamper: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let out = tampered(bytes, |p| {
            let e = DIR_START + 4 + slot * DIR_ROW;
            let offset = u64::from_le_bytes(p[e + 4..e + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(p[e + 12..e + 20].try_into().unwrap()) as usize;
            let sec = &mut p[offset..offset + len];
            tamper(sec);
            let crc = crc32(sec);
            p[e + 20..e + 24].copy_from_slice(&crc.to_le_bytes());
        });
        assert!(
            bundle_sections(&out).is_ok(),
            "the directory still validates"
        );
        out
    }

    #[test]
    fn resealed_header_payload_disagreements_are_rejected() {
        let (_, svc) = service();
        let bytes = svc.to_bytes();
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("wrong count", tampered(&bytes, |p| p[DIR_START] = 5)),
            ("nonzero version pad", tampered(&bytes, |p| p[3] = 1)),
            (
                "nonzero dir pad",
                tampered(&bytes, |p| p[SECTIONS_START - 1] = 7),
            ),
            (
                "inflated first len",
                tampered(&bytes, |p| {
                    let e = DIR_START + 4;
                    let len = u64::from_le_bytes(p[e + 12..e + 20].try_into().unwrap()) + 8;
                    p[e + 12..e + 20].copy_from_slice(&len.to_le_bytes());
                }),
            ),
            (
                "shifted second offset",
                tampered(&bytes, |p| {
                    let e = DIR_START + 4 + DIR_ROW;
                    let off = u64::from_le_bytes(p[e + 4..e + 12].try_into().unwrap()) + 8;
                    p[e + 4..e + 12].copy_from_slice(&off.to_le_bytes());
                }),
            ),
            (
                "section bytes flipped under a stale crc",
                tampered(&bytes, |p| {
                    let last = p.len() - 1;
                    p[last] ^= 0x40;
                }),
            ),
            ("trailing payload bytes", tampered(&bytes, |p| p.push(0))),
            (
                "truncated payload",
                tampered(&bytes, |p| {
                    p.truncate(p.len() - 8);
                }),
            ),
            // Valid section CRCs over bodies that do not decode: open must
            // reject them, not defer them to a later call.
            (
                "zero edge weight",
                tampered_section(&bytes, 0, |sec| {
                    // the edge list ends in the last edge's weight varint
                    let last = sec.len() - 1;
                    assert_eq!(sec[last], 1, "unit grid weight is one varint byte");
                    sec[last] = 0;
                }),
            ),
            (
                "byte flipped inside the embedded psep-tree/v1",
                tampered_section(&bytes, 1, |sec| {
                    let mid = sec.len() / 2;
                    sec[mid] ^= 0x01;
                }),
            ),
        ];
        for (what, bad) in cases {
            let err = LocationService::from_bytes(&bad);
            assert!(matches!(err, Err(ServiceError::Wire(_))), "{what}: {err:?}");
            let buf = AlignedBytes::from_slice(&bad);
            assert!(
                matches!(LocationService::map_bytes(&buf), Err(ServiceError::Wire(_))),
                "{what} (mapped)"
            );
        }
    }

    #[test]
    fn oversized_graph_vertex_count_is_rejected_before_allocation() {
        let (_, svc) = service();
        for bytes in [svc.to_bytes(), svc.to_bytes_compressed()] {
            // Declare n = u32::MAX in the graph section (a 5-byte varint
            // over the 1-byte original), drop the edge list's last four
            // bytes to keep the section length, and re-stamp the section
            // CRC: only the vertex-count cross-check can catch it, and it
            // must do so before `Graph::new(n)` allocates.
            let bad = tampered_section(&bytes, 0, |sec| {
                let len = sec.len();
                assert!(sec[0] < 0x80, "original vertex count is one varint byte");
                sec.copy_within(1..len - 4, 5);
                let mut n = Vec::new();
                put_varint(&mut n, u32::MAX as u64);
                sec[..5].copy_from_slice(&n);
            });
            assert!(matches!(
                LocationService::from_bytes(&bad),
                Err(ServiceError::Wire(WireError::Corrupt(_)))
            ));
            let buf = AlignedBytes::from_slice(&bad);
            assert!(matches!(
                LocationService::map_bytes(&buf),
                Err(ServiceError::Wire(WireError::Corrupt(_)))
            ));
        }
    }

    #[test]
    fn mismatched_sections_are_rejected() {
        let (g, svc) = service();
        let other = grids::grid2d(4, 4, 1);
        let small = LocationService::build(&other, ServiceParams::default());
        let spliced = LocationService::from_parts(
            g.clone(),
            svc.tree().clone(),
            small.oracle().clone(),
            svc.router().clone(),
        );
        assert!(matches!(
            spliced,
            Err(ServiceError::Wire(WireError::Corrupt(_)))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let (_, svc) = service();
        let path =
            std::env::temp_dir().join(format!("psep-service-test-{}.bundle", std::process::id()));
        std::fs::write(&path, svc.to_bytes()).unwrap();
        let owned = LocationService::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        let buf = AlignedBytes::read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mapped = LocationService::map_bytes(&buf).unwrap();
        assert!(mapped.is_borrowed());
        assert_eq!(owned.to_bytes(), svc.to_bytes());
        assert_eq!(mapped.to_bytes(), svc.to_bytes());
    }

    #[test]
    fn try_variants_reject_out_of_range() {
        let (_, svc) = service();
        let bad = NodeId(10_000);
        assert!(matches!(
            svc.try_query(NodeId(0), bad),
            Err(ServiceError::Oracle(_))
        ));
        assert!(matches!(
            svc.try_route(NodeId(0), bad),
            Err(ServiceError::Routing(_))
        ));
        assert!(svc.try_query(NodeId(0), NodeId(1)).unwrap().is_some());
    }
}
