//! Inspection of sealed `psep-bundle/v4` artifacts.
//!
//! Walks the envelope without deserializing (section sizes via
//! [`bundle_sections`], plus a CRC-32 of each section computed here for
//! the report), probes the zero-copy
//! storage mode of the bundle, then loads the bundle through
//! [`LocationService::from_bytes`] — which re-validates every inner
//! format — and summarizes per-vertex label and routing-table entry
//! counts as [`HistogramStat`]s.

use path_separators::service::{bundle_sections, section_name};
use path_separators::LocationService;
use psep_core::wire::{crc32, AlignedBytes};
use psep_graph::NodeId;
use psep_obs::{HistogramStat, JsonWriter};

/// Names of the four bundle sections, in wire order.
pub const SECTION_NAMES: [&str; 4] = ["graph", "tree", "labels", "tables"];

/// Raw vs delta-compressed size of one arena section, independent of
/// which encoding the inspected bundle actually uses.
#[derive(Clone, Debug)]
pub struct CompressionStat {
    /// Arena name (`"labels"` or `"tables"`).
    pub name: &'static str,
    /// Size of the raw (zero-copy) column encoding, in bytes.
    pub raw_bytes: usize,
    /// Size of the varint/delta encoding, in bytes.
    pub compressed_bytes: usize,
}

impl CompressionStat {
    /// `compressed / raw` — below 1.0 when delta-coding shrinks the
    /// section.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 1.0;
        }
        self.compressed_bytes as f64 / self.raw_bytes as f64
    }
}

/// Size and checksum of one bundle section.
#[derive(Clone, Debug)]
pub struct SectionStat {
    /// Section name (see [`SECTION_NAMES`]).
    pub name: &'static str,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// CRC-32 (IEEE) of the encoded section.
    pub crc32: u32,
}

/// Everything `psep-inspect bundle` reports about an artifact.
#[derive(Clone, Debug)]
pub struct BundleStats {
    /// Bundle wire version.
    pub version: u64,
    /// Total artifact size in bytes (envelope included).
    pub total_bytes: usize,
    /// `"borrowed"` when an aligned map of this bundle serves the
    /// arenas zero-copy (raw sections on little-endian); `"owned"`
    /// otherwise.
    pub storage: &'static str,
    /// Per-section sizes and checksums, wire order.
    pub sections: Vec<SectionStat>,
    /// Vertices in the bundled graph.
    pub num_nodes: usize,
    /// Edges in the bundled graph.
    pub num_edges: usize,
    /// The oracle's approximation parameter.
    pub epsilon: f64,
    /// Per-vertex distance-label entry counts.
    pub label_entries: HistogramStat,
    /// Per-vertex routing-table entry counts.
    pub table_entries: HistogramStat,
    /// Per-entry `min_portal_dist` prune bounds (each entry's smallest
    /// portal `dist`, the admissible lower bound the pruned merge-join
    /// takes from the tail); entries with no portals are excluded.
    pub prune_bounds: HistogramStat,
    /// Raw vs delta-compressed sizes of the labels and tables arenas.
    pub compression: Vec<CompressionStat>,
}

impl BundleStats {
    /// Inspects a serialized bundle. Fails if the envelope is
    /// malformed or any inner section fails its own validation.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        let (version, rows) = bundle_sections(data).map_err(|e| e.to_string())?;
        let sections = rows
            .iter()
            .map(|s| SectionStat {
                name: section_name(s.kind),
                bytes: s.bytes.len(),
                crc32: crc32(s.bytes),
            })
            .collect();

        // Probe the zero-copy path: map an aligned copy and see whether
        // the arenas borrow in place.
        let aligned = AlignedBytes::from_slice(data);
        let storage = match LocationService::map_bytes(&aligned) {
            Ok(mapped) if mapped.is_borrowed() => "borrowed",
            _ => "owned",
        };

        let svc = LocationService::from_bytes(data).map_err(|e| e.to_string())?;
        let n = svc.num_nodes();
        let mut label_entries = HistogramStat::new("bundle.label.entries");
        let mut table_entries = HistogramStat::new("bundle.table.entries");
        let mut prune_bounds = HistogramStat::new("bundle.label.min_portal_dist");
        for v in 0..n {
            let v = NodeId(v as u32);
            let label = svc.oracle().label(v);
            label_entries.record(label.num_entries() as u64);
            table_entries.record(svc.router().tables().table_entries(v) as u64);
            for (_, portals) in label.entries() {
                if let Some(m) = portals.iter().map(|p| p.dist).min() {
                    prune_bounds.record(m);
                }
            }
        }
        // Both encodings are canonical, so re-encoding the loaded
        // service measures exactly what each container variant would
        // store, whichever variant `data` is.
        let (raw_bundle, delta_bundle) = (svc.to_bytes(), svc.to_bytes_compressed());
        let (_, raw) = bundle_sections(&raw_bundle).map_err(|e| e.to_string())?;
        let (_, delta) = bundle_sections(&delta_bundle).map_err(|e| e.to_string())?;
        let compression = [(2, "labels"), (3, "tables")]
            .map(|(slot, name)| CompressionStat {
                name,
                raw_bytes: raw[slot].bytes.len(),
                compressed_bytes: delta[slot].bytes.len(),
            })
            .to_vec();
        Ok(BundleStats {
            version,
            total_bytes: data.len(),
            storage,
            sections,
            num_nodes: n,
            num_edges: svc.graph().num_edges(),
            epsilon: svc.epsilon(),
            label_entries,
            table_entries,
            prune_bounds,
            compression,
        })
    }

    /// Human-readable rendering, one fact per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "psep-bundle/v{} ({} bytes, {} nodes, {} edges, epsilon {}, {} storage)\n",
            self.version,
            self.total_bytes,
            self.num_nodes,
            self.num_edges,
            self.epsilon,
            self.storage
        ));
        for s in &self.sections {
            out.push_str(&format!(
                "  section {:<7} {:>10} bytes  crc32 {:08x}\n",
                s.name, s.bytes, s.crc32
            ));
        }
        for c in &self.compression {
            out.push_str(&format!(
                "  {:<7} raw {:>10} bytes  delta {:>10} bytes  ratio {:.3}\n",
                c.name,
                c.raw_bytes,
                c.compressed_bytes,
                c.ratio()
            ));
        }
        for h in [&self.label_entries, &self.table_entries, &self.prune_bounds] {
            out.push_str(&format!(
                "  {:<28} count {:>7}  mean {:>8.2}  p50 {:>6}  p99 {:>6}  max {:>6}\n",
                h.name,
                h.count,
                h.mean().unwrap_or(0.0),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.max
            ));
        }
        out
    }

    /// Machine-readable rendering (compact JSON).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("psep-bundle-stats/v1");
        w.key("version");
        w.uint(self.version);
        w.key("total_bytes");
        w.uint(self.total_bytes as u64);
        w.key("storage");
        w.string(self.storage);
        w.key("num_nodes");
        w.uint(self.num_nodes as u64);
        w.key("num_edges");
        w.uint(self.num_edges as u64);
        w.key("epsilon");
        w.number(self.epsilon);
        w.key("sections");
        w.begin_array();
        for s in &self.sections {
            w.begin_object();
            w.key("name");
            w.string(s.name);
            w.key("bytes");
            w.uint(s.bytes as u64);
            w.key("crc32");
            w.uint(s.crc32 as u64);
            w.end_object();
        }
        w.end_array();
        w.key("compression");
        w.begin_array();
        for c in &self.compression {
            w.begin_object();
            w.key("name");
            w.string(c.name);
            w.key("raw_bytes");
            w.uint(c.raw_bytes as u64);
            w.key("compressed_bytes");
            w.uint(c.compressed_bytes as u64);
            w.key("ratio");
            w.number(c.ratio());
            w.end_object();
        }
        w.end_array();
        w.key("histograms");
        w.begin_array();
        self.label_entries.write_json(&mut w);
        self.table_entries.write_json(&mut w);
        self.prune_bounds.write_json(&mut w);
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Rewrites a bundle with delta-coded label and table sections
/// (`compress`) or raw zero-copy ones; the backing logic of
/// `psep-inspect upgrade`. Both encodings are canonical, so the output
/// answers bit-identically to the input (same graph, tree, labels, and
/// tables — only the section encoding changes) and rewriting a bundle in
/// its own encoding is the identity.
pub fn upgrade_bundle(data: &[u8], compress: bool) -> Result<Vec<u8>, String> {
    let svc = LocationService::from_bytes(data).map_err(|e| e.to_string())?;
    Ok(if compress {
        svc.to_bytes_compressed()
    } else {
        svc.to_bytes()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use path_separators::service::{ServiceParams, BUNDLE_VERSION};
    use psep_graph::generators::grids;

    #[test]
    fn stats_match_a_small_service() {
        let g = grids::grid2d(6, 6, 1);
        let svc = LocationService::build(&g, ServiceParams::default());
        let bytes = svc.to_bytes();
        let stats = BundleStats::from_bytes(&bytes).unwrap();
        assert_eq!(stats.version, BUNDLE_VERSION);
        assert_eq!(stats.total_bytes, bytes.len());
        assert_eq!(stats.num_nodes, 36);
        assert_eq!(stats.storage, "borrowed");
        assert_eq!(stats.sections.len(), 4);
        assert!(stats.sections.iter().all(|s| s.bytes > 0));
        assert_eq!(stats.label_entries.count, 36);
        assert_eq!(stats.table_entries.count, 36);
        assert!(stats.label_entries.max >= 1);
        let text = stats.render_text();
        assert!(text.contains("section graph"));
        assert!(text.contains("borrowed storage"));
        let json = stats.to_json();
        assert!(json.contains("\"schema\":\"psep-bundle-stats/v1\""));
        assert!(json.contains("\"storage\":\"borrowed\""));
        assert!(json.contains("\"name\":\"bundle.label.entries\""));
    }

    #[test]
    fn delta_bundles_report_owned_storage() {
        let g = grids::grid2d(5, 5, 1);
        let svc = LocationService::build(&g, ServiceParams::default());
        let stats = BundleStats::from_bytes(&svc.to_bytes_compressed()).unwrap();
        assert_eq!(stats.version, BUNDLE_VERSION);
        assert_eq!(stats.storage, "owned");
        assert_eq!(stats.num_nodes, 25);
    }

    #[test]
    fn upgrade_converts_between_raw_and_compressed() {
        let g = grids::grid2d(5, 5, 1);
        let svc = LocationService::build(&g, ServiceParams::default());
        let raw = svc.to_bytes();
        let compressed = upgrade_bundle(&raw, true).unwrap();
        assert_eq!(compressed, svc.to_bytes_compressed());
        assert!(compressed.len() < raw.len());
        // ...and back, bit-identically
        assert_eq!(upgrade_bundle(&compressed, false).unwrap(), raw);
        // rewriting a bundle in its own encoding is the identity
        assert_eq!(upgrade_bundle(&raw, false).unwrap(), raw);
        assert_eq!(upgrade_bundle(&compressed, true).unwrap(), compressed);
    }

    #[test]
    fn stats_report_compression_and_prune_bounds() {
        let g = grids::grid2d(6, 6, 1);
        let svc = LocationService::build(&g, ServiceParams::default());
        let stats = BundleStats::from_bytes(&svc.to_bytes()).unwrap();
        assert_eq!(stats.compression.len(), 2);
        for c in &stats.compression {
            assert!(c.raw_bytes > 0);
            assert!(
                c.compressed_bytes < c.raw_bytes,
                "{}: delta {} >= raw {}",
                c.name,
                c.compressed_bytes,
                c.raw_bytes
            );
            assert!(c.ratio() < 1.0);
        }
        assert!(stats.prune_bounds.count > 0);
        let text = stats.render_text();
        assert!(text.contains("ratio"));
        assert!(text.contains("bundle.label.min_portal_dist"));
        let json = stats.to_json();
        assert!(json.contains("\"compression\""));
        assert!(json.contains("\"name\":\"bundle.label.min_portal_dist\""));
        // compressed bundles report the same arena statistics
        let cstats = BundleStats::from_bytes(&svc.to_bytes_compressed()).unwrap();
        assert_eq!(
            cstats.compression[0].raw_bytes,
            stats.compression[0].raw_bytes
        );
        assert_eq!(
            cstats.compression[0].compressed_bytes,
            stats.compression[0].compressed_bytes
        );
        assert_eq!(cstats.prune_bounds.count, stats.prune_bounds.count);
        assert!(cstats.render_text().contains("labels (delta)"));
    }

    #[test]
    fn corrupt_bundles_are_rejected() {
        let g = grids::grid2d(4, 4, 1);
        let svc = LocationService::build(&g, ServiceParams::default());
        let mut bytes = svc.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(BundleStats::from_bytes(&bytes).is_err());
        assert!(BundleStats::from_bytes(b"not a bundle").is_err());
        assert!(upgrade_bundle(&bytes, false).is_err());
    }
}
