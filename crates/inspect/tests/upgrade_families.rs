//! `psep-inspect upgrade` round-trip guarantees on every graph family:
//! rewriting a bundle in its own encoding is the identity, raw ↔ delta
//! conversion lands on the canonical encoding of the same service in
//! both directions, and the converted bundle answers every query and
//! route bit-identically to the original — the section encoding
//! changes, the answers must not.

use path_separators::{LocationService, ServiceParams};
use psep_inspect::upgrade_bundle;
use psep_testkit::families::ALL_FAMILIES;
use psep_testkit::random_pairs;

const SEED: u64 = 20060722;

#[test]
fn upgrade_is_canonical_and_bit_identity_preserving_on_every_family() {
    for fam in ALL_FAMILIES {
        let g = fam.make(80, SEED);
        let svc = LocationService::build(&g, ServiceParams::default());
        let raw = svc.to_bytes();

        // raw -> raw is the identity.
        let again = upgrade_bundle(&raw, false).unwrap_or_else(|e| {
            panic!("{}: upgrade failed: {e}", fam.name());
        });
        assert_eq!(
            again,
            raw,
            "{}: raw rewrite is not the identity",
            fam.name()
        );

        // raw -> delta lands on the canonical delta encoding and shrinks.
        let compressed = upgrade_bundle(&raw, true).unwrap();
        assert_eq!(
            compressed,
            svc.to_bytes_compressed(),
            "{}: compressed upgrade is not canonical",
            fam.name()
        );
        assert!(
            compressed.len() < raw.len(),
            "{}: compressed {} >= raw {}",
            fam.name(),
            compressed.len(),
            raw.len()
        );
        // delta -> delta is the identity, delta -> raw is lossless.
        assert_eq!(
            upgrade_bundle(&compressed, true).unwrap(),
            compressed,
            "{}: delta rewrite is not the identity",
            fam.name()
        );
        assert_eq!(
            upgrade_bundle(&compressed, false).unwrap(),
            raw,
            "{}: compressed round-trip is lossy",
            fam.name()
        );

        // Same answers out of the converted container.
        let back = LocationService::from_bytes(&compressed).unwrap();
        let pairs = random_pairs(svc.num_nodes(), 200, SEED ^ 3);
        assert_eq!(
            svc.try_query_many(&pairs).unwrap(),
            back.try_query_many(&pairs).unwrap(),
            "{}: queries diverge after upgrade",
            fam.name()
        );
        assert_eq!(
            svc.try_route_many(&pairs).unwrap(),
            back.try_route_many(&pairs).unwrap(),
            "{}: routes diverge after upgrade",
            fam.name()
        );
    }
}
