//! Snapshot format invariants: full build→encode→decode round trips,
//! golden byte pins on the `HSNP` header/section framing (the format
//! cannot drift without a deliberate [`hopspan_store::FORMAT_VERSION`]
//! bump), and a corruption matrix where every damaged file produces a
//! typed [`StoreError`] — never a panic.

use hopspan_core::MetricNavigator;
use hopspan_metric::{gen, EuclideanSpace, Metric};
use hopspan_store::{
    decode_snapshot, encode_snapshot, encode_snapshot_parts, fnv1a, hx_hash, read_snapshot_file,
    snapshot_digest, write_snapshot_file, RoutingAccounting, StoreError, FORMAT_VERSION, MAGIC,
    SEC_META, SEC_NAVIGATOR, SEC_POINTS,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn build(n: usize, seed: u64, k: usize) -> (EuclideanSpace, MetricNavigator) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let points = gen::uniform_points(n, 2, &mut rng);
    let nav = MetricNavigator::doubling(&points, 0.5, k).expect("doubling build");
    (points, nav)
}

fn fix_checksum(bytes: &mut [u8]) {
    let cs_at = bytes.len() - 8;
    let cs = fnv1a(&bytes[..cs_at]);
    bytes[cs_at..].copy_from_slice(&cs.to_le_bytes());
}

/// Encode → decode reproduces the navigator bit-for-bit: identical
/// parts, identical `H_X` hash, identical answers, and re-encoding the
/// loaded navigator reproduces the identical byte string.
#[test]
fn snapshot_round_trip_is_identity() {
    for (n, k) in [(9usize, 2usize), (24, 3), (40, 4)] {
        let (points, nav) = build(n, 0xBEE5 + n as u64, k);
        let bytes = encode_snapshot(&points, &nav, None);
        let snap = decode_snapshot(&bytes).unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
        assert_eq!(snap.navigator.to_parts(), nav.to_parts(), "n={n} k={k}");
        assert_eq!(hx_hash(&snap.navigator), hx_hash(&nav));
        assert_eq!(snap.points, points);
        assert!(snap.routing.is_none());
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    snap.navigator.find_path(u, v).ok(),
                    nav.find_path(u, v).ok(),
                    "pair ({u},{v})"
                );
            }
        }
        let re = encode_snapshot(&snap.points, &snap.navigator, None);
        assert_eq!(re, bytes, "re-encode must be byte-identical");
    }
}

#[test]
fn routing_accounting_round_trips() {
    let (points, nav) = build(18, 0x0AC, 3);
    let acc = RoutingAccounting {
        header_bits: 96,
        per_point: (0..18).map(|i| (100 + i, 200 + 2 * i)).collect(),
    };
    let bytes = encode_snapshot(&points, &nav, Some(&acc));
    let snap = decode_snapshot(&bytes).expect("routing snapshot decodes");
    assert_eq!(snap.routing.as_ref(), Some(&acc));
}

#[test]
fn file_round_trip_reports_the_digest() {
    let (points, nav) = build(16, 0xF11E, 3);
    let path = std::env::temp_dir().join(format!("hopspan-store-test-{}.hsnp", std::process::id()));
    let written = write_snapshot_file(&path, &points, &nav, None).expect("write");
    let (snap, read_digest) = read_snapshot_file(&path).expect("read");
    let _cleanup = std::fs::remove_file(&path);
    assert_eq!(written, read_digest);
    assert_eq!(hx_hash(&snap.navigator), hx_hash(&nav));
    let bytes = encode_snapshot(&points, &nav, None);
    assert_eq!(written, snapshot_digest(&bytes));
    assert_eq!(written.bytes, bytes.len() as u64);
}

/// Golden byte pins for the frame layout. Payload bytes vary with the
/// build, so the pins cover what is format-defined: the 12-byte header,
/// the section table arithmetic, the META payload and the checksum
/// trailer. If any of these change, the layout changed — bump
/// [`FORMAT_VERSION`] and update deliberately.
#[test]
fn golden_header_and_section_framing() {
    let points = EuclideanSpace::new(vec![0.0, 1.0], 1);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let gen_points = gen::uniform_points(2, 1, &mut rng);
    // Use fixed coordinates, not the generated ones, so the POINTS pin
    // below is literal; the navigator only needs *a* valid 2-point
    // metric and 0/1 coordinates are one.
    drop(gen_points);
    let nav = MetricNavigator::doubling(&points, 0.5, 2).expect("2-point build");
    let bytes = encode_snapshot(&points, &nav, None);
    let parts = nav.to_parts();

    // Header: magic, version 1, reserved 0, three sections.
    assert_eq!(&bytes[0..4], &MAGIC);
    assert_eq!(bytes[4..6], FORMAT_VERSION.to_le_bytes());
    assert_eq!(bytes[6..8], [0, 0]);
    assert_eq!(bytes[8..12], 3u32.to_le_bytes());

    // Section table: 3 × (kind u32, offset u64, len u64), offsets
    // absolute and contiguous starting right after the table.
    let entry = |i: usize| {
        let at = 12 + 20 * i;
        let kind = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let off = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
        (kind, off, len)
    };
    let (k0, o0, l0) = entry(0);
    let (k1, o1, l1) = entry(1);
    let (k2, o2, l2) = entry(2);
    assert_eq!((k0, o0, l0), (SEC_META, 72, 32));
    assert_eq!((k1, o1), (SEC_POINTS, 104));
    assert_eq!(k2, SEC_NAVIGATOR);
    assert_eq!(o2, o1 + l1);
    assert_eq!(o2 + l2 + 8, bytes.len());

    // META payload: n=2, k=2, tree count, flags (home bit only when
    // the build recorded a Ramsey home table; no routing).
    let meta_u64 = |i: usize| u64::from_le_bytes(bytes[72 + 8 * i..80 + 8 * i].try_into().unwrap());
    assert_eq!(meta_u64(0), 2);
    assert_eq!(meta_u64(1), 2);
    assert_eq!(meta_u64(2), parts.trees.len() as u64);
    assert_eq!(meta_u64(3), u64::from(parts.home.is_some()));

    // POINTS payload, literal: dim=1, n=2, coords 0.0 and 1.0.
    let mut want_points = Vec::new();
    want_points.extend_from_slice(&1u64.to_le_bytes());
    want_points.extend_from_slice(&2u64.to_le_bytes());
    want_points.extend_from_slice(&0.0f64.to_bits().to_le_bytes());
    want_points.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    assert_eq!(l1, want_points.len());
    assert_eq!(&bytes[o1..o1 + l1], &want_points[..]);

    // Trailer: FNV-1a over everything before it.
    let cs_at = bytes.len() - 8;
    assert_eq!(
        bytes[cs_at..],
        fnv1a(&bytes[..cs_at]).to_le_bytes(),
        "checksum trailer"
    );
}

/// The corruption matrix: every kind of damage yields its own typed
/// error.
#[test]
fn typed_rejection_matrix() {
    let (points, nav) = build(14, 0xC0FF, 3);
    let bytes = encode_snapshot(&points, &nav, None);

    // Truncated below the minimum frame.
    assert!(matches!(
        decode_snapshot(&bytes[..10]),
        Err(StoreError::Truncated { .. })
    ));

    // Truncation anywhere strictly shortens the checksummed region.
    for cut in [bytes.len() / 3, bytes.len() - 9, bytes.len() - 1] {
        assert!(
            matches!(
                decode_snapshot(&bytes[..cut]),
                Err(StoreError::BadChecksum { .. } | StoreError::Truncated { .. })
            ),
            "cut={cut}"
        );
    }

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(matches!(decode_snapshot(&bad), Err(StoreError::BadMagic)));

    // Version skew: checksum re-fixed so the version check is what
    // trips, exactly what a future-format file looks like.
    let mut bad = bytes.clone();
    bad[4..6].copy_from_slice(&0xFFFFu16.to_le_bytes());
    fix_checksum(&mut bad);
    assert!(matches!(
        decode_snapshot(&bad),
        Err(StoreError::BadVersion { got: 0xFFFF })
    ));

    // A flipped payload byte fails the checksum.
    let mut bad = bytes.clone();
    let mid = bytes.len() / 2;
    bad[mid] ^= 0x40;
    assert!(matches!(
        decode_snapshot(&bad),
        Err(StoreError::BadChecksum { .. })
    ));

    // A missing required section (drop NAVIGATOR by relabeling it as
    // an unknown kind; checksum re-fixed).
    let mut bad = bytes.clone();
    bad[12 + 20 * 2..12 + 20 * 2 + 4].copy_from_slice(&99u32.to_le_bytes());
    fix_checksum(&mut bad);
    assert!(matches!(
        decode_snapshot(&bad),
        Err(StoreError::MissingSection {
            kind: SEC_NAVIGATOR
        })
    ));

    // Duplicate section kinds.
    let mut bad = bytes.clone();
    bad[12 + 20 * 2..12 + 20 * 2 + 4].copy_from_slice(&SEC_META.to_le_bytes());
    fix_checksum(&mut bad);
    assert!(matches!(
        decode_snapshot(&bad),
        Err(StoreError::Malformed {
            what: "duplicate section kind"
        })
    ));

    // Section bounds escaping the file.
    let mut bad = bytes.clone();
    bad[12 + 20 + 12..12 + 20 + 20].copy_from_slice(&u64::MAX.to_le_bytes());
    fix_checksum(&mut bad);
    assert!(matches!(
        decode_snapshot(&bad),
        Err(StoreError::Malformed { .. })
    ));
}

/// Checksum-valid but semantically corrupt: damage applied to the
/// *parts* before encoding, so only deep validation can catch it.
#[test]
fn deep_validation_catches_checksum_valid_corruption() {
    let (points, nav) = build(20, 0xDEE9, 3);

    // An out-of-bounds CSR offset inside a tree spanner.
    let mut parts = nav.to_parts();
    parts.trees[0].spanner.base_off[0] = u32::MAX;
    let bytes = encode_snapshot_parts(&points, &parts, None);
    match decode_snapshot(&bytes) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("OOB CSR index not caught: {other:?}"),
    }

    // An H_X edge pointing past the point set.
    let mut parts = nav.to_parts();
    if let Some(e) = parts.edges.first_mut() {
        e.1 = usize::MAX;
    }
    let bytes = encode_snapshot_parts(&points, &parts, None);
    match decode_snapshot(&bytes) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("OOB edge endpoint not caught: {other:?}"),
    }

    // Meta/navigator disagreement (sections independently tampered).
    let mut parts = nav.to_parts();
    parts.n += 1;
    let bytes = encode_snapshot_parts(&points, &parts, None);
    match decode_snapshot(&bytes) {
        Err(StoreError::Malformed { .. } | StoreError::Corrupt { .. }) => {}
        other => panic!("meta disagreement not caught: {other:?}"),
    }

    // Routing accounting of the wrong length.
    let acc = RoutingAccounting {
        header_bits: 1,
        per_point: vec![(1, 1)],
    };
    let bytes = encode_snapshot_parts(&points, &nav.to_parts(), Some(&acc));
    match decode_snapshot(&bytes) {
        Err(StoreError::Malformed {
            what: "routing accounting length mismatch",
        }) => {}
        other => panic!("routing length mismatch not caught: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomly built navigators round-trip with a bit-identical `H_X`
    /// hash and a byte-identical re-encode.
    #[test]
    fn random_builds_round_trip(seed in 0u64..10_000, n in 8usize..24, k in 2usize..4) {
        let (points, nav) = build(n, seed, k);
        let bytes = encode_snapshot(&points, &nav, None);
        let snap = decode_snapshot(&bytes).expect("round trip decodes");
        prop_assert_eq!(hx_hash(&snap.navigator), hx_hash(&nav));
        prop_assert_eq!(snap.points.len(), points.len());
        let re = encode_snapshot(&snap.points, &snap.navigator, None);
        prop_assert_eq!(re, bytes);
    }

    /// Arbitrary byte soup never panics the decoder — with or without
    /// a plausible-looking header.
    #[test]
    fn garbage_never_panics(raw_soup in proptest::collection::vec(0u32..256, 0..256), header_coin in 0u32..2) {
        let mut soup: Vec<u8> = raw_soup.iter().map(|&b| b as u8).collect();
        let with_header = header_coin == 1;
        if with_header && soup.len() >= 8 {
            soup[0..4].copy_from_slice(&MAGIC);
            soup[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
            soup[6..8].copy_from_slice(&[0, 0]);
            if soup.len() >= 20 {
                let keep = soup.len();
                fix_checksum(&mut soup[..keep]);
            }
        }
        prop_assert!(decode_snapshot(&soup).is_err());
    }

    /// A flipped bit anywhere in a real snapshot is rejected typed —
    /// the checksum covers every byte before the trailer, and a flip
    /// inside the trailer itself mismatches the recomputed value.
    #[test]
    fn any_flipped_bit_is_rejected(seed in 0u64..1_000, frac in 0.0f64..1.0, bit in 0usize..8) {
        let (points, nav) = build(10, seed, 2);
        let mut bytes = encode_snapshot(&points, &nav, None);
        let at = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[at] ^= 1 << bit;
        match decode_snapshot(&bytes) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "flipped bit {bit} at {at} accepted"),
        }
    }

    /// The routing section is optional and orthogonal: presence flag,
    /// payload and round-trip all agree.
    #[test]
    fn routing_presence_round_trips(seed in 0u64..1_000, routing_coin in 0u32..2) {
        let with_routing = routing_coin == 1;
        let (points, nav) = build(9, seed, 2);
        let acc = RoutingAccounting {
            header_bits: seed,
            per_point: (0..9).map(|i| (seed + i, 2 * i)).collect(),
        };
        let bytes = encode_snapshot(&points, &nav, if with_routing { Some(&acc) } else { None });
        let snap = decode_snapshot(&bytes).expect("decodes");
        prop_assert_eq!(snap.routing.is_some(), with_routing);
        if with_routing {
            prop_assert_eq!(snap.routing.unwrap(), acc);
        }
    }
}
