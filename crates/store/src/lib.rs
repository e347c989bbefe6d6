//! Versioned flat binary snapshots of hopspan navigation structures.
//!
//! Building a [`MetricNavigator`] is the expensive part of serving: a
//! tree cover plus a Theorem 1.1 spanner per tree. This crate persists
//! the *finished* dense structures — points, `H_X` edges, per-tree
//! spanner tables, membership masks, routing-label accounting — as one
//! `HSNP` file of contiguous little-endian arrays, so a server boots by
//! reading and validating instead of rebuilding.
//!
//! # File format (`HSNP`, version 1)
//!
//! ```text
//! header    magic "HSNP" (4) · version u16 · reserved u16 · section_count u32
//! table     section_count × { kind u32 · offset u64 · len u64 }   (absolute offsets)
//! payloads  concatenated section bytes
//! trailer   FNV-1a u64 over every preceding byte
//! ```
//!
//! Sections: `META` (counts + presence flags), `POINTS` (the Euclidean
//! coordinates), `NAVIGATOR` (the recursive parts blob, see the crate's
//! `codec` module) and optionally `ROUTING` (§5 per-point bit
//! accounting). Unknown section kinds are ignored on read, so version 1
//! readers tolerate forward-compatible additions.
//!
//! # Trust model
//!
//! [`decode_snapshot`] treats its input as hostile: frame checks
//! (magic, version, checksum, section bounds) come first, then the
//! byte-level codec guards every length prefix against the section
//! size, and finally `MetricNavigator::from_parts` revalidates the
//! semantic invariants of every table. Corruption of any kind is a
//! typed [`StoreError`] — never a panic, never an oversized allocation.
//!
//! # Examples
//!
//! ```
//! use hopspan_core::MetricNavigator;
//! use hopspan_metric::gen;
//! use hopspan_store::{decode_snapshot, encode_snapshot, hx_hash};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
//! let points = gen::uniform_points(24, 2, &mut rng);
//! let nav = MetricNavigator::doubling(&points, 0.5, 3)?;
//! let bytes = encode_snapshot(&points, &nav, None);
//! let loaded = decode_snapshot(&bytes)?;
//! assert_eq!(hx_hash(&loaded.navigator), hx_hash(&nav));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use hopspan_core::{MetricNavigator, MetricNavigatorParts, NavigationError};
use hopspan_metric::{EuclideanSpace, Metric};
use hopspan_tree_cover::CoverError;
use hopspan_tree_spanner::TreeSpannerError;

mod codec;
mod section;

pub use section::fnv1a;

use section::{ByteReader, ByteWriter};

/// The four magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"HSNP";

/// Current snapshot format version. Readers reject anything newer; the
/// layout documented at the crate root is frozen for this version.
pub const FORMAT_VERSION: u16 = 1;

/// Section kind: counts and presence flags.
pub const SEC_META: u32 = 1;
/// Section kind: Euclidean point coordinates.
pub const SEC_POINTS: u32 = 2;
/// Section kind: the recursive navigator parts blob.
pub const SEC_NAVIGATOR: u32 = 3;
/// Section kind: §5 routing-label bit accounting (optional).
pub const SEC_ROUTING: u32 = 4;

const HEADER_LEN: usize = 12;
const TABLE_ENTRY_LEN: usize = 20;
const CHECKSUM_LEN: usize = 8;

/// Everything that can go wrong writing or loading a snapshot. Framing
/// problems (`Truncated`, `BadMagic`, `BadVersion`, `BadChecksum`,
/// `MissingSection`), byte-level decode problems (`Malformed`) and
/// semantic validation failures (`Corrupt`) are distinguished so
/// callers can tell "wrong file" from "damaged file" from "forged
/// file".
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The input ended before a read could complete.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first four bytes are not `HSNP`.
    BadMagic,
    /// The format version is newer than this reader understands.
    BadVersion {
        /// Version found in the header.
        got: u16,
    },
    /// The trailing FNV-1a checksum does not match the file contents.
    BadChecksum {
        /// Checksum recomputed over the file.
        expected: u64,
        /// Checksum stored in the trailer.
        got: u64,
    },
    /// A required section is absent from the section table.
    MissingSection {
        /// The missing section kind.
        kind: u32,
    },
    /// A section's bytes are structurally invalid (bad length prefix,
    /// stray bits, unknown flags, trailing bytes, …).
    Malformed {
        /// Which structural rule failed.
        what: &'static str,
    },
    /// The decoded tables fail semantic validation — the frame is
    /// intact but does not describe a real navigator.
    Corrupt {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            StoreError::Truncated { need, got } => {
                write!(f, "snapshot truncated: needed {need} bytes, had {got}")
            }
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported snapshot format version {got} (reader supports {FORMAT_VERSION})"
                )
            }
            StoreError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "snapshot checksum mismatch: computed {expected:#018x}, stored {got:#018x}"
                )
            }
            StoreError::MissingSection { kind } => {
                write!(f, "snapshot is missing required section kind {kind}")
            }
            StoreError::Malformed { what } => write!(f, "malformed snapshot section: {what}"),
            StoreError::Corrupt { what } => {
                write!(f, "snapshot failed validation: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<NavigationError> for StoreError {
    fn from(e: NavigationError) -> Self {
        match e {
            NavigationError::Corrupt { what } => StoreError::Corrupt { what },
            NavigationError::Spanner(TreeSpannerError::Corrupt { what }) => {
                StoreError::Corrupt { what }
            }
            NavigationError::Cover(CoverError::Corrupt { what }) => StoreError::Corrupt { what },
            _ => StoreError::Corrupt {
                what: "navigator parts rejected",
            },
        }
    }
}

/// §5 compact-routing bit accounting carried alongside the navigator.
///
/// The routing scheme itself is rebuilt rather than persisted (its port
/// numbering is an RNG artifact, not a navigational invariant); what a
/// snapshot preserves is the *measured* space usage the experiments
/// report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutingAccounting {
    /// Shared header bits counted once per scheme.
    pub header_bits: u64,
    /// Per point: `(label_bits, table_bits)`.
    pub per_point: Vec<(u64, u64)>,
}

/// A fully decoded and validated snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The Euclidean point set the navigator was built over.
    pub points: EuclideanSpace,
    /// The reassembled, revalidated navigator.
    pub navigator: MetricNavigator,
    /// §5 routing bit accounting, when the writer recorded it.
    pub routing: Option<RoutingAccounting>,
}

/// Size and checksum of a written snapshot, as reported by
/// [`write_snapshot_file`] and [`read_snapshot_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotDigest {
    /// Total file size in bytes, trailer included.
    pub bytes: u64,
    /// The trailing FNV-1a checksum.
    pub checksum: u64,
}

fn encode_meta(parts: &MetricNavigatorParts, routing: Option<&RoutingAccounting>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(parts.n);
    w.put_usize(parts.k);
    w.put_usize(parts.trees.len());
    let flags = u64::from(parts.home.is_some()) | u64::from(routing.is_some()) << 1;
    w.put_u64(flags);
    w.into_inner()
}

fn encode_points(points: &EuclideanSpace) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(points.dim());
    w.put_usize(points.len());
    for i in 0..points.len() {
        for &c in points.point(i) {
            w.put_f64(c);
        }
    }
    w.into_inner()
}

fn decode_points(bytes: &[u8]) -> Result<EuclideanSpace, StoreError> {
    let mut r = ByteReader::new(bytes);
    let dim = r.get_usize()?;
    if dim == 0 {
        return Err(StoreError::Malformed {
            what: "point dimension must be positive",
        });
    }
    let n = r.get_usize()?;
    let total = n.checked_mul(dim).ok_or(StoreError::Malformed {
        what: "point count overflows",
    })?;
    if total.checked_mul(8).is_none_or(|t| t > r.remaining()) {
        return Err(StoreError::Malformed {
            what: "length prefix exceeds the section",
        });
    }
    let mut coords = Vec::with_capacity(total);
    for _ in 0..total {
        coords.push(r.get_f64()?);
    }
    if !r.is_empty() {
        return Err(StoreError::Malformed {
            what: "trailing bytes after the points section",
        });
    }
    Ok(EuclideanSpace::new(coords, dim))
}

fn encode_routing(acc: &RoutingAccounting) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(acc.header_bits);
    w.put_usize(acc.per_point.len());
    for &(label, table) in &acc.per_point {
        w.put_u64(label);
        w.put_u64(table);
    }
    w.into_inner()
}

fn decode_routing(bytes: &[u8]) -> Result<RoutingAccounting, StoreError> {
    let mut r = ByteReader::new(bytes);
    let header_bits = r.get_u64()?;
    let n = r.get_len(16)?;
    let mut per_point = Vec::with_capacity(n);
    for _ in 0..n {
        let label = r.get_u64()?;
        let table = r.get_u64()?;
        per_point.push((label, table));
    }
    if !r.is_empty() {
        return Err(StoreError::Malformed {
            what: "trailing bytes after the routing section",
        });
    }
    Ok(RoutingAccounting {
        header_bits,
        per_point,
    })
}

/// Encodes a snapshot from a navigator's extracted parts. This is the
/// lower-level sibling of [`encode_snapshot`] — it happily serializes
/// *invalid* parts (the chaos harness uses this to craft checksummed
/// files whose corruption only deep validation can catch).
pub fn encode_snapshot_parts(
    points: &EuclideanSpace,
    parts: &MetricNavigatorParts,
    routing: Option<&RoutingAccounting>,
) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> = vec![
        (SEC_META, encode_meta(parts, routing)),
        (SEC_POINTS, encode_points(points)),
        (SEC_NAVIGATOR, codec::encode_navigator(parts)),
    ];
    if let Some(acc) = routing {
        sections.push((SEC_ROUTING, encode_routing(acc)));
    }

    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u16(0); // reserved
    w.put_u32(sections.len() as u32);
    let mut offset = HEADER_LEN + sections.len() * TABLE_ENTRY_LEN;
    for (kind, payload) in &sections {
        w.put_u32(*kind);
        w.put_u64(offset as u64);
        w.put_u64(payload.len() as u64);
        offset += payload.len();
    }
    for (_, payload) in &sections {
        w.put_bytes(payload);
    }
    let checksum = fnv1a(w.as_slice());
    w.put_u64(checksum);
    w.into_inner()
}

/// Encodes a built navigator (plus its point set and optional routing
/// accounting) as a complete `HSNP` snapshot byte string.
pub fn encode_snapshot(
    points: &EuclideanSpace,
    nav: &MetricNavigator,
    routing: Option<&RoutingAccounting>,
) -> Vec<u8> {
    encode_snapshot_parts(points, &nav.to_parts(), routing)
}

struct SectionTable<'a> {
    bytes: &'a [u8],
    entries: Vec<(u32, usize, usize)>,
}

impl<'a> SectionTable<'a> {
    fn get(&self, kind: u32) -> Option<&'a [u8]> {
        self.entries
            .iter()
            .find(|&&(k, _, _)| k == kind)
            .map(|&(_, off, len)| &self.bytes[off..off + len])
    }

    fn require(&self, kind: u32) -> Result<&'a [u8], StoreError> {
        self.get(kind).ok_or(StoreError::MissingSection { kind })
    }
}

/// Parses and checks the snapshot frame: magic, version, checksum and
/// the section table (bounds, overlap with the frame, duplicates).
fn parse_frame(bytes: &[u8]) -> Result<SectionTable<'_>, StoreError> {
    let min = HEADER_LEN + CHECKSUM_LEN;
    if bytes.len() < min {
        return Err(StoreError::Truncated {
            need: min,
            got: bytes.len(),
        });
    }
    let body = &bytes[..bytes.len() - CHECKSUM_LEN];
    let mut r = ByteReader::new(body);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.get_u8()?;
    }
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.get_u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion { got: version });
    }
    let _reserved = r.get_u16()?;
    // Checksum before the section table: a flipped bit anywhere in the
    // file — table included — must surface as BadChecksum, not as a
    // confusing downstream decode error.
    let expected = fnv1a(body);
    let mut tail = ByteReader::new(&bytes[bytes.len() - CHECKSUM_LEN..]);
    let got = tail.get_u64()?;
    if expected != got {
        return Err(StoreError::BadChecksum { expected, got });
    }
    let count = r.get_u32()? as usize;
    if count
        .checked_mul(TABLE_ENTRY_LEN)
        .is_none_or(|t| t > r.remaining())
    {
        return Err(StoreError::Malformed {
            what: "section table exceeds the file",
        });
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = r.get_u32()?;
        let off = r.get_usize()?;
        let len = r.get_usize()?;
        let end = off.checked_add(len).ok_or(StoreError::Malformed {
            what: "section bounds overflow",
        })?;
        if off < HEADER_LEN + count * TABLE_ENTRY_LEN || end > body.len() {
            return Err(StoreError::Malformed {
                what: "section bounds outside the payload area",
            });
        }
        if entries.iter().any(|&(k, _, _)| k == kind) {
            return Err(StoreError::Malformed {
                what: "duplicate section kind",
            });
        }
        entries.push((kind, off, len));
    }
    Ok(SectionTable {
        bytes: body,
        entries,
    })
}

/// Decodes and fully validates a snapshot byte string.
///
/// # Errors
///
/// Any framing, structural or semantic defect is reported as the
/// matching [`StoreError`] variant; hostile input cannot cause a panic
/// or an allocation larger than the input itself.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let table = parse_frame(bytes)?;
    let meta = table.require(SEC_META)?;
    let mut m = ByteReader::new(meta);
    let meta_n = m.get_usize()?;
    let meta_k = m.get_usize()?;
    let meta_trees = m.get_usize()?;
    let meta_flags = m.get_u64()?;
    if meta_flags & !0b11 != 0 {
        return Err(StoreError::Malformed {
            what: "unknown meta flags",
        });
    }

    let points = decode_points(table.require(SEC_POINTS)?)?;
    let parts = codec::decode_navigator(table.require(SEC_NAVIGATOR)?)?;
    let routing = match table.get(SEC_ROUTING) {
        Some(sec) => Some(decode_routing(sec)?),
        None => None,
    };

    // The meta section is the writer's own summary; a disagreement
    // means the sections were swapped or independently tampered with.
    if meta_n != parts.n
        || meta_k != parts.k
        || meta_trees != parts.trees.len()
        || (meta_flags & 1 != 0) != parts.home.is_some()
        || (meta_flags & 2 != 0) != routing.is_some()
        || points.len() != parts.n
    {
        return Err(StoreError::Malformed {
            what: "meta section disagrees with the navigator",
        });
    }
    if let Some(acc) = &routing {
        if acc.per_point.len() != parts.n {
            return Err(StoreError::Malformed {
                what: "routing accounting length mismatch",
            });
        }
    }

    let navigator = MetricNavigator::from_parts(parts)?;
    Ok(Snapshot {
        points,
        navigator,
        routing,
    })
}

/// Computes the digest ([`SnapshotDigest`]) of an encoded snapshot
/// without decoding it.
#[must_use]
pub fn snapshot_digest(bytes: &[u8]) -> SnapshotDigest {
    let body_end = bytes.len().saturating_sub(CHECKSUM_LEN);
    SnapshotDigest {
        bytes: bytes.len() as u64,
        checksum: fnv1a(&bytes[..body_end]),
    }
}

/// Encodes a snapshot and writes it to `path` atomically enough for a
/// boot file: written to completion, flushed, then reported.
///
/// # Errors
///
/// Propagates filesystem errors as [`StoreError::Io`].
pub fn write_snapshot_file(
    path: &Path,
    points: &EuclideanSpace,
    nav: &MetricNavigator,
    routing: Option<&RoutingAccounting>,
) -> Result<SnapshotDigest, StoreError> {
    let bytes = encode_snapshot(points, nav, routing);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(snapshot_digest(&bytes))
}

/// Reads a snapshot file into memory without decoding it — the one
/// disk read shared by all replicas of a boot.
///
/// # Errors
///
/// Propagates filesystem errors as [`StoreError::Io`].
pub fn read_snapshot_bytes(path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut f = std::fs::File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Reads, decodes and validates a snapshot file.
///
/// # Errors
///
/// Filesystem errors surface as [`StoreError::Io`]; everything else as
/// the [`decode_snapshot`] error taxonomy.
pub fn read_snapshot_file(path: &Path) -> Result<(Snapshot, SnapshotDigest), StoreError> {
    let bytes = read_snapshot_bytes(path)?;
    let digest = snapshot_digest(&bytes);
    let snapshot = decode_snapshot(&bytes)?;
    Ok((snapshot, digest))
}

/// FNV-1a hash of the navigator's `H_X` spanner: `n`, `k`, edge count,
/// then every `(u, v, weight)` in the canonical strictly-sorted order.
/// Two navigators answer from the same spanner iff their hashes match;
/// the cross-process boot test pins snapshot loads to this.
#[must_use]
pub fn hx_hash(nav: &MetricNavigator) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(nav.point_count());
    w.put_usize(nav.k());
    w.put_usize(nav.spanner_edge_count());
    for &(u, v, wt) in nav.spanner_edges() {
        w.put_usize(u);
        w.put_usize(v);
        w.put_f64(wt);
    }
    fnv1a(w.as_slice())
}
