//! Persistent snapshot wire format.
//!
//! The [`StateHasher`](crate::StateHasher) stream already defines a
//! canonical, platform-stable byte order over architectural state; this
//! module makes that stream durable:
//!
//! - `SnapReader` — the decoding mirror of the hasher's typed `write_*`
//!   calls behind [`StateIo::reading`](crate::StateIo::reading), with
//!   bounds-checked reads and diagnostic errors ([`SnapDecodeError`])
//!   instead of panics.
//! - [`SnapshotBlob`] — a versioned, checksummed container carrying a
//!   recorded state stream plus the scenario recipe that rebuilds the
//!   structural skeleton the stream is loaded into.
//! - [`BlobStore`] — a content-addressed on-disk store for encoded
//!   blobs, with a logical-name index so warm boundaries can be looked
//!   up by recipe key.

use crate::fnv64;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every encoded [`SnapshotBlob`].
pub const BLOB_MAGIC: &[u8; 8] = b"FGQOSNAP";

/// Version of the blob *container* layout (magic/header/checksum). The
/// version of the state stream inside is carried separately as
/// [`SnapshotBlob::snapshot_version`].
pub const BLOB_CONTAINER_VERSION: u32 = 1;

/// Errors from decoding a snapshot stream or blob container.
///
/// Every variant is diagnostic: corrupt or incompatible input must
/// surface as one of these, never as a panic or silently wrong state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapDecodeError {
    /// The input ended before a field could be read in full.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Byte offset at which the read started.
        at: usize,
    },
    /// The blob does not start with [`BLOB_MAGIC`].
    BadMagic,
    /// The blob container layout version is not understood.
    ContainerVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The whole-blob checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// The state stream was written by an incompatible snapshot version.
    Version {
        /// Version found in the stream.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A component section tag did not match the component being loaded
    /// (stream and skeleton disagree on structure).
    SectionMismatch {
        /// Tag the loader expected.
        expected: String,
        /// Tag found in the stream.
        found: String,
    },
    /// A field held a value outside its valid encoding (e.g. a bool
    /// byte that is neither 0 nor 1) or inconsistent with the skeleton.
    BadValue {
        /// Description of the offending field.
        what: String,
        /// Byte offset of the field.
        at: usize,
    },
    /// The stream contains state for a component kind that does not
    /// support loading.
    Unsupported {
        /// The component's label.
        component: String,
    },
    /// The state loaded cleanly but its recomputed fingerprint differs
    /// from the one recorded when the snapshot was taken.
    FingerprintMismatch {
        /// Fingerprint recorded in the blob.
        expected: u64,
        /// Fingerprint recomputed from the loaded state.
        found: u64,
    },
    /// The scenario recipe embedded in the blob failed to parse or
    /// build.
    Scenario {
        /// The parser/builder diagnostic.
        message: String,
    },
    /// Decoding finished with unread bytes left in the stream.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl SnapDecodeError {
    /// Shorthand for [`SnapDecodeError::Unsupported`].
    pub fn unsupported(component: impl Into<String>) -> Self {
        SnapDecodeError::Unsupported {
            component: component.into(),
        }
    }
}

impl fmt::Display for SnapDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapDecodeError::Truncated { what, at } => {
                write!(f, "snapshot stream truncated reading {what} at byte {at}")
            }
            SnapDecodeError::BadMagic => write!(f, "not a snapshot blob (bad magic)"),
            SnapDecodeError::ContainerVersion { found } => {
                write!(
                    f,
                    "unsupported blob container version {found} (expected {BLOB_CONTAINER_VERSION})"
                )
            }
            SnapDecodeError::ChecksumMismatch { expected, found } => write!(
                f,
                "blob checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
            ),
            SnapDecodeError::Version { found, expected } => write!(
                f,
                "snapshot stream version {found} incompatible with supported version {expected}"
            ),
            SnapDecodeError::SectionMismatch { expected, found } => write!(
                f,
                "snapshot section mismatch: expected {expected:?}, found {found:?}"
            ),
            SnapDecodeError::BadValue { what, at } => {
                write!(f, "invalid snapshot field at byte {at}: {what}")
            }
            SnapDecodeError::Unsupported { component } => {
                write!(f, "component {component:?} does not support state loading")
            }
            SnapDecodeError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint mismatch: blob records {expected:#018x}, \
                 loaded state hashes to {found:#018x}"
            ),
            SnapDecodeError::Scenario { message } => {
                write!(f, "embedded scenario recipe rejected: {message}")
            }
            SnapDecodeError::TrailingBytes { remaining } => {
                write!(f, "snapshot stream has {remaining} trailing byte(s)")
            }
        }
    }
}

impl std::error::Error for SnapDecodeError {}

/// Bounds-checked reader over a recorded state stream.
///
/// Each `read_*` method mirrors the corresponding
/// [`StateHasher`](crate::StateHasher) `write_*` encoding, so a stream
/// captured with [`StateHasher::recording`](crate::StateHasher::recording)
/// decodes field-for-field in the same order it was written.
#[derive(Debug)]
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte stream for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current byte offset into the stream.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapDecodeError> {
        let at = self.pos;
        let end = at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapDecodeError::Truncated { what, at })?;
        self.pos = end;
        Ok(&self.buf[at..end])
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, SnapDecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self, what: &'static str) -> Result<u16, SnapDecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self, what: &'static str) -> Result<u32, SnapDecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, SnapDecodeError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `u128`.
    pub fn read_u128(&mut self, what: &'static str) -> Result<u128, SnapDecodeError> {
        let b = self.take(16, what)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads a `usize` written as a widened `u64`.
    pub fn read_usize(&mut self, what: &'static str) -> Result<usize, SnapDecodeError> {
        let at = self.pos;
        let v = self.read_u64(what)?;
        usize::try_from(v).map_err(|_| SnapDecodeError::BadValue {
            what: format!("{what}: {v} exceeds this platform's usize"),
            at,
        })
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn read_bool(&mut self, what: &'static str) -> Result<bool, SnapDecodeError> {
        let at = self.pos;
        match self.read_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapDecodeError::BadValue {
                what: format!("{what}: bool byte {v}"),
                at,
            }),
        }
    }

    /// Reads an `f64` stored by bit pattern.
    pub fn read_f64(&mut self, what: &'static str) -> Result<f64, SnapDecodeError> {
        Ok(f64::from_bits(self.read_u64(what)?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn read_byte_slice(&mut self, what: &'static str) -> Result<&'a [u8], SnapDecodeError> {
        let len = self.read_usize(what)?;
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self, what: &'static str) -> Result<String, SnapDecodeError> {
        let at = self.pos;
        let b = self.read_byte_slice(what)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapDecodeError::BadValue {
            what: format!("{what}: invalid UTF-8"),
            at,
        })
    }

    /// Reads a section tag and verifies it matches `tag`.
    pub fn section(&mut self, tag: &str) -> Result<(), SnapDecodeError> {
        let found = self.read_str("section tag")?;
        if found == tag {
            Ok(())
        } else {
            Err(SnapDecodeError::SectionMismatch {
                expected: tag.to_string(),
                found,
            })
        }
    }

    /// Fails unless the whole stream has been consumed.
    pub fn expect_end(&self) -> Result<(), SnapDecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapDecodeError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// A durable snapshot: the recorded state stream plus the scenario
/// recipe that rebuilds the structural skeleton it loads into.
///
/// Encoded layout (all integers little-endian):
///
/// ```text
/// magic              8 bytes  "FGQOSNAP"
/// container version  u32
/// snapshot version   u32      (version of the state stream encoding)
/// fingerprint        u64      (FNV-1a digest of the state stream)
/// cycle              u64      (boundary cycle of the snapshot)
/// scenario length    u64      + that many UTF-8 bytes
/// state length       u64      + that many stream bytes
/// checksum           u64      (fnv64 of every preceding byte)
/// ```
///
/// The trailing checksum catches truncation and bit corruption before
/// any state is interpreted; the fingerprint is re-verified after the
/// state is loaded, so a blob can never silently restore wrong state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// Version of the state stream encoding (the simulator's
    /// `SNAPSHOT_VERSION` at capture time).
    pub snapshot_version: u32,
    /// FNV-1a fingerprint of the state stream.
    pub fingerprint: u64,
    /// Boundary cycle the snapshot was taken at.
    pub cycle: u64,
    /// Scenario text that rebuilds the structural skeleton.
    pub scenario: String,
    /// The recorded state stream.
    pub state: Vec<u8>,
}

impl SnapshotBlob {
    /// Serializes the blob to its on-disk/on-wire byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(8 + 4 + 4 + 8 + 8 + 16 + self.scenario.len() + self.state.len() + 8);
        out.extend_from_slice(BLOB_MAGIC);
        out.extend_from_slice(&BLOB_CONTAINER_VERSION.to_le_bytes());
        out.extend_from_slice(&self.snapshot_version.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.cycle.to_le_bytes());
        out.extend_from_slice(&(self.scenario.len() as u64).to_le_bytes());
        out.extend_from_slice(self.scenario.as_bytes());
        out.extend_from_slice(&(self.state.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.state);
        let sum = fnv64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes and integrity-checks an encoded blob.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic [`SnapDecodeError`] on bad magic, an unknown
    /// container version, truncation, or a checksum mismatch. The state
    /// stream itself is *not* interpreted here.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotBlob, SnapDecodeError> {
        if bytes.len() < 8 || &bytes[..8] != BLOB_MAGIC {
            return Err(SnapDecodeError::BadMagic);
        }
        if bytes.len() < 8 + 8 {
            return Err(SnapDecodeError::Truncated {
                what: "blob trailer",
                at: bytes.len(),
            });
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(trailer);
        let expected = u64::from_le_bytes(sum);
        let found = fnv64(payload);
        if expected != found {
            return Err(SnapDecodeError::ChecksumMismatch { expected, found });
        }
        let mut r = SnapReader::new(&payload[8..]);
        let container = r.read_u32("container version")?;
        if container != BLOB_CONTAINER_VERSION {
            return Err(SnapDecodeError::ContainerVersion { found: container });
        }
        let snapshot_version = r.read_u32("snapshot version")?;
        let fingerprint = r.read_u64("fingerprint")?;
        let cycle = r.read_u64("cycle")?;
        let scenario = r.read_str("scenario recipe")?;
        let state = r.read_byte_slice("state stream")?.to_vec();
        r.expect_end()?;
        Ok(SnapshotBlob {
            snapshot_version,
            fingerprint,
            cycle,
            scenario,
            state,
        })
    }

    /// The content key (hex FNV-1a digest) of an encoded blob.
    pub fn content_key(encoded: &[u8]) -> String {
        format!("{:016x}", fnv64(encoded))
    }
}

fn valid_key(key: &str) -> bool {
    !key.is_empty() && key.len() <= 64 && key.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Content-addressed on-disk store for encoded snapshot blobs.
///
/// Objects live under `<dir>/objects/<fnv64-hex>.blob`; writes go
/// through a temp file and an atomic rename, so concurrent workers can
/// share one store directory without coordination (identical content
/// maps to the identical object file). A separate `<dir>/index/`
/// namespace maps logical warm-boundary keys to content keys.
#[derive(Debug, Clone)]
pub struct BlobStore {
    dir: PathBuf,
}

impl BlobStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory tree.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<BlobStore> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("objects"))?;
        fs::create_dir_all(dir.join("index"))?;
        Ok(BlobStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn object_path(&self, key: &str) -> PathBuf {
        self.dir.join("objects").join(format!("{key}.blob"))
    }

    fn index_path(&self, name: &str) -> PathBuf {
        self.dir.join("index").join(format!("{name}.ref"))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path)
    }

    /// Stores encoded blob bytes, returning their content key. Storing
    /// identical bytes twice is a cheap no-op.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn put(&self, encoded: &[u8]) -> io::Result<String> {
        let key = SnapshotBlob::content_key(encoded);
        let path = self.object_path(&key);
        if !path.exists() {
            self.write_atomic(&path, encoded)?;
        }
        Ok(key)
    }

    /// Loads the encoded blob stored under `key`, verifying the content
    /// digest on the way in. Returns `Ok(None)` when the key is absent.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the stored bytes no longer match the
    /// key (on-disk corruption), or other filesystem errors.
    pub fn get(&self, key: &str) -> io::Result<Option<Vec<u8>>> {
        if !valid_key(key) {
            return Ok(None);
        }
        let path = self.object_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let actual = SnapshotBlob::content_key(&bytes);
        if actual != key {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("blob {key} corrupt on disk: content hashes to {actual}"),
            ));
        }
        Ok(Some(bytes))
    }

    /// Maps a logical name (a hex recipe key) to a content key.
    ///
    /// # Errors
    ///
    /// Rejects non-hex names with `InvalidInput`; propagates filesystem
    /// errors.
    pub fn link(&self, name: &str, key: &str) -> io::Result<()> {
        if !valid_key(name) || !valid_key(key) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "blob store names and keys must be short hex strings",
            ));
        }
        self.write_atomic(&self.index_path(name), key.as_bytes())
    }

    /// Resolves a logical name to its content key, if linked.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than absence.
    pub fn resolve(&self, name: &str) -> io::Result<Option<String>> {
        if !valid_key(name) {
            return Ok(None);
        }
        match fs::read_to_string(self.index_path(name)) {
            Ok(s) => {
                let key = s.trim().to_string();
                Ok(valid_key(&key).then_some(key))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Convenience: store encoded bytes and link them under `name`.
    ///
    /// # Errors
    ///
    /// Propagates [`BlobStore::put`] and [`BlobStore::link`] errors.
    pub fn put_named(&self, name: &str, encoded: &[u8]) -> io::Result<String> {
        let key = self.put(encoded)?;
        self.link(name, &key)?;
        Ok(key)
    }

    /// Convenience: resolve `name` and load its blob bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`BlobStore::resolve`] and [`BlobStore::get`] errors.
    pub fn get_named(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match self.resolve(name)? {
            Some(key) => self.get(&key),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateHasher;

    fn sample_blob() -> SnapshotBlob {
        SnapshotBlob {
            snapshot_version: 1,
            fingerprint: 0x1234_5678_9abc_def0,
            cycle: 60_000_000,
            scenario: "clock_mhz 1000\n[master cpu]\nkind cpu\n".to_string(),
            state: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
        }
    }

    #[test]
    fn recorded_stream_decodes_field_for_field() {
        let mut h = StateHasher::recording();
        h.section("demo");
        h.write_u8(7);
        h.write_u16(300);
        h.write_u32(70_000);
        h.write_u64(1 << 40);
        h.write_u128(1 << 80);
        h.write_usize(42);
        h.write_bool(true);
        h.write_f64(2.5);
        h.write_str("tail");
        let hash = h.finish();
        let bytes = h.take_bytes();
        assert_eq!(bytes.len() as u64, {
            let mut plain = StateHasher::new();
            plain.section("demo");
            plain.write_u8(7);
            plain.write_u16(300);
            plain.write_u32(70_000);
            plain.write_u64(1 << 40);
            plain.write_u128(1 << 80);
            plain.write_usize(42);
            plain.write_bool(true);
            plain.write_f64(2.5);
            plain.write_str("tail");
            assert_eq!(plain.finish(), hash);
            plain.bytes_written()
        });
        // The recorded stream hashes to the same fingerprint.
        assert_eq!(crate::fnv64(&bytes), hash);

        let mut r = SnapReader::new(&bytes);
        r.section("demo").unwrap();
        assert_eq!(r.read_u8("a").unwrap(), 7);
        assert_eq!(r.read_u16("b").unwrap(), 300);
        assert_eq!(r.read_u32("c").unwrap(), 70_000);
        assert_eq!(r.read_u64("d").unwrap(), 1 << 40);
        assert_eq!(r.read_u128("e").unwrap(), 1 << 80);
        assert_eq!(r.read_usize("f").unwrap(), 42);
        assert!(r.read_bool("g").unwrap());
        assert_eq!(r.read_f64("h").unwrap(), 2.5);
        assert_eq!(r.read_str("i").unwrap(), "tail");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_reports_truncation_not_panic() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        let e = r.read_u64("field").unwrap_err();
        assert!(matches!(
            e,
            SnapDecodeError::Truncated { what: "field", .. }
        ));
        // A huge length prefix must not over-allocate or panic.
        let mut h = StateHasher::recording();
        h.write_u64(u64::MAX);
        let bytes = h.take_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.read_byte_slice("blob").is_err());
    }

    #[test]
    fn reader_rejects_bad_bool_and_section() {
        let mut h = StateHasher::recording();
        h.write_u8(2);
        let bytes = h.take_bytes();
        let e = SnapReader::new(&bytes).read_bool("flag").unwrap_err();
        assert!(matches!(e, SnapDecodeError::BadValue { .. }));

        let mut h = StateHasher::recording();
        h.section("alpha");
        let bytes = h.take_bytes();
        let e = SnapReader::new(&bytes).section("beta").unwrap_err();
        match e {
            SnapDecodeError::SectionMismatch { expected, found } => {
                assert_eq!(expected, "beta");
                assert_eq!(found, "alpha");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn blob_roundtrip() {
        let blob = sample_blob();
        let enc = blob.encode();
        let dec = SnapshotBlob::decode(&enc).unwrap();
        assert_eq!(dec, blob);
    }

    #[test]
    fn blob_rejects_bad_magic_truncation_and_corruption() {
        let enc = sample_blob().encode();

        let mut bad = enc.clone();
        bad[0] ^= 0xff;
        assert_eq!(SnapshotBlob::decode(&bad), Err(SnapDecodeError::BadMagic));

        for cut in [0, 4, 12, enc.len() / 2, enc.len() - 1] {
            let e = SnapshotBlob::decode(&enc[..cut]).unwrap_err();
            assert!(
                matches!(
                    e,
                    SnapDecodeError::BadMagic
                        | SnapDecodeError::Truncated { .. }
                        | SnapDecodeError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {e:?}"
            );
        }

        // Any flipped payload byte is caught by the trailer checksum.
        let mut bad = enc.clone();
        let mid = enc.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            SnapshotBlob::decode(&bad),
            Err(SnapDecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn blob_rejects_unknown_container_version() {
        let mut enc = sample_blob().encode();
        enc[8] = 99; // container version LE byte 0
                     // Re-seal the checksum so only the version check can fire.
        let n = enc.len();
        let sum = fnv64(&enc[..n - 8]);
        enc[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapshotBlob::decode(&enc),
            Err(SnapDecodeError::ContainerVersion { found: 99 })
        );
    }

    #[test]
    fn blob_store_roundtrip_and_index() {
        let dir = std::env::temp_dir().join(format!("fgqos-blob-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = BlobStore::open(&dir).unwrap();
        let enc = sample_blob().encode();
        let key = store.put(&enc).unwrap();
        assert_eq!(store.put(&enc).unwrap(), key);
        assert_eq!(store.get(&key).unwrap().unwrap(), enc);
        assert_eq!(store.get("00000000deadbeef").unwrap(), None);

        store.link("abcd1234", &key).unwrap();
        assert_eq!(store.resolve("abcd1234").unwrap().unwrap(), key);
        assert_eq!(store.get_named("abcd1234").unwrap().unwrap(), enc);
        assert_eq!(store.resolve("ffffffff").unwrap(), None);
        assert!(store.link("../escape", &key).is_err());

        // On-disk corruption is detected, not returned as data.
        let path = dir.join("objects").join(format!("{key}.blob"));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        assert!(store.get(&key).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
