//! Snapshot/fork primitives shared by the simulator and its drivers.
//!
//! The crate is deliberately tiny and dependency-free: it provides the
//! mechanisms every snapshottable component needs, without knowing
//! anything about the components themselves.
//!
//! - [`StateIo`] — the one codec: a component states its stream layout
//!   once, in a `state(&mut self, io)` walk that calls one field method
//!   per field. A writing walk folds the fields through a
//!   [`StateHasher`]; a reading walk overwrites them from the recorded
//!   stream and verifies configuration (`fixed_*`) against the
//!   freshly built skeleton it loads into.
//! - [`StateHasher`] — a byte-stable FNV-1a stream over architectural
//!   state; two states are considered identical iff their streams are
//!   identical. Section tags delimit components so a mismatch is
//!   attributable. [`fnv64`] is the same hash over a byte slice, and
//!   the one FNV-1a of the workspace (cache keys, hunt family names).
//! - [`ForkCtx`] / [`SharedFork`] — pointer-identity remapping of shared
//!   handles (`Arc<RegFile>`, `Arc<Mutex<GroupState>>`, …). When a Soc is
//!   forked, every `Arc` that was shared between two components (or
//!   between a component and an external driver) must map to ONE new
//!   `Arc` shared the same way; `ForkCtx` memoises the mapping by source
//!   pointer so sharing topology is preserved regardless of visit order.
//! - [`CowVec`] — copy-on-write vector for the large stat arrays
//!   (latency histograms, per-window series), so forking N runs from one
//!   snapshot does not copy N × the warm-up history until a fork writes.
//!
//! [`SnapshotError`] is the common error type for fallible snapshot and
//! fork operations; [`SnapDecodeError`] for decoding streams and blobs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod io;
pub mod typed;
pub mod wire;

pub use io::{StateIo, Word};
pub use typed::{FieldKind, FieldSpan, TypedSnapshot};
use wire::SnapReader;
pub use wire::{BlobStore, SnapDecodeError, SnapshotBlob};

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, Index, IndexMut};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a 64 starting from the offset basis.
///
/// The one definition behind snapshot fingerprints, blob checksums and
/// the serve-side result cache keys.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = StateHasher::new();
    h.fold(bytes);
    h.finish()
}

/// A byte-stable FNV-1a 64 stream over architectural state.
///
/// Every `write_*` method folds a fixed little-endian encoding of its
/// argument, so the fingerprint is a pure function of the value sequence
/// — independent of platform, allocator, or pointer identity. Variable
/// length payloads (`write_str`, `write_bytes`) are length-prefixed so
/// the stream is prefix-free: `("ab", "c")` and `("a", "bc")` hash
/// differently.
///
/// Components open a [`section`](Self::section) before writing their
/// fields; the tag is folded into the stream, so two states only match
/// when the same components contributed in the same order.
#[derive(Debug, Clone)]
pub struct StateHasher {
    hash: u64,
    bytes: u64,
    record: Option<Vec<u8>>,
    typed: Option<Vec<FieldSpan>>,
}

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StateHasher {
            hash: FNV_OFFSET,
            bytes: 0,
            record: None,
            typed: None,
        }
    }

    /// A hasher that additionally captures every folded byte, so the
    /// hash stream doubles as a serialization wire format: the recorded
    /// bytes replayed through [`StateIo::reading`] reconstruct exactly the
    /// state that produced this fingerprint.
    pub fn recording() -> Self {
        StateHasher {
            hash: FNV_OFFSET,
            bytes: 0,
            record: Some(Vec::new()),
            typed: None,
        }
    }

    /// A recording hasher that additionally tracks which byte spans came
    /// from the semantic writers ([`write_cycle`](Self::write_cycle),
    /// `write_counter_*`). The captured [`TypedSnapshot`] supports the
    /// steady-state leap algebra: time-rebased fingerprint keys,
    /// period-delta verification and `×k` delta application. A typed
    /// record is keyed by [`TypedSnapshot::rebased_key`], so this hasher
    /// keeps no digest: [`finish`](Self::finish) stays at the offset
    /// basis and the walk skips the per-byte fold.
    pub fn typed_recording() -> Self {
        StateHasher {
            hash: FNV_OFFSET,
            bytes: 0,
            record: Some(Vec::new()),
            typed: Some(Vec::new()),
        }
    }

    /// The bytes captured so far (empty unless built with
    /// [`StateHasher::recording`]).
    pub fn take_bytes(self) -> Vec<u8> {
        self.record.unwrap_or_default()
    }

    /// Consumes a [`StateHasher::typed_recording`] hasher into the
    /// captured byte stream plus its semantic field map.
    pub fn take_typed(self) -> TypedSnapshot {
        TypedSnapshot {
            bytes: self.record.unwrap_or_default(),
            fields: self.typed.unwrap_or_default(),
        }
    }

    /// Marks the next `len` bytes as one semantic field (typed mode
    /// only; a no-op in hash/record modes).
    fn mark(&mut self, kind: FieldKind, len: usize) {
        if let Some(fields) = &mut self.typed {
            let offset = self.record.as_ref().map_or(0, Vec::len);
            fields.push(FieldSpan { kind, offset, len });
        }
    }

    /// Folds raw bytes without a length prefix (building block for the
    /// typed writers; prefer those or [`write_bytes`](Self::write_bytes)).
    fn fold(&mut self, bytes: &[u8]) {
        if self.typed.is_none() {
            for &b in bytes {
                self.hash ^= b as u64;
                self.hash = self.hash.wrapping_mul(FNV_PRIME);
            }
        }
        self.bytes += bytes.len() as u64;
        if let Some(buf) = &mut self.record {
            buf.extend_from_slice(bytes);
        }
    }

    /// Opens a named section; fold the tag so component order matters.
    pub fn section(&mut self, tag: &str) {
        self.write_str(tag);
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.fold(&[v]);
    }

    /// Writes a `u16` as little-endian bytes.
    pub fn write_u16(&mut self, v: u16) {
        self.fold(&v.to_le_bytes());
    }

    /// Writes a `u32` as little-endian bytes.
    pub fn write_u32(&mut self, v: u32) {
        self.fold(&v.to_le_bytes());
    }

    /// Writes a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.fold(&v.to_le_bytes());
    }

    /// Writes a `u128` as little-endian bytes.
    pub fn write_u128(&mut self, v: u128) {
        self.fold(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64` (byte-stable across platforms).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Writes an `f64` by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes an absolute cycle stamp. Encodes exactly like
    /// [`write_u64`](Self::write_u64); in typed mode the span is marked
    /// [`FieldKind::Cycle`] so the leap algebra can rebase it against the
    /// snapshot boundary and advance it by whole periods.
    pub fn write_cycle(&mut self, v: u64) {
        self.mark(FieldKind::Cycle, 8);
        self.write_u64(v);
    }

    /// Writes a monotonically accumulating `u64` counter (bytes, txns,
    /// stall cycles). Encodes exactly like [`write_u64`](Self::write_u64).
    pub fn write_counter_u64(&mut self, v: u64) {
        self.mark(FieldKind::CounterU64, 8);
        self.write_u64(v);
    }

    /// Writes a `u32` counter that accumulates with *wrapping* arithmetic
    /// (arena slot generations). Encodes exactly like
    /// [`write_u32`](Self::write_u32).
    pub fn write_counter_u32(&mut self, v: u32) {
        self.mark(FieldKind::CounterU32, 4);
        self.write_u32(v);
    }

    /// Writes a `u32` counter that accumulates with *saturating*
    /// arithmetic (register-file mirrors of wider counters). Encodes
    /// exactly like [`write_u32`](Self::write_u32).
    pub fn write_counter_u32_sat(&mut self, v: u32) {
        self.mark(FieldKind::CounterU32Sat, 4);
        self.write_u32(v);
    }

    /// Writes a monotonically accumulating `u128` counter (latency
    /// sums). Encodes exactly like [`write_u128`](Self::write_u128).
    pub fn write_counter_u128(&mut self, v: u128) {
        self.mark(FieldKind::CounterU128, 16);
        self.write_u128(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn write_bytes(&mut self, b: &[u8]) {
        self.write_u64(b.len() as u64);
        self.fold(b);
    }

    /// The current 64-bit digest (see [`StateHasher::typed_recording`]
    /// for the one mode that keeps none).
    pub fn finish(&self) -> u64 {
        self.hash
    }

    /// Total bytes folded so far — a cheap stream-length cross-check.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Errors from snapshot capture and fork operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The Soc was not at a quiesced boundary: transactions were still in
    /// flight, so calendar/pipeline state would have to be serialised.
    NotQuiesced {
        /// Number of transactions still live in the arena.
        live_txns: usize,
    },
    /// A component holds state that cannot be forked deterministically
    /// (e.g. interrupt closures, shared trace logs).
    Unforkable {
        /// The `label()` of the offending component.
        label: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotQuiesced { live_txns } => write!(
                f,
                "soc is not quiesced: {live_txns} transaction(s) still in flight"
            ),
            SnapshotError::Unforkable { label } => {
                write!(f, "component {label:?} cannot be forked")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Deep-copies a shared handle's payload for a forked run.
///
/// Implemented by the types that live behind `Arc`s shared between
/// components (register files, aggregate budget state). [`ForkCtx`]
/// calls `fork_value` at most once per source `Arc` and reuses the
/// result, so sharing topology survives the fork.
pub trait SharedFork {
    /// A deep copy carrying the current payload.
    fn fork_value(&self) -> Self;
}

impl<T: Clone> SharedFork for Mutex<T> {
    fn fork_value(&self) -> Self {
        Mutex::new(self.lock().expect("poisoned shared state").clone())
    }
}

/// Pointer-identity remapping of shared `Arc` handles during a fork.
///
/// Forking a Soc must preserve its sharing topology: a `RegFile` shared
/// between a regulator and an external driver handle must come out as
/// ONE new `RegFile` shared the same way — not two independent copies.
/// `ForkCtx` memoises `source Arc pointer → forked Arc`, so every holder
/// of the same source handle receives the same forked handle, no matter
/// in which order the holders are visited (soc-internal components
/// first, external drivers later, or interleaved).
#[derive(Default)]
pub struct ForkCtx {
    map: HashMap<usize, Arc<dyn Any + Send + Sync>>,
}

impl fmt::Debug for ForkCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForkCtx")
            .field("remapped", &self.map.len())
            .finish()
    }
}

impl ForkCtx {
    /// An empty context for one fork operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the forked counterpart of `arc`, deep-copying the payload
    /// on first sight and reusing the memoised copy afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the same source pointer was previously forked at a
    /// different type (cannot happen through safe use, since the key is
    /// the typed `Arc`'s address).
    pub fn fork_arc<T>(&mut self, arc: &Arc<T>) -> Arc<T>
    where
        T: SharedFork + Any + Send + Sync,
    {
        let key = Arc::as_ptr(arc) as usize;
        if let Some(hit) = self.map.get(&key) {
            return hit
                .clone()
                .downcast::<T>()
                .expect("ForkCtx: shared handle remapped at a different type");
        }
        let forked = Arc::new(arc.fork_value());
        self.map
            .insert(key, forked.clone() as Arc<dyn Any + Send + Sync>);
        forked
    }

    /// Number of distinct shared handles remapped so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no handle has been remapped yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A copy-on-write vector: clones of a `CowVec` share one allocation
/// until one of them writes.
///
/// Used for the large stat arrays (latency histograms, per-window
/// series) so that forking N runs from one warm snapshot shares the
/// warm-up history instead of copying it N times. Reads go through
/// `Deref<Target = [T]>`; writes go through [`make_mut`](Self::make_mut)
/// or `IndexMut`, which clone the allocation only while it is shared.
#[derive(Debug, Clone)]
pub struct CowVec<T> {
    inner: Arc<Vec<T>>,
}

impl<T> CowVec<T> {
    /// Wraps an owned vector.
    pub fn new(v: Vec<T>) -> Self {
        CowVec { inner: Arc::new(v) }
    }

    /// True when another clone currently shares the allocation.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.inner) > 1
    }
}

impl<T: Clone> CowVec<T> {
    /// Mutable access to the underlying vector, cloning the allocation
    /// first if it is shared.
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.inner)
    }

    /// Appends an element (copy-on-write).
    pub fn push(&mut self, v: T) {
        self.make_mut().push(v);
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec::new(Vec::new())
    }
}

impl<T> Deref for CowVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.inner
    }
}

impl<T, I: std::slice::SliceIndex<[T]>> Index<I> for CowVec<T> {
    type Output = I::Output;
    fn index(&self, i: I) -> &I::Output {
        &self.inner[i]
    }
}

impl<T: Clone> IndexMut<usize> for CowVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.make_mut()[i]
    }
}

impl<T: PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        *self.inner == *other.inner
    }
}

impl<T: Eq> Eq for CowVec<T> {}

impl<T> From<Vec<T>> for CowVec<T> {
    fn from(v: Vec<T>) -> Self {
        CowVec::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_is_prefix_free() {
        let mut a = StateHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StateHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(a.bytes_written(), b.bytes_written());
    }

    #[test]
    fn hasher_typed_writes_are_stable() {
        let mut h = StateHasher::new();
        h.section("test");
        h.write_u8(1);
        h.write_u16(2);
        h.write_u32(3);
        h.write_u64(4);
        h.write_u128(5);
        h.write_usize(6);
        h.write_bool(true);
        h.write_f64(1.5);
        // Pinned digest: any encoding change must bump SNAPSHOT_VERSION.
        let again = {
            let mut h2 = StateHasher::new();
            h2.section("test");
            h2.write_u8(1);
            h2.write_u16(2);
            h2.write_u32(3);
            h2.write_u64(4);
            h2.write_u128(5);
            h2.write_usize(6);
            h2.write_bool(true);
            h2.write_f64(1.5);
            h2.finish()
        };
        assert_eq!(h.finish(), again);
        assert_ne!(h.finish(), StateHasher::new().finish());
    }

    #[test]
    fn fork_ctx_preserves_sharing_topology() {
        let shared: Arc<Mutex<u64>> = Arc::new(Mutex::new(7));
        let alias = shared.clone();
        let mut ctx = ForkCtx::new();
        let f1 = ctx.fork_arc(&shared);
        let f2 = ctx.fork_arc(&alias);
        // Both holders of the same source Arc get the SAME forked Arc.
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(ctx.len(), 1);
        // The fork is a deep copy: mutating it does not touch the source.
        *f1.lock().unwrap() = 99;
        assert_eq!(*shared.lock().unwrap(), 7);
        assert_eq!(*f2.lock().unwrap(), 99);
    }

    #[test]
    fn fork_ctx_distinct_sources_stay_distinct() {
        let a: Arc<Mutex<u64>> = Arc::new(Mutex::new(1));
        let b: Arc<Mutex<u64>> = Arc::new(Mutex::new(2));
        let mut ctx = ForkCtx::new();
        let fa = ctx.fork_arc(&a);
        let fb = ctx.fork_arc(&b);
        assert!(!Arc::ptr_eq(&fa, &fb));
        assert_eq!(ctx.len(), 2);
    }

    #[test]
    fn cow_vec_shares_until_write() {
        let mut a = CowVec::new(vec![1u64, 2, 3]);
        let b = a.clone();
        assert!(a.is_shared());
        a[1] = 20;
        assert!(!a.is_shared());
        assert_eq!(&a[..], &[1, 20, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn cow_vec_push_and_eq() {
        let mut a: CowVec<u32> = CowVec::default();
        a.push(5);
        let b = CowVec::new(vec![5]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn snapshot_error_display() {
        let e = SnapshotError::NotQuiesced { live_txns: 3 };
        assert!(e.to_string().contains("3 transaction"));
        let e = SnapshotError::Unforkable {
            label: "irq".into(),
        };
        assert!(e.to_string().contains("irq"));
    }
}
