//! Typed snapshot records: the algebra behind steady-state leaping.
//!
//! A [`TypedSnapshot`] is the recorded snapshot byte stream of a
//! quiesced machine plus a map of which byte spans hold *semantic*
//! fields — absolute cycle stamps and monotone counters — written
//! through the `cycle` and `counter_*` fields of a
//! [`StateIo`](crate::StateIo) walk. Everything outside those spans is
//! plain configuration/bounded state that must repeat byte-for-byte for
//! two boundaries to be the same machine state.
//!
//! Three operations make periodic steady states exploitable:
//!
//! * [`TypedSnapshot::rebased_key`] — a fingerprint that is invariant
//!   under time translation: cycle fields are folded relative to the
//!   boundary cycle and counter *values* are excluded (only their
//!   positions count). Two boundaries one period apart in a periodic
//!   steady state produce the same key.
//! * [`TypedSnapshot::lockstep_deltas`] — the hard check: given two
//!   records `earlier` (at cycle `c₁`) and `self` (at `c₂ = c₁ + P`),
//!   verifies that they differ *only* as a time translation — identical
//!   field structure, byte-identical plain spans, every cycle field
//!   either frozen or advanced by exactly `P` — and returns the
//!   per-period delta of every field.
//! * [`TypedSnapshot::leap`] — applies those deltas `k` more times in
//!   one step, producing the byte stream the machine would reach at
//!   `c₂ + k·P` by simulating — without simulating.
//!
//! The deltas are applied with each counter's own arithmetic (plain,
//! wrapping-`u32`, saturating-`u32`), so the merged stream is
//! bit-identical to the cycle-by-cycle run even across generation
//! wraparound or register-mirror saturation.

use crate::StateHasher;

/// Semantic class of one typed field span in a snapshot stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// An absolute cycle stamp: either frozen (a past timestamp the
    /// machine no longer consults, or a `u64::MAX` "never" sentinel) or
    /// advancing in lockstep with the clock.
    Cycle,
    /// A monotone `u64` accumulator.
    CounterU64,
    /// A `u32` accumulator with wrapping arithmetic.
    CounterU32,
    /// A `u32` accumulator with saturating arithmetic.
    CounterU32Sat,
    /// A monotone `u128` accumulator.
    CounterU128,
}

/// One typed field: `len` bytes at `offset` in the recorded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpan {
    /// Semantic class of the span.
    pub kind: FieldKind,
    /// Byte offset into the recorded stream.
    pub offset: usize,
    /// Span length in bytes (fixed per kind).
    pub len: usize,
}

/// A recorded snapshot byte stream plus its semantic field map (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedSnapshot {
    /// The full recorded snapshot stream (loadable by a reading
    /// [`StateIo`](crate::StateIo)).
    pub bytes: Vec<u8>,
    /// Typed spans in stream order; bytes outside them are plain.
    pub fields: Vec<FieldSpan>,
}

/// Per-period change of every typed field of a verified periodic pair,
/// in field order. Cycle fields carry `0` (frozen) or the period
/// (advancing); counters carry their per-period increment.
pub type FieldDeltas = Vec<u128>;

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("span in bounds"))
}

fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("span in bounds"))
}

fn u128_at(bytes: &[u8], off: usize) -> u128 {
    u128::from_le_bytes(bytes[off..off + 16].try_into().expect("span in bounds"))
}

impl TypedSnapshot {
    /// Value of field `i` widened to `u128`.
    fn value(&self, i: usize) -> u128 {
        let f = self.fields[i];
        match f.kind {
            FieldKind::Cycle | FieldKind::CounterU64 => u64_at(&self.bytes, f.offset) as u128,
            FieldKind::CounterU32 | FieldKind::CounterU32Sat => {
                u32_at(&self.bytes, f.offset) as u128
            }
            FieldKind::CounterU128 => u128_at(&self.bytes, f.offset),
        }
    }

    /// Time-translation-invariant fingerprint of this record.
    ///
    /// `base` is the boundary cycle the record was taken at; cycle
    /// fields fold as `v.saturating_sub(base)` so frozen past stamps
    /// collapse to 0 and advancing stamps fold as their lead over the
    /// clock. Counter values are excluded (their *positions* still
    /// shape the key through the kind tags). `wake_offsets` — the
    /// caller's per-component `next_activity − now` horizons — are
    /// folded in verbatim: trailing stamps (window starts) all rebase
    /// to 0, so the pending-wake structure is what distinguishes two
    /// different phases of the same window.
    pub fn rebased_key(&self, base: u64, wake_offsets: &[u64]) -> u64 {
        let mut h = StateHasher::new();
        let mut cursor = 0usize;
        for f in &self.fields {
            h.fold(&self.bytes[cursor..f.offset]);
            h.write_u8(f.kind as u8 + 1);
            if f.kind == FieldKind::Cycle {
                let v = u64_at(&self.bytes, f.offset);
                // `u64::MAX` is the "never" sentinel — base-independent.
                h.write_u64(if v == u64::MAX {
                    v
                } else {
                    v.saturating_sub(base)
                });
            }
            cursor = f.offset + f.len;
        }
        h.fold(&self.bytes[cursor..]);
        h.write_u64(wake_offsets.len() as u64);
        for &w in wake_offsets {
            h.write_u64(w);
        }
        h.finish()
    }

    /// Verifies that `self` (at `c₁ + period`) is exactly the time
    /// translation of `earlier` (at `c₁`) and returns every field's
    /// per-period delta; `None` means the pair is *not* periodic (any
    /// structural, plain-byte or cycle-stride mismatch).
    pub fn lockstep_deltas(&self, earlier: &TypedSnapshot, period: u64) -> Option<FieldDeltas> {
        if self.bytes.len() != earlier.bytes.len() || self.fields != earlier.fields || period == 0 {
            return None;
        }
        let mut deltas = Vec::with_capacity(self.fields.len());
        let mut cursor = 0usize;
        for (i, f) in self.fields.iter().enumerate() {
            if self.bytes[cursor..f.offset] != earlier.bytes[cursor..f.offset] {
                return None;
            }
            cursor = f.offset + f.len;
            let (v1, v2) = (earlier.value(i), self.value(i));
            let delta = match f.kind {
                FieldKind::Cycle => {
                    let d = v2.checked_sub(v1)?;
                    if d != 0 && d != period as u128 {
                        return None;
                    }
                    d
                }
                // Saturating mirrors only ever grow; a shrink means the
                // pair is not the same machine one period on.
                FieldKind::CounterU32Sat => v2.checked_sub(v1)?,
                FieldKind::CounterU32 => {
                    (u32_at(&self.bytes, f.offset).wrapping_sub(u32_at(&earlier.bytes, f.offset)))
                        as u128
                }
                FieldKind::CounterU64 => {
                    (u64_at(&self.bytes, f.offset).wrapping_sub(u64_at(&earlier.bytes, f.offset)))
                        as u128
                }
                FieldKind::CounterU128 => {
                    u128_at(&self.bytes, f.offset).wrapping_sub(u128_at(&earlier.bytes, f.offset))
                }
            };
            deltas.push(delta);
        }
        if self.bytes[cursor..] != earlier.bytes[cursor..] {
            return None;
        }
        Some(deltas)
    }

    /// Applies `deltas` (from [`lockstep_deltas`](Self::lockstep_deltas))
    /// `k` more times, returning the snapshot stream of the machine `k`
    /// periods after `self` — each field advanced with its own
    /// arithmetic, plain bytes untouched.
    pub fn leap(&self, deltas: &FieldDeltas, k: u64) -> Vec<u8> {
        assert_eq!(deltas.len(), self.fields.len(), "delta/field arity");
        let mut out = self.bytes.clone();
        for (f, &d) in self.fields.iter().zip(deltas) {
            match f.kind {
                FieldKind::Cycle | FieldKind::CounterU64 => {
                    let v = u64_at(&out, f.offset).wrapping_add((d as u64).wrapping_mul(k));
                    out[f.offset..f.offset + 8].copy_from_slice(&v.to_le_bytes());
                }
                FieldKind::CounterU32 => {
                    let v = u32_at(&out, f.offset).wrapping_add((d as u64).wrapping_mul(k) as u32);
                    out[f.offset..f.offset + 4].copy_from_slice(&v.to_le_bytes());
                }
                FieldKind::CounterU32Sat => {
                    let total = u32_at(&out, f.offset) as u128 + d * k as u128;
                    let v = total.min(u32::MAX as u128) as u32;
                    out[f.offset..f.offset + 4].copy_from_slice(&v.to_le_bytes());
                }
                FieldKind::CounterU128 => {
                    let v = u128_at(&out, f.offset).wrapping_add(d.wrapping_mul(k as u128));
                    out[f.offset..f.offset + 16].copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy component at absolute cycle `now`: one config word, one
    /// advancing stamp, one frozen stamp, counters of every flavour.
    fn record(now: u64, bytes: u64, gens: u32, mirror: u32, sum: u128) -> TypedSnapshot {
        let mut h = StateHasher::typed_recording();
        h.section("toy");
        h.write_u64(0x00C0_FFEE); // config: plain
        h.write_cycle(now + 3); // advancing stamp (next wake)
        h.write_cycle(7); // frozen stamp (start-of-run)
        h.write_cycle(u64::MAX); // "never" sentinel
        h.write_counter_u64(bytes);
        h.write_counter_u32(gens);
        h.write_counter_u32_sat(mirror);
        h.write_counter_u128(sum);
        h.write_bool(true); // trailing plain
        h.take_typed()
    }

    #[test]
    fn typed_writes_encode_like_plain_writes() {
        let mut typed = StateHasher::recording();
        typed.section("x");
        typed.write_cycle(41);
        typed.write_counter_u64(42);
        typed.write_counter_u32(43);
        typed.write_counter_u32_sat(44);
        typed.write_counter_u128(45);
        let mut plain = StateHasher::recording();
        plain.section("x");
        plain.write_u64(41);
        plain.write_u64(42);
        plain.write_u32(43);
        plain.write_u32(44);
        plain.write_u128(45);
        assert_eq!(typed.finish(), plain.finish());
        assert_eq!(typed.bytes_written(), plain.bytes_written());
        assert_eq!(typed.take_bytes(), plain.take_bytes());
    }

    #[test]
    fn typed_mode_maps_spans_without_changing_bytes() {
        let a = record(1_000, 10, 2, 3, 100);
        let mut plain = StateHasher::recording();
        plain.section("toy");
        plain.write_u64(0x00C0_FFEE);
        plain.write_u64(1_003);
        plain.write_u64(7);
        plain.write_u64(u64::MAX);
        plain.write_u64(10);
        plain.write_u32(2);
        plain.write_u32(3);
        plain.write_u128(100);
        plain.write_bool(true);
        assert_eq!(a.bytes, plain.take_bytes());
        assert_eq!(a.fields.len(), 7);
    }

    #[test]
    fn rebased_key_is_translation_invariant() {
        let a = record(1_000, 10, 2, 3, 100);
        let b = record(9_000, 999, 77, u32::MAX, 12_345);
        // Same machine shape, any counter values, any boundary cycle.
        assert_eq!(
            a.rebased_key(1_000, &[3, 50]),
            b.rebased_key(9_000, &[3, 50])
        );
        // Pending-wake structure distinguishes window phases.
        assert_ne!(
            a.rebased_key(1_000, &[3, 50]),
            a.rebased_key(1_000, &[3, 51])
        );
        // A plain-byte change is a different machine.
        let mut c = record(1_000, 10, 2, 3, 100);
        let off = c.fields[0].offset - 8; // config word precedes first span
        c.bytes[off] ^= 1;
        assert_ne!(a.rebased_key(1_000, &[]), c.rebased_key(1_000, &[]));
    }

    #[test]
    fn lockstep_accepts_exact_translation_and_rejects_drift() {
        let p = 500u64;
        let a = record(1_000, 10, 2, 3, 100);
        let b = record(1_500, 16, 3, 5, 130);
        let deltas = b.lockstep_deltas(&a, p).expect("periodic pair");
        assert_eq!(deltas, vec![500, 0, 0, 6, 1, 2, 30]);
        // A cycle field advancing by anything but 0 or P is drift.
        let skew = record(1_499, 16, 3, 5, 130);
        assert!(skew.lockstep_deltas(&a, p).is_none());
        // Plain-byte mismatch rejects.
        let mut other = record(1_500, 16, 3, 5, 130);
        *other.bytes.last_mut().unwrap() ^= 1;
        assert!(other.lockstep_deltas(&a, p).is_none());
        // Structural mismatch rejects.
        let mut short = b.clone();
        short.fields.pop();
        assert!(short.lockstep_deltas(&a, p).is_none());
    }

    #[test]
    fn leap_matches_iterated_application() {
        let p = 500u64;
        let a = record(1_000, 10, 2, 3, 100);
        let b = record(1_500, 16, 3, 5, 130);
        let deltas = b.lockstep_deltas(&a, p).expect("periodic pair");
        let k = 7u64;
        let leaped = b.leap(&deltas, k);
        let manual = record(
            1_500 + k * p,
            16 + k * 6,
            3 + k as u32,
            5 + 2 * k as u32,
            130 + 30 * k as u128,
        );
        assert_eq!(leaped, manual.bytes);
    }

    #[test]
    fn leap_respects_counter_arithmetic() {
        // Wrapping u32 generations and saturating u32 mirror.
        let a = record(1_000, 0, u32::MAX - 1, u32::MAX - 3, 0);
        let b = record(1_500, 0, u32::MAX, u32::MAX - 1, 0);
        let deltas = b.lockstep_deltas(&a, 500).expect("periodic pair");
        let leaped = b.leap(&deltas, 3);
        let expect = record(3_000, 0, u32::MAX.wrapping_add(3), u32::MAX, 0);
        assert_eq!(leaped, expect.bytes);
    }

    #[test]
    fn leap_zero_periods_is_identity() {
        let b = record(1_500, 16, 3, 5, 130);
        let deltas = vec![0u128; b.fields.len()];
        assert_eq!(b.leap(&deltas, 0), b.bytes);
        let real = b
            .lockstep_deltas(&record(1_000, 10, 2, 3, 100), 500)
            .unwrap();
        assert_eq!(b.leap(&real, 0), b.bytes);
    }
}
