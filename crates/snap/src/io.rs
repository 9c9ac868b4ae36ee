//! [`StateIo`]: one walk over a component's state that either writes or
//! reads its stream.
//!
//! A component states its stream layout once, in a
//! `fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError>`
//! that calls one field method per field, in stream order. A writing
//! walk folds each field into a [`StateHasher`] (hash, record or
//! typed-record mode) and never fails; a reading walk overwrites each
//! field from the recorded stream, with bounds-checked reads that fail
//! with a [`SnapDecodeError`], never a panic. Configuration fields go
//! through the `fixed_*` methods, which write the skeleton's value and,
//! when reading, verify the stream against it. The few layouts that
//! depend on the data itself (sparse histograms, variable-length
//! vectors) branch on [`StateIo::is_reading`].

use crate::{SnapDecodeError, SnapReader, StateHasher};
use std::fmt::Debug;

/// A value stored in a state stream as one little-endian `u64` word:
/// plain `u64`s and cycle-stamp newtypes.
pub trait Word: Copy {
    /// The stream word.
    fn to_word(self) -> u64;
    /// The value a stream word decodes to.
    fn from_word(word: u64) -> Self;
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }

    fn from_word(word: u64) -> Self {
        word
    }
}

enum Mode<'a> {
    Write(StateHasher),
    Read(SnapReader<'a>),
}

/// A state-stream walk in one of two directions (see the
/// [module docs](self)). Every field method returns `Ok(())` when
/// writing; when reading it returns the first decode error.
pub struct StateIo<'a> {
    mode: Mode<'a>,
}

/// Generates the field methods that map one Rust value to one
/// fixed-width encoding.
macro_rules! field {
    ($($(#[$doc:meta])* $name:ident: $t:ty => $write:ident, $read:ident;)+) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, v: &mut $t) -> Result<(), SnapDecodeError> {
            match &mut self.mode {
                Mode::Write(h) => h.$write(*v),
                Mode::Read(r) => *v = r.$read(stringify!($name))?,
            }
            Ok(())
        }
    )+};
}

/// Generates the `fixed_*` methods over the field method of their type.
macro_rules! fixed {
    ($($(#[$doc:meta])* $name:ident: $t:ty => $field:ident;)+) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, built: $t, what: &str) -> Result<(), SnapDecodeError> {
            self.fixed(built, what, Self::$field)
        }
    )+};
}

impl StateIo<'static> {
    /// A writing walk that only hashes (see [`StateHasher::new`]).
    pub fn hashing() -> Self {
        StateIo::writing(StateHasher::new())
    }

    /// A writing walk that also records the stream (see
    /// [`StateHasher::recording`]).
    pub fn recording() -> Self {
        StateIo::writing(StateHasher::recording())
    }

    /// A writing walk that records the stream and its typed field map
    /// (see [`StateHasher::typed_recording`]).
    pub fn typed_recording() -> Self {
        StateIo::writing(StateHasher::typed_recording())
    }

    fn writing(h: StateHasher) -> Self {
        StateIo {
            mode: Mode::Write(h),
        }
    }
}

impl<'a> StateIo<'a> {
    /// A reading walk over a recorded stream.
    pub fn reading(bytes: &'a [u8]) -> Self {
        StateIo {
            mode: Mode::Read(SnapReader::new(bytes)),
        }
    }

    /// `true` on a reading walk.
    #[inline]
    pub fn is_reading(&self) -> bool {
        matches!(self.mode, Mode::Read(_))
    }

    /// Bytes consumed (reading) or written (writing) so far.
    pub fn position(&self) -> usize {
        match &self.mode {
            Mode::Write(h) => h.bytes_written() as usize,
            Mode::Read(r) => r.position(),
        }
    }

    /// The writing walk's hasher: its digest, recorded bytes and typed
    /// field map.
    ///
    /// # Panics
    ///
    /// Panics on a reading walk, which has written nothing.
    pub fn into_hasher(self) -> StateHasher {
        match self.mode {
            Mode::Write(h) => h,
            Mode::Read(_) => panic!("a reading StateIo has no hasher"),
        }
    }

    /// Fails unless a reading walk consumed the whole stream.
    ///
    /// # Errors
    ///
    /// [`SnapDecodeError::TrailingBytes`] when bytes are left.
    pub fn expect_end(&self) -> Result<(), SnapDecodeError> {
        match &self.mode {
            Mode::Write(_) => Ok(()),
            Mode::Read(r) => r.expect_end(),
        }
    }

    /// Opens a named section: writes the tag, or verifies it.
    ///
    /// # Errors
    ///
    /// [`SnapDecodeError::SectionMismatch`] when the stream holds
    /// another tag.
    pub fn section(&mut self, tag: &str) -> Result<(), SnapDecodeError> {
        match &mut self.mode {
            Mode::Write(h) => {
                h.section(tag);
                Ok(())
            }
            Mode::Read(r) => r.section(tag),
        }
    }

    /// Marks a component whose state is written but cannot be loaded: a
    /// no-op when writing, [`SnapDecodeError::Unsupported`] when reading.
    ///
    /// # Errors
    ///
    /// Always, on a reading walk.
    pub fn save_only(&mut self, component: &str) -> Result<(), SnapDecodeError> {
        if self.is_reading() {
            Err(SnapDecodeError::unsupported(component))
        } else {
            Ok(())
        }
    }

    field! {
        /// One byte.
        u8: u8 => write_u8, read_u8;
        /// A little-endian `u16`.
        u16: u16 => write_u16, read_u16;
        /// A little-endian `u32`.
        u32: u32 => write_u32, read_u32;
        /// A `usize`, widened to `u64`.
        usize: usize => write_usize, read_usize;
        /// A bool byte; reading rejects anything but 0 or 1.
        bool: bool => write_bool, read_bool;
        /// An `f64`, by its bit pattern.
        f64: f64 => write_f64, read_f64;
        /// A `u64` accumulator (typed [`crate::FieldKind::CounterU64`]).
        counter_u64: u64 => write_counter_u64, read_u64;
        /// A wrapping `u32` accumulator (typed
        /// [`crate::FieldKind::CounterU32`]).
        counter_u32: u32 => write_counter_u32, read_u32;
        /// A saturating `u32` accumulator (typed
        /// [`crate::FieldKind::CounterU32Sat`]).
        counter_u32_sat: u32 => write_counter_u32_sat, read_u32;
        /// A `u128` accumulator (typed [`crate::FieldKind::CounterU128`]).
        counter_u128: u128 => write_counter_u128, read_u128;
    }

    /// A plain little-endian `u64` word.
    #[inline]
    pub fn u64<T: Word>(&mut self, v: &mut T) -> Result<(), SnapDecodeError> {
        match &mut self.mode {
            Mode::Write(h) => h.write_u64(v.to_word()),
            Mode::Read(r) => *v = T::from_word(r.read_u64("u64")?),
        }
        Ok(())
    }

    /// An absolute cycle stamp (typed [`crate::FieldKind::Cycle`]).
    #[inline]
    pub fn cycle<T: Word>(&mut self, v: &mut T) -> Result<(), SnapDecodeError> {
        match &mut self.mode {
            Mode::Write(h) => h.write_cycle(v.to_word()),
            Mode::Read(r) => *v = T::from_word(r.read_u64("cycle")?),
        }
        Ok(())
    }

    /// A presence flag, then the value through `field` when present.
    /// Reading a set flag into `None` fills a default value first.
    ///
    /// # Errors
    ///
    /// Any error of the flag or of `field`.
    pub fn option<T: Default>(
        &mut self,
        v: &mut Option<T>,
        field: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapDecodeError>,
    ) -> Result<(), SnapDecodeError> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if some {
            field(self, v.get_or_insert_with(T::default))
        } else {
            *v = None;
            Ok(())
        }
    }

    /// A load-time consistency check: when reading, fails with
    /// [`SnapDecodeError::BadValue`] at byte `at` unless `ok`. A writing
    /// walk records whatever state it meets, so the check is skipped.
    ///
    /// # Errors
    ///
    /// [`SnapDecodeError::BadValue`] carrying `what()`.
    pub fn ensure(
        &self,
        ok: bool,
        at: usize,
        what: impl FnOnce() -> String,
    ) -> Result<(), SnapDecodeError> {
        if ok || !self.is_reading() {
            Ok(())
        } else {
            Err(SnapDecodeError::BadValue { what: what(), at })
        }
    }

    /// The length of a collection whose elements take at least
    /// `min_bytes` stream bytes each. Reading fails as truncated input
    /// when the bytes left cannot hold that many elements — before the
    /// caller allocates anything sized by the length.
    ///
    /// # Errors
    ///
    /// [`SnapDecodeError::Truncated`] for a length the stream cannot
    /// back; any error of the length word itself.
    pub fn len(&mut self, n: &mut usize, min_bytes: usize) -> Result<(), SnapDecodeError> {
        let at = self.position();
        self.usize(n)?;
        match &self.mode {
            Mode::Read(r) if n.saturating_mul(min_bytes) > r.remaining() => {
                Err(SnapDecodeError::Truncated {
                    what: "collection",
                    at,
                })
            }
            _ => Ok(()),
        }
    }

    /// A configuration value: writes the skeleton's `built` through
    /// `field`, or verifies the stream carries exactly it.
    #[inline]
    fn fixed<T: Copy + PartialEq + Debug>(
        &mut self,
        built: T,
        what: &str,
        field: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapDecodeError>,
    ) -> Result<(), SnapDecodeError> {
        let at = self.position();
        let mut v = built;
        field(self, &mut v)?;
        self.ensure(v == built, at, || {
            format!("{what} {v:?} in stream, skeleton has {built:?}")
        })
    }

    fixed! {
        /// A configuration byte (see [`StateIo::fixed_u64`]).
        fixed_u8: u8 => u8;
        /// A configuration `u32` (see [`StateIo::fixed_u64`]).
        fixed_u32: u32 => u32;
        /// A configuration word: writes the skeleton's value `built`, or
        /// verifies the stream carries exactly it.
        ///
        /// # Errors
        ///
        /// [`SnapDecodeError::BadValue`] naming `what` when the stream
        /// and the skeleton disagree; any error of the field itself.
        fixed_u64: u64 => u64;
        /// A configuration `usize` (see [`StateIo::fixed_u64`]).
        fixed_usize: usize => usize;
        /// A configuration bool (see [`StateIo::fixed_u64`]).
        fixed_bool: bool => bool;
    }

    /// A configuration string (see [`StateIo::fixed_u64`]).
    pub fn fixed_str(&mut self, built: &str, what: &str) -> Result<(), SnapDecodeError> {
        let at = self.position();
        match &mut self.mode {
            Mode::Write(h) => {
                h.write_str(built);
                Ok(())
            }
            Mode::Read(r) => {
                let v = r.read_str("str")?;
                self.ensure(v == built, at, || {
                    format!("{what} {v:?} in stream, skeleton has {built:?}")
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldKind;

    /// A toy component: one configuration word, one optional stamp,
    /// a counter and a length-prefixed vector.
    #[derive(Debug, Default, PartialEq)]
    struct Toy {
        config: u64,
        stamp: Option<u64>,
        total: u64,
        items: Vec<u32>,
    }

    impl Toy {
        fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
            io.section("toy")?;
            io.fixed_u64(self.config, "toy config")?;
            io.option(&mut self.stamp, StateIo::cycle)?;
            io.counter_u64(&mut self.total)?;
            let mut n = self.items.len();
            io.len(&mut n, 4)?;
            self.items.resize(n, 0);
            for item in &mut self.items {
                io.u32(item)?;
            }
            Ok(())
        }
    }

    fn toy() -> Toy {
        Toy {
            config: 7,
            stamp: Some(1_000),
            total: 42,
            items: vec![1, 2, 3],
        }
    }

    #[test]
    fn writing_walk_matches_hasher_stream() {
        let mut io = StateIo::typed_recording();
        toy().state(&mut io).unwrap();
        let record = io.into_hasher().take_typed();
        let mut h = StateHasher::recording();
        h.section("toy");
        h.write_u64(7);
        h.write_bool(true);
        h.write_u64(1_000);
        h.write_u64(42);
        h.write_usize(3);
        for v in [1, 2, 3] {
            h.write_u32(v);
        }
        assert_eq!(record.bytes, h.take_bytes());
        let kinds: Vec<FieldKind> = record.fields.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FieldKind::Cycle, FieldKind::CounterU64]);
    }

    #[test]
    fn reading_walk_restores_and_verifies() {
        let mut io = StateIo::recording();
        toy().state(&mut io).unwrap();
        let bytes = io.into_hasher().take_bytes();

        let mut back = Toy {
            config: 7,
            ..Toy::default()
        };
        let mut io = StateIo::reading(&bytes);
        back.state(&mut io).unwrap();
        io.expect_end().unwrap();
        assert_eq!(back, toy());

        // A skeleton with other configuration is refused.
        let mut other = Toy {
            config: 8,
            ..Toy::default()
        };
        let e = other.state(&mut StateIo::reading(&bytes)).unwrap_err();
        assert!(matches!(e, SnapDecodeError::BadValue { .. }), "{e:?}");
    }

    #[test]
    fn forged_length_fails_before_allocating() {
        let mut h = StateHasher::recording();
        h.section("toy");
        h.write_u64(7);
        h.write_bool(false);
        h.write_u64(0);
        h.write_usize(1 << 40);
        let bytes = h.take_bytes();
        let mut back = Toy {
            config: 7,
            ..Toy::default()
        };
        let e = back.state(&mut StateIo::reading(&bytes)).unwrap_err();
        assert!(matches!(e, SnapDecodeError::Truncated { .. }), "{e:?}");
        assert!(back.items.capacity() == 0);
    }

    #[test]
    fn save_only_refuses_reading() {
        assert!(StateIo::hashing().save_only("x").is_ok());
        assert_eq!(
            StateIo::reading(&[]).save_only("x"),
            Err(SnapDecodeError::unsupported("x"))
        );
    }
}
