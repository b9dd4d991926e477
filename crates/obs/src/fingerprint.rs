//! Canonical structural fingerprints: the workspace's one hash.
//!
//! Every 64-bit identity in the workspace — the answer-integrity
//! `values_fingerprint`, the plan fingerprint a journal replay checks,
//! plan-cache keys, shard-map and wire-format fingerprints, and the WAL
//! and warm-file frame checksums — is FNV-1a over a byte stream fed
//! through one [`Fnv1a`] hasher. Structured values reach the hasher
//! through the [`Fingerprint`] trait, which feeds *canonical* bytes
//! rather than a formatted rendering:
//!
//! * integers little-endian (`usize` widened to `u64`, so the stream is
//!   the same on every target);
//! * each `f64` as its `to_bits()` pattern, with every NaN mapped to one
//!   canonical NaN — so `-0.0` and `0.0` stay distinct while NaN payloads
//!   do not split an answer class;
//! * every sequence, map, set and string prefixed by its length, so
//!   adjacent fields can never run into each other;
//! * every enum variant prefixed by a type tag.
//!
//! Struct impls destructure their struct without `..` (see
//! [`fingerprint_fields!`]), so a new field is a compile error at the
//! impl rather than a silent key collision.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The bit pattern every NaN hashes as.
const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;

/// A streaming 64-bit FNV-1a hasher.
///
/// [`write`](Fnv1a::write) feeds raw bytes, so `Fnv1a::new()` fed one
/// buffer and finished equals [`fnv1a`] of that buffer. The typed
/// `write_*` methods feed the canonical encodings described in the
/// module docs.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds raw bytes (no length prefix).
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte: a flag or an enum variant tag.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a `u32`, little-endian.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `u64`, little-endian.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an `i64`, little-endian.
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64`: lengths, counts and indices.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` as its bit pattern, every NaN as one canonical NaN.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(if v.is_nan() {
            CANONICAL_NAN
        } else {
            v.to_bits()
        });
    }

    /// Feeds a length-prefixed string.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over `bytes`: the WAL and warm-file frame checksum.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// A value with a canonical byte encoding for [`Fnv1a`].
///
/// Two values that compare equal must feed identical bytes; two values
/// that differ in any field should not.
pub trait Fingerprint {
    /// Feeds this value's canonical bytes into `h`.
    fn fingerprint_into(&self, h: &mut Fnv1a);

    /// FNV-1a over this value's canonical bytes.
    #[must_use]
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }
}

/// Implements [`Fingerprint`] for a struct with named fields by feeding
/// each listed field in order. The struct is destructured without `..`,
/// so a field added to the struct but not to the list is a compile
/// error rather than a silent key collision.
#[macro_export]
macro_rules! fingerprint_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Fingerprint for $ty {
            fn fingerprint_into(&self, h: &mut $crate::Fnv1a) {
                let $ty { $($field),+ } = self;
                $($crate::Fingerprint::fingerprint_into($field, h);)+
            }
        }
    };
}

macro_rules! fingerprint_via {
    ($($t:ty => $write:ident),* $(,)?) => {$(
        impl Fingerprint for $t {
            #[inline]
            fn fingerprint_into(&self, h: &mut Fnv1a) {
                h.$write(*self);
            }
        }
    )*};
}

fingerprint_via! {
    u8 => write_u8,
    u32 => write_u32,
    u64 => write_u64,
    i64 => write_i64,
    usize => write_usize,
    f64 => write_f64,
}

impl Fingerprint for bool {
    #[inline]
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u8(u8::from(*self));
    }
}

impl Fingerprint for String {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_str(self);
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for &T {
    #[inline]
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        (**self).fingerprint_into(h);
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for Arc<T> {
    #[inline]
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        (**self).fingerprint_into(h);
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for x in self {
            x.fingerprint_into(h);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        self.as_slice().fingerprint_into(h);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.fingerprint_into(h);
            }
        }
    }
}

impl<A: Fingerprint, B: Fingerprint> Fingerprint for (A, B) {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        self.0.fingerprint_into(h);
        self.1.fingerprint_into(h);
    }
}

impl<K: Fingerprint, V: Fingerprint> Fingerprint for BTreeMap<K, V> {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for (k, v) in self {
            k.fingerprint_into(h);
            v.fingerprint_into(h);
        }
    }
}

impl<T: Fingerprint> Fingerprint for BTreeSet<T> {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for x in self {
            x.fingerprint_into(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_stream_is_textbook_fnv1a() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn nans_collapse_but_signed_zeros_do_not() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(0x7ff0_0000_0000_0001);
        let negative = -f64::NAN;
        assert_eq!(quiet.fingerprint(), payload.fingerprint());
        assert_eq!(quiet.fingerprint(), negative.fingerprint());
        assert_ne!(0.0f64.fingerprint(), (-0.0f64).fingerprint());
        assert_ne!(f64::INFINITY.fingerprint(), quiet.fingerprint());
    }

    #[test]
    fn length_prefixes_keep_adjacent_fields_apart() {
        let split = |a: &str, b: &str| (a.to_owned(), b.to_owned()).fingerprint();
        assert_ne!(split("ab", "c"), split("a", "bc"));
        let seqs = |a: Vec<u32>, b: Vec<u32>| (a, b).fingerprint();
        assert_ne!(seqs(vec![1, 2], vec![3]), seqs(vec![1], vec![2, 3]));
        assert_ne!(None::<u8>.fingerprint(), Some(0u8).fingerprint());
        assert_ne!(Vec::<u8>::new().fingerprint(), vec![0u8].fingerprint());
    }

    #[test]
    fn usize_hashes_as_u64() {
        assert_eq!(7usize.fingerprint(), 7u64.fingerprint());
    }
}
