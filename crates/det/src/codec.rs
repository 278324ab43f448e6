//! The workspace's exact binary record codec: what a spill run and a
//! checkpoint part are made of.
//!
//! [`Spillable`] is a fixed-layout encoding that round-trips every bit —
//! `f64` NaN payloads and signed zeros included, which the `graph_digest`
//! equality of a resumed or out-of-core run depends on. It lives here,
//! under every crate that owns a record type, so each type implements it
//! next to its own fields; `minoaner-dataflow` re-exports it from `spill`.
//! Integers are written little-endian, so a record's bytes are the same on
//! every host (the segment framing them is native-endian, and refuses a
//! file from a host of the other endianness).

/// Fixed-layout binary encoding of one record.
///
/// Implementations must be exact: `decode(encode(x)) == x` for every
/// value (encode bit patterns, not decimal renderings). Provided for the
/// integer/float primitives, `String`, 2- and 3-tuples, two-element arrays
/// and `Vec`, and for a plain struct by [`spillable_struct!`](crate::spillable_struct).
///
/// `&dyn Spillable` encodes: a checkpoint barrier is a list of named parts
/// of different types, each encoded in place into the barrier's segment.
pub trait Spillable {
    /// Appends this record's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one record starting at `*pos`, advancing `*pos` past it.
    /// `None` on truncated or invalid input: callers checksum the bytes
    /// before decoding, but bounds and invariants stay checked.
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self>
    where
        Self: Sized;
}

/// `value`'s encoding as a buffer of its own.
pub fn encode_to_vec<T: Spillable + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a buffer that holds exactly one `T`: `None` when it decodes
/// short, invalid, or with bytes left over.
pub fn decode_exact<T: Spillable>(buf: &[u8]) -> Option<T> {
    let mut pos = 0;
    let value = T::decode(buf, &mut pos)?;
    (pos == buf.len()).then_some(value)
}

/// `$t` travels as the little-endian bytes of `$wire`.
macro_rules! spillable_primitive {
    ($($t:ty as $wire:ty),*) => {$(
        impl Spillable for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&(*self as $wire).to_le_bytes());
            }

            fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
                const N: usize = std::mem::size_of::<$wire>();
                let slice = buf.get(*pos..pos.checked_add(N)?)?;
                *pos += N;
                let mut b = [0u8; N];
                b.copy_from_slice(slice);
                <$t>::try_from(<$wire>::from_le_bytes(b)).ok()
            }
        }
    )*};
}

// `usize` is a `u64` on the wire, so the layout does not depend on the
// host's pointer width.
spillable_primitive!(
    u8 as u8, u16 as u16, u32 as u32, u64 as u64, i8 as i8, i16 as i16, i32 as i32, i64 as i64,
    f32 as f32, f64 as f64, usize as u64
);

/// Implements [`Spillable`] for a struct as its named fields in the order
/// given — for a struct any field values make valid. One with an invariant
/// among its fields writes `decode` by hand, through its validating
/// constructor.
#[macro_export]
macro_rules! spillable_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Spillable for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Spillable::encode(&self.$field, out);)+
            }

            fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
                Some(Self { $($field: $crate::codec::Spillable::decode(buf, pos)?),+ })
            }
        }
    };
}

impl<A: Spillable, B: Spillable> Spillable for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::decode(buf, pos)?, B::decode(buf, pos)?))
    }
}

impl<A: Spillable, B: Spillable, C: Spillable> Spillable for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::decode(buf, pos)?, B::decode(buf, pos)?, C::decode(buf, pos)?))
    }
}

/// A `u64` byte count, then the UTF-8 bytes.
impl Spillable for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        String::from_utf8(Vec::decode(buf, pos)?).ok()
    }
}

/// One array per KB side.
impl<T: Spillable> Spillable for [T; 2] {
    fn encode(&self, out: &mut Vec<u8>) {
        self[0].encode(out);
        self[1].encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some([T::decode(buf, pos)?, T::decode(buf, pos)?])
    }
}

/// A `u64` count, then the elements.
impl<T: Spillable> Spillable for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        // A column of millions of entries should grow `out` once.
        out.reserve(self.len() * std::mem::size_of::<T>());
        for item in self {
            item.encode(out);
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::decode(buf, pos)?;
        // A count read from the buffer bounds no allocation by itself:
        // reserve no more than the bytes left could hold.
        let fits = (buf.len() - *pos) / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            items.push(T::decode(buf, pos)?);
        }
        Some(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_exact_and_little_endian() {
        type Record = (u32, f64, Vec<([u16; 2], String)>);
        let record: Record = (7, -0.0, vec![([1, 2], "ç".to_owned()), ([3, 4], String::new())]);
        let bytes = encode_to_vec(&record);
        assert_eq!(&bytes[..4], &[7, 0, 0, 0], "little-endian on every host");
        let back: Record = decode_exact(&bytes).expect("decodes");
        assert_eq!(back.1.to_bits(), (-0.0f64).to_bits(), "bit-exact floats");
        assert_eq!((back.0, back.2), (record.0, record.2));
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(decode_exact::<f64>(&encode_to_vec(&nan)).map(f64::to_bits), Some(nan.to_bits()));
    }

    #[test]
    fn short_long_and_invalid_buffers_decode_to_none() {
        let bytes = encode_to_vec(&vec![1u32, 2, 3]);
        assert_eq!(decode_exact::<Vec<u32>>(&bytes), Some(vec![1, 2, 3]));
        assert_eq!(decode_exact::<Vec<u32>>(&bytes[..bytes.len() - 1]), None, "short");
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_exact::<Vec<u32>>(&long), None, "long");
        assert_eq!(decode_exact::<String>(&encode_to_vec(&vec![0xC3u8])), None, "not UTF-8");
        // A count far past the buffer fails without allocating for it.
        assert_eq!(decode_exact::<Vec<u64>>(&encode_to_vec(&u64::MAX)), None);
    }
}
