//! Wire encoding of message payloads.
//!
//! MPI programs describe message layouts with derived datatypes
//! (`MPI_Type_struct` + `MPI_Type_commit` in the thesis's
//! `CommunicateShadows`). The equivalent here is the [`Wire`] trait: a type
//! that knows how to serialise itself to bytes and back. Encoded length is
//! what the network model charges for, and what the platform reports as
//! communication volume (the thesis weights processor-graph edges by buffer
//! lengths).

use ic2_rng::mix64;
use std::cell::RefCell;
use std::fmt;

/// Seeded 64-bit checksum over one framed payload.
///
/// Every data-plane envelope carries `frame_checksum(seed, src, tag, seq,
/// payload)` computed by the sender over the *pristine* bytes; the receiver
/// recomputes it on delivery and discards (NACKs) any frame that fails to
/// verify. The pager seals each page image with it too. Built on [`mix64`]
/// so the platform stays dependency-free:
///
/// * a preamble chain absorbs `seed`, `src`, `tag`, `seq` and the payload
///   length, so a frame cannot pass for a different message that happens
///   to share its payload;
/// * four lanes, each started from the preamble and a lane constant, absorb
///   the payload's 8-byte little-endian words in turn (word `i` into lane
///   `i % 4`, the ragged tail zero-padded), one `mix64` a word. The lanes
///   are independent chains, so a core runs them side by side;
/// * the lanes fold into the preamble, one `mix64` each, in lane order.
///
/// What it guarantees: every error confined to one aligned 8-byte word of
/// the payload (any single-bit flip among them) changes the sum, because
/// each lane step and each fold step is a bijection of the value it
/// absorbs. A change of length changes the preamble, so a truncation or an
/// extension, and any other damage, goes unseen only when two unrelated
/// 64-bit sums collide (about one in 2^64); that includes a swap of two
/// distinct words, which the lane order and lane constants make a
/// different absorption, not a guaranteed different sum.
pub fn frame_checksum(seed: u64, src: usize, tag: i64, seq: u64, bytes: &[u8]) -> u64 {
    const LANES: [u64; 4] = [
        0xe703_7ed1_a0b4_28db,
        0x8ebc_6af0_9c88_c6e3,
        0x5899_65cc_7537_4cc3,
        0x1d8e_4e27_c47d_124f,
    ];
    let mut h = mix64(seed ^ 0xa076_1d64_78bd_642f);
    h = mix64(h ^ src as u64);
    h = mix64(h ^ tag as u64);
    h = mix64(h ^ seq);
    h = mix64(h ^ bytes.len() as u64);
    let mut lanes = LANES.map(|k| h ^ k);
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix64(*lane ^ u64::from_le_bytes(w.try_into().unwrap()));
        }
    }
    for (lane, chunk) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        *lane = mix64(*lane ^ u64::from_le_bytes(w));
    }
    lanes.into_iter().fold(h, |h, lane| mix64(h ^ lane))
}

/// Error produced when decoding a malformed or truncated message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of what failed to decode.
    pub what: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.what)
    }
}

impl std::error::Error for WireError {}

/// A type that can cross the simulated network.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, consuming
/// exactly the bytes `encode` produced (so values can be concatenated).
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Bytes [`Wire::encode`] appends. The implementations here compute
    /// it, so a container's length costs no encode as long as its
    /// elements' does not either; the default encodes into a reused
    /// per-thread buffer.
    fn encoded_len(&self) -> usize {
        LEN_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
            Ok(mut buf) => {
                buf.clear();
                self.encode(&mut buf);
                buf.len()
            }
            // An `encode` that counts a nested value finds the buffer taken.
            Err(_) => self.to_bytes().len(),
        })
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a value that must occupy the entire buffer.
    fn from_bytes(mut buf: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireError {
                what: "trailing bytes after decode",
            });
        }
        Ok(v)
    }
}

thread_local! {
    /// The buffer [`Wire::encoded_len`]'s default encodes into.
    static LEN_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError { what });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

macro_rules! wire_num {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(buf, std::mem::size_of::<$t>(), concat!("truncated ", stringify!($t)))?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

wire_num!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::decode(buf)? as usize)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let b = take(buf, 1, "truncated bool")?;
        match b[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                what: "invalid bool byte",
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

/// Largest zero-width-element `Vec` a decoder will materialise; see
/// `Vec::decode`.
const ZERO_WIDTH_VEC_CAP: usize = 1 << 16;

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = u64::decode(buf)? as usize;
        // Guard against hostile lengths: each element needs at least one byte
        // unless the element type is zero-sized on the wire.
        let mut v = Vec::with_capacity(len.min(buf.len().max(16)));
        for _ in 0..len {
            let before = buf.len();
            v.push(T::decode(buf)?);
            if buf.len() == before && len > ZERO_WIDTH_VEC_CAP {
                // Zero-width elements consume no input, so a mutated length
                // prefix would otherwise make this loop run for up to 2^64
                // iterations. Cap how many we are willing to materialise.
                return Err(WireError {
                    what: "oversized zero-width Vec",
                });
            }
        }
        Ok(v)
    }
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(T::encoded_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let tag = take(buf, 1, "truncated Option tag")?[0];
        match tag {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError {
                what: "invalid Option tag",
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = u64::decode(buf)? as usize;
        let bytes = take(buf, len, "truncated String")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError {
            what: "invalid utf-8 in String",
        })
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($name::decode(buf)?,)+))
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::decode(buf)?);
        }
        items.try_into().map_err(|_| WireError {
            what: "array length mismatch",
        })
    }
    fn encoded_len(&self) -> usize {
        self.iter().map(T::encoded_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(v.encoded_len(), bytes.len(), "encoded_len of {v:?}");
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn numbers_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(1234u16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
        roundtrip(3.5f32);
        roundtrip(-0.125f64);
        roundtrip(usize::MAX);
    }

    #[test]
    fn compounds_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7i64));
        roundtrip(Option::<i64>::None);
        roundtrip("hello world".to_string());
        roundtrip(String::new());
        roundtrip((1u32, 2.5f64, true));
        roundtrip([1u16, 2, 3, 4]);
        roundtrip(vec![(1u32, vec![2u8, 3]), (4, vec![])]);
    }

    /// Leaves `encoded_len` to the default.
    #[derive(Debug, PartialEq)]
    struct Plain(u16);

    impl Wire for Plain {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(Plain(u16::decode(buf)?))
        }
    }

    /// Counts a nested value with the default while the default counts it.
    #[derive(Debug, PartialEq)]
    struct Framed(Plain);

    impl Wire for Framed {
        fn encode(&self, out: &mut Vec<u8>) {
            (self.0.encoded_len() as u8).encode(out);
            self.0.encode(out);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            u8::decode(buf)?;
            Ok(Framed(Plain::decode(buf)?))
        }
    }

    #[test]
    fn default_encoded_len_counts_nested_and_contained_values() {
        roundtrip(Plain(7));
        roundtrip(Framed(Plain(7)));
        roundtrip(vec![Some(Framed(Plain(1))), None, Some(Framed(Plain(2)))]);
    }

    #[test]
    fn concatenated_values_decode_in_order() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        "ab".to_string().encode(&mut buf);
        2.0f64.encode(&mut buf);
        let mut slice = &buf[..];
        assert_eq!(u32::decode(&mut slice).unwrap(), 1);
        assert_eq!(String::decode(&mut slice).unwrap(), "ab");
        assert_eq!(f64::decode(&mut slice).unwrap(), 2.0);
        assert!(slice.is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        assert!(u64::from_bytes(&[1, 2, 3]).is_err());
        assert!(String::from_bytes(&5u64.to_bytes()).is_err());
        assert!(Vec::<u32>::from_bytes(&3u64.to_bytes()).is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = 1u32.to_bytes();
        bytes.push(9);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_enum_tags_error() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[7]).is_err());
    }

    #[test]
    fn zero_width_vec_roundtrips_but_hostile_lengths_error() {
        roundtrip(vec![(); 5]);
        roundtrip(vec![(); ZERO_WIDTH_VEC_CAP]);
        // A mutated length prefix must error instead of looping ~forever.
        let hostile = u64::MAX.to_bytes();
        assert!(Vec::<()>::from_bytes(&hostile).is_err());
        let nested = (u64::MAX / 2).to_bytes();
        assert!(Vec::<[(); 4]>::from_bytes(&nested).is_err());
    }

    #[test]
    fn frame_checksum_detects_damage() {
        let payload: Vec<u8> = (0..67).map(|i| (i * 31) as u8).collect();
        let sum = frame_checksum(42, 1, 7, 3, &payload);
        // Pure in all inputs.
        assert_eq!(sum, frame_checksum(42, 1, 7, 3, &payload));
        // Sensitive to identity: seed, src, tag, seq.
        assert_ne!(sum, frame_checksum(43, 1, 7, 3, &payload));
        assert_ne!(sum, frame_checksum(42, 2, 7, 3, &payload));
        assert_ne!(sum, frame_checksum(42, 1, 8, 3, &payload));
        assert_ne!(sum, frame_checksum(42, 1, 7, 4, &payload));
        // Every single-bit flip changes the sum.
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum, frame_checksum(42, 1, 7, 3, &flipped), "bit {bit}");
        }
        // Every truncation changes the sum.
        for keep in 0..payload.len() {
            assert_ne!(
                sum,
                frame_checksum(42, 1, 7, 3, &payload[..keep]),
                "keep {keep}"
            );
        }
        // The empty payload is still bound to its identity.
        assert_ne!(
            frame_checksum(42, 1, 7, 3, &[]),
            frame_checksum(42, 1, 7, 4, &[])
        );
    }

    #[test]
    fn non_utf8_string_errors() {
        let mut buf = Vec::new();
        2u64.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(String::from_bytes(&buf).is_err());
    }
}
