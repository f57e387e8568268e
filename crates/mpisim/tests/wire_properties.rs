//! Adversarial properties of the [`Wire`] codec.
//!
//! The reliable-delivery layer assumes the codec is *total* over damaged
//! input: whatever the fault injector does to a frame, `decode` must return
//! a [`WireError`] or a value — never panic, never loop, and never accept
//! bytes that are not the canonical encoding of what it returns. These
//! tests drive every wire type through
//!
//! * exact round-trips,
//! * truncation at **every** byte boundary (length-prefixed and fixed-width
//!   encodings are self-delimiting, so every strict prefix must error), and
//! * seeded single-byte mutations at every position: a successful decode of
//!   damaged bytes must re-encode to exactly those bytes (the encoding is
//!   canonical), and the frame checksum must always distinguish the damaged
//!   frame from the pristine one.

use ic2_rng::{mix64, SplitMix64};
use mpisim::{frame_checksum, Wire};

/// Extra seeded random (position, delta) mutation trials per value, on top
/// of the exhaustive one-mutation-per-position sweep.
const RANDOM_TRIALS: u64 = 64;

fn assault<T: Wire + PartialEq + std::fmt::Debug>(label: &str, v: &T, seed: u64) {
    let bytes = v.to_bytes();

    // Round-trip: decode returns exactly the encoded value.
    let back = T::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{label}: pristine encoding failed to decode: {e}"));
    assert_eq!(&back, v, "{label}: round-trip changed the value");

    // Truncation at every byte boundary must produce a WireError. No panic,
    // and no strict prefix may decode as a complete value.
    for keep in 0..bytes.len() {
        if let Ok(got) = T::from_bytes(&bytes[..keep]) {
            panic!(
                "{label}: truncation to {keep}/{} bytes decoded as {got:?}",
                bytes.len()
            );
        }
    }

    if bytes.is_empty() {
        return; // zero-width encodings have nothing to mutate
    }

    // One seeded mutation at every byte position, plus extra random trials.
    let positions = (0..bytes.len() as u64).map(|p| (p, mix64(seed ^ mix64(p))));
    let randoms = (0..RANDOM_TRIALS).map(|t| {
        let h = mix64(seed ^ mix64(t ^ 0x9e37_79b9_7f4a_7c15));
        (h % bytes.len() as u64, mix64(h))
    });
    for (pos, h) in positions.chain(randoms) {
        let pos = pos as usize;
        let delta = (h >> 32) as u8 | 1; // non-zero, so the byte changes
        let mut mutated = bytes.clone();
        mutated[pos] ^= delta;

        // The decoder may reject the damage or parse it as some other
        // value — but a value it returns must be one whose canonical
        // encoding is exactly the damaged buffer. Anything else means the
        // codec invented or dropped bytes.
        if let Ok(got) = T::from_bytes(&mutated) {
            assert_eq!(
                got.to_bytes(),
                mutated,
                "{label}: mutation at byte {pos} decoded as {got:?}, which \
                 does not re-encode to the damaged bytes"
            );
        }

        // Whatever the decoder thinks, the frame checksum always tells the
        // damaged frame apart from the pristine one.
        assert_ne!(
            frame_checksum(seed, 0, 7, pos as u64, &bytes),
            frame_checksum(seed, 0, 7, pos as u64, &mutated),
            "{label}: checksum collision after mutating byte {pos}"
        );
    }
}

#[test]
fn unsigned_integers_survive_assault() {
    assault("u8", &0u8, 1);
    assault("u8", &255u8, 2);
    assault("u16", &0xbeefu16, 3);
    assault("u32", &0xdead_beefu32, 4);
    assault("u64", &u64::MAX, 5);
    assault("u64", &0u64, 6);
    assault("usize", &usize::MAX, 7);
    assault("usize", &42usize, 8);
}

#[test]
fn signed_integers_survive_assault() {
    assault("i8", &i8::MIN, 9);
    assault("i8", &-1i8, 10);
    assault("i16", &-12345i16, 11);
    assault("i32", &i32::MIN, 12);
    assault("i64", &i64::MIN, 13);
    assault("i64", &i64::MAX, 14);
}

#[test]
fn floats_survive_assault() {
    assault("f32", &3.5f32, 15);
    assault("f32", &f32::NEG_INFINITY, 16);
    assault("f32", &-0.0f32, 17);
    assault("f64", &-0.125f64, 18);
    assault("f64", &f64::INFINITY, 19);
    assault("f64", &f64::MIN_POSITIVE, 20);
}

#[test]
fn bool_and_unit_survive_assault() {
    assault("bool", &true, 21);
    assault("bool", &false, 22);
    assault("unit", &(), 23);
}

#[test]
fn strings_survive_assault() {
    assault("String", &String::new(), 24);
    assault("String", &"hello world".to_string(), 25);
    assault("String", &"snowman \u{2603} and friends".to_string(), 26);
    // A long string gives the mutation sweep many interior positions where
    // damage lands inside multi-byte utf-8 sequences.
    assault("String", &"\u{1f680}".repeat(17), 27);
}

#[test]
fn vecs_survive_assault() {
    assault("Vec<u8>", &Vec::<u8>::new(), 28);
    assault("Vec<u8>", &(0u8..100).collect::<Vec<_>>(), 29);
    assault("Vec<u32>", &vec![1u32, 2, 3, 0xffff_ffff], 30);
    assault("Vec<f64>", &vec![1.5f64, -2.25, 0.0], 31);
    assault("Vec<()>", &vec![(); 9], 32);
    assault(
        "Vec<Vec<u16>>",
        &vec![vec![1u16, 2], vec![], vec![3, 4, 5]],
        33,
    );
    assault(
        "Vec<(u32, Vec<u8>)>",
        &vec![(1u32, vec![2u8, 3]), (4, vec![])],
        34,
    );
}

#[test]
fn options_survive_assault() {
    assault("Option<u8>", &Option::<u8>::None, 35);
    assault("Option<u8>", &Some(200u8), 36);
    assault("Option<String>", &Some("inner".to_string()), 37);
    assault("Option<Vec<u32>>", &Some(vec![7u32, 8]), 38);
    assault("Option<Option<bool>>", &Some(Some(true)), 39);
    assault("Option<Option<bool>>", &Some(None::<bool>), 40);
}

#[test]
fn tuples_survive_assault() {
    assault("(u32,)", &(5u32,), 41);
    assault("(u32, f64)", &(1u32, 2.5f64), 42);
    assault("(u32, f64, bool)", &(1u32, 2.5f64, true), 43);
    assault("(u8, u16, u32, u64)", &(1u8, 2u16, 3u32, 4u64), 44);
    assault(
        "(u8, i8, String, Vec<u8>, bool)",
        &(9u8, -9i8, "mid".to_string(), vec![1u8, 2], false),
        45,
    );
}

#[test]
fn arrays_survive_assault() {
    assault("[u16; 4]", &[1u16, 2, 3, 4], 46);
    assault("[f64; 3]", &[0.5f64, -1.5, 2.5], 47);
    assault("[Vec<u8>; 2]", &[vec![1u8], vec![2u8, 3]], 48);
}

#[test]
fn application_shaped_payloads_survive_assault() {
    // The shapes the platform actually ships: shadow-value batches,
    // checkpoint tables, adoption packages, gather chunks.
    assault(
        "shadow batch Vec<(u32, f64)>",
        &(0u32..40).map(|i| (i, i as f64 * 0.25)).collect::<Vec<_>>(),
        49,
    );
    assault(
        "checkpoint table Vec<(u32, Vec<f64>)>",
        &vec![(0u32, vec![1.0f64, 2.0]), (3, vec![]), (7, vec![-0.5])],
        50,
    );
    assault(
        "verdict-ish (u64, Vec<bool>, Option<f64>)",
        &(3u64, vec![true, false, true, false], Some(1.25f64)),
        51,
    );
}

/// The length prefix is the most dangerous byte range to damage: a mutated
/// length must be rejected (or consume exactly the announced bytes), never
/// over-read, and never allocate unbounded memory. Exercise it directly
/// with hostile lengths rather than waiting for the random sweep.
#[test]
fn hostile_length_prefixes_error() {
    for len in [
        4u64,
        1 << 20,
        u64::MAX,
        u64::MAX / 2,
        (1u64 << 32) + 1,
        0x00ff_ffff_ffff_ffff,
    ] {
        let mut buf = len.to_bytes();
        buf.extend_from_slice(&[1, 2, 3]); // far fewer elements than announced
        assert!(Vec::<u8>::from_bytes(&buf).is_err(), "len {len}");
        assert!(Vec::<u64>::from_bytes(&buf).is_err(), "len {len}");
        assert!(String::from_bytes(&buf).is_err(), "len {len}");
        // Zero-width elements consume no input, so the decoder accepts any
        // modest length; only lengths beyond its materialisation cap are
        // hostile (and must error instead of spinning for 2^64 rounds).
        if len > 1 << 16 {
            assert!(Vec::<()>::from_bytes(&len.to_bytes()).is_err(), "len {len}");
            assert!(
                Vec::<[(); 8]>::from_bytes(&len.to_bytes()).is_err(),
                "len {len}"
            );
        }
    }
}

/// Decoding is a pure function of the bytes: damaged frames fail (or parse)
/// identically on every call, so retransmit-and-reverify converges.
#[test]
fn decode_is_deterministic_over_damage() {
    let v: Vec<(u32, f64)> = (0..16).map(|i| (i, f64::from(i) * 1.5)).collect();
    let bytes = v.to_bytes();
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x40;
        // Compare through re-encoding: damage can produce NaNs, which
        // would defeat a direct value comparison.
        let a = Vec::<(u32, f64)>::from_bytes(&mutated).map(|v| v.to_bytes());
        let b = Vec::<(u32, f64)>::from_bytes(&mutated).map(|v| v.to_bytes());
        assert_eq!(a, b, "pos {pos}");
    }
}

/// The payload lengths the checksum properties run at.
fn checksum_lengths() -> impl Iterator<Item = usize> {
    (0..=100).chain([565, 577])
}

/// A seeded payload of `len` bytes and its checksum under a fixed identity.
fn seeded_payload(len: usize) -> (Vec<u8>, u64) {
    let mut rng = SplitMix64::new(0xc4ec_5a11 ^ len as u64);
    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    let sum = frame_checksum(42, 1, 7, 3, &bytes);
    (bytes, sum)
}

#[test]
fn checksum_sees_every_error_within_one_aligned_word() {
    for len in checksum_lengths() {
        let (bytes, sum) = seeded_payload(len);
        for bit in 0..len * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                sum,
                frame_checksum(42, 1, 7, 3, &flipped),
                "len {len} bit {bit}"
            );
        }
        // Multi-bit masks confined to one aligned word (or to the real bytes
        // of the ragged tail word), a seeded sample of them per word.
        let mut rng = SplitMix64::new(len as u64);
        for (w, start) in (0..len).step_by(8).enumerate() {
            let end = (start + 8).min(len);
            for _ in 0..8 {
                let mut damaged = bytes.clone();
                for b in &mut damaged[start..end] {
                    *b ^= rng.next_u64() as u8;
                }
                if damaged != bytes {
                    assert_ne!(
                        sum,
                        frame_checksum(42, 1, 7, 3, &damaged),
                        "len {len} word {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn checksum_sees_every_truncation_and_one_byte_extension() {
    for len in checksum_lengths() {
        let (bytes, sum) = seeded_payload(len);
        for keep in 0..len {
            assert_ne!(
                sum,
                frame_checksum(42, 1, 7, 3, &bytes[..keep]),
                "len {len} keep {keep}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        for extra in 0..=u8::MAX {
            *longer.last_mut().unwrap() = extra;
            assert_ne!(
                sum,
                frame_checksum(42, 1, 7, 3, &longer),
                "len {len} + {extra}"
            );
        }
    }
}

#[test]
fn checksum_sees_every_swap_of_two_distinct_words() {
    for len in checksum_lengths() {
        let (bytes, sum) = seeded_payload(len);
        let words = len / 8;
        for i in 0..words {
            for j in i + 1..words {
                let (a, b) = (i * 8..i * 8 + 8, j * 8..j * 8 + 8);
                if bytes[a.clone()] == bytes[b.clone()] {
                    continue;
                }
                let mut swapped = bytes.clone();
                swapped[a.clone()].copy_from_slice(&bytes[b.clone()]);
                swapped[b].copy_from_slice(&bytes[a]);
                assert_ne!(
                    sum,
                    frame_checksum(42, 1, 7, 3, &swapped),
                    "len {len} words {i}, {j}"
                );
            }
        }
    }
}

#[test]
fn checksum_binds_seed_src_tag_and_seq() {
    for len in checksum_lengths() {
        let (bytes, sum) = seeded_payload(len);
        for other in [
            frame_checksum(43, 1, 7, 3, &bytes),
            frame_checksum(42, 2, 7, 3, &bytes),
            frame_checksum(42, 1, 8, 3, &bytes),
            frame_checksum(42, 1, 7, 4, &bytes),
        ] {
            assert_ne!(sum, other, "len {len}");
        }
    }
}
