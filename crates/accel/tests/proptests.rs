//! Property-based tests for the accelerator data-plane functions.

use accel::compare::{compare_pages, PageCompare};
use accel::lz::{compress, decompress};
use accel::xxhash::{xxh32, xxh64};
use kernel::page::{PageContent, PAGE_SIZE};
use proptest::prelude::*;
use sim_core::rng::SimRng;

/// The plain byte-at-a-time LZ compressor that `compress` must match byte
/// for byte: a `usize::MAX`-filled position table, a separate bounds test
/// per candidate and a byte-wise match extension.
fn reference_compress(input: &[u8]) -> Vec<u8> {
    const MIN_MATCH: usize = 4;
    const HASH_BITS: u32 = 12;
    fn hash4(bytes: &[u8]) -> usize {
        let v = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte window"));
        (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
    }
    fn write_length(out: &mut Vec<u8>, mut len: usize) {
        while len >= 255 {
            out.push(255);
            len -= 255;
        }
        out.push(len as u8);
    }
    let mut out = Vec::new();
    let n = input.len();
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut anchor = 0;
    let mut i = 0;
    let match_limit = n.saturating_sub(MIN_MATCH + 1);
    while i < match_limit {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        let is_match = candidate != usize::MAX
            && i - candidate <= u16::MAX as usize
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH];
        if !is_match {
            i += 1;
            continue;
        }
        let mut len = MIN_MATCH;
        while i + len < n && input[candidate + len] == input[i + len] {
            len += 1;
        }
        let lit_len = i - anchor;
        let offset = i - candidate;
        out.push(((lit_len.min(15) as u8) << 4) | (len - MIN_MATCH).min(15) as u8);
        if lit_len >= 15 {
            write_length(&mut out, lit_len - 15);
        }
        out.extend_from_slice(&input[anchor..i]);
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            write_length(&mut out, len - MIN_MATCH - 15);
        }
        i += len;
        anchor = i;
    }
    let lit_len = n - anchor;
    out.push((lit_len.min(15) as u8) << 4);
    if lit_len >= 15 {
        write_length(&mut out, lit_len - 15);
    }
    out.extend_from_slice(&input[anchor..]);
    out
}

/// The plain byte scan that `compare_pages` must agree with.
fn reference_compare(a: &[u8], b: &[u8]) -> PageCompare {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        None => PageCompare::Identical,
        Some(index) => PageCompare::DiffersAt {
            index,
            ordering: a[index].cmp(&b[index]),
        },
    }
}

/// Every content class ksm and zswap see, with two duplicate bases.
const CLASSES: [PageContent; 6] = [
    PageContent::Zero,
    PageContent::Text,
    PageContent::Binary,
    PageContent::Random,
    PageContent::Duplicate { id: 0 },
    PageContent::Duplicate { id: 7 },
];

/// Two pages of the given classes, back to back, cut to `len` bytes.
fn class_input(first: usize, second: usize, len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::seed_from(seed);
    let mut data = CLASSES[first].generate(&mut rng);
    data.extend(CLASSES[second].generate(&mut rng));
    data.truncate(len);
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// compress ∘ decompress = identity, for arbitrary byte strings.
    #[test]
    fn codec_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = compress(&data);
        let d = decompress(&c, data.len()).expect("decompress");
        prop_assert_eq!(d, data);
    }

    /// Compression of compressible structure actually shrinks: a page made
    /// of a repeated short motif must compress.
    #[test]
    fn repeated_motifs_shrink(motif in proptest::collection::vec(any::<u8>(), 1..16)) {
        let page: Vec<u8> = motif.iter().copied().cycle().take(4096).collect();
        let c = compress(&page);
        prop_assert!(c.len() < page.len() / 2, "motif page -> {} bytes", c.len());
    }

    /// Compressed output never exceeds the documented worst-case bound.
    #[test]
    fn worst_case_expansion_bounded(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert!(c.len() <= data.len() + data.len() / 255 + 16);
    }

    /// `compress` emits exactly the reference compressor's bytes on every
    /// page-content class, at lengths that cut pages anywhere.
    #[test]
    fn compress_matches_reference_on_page_classes(
        first in 0..CLASSES.len(),
        second in 0..CLASSES.len(),
        len in 0..2 * PAGE_SIZE,
        seed in any::<u64>(),
    ) {
        let data = class_input(first, second, len, seed);
        prop_assert_eq!(compress(&data), reference_compress(&data));
    }

    /// ... and on arbitrary bytes.
    #[test]
    fn compress_matches_reference_on_random_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
    ) {
        prop_assert_eq!(compress(&data), reference_compress(&data));
    }

    /// Past 64 KiB the match window (offset ≤ 65 535) decides: a repeat
    /// just inside the window must match and one just outside must not,
    /// exactly as in the reference. A random motif repeats across zero
    /// filler, which one long match covers, so the motif's hash slot is
    /// still there when its repeat arrives; noisy filler instead checks
    /// long inputs with no matches.
    #[test]
    fn compress_matches_reference_at_window_edge(
        len in 65_600usize..80_000,
        at in any::<prop::sample::Index>(),
        distance in 65_533usize..65_539,
        run in 4usize..40,
        noisy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut data = vec![0u8; len];
        if noisy {
            rng.fill_bytes(&mut data);
        }
        let src = at.index(len - distance - run);
        rng.fill_bytes(&mut data[src..src + run]);
        data.copy_within(src..src + run, src + distance);
        let c = compress(&data);
        prop_assert_eq!(&c, &reference_compress(&data));
        prop_assert_eq!(decompress(&c, len).expect("decompress"), data);
    }

    /// Hashes are deterministic and length-sensitive.
    #[test]
    fn hashes_deterministic(data in proptest::collection::vec(any::<u8>(), 0..2048), seed in any::<u32>()) {
        prop_assert_eq!(xxh32(&data, seed), xxh32(&data, seed));
        prop_assert_eq!(xxh64(&data, seed as u64), xxh64(&data, seed as u64));
    }

    /// A single byte flip changes the 32-bit checksum (xxhash is not
    /// cryptographic, but on random inputs collisions at Hamming distance
    /// 1 are vanishingly rare — and ksm tolerates hint collisions anyway).
    #[test]
    fn byte_flip_changes_hash(
        mut data in proptest::collection::vec(any::<u8>(), 1..2048),
        idx in any::<prop::sample::Index>(),
    ) {
        let before = xxh32(&data, 0);
        let i = idx.index(data.len());
        data[i] ^= 0xA5;
        prop_assert_ne!(xxh32(&data, 0), before);
    }

    /// compare_pages agrees with slice equality and lexicographic order.
    #[test]
    fn compare_agrees_with_lexicographic(
        a in proptest::collection::vec(any::<u8>(), 0..512),
        b in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let r = compare_pages(a, b);
        prop_assert_eq!(r.is_identical(), a == b);
        prop_assert_eq!(r.ordering(), a.cmp(b));
    }

    /// The first difference, not just its direction: `b` is `a` with zero
    /// or one changed byte, at lengths that are mostly not multiples of 8,
    /// so the word scan's index and its byte tail are both exercised.
    #[test]
    fn compare_index_matches_byte_scan(
        a in proptest::collection::vec(any::<u8>(), 0..600),
        at in any::<prop::sample::Index>(),
        flip in 1u8..255,
        mutate in any::<bool>(),
    ) {
        let mut b = a.clone();
        if mutate && !a.is_empty() {
            b[at.index(a.len())] ^= flip;
        }
        prop_assert_eq!(compare_pages(&a, &b), reference_compare(&a, &b));
        prop_assert_eq!(compare_pages(&b, &a), reference_compare(&b, &a));
    }

    /// Identical pages hash identically (the ksm fast path is sound).
    #[test]
    fn equal_pages_equal_hashes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let copy = data.clone();
        prop_assert_eq!(xxh32(&data, 0), xxh32(&copy, 0));
        prop_assert!(compare_pages(&data, &copy).is_identical());
    }
}
