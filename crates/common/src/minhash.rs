//! MinHash signatures and banded LSH bucketing for similarity blocking.
//!
//! BigDansing's Block abstraction (§3.1) only asks a rule for *some*
//! candidate-grouping key; for similarity rules (the §6.5 φU Levenshtein
//! dedup) a single prefix key either over-groups (few huge blocks →
//! quadratic blowup) or splits true duplicates apart. MinHash/LSH is the
//! standard fix: hash each string's character shingles under `bands ×
//! rows_per_band` seeded permutations, take the per-permutation minimum
//! as the signature, and bucket tuples by the hash of each *band* (a
//! contiguous run of `rows_per_band` signature rows). Two strings with
//! shingle-set Jaccard similarity `J` land in the same bucket for a
//! given band with probability `J^rows_per_band`, and in at least one of
//! `b` bands with probability `1 − (1 − J^r)^b` — the classic S-curve
//! that passes near-duplicates with high recall while dissimilar pairs
//! almost never collide.
//!
//! Everything here is deterministic: permutation seeds derive from the
//! permutation index through a fixed mixer on top of the crate's
//! [`StableHasher`](crate::hash::StableHasher) constants, so the same
//! string yields the same signature and buckets on every run, on every
//! platform, and under every chaos seed.

use crate::hash::StableHasher;
use crate::rng::{mix, SplitMix64};
use std::hash::Hasher;

/// Knobs for LSH blocking: how many bands, how many signature rows per
/// band, and the character-shingle width the signature is built from.
///
/// `bands × rows_per_band` is the total number of hash permutations.
/// More rows per band sharpens the S-curve (fewer false candidates, at
/// the cost of recall on weaker matches); more bands raises recall (at
/// the cost of shuffle volume — each tuple is replicated once per
/// band).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of LSH bands (each tuple is bucketed once per band).
    pub bands: usize,
    /// Signature rows hashed together per band.
    pub rows_per_band: usize,
    /// Character-shingle width used to build the MinHash signature.
    pub shingle: usize,
}

impl Default for LshParams {
    /// `8 bands × 3 rows` over 2-character shingles: tuned so that a
    /// one-edit variant of a 10–13 character string (shingle Jaccard
    /// ≈ 0.7) is caught with probability ≈ 0.96 per pair, while
    /// unrelated strings (J ≲ 0.1) almost never collide.
    fn default() -> Self {
        LshParams {
            bands: 8,
            rows_per_band: 3,
            shingle: 2,
        }
    }
}

impl LshParams {
    /// Total number of hash permutations (`bands × rows_per_band`).
    pub fn num_hashes(&self) -> usize {
        self.bands * self.rows_per_band
    }
}

/// Stable base hash of one character shingle (no per-shingle `String`
/// allocation: code points are fed straight into the hasher).
fn shingle_hash(chars: &[char]) -> u64 {
    let mut h = StableHasher::default();
    for &c in chars {
        h.write_u32(c as u32);
    }
    h.finish()
}

/// The first 64 draws of a [`SplitMix64`] seeded 0, the permutation
/// seeds, drawn at compile time, and the generator that draws the ones
/// after them while a longer signature folds each shingle.
static SEEDS: ([u64; 64], SplitMix64) = {
    let (mut seeds, mut permutations, mut i) = ([0; 64], SplitMix64::new(0), 0);
    while i < seeds.len() {
        seeds[i] = permutations.next_u64();
        i += 1;
    }
    (seeds, permutations)
};

/// Compute the MinHash signature of `s`: `num_hashes` values, each the
/// minimum over the string's character shingles under one seeded
/// permutation.
///
/// Permutation `i` mixes the base shingle hash with the `i`-th draw of a
/// [`SplitMix64`] seeded 0, so the seeds never depend on process state
/// and one FNV hash per shingle serves every permutation. The output is
/// the one allocation of an all-ASCII string.
///
/// The string is lowercased first so the signature matches the
/// case-insensitive spirit of [`crate::sim::similar`]-style matching of
/// near-duplicate names. Strings shorter than the shingle width (and
/// the empty string) contribute a single whole-string shingle, so equal
/// strings always produce identical signatures.
pub fn compute_minhash_signature(s: &str, num_hashes: usize, shingle: usize) -> Vec<u64> {
    let width = shingle.max(1);
    let mut signature = vec![u64::MAX; num_hashes];
    let mut fold = |base: u64| {
        for (slot, seed) in signature.iter_mut().zip(&SEEDS.0) {
            *slot = (*slot).min(mix(base ^ seed));
        }
        let mut permutations = SEEDS.1.clone();
        for slot in signature.iter_mut().skip(SEEDS.0.len()) {
            *slot = (*slot).min(mix(base ^ permutations.next_u64()));
        }
    };
    if s.is_ascii() {
        // Fast path for the common all-ASCII value: hash byte windows,
        // lowercasing each byte as it is hashed. `write_u32(byte as
        // u32)` matches `write_u32(char as u32)` exactly, so the
        // signature is bit-identical to the generic path below.
        let bytes = s.as_bytes();
        let hash_window = |w: &[u8]| {
            let mut h = StableHasher::default();
            for &b in w {
                h.write_u32(b.to_ascii_lowercase() as u32);
            }
            h.finish()
        };
        if bytes.len() < width {
            fold(hash_window(bytes));
        } else {
            for window in bytes.windows(width) {
                fold(hash_window(window));
            }
        }
        return signature;
    }
    let chars: Vec<char> = s.chars().flat_map(|c| c.to_lowercase()).collect();
    if chars.len() < width {
        fold(shingle_hash(&chars));
    } else {
        for window in chars.windows(width) {
            fold(shingle_hash(window));
        }
    }
    signature
}

/// Fold a MinHash signature into one bucket hash per band.
///
/// Band `k` hashes signature rows `[k·r, (k+1)·r)` together with the
/// band index, so buckets from different bands can never be confused
/// even when their row hashes collide. The signature must have at least
/// `bands × rows_per_band` rows (as produced by
/// [`compute_minhash_signature`] with `num_hashes = bands × r`).
pub fn lsh_buckets_from_signature(
    signature: &[u64],
    bands: usize,
    rows_per_band: usize,
) -> Vec<u64> {
    let r = rows_per_band.max(1);
    (0..bands)
        .map(|k| {
            let mut h = StableHasher::default();
            h.write_u64(k as u64);
            for row in &signature[k * r..(k + 1) * r] {
                h.write_u64(*row);
            }
            h.finish()
        })
        .collect()
}

/// Convenience: signature + banding in one call — one bucket hash per
/// band for string `s` under `params`.
pub fn band_hashes(s: &str, params: &LshParams) -> Vec<u64> {
    let sig = compute_minhash_signature(s, params.num_hashes(), params.shingle);
    lsh_buckets_from_signature(&sig, params.bands, params.rows_per_band)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jaccard_estimate(a: &str, b: &str, p: &LshParams) -> f64 {
        let sa = compute_minhash_signature(a, p.num_hashes(), p.shingle);
        let sb = compute_minhash_signature(b, p.num_hashes(), p.shingle);
        let agree = sa.iter().zip(&sb).filter(|(x, y)| x == y).count();
        agree as f64 / sa.len() as f64
    }

    #[test]
    fn signatures_are_deterministic() {
        let p = LshParams::default();
        for s in ["", "a", "Sao Paulo", "Florence", "日本語テキスト"] {
            let one = compute_minhash_signature(s, p.num_hashes(), p.shingle);
            let two = compute_minhash_signature(s, p.num_hashes(), p.shingle);
            assert_eq!(one, two, "signature of {s:?} must be stable");
            assert_eq!(band_hashes(s, &p), band_hashes(s, &p));
        }
    }

    #[test]
    fn case_folding_makes_signatures_agree() {
        let p = LshParams::default();
        assert_eq!(band_hashes("SAO PAULO", &p), band_hashes("sao paulo", &p));
    }

    #[test]
    fn equal_strings_share_every_band() {
        let p = LshParams::default();
        let a = band_hashes("Florence", &p);
        let b = band_hashes("Florence", &p);
        assert_eq!(a.len(), p.bands);
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
    }

    #[test]
    fn similar_strings_agree_more_than_dissimilar_ones() {
        let p = LshParams {
            bands: 16,
            rows_per_band: 4,
            shingle: 2,
        };
        let near = jaccard_estimate("Sao Paulo", "Sao Paolo", &p);
        let far = jaccard_estimate("Sao Paulo", "Johannesburg", &p);
        assert!(
            near > far,
            "near-duplicate agreement {near} must exceed unrelated agreement {far}"
        );
        assert!(near > 0.4, "one-edit pair should share many rows: {near}");
    }

    #[test]
    fn short_and_empty_strings_get_full_signatures() {
        let p = LshParams::default();
        for s in ["", "a", "ab"] {
            let sig = compute_minhash_signature(s, p.num_hashes(), p.shingle);
            assert_eq!(sig.len(), p.num_hashes());
            assert!(
                sig.iter().all(|&v| v != u64::MAX),
                "no empty slots for {s:?}"
            );
            assert_eq!(band_hashes(s, &p).len(), p.bands);
        }
    }

    #[test]
    fn default_band_hashes_are_pinned() {
        // Bucket layout under the default parameters: a signature or
        // banding rewrite must leave every one of these hashes in place.
        let p = LshParams::default();
        let florence = [
            0x16e2_d95b_b234_da23,
            0x6e02_0ca7_4ecd_6922,
            0xdf1e_0973_4afa_38e8,
            0xb273_b3dd_7535_9569,
            0x15a1_e93e_5829_4ddf,
            0xfc23_c658_7a79_7249,
            0x6324_727e_06f3_f7c9,
            0xd244_f7ea_3b95_139d,
        ];
        let muller = [
            0x8729_71ab_1b0f_83d2,
            0xf482_dbe8_282a_bdc7,
            0x9c53_95b9_00c3_5766,
            0xe52b_6b58_60d7_ac82,
            0x1c25_3c48_0e90_6702,
            0x8980_5f64_455d_5625,
            0xebf0_04b8_9847_7300,
            0x0102_e5b7_00e9_0571,
        ];
        let one_char = [
            0x3442_e869_2d90_cf4c,
            0x3f39_c30a_a657_aa43,
            0x1521_9ff7_5a23_1856,
            0x8a2b_0ff3_db06_1640,
            0x8ce6_7a7e_bddc_fa58,
            0x1072_5ab1_30fe_cb86,
            0xf1c8_8dbe_99d0_acdb,
            0xb716_688a_0ad0_7b02,
        ];
        let empty = [
            0x7afa_157c_f60b_7fed,
            0xcbb7_84aa_ab2c_b908,
            0x31fd_f2bb_8f21_381e,
            0x15e5_672f_5d7a_b7c2,
            0xedba_139f_c6bf_0a0f,
            0x4367_dd90_8bec_01b2,
            0x6010_94cb_cbeb_c81a,
            0xa92b_b05d_f2ce_10d1,
        ];
        assert_eq!(band_hashes("florence", &p), florence);
        assert_eq!(band_hashes("Florence", &p), florence);
        assert_eq!(band_hashes("Müller", &p), muller);
        assert_eq!(band_hashes("a", &p), one_char);
        assert_eq!(band_hashes("", &p), empty);
    }

    #[test]
    fn band_index_is_part_of_the_bucket() {
        // A constant signature row repeated across bands must still
        // produce distinct per-band buckets (band index is hashed in).
        let sig = vec![42u64; 6];
        let buckets = lsh_buckets_from_signature(&sig, 3, 2);
        assert_eq!(buckets.len(), 3);
        assert!(buckets[0] != buckets[1] && buckets[1] != buckets[2]);
    }

    /// Past the seeds drawn at compile time, a long signature keeps
    /// drawing the same stream: every permutation `i` is the `i`-th draw
    /// of a generator seeded 0, on both the ASCII and the generic path.
    #[test]
    fn long_signatures_continue_the_seed_stream() {
        let n = SEEDS.0.len() + 9;
        let mut permutations = SplitMix64::new(0);
        let seeds: Vec<u64> = (0..n).map(|_| permutations.next_u64()).collect();
        for s in ["Florence", "MÜLLER", "a"] {
            let chars: Vec<char> = s.chars().flat_map(|c| c.to_lowercase()).collect();
            let bases: Vec<u64> = match chars.len() {
                0 | 1 => vec![shingle_hash(&chars)],
                _ => chars.windows(2).map(shingle_hash).collect(),
            };
            let min_under = |seed: &u64| bases.iter().map(|b| mix(b ^ seed)).min().unwrap();
            let expected: Vec<u64> = seeds.iter().map(min_under).collect();
            assert_eq!(compute_minhash_signature(s, n, 2), expected, "{s:?}");
        }
    }
}
