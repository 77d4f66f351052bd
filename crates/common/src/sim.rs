//! Similarity functions for UDF rules.
//!
//! Rule φU in the paper deduplicates with "an ad-hoc similarity function";
//! the deduplication experiment (§6.5) implements Levenshtein distance as
//! the UDF. This module provides Levenshtein plus the normalized
//! similarity helpers the dedup rules use.
//!
//! [`similar`] is the verify step every candidate pair of a dedup rule
//! runs. It turns the threshold into an integer edit budget `k` and
//! decides `distance ≤ k` on one of two paths, neither of which
//! allocates for short strings:
//!
//! * **Bit-parallel**, when both strings are ASCII and the shorter is at
//!   most 64 bytes: Myers' edit distance (JACM 1999) keeps a whole DP
//!   column in two `u64` delta vectors, one word operation per byte of
//!   the longer string.
//! * **Banded DP** otherwise (multi-byte or long strings): a two-row DP
//!   over `char`s restricted to the cells within `k` of the diagonal,
//!   stopping once a row exceeds the budget.

/// Levenshtein edit distance between two strings (unit costs), computed
/// over `char`s with a two-row dynamic program (O(min(n,m)) memory).
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    let (short, long): (Vec<char>, Vec<char>) = {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        if av.len() <= bv.len() {
            (av, bv)
        } else {
            (bv, av)
        }
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (j, &cb) in long.iter().enumerate() {
        cur[0] = j + 1;
        for (i, &ca) in short.iter().enumerate() {
            let sub = prev[i] + usize::from(ca != cb);
            cur[i + 1] = sub.min(prev[i + 1] + 1).min(cur[i] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Normalized similarity in [0, 1]: `1 - lev(a,b) / max(|a|,|b|)`.
/// Empty-vs-empty is 1.0.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Banded early-exit Levenshtein (Ukkonen's cutoff): `Some(d)` when the
/// edit distance is `d ≤ k`, `None` as soon as it provably exceeds `k`.
///
/// Only cells within `k` of the diagonal are computed (O(min(n,m)·k)
/// instead of O(n·m)), and the DP aborts the moment an entire row rises
/// above the budget. Within the band the distance is exact, so
/// `levenshtein_within(a, b, k) == Some(d)` iff `levenshtein(a, b) == d
/// && d <= k`.
fn levenshtein_within(a: &str, b: &str, k: usize) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    let (short, long): (Vec<char>, Vec<char>) = {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        if av.len() <= bv.len() {
            (av, bv)
        } else {
            (bv, av)
        }
    };
    let (n, m) = (short.len(), long.len());
    if m - n > k {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    // `cap` is the "provably over budget" sentinel; any cell at `cap`
    // can never recover to ≤ k.
    let cap = k + 1;
    let mut prev: Vec<usize> = (0..=n).map(|i| i.min(cap)).collect();
    let mut cur = vec![cap; n + 1];
    for (j, &cb) in long.iter().enumerate() {
        let row = j + 1;
        // Band for this row: columns i with |i - row| <= k.
        let lo = row.saturating_sub(k);
        let hi = (row + k).min(n);
        cur[0] = row.min(cap);
        if lo > 1 {
            cur[lo - 1] = cap;
        }
        let mut row_min = if lo == 0 { cur[0] } else { cap };
        for i in lo.max(1)..=hi {
            let sub = prev[i - 1] + usize::from(short[i - 1] != cb);
            let del = prev[i] + 1;
            let ins = cur[i - 1] + 1;
            let best = sub.min(del).min(ins).min(cap);
            cur[i] = best;
            row_min = row_min.min(best);
        }
        if hi < n {
            cur[hi + 1] = cap;
        }
        if row_min > k {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[n];
    (d <= k).then_some(d)
}

/// Levenshtein distance between byte strings by Myers' bit-parallel
/// algorithm, for a `pattern` of 1 to 64 bytes.
///
/// Bit `i` of `pv` / `mv` says the DP column steps up / down by one
/// from row `i` to row `i + 1`; each byte of `text` advances the whole
/// column with a handful of word operations. `score` follows the last
/// row, i.e. the distance from all of `pattern` to the text read so far.
fn myers(pattern: &[u8], text: &[u8]) -> usize {
    debug_assert!((1..=64).contains(&pattern.len()));
    let mut peq = [0u64; 128];
    for (i, &c) in pattern.iter().enumerate() {
        // `& 0x7f` is the identity on ASCII and drops the bounds check
        peq[usize::from(c & 0x7f)] |= 1 << i;
    }
    let last = 1u64 << (pattern.len() - 1);
    let (mut pv, mut mv, mut score) = (u64::MAX, 0u64, pattern.len());
    for &c in text {
        let eq = peq[usize::from(c & 0x7f)];
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        score = score + usize::from(ph & last != 0) - usize::from(mh & last != 0);
        // Row 0 of the DP is the text position itself, so every column
        // steps up by one there: the `| 1` carries that into row 1.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// The `simF` predicate of rule φU: true when similarity ≥ `threshold`.
///
/// Instead of a full DP, this decides `distance ≤ k` for the
/// threshold-implied edit budget — the largest `k` with
/// `1 - k / max_len ≥ threshold` — bit-parallel for short ASCII strings
/// and by the banded DP otherwise (see the module doc).
pub fn similar(a: &str, b: &str, threshold: f64) -> bool {
    let ascii = a.is_ascii() && b.is_ascii();
    let (la, lb) = match ascii {
        true => (a.len(), b.len()),
        false => (a.chars().count(), b.chars().count()),
    };
    let max_len = la.max(lb);
    if max_len == 0 {
        return true;
    }
    // Largest k with 1 - k/max_len >= threshold, nudged both ways so the
    // integer budget agrees exactly with the f64 predicate
    // `levenshtein_similarity(a, b) >= threshold` it replaces.
    let m = max_len as f64;
    let mut k = ((1.0 - threshold) * m).floor() as i64;
    k = k.clamp(-1, max_len as i64);
    while k < max_len as i64 && 1.0 - (k + 1) as f64 / m >= threshold {
        k += 1;
    }
    while k >= 0 && 1.0 - k as f64 / m < threshold {
        k -= 1;
    }
    if k < 0 {
        return false;
    }
    let k = k as usize;
    if la.abs_diff(lb) > k {
        return false;
    }
    let (short, long) = if la <= lb { (a, b) } else { (b, a) };
    match (ascii, short.len()) {
        (true, 1..=64) => myers(short.as_bytes(), long.as_bytes()) <= k,
        _ => levenshtein_within(a, b, k).is_some(),
    }
}

/// A cheap blocking key for strings: lowercase first `n` characters.
/// Dedup rules use it so candidate pairs only form within a block (§3.1).
pub fn prefix_key(s: &str, n: usize) -> String {
    s.chars().take(n).flat_map(|c| c.to_lowercase()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check, SplitMix64};

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn unicode_counts_chars_not_bytes() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("ü", "u"), 1);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("Laure", "Laura");
        assert!(s > 0.7 && s < 1.0);
    }

    #[test]
    fn similar_matches_threshold() {
        assert!(similar("Robert", "Robert", 1.0));
        assert!(similar("Robert", "Rovert", 0.8));
        assert!(!similar("Robert", "Xavier", 0.8));
        // length prefilter must not change the outcome
        assert!(!similar("ab", "abcdefghij", 0.5));
        // multi-byte: char lengths, not byte lengths, set the budget
        let (sz, ss) = ("Müllerstraße Kölner", "Müllerstrasse Kölner");
        assert!(similar(sz, ss, 0.9) && !similar(sz, ss, 0.91));
        assert!(similar("abc", "abç", 2.0 / 3.0));
        assert!(!similar("abc", "abç", 0.7));
        assert!(similar("", "", 1.0));
        assert!(similar("", "a", 0.0));
        assert!(!similar("a", "", f64::EPSILON));
    }

    #[test]
    fn within_matches_full_dp_on_known_cases() {
        assert_eq!(levenshtein_within("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_within("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_within("same", "same", 0), Some(0));
        assert_eq!(levenshtein_within("", "abc", 3), Some(3));
        assert_eq!(levenshtein_within("", "abc", 2), None);
        assert_eq!(levenshtein_within("flaw", "lawn", 2), Some(2));
        assert_eq!(levenshtein_within("café", "cafe", 1), Some(1));
    }

    #[test]
    fn within_is_exhaustively_consistent_with_full_dp() {
        // Every pair over a small alphabet, every budget: the banded
        // early-exit DP must agree exactly with the full DP.
        let words = [
            "", "a", "b", "ab", "ba", "aab", "abb", "abab", "bbaa", "aaaa",
        ];
        for a in words {
            for b in words {
                let full = levenshtein(a, b);
                for k in 0..=5 {
                    let banded = levenshtein_within(a, b, k);
                    if full <= k {
                        assert_eq!(banded, Some(full), "{a:?} vs {b:?} within {k}");
                    } else {
                        assert_eq!(banded, None, "{a:?} vs {b:?} within {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_key_normalizes() {
        assert_eq!(prefix_key("Robert", 3), "rob");
        assert_eq!(prefix_key("LA", 3), "la");
        assert_eq!(prefix_key("", 3), "");
    }

    /// A `[a-<last>]{0,max_len}` string.
    fn word(g: &mut SplitMix64, last: u8, max_len: usize) -> String {
        let len = g.range(0..=max_len);
        (0..len).map(|_| char::from(g.range(b'a'..=last))).collect()
    }

    #[test]
    fn metric_axioms() {
        check(256, |g| {
            let (a, b, c) = (word(g, b'c', 12), word(g, b'c', 12), word(g, b'c', 12));
            // identity of indiscernibles
            assert_eq!(levenshtein(&a, &b) == 0, a == b);
            // symmetry
            assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
            // triangle inequality
            assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        });
    }

    /// 0–80 chars over `abc`, or (three times in ten) over `aüß`.
    fn mixed_word(g: &mut SplitMix64) -> String {
        let alphabet = match g.chance(0.3) {
            true => ['a', 'ü', 'ß'],
            false => ['a', 'b', 'c'],
        };
        let len = g.range(0..=80usize);
        (0..len).map(|_| alphabet[g.range(0..3usize)]).collect()
    }

    #[test]
    fn similar_agrees_with_direct_computation() {
        // Short words, and words whose lengths straddle the 64-byte
        // bit-parallel cutoff with each side ASCII or multi-byte on its
        // own; a third of the pairs are a few edits apart, so budgets
        // near the distance are drawn.
        check(512, |g| {
            let (a, b) = match g.range(0..3u8) {
                0 => (word(g, b'd', 10), word(g, b'd', 10)),
                1 => (mixed_word(g), mixed_word(g)),
                _ => {
                    let a = mixed_word(g);
                    let mut b: Vec<char> = a.chars().collect();
                    for _ in 0..g.range(0..=4usize) {
                        let at = g.range(0..=b.len());
                        match g.range(0..3u8) {
                            0 => b.insert(at, 'b'),
                            1 if at < b.len() => drop(b.remove(at)),
                            _ if at < b.len() => b[at] = 'ß',
                            _ => {}
                        }
                    }
                    (a, b.into_iter().collect())
                }
            };
            let sim = levenshtein_similarity(&a, &b);
            let t = match g.range(0..4u8) {
                0 => 0.0,
                1 => 1.0,
                2 => sim,
                _ => g.range(0.0..=1.0),
            };
            assert_eq!(similar(&a, &b, t), sim >= t, "{a:?} vs {b:?} at {t}");
            assert_eq!(similar(&b, &a, t), sim >= t, "{b:?} vs {a:?} at {t}");
        });
    }

    #[test]
    fn myers_matches_levenshtein_across_the_64_byte_cutoff() {
        // Every one-edit variant of patterns of 63, 64 and 65 bytes over
        // `abc`, plus each variant with one more edit at the front (a
        // distance the bit-parallel carry into row 1 must see): the
        // kernel must give the full DP's distance, and `similar` must
        // flip exactly at that distance on either side of the cutoff.
        let mut g = SplitMix64::new(64);
        for len in [63usize, 64, 65] {
            let random: Vec<u8> = (0..len).map(|_| g.range(b'a'..=b'c')).collect();
            for pattern in [vec![b'a'; len], b"ab".repeat(len)[..len].to_vec(), random] {
                let mut texts = Vec::new();
                for at in 0..=len {
                    for c in [b'a', b'b', b'c'] {
                        let mut t = pattern.clone();
                        t.insert(at, c);
                        texts.push(t);
                        if at < len {
                            let mut t = pattern.clone();
                            t[at] = c;
                            texts.push(t);
                        }
                    }
                    if at < len {
                        let mut t = pattern.clone();
                        t.remove(at);
                        texts.push(t);
                    }
                }
                for t in texts.clone() {
                    texts.push([b"c".as_slice(), &t].concat());
                    texts.push(t[1..].to_vec());
                }
                let p = std::str::from_utf8(&pattern).unwrap();
                for t in &texts {
                    let t = std::str::from_utf8(t).unwrap();
                    let d = levenshtein(p, t);
                    if len <= 64 {
                        assert_eq!(myers(p.as_bytes(), t.as_bytes()), d, "{p} vs {t}");
                    }
                    let max_len = p.len().max(t.len()) as f64;
                    let at_d = 1.0 - d as f64 / max_len;
                    let below_d = 1.0 - (d as f64 - 1.0) / max_len;
                    assert!(similar(p, t, at_d) && similar(t, p, at_d), "{p} vs {t}");
                    assert!(
                        !similar(p, t, below_d) && !similar(t, p, below_d),
                        "{p} vs {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn within_agrees_with_full_dp() {
        check(256, |g| {
            let (a, b) = (word(g, b'd', 12), word(g, b'd', 12));
            let k = g.range(0usize..=12);
            let full = levenshtein(&a, &b);
            let banded = levenshtein_within(&a, &b, k);
            assert_eq!(banded, (full <= k).then_some(full));
        });
    }
}
