//! The workspace's one seeded random number generator, and the case
//! runner the property tests are written against.
//!
//! [`SplitMix64`] is Steele, Lea and Flood's splitmix64: a 64-bit state
//! advanced by the golden-ratio increment and passed through the [`mix`]
//! finalizer. It is small, fast, and — unlike a library generator whose
//! stream may change between releases — pinned here, so a seed names the
//! same values on every platform and toolchain. The data generators, the
//! MinHash permutations, the fault injector and the tests all draw from
//! it.
//!
//! [`check`] runs a property over a fixed number of cases, each from its
//! own fixed seed. A failure reports the case index and seed; there is no
//! shrinking.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe, Location};

/// The splitmix64 state increment (2⁶⁴ / φ, rounded to odd).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a full-avalanche bijection on `u64`. Every
/// output bit depends on every input bit, so it also serves to derive
/// well-spread hashes from structured keys (MinHash permutations, fault
/// coordinates).
#[inline]
pub const fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub const fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// A uniform draw from an integer or `f64` range (`a..b` or `a..=b`).
    /// Panics on an empty integer range.
    pub fn range<T, R: Draw<T>>(&mut self, range: R) -> T {
        range.draw(self)
    }

    /// `true` with probability `p` (never for `p ≤ 0`, always for `p ≥ 1`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of the next draw.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A range of `T`s [`SplitMix64::range`] can draw from.
pub trait Draw<T> {
    /// Draw one value uniformly from the range.
    fn draw(self, g: &mut SplitMix64) -> T;
}

/// Uniform in `lo..=hi` by Lemire's multiply-shift: the span is at most
/// 2⁶⁴, so the product fits in `u128` and the bias is below span / 2⁶⁴.
fn draw_int(g: &mut SplitMix64, lo: i128, hi: i128) -> i128 {
    assert!(lo <= hi, "cannot draw from an empty range");
    let span = (hi - lo + 1) as u128;
    lo + ((u128::from(g.next_u64()) * span) >> 64) as i128
}

macro_rules! int_draws {
    ($($t:ty),*) => {$(
        impl Draw<$t> for Range<$t> {
            fn draw(self, g: &mut SplitMix64) -> $t {
                draw_int(g, self.start as i128, self.end as i128 - 1) as $t
            }
        }
        impl Draw<$t> for RangeInclusive<$t> {
            fn draw(self, g: &mut SplitMix64) -> $t {
                draw_int(g, *self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
}

int_draws!(u8, u32, u64, usize, i32, i64);

impl Draw<f64> for Range<f64> {
    fn draw(self, g: &mut SplitMix64) -> f64 {
        self.start + (self.end - self.start) * g.unit()
    }
}

impl Draw<f64> for RangeInclusive<f64> {
    fn draw(self, g: &mut SplitMix64) -> f64 {
        self.start() + (self.end() - self.start()) * g.unit()
    }
}

/// Run the property `prop` on `cases` generators, case `i` seeded with
/// `mix(i ^ salt)`, where `salt` hashes the caller's file and line so
/// two properties never share their inputs. The first failing case
/// panics with its index and seed; `prop(&mut SplitMix64::new(seed))`
/// replays it.
#[track_caller]
pub fn check(cases: u32, mut prop: impl FnMut(&mut SplitMix64)) {
    let salt = site_salt(Location::caller());
    for case in 0..cases {
        let seed = mix(u64::from(case) ^ salt);
        let run = catch_unwind(AssertUnwindSafe(|| prop(&mut SplitMix64::new(seed))));
        if let Err(payload) = run {
            let msg = match payload.downcast_ref::<String>() {
                Some(s) => s.as_str(),
                None => payload.downcast_ref::<&str>().copied().unwrap_or("?"),
            };
            panic!("property failed on case {case} of {cases} (seed {seed:#018x}): {msg}");
        }
    }
}

/// FNV-1a over a call site's file (separators normalised to `/`) and
/// line: the same salt on every platform.
fn site_salt(at: &Location<'_>) -> u64 {
    let file = at.file().bytes().map(|b| if b == b'\\' { b'/' } else { b });
    file.chain(at.line().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Draws the property tests of this crate share.
#[cfg(test)]
pub(crate) mod arb {
    use super::SplitMix64;

    /// Any `f64` bit pattern; a quarter of the draws are the values a
    /// uniform bit pattern almost never hits: NaN, ±∞, ±0.0, a
    /// subnormal, and the extremes.
    pub fn f64(g: &mut SplitMix64) -> f64 {
        const EDGES: [f64; 8] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            f64::MAX,
            f64::MIN,
        ];
        match g.chance(0.25) {
            true => EDGES[g.range(0..EDGES.len())],
            false => f64::from_bits(g.next_u64()),
        }
    }

    /// Any `char`: half the draws ASCII (controls included), half from
    /// the whole scalar-value range (mostly multibyte).
    pub fn char(g: &mut SplitMix64) -> char {
        match g.chance(0.5) {
            true => char::from(g.range(0u8..0x80)),
            // skip the surrogate gap: 0xD800..0xE000 is not a char
            false => match g.range(0u32..0x10_F800) {
                c if c >= 0xD800 => char::from_u32(c + 0x800).unwrap(),
                c => char::from_u32(c).unwrap(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_the_reference_splitmix64() {
        // splitmix64 from seed 0, as published with the algorithm
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut g = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!((3..9).contains(&g.range(3..9i64)));
            assert!((-2..=2).contains(&g.range(-2..=2i32)));
            assert!(g.range(5usize..6) == 5);
            let f = g.range(-0.9..2.0);
            assert!((-0.9..2.0).contains(&f));
        }
        // the full 64-bit range is one draw, unshifted
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        assert_eq!(a.range(0..=u64::MAX), b.next_u64());
        assert!((i64::MIN..=i64::MAX).contains(&a.range(i64::MIN..=i64::MAX)));
    }

    #[test]
    fn small_ranges_hit_every_value_about_equally() {
        let mut g = SplitMix64::new(42);
        let mut counts = [0u32; 6];
        for _ in 0..60_000 {
            counts[g.range(0..6usize)] += 1;
        }
        assert!(
            counts.iter().all(|&c| (9_000..11_000).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    fn chance_respects_its_extremes_and_rate() {
        let mut g = SplitMix64::new(3);
        assert!((0..1000).all(|_| !g.chance(0.0) && g.chance(1.0)));
        let hits = (0..10_000).filter(|_| g.chance(0.2)).count();
        assert!((1_800..2_200).contains(&hits), "{hits}");
    }

    #[test]
    fn check_runs_every_case_from_fixed_seeds() {
        let draws = || {
            let mut seen = Vec::new();
            check(5, |g| seen.push(g.next_u64()));
            seen
        };
        let seen = draws();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen, draws());
        // another call site draws other cases
        let mut elsewhere = Vec::new();
        check(5, |g| elsewhere.push(g.next_u64()));
        assert!(elsewhere.iter().all(|x| !seen.contains(x)));
    }

    #[test]
    fn check_names_the_failing_case_and_seed() {
        let mut firsts = Vec::new();
        let failing = AssertUnwindSafe(|| {
            check(10, |g| {
                firsts.push(g.clone().next_u64());
                assert!(firsts.len() < 4, "the fourth case fails");
            })
        });
        let err = catch_unwind(failing).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("case 3 of 10"), "{msg}");
        assert!(msg.ends_with("the fourth case fails"), "{msg}");
        // the reported seed replays the failing case
        let hex = msg.split("seed 0x").nth(1).unwrap().split(')').next();
        let seed = u64::from_str_radix(hex.unwrap(), 16).unwrap();
        assert_eq!(SplitMix64::new(seed).next_u64(), firsts[3]);
    }

    #[test]
    fn arbitrary_draws_reach_their_edge_values() {
        let mut g = SplitMix64::new(11);
        let floats: Vec<f64> = (0..2_000).map(|_| arb::f64(&mut g)).collect();
        assert!(floats.iter().any(|f| f.is_nan()));
        assert!(floats.iter().any(|f| f.is_infinite()));
        assert!(floats.iter().any(|f| *f == 0.0 && f.is_sign_negative()));
        assert!(floats.iter().any(|f| f.is_subnormal()));
        let chars: Vec<char> = (0..2_000).map(|_| arb::char(&mut g)).collect();
        assert!(chars.iter().any(|c| c.is_control()));
        assert!(chars.iter().any(|c| c.len_utf8() > 1));
    }
}
