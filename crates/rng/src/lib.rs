//! The workspace's one seeded pseudo-random generator.
//!
//! Every random draw in the reproduction — the synthetic populations,
//! their corruption, the random-forest baseline, anonymisation offsets,
//! query batches and the property tests — goes through [`Rng`], so a seed
//! alone fixes a dataset and every number derived from it.
//!
//! The generator is xorshift64* (Vigna, "An experimental exploration of
//! Marsaglia's xorshift generators, scrambled", 2016), seeded through one
//! SplitMix64 step so that close seeds give unrelated streams. On top of
//! the raw 64-bit stream:
//!
//! * integer ranges take `next_u64() % span` (the modulo bias is below
//!   2^-40 for every span the workspace draws from),
//! * floats take the top 53 bits as a uniform value in `[0, 1)`,
//! * [`Rng::shuffle`] is Fisher–Yates from the back, one draw per slot.
//!
//! These rules are part of the contract: changing any of them changes
//! every generated dataset, so the known-answer tests pin them.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng {
    /// Never zero: zero is xorshift's only fixed point.
    state: u64,
}

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self { state: z | 1 }
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform value from `lo..hi` or `lo..=hi`.
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range");
        self.gen_f64() < p
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The top 53 bits of `bits` as a uniform value in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range [`Rng::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// Draw one value from `rng`.
    fn sample(self, rng: &mut Rng) -> T;
}

/// Draw an integer `lo + (next_u64 % span)` over a span of `span` values.
fn int_in(rng: &mut Rng, lo: i128, span: u128) -> i128 {
    assert!(span > 0, "gen_range on an empty range");
    lo + (u128::from(rng.next_u64()) % span) as i128
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on an empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                int_in(rng, self.start as i128, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range on an empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                int_in(rng, lo as i128, span) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range on an empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

/// Check a property on `cases` generators seeded `0..cases`.
///
/// The property panics (typically through `assert!`) to fail; the panic is
/// re-raised with the failing case's seed so that
/// `Rng::seed_from_u64(seed)` reproduces it.
///
/// # Panics
/// Panics when the property fails for some case.
pub fn check_cases(cases: u64, mut property: impl FnMut(&mut Rng)) {
    for seed in 0..cases {
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("property failed for case seed {seed}: {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first 16 outputs for seeds 0 and 42, recorded from the
    /// `rand`-compatible stand-in this crate replaced. Every generated
    /// dataset depends on this stream staying bit-identical.
    #[test]
    fn known_answer_stream() {
        let expect: [(u64, [u64; 16]); 2] = [
            (
                0,
                [
                    0x7bbc_b40d_5506_82d0,
                    0xde7f_e413_d00c_c9fd,
                    0xb3c6_3835_3c66_8c91,
                    0xe073_afc0_9491_95fc,
                    0x7f2f_9e2e_b349_37f6,
                    0x6ef8_6054_c473_1f4f,
                    0x4109_26d7_bb41_0255,
                    0x0cf7_5540_849d_9c3b,
                    0xcc4a_d468_f162_27ed,
                    0x88ed_b150_7743_1c06,
                    0xfb81_ca62_52a1_8bae,
                    0x9f12_70c9_24f4_7b7c,
                    0x791b_a7ad_8831_6662,
                    0x768a_3190_675f_dd8b,
                    0xfa11_f514_e87e_86f9,
                    0xce4e_c4ed_19fb_ffbf,
                ],
            ),
            (
                42,
                [
                    0x31b0_ece7_c4f6_97a2,
                    0x9008_a3b1_cb68_6f03,
                    0x7c71_73ab_d97b_e16f,
                    0x4567_2c8c_8d6b_8c4f,
                    0xcdbd_2cdf_34da_70ea,
                    0x94ff_5ca2_097b_7abb,
                    0x4d52_4be2_7278_80db,
                    0xcb9d_070c_3316_55a7,
                    0xf1ac_e859_c9ee_dc45,
                    0xab4a_ee27_2bef_a59f,
                    0x53fb_d49e_1eb2_be3c,
                    0x8013_7ea7_da71_7736,
                    0x6c04_0e44_0c3f_edfb,
                    0x6f45_aff7_591e_506b,
                    0x03bc_444b_3bee_8378,
                    0x695c_d726_300f_c111,
                ],
            ),
        ];
        for (seed, outputs) in expect {
            let mut rng = Rng::seed_from_u64(seed);
            for (i, want) in outputs.into_iter().enumerate() {
                assert_eq!(rng.next_u64(), want, "seed {seed}, output {i}");
            }
        }
    }

    /// One draw of every kind, in order, from seed 7, recorded from the
    /// same stand-in: pins the range, float, bool and shuffle rules.
    #[test]
    fn known_answer_draws() {
        let mut rng = Rng::seed_from_u64(7);
        assert_eq!(rng.gen_range(0..10usize), 8);
        assert_eq!(rng.gen_range(-5..=35i32), 24);
        assert_eq!(rng.gen_range(0..4u8), 1);
        assert_eq!(rng.gen_range(0.0..0.45).to_bits(), 0.249_018_460_333_849_42f64.to_bits());
        assert_eq!(rng.gen_range(-0.03..0.03).to_bits(), 0.009_119_435_213_685_738f64.to_bits());
        assert!(!rng.gen_bool(0.5));
        assert!(!rng.gen_bool(0.06));
        assert_eq!(rng.gen_f64().to_bits(), 0.621_857_650_648_289_6f64.to_bits());
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [4, 8, 0, 3, 1, 2, 9, 5, 7, 6]);
        assert_eq!(rng.next_u64(), 0xd274_7c4a_e5e3_d2b2);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert!((-5..=35).contains(&rng.gen_range(-5..=35)));
            assert!((0.0..0.45).contains(&rng.gen_range(0.0..0.45)));
            assert_eq!(rng.gen_range(3..4u64), 3);
            assert_eq!(rng.gen_range(u8::MAX..=u8::MAX), u8::MAX);
        }
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut rng = Rng::seed_from_u64(7);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng::seed_from_u64(0).gen_range(5..5);
    }

    #[test]
    fn check_cases_runs_every_seed() {
        let mut seen = Vec::new();
        check_cases(4, |rng| seen.push(rng.next_u64()));
        let fresh: Vec<u64> = (0..4).map(|s| Rng::seed_from_u64(s).next_u64()).collect();
        assert_eq!(seen, fresh);
    }

    #[test]
    #[should_panic(expected = "case seed 3: boom")]
    fn check_cases_names_the_failing_seed() {
        let mut n = 0;
        check_cases(10, |_| {
            n += 1;
            assert!(n < 4, "boom");
        });
    }
}
