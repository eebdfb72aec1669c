//! Deterministic, splittable pseudo-random number generation.
//!
//! Simulation experiments must be exactly reproducible from a single seed,
//! and the parallel run driver must be able to hand each of the 1000
//! Monte-Carlo runs (Sec. V of the paper) an *independent* stream without
//! coordinating with the others. We implement:
//!
//! * [`SplitMix64`] — a tiny seeding generator, used to expand one `u64`
//!   seed into the 256-bit state of the main generator and to derive child
//!   seeds.
//! * [`SimRng`] — xoshiro256++, a fast, high-quality non-cryptographic
//!   generator, plus the uniform, bounded-integer and Bernoulli draws
//!   the samplers build on.
//!
//! Both algorithms are public-domain (Blackman & Vigna). We implement them
//! rather than rely on an external generator whose algorithm is not
//! guaranteed stable across releases, which would silently change every
//! experiment in this repository.

/// SplitMix64 generator used for seed expansion and stream splitting.
///
/// Passes through every 64-bit state exactly once; consecutive outputs are
/// decorrelated enough to seed independent xoshiro instances (this is the
/// seeding procedure recommended by the xoshiro authors).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Variance-reduction draw transforms riding on a [`SimRng`] stream.
///
/// All default to *off*, in which case every draw method is bit-identical
/// to the plain generator — the fixed-run digests of the whole repository
/// depend on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct VrState {
    /// Antithetic mirror: report `1 − u` for every uniform f64 draw.
    reflect: bool,
    /// Ask samplers to prefer single-uniform inverse-CDF transforms
    /// (so reflection negates normal deviates exactly).
    inv_cdf: bool,
    /// Stream belongs to an antithetic pair: generators should draw
    /// event attributes from per-event split substreams so conditional
    /// draw counts cannot desynchronize the pair (set on *both* members).
    paired: bool,
    /// One-shot stratum override for the *next* uniform f64 draw.
    stratum: u32,
    /// Stratum count; `0` means no stratum is armed.
    strata: u32,
}

/// Deterministic xoshiro256++ generator with O(1) stream splitting.
///
/// ```
/// use pckpt_simrng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_raw(), b.next_raw());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    vr: VrState,
}

impl SimRng {
    /// Creates a generator whose 256-bit state is expanded from `seed` via
    /// SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the one invalid xoshiro state; SplitMix64
        // cannot produce four consecutive zeros from any seed, but guard
        // anyway so the invariant is locally obvious.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self {
            s,
            vr: VrState::default(),
        }
    }

    /// Derives an independent child generator for logical stream `index`.
    ///
    /// Used by the parallel run driver: run *i* gets `master.split(i)` so
    /// that adding/removing runs never perturbs the streams of the others.
    ///
    /// The antithetic flags ([`Self::set_reflected`],
    /// [`Self::set_inverse_normals`]) propagate to the child — a mirrored
    /// run's *entire* stream family (trace, background traffic) is
    /// mirrored. An armed one-shot stratum does not propagate; it belongs
    /// to exactly one draw of this stream.
    pub fn split(&self, index: u64) -> Self {
        // Mix the child index into a seed derived from our own state. Two
        // SplitMix64 rounds decorrelate even adjacent indices.
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(index.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        );
        sm.next_u64();
        let mut child = Self::seed_from(sm.next_u64());
        child.vr.reflect = self.vr.reflect;
        child.vr.inv_cdf = self.vr.inv_cdf;
        child.vr.paired = self.vr.paired;
        child
    }

    /// Turns antithetic reflection on or off: while on, every uniform f64
    /// draw reports `1 − u` instead of `u` (mapping `[0, 1)` onto
    /// `(0, 1]`), and every bounded integer draw ([`Self::below`]) reports
    /// the mirror `n − 1 − x`. Raw 64-bit draws ([`Self::next_raw`]) are
    /// unaffected, so a mirrored stream stays draw-for-draw synchronized
    /// with its partner.
    ///
    /// Mirroring `below` matters for variance: the thinning projection's
    /// job-membership test is `below(system_nodes) < job_nodes`, and with
    /// `job_nodes ≤ system_nodes / 2` the mirrored accept sets are
    /// disjoint — pair failure counts become anti- rather than
    /// positively correlated, which is what makes the paired estimator
    /// tighter than the crude one.
    pub fn set_reflected(&mut self, on: bool) {
        self.vr.reflect = on;
    }

    /// True if antithetic reflection is active.
    pub fn reflected(&self) -> bool {
        self.vr.reflect
    }

    /// Asks samplers to use single-uniform inverse-CDF transforms where a
    /// multi-uniform method (Box–Muller) would defeat reflection. Samplers
    /// query this via [`Self::inverse_normals`]; the flag changes nothing
    /// inside the generator itself.
    pub fn set_inverse_normals(&mut self, on: bool) {
        self.vr.inv_cdf = on;
    }

    /// True if samplers should prefer inverse-CDF transforms.
    pub fn inverse_normals(&self) -> bool {
        self.vr.inv_cdf
    }

    /// Marks this stream as a member of an antithetic pair (set on
    /// *both* members, reflected or not).
    ///
    /// Pair members share bit-identical generator states — only the
    /// output transforms differ — so they stay draw-for-draw aligned
    /// exactly as long as they consume the same *number* of draws. Any
    /// conditional draw block (an accepted failure sampling its lead
    /// time, a rejection loop whose length depends on a reflected value)
    /// breaks that alignment for the rest of the stream. While this flag
    /// is on, trace generators route such blocks through per-event
    /// [`Self::split`] substreams: the main stream's consumption becomes
    /// unconditional, mirroring survives the whole horizon, and the pair
    /// anti-correlation the estimator depends on is preserved. The flag
    /// propagates through `split` and changes nothing inside the
    /// generator itself.
    pub fn set_paired(&mut self, on: bool) {
        self.vr.paired = on;
    }

    /// True if this stream is a member of an antithetic pair.
    pub fn paired(&self) -> bool {
        self.vr.paired
    }

    /// True if a one-shot stratum is armed for the next uniform draw.
    ///
    /// Trace generators use this (together with [`Self::paired`]) to
    /// decide whether to take the variance-reduction generation path,
    /// which routes the run's dominant noise through its first uniform —
    /// the draw the armed stratum confines.
    pub fn stratum_armed(&self) -> bool {
        self.vr.strata > 0
    }

    /// Arms a one-shot stratum override: the next uniform f64 draw `u` is
    /// remapped to `(index + u) / count`, confining it to equal-probability
    /// stratum `index` of `count`, then the override clears itself.
    ///
    /// Reflection (if active) applies *before* the remap, so both members
    /// of an antithetic pair land in the same stratum.
    pub fn set_next_stratum(&mut self, index: u32, count: u32) {
        debug_assert!(count > 0 && index < count, "stratum {index} of {count}");
        self.vr.stratum = index;
        self.vr.strata = count;
    }

    /// Returns the next raw 64-bit output (xoshiro256++ step).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision (`(0, 1]` while
    /// antithetic reflection is on, and remapped into the armed stratum if
    /// one is pending — see [`Self::set_next_stratum`]).
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        // Take the top 53 bits; (u >> 11) * 2^-53 is the canonical mapping.
        let mut u = (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if self.vr.reflect {
            u = 1.0 - u;
        }
        if self.vr.strata > 0 {
            u = (self.vr.stratum as f64 + u) / self.vr.strata as f64;
            self.vr.strata = 0;
            self.vr.stratum = 0;
        }
        u
    }

    /// Uniform draw in the open interval `(0, 1)`, safe for `ln()`.
    ///
    /// In the default state `uniform01` never returns 1.0 so the upper
    /// check is free; under reflection it can, hence both bounds.
    #[inline]
    pub fn uniform01_open(&mut self) -> f64 {
        loop {
            let u = self.uniform01();
            if u > 0.0 && u < 1.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, n)` (mirrored to `n − 1 − x` while
    /// antithetic reflection is on; see [`Self::set_reflected`]).
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased). The
    /// rejection loop depends only on the raw 64-bit values, so a
    /// mirrored stream consumes exactly as many raw draws as its
    /// partner — mirroring cannot desynchronize the pair.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_raw();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_raw();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        let v = (m >> 64) as u64;
        if self.vr.reflect {
            n - 1 - v
        } else {
            v
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform01() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let equal = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let master = SimRng::seed_from(99);
        let mut c0 = master.split(0);
        let mut c1 = master.split(1);
        let mut c0_again = master.split(0);
        assert_eq!(c0.next_raw(), c0_again.next_raw());
        let equal = (0..64).filter(|_| c0.next_raw() == c1.next_raw()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn uniform01_in_range_and_well_spread() {
        let mut rng = SimRng::seed_from(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn below_is_unbiased_over_small_range() {
        let mut rng = SimRng::seed_from(11);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 7.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn below_handles_boundaries() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
        for _ in 0..100 {
            assert!(rng.below(u64::MAX) < u64::MAX);
        }
    }

    #[test]
    fn chance_edges() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = SimRng::seed_from(13);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac was {frac}");
    }

    #[test]
    fn reflection_mirrors_uniform_draws_exactly() {
        let mut plain = SimRng::seed_from(29);
        let mut mirror = SimRng::seed_from(29);
        mirror.set_reflected(true);
        for _ in 0..1000 {
            let u = plain.uniform01();
            let v = mirror.uniform01();
            assert_eq!(v.to_bits(), (1.0 - u).to_bits());
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn reflection_mirrors_bounded_integer_draws() {
        let mut plain = SimRng::seed_from(31);
        let mut mirror = SimRng::seed_from(31);
        mirror.set_reflected(true);
        for _ in 0..1000 {
            assert_eq!(96 - plain.below(97), mirror.below(97));
        }
        // Raw 64-bit draws are the one escape hatch reflection never
        // touches, and both streams stay position-synchronized.
        assert_eq!(plain.next_raw(), mirror.next_raw());
        assert_eq!(plain.below(1), mirror.below(1));
    }

    #[test]
    fn stratum_is_one_shot_and_confines_the_draw() {
        let mut rng = SimRng::seed_from(37);
        for stratum in 0..8u32 {
            rng.set_next_stratum(stratum, 8);
            let u = rng.uniform01();
            let lo = stratum as f64 / 8.0;
            let hi = (stratum + 1) as f64 / 8.0;
            assert!(u >= lo && u < hi, "stratum {stratum}: {u}");
            // The very next draw is unconstrained again — same stream as a
            // plain generator that consumed the same number of raws.
            let _ = rng.uniform01();
        }
        let mut plain = SimRng::seed_from(37);
        for _ in 0..16 {
            plain.uniform01();
        }
        assert_eq!(rng, plain);
    }

    #[test]
    fn stratified_draws_stay_uniform_overall() {
        // Round-robin strata reassemble the uniform distribution.
        let mut rng = SimRng::seed_from(41);
        let n = 80_000usize;
        let mut sum = 0.0;
        for i in 0..n {
            rng.set_next_stratum((i % 8) as u32, 8);
            sum += rng.uniform01();
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean was {mean}");
    }

    #[test]
    fn split_propagates_antithetic_flags_but_not_stratum() {
        let mut parent = SimRng::seed_from(43);
        parent.set_reflected(true);
        parent.set_inverse_normals(true);
        parent.set_next_stratum(2, 4);
        let child = parent.split(7);
        assert!(child.reflected());
        assert!(child.inverse_normals());
        // The armed stratum stays with the parent's next draw.
        let mut plain_child = SimRng::seed_from(43).split(7);
        plain_child.set_reflected(true);
        plain_child.set_inverse_normals(true);
        assert_eq!(child, plain_child);
    }

    #[test]
    fn default_state_digest_is_unchanged() {
        // The exact stream every fixed-run digest in the repo depends on.
        let mut rng = SimRng::seed_from(61);
        let mut h = 0u64;
        for _ in 0..64 {
            h = h.rotate_left(7) ^ rng.uniform01().to_bits();
        }
        assert_eq!(h, 0x3fe7_6835_f768_d326, "plain uniform01 stream drifted");
    }
}
