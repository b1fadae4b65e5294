use std::fmt;

use crate::Ubig;

/// A Montgomery multiplication context for a fixed odd modulus.
///
/// Products use the CIOS (coarsely integrated operand scanning) algorithm
/// on caller-owned limb buffers, with the final conditional subtraction
/// done limb-wise, so an exponentiation allocates only its few working
/// buffers up front and none per multiply.
///
/// [`Mont::pow`] scans the exponent in fixed windows of up to five bits:
/// one table of `base^d` for every window digit `d`, then per window that
/// many squarings and at most one multiply. A base that is raised to many
/// exponents (a group generator) can instead use a precomputed
/// fixed-base comb table (crate-internal, used by
/// [`DhGroup::pow`](crate::DhGroup::pow)), which needs no squarings at
/// all. Both paths return exactly `base^exp mod modulus`.
///
/// # Example
///
/// ```
/// use deepsecure_bigint::{Mont, Ubig};
///
/// let m = Mont::new(Ubig::from(97u64)).unwrap();
/// let r = m.pow(&Ubig::from(5u64), &Ubig::from(96u64));
/// assert_eq!(r, Ubig::from(1u64), "Fermat little theorem");
/// ```
#[derive(Clone, Debug)]
pub struct Mont {
    modulus: Ubig,
    limbs: usize,
    /// -modulus^{-1} mod 2^64.
    n0_inv: u64,
    /// R^2 mod modulus where R = 2^(64*limbs).
    r2: Vec<u64>,
    /// R mod modulus: the Montgomery form of one.
    one: Vec<u64>,
}

/// Largest fixed window [`Mont::pow`] uses.
const MAX_WINDOW: usize = 5;

/// The `w`-bit digit of `limbs` starting at bit `pos` (zero past the top).
fn digit(limbs: &[u64], pos: usize, w: usize) -> usize {
    let (i, s) = (pos / 64, pos % 64);
    let lo = limbs.get(i).map_or(0, |l| l >> s);
    let hi = if s + w > 64 {
        limbs.get(i + 1).map_or(0, |l| l << (64 - s))
    } else {
        0
    };
    ((lo | hi) & ((1u64 << w) - 1)) as usize
}

impl Mont {
    /// Creates a context for `modulus`.
    ///
    /// Returns `None` when the modulus is even or < 3 (Montgomery reduction
    /// requires an odd modulus).
    pub fn new(modulus: Ubig) -> Option<Mont> {
        if !modulus.is_odd() || modulus <= Ubig::one() {
            return None;
        }
        let limbs = modulus.limbs().len();
        let n0 = modulus.limbs()[0];
        // Newton iteration for the inverse of n0 modulo 2^64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        let r = Ubig::one().shl(64 * limbs);
        let padded = |x: Ubig| {
            let mut v = x.limbs().to_vec();
            v.resize(limbs, 0);
            v
        };
        let one = padded(r.clone() % modulus.clone());
        let r2 = padded((&r * &r) % modulus.clone());
        Some(Mont {
            modulus,
            limbs,
            n0_inv,
            r2,
            one,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ubig {
        &self.modulus
    }

    /// A zeroed buffer of one residue's width.
    fn zeros(&self) -> Vec<u64> {
        vec![0; self.limbs]
    }

    /// The scratch buffer [`Mont::mul_into`] works in (`limbs + 1`).
    fn scratch(&self) -> Vec<u64> {
        vec![0; self.limbs + 1]
    }

    /// Montgomery product `out = a·b·R⁻¹ mod modulus` for `a, b <
    /// modulus`, using `t` (from [`Mont::scratch`]) as working space.
    fn mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let n = self.limbs;
        let (m, a, b, out, t) = (
            &self.modulus.limbs()[..n],
            &a[..n],
            &b[..n],
            &mut out[..n],
            &mut t[..=n],
        );
        t.fill(0);
        for &ai in a {
            // t = (t + ai·b + u·m) / 2^64, with u chosen so the low limb
            // of the sum is zero; both products run in one pass.
            let v = u128::from(ai) * u128::from(b[0]) + u128::from(t[0]);
            let u = (v as u64).wrapping_mul(self.n0_inv);
            let r = u128::from(u) * u128::from(m[0]) + u128::from(v as u64);
            let (mut c1, mut c2) = ((v >> 64) as u64, (r >> 64) as u64);
            for j in 1..n {
                let v = u128::from(ai) * u128::from(b[j]) + u128::from(t[j]) + u128::from(c1);
                let r = u128::from(u) * u128::from(m[j]) + u128::from(v as u64) + u128::from(c2);
                t[j - 1] = r as u64;
                (c1, c2) = ((v >> 64) as u64, (r >> 64) as u64);
            }
            let v = u128::from(t[n]) + u128::from(c1) + u128::from(c2);
            t[n - 1] = v as u64;
            t[n] = (v >> 64) as u64;
        }
        // t < 2·modulus: subtract once, keep the difference unless it
        // borrowed out of the (n+1)-limb value.
        let mut borrow = false;
        for ((o, &tj), &mj) in out.iter_mut().zip(&t[..n]).zip(m) {
            let (d, b1) = tj.overflowing_sub(mj);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *o = d;
            borrow = b1 | b2;
        }
        if borrow && t[n] == 0 {
            out.copy_from_slice(&t[..n]);
        }
    }

    /// `x mod modulus` in Montgomery form.
    fn to_mont(&self, x: &Ubig, t: &mut [u64]) -> Vec<u64> {
        let mut limbs = if x < &self.modulus {
            x.limbs().to_vec()
        } else {
            (x.clone() % self.modulus.clone()).limbs().to_vec()
        };
        limbs.resize(self.limbs, 0);
        let mut out = self.zeros();
        self.mul_into(&limbs, &self.r2, &mut out, t);
        out
    }

    // Named for symmetry with `to_mont`; it converts out of the Montgomery
    // domain rather than constructing a `Mont`.
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, x: &[u64], t: &mut [u64]) -> Ubig {
        let mut one = self.zeros();
        one[0] = 1;
        let mut out = self.zeros();
        self.mul_into(x, &one, &mut out, t);
        Ubig::from_limbs(out)
    }

    /// Computes `base^exp mod modulus` with a fixed-window scan of the
    /// exponent over the Montgomery domain.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let n = self.limbs;
        let bits = exp.bit_len();
        let mut t = self.scratch();
        if bits == 0 {
            return self.from_mont(&self.one, &mut t);
        }
        // Squarings are fixed at `bits`; the window minimises the window
        // multiplies plus the table entries to fill.
        let w = (1..=MAX_WINDOW)
            .min_by_key(|&w| bits.div_ceil(w) + (1 << w))
            .unwrap_or(1);
        // table[d] = base^d, d < 2^w, one residue per `n` limbs.
        let mut table = vec![0u64; n << w];
        table[..n].copy_from_slice(&self.one);
        table[n..2 * n].copy_from_slice(&self.to_mont(base, &mut t));
        for d in 2..1 << w {
            let (done, rest) = table.split_at_mut(d * n);
            self.mul_into(
                &done[(d - 1) * n..],
                &done[n..2 * n],
                &mut rest[..n],
                &mut t,
            );
        }
        let exp = exp.limbs();
        let windows = bits.div_ceil(w);
        let top = digit(exp, (windows - 1) * w, w);
        let mut acc = table[top * n..(top + 1) * n].to_vec();
        let mut tmp = self.zeros();
        for i in (0..windows - 1).rev() {
            for _ in 0..w {
                self.mul_into(&acc, &acc, &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let d = digit(exp, i * w, w);
            if d != 0 {
                self.mul_into(&acc, &table[d * n..(d + 1) * n], &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        self.from_mont(&acc, &mut t)
    }

    /// Computes `a * b mod modulus`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let mut t = self.scratch();
        let am = self.to_mont(a, &mut t);
        let bm = self.to_mont(b, &mut t);
        let mut out = self.zeros();
        self.mul_into(&am, &bm, &mut out, &mut t);
        self.from_mont(&out, &mut t)
    }

    /// Computes `a · b_i⁻¹ mod modulus` for every `b_i` with a single
    /// Fermat inversion and five multiplies per element (Montgomery's
    /// batch-inversion trick), for a **prime** modulus. Elements `≡ 0`
    /// yield 0, as a per-element Fermat inversion would.
    pub(crate) fn div_batch(&self, a: &Ubig, bs: &[Ubig]) -> Vec<Ubig> {
        let mut t = self.scratch();
        let ms: Vec<Vec<u64>> = bs.iter().map(|b| self.to_mont(b, &mut t)).collect();
        let is_unit = |m: &[u64]| m.iter().any(|&l| l != 0);
        // prefix[k] = product of the first k units.
        let mut prefix = vec![self.one.clone()];
        for m in ms.iter().filter(|m| is_unit(m)) {
            let mut next = self.zeros();
            self.mul_into(&prefix[prefix.len() - 1], m, &mut next, &mut t);
            prefix.push(next);
        }
        let mut k = prefix.len() - 1;
        let product = self.from_mont(&prefix[k], &mut t);
        let p_minus_2 = &self.modulus - &Ubig::from(2u64);
        let inv = self.to_mont(&self.pow(&product, &p_minus_2), &mut t);
        // acc = a / (product of the units not yet visited, walking back).
        let mut acc = self.zeros();
        self.mul_into(&self.to_mont(a, &mut t), &inv, &mut acc, &mut t);
        let mut tmp = self.zeros();
        let mut out = vec![Ubig::ZERO; bs.len()];
        for (slot, m) in out.iter_mut().zip(&ms).rev() {
            if !is_unit(m) {
                continue;
            }
            k -= 1;
            self.mul_into(&acc, &prefix[k], &mut tmp, &mut t);
            *slot = self.from_mont(&tmp, &mut t);
            self.mul_into(&acc, m, &mut tmp, &mut t);
            std::mem::swap(&mut acc, &mut tmp);
        }
        out
    }

    /// Builds a comb table for raising `base` to exponents of at most
    /// `max_exp_bits` bits with `w`-bit digits.
    pub(crate) fn fixed_base(&self, base: &Ubig, max_exp_bits: usize, w: usize) -> FixedBase {
        let n = self.limbs;
        let windows = max_exp_bits.div_ceil(w).max(1);
        let digits = (1 << w) - 1;
        let mut t = self.scratch();
        let mut table = vec![0u64; windows * digits * n];
        // step = base^(2^(w·i)) for the current window i.
        let mut step = self.to_mont(base, &mut t);
        for win in table.chunks_exact_mut(digits * n) {
            win[..n].copy_from_slice(&step);
            for d in 1..digits {
                let (done, rest) = win.split_at_mut(d * n);
                self.mul_into(&done[(d - 1) * n..], &step, &mut rest[..n], &mut t);
            }
            let mut next = self.zeros();
            self.mul_into(&win[(digits - 1) * n..], &step, &mut next, &mut t);
            step = next;
        }
        FixedBase { w, windows, table }
    }

    /// `base^exp` from `table` (built by [`Mont::fixed_base`] for `base`):
    /// one multiply per non-zero digit, no squarings. Returns `None` when
    /// `exp` is wider than the table covers.
    pub(crate) fn pow_fixed(&self, table: &FixedBase, exp: &Ubig) -> Option<Ubig> {
        let (n, w) = (self.limbs, table.w);
        if exp.bit_len() > table.windows * w {
            return None;
        }
        let digits = (1 << w) - 1;
        let mut t = self.scratch();
        let mut acc = self.one.clone();
        let mut tmp = self.zeros();
        for i in 0..table.windows {
            let d = digit(exp.limbs(), i * w, w);
            if d != 0 {
                let at = (i * digits + d - 1) * n;
                self.mul_into(&acc, &table.table[at..at + n], &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        Some(self.from_mont(&acc, &mut t))
    }
}

/// A fixed-base comb table: entry `(i, d)` holds `base^(d·2^(w·i))` in
/// Montgomery form for every window `i` and non-zero digit `d < 2^w`.
pub(crate) struct FixedBase {
    w: usize,
    windows: usize,
    table: Vec<u64>,
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBase")
            .field("w", &self.w)
            .field("windows", &self.windows)
            .field("bytes", &(self.table.len() * 8))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_even_modulus() {
        assert!(Mont::new(Ubig::from(100u64)).is_none());
        assert!(Mont::new(Ubig::from(1u64)).is_none());
    }

    #[test]
    fn matches_naive_modpow_small() {
        let m = Mont::new(Ubig::from(1_000_003u64)).unwrap();
        for base in [2u64, 3, 65537, 999_999] {
            for exp in [0u64, 1, 2, 77, 1_000_002] {
                let got = m.pow(&Ubig::from(base), &Ubig::from(exp));
                let want = Ubig::from(base).modpow(&Ubig::from(exp), &Ubig::from(1_000_003u64));
                assert_eq!(got, want, "base={base} exp={exp}");
            }
        }
    }

    #[test]
    fn multi_limb_modulus() {
        let p = Ubig::from_hex("ffffffffffffffffffffffffffffff61").unwrap(); // 128-bit prime-ish odd
        let m = Mont::new(p.clone()).unwrap();
        let base = Ubig::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let exp = Ubig::from(12345u64);
        assert_eq!(m.pow(&base, &exp), base.modpow(&exp, &p));
    }

    #[test]
    fn digit_straddles_limbs() {
        let limbs = [0xf000_0000_0000_0000u64, 0b1011];
        assert_eq!(digit(&limbs, 60, 5), 0b1_1111);
        assert_eq!(digit(&limbs, 62, 5), 0b0_1111);
        assert_eq!(digit(&limbs, 64, 5), 0b0_1011);
        assert_eq!(digit(&limbs, 200, 5), 0);
    }

    /// A random odd modulus of exactly `bits` bits.
    fn odd_modulus(rng: &mut StdRng, bits: usize) -> Ubig {
        let top = Ubig::one().shl(bits - 1);
        let x = Ubig::random_range(rng, &top, &top.shl(1));
        if x.is_odd() {
            x
        } else {
            &x + &Ubig::one()
        }
    }

    #[test]
    fn pow_edge_cases_match_oracle() {
        let mut rng = StdRng::seed_from_u64(0xed6e);
        for bits in [768usize, 2048] {
            let p = odd_modulus(&mut rng, bits);
            let ctx = Mont::new(p.clone()).unwrap();
            let one = Ubig::one();
            let p_minus_1 = &p - &one;
            let random = Ubig::random_range(&mut rng, &one, &p);
            let bases = [
                Ubig::ZERO,
                one.clone(),
                p_minus_1.clone(),
                p.clone(),
                &p + &Ubig::from(5u64),
                &p.shl(70) + &random,
                random.clone(),
            ];
            let exps = [
                Ubig::ZERO,
                one.clone(),
                Ubig::from(2u64),
                Ubig::from(0xffffu64),
            ];
            for base in &bases {
                for exp in &exps {
                    assert_eq!(
                        ctx.pow(base, exp),
                        base.modpow(exp, &p),
                        "{bits}: {base}^{exp}"
                    );
                }
            }
        }
    }

    #[test]
    fn pow_matches_oracle_on_full_width_inputs() {
        // Full-width exponents on 768 bits; 256-bit exponents on 2048 bits
        // keep the schoolbook oracle affordable.
        let mut rng = StdRng::seed_from_u64(0x0768);
        for (bits, exp_bits, cases) in [(768usize, 768usize, 3), (2048, 256, 2)] {
            let p = odd_modulus(&mut rng, bits);
            let ctx = Mont::new(p.clone()).unwrap();
            for _ in 0..cases {
                let base = Ubig::random_range(&mut rng, &Ubig::ZERO, &p);
                let exp = Ubig::random_range(&mut rng, &Ubig::ZERO, &Ubig::one().shl(exp_bits));
                assert_eq!(ctx.pow(&base, &exp), base.modpow(&exp, &p), "{bits}-bit");
            }
        }
    }

    #[test]
    fn fixed_base_matches_variable_base() {
        let mut rng = StdRng::seed_from_u64(0xf1ed);
        let p = odd_modulus(&mut rng, 768);
        let ctx = Mont::new(p.clone()).unwrap();
        let base = Ubig::random_range(&mut rng, &Ubig::ZERO, &p);
        for w in [1usize, 4, 6] {
            let table = ctx.fixed_base(&base, 768, w);
            let top = Ubig::one().shl(768);
            for exp in [
                Ubig::ZERO,
                Ubig::one(),
                Ubig::random_range(&mut rng, &Ubig::ZERO, &top),
                &top - &Ubig::one(),
            ] {
                assert_eq!(ctx.pow_fixed(&table, &exp), Some(ctx.pow(&base, &exp)));
            }
            assert_eq!(ctx.pow_fixed(&table, &top), None, "wider than the table");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn mont_mul_matches_naive(a in any::<u128>(), b in any::<u128>(), m in any::<u128>()) {
            let modulus = Ubig::from(m | 1).clone();
            prop_assume!(modulus > Ubig::one());
            let ctx = Mont::new(modulus.clone()).unwrap();
            let got = ctx.mul(&Ubig::from(a), &Ubig::from(b));
            let want = (Ubig::from(a) * Ubig::from(b)) % modulus;
            prop_assert_eq!(got, want);
        }

        #[test]
        fn mont_pow_matches_naive(a in any::<u64>(), e in any::<u16>(), m in any::<u64>()) {
            let modulus = Ubig::from(u128::from(m) | 1);
            prop_assume!(modulus > Ubig::one());
            let ctx = Mont::new(modulus.clone()).unwrap();
            let got = ctx.pow(&Ubig::from(a), &Ubig::from(u64::from(e)));
            let want = Ubig::from(a).modpow(&Ubig::from(u64::from(e)), &modulus);
            prop_assert_eq!(got, want);
        }
    }
}
