use std::sync::OnceLock;

use rand::Rng;

use crate::mont::FixedBase;
use crate::{Mont, Ubig};

/// Digit width of the generator's fixed-base comb table: `2^6 − 1`
/// entries per 6-bit window, 774 KB for modp-768.
const FIXED_BASE_WINDOW: usize = 6;

/// Per-process generator tables, one per named group, built on first use
/// and shared by every clone of every `DhGroup` of that name.
static MODP_768_G: OnceLock<FixedBase> = OnceLock::new();
static MODP_1536_G: OnceLock<FixedBase> = OnceLock::new();
static MODP_2048_G: OnceLock<FixedBase> = OnceLock::new();

/// RFC 3526 group 5 (1536-bit MODP) prime.
const MODP_1536: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
    29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
    EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
    E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
    C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
    83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
    670C354E 4ABC9804 F1746C08 CA237327 FFFFFFFF FFFFFFFF";

/// RFC 3526 group 14 (2048-bit MODP) prime.
const MODP_2048: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
    29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
    EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
    E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
    C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
    83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
    670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
    E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
    DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
    15728E5A 8AACAA68 FFFFFFFF FFFFFFFF";

/// RFC 2409 Oakley group 1 (768-bit MODP) prime — used in tests where the
/// full-size groups would dominate runtime.
const MODP_768: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
    29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
    EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
    E485B576 625E7EC6 F44C42E9 A63A3620 FFFFFFFF FFFFFFFF";

/// A Diffie-Hellman group `(p, g)` with a Montgomery context for fast
/// exponentiation; the arithmetic substrate of the Bellare–Micali base OT
/// (`deepsecure_ot::base`).
///
/// Powers of the generator use a fixed-base comb table (built once per
/// process for each named group), every other base the windowed
/// [`Mont::pow`]; both give exactly `base^exp mod p`.
///
/// # Example
///
/// ```
/// use deepsecure_bigint::DhGroup;
/// use rand::SeedableRng;
///
/// let group = DhGroup::modp_768();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (a, ga) = group.random_keypair(&mut rng);
/// let (b, gb) = group.random_keypair(&mut rng);
/// // Diffie-Hellman agreement.
/// assert_eq!(group.pow(&ga, &b), group.pow(&gb, &a));
/// ```
#[derive(Clone, Debug)]
pub struct DhGroup {
    mont: Mont,
    generator: Ubig,
    name: &'static str,
    generator_table: &'static OnceLock<FixedBase>,
}

impl DhGroup {
    /// The RFC 3526 1536-bit MODP group (generator 2).
    pub fn modp_1536() -> DhGroup {
        DhGroup::from_hex_prime(MODP_1536, "modp-1536", &MODP_1536_G)
    }

    /// The RFC 3526 2048-bit MODP group (generator 2).
    pub fn modp_2048() -> DhGroup {
        DhGroup::from_hex_prime(MODP_2048, "modp-2048", &MODP_2048_G)
    }

    /// The RFC 2409 768-bit MODP group (generator 2); the base-OT group of
    /// the default `InferenceConfig`.
    pub fn modp_768() -> DhGroup {
        DhGroup::from_hex_prime(MODP_768, "modp-768", &MODP_768_G)
    }

    fn from_hex_prime(
        hex: &str,
        name: &'static str,
        generator_table: &'static OnceLock<FixedBase>,
    ) -> DhGroup {
        let p = Ubig::from_hex(hex).expect("baked-in prime parses");
        DhGroup {
            mont: Mont::new(p).expect("MODP primes are odd"),
            generator: Ubig::from(2u64),
            name,
            generator_table,
        }
    }

    /// The group prime `p`.
    pub fn prime(&self) -> &Ubig {
        self.mont.modulus()
    }

    /// The generator `g`.
    pub fn generator(&self) -> &Ubig {
        &self.generator
    }

    /// The group's human-readable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Modular exponentiation `base^exp mod p`. Powers of the generator
    /// with exponents below `2^bits(p)` take the fixed-base table.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        if *base == self.generator {
            let table = self.generator_table.get_or_init(|| {
                let bits = self.prime().bit_len();
                self.mont
                    .fixed_base(&self.generator, bits, FIXED_BASE_WINDOW)
            });
            if let Some(gx) = self.mont.pow_fixed(table, exp) {
                return gx;
            }
        }
        self.mont.pow(base, exp)
    }

    /// Modular multiplication `a*b mod p`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.mont.mul(a, b)
    }

    /// Modular division `a * b^{-1} mod p` (via Fermat inversion; `p` prime).
    pub fn div(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let p_minus_2 = &(self.prime() - &Ubig::one()) - &Ubig::one();
        let inv = self.mont.pow(b, &p_minus_2);
        self.mont.mul(a, &inv)
    }

    /// `a * b_i^{-1} mod p` for every `b_i`: equal to [`DhGroup::div`]
    /// element by element, but sharing one Fermat inversion across the
    /// batch (Montgomery's trick).
    pub fn div_batch(&self, a: &Ubig, bs: &[Ubig]) -> Vec<Ubig> {
        self.mont.div_batch(a, bs)
    }

    /// Samples a private exponent `x ∈ [2, p-2]` — the cheap half of
    /// [`DhGroup::random_keypair`], split out so callers can draw a batch
    /// of exponents in RNG order and fan the modexps out across threads.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        let low = Ubig::from(2u64);
        let high = self.prime() - &Ubig::one();
        Ubig::random_range(rng, &low, &high)
    }

    /// Samples a private exponent `x ∈ [2, p-2]` and returns `(x, g^x)`.
    pub fn random_keypair<R: Rng + ?Sized>(&self, rng: &mut R) -> (Ubig, Ubig) {
        let x = self.random_exponent(rng);
        let gx = self.pow(&self.generator, &x);
        (x, gx)
    }

    /// Serializes a group element as fixed-width big-endian bytes.
    pub fn element_to_bytes(&self, e: &Ubig) -> Vec<u8> {
        let width = self.prime().bit_len().div_ceil(8);
        let mut bytes = e.to_bytes_be();
        let mut out = vec![0u8; width - bytes.len()];
        out.append(&mut bytes);
        out
    }

    /// Parses a group element from [`DhGroup::element_to_bytes`] output.
    pub fn element_from_bytes(&self, bytes: &[u8]) -> Ubig {
        Ubig::from_bytes_be(bytes)
    }

    /// The serialized element width in bytes.
    pub fn element_len(&self) -> usize {
        self.prime().bit_len().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn primes_parse_and_are_odd() {
        for g in [
            DhGroup::modp_768(),
            DhGroup::modp_1536(),
            DhGroup::modp_2048(),
        ] {
            assert!(g.prime().is_odd(), "{}", g.name());
        }
        assert_eq!(DhGroup::modp_768().prime().bit_len(), 768);
        assert_eq!(DhGroup::modp_1536().prime().bit_len(), 1536);
        assert_eq!(DhGroup::modp_2048().prime().bit_len(), 2048);
    }

    #[test]
    fn dh_agreement() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(11);
        let (a, ga) = group.random_keypair(&mut rng);
        let (b, gb) = group.random_keypair(&mut rng);
        assert_eq!(group.pow(&ga, &b), group.pow(&gb, &a));
    }

    #[test]
    fn div_inverts_mul() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(12);
        let (_, x) = group.random_keypair(&mut rng);
        let (_, y) = group.random_keypair(&mut rng);
        let prod = group.mul(&x, &y);
        assert_eq!(group.div(&prod, &y), x);
    }

    #[test]
    fn element_bytes_roundtrip() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(13);
        let (_, gx) = group.random_keypair(&mut rng);
        let bytes = group.element_to_bytes(&gx);
        assert_eq!(bytes.len(), group.element_len());
        assert_eq!(group.element_from_bytes(&bytes), gx);
    }

    #[test]
    fn fixed_base_pow_matches_variable_base() {
        let named: [(fn() -> DhGroup, usize); 2] =
            [(DhGroup::modp_768, 8), (DhGroup::modp_2048, 2)];
        for (make, cases) in named {
            let group = make();
            let mut rng = StdRng::seed_from_u64(14);
            let g = group.generator();
            let p_minus_1 = group.prime() - &Ubig::one();
            // p−1·8 is wider than the table and takes the variable-base path.
            let mut exps = vec![Ubig::ZERO, Ubig::one(), p_minus_1.clone(), p_minus_1.shl(3)];
            exps.extend((0..cases).map(|_| group.random_exponent(&mut rng)));
            for x in &exps {
                assert_eq!(group.pow(g, x), group.mont.pow(g, x), "{}", group.name());
            }
            assert!(
                make().generator_table.get().is_some(),
                "a new instance of the group reuses the table already built"
            );
        }
    }

    #[test]
    fn div_batch_matches_per_element_div() {
        let group = DhGroup::modp_768();
        let mut rng = StdRng::seed_from_u64(15);
        let (_, a) = group.random_keypair(&mut rng);
        for len in [0usize, 1, 2, 5, 33] {
            let bs: Vec<Ubig> = (0..len).map(|_| group.random_keypair(&mut rng).1).collect();
            let want: Vec<Ubig> = bs.iter().map(|b| group.div(&a, b)).collect();
            assert_eq!(group.div_batch(&a, &bs), want, "batch of {len}");
        }
        // Zero and out-of-range elements behave exactly like `div`.
        let p = group.prime().clone();
        let odd = vec![
            Ubig::ZERO,
            group.random_keypair(&mut rng).1,
            p.clone(),
            &p + &Ubig::from(7u64),
            p.shl(1),
        ];
        let want: Vec<Ubig> = odd.iter().map(|b| group.div(&a, b)).collect();
        assert_eq!(group.div_batch(&a, &odd), want);
    }

    #[test]
    fn fermat_on_small_subgroup() {
        // g^(p-1) == 1 mod p sanity check (Fermat) on the 768-bit group.
        let group = DhGroup::modp_768();
        let exp = group.prime() - &Ubig::one();
        assert_eq!(group.pow(group.generator(), &exp), Ubig::one());
    }
}
