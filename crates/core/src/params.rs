//! CEILIDH domain parameters.
//!
//! A parameter set consists of a prime `p ≡ 2 or 5 (mod 9)`, a large prime
//! `q` dividing `Φ6(p) = p² - p + 1` (the order of the torus `T6(Fp)`), the
//! cofactor `h = Φ6(p)/q`, and a generator of the order-`q` subgroup. The
//! paper evaluates a 170-bit `p` (so `q` has about 340 bits), which gives
//! the "security of `Fp6`" with transmissions of two `Fp` elements.

use bignum::{gen_prime_congruent, is_prime, BigUint};
use field::{Fp6Context, Fp6Element, FpContext};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::error::CeilidhError;
use crate::torus::{project, TorusElement};

/// Trial-division bound used when splitting `Φ6(p)` into cofactor × prime.
const SMALL_FACTOR_BOUND: u32 = 100_000;

/// CEILIDH domain parameters (field, subgroup and generator).
///
/// See the crate-level documentation for an end-to-end example; parameter
/// sets are obtained from [`CeilidhParams::toy`] (fast, small — for tests
/// and examples), [`CeilidhParams::date2008`] (the 170-bit size evaluated in
/// the paper) or [`CeilidhParams::generate`] (fresh random parameters).
#[derive(Clone)]
pub struct CeilidhParams {
    fp: FpContext,
    fp6: Fp6Context,
    p: BigUint,
    q: BigUint,
    cofactor: BigUint,
    generator: Fp6Element,
}

impl std::fmt::Debug for CeilidhParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CeilidhParams(p: {} bits, q: {} bits, cofactor: {})",
            self.p.bit_len(),
            self.q.bit_len(),
            self.cofactor
        )
    }
}

impl CeilidhParams {
    /// Builds a parameter set from an explicit prime `p` and subgroup order
    /// `q`, deriving the cofactor and searching deterministically for a
    /// generator.
    ///
    /// # Errors
    ///
    /// Returns [`CeilidhError::InvalidParameters`] if `p` or `q` is not
    /// prime or if `q` does not divide `Φ6(p) = p² - p + 1`, and
    /// [`CeilidhError::Field`] if `p` is not ≡ 2, 5 (mod 9).
    pub fn from_components(p: &BigUint, q: &BigUint) -> Result<Self, CeilidhError> {
        // No RNG is passed in: Miller–Rabin draws its bases from a fixed seed.
        let mut rng = StdRng::seed_from_u64(0x9e37_79b9);
        if !is_prime(p, &mut rng) || !is_prime(q, &mut rng) {
            return Err(CeilidhError::InvalidParameters("p and q must be prime"));
        }
        Self::from_primes(p, q)
    }

    /// [`Self::from_components`] without its primality tests (~10 ms at 331
    /// bits), for the built-in sets and [`Self::generate`], known to be prime.
    fn from_primes(p: &BigUint, q: &BigUint) -> Result<Self, CeilidhError> {
        let fp = FpContext::new(p)
            .map_err(|_| CeilidhError::InvalidParameters("p is not a usable odd prime"))?;
        let fp6 = Fp6Context::new(fp.clone())?;

        let phi6 = Self::phi6(p);
        let (cofactor, rem) = phi6
            .div_rem(q)
            .map_err(|_| CeilidhError::InvalidParameters("q must be non-zero"))?;
        if !rem.is_zero() {
            return Err(CeilidhError::InvalidParameters("q must divide p^2 - p + 1"));
        }

        let generator = Self::find_generator(&fp6, &cofactor)?;
        Ok(CeilidhParams {
            fp,
            fp6,
            p: p.clone(),
            q: q.clone(),
            cofactor,
            generator,
        })
    }

    /// Generates a fresh random parameter set with a `bits`-bit prime `p`.
    ///
    /// The search repeats until `Φ6(p)` splits as a smooth cofactor
    /// (trial division up to 100 000) times a prime `q`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 16` (the congruence and smoothness conditions need
    /// room to be satisfiable).
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Result<Self, CeilidhError> {
        assert!(bits >= 16, "parameter generation needs at least 16 bits");
        loop {
            // Alternate the two admissible residue classes.
            for residue in [2u32, 5] {
                let p = gen_prime_congruent(bits, residue, 9, rng);
                let phi6 = Self::phi6(&p);
                let (_, q) = Self::strip_small_factors(&phi6);
                if q.bit_len() + 16 < phi6.bit_len() {
                    continue; // cofactor unexpectedly large; try again
                }
                if is_prime(&q, rng) {
                    return Self::from_primes(&p, &q);
                }
            }
        }
    }

    /// A small parameter set (`p = 101`, `q = 37`) for unit tests, examples
    /// and documentation. Offers no security whatsoever.
    pub fn toy() -> Result<Self, CeilidhError> {
        Self::from_primes(&BigUint::from(101u64), &BigUint::from(37u64))
    }

    /// The 170-bit parameter size evaluated in the paper (Table 3's
    /// "170-bit torus" row).
    ///
    /// The concrete prime was generated once with
    /// [`CeilidhParams::generate`] and fixed here so that benchmarks and
    /// tests are reproducible. `p ≡ 2 (mod 9)` and
    /// `q = Φ6(p) / cofactor` is prime.
    pub fn date2008() -> Result<Self, CeilidhError> {
        let p = BigUint::from_hex(P_170_HEX)
            .map_err(|_| CeilidhError::InvalidParameters("bad built-in prime"))?;
        let q = BigUint::from_hex(Q_170_HEX)
            .map_err(|_| CeilidhError::InvalidParameters("bad built-in subgroup order"))?;
        Self::from_primes(&p, &q)
    }

    /// `Φ6(p) = p² - p + 1`, the order of `T6(Fp)`.
    pub fn phi6(p: &BigUint) -> BigUint {
        &(&(p * p) - p) + &BigUint::one()
    }

    /// The field prime `p`.
    pub fn p(&self) -> &BigUint {
        &self.p
    }

    /// The prime order `q` of the working subgroup.
    pub fn q(&self) -> &BigUint {
        &self.q
    }

    /// The cofactor `Φ6(p) / q`.
    pub fn cofactor(&self) -> &BigUint {
        &self.cofactor
    }

    /// The order of the full torus, `Φ6(p)`.
    pub fn torus_order(&self) -> BigUint {
        Self::phi6(&self.p)
    }

    /// The base prime-field context.
    pub fn fp(&self) -> &FpContext {
        &self.fp
    }

    /// The `Fp6` (representation F1) context.
    pub fn fp6(&self) -> &Fp6Context {
        &self.fp6
    }

    /// The generator of the order-`q` subgroup.
    pub fn generator(&self) -> TorusElement {
        TorusElement::from_fp6_unchecked(self.generator.clone())
    }

    /// Strips every prime factor below [`SMALL_FACTOR_BOUND`] from `n`,
    /// returning `(smooth_cofactor, remainder)`.
    fn strip_small_factors(n: &BigUint) -> (BigUint, BigUint) {
        let mut cofactor = BigUint::one();
        let mut rest = n.clone();
        for d in small_primes(SMALL_FACTOR_BOUND) {
            let db = BigUint::from(d as u64);
            loop {
                let (quot, rem) = rest.div_rem(&db).expect("divisor is non-zero");
                if rem.is_zero() {
                    cofactor = &cofactor * &db;
                    rest = quot;
                } else {
                    break;
                }
            }
            if rest.is_one() {
                break;
            }
        }
        (cofactor, rest)
    }

    /// Deterministically searches for an element of order exactly `q`:
    /// `(z + c)^((p⁶ - 1)/q)` for the first `c = 1, 2, …` where that is not
    /// 1, computed as the projection of `z + c` onto the torus raised to
    /// the cofactor `Φ6(p)/q` by the torus exponentiation. The result lies
    /// in `T6`, whose order is `q · cofactor`, so its order is `q` when `q`
    /// is prime.
    fn find_generator(fp6: &Fp6Context, cofactor: &BigUint) -> Result<Fp6Element, CeilidhError> {
        for c in 1u64..1000 {
            let candidate = fp6.add(&fp6.gen_z(), &fp6.from_fp(fp6.fp().from_u64(c)));
            let g = fp6.exp_cyclotomic(&project(fp6, &candidate)?, cofactor);
            if g != fp6.one() {
                return Ok(g);
            }
        }
        Err(CeilidhError::InvalidParameters(
            "failed to find a generator (q probably does not divide Φ6(p))",
        ))
    }
}

/// Simple sieve of Eratosthenes returning all primes below `bound`.
fn small_primes(bound: u32) -> Vec<u32> {
    let bound = bound as usize;
    let mut sieve = vec![true; bound];
    let mut out = Vec::new();
    for i in 2..bound {
        if sieve[i] {
            out.push(i as u32);
            let mut j = i * i;
            while j < bound {
                sieve[j] = false;
                j += i;
            }
        }
    }
    out
}

/// 170-bit CEILIDH prime `p ≡ 2 (mod 9)` (generated once with
/// `cargo run -p ceilidh --bin gen_params -- 170 20080314` and fixed for
/// reproducibility).
const P_170_HEX: &str = "2e14985ba5778232ba167ef32f9741a9a30db4650f7";
/// The 331-bit prime order `q = Φ6(p)/327` of the working subgroup of
/// `T6(Fp)` for [`P_170_HEX`].
const Q_170_HEX: &str =
    "67e5cb35a64054b95002ed1c23bce161cfe740e26415dcc6b4a57f167304b8ea12b4dd0c3f6d1e80d4d";

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn toy_parameters_are_consistent() {
        let params = CeilidhParams::toy().unwrap();
        assert_eq!(params.p().to_u64(), Some(101));
        assert_eq!(params.q().to_u64(), Some(37));
        // Φ6(101) = 10101 = 273 * 37
        assert_eq!(params.torus_order().to_u64(), Some(10101));
        assert_eq!(params.cofactor().to_u64(), Some(273));
        // Generator has order exactly q.
        let g = params.generator();
        let fp6 = params.fp6();
        assert_ne!(g.as_fp6(), &fp6.one());
        assert_eq!(fp6.exp(g.as_fp6(), params.q()), fp6.one());
        // p and q are prime.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        assert!(bignum::is_prime(params.p(), &mut rng));
        assert!(bignum::is_prime(params.q(), &mut rng));
    }

    #[test]
    fn rejects_inconsistent_components() {
        // q does not divide Φ6(p), q is trivial, or a component is
        // composite though every other check passes: 273 = 3·7·13 divides
        // Φ6(101) (cofactor 37), and p = 119 = 7·17 ≡ 2 (mod 9), with
        // q = Φ6(119) = 14,043.
        for (p, q) in [(101u64, 41u64), (101, 1), (101, 273), (119, 14_043)] {
            let built = CeilidhParams::from_components(&BigUint::from(p), &BigUint::from(q));
            assert!(
                matches!(built, Err(CeilidhError::InvalidParameters(_))),
                "p = {p}, q = {q}"
            );
        }
        // p not congruent to 2 or 5 mod 9.
        assert!(
            CeilidhParams::from_components(&BigUint::from(19u64), &BigUint::from(7u64)).is_err()
        );
    }

    #[test]
    fn phi6_formula() {
        assert_eq!(
            CeilidhParams::phi6(&BigUint::from(101u64)).to_u64(),
            Some(101 * 101 - 101 + 1)
        );
        assert_eq!(CeilidhParams::phi6(&BigUint::from(2u64)).to_u64(), Some(3));
    }

    #[test]
    fn small_primes_sieve() {
        let primes = small_primes(30);
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }

    #[test]
    fn strip_small_factors_splits_correctly() {
        // 10101 = 3 * 7 * 13 * 37 with 37 kept (it is below the bound, so it
        // is stripped too); use a composite with a big prime factor instead.
        let n = BigUint::from(2u64 * 3 * 1_000_003);
        let (cof, rest) = CeilidhParams::strip_small_factors(&n);
        assert_eq!(cof.to_u64(), Some(6));
        assert_eq!(rest.to_u64(), Some(1_000_003));
    }

    #[test]
    fn date2008_parameters_are_consistent() {
        let params = CeilidhParams::date2008().unwrap();
        assert_eq!(params.p().bit_len(), 170);
        assert_eq!((params.p() % &BigUint::from(9u64)).to_u64(), Some(2));
        assert_eq!(params.cofactor().to_u64(), Some(327));
        let (_, rem) = params.torus_order().div_rem(params.q()).unwrap();
        assert!(rem.is_zero());
        // The generator really has order q.
        let g = params.generator();
        assert_eq!(params.fp6().exp(g.as_fp6(), params.q()), params.fp6().one());
        assert_ne!(g.as_fp6(), &params.fp6().one());
        // p and q are prime.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        assert!(bignum::is_prime(params.p(), &mut rng));
        assert!(bignum::is_prime(params.q(), &mut rng));
    }

    #[test]
    fn generators_are_the_first_nontrivial_power_of_z_plus_c() {
        // (z + c)^((p⁶ - 1)/q) for the first c = 1, 2, … where it is not 1.
        for params in [
            CeilidhParams::toy().unwrap(),
            CeilidhParams::date2008().unwrap(),
        ] {
            let fp6 = params.fp6();
            let (exp, rem) = (&params.p().pow(6) - &BigUint::one())
                .div_rem(params.q())
                .unwrap();
            assert!(rem.is_zero());
            let g = (1u64..)
                .map(|c| {
                    fp6.exp(
                        &fp6.add(&fp6.gen_z(), &fp6.from_fp(fp6.fp().from_u64(c))),
                        &exp,
                    )
                })
                .find(|g| *g != fp6.one())
                .unwrap();
            assert_eq!(params.generator().as_fp6(), &g);
        }
    }

    #[test]
    fn generate_small_parameters() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let params = CeilidhParams::generate(24, &mut rng).unwrap();
        assert_eq!(params.p().bit_len(), 24);
        let r = (params.p() % &BigUint::from(9u64)).to_u64().unwrap();
        assert!(r == 2 || r == 5);
        // q divides Φ6(p) and the generator has order q.
        let (_, rem) = params.torus_order().div_rem(params.q()).unwrap();
        assert!(rem.is_zero());
        let g = params.generator();
        assert_eq!(params.fp6().exp(g.as_fp6(), params.q()), params.fp6().one());
    }
}
