//! The paper's Table 3 on one set of inputs.
//!
//! [`Inputs::draw`] draws, from [`SEED`] and in this order, a subgroup
//! element and a 170-bit exponent on CEILIDH-170, a point and a 160-bit
//! scalar on the 160-bit reproduction curve, and an RSA-1024 key pair and
//! a message. [`Inputs::run`] runs the three full public-key operations
//! on a given [`Platform`], and [`Inputs::ecc`] the scalar multiplication
//! alone. `table3`, `report` and `ablations` print every Table 3 figure
//! from these runs, so no two binaries can print the same cell
//! differently.

use bignum::BigUint;
use ceilidh::{CeilidhParams, TorusElement};
use ecc::{AffinePoint, Curve};
use platform::{ExecutionReport, Platform};
use rand::SeedableRng;
use rsa_torus::RsaKeyPair;

/// Seed of the Table 3 draws.
pub const SEED: u64 = 2008;

/// The inputs of Table 3's three public-key operations.
pub struct Inputs {
    /// The paper's CEILIDH-170 parameters.
    pub params: CeilidhParams,
    /// A random element of the order-`q` torus subgroup.
    pub base: TorusElement,
    /// A random 170-bit exponent.
    pub exponent: BigUint,
    /// The 160-bit reproduction curve.
    pub curve: Curve,
    /// A random point on [`Inputs::curve`].
    pub point: AffinePoint,
    /// A random 160-bit scalar.
    pub scalar: BigUint,
    /// An RSA-1024 key pair.
    pub keys: RsaKeyPair,
    /// A random message below the RSA modulus.
    pub message: BigUint,
}

/// The three Table 3 operations, each run once on the same platform.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The 170-bit torus exponentiation.
    pub torus: ExecutionReport,
    /// The 160-bit ECC scalar multiplication.
    pub ecc: ExecutionReport,
    /// The 1024-bit RSA exponentiation.
    pub rsa: ExecutionReport,
}

impl Inputs {
    /// Draws the inputs from [`SEED`].
    ///
    /// # Panics
    ///
    /// Panics only if a built-in parameter set fails to build or RSA key
    /// generation fails, neither of which happens for these constants.
    pub fn draw() -> Inputs {
        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
        let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
        let (_, base) = params.random_subgroup_element(&mut rng);
        let exponent = BigUint::random_bits(&mut rng, 170);
        let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
        let point = curve.random_point(&mut rng);
        let scalar = BigUint::random_bits(&mut rng, 160);
        let keys = RsaKeyPair::generate(1024, &mut rng).expect("RSA-1024 keys");
        let message = BigUint::random_below(&mut rng, keys.public().modulus());
        Inputs {
            params,
            base,
            exponent,
            curve,
            point,
            scalar,
            keys,
            message,
        }
    }

    /// The scalar multiplication `scalar · point` on `plat`, the one
    /// operation the ablations rerun under each ladder knob.
    pub fn ecc(&self, plat: &Platform) -> ExecutionReport {
        plat.ecc_scalar_multiplication(&self.curve, &self.point, &self.scalar)
            .1
    }

    /// Runs all three operations on `plat`.
    pub fn run(&self, plat: &Platform) -> Run {
        let (_, torus) = plat.torus_exponentiation(&self.params, &self.base, &self.exponent);
        let ecc = self.ecc(plat);
        let modulus = self.keys.public().modulus();
        let (_, rsa) =
            plat.rsa_exponentiation(modulus, &self.message, self.keys.private_exponent());
        Run { torus, ecc, rsa }
    }
}

impl Run {
    /// How many times faster the torus runs than RSA (the paper's 4.8×).
    pub fn rsa_over_torus(&self) -> f64 {
        self.rsa.cycles as f64 / self.torus.cycles as f64
    }

    /// How many times faster ECC runs than the torus (the paper's 2.1×).
    pub fn torus_over_ecc(&self) -> f64 {
        self.torus.cycles as f64 / self.ecc.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{CostModel, Hierarchy};

    #[test]
    fn table3_shape_holds() {
        // The paper's shape on the real drivers: ECC beats CEILIDH, which
        // beats RSA, by about the published factors.
        let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let run = Inputs::draw().run(&plat);
        let (torus, ecc, rsa) = (run.torus.cycles, run.ecc.cycles, run.rsa.cycles);
        assert!(ecc < torus, "ECC ({ecc}) must beat the torus ({torus})");
        assert!(torus < rsa, "the torus ({torus}) must beat RSA ({rsa})");
        assert!(
            (2.0..10.0).contains(&run.rsa_over_torus()),
            "paper: RSA/torus ≈ 4.8, got {}",
            run.rsa_over_torus()
        );
        assert!(
            (1.2..4.0).contains(&run.torus_over_ecc()),
            "paper: torus/ECC ≈ 2.1, got {}",
            run.torus_over_ecc()
        );
    }
}
