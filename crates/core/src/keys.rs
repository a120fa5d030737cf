//! Key generation and Diffie–Hellman key agreement on the torus.

use bignum::BigUint;
use rand::Rng;

use crate::compress::{compress, CompressedTorus};
use crate::error::CeilidhError;
use crate::kdf::ToyKdf;
use crate::params::CeilidhParams;
use crate::torus::TorusElement;

/// A CEILIDH secret key: a scalar in `[1, q)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SecretKey {
    scalar: BigUint,
}

impl SecretKey {
    /// The secret scalar.
    pub fn scalar(&self) -> &BigUint {
        &self.scalar
    }
}

/// A CEILIDH public key: `g^x` on the torus.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PublicKey {
    element: TorusElement,
}

impl PublicKey {
    /// The torus element `g^x`.
    pub fn element(&self) -> &TorusElement {
        &self.element
    }

    /// Compresses the public key for transmission (two `Fp` elements — a
    /// third of the size of an `Fp6` element).
    ///
    /// # Errors
    ///
    /// Propagates [`CeilidhError::CompressionFailed`] in the (cryptographically
    /// impossible for honest keys) case `g^x = 1`.
    pub fn compress(&self, params: &CeilidhParams) -> Result<CompressedTorus, CeilidhError> {
        compress(params, &self.element)
    }
}

/// A CEILIDH key pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generates a fresh key pair `(x, g^x)`.
    pub fn generate<R: Rng + ?Sized>(params: &CeilidhParams, rng: &mut R) -> Self {
        // x uniform in [1, q)
        let one = BigUint::one();
        let span = params.q() - &one;
        let scalar = &BigUint::random_below(rng, &span) + &one;
        Self::from_scalar(params, scalar)
    }

    /// Builds a key pair from an explicit secret scalar (reduced mod `q`).
    pub fn from_scalar(params: &CeilidhParams, scalar: BigUint) -> Self {
        let scalar = &scalar % params.q();
        let public = params.pow(&params.generator(), &scalar);
        KeyPair {
            secret: SecretKey { scalar },
            public: PublicKey { element: public },
        }
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }
}

/// Computes the Diffie–Hellman shared torus element `peer^x`.
pub fn shared_secret(params: &CeilidhParams, secret: &SecretKey, peer: &PublicKey) -> TorusElement {
    params.pow(&peer.element, &secret.scalar)
}

/// Computes a `len`-byte shared key by feeding the Diffie–Hellman element
/// through the [`ToyKdf`].
pub fn shared_secret_bytes(
    params: &CeilidhParams,
    secret: &SecretKey,
    peer: &PublicKey,
    len: usize,
) -> Vec<u8> {
    let element = shared_secret(params, secret, peer);
    let mut kdf = ToyKdf::new();
    for coeff in element.as_fp6().coeffs() {
        kdf.absorb(&params.fp().to_biguint(coeff).to_be_bytes());
        kdf.absorb(b"|");
    }
    kdf.squeeze(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::decompress;
    use rand::SeedableRng;

    fn params() -> CeilidhParams {
        CeilidhParams::toy().unwrap()
    }

    #[test]
    fn diffie_hellman_agreement() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for _ in 0..5 {
            let alice = KeyPair::generate(&params, &mut rng);
            let bob = KeyPair::generate(&params, &mut rng);
            let k1 = shared_secret(&params, alice.secret(), bob.public());
            let k2 = shared_secret(&params, bob.secret(), alice.public());
            assert_eq!(k1, k2);
            assert_eq!(
                shared_secret_bytes(&params, alice.secret(), bob.public(), 32),
                shared_secret_bytes(&params, bob.secret(), alice.public(), 32)
            );
        }
    }

    #[test]
    fn keys_are_subgroup_members() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(72);
        let kp = KeyPair::generate(&params, &mut rng);
        assert!(params.is_subgroup_member(kp.public().element().as_fp6()));
        assert!(!kp.secret().scalar().is_zero());
        assert!(kp.secret().scalar() < params.q());
    }

    #[test]
    fn from_scalar_reduces() {
        let params = params();
        let big = BigUint::from(37u64 * 5 + 3);
        let kp = KeyPair::from_scalar(&params, big);
        assert_eq!(kp.secret().scalar().to_u64(), Some(3));
        let kp2 = KeyPair::from_scalar(&params, BigUint::from(3u64));
        assert_eq!(kp.public(), kp2.public());
    }

    #[test]
    fn public_key_compression_roundtrip() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let kp = KeyPair::generate(&params, &mut rng);
        let compressed = kp.public().compress(&params).unwrap();
        let restored = decompress(&params, &compressed).unwrap();
        assert_eq!(&restored, kp.public().element());
    }

    #[test]
    fn different_peers_give_different_shared_keys() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(74);
        let alice = KeyPair::generate(&params, &mut rng);
        let bob = KeyPair::from_scalar(&params, BigUint::from(5u64));
        let carol = KeyPair::from_scalar(&params, BigUint::from(7u64));
        let kb = shared_secret_bytes(&params, alice.secret(), bob.public(), 16);
        let kc = shared_secret_bytes(&params, alice.secret(), carol.public(), 16);
        assert_ne!(kb, kc);
    }
}
