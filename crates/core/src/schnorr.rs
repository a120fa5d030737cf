//! Schnorr-style signatures over the torus subgroup.
//!
//! Signing uses one torus exponentiation (the operation the paper's
//! platform is benchmarked on) and verification uses two; the commitment is
//! hashed in compressed form, so signatures also benefit from the factor-3
//! bandwidth reduction.

use bignum::{mod_add, mod_mul, BigUint};
use rand::Rng;

use crate::compress::compress;
use crate::error::CeilidhError;
use crate::kdf::ToyKdf;
use crate::keys::{PublicKey, SecretKey};
use crate::params::CeilidhParams;
use crate::torus::TorusElement;

/// A Schnorr signature `(e, s)` with `e = H(R || m)` and `s = k + x·e mod q`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The challenge scalar.
    pub e: BigUint,
    /// The response scalar.
    pub s: BigUint,
}

/// Signs `message` with the secret key.
///
/// # Errors
///
/// Returns [`CeilidhError::CompressionFailed`] only if no compressible
/// commitment could be sampled (practically unreachable).
pub fn sign<R: Rng + ?Sized>(
    params: &CeilidhParams,
    secret: &SecretKey,
    message: &[u8],
    rng: &mut R,
) -> Result<Signature, CeilidhError> {
    let one = BigUint::one();
    for _ in 0..64 {
        let k = &BigUint::random_below(rng, &(params.q() - &one)) + &one;
        let commitment = params.pow(&params.generator(), &k);
        let Ok(e) = challenge(params, &commitment, message) else {
            continue; // resample if the commitment is not compressible
        };
        if e.is_zero() {
            continue;
        }
        let s = mod_add(
            &k,
            &mod_mul(&(secret.scalar() % params.q()), &e, params.q()),
            params.q(),
        );
        return Ok(Signature { e, s });
    }
    Err(CeilidhError::CompressionFailed(
        "could not sample a compressible commitment",
    ))
}

/// Verifies a signature on `message` under `public`.
///
/// # Errors
///
/// Returns [`CeilidhError::VerificationFailed`] if the signature does not
/// verify (including malformed scalars).
pub fn verify(
    params: &CeilidhParams,
    public: &PublicKey,
    message: &[u8],
    signature: &Signature,
) -> Result<(), CeilidhError> {
    if signature.e >= *params.q() || signature.s >= *params.q() || signature.e.is_zero() {
        return Err(CeilidhError::VerificationFailed);
    }
    // R' = g^s · y^{-e}; inversion on the torus is a free conjugation.
    let gs = params.pow(&params.generator(), &signature.s);
    let ye = params.pow(public.element(), &signature.e);
    let r_prime = params.mul(&gs, &params.invert(&ye));
    let e_prime =
        challenge(params, &r_prime, message).map_err(|_| CeilidhError::VerificationFailed)?;
    if e_prime == signature.e {
        Ok(())
    } else {
        Err(CeilidhError::VerificationFailed)
    }
}

/// Fiat–Shamir challenge: hash of the compressed commitment and the message.
fn challenge(
    params: &CeilidhParams,
    commitment: &TorusElement,
    message: &[u8],
) -> Result<BigUint, CeilidhError> {
    let compressed = compress(params, commitment)?;
    let mut data = Vec::new();
    data.extend_from_slice(b"ceilidh-schnorr-v1");
    data.extend_from_slice(&compressed.u0.to_be_bytes());
    data.push(0xFF);
    data.extend_from_slice(&compressed.u1.to_be_bytes());
    data.extend_from_slice(message);
    Ok(ToyKdf::hash_to_scalar(&data, params.q()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use rand::SeedableRng;

    fn setup() -> (CeilidhParams, KeyPair, rand::rngs::StdRng) {
        let params = CeilidhParams::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(91);
        let kp = KeyPair::generate(&params, &mut rng);
        (params, kp, rng)
    }

    #[test]
    fn sign_and_verify() {
        let (params, kp, mut rng) = setup();
        for msg in [&b"hello"[..], b"", b"a much longer message to be signed"] {
            let sig = sign(&params, kp.secret(), msg, &mut rng).unwrap();
            assert!(verify(&params, kp.public(), msg, &sig).is_ok());
        }
    }

    #[test]
    fn tampered_message_fails() {
        let (params, kp, mut rng) = setup();
        let sig = sign(&params, kp.secret(), b"original", &mut rng).unwrap();
        assert_eq!(
            verify(&params, kp.public(), b"tampered", &sig).unwrap_err(),
            CeilidhError::VerificationFailed
        );
    }

    #[test]
    fn wrong_key_fails() {
        // The toy group has q = 37, so a signature still verifies under a
        // wrong key whenever the recomputed challenge collides (~1/36 per
        // draw); the seed is pinned to a rejecting draw of the workspace RNG.
        let params = CeilidhParams::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let kp = KeyPair::generate(&params, &mut rng);
        let other = KeyPair::generate(&params, &mut rng);
        let sig = sign(&params, kp.secret(), b"message", &mut rng).unwrap();
        if other.public() != kp.public() {
            assert!(verify(&params, other.public(), b"message", &sig).is_err());
        }
    }

    #[test]
    fn malformed_scalars_are_rejected() {
        let (params, kp, mut rng) = setup();
        let sig = sign(&params, kp.secret(), b"message", &mut rng).unwrap();
        let too_big = Signature {
            e: params.q().clone(),
            s: sig.s.clone(),
        };
        assert!(verify(&params, kp.public(), b"message", &too_big).is_err());
        let zero_e = Signature {
            e: BigUint::zero(),
            s: sig.s.clone(),
        };
        assert!(verify(&params, kp.public(), b"message", &zero_e).is_err());
    }

    #[test]
    fn signature_is_randomised_but_both_verify() {
        let (params, kp, mut rng) = setup();
        let s1 = sign(&params, kp.secret(), b"msg", &mut rng).unwrap();
        let s2 = sign(&params, kp.secret(), b"msg", &mut rng).unwrap();
        assert!(verify(&params, kp.public(), b"msg", &s1).is_ok());
        assert!(verify(&params, kp.public(), b"msg", &s2).is_ok());
    }
}
