//! RSA key generation and the public/private operations.

use bignum::{gen_prime, mod_inv, BigUint, MontgomeryParams};
use rand::Rng;

use crate::error::RsaError;
use crate::padding::{pad_encrypt, pad_sign, unpad_encrypt, unpad_sign};

/// Public exponent used throughout (F4 = 65537).
const PUBLIC_EXPONENT: u64 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    mont: MontgomeryParams,
}

/// An RSA private key with CRT components.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPrivateKey {
    d: BigUint,
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
    mont_p: MontgomeryParams,
    mont_q: MontgomeryParams,
}

/// A full RSA key pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// The modulus `n = p·q`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes.
    pub fn byte_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// The raw public operation `m^e mod n`.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if `m >= n`.
    pub fn raw_encrypt(&self, m: &BigUint) -> Result<BigUint, RsaError> {
        if m >= &self.n {
            return Err(RsaError::ValueOutOfRange);
        }
        Ok(self.mont.mod_exp(m, &self.e))
    }

    /// Encrypts a message with PKCS#1 v1.5-style padding.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::MessageTooLong`] if the message exceeds the key's
    /// capacity.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        message: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, RsaError> {
        let block = pad_encrypt(message, self.byte_len(), rng)?;
        let c = self.raw_encrypt(&BigUint::from_be_bytes(&block))?;
        Ok(to_fixed_bytes(&c, self.byte_len()))
    }

    /// Verifies a signature of exactly [`byte_len`](Self::byte_len) bytes,
    /// the only encoding [`RsaKeyPair::sign`] produces.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::VerificationFailed`] if the signature is invalid,
    /// including when it is longer or shorter than the modulus.
    pub fn verify(&self, digest: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        if signature.len() != self.byte_len() {
            return Err(RsaError::VerificationFailed);
        }
        let s = BigUint::from_be_bytes(signature);
        let m = self
            .raw_encrypt(&s)
            .map_err(|_| RsaError::VerificationFailed)?;
        let block = to_fixed_bytes(&m, self.byte_len());
        let recovered = unpad_sign(&block).map_err(|_| RsaError::VerificationFailed)?;
        if recovered == digest {
            Ok(())
        } else {
            Err(RsaError::VerificationFailed)
        }
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with an `bits`-bit modulus.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::KeyTooSmall`] if `bits < 128`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Result<Self, RsaError> {
        if bits < 128 {
            return Err(RsaError::KeyTooSmall(bits));
        }
        let e = BigUint::from(PUBLIC_EXPONENT);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = &(&p - &one) * &(&q - &one);
            let Some(d) = mod_inv(&e, &phi) else {
                continue; // e not coprime to φ(n); resample primes
            };
            let d_p = &d % &(&p - &one);
            let d_q = &d % &(&q - &one);
            let Some(q_inv) = mod_inv(&q, &p) else {
                continue;
            };
            let mont = MontgomeryParams::new(&n).expect("n = p*q is odd");
            let mont_p = MontgomeryParams::new(&p).expect("p is odd");
            let mont_q = MontgomeryParams::new(&q).expect("q is odd");
            return Ok(RsaKeyPair {
                public: RsaPublicKey { n, e, mont },
                private: RsaPrivateKey {
                    d,
                    p,
                    q,
                    d_p,
                    d_q,
                    q_inv,
                    mont_p,
                    mont_q,
                },
            });
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent `d` (exposed for the benchmark harness, which
    /// replays the full-length exponentiation the paper times).
    pub fn private_exponent(&self) -> &BigUint {
        &self.private.d
    }

    /// The raw private operation `c^d mod n`, computed without CRT
    /// (this is the 1024-bit exponentiation the paper's 96 ms row measures).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if `c >= n`.
    pub fn raw_decrypt(&self, c: &BigUint) -> Result<BigUint, RsaError> {
        if c >= &self.public.n {
            return Err(RsaError::ValueOutOfRange);
        }
        Ok(self.public.mont.mod_exp(c, &self.private.d))
    }

    /// The raw private operation computed with the Chinese Remainder
    /// Theorem (about 4× faster; provided for the ablation bench).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if `c >= n`.
    pub fn raw_decrypt_crt(&self, c: &BigUint) -> Result<BigUint, RsaError> {
        if c >= &self.public.n {
            return Err(RsaError::ValueOutOfRange);
        }
        let sk = &self.private;
        let m_p = sk.mont_p.mod_exp(&(c % &sk.p), &sk.d_p);
        let m_q = sk.mont_q.mod_exp(&(c % &sk.q), &sk.d_q);
        // h = q_inv * (m_p - m_q) mod p
        let diff = if m_p >= m_q {
            &m_p - &(&m_q % &sk.p)
        } else {
            &(&m_p + &sk.p) - &(&m_q % &sk.p)
        };
        let diff = &diff % &sk.p;
        let h = &(&sk.q_inv * &diff) % &sk.p;
        Ok(&m_q + &(&h * &sk.q))
    }

    /// Decrypts a padded ciphertext of exactly
    /// [`byte_len`](RsaPublicKey::byte_len) bytes, the only encoding
    /// [`RsaPublicKey::encrypt`] produces.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::ValueOutOfRange`] if the ciphertext is longer or
    /// shorter than the modulus or encodes a value `>= n`, and
    /// [`RsaError::InvalidPadding`] if the recovered block is malformed.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        if ciphertext.len() != self.public.byte_len() {
            return Err(RsaError::ValueOutOfRange);
        }
        let c = BigUint::from_be_bytes(ciphertext);
        let m = self.raw_decrypt_crt(&c)?;
        let block = to_fixed_bytes(&m, self.public.byte_len());
        unpad_encrypt(&block)
    }

    /// Signs a digest (PKCS#1 v1.5-style block, full-length exponentiation).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::MessageTooLong`] if the digest exceeds the key's
    /// capacity.
    pub fn sign(&self, digest: &[u8]) -> Result<Vec<u8>, RsaError> {
        let block = pad_sign(digest, self.public.byte_len())?;
        let s = self.raw_decrypt_crt(&BigUint::from_be_bytes(&block))?;
        Ok(to_fixed_bytes(&s, self.public.byte_len()))
    }
}

/// Big-endian encoding left-padded with zeros to exactly `len` bytes.
fn to_fixed_bytes(v: &BigUint, len: usize) -> Vec<u8> {
    let bytes = v.to_be_bytes();
    let mut out = vec![0u8; len.saturating_sub(bytes.len())];
    out.extend_from_slice(&bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn keys() -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        RsaKeyPair::generate(512, &mut rng).unwrap()
    }

    #[test]
    fn rejects_tiny_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        assert_eq!(
            RsaKeyPair::generate(64, &mut rng).unwrap_err(),
            RsaError::KeyTooSmall(64)
        );
    }

    #[test]
    fn raw_roundtrip_and_crt_agreement() {
        let kp = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        for _ in 0..5 {
            let m = BigUint::random_below(&mut rng, kp.public().modulus());
            let c = kp.public().raw_encrypt(&m).unwrap();
            assert_eq!(kp.raw_decrypt(&c).unwrap(), m);
            assert_eq!(kp.raw_decrypt_crt(&c).unwrap(), m);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for msg in [&b""[..], b"x", b"hello rsa world", &[7u8; 40]] {
            let ct = kp.public().encrypt(msg, &mut rng).unwrap();
            assert_eq!(ct.len(), kp.public().byte_len());
            assert_eq!(kp.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keys();
        let digest = [0xABu8; 32];
        let sig = kp.sign(&digest).unwrap();
        assert!(kp.public().verify(&digest, &sig).is_ok());
        // Tampered digest fails.
        let mut bad = digest;
        bad[0] ^= 1;
        assert_eq!(
            kp.public().verify(&bad, &sig).unwrap_err(),
            RsaError::VerificationFailed
        );
        // Tampered signature fails.
        let mut bad_sig = sig.clone();
        bad_sig[10] ^= 1;
        assert!(kp.public().verify(&digest, &bad_sig).is_err());
    }

    #[test]
    fn oversize_values_rejected() {
        let kp = keys();
        let too_big = kp.public().modulus().clone();
        assert_eq!(
            kp.public().raw_encrypt(&too_big).unwrap_err(),
            RsaError::ValueOutOfRange
        );
        assert_eq!(
            kp.raw_decrypt(&too_big).unwrap_err(),
            RsaError::ValueOutOfRange
        );
        let huge_msg = vec![1u8; 200];
        assert!(matches!(
            kp.public()
                .encrypt(&huge_msg, &mut rand::rngs::StdRng::seed_from_u64(1)),
            Err(RsaError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn decrypt_requires_exactly_byte_len_bytes() {
        let kp = keys();
        let msg = b"canonical";
        // A ciphertext whose first byte is zero, so that dropping it
        // leaves the same integer.
        let ct = (0..)
            .map(|seed| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                kp.public().encrypt(msg, &mut rng).unwrap()
            })
            .find(|ct| ct[0] == 0)
            .unwrap();
        assert_eq!(kp.decrypt(&ct).unwrap(), msg);
        let longer = [&[0u8][..], &ct].concat();
        assert_eq!(kp.decrypt(&longer).unwrap_err(), RsaError::ValueOutOfRange);
        assert_eq!(kp.decrypt(&ct[1..]).unwrap_err(), RsaError::ValueOutOfRange);
    }

    #[test]
    fn verify_requires_exactly_byte_len_bytes() {
        let kp = keys();
        // A signature whose first byte is zero, so that dropping it
        // leaves the same integer.
        let (digest, sig) = (0u64..)
            .map(|i| {
                let mut digest = [0xABu8; 32];
                digest[..8].copy_from_slice(&i.to_be_bytes());
                (digest, kp.sign(&digest).unwrap())
            })
            .find(|(_, sig)| sig[0] == 0)
            .unwrap();
        assert!(kp.public().verify(&digest, &sig).is_ok());
        let longer = [&[0u8, 0][..], &sig].concat();
        assert_eq!(
            kp.public().verify(&digest, &longer).unwrap_err(),
            RsaError::VerificationFailed
        );
        assert_eq!(
            kp.public().verify(&digest, &sig[1..]).unwrap_err(),
            RsaError::VerificationFailed
        );
    }

    #[test]
    fn key_structure_invariants() {
        let kp = keys();
        assert_eq!(kp.public().modulus().bit_len(), 512);
        assert_eq!(kp.public().exponent().to_u64(), Some(65_537));
        // d·e ≡ 1 mod φ(n) implies raw ops invert each other, which the
        // roundtrip test already covers; here check the byte length helper.
        assert_eq!(kp.public().byte_len(), 64);
    }
}
