//! RSA key generation, PKCS#1 v1.5 signatures and encryption.
//!
//! SANCTUARY assigns each enclave an asymmetric key pair derived from the
//! platform certificate (paper §V, citing RSA \[46\]); attestation reports are
//! RSA signatures over the enclave measurement, and the vendor channel uses
//! RSA key transport to establish a session key.
//!
//! Private-key operations use the CRT (`m = CRT(c^dP mod p, c^dQ mod q)`)
//! for a ~4x speedup over direct exponentiation.

use rand::Rng;

use crate::bignum::BigUint;
use crate::ct::ct_eq;
use crate::error::{CryptoError, Result};
use crate::prime::generate_rsa_prime;
use crate::sha256::{Sha256, DIGEST_LEN};

/// The DER prefix of the PKCS#1 v1.5 `DigestInfo` structure for SHA-256
/// (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    /// Modulus size in bytes.
    k: usize,
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    /// `q^{-1} mod p`.
    qinv: BigUint,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private parameters.
        f.debug_struct("RsaPrivateKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl RsaPublicKey {
    /// Constructs a public key from raw components.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if `n` is too small (< 512 bits)
    /// or `e` is even or < 3.
    pub fn new(n: BigUint, e: BigUint) -> Result<Self> {
        if n.bit_len() < 512 {
            return Err(CryptoError::InvalidKey("modulus must be at least 512 bits"));
        }
        if e.is_even() || e < BigUint::from(3u64) {
            return Err(CryptoError::InvalidKey(
                "public exponent must be odd and >= 3",
            ));
        }
        let k = n.bit_len().div_ceil(8);
        Ok(RsaPublicKey { n, e, k })
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.k
    }

    /// Serializes the key as `len(n) || n || len(e) || e` (big-endian,
    /// u32 length prefixes). Used for transcript hashing and KDF input.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses a key serialized by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedInput`] on truncated input and
    /// [`CryptoError::InvalidKey`] on invalid components.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let take = |bytes: &[u8], at: usize| -> Result<(Vec<u8>, usize)> {
            if bytes.len() < at + 4 {
                return Err(CryptoError::MalformedInput("truncated rsa key"));
            }
            let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            if bytes.len() < at + 4 + len {
                return Err(CryptoError::MalformedInput("truncated rsa key"));
            }
            Ok((bytes[at + 4..at + 4 + len].to_vec(), at + 4 + len))
        };
        let (n_bytes, off) = take(bytes, 0)?;
        let (e_bytes, _) = take(bytes, off)?;
        Self::new(
            BigUint::from_bytes_be(&n_bytes),
            BigUint::from_bytes_be(&e_bytes),
        )
    }

    /// Raw RSA public operation `m^e mod n`.
    fn public_op(&self, m: &BigUint) -> Result<BigUint> {
        if m >= &self.n {
            return Err(CryptoError::OutOfRange(
                "message representative out of range",
            ));
        }
        m.mod_pow(&self.e, &self.n)
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if verification fails for
    /// any reason (wrong length, wrong padding, wrong digest).
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<()> {
        if signature.len() != self.k {
            return Err(CryptoError::InvalidSignature);
        }
        let s = BigUint::from_bytes_be(signature);
        let em = self
            .public_op(&s)
            .map_err(|_| CryptoError::InvalidSignature)?
            .to_bytes_be_padded(self.k)
            .map_err(|_| CryptoError::InvalidSignature)?;
        let expected = pkcs1_v15_sign_encode(message, self.k)?;
        if ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// Encrypts a short message with PKCS#1 v1.5 padding (key transport).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `plaintext` exceeds
    /// `k - 11` bytes.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Result<Vec<u8>> {
        if plaintext.len() + 11 > self.k {
            return Err(CryptoError::InvalidLength {
                what: "rsa plaintext",
                got: plaintext.len(),
                expected: self.k - 11,
            });
        }
        // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M
        let mut em = vec![0u8; self.k];
        em[1] = 0x02;
        let ps_len = self.k - 3 - plaintext.len();
        for b in &mut em[2..2 + ps_len] {
            *b = rng.gen_range(1..=255u8);
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&em);
        let c = self.public_op(&m)?;
        c.to_bytes_be_padded(self.k)
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key pair with the given modulus size and `e = 65537`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] for sizes below 512 bits and
    /// propagates prime-generation failures.
    ///
    /// # Examples
    ///
    /// ```
    /// use omg_crypto::rsa::RsaPrivateKey;
    /// use omg_crypto::rng::ChaChaRng;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = ChaChaRng::seed_from_u64(7);
    /// let key = RsaPrivateKey::generate(&mut rng, 1024)?;
    /// let sig = key.sign(b"attestation report")?;
    /// key.public_key().verify(b"attestation report", &sig)?;
    /// # Ok::<(), omg_crypto::CryptoError>(())
    /// ```
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<Self> {
        if bits < 512 {
            return Err(CryptoError::InvalidKey("modulus must be at least 512 bits"));
        }
        let e = BigUint::from(65_537u64);
        loop {
            let p = generate_rsa_prime(rng, bits / 2, &e)?;
            let q = generate_rsa_prime(rng, bits - bits / 2, &e)?;
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.checked_sub(&one)?;
            let q1 = q.checked_sub(&one)?;
            let phi = p1.mul(&q1);
            let d = match e.mod_inv(&phi) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let dp = d.rem(&p1)?;
            let dq = d.rem(&q1)?;
            let qinv = q.mod_inv(&p)?;
            let public = RsaPublicKey::new(n, e.clone())?;
            return Ok(RsaPrivateKey {
                public,
                d,
                p,
                q,
                dp,
                dq,
                qinv,
            });
        }
    }

    /// Like [`Self::generate`], but memoized on the generator's upcoming
    /// output stream: two calls that would consume identical random streams
    /// return identical keys, and the second call skips prime generation
    /// entirely (the dominant cost of simulated-device setup — hundreds of
    /// milliseconds per key in debug builds).
    ///
    /// The memoization is *exact*: key generation is a deterministic
    /// function of the RNG stream, so the cache is keyed by a 32-byte
    /// prefix of the stream (peeked from a clone without consuming it) and
    /// a cache hit also restores the RNG to the precise post-generation
    /// state. Callers observe bit-identical behaviour either way. Intended
    /// for simulations and tests that create many same-seeded devices; for
    /// one-off keys, plain [`Self::generate`] avoids retaining key material
    /// in the process-wide cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::generate`].
    pub fn generate_memoized<R>(rng: &mut R, bits: usize) -> Result<Self>
    where
        R: Rng + Clone + Send + Sync + 'static,
    {
        use std::any::{Any, TypeId};
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};

        type Cache =
            Mutex<HashMap<(TypeId, usize, [u8; 32]), (RsaPrivateKey, Box<dyn Any + Send + Sync>)>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        // Bound the retained key material: past this point new streams are
        // generated but not remembered (first-come entries — the
        // fixed-seed simulation parties — stay hot). Keeps a pathological
        // many-distinct-seed workload from growing the cache forever.
        const MAX_ENTRIES: usize = 64;

        // Peek the next 32 bytes of the stream from a clone; the caller's
        // generator is not advanced by the lookup.
        let mut probe = rng.clone();
        let mut prefix = [0u8; 32];
        probe.fill_bytes(&mut prefix);
        let key = (TypeId::of::<R>(), bits, prefix);

        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some((cached_key, post_state)) = cache.lock().expect("rsa cache").get(&key) {
            let post = post_state
                .downcast_ref::<R>()
                .expect("cache entry type matches TypeId");
            *rng = post.clone();
            return Ok(cached_key.clone());
        }

        let generated = Self::generate(rng, bits)?;
        let mut cache = cache.lock().expect("rsa cache");
        if cache.len() < MAX_ENTRIES {
            cache.insert(key, (generated.clone(), Box::new(rng.clone())));
        }
        Ok(generated)
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent `d`. Handle with care: this is the secret.
    ///
    /// Exposed for key-serialization needs; the CRT parameters used by the
    /// hot path are private.
    pub fn private_exponent(&self) -> &BigUint {
        &self.d
    }

    /// Raw RSA private operation using the CRT.
    fn private_op(&self, c: &BigUint) -> Result<BigUint> {
        if c >= &self.public.n {
            return Err(CryptoError::OutOfRange(
                "ciphertext representative out of range",
            ));
        }
        let m1 = c.mod_pow(&self.dp, &self.p)?;
        let m2 = c.mod_pow(&self.dq, &self.q)?;
        // h = qinv * (m1 - m2) mod p
        let diff = if m1 >= m2 {
            m1.checked_sub(&m2)?
        } else {
            // (m1 - m2) mod p: add p until non-negative.
            let m2_mod_p = m2.rem(&self.p)?;
            let m1_plus_p = m1.add(&self.p);
            m1_plus_p.checked_sub(&m2_mod_p)?
        };
        let h = self.qinv.mod_mul(&diff, &self.p)?;
        Ok(m2.add(&h.mul(&self.q)))
    }

    /// Signs `message` with PKCS#1 v1.5 / SHA-256.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if the key is too small for a
    /// SHA-256 `DigestInfo` (cannot happen for >= 512-bit keys).
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>> {
        let em = pkcs1_v15_sign_encode(message, self.public.k)?;
        let m = BigUint::from_bytes_be(&em);
        let s = self.private_op(&m)?;
        // Verify our own signature to harden against CRT fault attacks.
        let roundtrip = self.public.public_op(&s)?;
        if roundtrip != m {
            return Err(CryptoError::InvalidSignature);
        }
        s.to_bytes_be_padded(self.public.k)
    }

    /// Decrypts a PKCS#1 v1.5 ciphertext (key transport).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedInput`] on padding failure. (The OMG
    /// protocol only decrypts inside the enclave where padding oracles are
    /// out of scope; see the threat model in the paper §IV.)
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        if ciphertext.len() != self.public.k {
            return Err(CryptoError::InvalidLength {
                what: "rsa ciphertext",
                got: ciphertext.len(),
                expected: self.public.k,
            });
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let em = self.private_op(&c)?.to_bytes_be_padded(self.public.k)?;
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::MalformedInput("bad pkcs1 padding header"));
        }
        // Find the 0x00 separator after at least 8 bytes of PS.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::MalformedInput("missing pkcs1 separator"))?;
        if sep < 8 {
            return Err(CryptoError::MalformedInput("pkcs1 padding too short"));
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest (RFC 8017 §9.2).
fn pkcs1_v15_sign_encode(message: &[u8], k: usize) -> Result<Vec<u8>> {
    let t_len = SHA256_DIGEST_INFO_PREFIX.len() + DIGEST_LEN;
    if k < t_len + 11 {
        return Err(CryptoError::InvalidLength {
            what: "rsa modulus",
            got: k,
            expected: t_len + 11,
        });
    }
    let digest = Sha256::digest(message);
    let mut em = vec![0xffu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    em[k - t_len - 1] = 0x00;
    em[k - t_len..k - DIGEST_LEN].copy_from_slice(&SHA256_DIGEST_INFO_PREFIX);
    em[k - DIGEST_LEN..].copy_from_slice(&digest);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ChaChaRng;

    fn test_key() -> RsaPrivateKey {
        let mut rng = ChaChaRng::seed_from_u64(0xD15EA5E);
        RsaPrivateKey::generate(&mut rng, 1024).unwrap()
    }

    #[test]
    fn memoized_generate_is_transparent() {
        use rand::RngCore;

        // Plain generation: the ground truth for key and RNG evolution.
        let mut plain_rng = ChaChaRng::seed_from_u64(0x4D454D4F); // "MEMO"
        let plain_key = RsaPrivateKey::generate(&mut plain_rng, 1024).unwrap();
        let plain_next = plain_rng.next_u64();

        // First memoized call (cache miss): identical key, identical
        // post-generation stream.
        let mut rng1 = ChaChaRng::seed_from_u64(0x4D454D4F);
        let key1 = RsaPrivateKey::generate_memoized(&mut rng1, 1024).unwrap();
        assert_eq!(key1.public_key(), plain_key.public_key());
        assert_eq!(key1.private_exponent(), plain_key.private_exponent());
        assert_eq!(rng1.next_u64(), plain_next);

        // Second memoized call (cache hit): still identical on both counts.
        let mut rng2 = ChaChaRng::seed_from_u64(0x4D454D4F);
        let key2 = RsaPrivateKey::generate_memoized(&mut rng2, 1024).unwrap();
        assert_eq!(key2.public_key(), plain_key.public_key());
        assert_eq!(rng2.next_u64(), plain_next);

        // A different stream yields a different key (no false hits).
        let mut other = ChaChaRng::seed_from_u64(0x4D454D50);
        let key3 = RsaPrivateKey::generate_memoized(&mut other, 1024).unwrap();
        assert_ne!(key3.public_key(), plain_key.public_key());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"hello enclave").unwrap();
        assert_eq!(sig.len(), key.public_key().size_bytes());
        key.public_key().verify(b"hello enclave", &sig).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_message_and_signature() {
        let key = test_key();
        let sig = key.sign(b"report").unwrap();
        assert_eq!(
            key.public_key().verify(b"report!", &sig).unwrap_err(),
            CryptoError::InvalidSignature
        );
        let mut bad = sig.clone();
        bad[10] ^= 0x40;
        assert_eq!(
            key.public_key().verify(b"report", &bad).unwrap_err(),
            CryptoError::InvalidSignature
        );
        // Wrong length entirely.
        assert!(key.public_key().verify(b"report", &sig[..64]).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let msg = b"32-byte symmetric session key!!!";
        let ct = key.public_key().encrypt(&mut rng, msg).unwrap();
        assert_eq!(ct.len(), key.public_key().size_bytes());
        assert_eq!(key.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn encrypt_rejects_oversized_plaintext() {
        let key = test_key();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let too_big = vec![0u8; key.public_key().size_bytes() - 10];
        assert!(key.public_key().encrypt(&mut rng, &too_big).is_err());
    }

    #[test]
    fn decrypt_rejects_wrong_length_and_garbage() {
        let key = test_key();
        assert!(key.decrypt(&[0u8; 17]).is_err());
        let garbage = vec![0x5au8; key.public_key().size_bytes()];
        assert!(key.decrypt(&garbage).is_err());
    }

    #[test]
    fn distinct_keys_from_distinct_seeds() {
        let mut r1 = ChaChaRng::seed_from_u64(100);
        let mut r2 = ChaChaRng::seed_from_u64(200);
        let k1 = RsaPrivateKey::generate(&mut r1, 1024).unwrap();
        let k2 = RsaPrivateKey::generate(&mut r2, 1024).unwrap();
        assert_ne!(k1.public_key(), k2.public_key());
        // A signature under k1 must not verify under k2.
        let sig = k1.sign(b"msg").unwrap();
        assert!(k2.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let mut r1 = ChaChaRng::seed_from_u64(42);
        let mut r2 = ChaChaRng::seed_from_u64(42);
        let k1 = RsaPrivateKey::generate(&mut r1, 1024).unwrap();
        let k2 = RsaPrivateKey::generate(&mut r2, 1024).unwrap();
        assert_eq!(k1.public_key(), k2.public_key());
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let key = test_key();
        let bytes = key.public_key().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, key.public_key());
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RsaPublicKey::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(RsaPublicKey::new(BigUint::from(15u64), BigUint::from(3u64)).is_err());
        let n = BigUint::one().shl(512);
        assert!(RsaPublicKey::new(n.clone(), BigUint::from(4u64)).is_err());
        assert!(RsaPublicKey::new(n, BigUint::one()).is_err());
    }

    #[test]
    fn generate_rejects_tiny_keys() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        assert!(RsaPrivateKey::generate(&mut rng, 256).is_err());
    }

    #[test]
    fn modulus_has_exact_bit_length() {
        let key = test_key();
        assert_eq!(key.public_key().modulus().bit_len(), 1024);
        assert_eq!(key.public_key().size_bytes(), 128);
    }

    #[test]
    fn empty_message_signs() {
        let key = test_key();
        let sig = key.sign(b"").unwrap();
        key.public_key().verify(b"", &sig).unwrap();
    }

    #[test]
    fn debug_does_not_leak_private_fields() {
        let key = test_key();
        let s = format!("{key:?}");
        assert!(s.contains("RsaPrivateKey"));
        assert!(!s.contains(&key.d.to_hex()));
        assert!(!s.contains(&key.p.to_hex()));
    }
}
