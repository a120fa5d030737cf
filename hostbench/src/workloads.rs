//! The three closed-loop workloads. Each is built by an untimed set-up
//! from the workload seed, then driven one deck entry at a time by a
//! single client: the next library call is issued only after the previous
//! one returned and its output was checked (checks run outside the timed
//! calls).

use bignum::BigUint;
use ceilidh::{CeilidhParams, HybridCiphertext, KeyPair, Signature, TorusElement};
use ecc::{AffinePoint, Curve, EccKeyPair, ScalarMulAlgorithm};
use engine::{Fleet, FleetConfig, Request, RunSummary, TrafficProfile};
use platform::{CostModel, Hierarchy, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsa_torus::RsaKeyPair;

use crate::trace::Recorder;

/// Inputs prepared per workload; calls cycle through them.
const POOL: usize = 8;

pub const NAMES: [&str; 3] = ["paper_protocols", "std256_sessions", "platform_sim"];

pub trait Workload {
    /// Number of calls in one round of the mix.
    fn deck_len(&self) -> usize;
    /// Issues deck entry `i` of the current round and checks its output.
    fn step(&mut self, i: usize, rec: &mut Recorder);
    /// Draws the next round's call order from the workload seed.
    fn reshuffle(&mut self);
    /// Feeds each consuming call kind one tampered input that must be
    /// rejected.
    fn tamper(&mut self, rec: &mut Recorder);
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_protocols" => Box::new(PaperProtocols::new(seed)),
        "std256_sessions" => Box::new(Std256Sessions::new(seed)),
        "platform_sim" => Box::new(PlatformSim::new(seed)),
        _ => return None,
    })
}

/// The stream that orders a workload's calls and feeds the library's own
/// randomized calls: derived from the workload seed, apart from set-up's.
fn deck_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5eed_0fca_11d3_ec4b)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// A point with the same `x` and `y + 1`: never on a curve that also holds
/// the original point.
fn off_curve(curve: &Curve, point: &AffinePoint) -> AffinePoint {
    let (x, y) = point.coordinates().expect("finite point");
    AffinePoint::new(x.clone(), curve.fp().add(y, &curve.fp().one()))
}

// ------------------------------------------------------------------ //
// paper_protocols                                                     //
// ------------------------------------------------------------------ //

#[derive(Clone, Copy)]
enum PaperCall {
    Encrypt,
    Decrypt,
    Sign,
    Verify,
    Ecdh,
    RsaEncrypt,
    RsaDecrypt,
    RsaSign,
    RsaVerify,
}

struct PaperInput {
    message: Vec<u8>,
    hybrid: HybridCiphertext,
    signature: Signature,
    digest: Vec<u8>,
    rsa_ciphertext: Vec<u8>,
    rsa_signature: Vec<u8>,
}

/// CEILIDH-170, ECDH on the 160-bit reproduction curve and RSA-1024: the
/// paper's three families at its own sizes, all on the heap backend.
pub struct PaperProtocols {
    params: CeilidhParams,
    torus_key: KeyPair,
    curve: Curve,
    ecc_server: EccKeyPair,
    rsa: RsaKeyPair,
    inputs: Vec<PaperInput>,
    next: usize,
    rng: StdRng,
    deck: Vec<PaperCall>,
}

impl PaperProtocols {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
        let torus_key = KeyPair::generate(&params, &mut rng);
        let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
        let ecc_server = EccKeyPair::generate(&curve, &mut rng);
        let rsa = RsaKeyPair::generate(1024, &mut rng).expect("RSA-1024 key generation");
        let inputs = (0..POOL)
            .map(|_| {
                let message = random_bytes(&mut rng, 32);
                let digest = random_bytes(&mut rng, 32);
                PaperInput {
                    hybrid: ceilidh::encrypt_hybrid(
                        &params,
                        torus_key.public(),
                        &message,
                        &mut rng,
                    )
                    .expect("hybrid encryption"),
                    signature: ceilidh::sign(&params, torus_key.secret(), &message, &mut rng)
                        .expect("Schnorr signature"),
                    rsa_ciphertext: rsa
                        .public()
                        .encrypt(&message, &mut rng)
                        .expect("RSA encrypt"),
                    rsa_signature: rsa.sign(&digest).expect("RSA sign"),
                    message,
                    digest,
                }
            })
            .collect();
        // One round: each torus operation once, eight ECDH sessions and six
        // of each RSA operation, so every family takes at least 15% of the
        // timed calls (about 53% torus, 20% ECC, 27% RSA on an x86-64 host).
        let mut deck = vec![
            PaperCall::Encrypt,
            PaperCall::Decrypt,
            PaperCall::Sign,
            PaperCall::Verify,
        ];
        deck.extend([PaperCall::Ecdh; 8]);
        for call in [
            PaperCall::RsaEncrypt,
            PaperCall::RsaDecrypt,
            PaperCall::RsaSign,
            PaperCall::RsaVerify,
        ] {
            deck.extend([call; 6]);
        }
        let mut rng = deck_rng(seed);
        shuffle(&mut deck, &mut rng);
        PaperProtocols {
            params,
            torus_key,
            curve,
            ecc_server,
            rsa,
            inputs,
            next: 0,
            rng,
            deck,
        }
    }
}

impl Workload for PaperProtocols {
    fn deck_len(&self) -> usize {
        self.deck.len()
    }

    fn reshuffle(&mut self) {
        shuffle(&mut self.deck, &mut self.rng);
    }

    fn step(&mut self, i: usize, rec: &mut Recorder) {
        let input = &self.inputs[self.next % POOL];
        self.next += 1;
        let (params, key, fp) = (&self.params, &self.torus_key, self.params.fp());
        let rng = &mut self.rng;
        match self.deck[i] {
            PaperCall::Encrypt => {
                rec.begin("hostbench.encrypt_hybrid");
                let ct = rec.timed("ceilidh.encrypt_hybrid", 1, Some(fp), || {
                    ceilidh::encrypt_hybrid(params, key.public(), &input.message, rng)
                });
                let ok = ct.is_ok_and(|ct| {
                    ceilidh::decrypt_hybrid(params, key.secret(), &ct).ok()
                        == Some(input.message.clone())
                });
                rec.settle(1, ok, "hybrid decryption must return the plaintext");
            }
            PaperCall::Decrypt => {
                rec.begin("hostbench.decrypt_hybrid");
                let out = rec.timed("ceilidh.decrypt_hybrid", 1, Some(fp), || {
                    ceilidh::decrypt_hybrid(params, key.secret(), &input.hybrid)
                });
                rec.settle(
                    1,
                    out.ok() == Some(input.message.clone()),
                    "decrypt_hybrid plaintext",
                );
            }
            PaperCall::Sign => {
                rec.begin("hostbench.sign");
                let sig = rec.timed("ceilidh.sign", 1, Some(fp), || {
                    ceilidh::sign(params, key.secret(), &input.message, rng)
                });
                let ok = sig.is_ok_and(|s| {
                    ceilidh::verify(params, key.public(), &input.message, &s).is_ok()
                });
                rec.settle(1, ok, "verify must accept a fresh signature");
            }
            PaperCall::Verify => {
                rec.begin("hostbench.verify");
                let r = rec.timed("ceilidh.verify", 1, Some(fp), || {
                    ceilidh::verify(params, key.public(), &input.message, &input.signature)
                });
                rec.settle(1, r.is_ok(), "verify must accept a valid signature");
            }
            PaperCall::Ecdh => {
                rec.begin("hostbench.ecdh.p160");
                let (curve, server) = (&self.curve, &self.ecc_server);
                let client = rec.timed("ecc.keygen.p160", 1, Some(curve.fp()), || {
                    EccKeyPair::generate(curve, rng)
                });
                let shared = rec.timed("ecc.shared_secret.p160", 1, Some(curve.fp()), || {
                    curve.shared_secret(client.secret(), server.public())
                });
                let ok = shared
                    .is_ok_and(|s| curve.shared_secret(server.secret(), client.public()) == Ok(s));
                rec.settle(2, ok, "both ECDH sides must agree (p160)");
            }
            PaperCall::RsaEncrypt => {
                rec.begin("hostbench.rsa_encrypt");
                let rsa = &self.rsa;
                let ct = rec.timed("rsa_torus.encrypt", 1, None, || {
                    rsa.public().encrypt(&input.message, rng)
                });
                let ok = ct.is_ok_and(|c| rsa.decrypt(&c).ok() == Some(input.message.clone()));
                rec.settle(1, ok, "RSA decryption must return the plaintext");
            }
            PaperCall::RsaDecrypt => {
                rec.begin("hostbench.rsa_decrypt");
                let rsa = &self.rsa;
                let out = rec.timed("rsa_torus.decrypt", 1, None, || {
                    rsa.decrypt(&input.rsa_ciphertext)
                });
                rec.settle(1, out.ok() == Some(input.message.clone()), "RSA plaintext");
            }
            PaperCall::RsaSign => {
                rec.begin("hostbench.rsa_sign");
                let rsa = &self.rsa;
                let sig = rec.timed("rsa_torus.sign", 1, None, || rsa.sign(&input.digest));
                let ok = sig.is_ok_and(|s| {
                    s == input.rsa_signature && rsa.public().verify(&input.digest, &s).is_ok()
                });
                rec.settle(1, ok, "RSA signature must verify");
            }
            PaperCall::RsaVerify => {
                rec.begin("hostbench.rsa_verify");
                let rsa = &self.rsa;
                let r = rec.timed("rsa_torus.verify", 1, None, || {
                    rsa.public().verify(&input.digest, &input.rsa_signature)
                });
                rec.settle(1, r.is_ok(), "RSA verify must accept a valid signature");
            }
        }
        rec.end();
    }

    fn tamper(&mut self, rec: &mut Recorder) {
        let (params, key) = (&self.params, &self.torus_key);
        let input = &self.inputs[0];

        let mut sig = input.signature.clone();
        sig.s = &(&sig.s + &BigUint::one()) % params.q();
        let accepted = ceilidh::verify(params, key.public(), &input.message, &sig).is_ok();
        rec.settle(1, !accepted, "verify accepted a tampered signature");

        let mut ct = input.hybrid.clone();
        ct.ephemeral.u0 = &ct.ephemeral.u0 + &BigUint::one();
        let out = ceilidh::decrypt_hybrid(params, key.secret(), &ct);
        rec.settle(
            1,
            out.ok() != Some(input.message.clone()),
            "decrypt_hybrid returned the plaintext of a tampered ciphertext",
        );

        let forged = off_curve(&self.curve, self.ecc_server.public());
        let out = self.curve.shared_secret(self.ecc_server.secret(), &forged);
        rec.settle(
            1,
            out.is_err(),
            "shared_secret accepted an off-curve point (p160)",
        );

        let mut c = input.rsa_ciphertext.clone();
        c[64] ^= 0x01;
        let out = self.rsa.decrypt(&c);
        rec.settle(
            1,
            out.ok() != Some(input.message.clone()),
            "RSA decrypt returned the plaintext of a tampered ciphertext",
        );

        let mut s = input.rsa_signature.clone();
        s[64] ^= 0x01;
        let accepted = self.rsa.public().verify(&input.digest, &s).is_ok();
        rec.settle(1, !accepted, "RSA verify accepted a tampered signature");
    }
}

// ------------------------------------------------------------------ //
// std256_sessions                                                     //
// ------------------------------------------------------------------ //

/// Span names for one 256-bit curve.
struct CurveNames {
    root: &'static str,
    batch_root: &'static str,
    keygen: &'static str,
    shared: &'static str,
    batch: &'static str,
}

const P256_NAMES: CurveNames = CurveNames {
    root: "hostbench.ecdh.p256",
    batch_root: "hostbench.batch8.p256",
    keygen: "ecc.keygen.p256",
    shared: "ecc.shared_secret.p256",
    batch: "ecc.scalar_mul_batch8.p256",
};

const SECP256K1_NAMES: CurveNames = CurveNames {
    root: "hostbench.ecdh.secp256k1",
    batch_root: "hostbench.batch8.secp256k1",
    keygen: "ecc.keygen.secp256k1",
    shared: "ecc.shared_secret.secp256k1",
    batch: "ecc.scalar_mul_batch8.secp256k1",
};

type Batch = (Vec<(AffinePoint, BigUint)>, Vec<AffinePoint>);

struct Session256 {
    names: &'static CurveNames,
    curve: Curve,
    server: EccKeyPair,
    /// Batches of 8 requests with results precomputed by the heap ladder.
    batches: Vec<Batch>,
}

impl Session256 {
    fn new(name: &str, names: &'static CurveNames, rng: &mut StdRng) -> Self {
        let curve = Curve::by_name(name).expect("registered 256-bit curve");
        let server = EccKeyPair::generate(&curve, rng);
        let order = curve
            .order()
            .expect("named curves know their order")
            .clone();
        let batches = (0..POOL)
            .map(|_| {
                let requests: Vec<(AffinePoint, BigUint)> = (0..8)
                    .map(|_| {
                        let client = EccKeyPair::generate(&curve, rng);
                        let k = &BigUint::random_below(rng, &(&order - &BigUint::one()))
                            + &BigUint::one();
                        (client.public().clone(), k)
                    })
                    .collect();
                let expected = requests
                    .iter()
                    .map(|(p, k)| {
                        curve.scalar_mul_reference(p, k, ScalarMulAlgorithm::DoubleAndAdd)
                    })
                    .collect();
                (requests, expected)
            })
            .collect();
        Session256 {
            names,
            curve,
            server,
            batches,
        }
    }
}

#[derive(Clone, Copy)]
enum SessionCall {
    Ecdh(usize),
    Batch(usize),
}

/// P-256 and secp256k1 on the fixed-width backend: ECDH sessions and
/// server-side batches of 8 scalar multiplications.
pub struct Std256Sessions {
    curves: [Session256; 2],
    next: usize,
    rng: StdRng,
    deck: Vec<SessionCall>,
}

impl Std256Sessions {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let curves = [
            Session256::new("p256", &P256_NAMES, &mut rng),
            Session256::new("secp256k1", &SECP256K1_NAMES, &mut rng),
        ];
        // Per curve and round: two ECDH sessions and one batch of 8.
        let mut deck = Vec::new();
        for c in 0..2 {
            deck.extend([
                SessionCall::Ecdh(c),
                SessionCall::Ecdh(c),
                SessionCall::Batch(c),
            ]);
        }
        let mut rng = deck_rng(seed);
        shuffle(&mut deck, &mut rng);
        Std256Sessions {
            curves,
            next: 0,
            rng,
            deck,
        }
    }
}

impl Workload for Std256Sessions {
    fn deck_len(&self) -> usize {
        self.deck.len()
    }

    fn reshuffle(&mut self) {
        shuffle(&mut self.deck, &mut self.rng);
    }

    fn step(&mut self, i: usize, rec: &mut Recorder) {
        let rng = &mut self.rng;
        match self.deck[i] {
            SessionCall::Ecdh(c) => {
                let s = &self.curves[c];
                rec.begin(s.names.root);
                let client = rec.timed(s.names.keygen, 1, Some(s.curve.fp()), || {
                    EccKeyPair::generate(&s.curve, rng)
                });
                let shared = rec.timed(s.names.shared, 1, Some(s.curve.fp()), || {
                    s.curve.shared_secret(client.secret(), s.server.public())
                });
                let ok = shared.is_ok_and(|k| {
                    s.curve.shared_secret(s.server.secret(), client.public()) == Ok(k)
                });
                rec.settle(2, ok, "both ECDH sides must agree (256-bit)");
            }
            SessionCall::Batch(c) => {
                let s = &self.curves[c];
                let (requests, expected) = &s.batches[self.next % POOL];
                self.next += 1;
                rec.begin(s.names.batch_root);
                let out = rec.timed(s.names.batch, 8, Some(s.curve.fp()), || {
                    s.curve.scalar_mul_batch(requests)
                });
                rec.settle(
                    8,
                    out == *expected,
                    "batch must equal the heap reference ladder",
                );
            }
        }
        rec.end();
    }

    fn tamper(&mut self, rec: &mut Recorder) {
        for s in &self.curves {
            let forged = off_curve(&s.curve, s.server.public());
            let out = s.curve.shared_secret(s.server.secret(), &forged);
            rec.settle(1, out.is_err(), "shared_secret accepted an off-curve point");
        }
    }
}

// ------------------------------------------------------------------ //
// platform_sim                                                        //
// ------------------------------------------------------------------ //

#[derive(Clone, Copy)]
enum SimCall {
    Torus,
    EccB,
    EccA,
    Rsa,
    Fleet(usize),
}

struct SimFleet {
    span: &'static str,
    fleet: Fleet,
    trace: Vec<Request>,
    expected: RunSummary,
}

/// Exponent length of the workload's torus exponentiations. The full
/// 170-bit ladder (about a second of host time) runs in the model step;
/// here the same driver walks a shorter exponent (about a fifth of the
/// steps), so a run holds enough calls of each kind for its statistics.
const TORUS_EXPONENT_BITS: usize = 32;

/// The Table 3 drivers on the paper's 4-core platform, plus the serving
/// model: host time sits in the simulator itself.
pub struct PlatformSim {
    type_b: Platform,
    type_a: Platform,
    params: CeilidhParams,
    curve: Curve,
    rsa: RsaKeyPair,
    torus: Vec<(TorusElement, BigUint, TorusElement)>,
    ecc: Vec<(AffinePoint, BigUint, AffinePoint)>,
    rsa_inputs: Vec<(BigUint, BigUint)>,
    fleets: Vec<SimFleet>,
    next: usize,
    rng: StdRng,
    deck: Vec<SimCall>,
}

impl PlatformSim {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let type_b = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let type_a = Platform::new(CostModel::paper(), 4, Hierarchy::TypeA);
        let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
        let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
        let rsa = RsaKeyPair::generate(1024, &mut rng).expect("RSA-1024 key generation");
        let n = rsa.public().modulus();
        // Compile every program the drivers fetch, on short inputs.
        let one = BigUint::one();
        let g = curve.base_point().clone();
        for plat in [&type_b, &type_a] {
            plat.ecc_scalar_multiplication(&curve, &g, &BigUint::from(3u64));
        }
        type_b.torus_exponentiation(&params, &params.generator(), &one);
        // Ladder and exponentiation lengths follow the drawn scalars, so a
        // larger pool keeps one seed's mean cost close to another's.
        let pool = 2 * POOL;
        let torus = (0..pool)
            .map(|_| {
                let (_, base) = params.random_subgroup_element(&mut rng);
                let e = BigUint::random_bits(&mut rng, TORUS_EXPONENT_BITS);
                let expected = params.pow(&base, &e);
                (base, e, expected)
            })
            .collect();
        let ecc = (0..pool)
            .map(|_| {
                let point = curve.random_point(&mut rng);
                let k = BigUint::random_bits(&mut rng, 160);
                let expected = curve.scalar_mul(&point, &k, ScalarMulAlgorithm::DoubleAndAdd);
                (point, k, expected)
            })
            .collect();
        let rsa_inputs = (0..pool)
            .map(|_| {
                let m = BigUint::random_below(&mut rng, n);
                let expected = rsa.raw_decrypt(&m).expect("m < n");
                (m, expected)
            })
            .collect();
        let trace = TrafficProfile::mixed_date2008().generate(rng.gen(), 200);
        let fleets = [(1, "engine.fleet_run.x1"), (4, "engine.fleet_run.x4")]
            .into_iter()
            .map(|(instances, span)| {
                let mut fleet = Fleet::new(FleetConfig::date2008(instances));
                fleet.run(trace.clone()); // compiles and prices every class
                let expected = fleet.run(trace.clone());
                SimFleet {
                    span,
                    fleet,
                    trace: trace.clone(),
                    expected,
                }
            })
            .collect();
        // Per round: each fleet size once and two calls of each driver.
        let mut deck = vec![SimCall::Fleet(0), SimCall::Fleet(1)];
        deck.extend([SimCall::Torus, SimCall::EccB, SimCall::EccA, SimCall::Rsa].repeat(2));
        let mut rng = deck_rng(seed);
        shuffle(&mut deck, &mut rng);
        PlatformSim {
            type_b,
            type_a,
            params,
            curve,
            rsa,
            torus,
            ecc,
            rsa_inputs,
            fleets,
            next: 0,
            rng,
            deck,
        }
    }
}

impl Workload for PlatformSim {
    fn deck_len(&self) -> usize {
        self.deck.len()
    }

    fn reshuffle(&mut self) {
        shuffle(&mut self.deck, &mut self.rng);
    }

    fn step(&mut self, i: usize, rec: &mut Recorder) {
        let j = self.next % self.torus.len();
        self.next += 1;
        match self.deck[i] {
            SimCall::Torus => {
                let (base, e, expected) = &self.torus[j];
                rec.begin("hostbench.torus_exp");
                let (got, report) = rec.timed("platform.torus_exp_short", 1, None, || {
                    self.type_b.torus_exponentiation(&self.params, base, e)
                });
                rec.annotate(report);
                rec.settle(
                    1,
                    got == *expected,
                    "platform torus exponentiation vs host pow",
                );
            }
            SimCall::EccB | SimCall::EccA => {
                let (plat, span, root) = match self.deck[i] {
                    SimCall::EccB => (
                        &self.type_b,
                        "platform.ecc_ladder_b",
                        "hostbench.ecc_ladder_b",
                    ),
                    _ => (
                        &self.type_a,
                        "platform.ecc_ladder_a",
                        "hostbench.ecc_ladder_a",
                    ),
                };
                let (point, k, expected) = &self.ecc[j];
                rec.begin(root);
                let (got, report) = rec.timed(span, 1, None, || {
                    plat.ecc_scalar_multiplication(&self.curve, point, k)
                });
                rec.annotate(report);
                rec.settle(
                    1,
                    got == *expected,
                    "platform ECC ladder vs host scalar_mul",
                );
            }
            SimCall::Rsa => {
                let (m, expected) = &self.rsa_inputs[j];
                rec.begin("hostbench.rsa_exp");
                let n = self.rsa.public().modulus();
                let d = self.rsa.private_exponent();
                let (got, report) = rec.timed("platform.rsa_exp", 1, None, || {
                    self.type_b.rsa_exponentiation(n, m, d)
                });
                rec.annotate(report);
                rec.settle(
                    1,
                    got == *expected,
                    "platform RSA exponentiation vs host exponentiation",
                );
            }
            SimCall::Fleet(f) => {
                let sim = &mut self.fleets[f];
                rec.begin("hostbench.fleet_run");
                let trace = sim.trace.clone();
                let fleet = &mut sim.fleet;
                let summary = rec.timed(sim.span, 1, None, || fleet.run(trace));
                rec.settle(
                    1,
                    summary == sim.expected,
                    "fleet run must repeat its summary",
                );
            }
        }
        rec.end();
    }

    fn tamper(&mut self, _rec: &mut Recorder) {}
}
