//! Property-based tests for the superoptimizing search pass (the sixth
//! layer of the cost model, `CostModel::sequence_search`):
//!
//! * **semantics** — for every `OpKind × CostModel × bits × hierarchy`,
//!   the searched program leaves the declared output slots
//!   state-identical to the hand-authored sequence on a probe execution;
//! * **never worse** — the searched program's scheduled cycle count is
//!   ≤ the authored baseline under the exact engine (the same property
//!   the `search_sweep` ablation reports per formula and the acceptance
//!   gate rests on);
//! * **determinism** — recompiling under the same `(kind, bits, cost)`
//!   key yields an identical `CompiledProgram` fingerprint, and the
//!   `ProgramCache` treats the search knobs as part of the key.

use bignum::BigUint;
use platform::program::{compile, OpKind, ProgramCache};
use platform::{CostModel, Hierarchy, Platform};
use proptest::prelude::*;
use std::sync::Arc;

/// Search-enabled cost variants the pipeline identities must hold under.
fn search_variants() -> Vec<CostModel> {
    vec![
        CostModel::paper().with_search(true),
        CostModel::paper().with_search(true).with_beam_width(1),
        CostModel::paper().with_search(true).with_beam_width(3),
        CostModel::paper().with_dual_path(false).with_search(true),
    ]
}

fn probe_modulus(bits: usize) -> BigUint {
    let m = BigUint::one().shl_bits(bits - 1) + BigUint::one().shl_bits(bits / 2);
    &m + &BigUint::from(13u64)
}

fn probe_slots(n: usize) -> Vec<BigUint> {
    (0..n)
        .map(|i| BigUint::from((i % 251 + 1) as u64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The searched program computes exactly what the authored one does:
    /// same values in every declared output slot, on both hierarchies,
    /// at every operand length, under every search-enabled cost variant.
    /// And under the executing engine it never costs more.
    #[test]
    fn search_is_state_identical_and_never_worse(bits in 16usize..512) {
        for cost in search_variants() {
            let authored_cost = cost.with_search(false);
            let modulus = probe_modulus(bits);
            for kind in OpKind::ALL {
                let searched = compile(kind, bits, &cost);
                let authored = compile(kind, bits, &authored_cost);
                prop_assert_eq!(
                    searched.stats().modmuls,
                    authored.stats().modmuls,
                    "{} formula drift", kind
                );
                for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
                    let plat = Platform::new(cost, 4, hierarchy);
                    let mut sa = probe_slots(searched.slot_budget());
                    let mut sb = probe_slots(authored.slot_budget());
                    let ra = plat.execute(&searched, &modulus, &mut sa);
                    let rb = plat.execute(&authored, &modulus, &mut sb);
                    for out in searched.outputs() {
                        prop_assert_eq!(
                            &sa[*out], &sb[*out],
                            "{} output slot {} ({:?})", kind, out, hierarchy
                        );
                    }
                    // Type-B is what the search scores; Type-A has no
                    // overlap credit so any order prices the same.
                    prop_assert!(
                        ra.cycles <= rb.cycles,
                        "{} searched {} > authored {} at {} bits ({:?})",
                        kind, ra.cycles, rb.cycles, bits, hierarchy
                    );
                }
            }
        }
    }

    /// Same inputs ⇒ identical compiled artifact: the step streams and
    /// the `CompiledProgram` fingerprints agree across recompiles.
    #[test]
    fn search_compilation_is_deterministic(bits in 16usize..512) {
        for cost in search_variants() {
            for kind in OpKind::ALL {
                let a = compile(kind, bits, &cost);
                let b = compile(kind, bits, &cost);
                prop_assert_eq!(a.ops(), b.ops(), "{} step stream", kind);
                prop_assert_eq!(a.fingerprint(), b.fingerprint(), "{} fingerprint", kind);
            }
        }
    }

    /// The search knobs are part of the cache key: toggling the search
    /// or changing the beam width misses, re-presenting the same model
    /// hits.
    #[test]
    fn cache_key_covers_the_search_knobs(bits in 16usize..512) {
        let cache = ProgramCache::new();
        let on = CostModel::paper().with_search(true);
        let a = cache.get_or_compile(OpKind::EccPdFast, bits, &on);
        let b = cache.get_or_compile(OpKind::EccPdFast, bits, &on);
        prop_assert!(Arc::ptr_eq(&a, &b));
        let off = cache.get_or_compile(OpKind::EccPdFast, bits, &on.with_search(false));
        prop_assert!(!Arc::ptr_eq(&a, &off));
        let narrow = cache.get_or_compile(OpKind::EccPdFast, bits, &on.with_beam_width(2));
        prop_assert!(!Arc::ptr_eq(&a, &narrow));
        prop_assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }
}

#[test]
fn paper_calibration_is_bit_identical_with_search_off() {
    // The 27 gated paper-reproduction rows rest on this: `paper()` keeps
    // the search layer off, so compilation under the published
    // calibration must not change a single recorded step — it runs
    // validation alone, which never rewrites. (The crate's
    // `compile_preserves_calibrated_programs_exactly` compares the steps
    // with the recording itself.)
    let paper = CostModel::paper();
    assert!(!paper.uses_search());
    for kind in OpKind::ALL {
        let compiled = compile(kind, 160, &paper);
        let passes: Vec<_> = compiled
            .passes()
            .iter()
            .map(|p| (p.pass, p.changed()))
            .collect();
        assert_eq!(passes, [("validate", false)], "{kind}");
    }
}

#[test]
fn search_discovers_at_least_one_win_at_the_calibration_point() {
    // The acceptance criterion's "discovered improvement": with search
    // on, at least one formula schedules strictly cheaper than its
    // authored order under the executing Type-B engine at 160 bits.
    let on = CostModel::paper().with_search(true);
    let off = CostModel::paper();
    let improved = OpKind::ALL.iter().any(|&kind| {
        let plat_on = Platform::new(on, 4, Hierarchy::TypeB);
        let plat_off = Platform::new(off, 4, Hierarchy::TypeB);
        let searched = plat_on.composite_report(kind, 160).cycles;
        let authored = plat_off.composite_report(kind, 160).cycles;
        searched < authored
    });
    assert!(improved, "search found no win on any formula at 160 bits");
}
