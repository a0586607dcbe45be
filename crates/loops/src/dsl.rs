//! DSL-source versions of the paper's kernels: TRACK, SPICE, and
//! NLFILT loop bodies written in the mini loop language, parameterized
//! by size.
//!
//! The hand-written Rust kernels in this crate (e.g. [`crate::nlfilt`])
//! are the *native* tier: full-speed closures the engines call
//! directly. These generators produce the same memory-reference
//! structure as loop-language source, so the compiled tiers —
//! tree-walk interpreter and register-bytecode VM — can be measured and
//! differentially tested on workloads with the paper's reference
//! shapes rather than toy bodies. The benchmark harness (`bench/`)
//! prices all three tiers over exactly these sources.
//!
//! The sources are deterministic pure functions of `n`, so the
//! supervisor and a worker fleet (or two test backends) independently
//! regenerate identical programs.

/// TRACK-flavoured tracking-filter step (the `examples/programs/
/// tracking.rlp` shape, scaled to `n` work items): one full
/// predict/innovate/gate/update filter step per target — a scattered
/// state gather the compiler cannot analyze, a provably-disjoint work
/// array (shadow elided), a guarded scatter back into the state, and
/// an energy-histogram reduction. The body is arithmetic-dense on
/// purpose: FPTRAK is a floating-point filter, and the mul-add chains
/// are exactly what the bytecode tier's fused superinstructions
/// target.
pub fn track_dsl(n: usize) -> String {
    assert!(n >= 64, "TRACK deck needs at least 64 work items");
    format!(
        "array STATE[{state}] = 1;\n\
         array WORK[{n}];\n\
         array ENERGY[16];\n\
         \n\
         cost 25;\n\
         \n\
         for i in 0..{n} {{\n\
         \x20   let src = (i * 11 + 3) % {n};\n\
         \x20   let z = STATE[src];\n\
         \x20   let pr = z * 0.975 + i * 0.001;\n\
         \x20   let rs = z - pr * 0.955;\n\
         \x20   let w = abs(rs) * 0.25 + 0.125;\n\
         \x20   let g = min(w * 0.5 + 0.0625, 0.9);\n\
         \x20   let up = pr + g * rs;\n\
         \x20   let vel = z * 0.03 + pr * 0.01;\n\
         \x20   let acc = rs * 0.005 + vel * 0.875;\n\
         \x20   let p2 = up * 1.01 + vel * 0.125;\n\
         \x20   let bias = p2 * 0.0625 + acc * 0.25;\n\
         \x20   let damp = max(bias * 0.5 + acc * 0.125, 0.0375);\n\
         \x20   let e2 = rs * rs * 0.5 + up * up * 0.0225;\n\
         \x20   let sc = abs(up) * 0.0125 + w * 0.75;\n\
         \x20   let q = sqrt(e2 + 1);\n\
         \x20   let nv = up * 0.96875 + q * 0.03125;\n\
         \x20   let jr = acc * 0.375 + bias * 0.0125;\n\
         \x20   let fl = damp * 0.8125 + jr * 0.1875;\n\
         \x20   let d2 = vel * 0.4375 + acc * 0.5625;\n\
         \x20   let g2 = g * 0.96875 + w * 0.03125;\n\
         \x20   let h2 = d2 * g2 + fl * 0.375;\n\
         \x20   let en = e2 * 0.9375 + h2 * h2;\n\
         \x20   let mx = sc * 0.5625 + en * 0.0625;\n\
         \x20   let t2 = h2 * 0.5 + mx * 0.25;\n\
         \x20   WORK[i] = nv * 0.875 + t2 * 0.125;\n\
         \x20   if i % 32 == 0 {{\n\
         \x20       STATE[src + 40] = nv * 0.5 + z * 0.5;\n\
         \x20   }}\n\
         \x20   ENERGY[i % 16] += en * 0.5 + damp * damp;\n\
         }}\n",
        state = n + 88,
    )
}

/// SPICE-flavoured sparse-LU elimination (the DCDCMP_15 shape): each
/// unknown combines a handful of earlier unknowns through a fixed
/// stencil — heavily partially parallel, flow dependences at short
/// distances.
pub fn spice_dsl(n: usize) -> String {
    assert!(n >= 32, "SPICE deck needs at least 32 unknowns");
    format!(
        "array X[{n}] = 2;\n\
         \n\
         cost 10;\n\
         \n\
         for i in 0..{n} {{\n\
         \x20   if i >= 16 {{\n\
         \x20       let a = X[i - 16];\n\
         \x20       let b = X[i - (i % 7) - 1];\n\
         \x20       X[i] = X[i] - (a * 0.125 + b * 0.0625);\n\
         \x20   }} else {{\n\
         \x20       X[i] = X[i] + i;\n\
         \x20   }}\n\
         }}\n"
    )
}

/// NLFILT-flavoured guarded filter sweep (the NLFILT_300 shape):
/// a large state read through a pseudo-random permutation, rare
/// short-distance writes behind a data-dependent guard, and a
/// privatizable output row.
pub fn nlfilt_dsl(n: usize) -> String {
    assert!(n >= 64, "NLFILT deck needs at least 64 points");
    format!(
        "array NUSED[{state}] = 3;\n\
         array OUT[{n}];\n\
         \n\
         cost 40;\n\
         \n\
         for i in 0..{n} {{\n\
         \x20   let p = (i * 17 + 5) % {n};\n\
         \x20   let u = NUSED[p] * 0.25 + sqrt(i + 1);\n\
         \x20   OUT[i] = u;\n\
         \x20   if u - floor(u) < 0.02 {{\n\
         \x20       NUSED[p + 7] = u;\n\
         \x20   }}\n\
         }}\n",
        state = n + 16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlrpd_lang::CompiledProgram;

    #[test]
    fn all_decks_compile_at_reference_sizes() {
        for src in [track_dsl(512), spice_dsl(400), nlfilt_dsl(512)] {
            let prog = CompiledProgram::compile(&src).expect(&src);
            assert_eq!(prog.num_loops(), 1);
        }
    }

    #[test]
    fn decks_scale_and_stay_deterministic() {
        assert_eq!(track_dsl(4096), track_dsl(4096));
        for n in [64, 1024, 16384] {
            CompiledProgram::compile(&track_dsl(n)).unwrap();
            CompiledProgram::compile(&nlfilt_dsl(n)).unwrap();
        }
        for n in [32, 400, 4096] {
            CompiledProgram::compile(&spice_dsl(n)).unwrap();
        }
    }

    #[test]
    fn track_deck_exercises_elision_and_marking() {
        // The compiled tier must see both addressing modes: WORK is
        // provably disjoint (elided), STATE is under the test.
        let prog = CompiledProgram::compile(&track_dsl(512)).unwrap();
        let dis = prog.disassembly();
        assert!(dis.contains("st.mark"), "{dis}");
        assert!(dis.contains("ld.mark"), "{dis}");
        assert!(dis.contains("unmarked"), "{dis}");
        assert!(dis.contains("red.mark"), "{dis}");
    }
}
