//! The program generators the VM's differential suites share.

// Each suite draws on some of the generators, not all.
#![allow(dead_code)]

/// Build a random guarded/affine program over A (strided + backward
/// refs), B (disjoint rows — elision candidates), and H (modulo
/// reduction). Subscripts stay in bounds by construction (sizes leave
/// `3n + 40` headroom). Templates deliberately cover every lowering
/// path: arithmetic, intrinsics, `&&`/`||` short-circuits whose rhs
/// has a marking side effect, nested ifs, non-reduction `⊕=`
/// read-modify-writes, and `break if`.
pub fn program(n: usize, stmts: &[(u8, usize, usize, usize)]) -> String {
    let sz = 3 * n + 40;
    let mut body = String::new();
    for &(kind, a, b, k) in stmts {
        let a = (a % 3) + 1; // stride 1..=3
        let b = b % 8; // offset 0..8
        let k = (k % (n / 4).max(1)) + 1; // backward distance 1..=n/4
        match kind % 10 {
            0 => body.push_str(&format!("  A[{a} * i + {b}] = i * 0.5 + {b};\n")),
            1 => body.push_str(&format!("  if i >= {k} {{ A[i] = A[i - {k}] + 1; }}\n")),
            2 => body.push_str(&format!("  B[i] = A[{a} * i + {b}] * 0.5;\n")),
            3 => body.push_str("  H[i % 8] += sqrt(i + 1);\n"),
            // Short-circuit guards whose rhs reads (marks) an array:
            // evaluation order is observable in the mark state.
            4 => body.push_str(&format!(
                "  if i >= {k} && A[i - {k}] > 0.5 {{ B[i] = max(A[i], {b}); }}\n"
            )),
            5 => body.push_str(&format!(
                "  if i % 5 == 0 || B[i] > 10 {{ A[i] = abs(B[i] - {b}) + floor(i * 0.5); }}\n"
            )),
            6 => body.push_str("  let v = A[i] + 1;\n  A[i] = min(v, 99);\n"),
            // Non-reduction compound update: lowers to the fused
            // load/op/store triple, not a Reduce.
            7 => body.push_str("  A[i] *= 1.0 + 1 / (i + 2);\n"),
            8 => body.push_str(&format!(
                "  if i > {k} {{\n    if B[i - 1] < 2 {{ B[i] = B[i] + {a}; }} \
                 else {{ B[i] = i; }}\n  }}\n"
            )),
            // Rare premature exit, far enough in that work happens.
            _ => body.push_str(&format!("  break if i == {n} - 2 + {b};\n")),
        }
    }
    format!("array A[{sz}] = 1;\narray B[{sz}] = 2;\narray H[8];\nfor i in 0..{n} {{\n{body}}}")
}

/// A program whose references collide *inside* a strip of 16: flow,
/// anti and output dependences at distances 1..16 behind guards (so
/// they stay `May` and the loop stays eligible), a lane reading its own
/// store, a declared reduction that is also read, divergent `if/else`
/// and nested guards. `fault` appends a subscript that goes negative
/// part-way through.
pub fn strip_program(n: usize, stmts: &[(u8, usize, usize)], fault: Option<usize>) -> String {
    let sz = 2 * n + 40;
    let mut body = String::new();
    for &(kind, d, g) in stmts {
        let d = d % 16 + 1; // distance 1..=16
        let g = g % 5 + 2; // guard modulus 2..=6
        match kind % 9 {
            0 => body.push_str(&format!(
                "  if i % {g} != 1 && i >= {d} {{ A[i] = A[i - {d}] * 0.5 + i; }}\n"
            )),
            1 => body.push_str(&format!(
                "  if i % {g} != 1 {{ A[i] = A[i + {d}] + 0.25; }}\n"
            )),
            2 => body.push_str(&format!("  if i % {g} == 0 {{ A[i + {d}] = i; }} else {{ A[i] = 0 - i; }}\n")),
            3 => body.push_str("  B[i] = i * 3;\n  C[i] = B[i] + 1;\n"),
            4 => body.push_str(&format!("  H[i % 8] += i * 0.5;\n  C[i] = H[(i + {d}) % 8];\n")),
            5 => body.push_str(&format!(
                "  if i % {g} == 0 {{\n    if i % 3 == 0 {{ C[i] = A[i] * 2; }} else {{ C[i] = sqrt(i); }}\n  \
                 }} else {{\n    if i % 2 == 0 || A[i] > 1 {{ B[i] = abs(C[i]) + {d}; }}\n  }}\n"
            )),
            6 => body.push_str(&format!("  let s = (i * 7 + {d}) % {n};\n  C[i] = A[s] + s % {g};\n")),
            7 => body.push_str(&format!("  A[(i * {g}) % {n}] *= 1.0 + 1 / (i + {d});\n")),
            _ => body.push_str("  H[i % 8] += 1;\n"),
        }
    }
    if let Some(at) = fault {
        body.push_str(&format!("  B[{at} - i] = 1;\n"));
    }
    format!(
        "array A[{sz}] = 1;\narray B[{sz}] = 2;\narray C[{sz}];\n\
         array H[8] : reduction(+);\nfor i in 0..{n} {{\n{body}}}"
    )
}

/// A counter program: `counter c = K` over a track array T whose first
/// `K` elements are the read-only prefix, and a plain array B. The
/// statements cover bumps guarded by `i`, by the prefix's contents and
/// by contents the loop itself wrote (the extension region and B
/// behind `i`); writes at the counter and one past it; reads in the
/// prefix and in the extension region; and, rarely, a premature exit.
/// T leaves room past every bump, so subscripts stay in bounds.
pub fn counter_program(n: usize, k: usize, stmts: &[(u8, usize, usize)]) -> String {
    let sz = k + (stmts.len() + 1) * n + 2;
    let mut body = String::new();
    for &(kind, a, b) in stmts {
        let a = a % 5 + 1; // 1..=5
        let b = b % k; // a prefix index
        match kind % 9 {
            0 => body.push_str(&format!("  T[c] = T[(i * {a} + {b}) % {k}] * 0.5 + i;\n")),
            1 => body.push_str(&format!(
                "  if i % {} == {} {{ bump c; }}\n",
                a + 1,
                b % (a + 1)
            )),
            2 => body.push_str(&format!(
                "  if T[(i + {b}) % {k}] + i % {} > 2 {{ bump c; }}\n",
                a + 1
            )),
            3 => body.push_str(&format!("  T[c + 1] = T[c] + {a};\n")),
            4 => body.push_str(&format!("  if T[c - 1] > {a} {{ bump c; }}\n")),
            5 => body.push_str(&format!(
                "  let v = T[{k} + (i * {a}) % {n}];\n  B[i] = v + T[c];\n"
            )),
            6 => body.push_str(&format!(
                "  if B[i] < 1 {{ T[c] = i * {a}; }} else {{ bump c; }}\n"
            )),
            7 => body.push_str(&format!("  if i > {b} && B[i - 1] > {a} {{ bump c; }}\n")),
            _ if a == 1 => body.push_str(&format!("  break if i == {n} - 2 + {};\n", b % 3)),
            _ => body.push_str("  T[c] = i;\n"),
        }
    }
    format!("array T[{sz}] = 1;\narray B[{n}];\ncounter c = {k};\nfor i in 0..{n} {{\n{body}}}")
}
