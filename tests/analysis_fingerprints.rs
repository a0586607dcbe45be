//! The pinned analysis table: one row per program × loop, each the
//! FNV-1a of everything the static pass decides about that loop — the
//! classification report (with its strip line), every lint diagnostic,
//! the DOACROSS plan, the predicted first dependence, the static shadow
//! pick per array and the bytecode disassembly.
//!
//! A change that reorganizes the analysis without changing a decision
//! passes with `tests/data/analysis_fingerprints.txt` untouched; one
//! that moves a row has changed what the pass concludes about some
//! loop, and says which. On a mismatch this run's table is written to
//! `analysis_fingerprints.actual.txt` under the cargo target tmpdir.

use rlrpd::lang::{lint, parse, CompiledProgram};
use rlrpd::loops::dsl;
use std::fmt::Write as _;

const TABLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/analysis_fingerprints.txt"
);

/// The lint width the rows are taken at.
const LINT_P: usize = 8;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Edge sources from the analysis unit tests: one shape per branch of
/// the classifier, the DOACROSS proof and the lint pass.
const EDGES: &[(&str, &str)] = &[
    ("shifted-read", "array A[101];\nfor i in 1..100 { A[i] = A[i - 1] + 1; }"),
    ("same-iteration-rmw", "array A[100];\nfor i in 0..100 { A[i] = A[i] * 2; }"),
    ("pigeonhole", "array A[10];\nfor i in 0..100 { A[i % 10] = i; }"),
    ("constant-subscript", "array A[4];\nfor i in 0..10 { A[0] = i; }"),
    (
        "constant-write",
        "array A[10];\narray B[100];\nfor i in 0..100 { A[3] = B[i]; }",
    ),
    (
        "constant-vs-affine",
        "array A[100];\nfor i in 0..50 { A[20] = A[2 * i] + 1; }",
    ),
    (
        "opaque-indirection",
        "array A[10];\narray IDX[10];\nfor i in 0..10 { A[IDX[i]] = i; }",
    ),
    (
        "opaque-modulo",
        "array A[600];\nfor i in 0..512 { A[(i * 11) % 512] = A[i] + 1; }",
    ),
    (
        "natural-reduction",
        "array Y[10];\narray W[100];\nfor i in 0..100 { W[i] = i; Y[W[i]] += 1; }",
    ),
    (
        "modulo-reduction",
        "array Y[1000];\nfor i in 0..100 { Y[i % 16] += 1; }",
    ),
    (
        "mixed-ops",
        "array Y[10];\nfor i in 0..10 {\n  Y[0] += 1;\n  Y[1] *= 2;\n}",
    ),
    (
        "hinted-tested-natural-reduction",
        "array S[4] : tested;\nfor i in 1..100 { S[0] += i; }",
    ),
    (
        "unverifiable-reduction-hint",
        "array Y[10] : reduction(+);\nfor i in 0..10 { Y[i] = Y[i] + 1; }",
    ),
    (
        "redundant-tested-hint",
        "array A[100] : tested;\nfor i in 0..100 { A[i] = i; }",
    ),
    (
        "unsound-untested-hint",
        "array A[101] : untested;\nfor i in 1..100 { A[i] = A[i - 1] + 1; }",
    ),
    (
        "guard-only",
        "array A[110];\nfor i in 0..100 { if i % 7 == 0 { A[i + 5] = 1; } A[i] = A[i] + 1; }",
    ),
    (
        "guarded-doacross",
        "array A[200];\nfor i in 0..100 { if i > 5 { A[i] = A[i] + 1; } A[i + 5] = 2; }",
    ),
    (
        "guarded-may-distance",
        "array A[200];\nfor i in 0..100 { if i % 2 == 0 { A[i + 5] = 1; } A[(i * 3) % 150] = A[i] + 1; }",
    ),
    (
        "unequal-strides",
        "array A[300];\nfor i in 0..100 { A[2 * i] = A[3 * i + 1] + 1; }",
    ),
    (
        "disjoint-unequal-strides",
        "array A[400];\nfor i in 0..100 { A[2 * i] = A[2 * i + 201] + 1; }",
    ),
    (
        "two-distances",
        "array A[300];\nfor i in 8..100 { A[i] = A[i - 2] + A[i - 8]; }",
    ),
    (
        "offset-range",
        "array A[200];\nfor i in 40..200 { A[i] = A[i - 8] + 1; }",
    ),
    (
        "offset-subscript",
        "array A[200];\nfor i in 0..160 { A[i + 40] = A[i + 32] + 1; }",
    ),
    (
        "break",
        "array A[200];\nfor i in 1..100 { A[i] = A[i - 1] + 1; break if A[i] > 50; }",
    ),
    ("tiny", "array A[10];\nfor i in 0..1 { A[i] = A[i] + 1; }"),
    (
        "unused-array",
        "array A[8];\narray B[8];\nfor i in 0..8 { A[i] = i; }",
    ),
    (
        "counter",
        "array A[200];\ncounter c = 0;\nfor i in 1..100 { if A[i] > 0 { bump c; } }",
    ),
];

/// One row per loop of `src`. A counter program does not compile to a
/// [`CompiledProgram`]; its rows hold the lint diagnostics only.
fn rows_of(name: &str, src: &str, rows: &mut Vec<(String, u64)>) {
    let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let diags = lint(&program, LINT_P);
    let compiled = CompiledProgram::compile(src).ok();
    assert_eq!(
        compiled.is_none(),
        program.counter.is_some(),
        "{name}: only counter programs stay uncompiled"
    );
    for k in 0..program.loops.len() {
        let mut text = String::new();
        for d in diags.iter().filter(|d| d.loop_index == k) {
            writeln!(text, "{d:?}").unwrap();
        }
        if let Some(prog) = &compiled {
            text.push_str(&prog.report());
            writeln!(text, "{:?}", prog.doacross_plan(k)).unwrap();
            writeln!(text, "{:?}", prog.predicted_first_dependence(k)).unwrap();
            for (decl, c) in program.arrays.iter().zip(prog.classifications(k)) {
                let touched = c.touch.map_or(0, |t| t.touched);
                let pick = rlrpd::shadow::select::choose(decl.size, touched);
                writeln!(text, "{} {}", decl.name, pick.describe()).unwrap();
            }
            text.push_str(&prog.disassembly());
        }
        rows.push((format!("{name}/loop{k}"), fnv(text.as_bytes())));
    }
}

#[test]
fn every_pinned_analysis_still_decides_what_it_did() {
    let mut rows = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rlp"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        rows_of(&name, &std::fs::read_to_string(&path).unwrap(), &mut rows);
    }
    for (name, src) in [
        ("track_dsl(384)", dsl::track_dsl(384)),
        ("spice_dsl(256)", dsl::spice_dsl(256)),
        ("nlfilt_dsl(256)", dsl::nlfilt_dsl(256)),
    ] {
        rows_of(name, &src, &mut rows);
    }
    for (name, src) in EDGES {
        rows_of(name, src, &mut rows);
    }

    let mut actual = String::new();
    for (name, fp) in &rows {
        writeln!(actual, "{name} {fp:016x}").unwrap();
    }
    let expected = std::fs::read_to_string(TABLE).unwrap_or_default();
    if actual == expected {
        return;
    }
    let dump =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("analysis_fingerprints.actual.txt");
    std::fs::write(&dump, &actual).unwrap();
    let moved: Vec<&str> = actual
        .lines()
        .zip(expected.lines().chain(std::iter::repeat("")))
        .filter(|(a, e)| a != e)
        .map(|(a, _)| a)
        .collect();
    panic!(
        "{} of {} pinned rows differ from {TABLE} (first: {:#?}); this run's table is in {}",
        moved.len(),
        rows.len(),
        &moved[..moved.len().min(12)],
        dump.display()
    );
}
