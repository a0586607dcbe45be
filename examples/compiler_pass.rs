//! The run-time pass end to end: write a loop as text, let the
//! classifier decide which arrays need the LRPD test, and execute it
//! speculatively.
//!
//! ```sh
//! cargo run --example compiler_pass
//! ```

use rlrpd::lang::compile;
use rlrpd::{run_sequential, run_speculative, RunConfig, Strategy};

const SOURCE: &str = "
# A small 'simulation step': state updated through scattered,
# input-dependent targets the compiler cannot see through.

array STATE[300]  = 1;            # scattered read/write    -> TESTED
array WORK[256];                  # per-iteration scratch   -> UNTESTED
array ENERGY[8];                  # histogram               -> REDUCTION(+)

cost 20;

for i in 0..256 {
    let src = (i * 13 + 5) % 256; # scattered (non-affine) source
    let v = STATE[src] * 0.5 + i; # exposed read
    WORK[i] = v;                  # affine, iteration-disjoint
    if i % 24 == 0 {
        STATE[src + 17] = v;      # guarded, scattered write
    }
    ENERGY[i % 8] += v;           # pure sum reduction
}
";

fn main() {
    let lp = compile(SOURCE).expect("source compiles");

    println!(
        "the pass classified the arrays as:\n{}",
        lp.as_program().report()
    );

    for (label, strategy) in [
        ("NRD", Strategy::Nrd),
        ("RD", Strategy::Rd),
        (
            "SW64",
            Strategy::SlidingWindow(rlrpd::WindowConfig::fixed(64)),
        ),
    ] {
        let res = run_speculative(&lp, RunConfig::new(8).with_strategy(strategy));
        println!(
            "{label:<4} stages = {:<3} restarts = {:<3} PR = {:.3}  speedup = {:.2}x",
            res.report.stages.len(),
            res.report.restarts,
            res.report.pr(),
            res.report.speedup()
        );
    }

    // The guarantee holds for compiled programs too.
    let res = run_speculative(&lp, RunConfig::new(8));
    let (seq, _) = run_sequential(&lp);
    for ((name, s), (_, r)) in seq.iter().zip(&res.arrays) {
        assert_eq!(s, r, "array {name}");
    }
    println!("\nfinal state identical to sequential execution ✓");
}
