//! Shared helpers for the figure-regenerating binaries.
//!
//! Every figure of the paper has a `fig*` binary in `src/bin/` that
//! prints the same series the figure plots (see DESIGN.md §5 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured). The
//! helpers here keep the binaries small: processor sweeps, aligned
//! table printing, and the Amdahl combination used for whole-program
//! speedups.

/// The processor counts the paper's speedup figures sweep (the HP
/// V2200 had 16 processors).
pub const PROCS: &[usize] = &[1, 2, 4, 8, 12, 16];

/// Render `v` with three decimals, trimming trailing zeros.
pub fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        format!("{v}")
    }
}

/// Print an aligned table with a title line.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Whole-program speedup by Amdahl combination: `fractions[i]` of
/// sequential time runs at `speedups[i]`; the remainder is serial.
pub fn amdahl(fractions: &[f64], speedups: &[f64]) -> f64 {
    assert_eq!(fractions.len(), speedups.len());
    let covered: f64 = fractions.iter().sum();
    assert!(covered <= 1.0 + 1e-9, "loop fractions exceed the program");
    let serial = (1.0 - covered).max(0.0);
    let denom: f64 = serial
        + fractions
            .iter()
            .zip(speedups)
            .map(|(f, s)| f / s.max(1e-12))
            .sum::<f64>();
    1.0 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_limits() {
        // Everything parallel at 8x -> 8x.
        assert!((amdahl(&[1.0], &[8.0]) - 8.0).abs() < 1e-9);
        // Half the program at infinite speedup -> 2x.
        assert!((amdahl(&[0.5], &[1e12]) - 2.0).abs() < 1e-6);
        // Nothing covered -> 1x.
        assert!((amdahl(&[], &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_weighted_combination() {
        // 60% at 4x, 30% at 2x, 10% serial:
        // 1 / (0.1 + 0.15 + 0.15) = 2.5
        assert!((amdahl(&[0.6, 0.3], &[4.0, 2.0]) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn fmt_is_stable() {
        assert_eq!(fmt(1.0), "1.000");
        assert_eq!(fmt(2.0 / 3.0), "0.667");
    }
}
