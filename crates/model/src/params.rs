//! Model inputs: machine/loop parameters and loop classes.

/// The quantities the paper assumes known a priori (estimable through
/// static analysis plus measurement).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelParams {
    /// `n`: iterations in the loop.
    pub n: usize,
    /// `p`: processors.
    pub p: usize,
    /// `ω`: useful computation per iteration.
    pub omega: f64,
    /// `ℓ`: cost of redistributing one iteration's data to another
    /// processor.
    pub ell: f64,
    /// `s`: cost of one barrier synchronization.
    pub sync: f64,
}

impl ModelParams {
    /// Total useful work `n·ω`.
    pub fn total_work(&self) -> f64 {
        self.n as f64 * self.omega
    }

    /// Ideal fully parallel time `n·ω/p + s` (the β = 0 case of Eq. 1).
    pub fn ideal_parallel_time(&self) -> f64 {
        self.total_work() / self.p as f64 + self.sync
    }
}

/// Dependence-distribution class of a partially parallel loop
/// (Section 4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoopClass {
    /// A constant fraction `1 − α` of the *remaining* iterations
    /// completes each stage; `alpha` ∈ [0, 1).
    Geometric {
        /// Fraction of remaining iterations that must re-execute.
        alpha: f64,
    },
    /// A constant fraction `1 − β` of the *original* iterations
    /// completes each stage; `beta` ∈ [0, 1).
    Linear {
        /// Fraction of original iterations still failing per stage.
        beta: f64,
    },
}

impl LoopClass {
    /// β = 0 / α = 0: the loop is fully parallel, one stage suffices.
    pub fn fully_parallel() -> Self {
        LoopClass::Linear { beta: 0.0 }
    }

    /// The fully sequential linear loop on `p` processors: exactly one
    /// processor's block completes per stage, `β = (p − 1)/p`.
    pub fn sequential(p: usize) -> Self {
        LoopClass::Linear {
            beta: (p as f64 - 1.0) / p as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_time_is_work_over_p_plus_barrier() {
        let m = ModelParams {
            n: 100,
            p: 4,
            omega: 2.0,
            ell: 0.1,
            sync: 3.0,
        };
        assert_eq!(m.total_work(), 200.0);
        assert_eq!(m.ideal_parallel_time(), 53.0);
    }

    #[test]
    fn sequential_class_beta() {
        match LoopClass::sequential(4) {
            LoopClass::Linear { beta } => assert!((beta - 0.75).abs() < 1e-12),
            _ => panic!(),
        }
    }
}
