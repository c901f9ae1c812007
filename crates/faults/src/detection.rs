//! How a user compares an IP's observed outputs with the vendor's golden
//! outputs: the verdict of every suite replay, the user's validation
//! (`dnnip_core::protocol`) and the Tables II/III experiments
//! (`dnnip_core::detection`) alike.

use dnnip_tensor::Tensor;

/// How user-side outputs are compared against the vendor's golden outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchPolicy {
    /// Only the predicted class (argmax) must match. This is what an IP user with
    /// a classification API can always do.
    ArgMax,
    /// The full output vector must match within an absolute tolerance. Stricter;
    /// requires the IP to expose raw scores.
    OutputTolerance(f32),
}

impl Default for MatchPolicy {
    fn default() -> Self {
        MatchPolicy::OutputTolerance(1e-4)
    }
}

impl MatchPolicy {
    /// Whether `observed` is consistent with `golden` under this policy.
    pub fn matches(&self, golden: &Tensor, observed: &Tensor) -> bool {
        match *self {
            MatchPolicy::ArgMax => match (golden.argmax(), observed.argmax()) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            },
            MatchPolicy::OutputTolerance(tol) => golden.approx_eq(observed, tol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_policies() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![0.2, 0.8, 0.0], &[3]).unwrap();
        let c = Tensor::from_vec(vec![0.9, 0.1, 0.0], &[3]).unwrap();
        assert!(MatchPolicy::ArgMax.matches(&a, &b));
        assert!(!MatchPolicy::ArgMax.matches(&a, &c));
        assert!(!MatchPolicy::OutputTolerance(1e-3).matches(&a, &b));
        assert!(MatchPolicy::OutputTolerance(0.5).matches(&a, &b));
    }
}
