//! Algorithm 1: greedy selection of functional tests from the training set.
//!
//! Each iteration adds the candidate whose activation set contributes the most
//! not-yet-covered parameters (Eq. 7). Because the activation set of a sample
//! does not change as the selection grows, the selection can run entirely over
//! pre-computed covered-unit sets; a lazy-greedy (CELF-style) priority queue
//! avoids re-evaluating every candidate at every iteration while producing
//! exactly the same selection as the naive double loop in the paper's
//! Algorithm 1 (the marginal-gain function is submodular, so stale upper
//! bounds are safe). [`greedy_select_naive`] is that double loop, kept as the
//! test oracle.
//!
//! **Prefix stability.** The loop's state evolves the same way whatever the
//! budget is, until no candidate adds coverage: the budget only decides when
//! it stops. So the selection at budget `b` is the first `b` picks of the
//! selection at any larger budget. A Fig. 3 sweep runs several budgets over
//! one pool, and an [`crate::eval::Evaluator`] keeps its last selection
//! suspended: the next budget over the same pool resumes it, or returns a
//! prefix of it, instead of starting from an empty union.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use crate::bitset::Bitset;
use crate::covered::CoveredSet;
use crate::{CoreError, Result};

/// Result of a greedy training-set selection.
#[derive(Debug, Clone, Default)]
pub struct SelectionResult {
    /// Indices of the selected candidates, in selection order.
    pub selected: Vec<usize>,
    /// Validation coverage after each selection (same length as `selected`).
    pub coverage_curve: Vec<f32>,
    /// Union of the activation sets of the selected candidates.
    pub covered: Bitset,
}

impl SelectionResult {
    /// Final validation coverage (0.0 if nothing was selected).
    pub fn final_coverage(&self) -> f32 {
        self.coverage_curve.last().copied().unwrap_or(0.0)
    }
}

/// Greedy max-coverage selection over pre-computed covered-unit sets (any
/// [`crate::criterion::CoverageCriterion`]'s — the algorithm only sees
/// sets over `num_units` positions). The sets are block-compressed
/// [`CoveredSet`]s, so cached sets are consumed in place (no dense
/// expansion); wrap dense sets with [`CoveredSet::from_bitset`].
///
/// Selects at most `max_tests` candidates; stops early when no candidate adds any
/// new coverage (additional tests would be wasted). Ties go to the lowest
/// index, so the selection and coverage curve equal
/// [`greedy_select_naive`]'s (pinned by the differential suites in
/// `tests/proptests.rs`).
///
/// # Errors
///
/// Returns [`CoreError::EmptyCandidatePool`] when `sets` is empty and
/// [`CoreError::InvalidConfig`] when `num_units` is zero or a set has the
/// wrong length.
pub fn greedy_select_covered(
    sets: &[Arc<CoveredSet>],
    num_units: usize,
    max_tests: usize,
) -> Result<SelectionResult> {
    let mut greedy = LazyGreedy::start(sets, num_units)?;
    greedy.extend_to(sets, max_tests);
    Ok(SelectionResult {
        selected: greedy.selected,
        coverage_curve: greedy.curve,
        covered: greedy.covered.to_bitset(),
    })
}

/// The lazy-greedy loop of [`greedy_select_covered`], suspendable between
/// budgets. It holds no sets: every call passes the pool it started on.
#[derive(Debug)]
struct LazyGreedy {
    num_units: usize,
    /// Union of the selected candidates' sets.
    covered: CoveredSet,
    /// Running cardinality of `covered`: a fresh bound IS the exact marginal
    /// gain of the accepted candidate, so the union's popcount is tracked by
    /// integer addition instead of re-scanning every word each round.
    covered_count: usize,
    /// Heap of (upper-bound gain, candidate, round the bound was computed
    /// in). Gains only shrink as `covered` grows, so a bound computed in an
    /// earlier round is still an upper bound now.
    heap: BinaryHeap<(usize, Reverse<usize>, usize)>,
    round: usize,
    taken: Vec<bool>,
    selected: Vec<usize>,
    curve: Vec<f32>,
    /// No remaining candidate adds coverage: the selection is final.
    exhausted: bool,
}

impl LazyGreedy {
    /// An empty selection over `sets`.
    fn start(sets: &[Arc<CoveredSet>], num_units: usize) -> Result<Self> {
        if sets.is_empty() {
            return Err(CoreError::EmptyCandidatePool);
        }
        if num_units == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "criterion has no coverable units".to_string(),
            });
        }
        if let Some(bad) = sets.iter().find(|s| s.len() != num_units) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "covered-unit set length {} does not match unit count {num_units}",
                    bad.len()
                ),
            });
        }
        Ok(Self {
            num_units,
            covered: CoveredSet::new(num_units),
            covered_count: 0,
            heap: sets
                .iter()
                .enumerate()
                .map(|(i, s)| (s.count_ones(), Reverse(i), 0usize))
                .collect(),
            round: 0,
            taken: vec![false; sets.len()],
            selected: Vec::new(),
            curve: Vec::new(),
            exhausted: false,
        })
    }

    /// Select until `max_tests` candidates are selected or none adds
    /// coverage. `sets` must be the pool the selection started on.
    fn extend_to(&mut self, sets: &[Arc<CoveredSet>], max_tests: usize) {
        debug_assert_eq!(sets.len(), self.taken.len());
        while !self.exhausted && self.selected.len() < max_tests {
            let Some((bound, Reverse(candidate), computed_round)) = self.heap.pop() else {
                self.exhausted = true;
                break;
            };
            if self.taken[candidate] {
                continue;
            }
            if bound == 0 {
                // Best possible gain is zero: every remaining candidate is redundant.
                self.exhausted = true;
                break;
            }
            if computed_round == self.round {
                // The bound is fresh: this candidate really is the arg-max.
                self.covered.union_with(&sets[candidate]);
                self.covered_count += bound;
                self.taken[candidate] = true;
                self.selected.push(candidate);
                self.curve
                    .push(self.covered_count as f32 / self.num_units as f32);
                self.round += 1;
            } else {
                // Stale bound: recompute against the current covered set and re-queue.
                let gain = self.covered.union_gain(&sets[candidate]);
                self.heap.push((gain, Reverse(candidate), self.round));
            }
        }
    }
}

/// One suspended selection and the pool it ran over: an [`crate::eval::Evaluator`]'s
/// memory of its last selection, so a budget sweep over one pool resumes
/// instead of starting again.
///
/// The pool is identified by the addresses of its cached set handles, held
/// as [`Weak`]s: the slot never keeps an evicted set alive, and an address a
/// `Weak` still points at is never reused by another allocation. A set that
/// was evicted and reloaded gets a new handle, so its pool starts afresh.
#[derive(Debug, Default)]
pub(crate) struct SelectionSlot {
    /// Holds nothing or a complete state, so a poisoned lock is safe to reuse.
    suspended: Mutex<Option<(Vec<Weak<CoveredSet>>, LazyGreedy)>>,
}

impl SelectionSlot {
    /// The first `budget` picks of the greedy selection over `sets`: exactly
    /// [`greedy_select_covered`]'s `selected`, resumed from the suspended
    /// state when `sets` holds the same handles in the same order.
    ///
    /// The state is taken out of the slot, extended without holding the lock
    /// and put back, so concurrent selections never wait on each other (the
    /// last one to finish is the one kept).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`greedy_select_covered`].
    pub(crate) fn select(
        &self,
        sets: &[Arc<CoveredSet>],
        num_units: usize,
        budget: usize,
    ) -> Result<Vec<usize>> {
        let same_pool = |pool: &[Weak<CoveredSet>]| {
            pool.len() == sets.len()
                && pool
                    .iter()
                    .zip(sets)
                    .all(|(w, s)| std::ptr::eq(w.as_ptr(), Arc::as_ptr(s)))
        };
        let suspended = self.lock().take();
        let (pool, mut greedy) = match suspended {
            Some((pool, greedy)) if greedy.num_units == num_units && same_pool(&pool) => {
                (pool, greedy)
            }
            _ => (
                sets.iter().map(Arc::downgrade).collect(),
                LazyGreedy::start(sets, num_units)?,
            ),
        };
        greedy.extend_to(sets, budget);
        let picks = greedy.selected[..budget.min(greedy.selected.len())].to_vec();
        *self.lock() = Some((pool, greedy));
        Ok(picks)
    }

    fn lock(&self) -> MutexGuard<'_, Option<(Vec<Weak<CoveredSet>>, LazyGreedy)>> {
        self.suspended
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reference implementation of Algorithm 1 exactly as written in the paper
/// (recompute ΔVC for every candidate at every iteration). Quadratic; used by
/// tests to prove the lazy-greedy selection is equivalent and by the ablation
/// bench to quantify the speedup.
///
/// # Errors
///
/// Same error conditions as [`greedy_select_covered`].
pub fn greedy_select_naive(
    sets: &[Bitset],
    num_units: usize,
    max_tests: usize,
) -> Result<SelectionResult> {
    if sets.is_empty() {
        return Err(CoreError::EmptyCandidatePool);
    }
    if num_units == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "criterion has no coverable units".to_string(),
        });
    }
    let mut covered = Bitset::new(num_units);
    let mut result = SelectionResult {
        covered: Bitset::new(num_units),
        ..SelectionResult::default()
    };
    // Same running-cardinality trick as the lazy variant: the accepted gain
    // is exact, so no per-round popcount re-scan of the union.
    let mut covered_count = 0usize;
    let mut taken = vec![false; sets.len()];
    while result.selected.len() < max_tests {
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (i, set) in sets.iter().enumerate() {
            if taken[i] {
                continue;
            }
            let gain = covered.union_gain(set);
            let better = match best {
                None => true,
                Some((bg, bi)) => gain > bg || (gain == bg && i < bi),
            };
            if better {
                best = Some((gain, i));
            }
        }
        let Some((gain, index)) = best else { break };
        if gain == 0 {
            break;
        }
        covered.union_with(&sets[index]);
        covered_count += gain;
        taken[index] = true;
        result.selected.push(index);
        result
            .coverage_curve
            .push(covered_count as f32 / num_units as f32);
    }
    result.covered = covered;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageConfig;
    use crate::eval::Evaluator;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;
    use dnnip_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn handles(sets: &[Bitset]) -> Vec<Arc<CoveredSet>> {
        sets.iter()
            .map(|b| Arc::new(CoveredSet::from_bitset(b)))
            .collect()
    }

    /// [`greedy_select_covered`] over dense sets.
    fn lazy(sets: &[Bitset], num_units: usize, max_tests: usize) -> Result<SelectionResult> {
        greedy_select_covered(&handles(sets), num_units, max_tests)
    }

    fn random_sets(n: usize, bits: usize, density: f64, seed: u64) -> Vec<Bitset> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut b = Bitset::new(bits);
                for i in 0..bits {
                    if rng.gen_bool(density) {
                        b.set(i);
                    }
                }
                b
            })
            .collect()
    }

    #[test]
    fn picks_the_obviously_best_candidates_first() {
        // Candidate 2 covers bits {0..20}, candidate 0 covers {0..5}, candidate 1
        // covers {20..30}: greedy must pick 2 first, then 1.
        let mut sets = vec![Bitset::new(40), Bitset::new(40), Bitset::new(40)];
        for i in 0..5 {
            sets[0].set(i);
        }
        for i in 20..30 {
            sets[1].set(i);
        }
        for i in 0..20 {
            sets[2].set(i);
        }
        let result = lazy(&sets, 40, 3).unwrap();
        assert_eq!(result.selected[..2], [2, 1]);
        assert!((result.final_coverage() - 30.0 / 40.0).abs() < 1e-6);
        // Coverage curve is non-decreasing.
        for w in result.coverage_curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn stops_when_no_candidate_adds_coverage() {
        let mut a = Bitset::new(10);
        a.set(1);
        let sets = vec![a.clone(), a.clone(), a];
        let result = lazy(&sets, 10, 3).unwrap();
        assert_eq!(result.selected.len(), 1, "duplicates add nothing");
    }

    #[test]
    fn lazy_and_naive_selection_agree() {
        for seed in 0..5 {
            let sets = random_sets(60, 300, 0.05, seed);
            let lazy = lazy(&sets, 300, 20).unwrap();
            let naive = greedy_select_naive(&sets, 300, 20).unwrap();
            assert_eq!(lazy.coverage_curve, naive.coverage_curve, "seed {seed}");
            assert_eq!(
                lazy.covered.count_ones(),
                naive.covered.count_ones(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn respects_the_test_budget() {
        let sets = random_sets(50, 200, 0.1, 3);
        let result = lazy(&sets, 200, 7).unwrap();
        assert!(result.selected.len() <= 7);
        assert_eq!(result.selected.len(), result.coverage_curve.len());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            lazy(&[], 10, 5),
            Err(CoreError::EmptyCandidatePool)
        ));
        let sets = vec![Bitset::new(10)];
        assert!(lazy(&sets, 0, 5).is_err());
        let mismatched = vec![Bitset::new(10), Bitset::new(20)];
        assert!(lazy(&mismatched, 10, 5).is_err());
        assert!(greedy_select_naive(&[], 10, 5).is_err());
    }

    #[test]
    fn a_suspended_selection_resumes_to_the_fresh_one() {
        let dense = random_sets(40, 256, 0.06, 11);
        let sets = handles(&dense);
        let slot = SelectionSlot::default();
        for budget in [1, 5, 3, 12, 40, 2] {
            let fresh = greedy_select_naive(&dense, 256, budget).unwrap().selected;
            assert_eq!(
                slot.select(&sets, 256, budget).unwrap(),
                fresh,
                "budget {budget}"
            );
        }
        // The same sets under new handles (a reloaded pool) start afresh and
        // agree too; a pool with a different order is a different pool.
        let reloaded = handles(&dense);
        let fresh = greedy_select_naive(&dense, 256, 7).unwrap().selected;
        assert_eq!(slot.select(&reloaded, 256, 7).unwrap(), fresh);
        let mut reversed_dense = dense.clone();
        reversed_dense.reverse();
        let reversed: Vec<Arc<CoveredSet>> = sets.iter().rev().cloned().collect();
        let fresh = greedy_select_naive(&reversed_dense, 256, 7)
            .unwrap()
            .selected;
        assert_eq!(slot.select(&reversed, 256, 7).unwrap(), fresh);
        assert!(matches!(
            slot.select(&[], 256, 3),
            Err(CoreError::EmptyCandidatePool)
        ));
        assert!(slot.select(&sets, 255, 3).is_err(), "wrong unit count");
    }

    #[test]
    fn a_poisoned_selection_slot_still_selects_correctly() {
        let dense = random_sets(30, 200, 0.08, 5);
        let sets = handles(&dense);
        let slot = SelectionSlot::default();
        slot.select(&sets, 200, 4).unwrap();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = slot.suspended.lock().unwrap();
                panic!("poisoning the selection slot");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(slot.suspended.is_poisoned());
        for budget in [9, 2] {
            let fresh = greedy_select_naive(&dense, 200, budget).unwrap().selected;
            assert_eq!(
                slot.select(&sets, 200, budget).unwrap(),
                fresh,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn end_to_end_selection_on_a_real_network() {
        let net = zoo::tiny_mlp(6, 10, 4, Activation::Relu, 2).unwrap();
        let evaluator = Evaluator::new(&net, CoverageConfig::default());
        let candidates: Vec<Tensor> = (0..20)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 6 + j) as f32 * 0.29).sin()))
            .collect();
        let select = |budget| {
            let sets = evaluator.activation_sets(&candidates)?;
            greedy_select_covered(&sets, evaluator.num_units(), budget)
        };
        let result = select(5).unwrap();
        assert!(!result.selected.is_empty());
        assert!(result.final_coverage() > 0.0);
        // Selecting more tests never hurts coverage — and the second, larger
        // selection over the same pool is answered entirely from the cache.
        let misses_before = evaluator.cache_stats().misses;
        let more = select(10).unwrap();
        assert!(more.final_coverage() >= result.final_coverage());
        assert_eq!(
            evaluator.cache_stats().misses,
            misses_before,
            "repeat selection recomputed activation sets"
        );
        assert!(greedy_select_covered(&evaluator.activation_sets(&[]).unwrap(), 10, 5).is_err());
    }
}
