//! A seeded random allocator, used as an ablation reference.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sqlb_core::allocation::{Allocation, AllocationMethod, CandidateInfo, MediatorView};
use sqlb_types::Query;

/// Allocates every query to `min(q.n, N)` providers drawn uniformly at
/// random from the candidate set. Deterministic for a given seed.
///
/// Not part of the paper's evaluation; used by the ablation benchmarks to
/// show how much of SQLB's behaviour comes from its scoring as opposed to
/// mere spreading of the load.
#[derive(Debug, Clone)]
pub struct RandomAllocator {
    rng: StdRng,
    order: Vec<usize>,
}

impl RandomAllocator {
    /// Creates an allocator with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomAllocator {
            rng: StdRng::seed_from_u64(seed),
            order: Vec::new(),
        }
    }
}

impl Default for RandomAllocator {
    fn default() -> Self {
        RandomAllocator::new(0)
    }
}

impl AllocationMethod for RandomAllocator {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        _view: &dyn MediatorView,
    ) -> Allocation {
        self.order.clear();
        self.order.extend(0..candidates.len());
        self.order.shuffle(&mut self.rng);
        let n = (query.n as usize).min(candidates.len());
        Allocation {
            query: query.id,
            selected: self.order[..n]
                .iter()
                .map(|&idx| candidates[idx].provider)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_core::allocation::UniformView;
    use sqlb_types::{ConsumerId, ProviderId, QueryClass, QueryId, SimTime};
    use std::collections::HashSet;

    fn query(n: u32) -> Query {
        let mut q = Query::single(
            QueryId::new(1),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        q.n = n;
        q
    }

    fn candidates(n: u32) -> Vec<CandidateInfo> {
        (0..n)
            .map(|i| CandidateInfo::new(ProviderId::new(i)))
            .collect()
    }

    #[test]
    fn selects_the_requested_number_without_duplicates() {
        let mut method = RandomAllocator::new(42);
        let cands = candidates(10);
        for n in 1..=5 {
            let alloc = method.allocate(&query(n), &cands, &UniformView(0.5));
            assert_eq!(alloc.len(), n as usize);
            let unique: HashSet<_> = alloc.selected.iter().collect();
            assert_eq!(unique.len(), n as usize);
        }
    }

    #[test]
    fn same_seed_gives_same_sequence() {
        let cands = candidates(8);
        let mut a = RandomAllocator::new(7);
        let mut b = RandomAllocator::new(7);
        for i in 0..20 {
            let mut q = query(2);
            q.id = QueryId::new(i);
            assert_eq!(
                a.allocate(&q, &cands, &UniformView(0.5)).selected,
                b.allocate(&q, &cands, &UniformView(0.5)).selected
            );
        }
    }

    #[test]
    fn different_seeds_eventually_differ() {
        let cands = candidates(8);
        let mut a = RandomAllocator::new(1);
        let mut b = RandomAllocator::new(2);
        let q = query(1);
        let differs = (0..50).any(|_| {
            a.allocate(&q, &cands, &UniformView(0.5)).selected
                != b.allocate(&q, &cands, &UniformView(0.5)).selected
        });
        assert!(differs);
    }

    #[test]
    fn covers_all_providers_over_time() {
        let mut method = RandomAllocator::new(3);
        let cands = candidates(5);
        let mut seen = HashSet::new();
        for _ in 0..200 {
            let alloc = method.allocate(&query(1), &cands, &UniformView(0.5));
            seen.insert(alloc.selected[0]);
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn name_is_random() {
        assert_eq!(RandomAllocator::default().name(), "Random");
    }
}
