//! A round-robin allocator, used as an ablation reference.

use sqlb_core::allocation::{Allocation, AllocationMethod, CandidateInfo, MediatorView};
use sqlb_types::Query;

/// Allocates queries to candidates in strict rotation, ignoring intentions,
/// utilization and bids.
///
/// Like [`crate::RandomAllocator`], this is not part of the paper's
/// evaluation; it provides a "perfectly even spread by count" reference for
/// ablation benchmarks (note that an even spread by *count* is not an even
/// spread by *load* when provider capacities are heterogeneous).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinAllocator {
    next: u64,
}

impl RoundRobinAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        RoundRobinAllocator::default()
    }
}

impl AllocationMethod for RoundRobinAllocator {
    fn name(&self) -> &'static str {
        "Round-robin"
    }

    fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        _view: &dyn MediatorView,
    ) -> Allocation {
        if candidates.is_empty() {
            return Allocation {
                query: query.id,
                selected: Vec::new(),
            };
        }
        let start = (self.next % candidates.len() as u64) as usize;
        self.next = self.next.wrapping_add(1);
        let n = (query.n as usize).min(candidates.len());
        Allocation {
            query: query.id,
            selected: (0..n)
                .map(|offset| candidates[(start + offset) % candidates.len()].provider)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_core::allocation::UniformView;
    use sqlb_types::{ConsumerId, ProviderId, QueryClass, QueryId, SimTime};

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
    fn rotates_over_candidates() {
        let mut method = RoundRobinAllocator::new();
        let cands = candidates(3);
        let picks: Vec<u32> = (0..6)
            .map(|_| {
                method
                    .allocate(&query(1), &cands, &UniformView(0.5))
                    .selected[0]
                    .raw()
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn multi_provider_queries_wrap_around() {
        let mut method = RoundRobinAllocator::new();
        let cands = candidates(3);
        let alloc = method.allocate(&query(2), &cands, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(0), ProviderId::new(1)]);
        let alloc = method.allocate(&query(2), &cands, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1), ProviderId::new(2)]);
        let alloc = method.allocate(&query(2), &cands, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(2), ProviderId::new(0)]);
    }

    #[test]
    fn handles_empty_candidate_set() {
        let mut method = RoundRobinAllocator::new();
        let alloc = method.allocate(&query(1), &[], &UniformView(0.5));
        assert!(alloc.is_empty());
    }

    #[test]
    fn even_spread_by_count() {
        let mut method = RoundRobinAllocator::new();
        let cands = candidates(4);
        let mut counts = [0u32; 4];
        for _ in 0..400 {
            let alloc = method.allocate(&query(1), &cands, &UniformView(0.5));
            counts[alloc.selected[0].index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100));
    }

    #[test]
    fn name_is_round_robin() {
        assert_eq!(RoundRobinAllocator::new().name(), "Round-robin");
    }
}
