//! The Capacity based baseline (Section 6.2.1).

use sqlb_core::{
    allocation::{select_best, Allocation, AllocationMethod, CandidateInfo, MediatorView},
    scoring::RankedProvider,
};
use sqlb_types::Query;

/// Allocates each incoming query to the providers with the highest
/// available capacity among `P_q`, i.e. the least utilized ones.
///
/// "Capacity based has been shown to operate well in heterogeneous
/// distributed information systems. Hence, we use it as baseline method in
/// our simulations. Note that Capacity based does not take into account the
/// consumers nor providers' intentions." (Section 6.2.1.)
///
/// The candidate's score is `−Ut(p)`, so ranking by decreasing score yields
/// the least-utilized providers first; ties are broken by provider
/// identifier.
#[derive(Debug, Clone, Default)]
pub struct CapacityBased {
    scratch: Vec<RankedProvider>,
}

impl CapacityBased {
    /// Creates the allocator.
    pub fn new() -> Self {
        CapacityBased::default()
    }
}

impl AllocationMethod for CapacityBased {
    fn name(&self) -> &'static str {
        "Capacity based"
    }

    fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        _view: &dyn MediatorView,
    ) -> Allocation {
        let mut scored = std::mem::take(&mut self.scratch);
        scored.clear();
        scored.extend(candidates.iter().map(|c| RankedProvider {
            provider: c.provider,
            score: -c.utilization,
        }));
        let allocation = select_best(query, &mut scored);
        self.scratch = scored;
        allocation
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

    fn candidate(id: u32, utilization: f64, ci: f64, pi: f64) -> CandidateInfo {
        CandidateInfo::new(ProviderId::new(id))
            .with_utilization(utilization)
            .with_consumer_intention(ci)
            .with_provider_intention(pi)
    }

    #[test]
    fn selects_least_utilized_provider() {
        let mut method = CapacityBased::new();
        // Table 1: p1 has the most available capacity (0.85) and p5 none.
        let candidates = vec![
            candidate(1, 0.15, -1.0, 1.0),
            candidate(2, 0.43, 1.0, -1.0),
            candidate(3, 0.78, -1.0, 1.0),
            candidate(4, 0.85, 1.0, -1.0),
            candidate(5, 1.0, 1.0, 1.0),
        ];
        let alloc = method.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
        // With q.n = 2 the two least utilized are selected regardless of
        // anyone's intentions — exactly the failure mode the paper's
        // motivating example points out.
        let alloc = method.allocate(&query(2), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1), ProviderId::new(2)]);
    }

    #[test]
    fn ignores_intentions_entirely() {
        let mut method = CapacityBased::new();
        let favourable = vec![candidate(0, 0.5, 1.0, 1.0), candidate(1, 0.4, -1.0, -1.0)];
        let alloc = method.allocate(&query(1), &favourable, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn ties_broken_by_identifier() {
        let mut method = CapacityBased::new();
        let candidates = vec![candidate(3, 0.2, 0.0, 0.0), candidate(1, 0.2, 0.0, 0.0)];
        let alloc = method.allocate(&query(1), &candidates, &UniformView(0.5));
        assert_eq!(alloc.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn empty_candidate_set_yields_empty_allocation() {
        let mut method = CapacityBased::new();
        let alloc = method.allocate(&query(1), &[], &UniformView(0.5));
        assert!(alloc.is_empty());
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(CapacityBased::new().name(), "Capacity based");
    }
}
