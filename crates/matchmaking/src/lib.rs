//! # sqlb-matchmaking
//!
//! The matchmaking substrate of the SQLB system.
//!
//! The paper assumes the existence of a sound and complete matchmaking
//! procedure that, given the description `q.d` of a query, returns the set
//! `P_q` of providers able to treat it (Section 2: "There is a large body
//! of work on matchmaking … so we do not focus on this problem and we
//! assume there exists one in the system that is sound and complete").
//!
//! This crate provides that substrate: [`CapabilityRegistry`] — providers
//! declare their capabilities ("Providers declare their capabilities for
//! performing queries to the mediator", Section 1) as a set of topics and
//! attributes, and [`CapabilityRegistry::matching_providers`] returns the
//! sound and complete `P_q` of a query description: every provider that
//! declares a capability whose topic is a path prefix of the query topic
//! and which covers every attribute the query requires.
//!
//! The paper's evaluation uses the degenerate case where "all the
//! providers in the system are able to perform all the incoming queries"
//! (Section 6.1); the simulator models that by handing each shard's full
//! provider set to the allocator, and filters through this registry only
//! when capability matchmaking is switched on (`sqlb-sim`'s
//! `ClassMatchmaker`).

#![warn(missing_docs)]

pub mod registry;

pub use registry::{Capability, CapabilityRegistry};

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::{ProviderId, QueryClass, QueryDescription};

    fn topic(topic: &str) -> QueryDescription {
        QueryDescription::with_topic(topic, QueryClass::Light)
    }

    #[test]
    fn topic_matcher_filters_by_capability() {
        let mut registry = CapabilityRegistry::new();
        registry.register(
            ProviderId::new(0),
            Capability::new("shipping").with_attribute("origin:FR"),
        );
        registry.register(ProviderId::new(1), Capability::new("computing"));

        assert_eq!(
            registry.matching_providers(&topic("shipping/international")),
            vec![ProviderId::new(0)]
        );
        assert_eq!(
            registry.matching_providers(&topic("computing/cpu")),
            vec![ProviderId::new(1)]
        );
        // No capable provider: the query is infeasible.
        assert!(registry.matching_providers(&topic("catering")).is_empty());
    }

    #[test]
    fn topic_matcher_requires_attributes() {
        let mut registry = CapabilityRegistry::new();
        registry.register(
            ProviderId::new(0),
            Capability::new("shipping")
                .with_attribute("origin:FR")
                .with_attribute("destination:US"),
        );
        registry.register(ProviderId::new(1), Capability::new("shipping"));

        let description = topic("shipping").attribute("origin:FR");
        // Only p0 declares the required attribute.
        assert_eq!(
            registry.matching_providers(&description),
            vec![ProviderId::new(0)]
        );
    }
}
