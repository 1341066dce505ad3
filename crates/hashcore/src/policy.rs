//! Eviction policies.

/// How a partition chooses a victim when an insert does not fit.
///
/// The paper evaluates an LRU list (§3.1, Figure 5) and random eviction
/// (§6.3 / Figure 8), which "avoids maintaining any LRU data structures".
/// This crate keeps random eviction and replaces the LRU list with CLOCK
/// (second chance): a hit sets a reference bit in the element it already
/// writes, where an LRU hit rewrites three other elements' links.  On a
/// Zipf(0.99) cache-aside stream CLOCK's hit ratio stays within half a
/// point of exact LRU (`crates/hashcore/tests/clock_model.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// CLOCK: a hand sweeps the element slots, clearing reference bits,
    /// and evicts the first linked element whose bit is already clear.
    #[default]
    Clock,
    /// Evict a (pseudo-)randomly chosen element; reference bits are
    /// ignored.
    Random,
}

impl EvictionPolicy {
    /// Short name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Clock => "clock",
            EvictionPolicy::Random => "random",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_properties() {
        assert_eq!(EvictionPolicy::Clock.name(), "clock");
        assert_eq!(EvictionPolicy::Random.name(), "random");
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Clock);
    }
}
