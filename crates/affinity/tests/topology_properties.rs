//! Property-based tests for topology arithmetic: for arbitrary (sockets ×
//! cores × SMT) machine shapes, the hardware-thread numbering is a
//! bijection that the core / socket / sibling accessors invert.

use proptest::prelude::*;

use cphash_affinity::{CoreId, Topology};

fn topology() -> impl Strategy<Value = Topology> {
    (1usize..8, 1usize..12, 1usize..3).prop_map(|(sockets, cores, smt)| Topology {
        sockets,
        cores_per_socket: cores,
        threads_per_core: smt,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hw_thread_mapping_is_a_bijection(topo in topology()) {
        let mut seen = std::collections::HashSet::new();
        for core in (0..topo.total_cores()).map(CoreId) {
            for smt in 0..topo.threads_per_core {
                let hw = topo.hw_thread(core, smt);
                prop_assert!(hw.0 < topo.total_hw_threads());
                prop_assert!(seen.insert(hw), "hardware thread assigned twice");
                prop_assert_eq!(topo.core_of_hw_thread(hw), core);
                prop_assert_eq!(topo.smt_index(hw), smt);
                prop_assert_eq!(
                    topo.socket_of_hw_thread(hw),
                    topo.socket_of_core(core)
                );
            }
        }
        prop_assert_eq!(seen.len(), topo.total_hw_threads());
    }
}
