//! The paper's own headline numbers, for side-by-side printing.
//!
//! Absolute throughput on the 80-core testbed is not reproducible on a
//! laptop-class host; what the harnesses check (and EXPERIMENTS.md records)
//! is the *shape*: who wins, by roughly what factor, and where the
//! crossovers sit.  These constants are the paper's claims, quoted where the
//! figures/text state them.

/// §1 / §6.1: CPHash throughput advantage over LockHash in the cached
/// working-set range (256 KB – 128 MB): "a factor of 1.6× to 2×".
pub const FIG5_SPEEDUP_RANGE: (f64, f64) = (1.6, 2.0);

/// Figure 6: cycles per operation.
pub mod fig6 {
    /// CPHash client cycles per operation.
    pub const CPHASH_CLIENT_CYCLES: f64 = 1126.0;
    /// CPHash server cycles per operation.
    pub const CPHASH_SERVER_CYCLES: f64 = 672.0;
    /// LockHash cycles per operation.
    pub const LOCKHASH_CYCLES: f64 = 3664.0;
    /// Per-operation L2 misses (client, server, lockhash).
    pub const L2_MISSES: (f64, f64, f64) = (1.0, 2.5, 2.4);
    /// Per-operation L3 misses (client, server, lockhash).
    pub const L3_MISSES: (f64, f64, f64) = (1.9, 1.2, 4.6);
    /// L2 miss cost in cycles (cphash, lockhash).
    pub const L2_COST: (f64, f64) = (64.0, 170.0);
    /// L3 miss cost in cycles (cphash, lockhash).
    pub const L3_COST: (f64, f64) = (381.0, 1421.0);
}

/// Figure 7 totals: (L2 misses/op, L3 misses/op).
pub mod fig7 {
    /// LockHash total misses per operation.
    pub const LOCKHASH_TOTAL: (f64, f64) = (2.4, 4.6);
    /// CPHash client totals.
    pub const CPHASH_CLIENT_TOTAL: (f64, f64) = (1.0, 1.9);
    /// CPHash server totals.
    pub const CPHASH_SERVER_TOTAL: (f64, f64) = (2.5, 1.2);
}

/// §6.3: with random eviction the advantage drops but stays significant
/// ("1.45× at 4 MB").
pub const FIG8_SPEEDUP_AT_4MB: f64 = 1.45;

/// §7: hash-table work is ~30 % of CPSERVER's per-request cost, so the
/// 1.6× table win translates into ~11 % at most; measured ~5 %.
pub const FIG13_SERVER_SPEEDUP: f64 = 1.05;

/// §6.2: server threads spend 59 % of their time processing operations.
pub const SERVER_UTILIZATION: f64 = 0.59;

/// Compare a measured CPHash/LockHash throughput ratio against the paper's
/// Figure 5 claim, returning a short verdict string for the report.
pub fn verdict_fig5(ratio: f64) -> String {
    let (lo, hi) = FIG5_SPEEDUP_RANGE;
    if ratio >= lo {
        format!("measured {ratio:.2}x — matches the paper's {lo:.1}x–{hi:.1}x claim")
    } else if ratio >= 1.0 {
        format!("measured {ratio:.2}x — CPHash ahead but below the paper's {lo:.1}x–{hi:.1}x")
    } else {
        format!("measured {ratio:.2}x — CPHash behind LockHash at this point")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_are_sane() {
        assert!(FIG5_SPEEDUP_RANGE.0 < FIG5_SPEEDUP_RANGE.1);
        assert!(fig6::LOCKHASH_CYCLES > fig6::CPHASH_CLIENT_CYCLES);
        assert!(fig6::L3_COST.1 > fig6::L3_COST.0);
        assert!(FIG8_SPEEDUP_AT_4MB > 1.0);
        assert!(SERVER_UTILIZATION > 0.0 && SERVER_UTILIZATION < 1.0);
    }

    #[test]
    fn verdict_strings_cover_all_cases() {
        assert!(verdict_fig5(1.8).contains("matches"));
        assert!(verdict_fig5(1.2).contains("ahead"));
        assert!(verdict_fig5(0.8).contains("behind"));
    }
}
