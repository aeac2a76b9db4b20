//! Top-level simulator configuration.

use vagg_cpu::CpuParams;
use vagg_mem::HierarchyParams;

/// Everything needed to instantiate a [`crate::machine::Machine`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Maximum vector length (elements per vector register).
    pub mvl: usize,
    /// Lockstepped vector lanes (a power of two).
    pub lanes: usize,
    /// CAM ports for VPI/VLU/VGAx (the paper's equal `lanes`).
    pub cam_ports: usize,
    /// Core parameters (Table I).
    pub cpu: CpuParams,
    /// Memory system parameters (Tables I and II).
    pub mem: HierarchyParams,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl SimConfig {
    /// The paper's evaluation configuration: `MVL = 64`, `lanes = 4`,
    /// Westmere-like core, DDR3-1333 memory (§III-A).
    pub fn paper() -> Self {
        Self {
            mvl: 64,
            lanes: 4,
            cam_ports: 4,
            cpu: CpuParams::westmere(),
            mem: HierarchyParams::westmere(),
        }
    }

    /// Returns a copy with a different MVL (for the MVL ablation sweeps).
    pub fn with_mvl(mut self, mvl: usize) -> Self {
        assert!(mvl > 0);
        self.mvl = mvl;
        self
    }

    /// Returns a copy with a different lane count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0 && lanes.is_power_of_two());
        self.lanes = lanes;
        self
    }

    /// Returns a copy with a different CAM port count.
    pub fn with_cam_ports(mut self, ports: usize) -> Self {
        assert!(ports > 0);
        self.cam_ports = ports;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_mvl64_lanes4() {
        let c = SimConfig::paper();
        assert_eq!(c.mvl, 64);
        assert_eq!(c.lanes, 4);
        assert_eq!(c.cam_ports, 4);
        assert_eq!(c.mem.l2_size, 256 * 1024);
    }

    #[test]
    fn builders_adjust_fields() {
        let c = SimConfig::paper()
            .with_mvl(128)
            .with_lanes(8)
            .with_cam_ports(2);
        assert_eq!(c.mvl, 128);
        assert_eq!(c.lanes, 8);
        assert_eq!(c.cam_ports, 2);
    }

    #[test]
    #[should_panic]
    fn lanes_must_be_power_of_two() {
        SimConfig::paper().with_lanes(3);
    }
}
