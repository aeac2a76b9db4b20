//! Microarchitecture parameters (Table I of the paper).

/// Superscalar out-of-order core parameters, Westmere-like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuParams {
    /// Instructions fetched per cycle.
    pub fetch_width: u64,
    /// Fetch queue entries.
    pub fetch_queue: u64,
    /// Decode/rename width per cycle.
    pub frontend_width: u64,
    /// Frontend pipeline depth (fetch → dispatch), cycles.
    pub frontend_stages: u64,
    /// Dispatch width per cycle.
    pub dispatch_width: u64,
    /// Writeback width per cycle.
    pub writeback_width: u64,
    /// Commit width per cycle.
    pub commit_width: u64,
    /// Reorder buffer entries; at least 1 (`Pipeline::new` refuses 0).
    pub reorder_buffer: usize,
    /// Issue width per execution cluster.
    pub issue_per_cluster: u64,
    /// Issue-queue entries per cluster; at least 1 (`Pipeline::new`
    /// refuses 0).
    pub issue_queue_per_cluster: usize,
    /// Load queue entries; at least 1 (`Pipeline::new` refuses 0).
    pub load_queue: usize,
    /// Store queue entries; at least 1 (`Pipeline::new` refuses 0).
    pub store_queue: usize,
}

impl Default for CpuParams {
    fn default() -> Self {
        Self::westmere()
    }
}

impl CpuParams {
    /// The Table I configuration. The vector setup (lanes, CAM ports)
    /// lives on `vagg_sim::SimConfig`.
    pub fn westmere() -> Self {
        Self {
            fetch_width: 4,
            fetch_queue: 28,
            frontend_width: 4,
            frontend_stages: 17,
            dispatch_width: 4,
            writeback_width: 4,
            commit_width: 4,
            reorder_buffer: 128,
            issue_per_cluster: 1,
            issue_queue_per_cluster: 8,
            load_queue: 48,
            store_queue: 32,
        }
    }
}

/// Execution clusters (§II: six scalar clusters plus the two added vector
/// clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Load address generation.
    LoadAgu,
    /// Store address generation.
    StoreAgu,
    /// Store data.
    StoreData,
    /// Arithmetic (three identical clusters; the model picks the least
    /// loaded).
    ScalarArith,
    /// Vector memory address generation (added cluster #1).
    VecMemAgu,
    /// Vector non-memory execution (added cluster #2, two functional
    /// units).
    VecArith,
}

impl FuKind {
    /// Number of identical clusters of this kind.
    pub fn clusters(self) -> usize {
        match self {
            FuKind::ScalarArith => 3,
            _ => 1,
        }
    }

    /// Functional units inside one cluster of this kind.
    pub fn units_per_cluster(self) -> usize {
        match self {
            FuKind::VecArith => 2,
            _ => 1,
        }
    }

    /// Short display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FuKind::LoadAgu => "load-agu",
            FuKind::StoreAgu => "store-agu",
            FuKind::StoreData => "store-data",
            FuKind::ScalarArith => "scalar-alu",
            FuKind::VecMemAgu => "vec-mem-agu",
            FuKind::VecArith => "vec-exec",
        }
    }

    /// Every cluster family, in declaration order.
    pub const ALL: [FuKind; 6] = [
        FuKind::LoadAgu,
        FuKind::StoreAgu,
        FuKind::StoreData,
        FuKind::ScalarArith,
        FuKind::VecMemAgu,
        FuKind::VecArith,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn westmere_matches_table1() {
        let p = CpuParams::westmere();
        assert_eq!(p.fetch_width, 4);
        assert_eq!(p.fetch_queue, 28);
        assert_eq!(p.frontend_stages, 17);
        assert_eq!(p.reorder_buffer, 128);
        assert_eq!(p.issue_queue_per_cluster, 8);
        assert_eq!(p.load_queue, 48);
        assert_eq!(p.store_queue, 32);
        // Total issue width 6 across the six scalar clusters.
        let scalar_issue = FuKind::LoadAgu.clusters()
            + FuKind::StoreAgu.clusters()
            + FuKind::StoreData.clusters()
            + FuKind::ScalarArith.clusters();
        assert_eq!(scalar_issue as u64 * p.issue_per_cluster, 6);
    }

    #[test]
    fn vector_cluster_has_two_fus() {
        assert_eq!(FuKind::VecArith.units_per_cluster(), 2);
        assert_eq!(FuKind::VecMemAgu.units_per_cluster(), 1);
        assert_eq!(FuKind::ScalarArith.clusters(), 3);
    }
}
