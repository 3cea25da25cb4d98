//! Build- and query-time configuration.

use ah_contraction::ContractionConfig;

/// Index construction knobs. The defaults reproduce the paper's AH; the
/// flags exist for the ablation experiments called out in DESIGN.md.
#[derive(Debug, Clone, Copy)]
pub struct BuildConfig {
    /// Cap on the number of grid levels `h` (paper: ≤ 26).
    pub max_levels: u32,
    /// Witness-search budget for shortcut construction.
    pub contraction: ContractionConfig,
    /// Order each level by the greedy vertex cover of its pseudo-arterial
    /// edges (Section 4.4). When false, an arbitrary (hashed) in-level
    /// order is used — the paper notes any strict total order is correct.
    pub vertex_cover_rank: bool,
    /// Downgrade cores that the vertex cover skipped (Section 4.4's
    /// optimization reducing high-level node counts).
    pub downgrade_non_cover: bool,
    /// Build elevating-edge sets for border nodes (Sections 4.2/4.3),
    /// within [`ELEVATING_SETTLE_LIMIT`] and [`ELEVATING_MAX_ARCS`].
    pub elevating_edges: bool,
}

/// Settle budget per elevating-set search; a search that exceeds it is
/// discarded (queries fall back to normal arcs at that node — always
/// correct, possibly slower).
pub const ELEVATING_SETTLE_LIMIT: usize = 1024;

/// Maximum number of jump targets per (node, level) elevating set;
/// larger sets are discarded. Keeps both the index size and the
/// query-time fan-out bounded (the paper's λ² bound in spirit).
pub const ELEVATING_MAX_ARCS: usize = 48;

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            max_levels: 26,
            contraction: ContractionConfig::default(),
            vertex_cover_rank: true,
            downgrade_non_cover: true,
            elevating_edges: true,
        }
    }
}

/// Query-time constraint toggles (ablation instrumentation; all `true`
/// reproduces the paper's query algorithm).
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Apply the proximity constraint (Sections 3.2/4.3).
    pub proximity: bool,
    /// Follow elevating edges (Section 4.3).
    pub elevating: bool,
    /// Stall-on-demand pruning (an engineering optimization shared with
    /// CH implementations; does not change results).
    pub stall_on_demand: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            proximity: true,
            elevating: true,
            stall_on_demand: true,
        }
    }
}
