//! Cluster shape and rank arithmetic.

/// A global GPU rank in `0..world_size`.
pub type Rank = usize;

/// A homogeneous cluster of `nodes` machines with `gpus_per_node` GPUs each.
///
/// Ranks are assigned node-major: rank `r` lives on node `r / gpus_per_node`
/// with local index `r % gpus_per_node`, matching the paper's testbed layout
/// and typical MPI rank-by-node ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    gpus_per_node: usize,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        assert!(nodes > 0, "at least one node required");
        assert!(gpus_per_node > 0, "at least one GPU per node required");
        Topology {
            nodes,
            gpus_per_node,
        }
    }

    /// The paper's evaluation cluster: 8 nodes × 4 GPUs (§6.1, Table 3).
    pub fn paper_testbed() -> Self {
        Topology::new(8, 4)
    }

    /// Number of nodes `N`.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// GPUs per node `M`.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Total GPU count `P = N × M`.
    pub fn world_size(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// The node hosting `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: Rank) -> usize {
        assert!(rank < self.world_size(), "rank {rank} out of range");
        rank / self.gpus_per_node
    }

    /// The within-node index of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn local_rank(&self, rank: Rank) -> usize {
        assert!(rank < self.world_size(), "rank {rank} out of range");
        rank % self.gpus_per_node
    }

    /// Whether two ranks share a node (so their traffic is intra-node).
    pub fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The global rank of `(node, local)`.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    pub fn rank_of(&self, node: usize, local: usize) -> Rank {
        assert!(node < self.nodes, "node {node} out of range");
        assert!(
            local < self.gpus_per_node,
            "local rank {local} out of range"
        );
        node * self.gpus_per_node + local
    }

    /// All ranks on `node`, in local order.
    pub fn node_ranks(&self, node: usize) -> Vec<Rank> {
        (0..self.gpus_per_node)
            .map(|l| self.rank_of(node, l))
            .collect()
    }

    /// Iterator over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        0..self.world_size()
    }

    /// Ranks with the same local index on every node (a "rail"): the peer
    /// group that 2D-hierarchical A2A uses for its inter-node phase.
    pub fn rail_ranks(&self, local: usize) -> Vec<Rank> {
        assert!(
            local < self.gpus_per_node,
            "local rank {local} out of range"
        );
        (0..self.nodes).map(|n| self.rank_of(n, local)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_is_8x4() {
        let t = Topology::paper_testbed();
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.gpus_per_node(), 4);
        assert_eq!(t.world_size(), 32);
    }

    #[test]
    fn rank_arithmetic_round_trips() {
        let t = Topology::new(3, 4);
        for r in t.ranks() {
            assert_eq!(t.rank_of(t.node_of(r), t.local_rank(r)), r);
        }
    }

    #[test]
    fn same_node_groups_consecutive_ranks() {
        let t = Topology::new(2, 4);
        assert!(t.same_node(0, 3));
        assert!(!t.same_node(3, 4));
        assert!(t.same_node(4, 7));
    }

    #[test]
    fn node_ranks_and_rails_partition_the_world() {
        let t = Topology::new(3, 2);
        assert_eq!(t.node_ranks(1), vec![2, 3]);
        assert_eq!(t.rail_ranks(0), vec![0, 2, 4]);
        assert_eq!(t.rail_ranks(1), vec![1, 3, 5]);
        // Every rank appears in exactly one node group and one rail.
        let mut seen = vec![0usize; t.world_size()];
        for n in 0..t.nodes() {
            for r in t.node_ranks(n) {
                seen[r] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        Topology::new(2, 2).node_of(4);
    }
}
