//! The workspace's single graph currency: a flat compressed sparse row
//! (CSR) adjacency.
//!
//! Every layer that touches graph structure — bit-level CDFG construction
//! (`glaive-cdfg`), the GraphSAGE kernels (`glaive-gnn`) and the pipeline
//! (`glaive` core) — speaks [`CsrGraph`]: one `offsets` array (`n + 1`
//! entries) and one flat `targets` array. Row contents are sorted and
//! de-duplicated, so a row is a canonical neighbourhood and two graphs are
//! equal iff their flat arrays are equal.
//!
//! Invariants (upheld by every constructor):
//!
//! - `offsets.len() == node_count + 1`, `offsets[0] == 0`, non-decreasing.
//! - `targets.len() == offsets[node_count]`.
//! - Within each row `offsets[v]..offsets[v + 1]`, targets are strictly
//!   increasing (sorted, no duplicates).
//!
//! The layout is what makes the downstream kernels cheap: a node's
//! neighbourhood is one contiguous slice (no pointer chasing, no per-node
//! heap cells), and row-blocked parallel aggregation can hand each worker
//! a contiguous span of rows.

use std::fmt;

/// A borrowed view of CSR adjacency structure (offsets + targets), the
/// argument type of the GNN kernels. Both [`CsrGraph`] and sampled
/// workspaces expose one, so forward/backward code is written once.
#[derive(Clone, Copy)]
pub struct CsrView<'a> {
    offsets: &'a [u32],
    targets: &'a [u32],
}

impl<'a> CsrView<'a> {
    /// Wraps raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or its last entry disagrees with
    /// `targets.len()`.
    pub fn new(offsets: &'a [u32], targets: &'a [u32]) -> CsrView<'a> {
        assert!(!offsets.is_empty(), "offsets needs a leading 0");
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            targets.len(),
            "offsets/targets disagree"
        );
        CsrView { offsets, targets }
    }

    /// Number of nodes (rows).
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total retained edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Node `v`'s neighbourhood as one contiguous slice.
    pub fn neighbors(&self, v: usize) -> &'a [u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The flat target array (all rows back to back).
    pub fn targets(&self) -> &'a [u32] {
        self.targets
    }

    /// The row-offset array (`node_count + 1` entries).
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }
}

/// A flat CSR adjacency — see the crate docs for invariants.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph from `(row, target)` edges; duplicate pairs collapse
    /// to one edge. Passing a `Vec` reuses its allocation for the sort.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = edges.into_iter().collect();
        for &(row, target) in &edges {
            assert!((row as usize) < n, "edge row {row} out of range 0..{n}");
            assert!(
                (target as usize) < n,
                "edge target {target} out of range 0..{n}"
            );
        }
        edges.sort_unstable();
        edges.dedup();

        let mut offsets = vec![0u32; n + 1];
        for &(row, _) in &edges {
            offsets[row as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Collected from a slice, so `targets` gets an exact-size buffer of
        // its own; collecting `edges.into_iter()` would keep the edge
        // buffer, twice as wide and sized before de-duplication, alive for
        // the graph's lifetime.
        let targets = edges.iter().map(|&(_, target)| target).collect();
        CsrGraph { offsets, targets }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total retained edges (after duplicate collapse).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Node `v`'s neighbourhood, sorted and duplicate-free.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Node `v`'s degree.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The flat target array.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The row-offset array (`node_count + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// A structure-only view for the GNN kernels.
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            offsets: &self.offsets,
            targets: &self.targets,
        }
    }

    /// The symmetric closure: row `v` holds
    /// `neighbors(v) ∪ {u : v ∈ neighbors(u)}` — the vanilla all-neighbour
    /// GraphSAGE ablation's aggregation neighbourhood.
    pub fn symmetrised(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(2 * self.edge_count());
        for v in 0..self.node_count() {
            for &t in self.neighbors(v) {
                edges.push((v as u32, t));
                edges.push((t, v as u32));
            }
        }
        CsrGraph::from_edges(self.node_count(), edges)
    }

    /// Checks every CSR invariant; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offsets.first() != Some(&0) {
            return Err("offsets must start at 0".to_string());
        }
        if *self.offsets.last().expect("non-empty") as usize != self.targets.len() {
            return Err("final offset disagrees with edge count".to_string());
        }
        let n = self.node_count() as u32;
        for v in 0..self.node_count() {
            if self.offsets[v] > self.offsets[v + 1] {
                return Err(format!("offsets decrease at row {v}"));
            }
            let row = self.neighbors(v);
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {v} not strictly increasing"));
                }
            }
            if row.iter().any(|&t| t >= n) {
                return Err(format!("row {v} has an out-of-range target"));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 → {1, 2} → 3, with 0 → 3 inserted twice.
        CsrGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (0, 3)])
    }

    #[test]
    fn construction_sorts_rows_and_merges_duplicate_pairs() {
        let g = diamond();
        g.check_invariants().expect("valid");
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5, "duplicate (0,3) collapsed");
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn targets_do_not_keep_the_edge_buffer() {
        let g = CsrGraph::from_edges(3, vec![(0, 1); 100].into_iter().chain([(2, 0)]));
        assert_eq!(g.targets, [1, 0]);
        assert_eq!(g.targets.capacity(), 2);
    }

    #[test]
    fn empty_graphs_and_isolated_tail_nodes_work() {
        let g = CsrGraph::from_edges(3, []);
        g.check_invariants().expect("valid");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.offsets(), &[0; 4]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);

        // Last rows empty: the offset tail must still be filled in.
        let g = CsrGraph::from_edges(5, [(0, 1)]);
        g.check_invariants().expect("valid");
        assert_eq!(g.neighbors(4), &[] as &[u32]);
    }

    #[test]
    fn symmetrised_is_a_superset_and_symmetric() {
        let g = diamond();
        let s = g.symmetrised();
        s.check_invariants().expect("valid");
        for v in 0..g.node_count() {
            for &t in g.neighbors(v) {
                assert!(s.neighbors(v).contains(&t));
            }
            for &u in s.neighbors(v) {
                assert!(
                    s.neighbors(u as usize).contains(&(v as u32)),
                    "asymmetric {v} ↔ {u}"
                );
            }
        }
    }

    #[test]
    fn views_expose_the_same_structure() {
        let g = diamond();
        let v = g.view();
        assert_eq!(v.node_count(), g.node_count());
        assert_eq!(v.edge_count(), g.edge_count());
        for i in 0..g.node_count() {
            assert_eq!(v.neighbors(i), g.neighbors(i));
        }
        assert_eq!(v.offsets(), g.offsets());
        assert_eq!(v.targets(), g.targets());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edges_are_rejected() {
        CsrGraph::from_edges(2, [(0, 2)]);
    }
}
