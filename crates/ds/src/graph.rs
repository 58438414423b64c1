//! The logical graph: CSR adjacency with no placement information.
//!
//! Layout crates ([`crate::csr`], [`crate::linked_csr`]) attach banks to this
//! structure; workload generators (in `aff-workloads`) produce the edge
//! lists. Edges are kept sorted by source vertex — the paper notes this is
//! common practice and is what makes long edge runs placeable (Fig 19).

/// Vertex identifier.
pub type VertexId = u32;

/// A directed graph in CSR form. For the undirected workloads (bfs, pr) the
/// builder symmetrizes, so in-neighbors equal out-neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Option<Vec<u32>>,
}

impl Graph {
    /// Build from an edge list (`src`, `dst`) pairs; self-loops kept,
    /// duplicates kept (multigraph semantics, like the GAP generators).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: u32, edges: &[(VertexId, VertexId)]) -> Self {
        Self::build(num_vertices, edges, None)
    }

    /// Build a weighted graph (sssp: weights in `[1, 255]`, Table 3).
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or endpoints are out of range.
    pub fn from_weighted_edges(
        num_vertices: u32,
        edges: &[(VertexId, VertexId)],
        weights: &[u32],
    ) -> Self {
        assert_eq!(edges.len(), weights.len(), "one weight per edge");
        Self::build(num_vertices, edges, Some(weights))
    }

    fn build(num_vertices: u32, edges: &[(VertexId, VertexId)], w: Option<&[u32]>) -> Self {
        let n = num_vertices as usize;
        let mut degree = vec![0u64; n];
        for &(s, d) in edges {
            assert!((s as usize) < n && (d as usize) < n, "edge endpoint out of range");
            degree[s as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut weights = w.map(|_| vec![0u32; edges.len()]);
        for (i, &(s, d)) in edges.iter().enumerate() {
            let pos = cursor[s as usize] as usize;
            targets[pos] = d;
            if let (Some(ws), Some(src)) = (&mut weights, w) {
                ws[pos] = src[i];
            }
            cursor[s as usize] += 1;
        }
        // Sort each adjacency list by target id — "as is common practice"
        // (§7.2); consecutive targets of high-degree vertices then share
        // partition banks, the mechanism behind Fig 19.
        for v in 0..n {
            let a = offsets[v] as usize;
            let b = offsets[v + 1] as usize;
            match &mut weights {
                None => targets[a..b].sort_unstable(),
                Some(ws) => {
                    let mut pairs: Vec<(VertexId, u32)> =
                        targets[a..b].iter().copied().zip(ws[a..b].iter().copied()).collect();
                    pairs.sort_unstable_by_key(|&(t, _)| t);
                    for (k, (t, wt)) in pairs.into_iter().enumerate() {
                        targets[a + k] = t;
                        ws[a + k] = wt;
                    }
                }
            }
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Symmetrize: add the reverse of every edge, so pull-direction kernels
    /// see the same neighbors as push-direction ones.
    pub fn symmetrized(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.num_edges() * 2);
        let mut weights = self.weights.as_ref().map(|_| Vec::with_capacity(self.num_edges() * 2));
        for v in 0..self.num_vertices() {
            for (i, &t) in self.neighbors(v).iter().enumerate() {
                edges.push((v, t));
                edges.push((t, v));
                if let (Some(ws), Some(w)) = (&mut weights, self.weights.as_ref()) {
                    let wv = w[(self.offsets[v as usize] as usize) + i];
                    ws.push(wv);
                    ws.push(wv);
                }
            }
        }
        match weights {
            Some(w) => Graph::from_weighted_edges(self.num_vertices(), &edges, &w),
            None => Graph::from_edges(self.num_vertices(), &edges),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Mean out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / f64::from(self.num_vertices())
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        &self.targets[a..b]
    }

    /// Edge weights of `v`'s out-edges (parallel to [`Self::neighbors`]),
    /// or `None` for an unweighted graph.
    pub fn weights_of(&self, v: VertexId) -> Option<&[u32]> {
        let w = self.weights.as_ref()?;
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        Some(&w[a..b])
    }

    /// Whether edge weights are attached.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// CSR offset of `v`'s first edge (for bank-of-edge math in layouts).
    pub fn offset_of(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Global edge target slice.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        // The Fig 11 toy graph: 5 vertices, edges of the paper's original CSR
        // (index [0,3,4,6,8], edges [1,2,3, 0, 0,3, 0,2]).
        Graph::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (2, 3), (3, 0), (3, 2)],
        )
    }

    #[test]
    fn fig11_csr_shape() {
        let g = toy();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0, 3]);
        assert_eq!(g.neighbors(3), &[0, 2]);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.offset_of(3), 6);
    }

    #[test]
    fn degrees() {
        let g = toy();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(4), 0);
        assert!((g.avg_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn weighted_graph_round_trip() {
        let g = Graph::from_weighted_edges(3, &[(0, 1), (0, 2), (2, 1)], &[5, 7, 9]);
        assert!(g.is_weighted());
        assert_eq!(g.weights_of(0), Some(&[5u32, 7][..]));
        assert_eq!(g.weights_of(2), Some(&[9u32][..]));
        assert_eq!(g.weights_of(1), Some(&[][..]));
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let s = g.symmetrized();
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.neighbors(1), &[0, 2]);
    }

    #[test]
    fn unweighted_has_no_weights() {
        assert_eq!(toy().weights_of(0), None);
        assert!(!toy().is_weighted());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        Graph::from_edges(2, &[(0, 5)]);
    }
}
