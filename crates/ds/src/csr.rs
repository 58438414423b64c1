//! Baseline CSR layout and the Fig 6 chunked-placement oracle.
//!
//! `In-Core` and `Near-L3` run graph kernels on the classic compressed
//! sparse row format: an index array and one big edge array, both heap
//! allocated (default 1 KiB interleave). Fig 6 measures how far *coarse*
//! layout control could go: break the edge array into chunks and let an
//! oracle map each chunk to the bank minimizing indirect traffic, subject to
//! a 2% load-imbalance cap (the paper's footnote 2). That oracle is
//! [`ChunkedCsr`]; its diminishing returns at page granularity are the
//! motivation for the linked CSR format.

use crate::graph::Graph;
use crate::layout::{AllocMode, VertexArray};
use aff_noc::topology::Topology;
use affinity_alloc::{AffinityAllocator, AllocError};

/// The classic CSR arrays with per-edge bank placement.
#[derive(Debug, Clone)]
pub struct CsrLayout {
    index: VertexArray,
    edges: VertexArray,
}

impl CsrLayout {
    /// Allocate index + edge arrays for `graph`. `mode` controls the vertex
    /// *index* array; the edge array always lives on the heap — CSR gives the
    /// allocator no per-edge freedom, which is the format's whole limitation.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn build(
        alloc: &mut AffinityAllocator,
        graph: &Graph,
        mode: AllocMode,
    ) -> Result<Self, AllocError> {
        let n = u64::from(graph.num_vertices());
        let index = VertexArray::new(alloc, n + 1, 8, mode)?;
        let elem = if graph.is_weighted() { 8 } else { 4 };
        let edges = VertexArray::new(alloc, graph.num_edges() as u64, elem, AllocMode::Baseline)?;
        Ok(Self { index, edges })
    }

    /// The index array.
    pub fn index(&self) -> &VertexArray {
        &self.index
    }

    /// The edge array.
    pub fn edges(&self) -> &VertexArray {
        &self.edges
    }

    /// Bank holding edge slot `e` (global CSR position).
    pub fn bank_of_edge(&self, e: u64) -> u32 {
        self.edges.bank_of(e)
    }
}

/// Fig 6's oracle: the edge array split into fixed-size chunks, each freely
/// mapped to a bank to minimize indirect traffic, with load capped at
/// `1 + imbalance` times the mean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedCsr {
    chunk_edges: usize,
    chunk_banks: Vec<u32>,
}

impl ChunkedCsr {
    /// Place `graph`'s edges in chunks of `chunk_bytes`, given the bank of
    /// every vertex (`vertex_banks`) that indirect accesses will target.
    /// `imbalance` is the allowed fractional overload per bank (paper: 0.02).
    ///
    /// A `chunk_bytes` equal to the edge size gives the paper's `Ind-Ideal`
    /// (every edge exactly at its target, no load cap binding in practice).
    ///
    /// Each chunk's cost to bank `b` is the total hop count from `b` to the
    /// chunk's targets. Hop distance is separable into per-axis router-grid
    /// distances ([`Topology::x_distance`] + [`Topology::y_distance`]), so
    /// the oracle histograms each chunk's target columns and rows once and
    /// prices every bank from those histograms: `O(E + chunks · banks)`
    /// instead of [`Self::build_reference`]'s `O(E · banks)`, with the same
    /// integer costs and therefore the same placement bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is smaller than one edge entry.
    pub fn build(
        topo: Topology,
        graph: &Graph,
        vertex_banks: &[u32],
        chunk_bytes: u64,
        imbalance: f64,
    ) -> Self {
        let chunk_edges = chunk_edges(graph, chunk_bytes);
        let (gx, gy) = (topo.grid_x() as usize, topo.grid_y() as usize);
        // Per-axis distance tables and each bank's router column/row.
        let x_hops: Vec<u64> = (0..gx * gx)
            .map(|i| u64::from(topo.x_distance((i / gx) as u32, (i % gx) as u32)))
            .collect();
        let y_hops: Vec<u64> = (0..gy * gy)
            .map(|i| u64::from(topo.y_distance((i / gy) as u32, (i % gy) as u32)))
            .collect();
        let bank_xy: Vec<(usize, usize)> = (0..topo.num_banks())
            .map(|b| {
                let c = topo.router_coord(b);
                (c.x as usize, c.y as usize)
            })
            .collect();
        let mut cols = AxisHistogram::new(gx);
        let mut rows = AxisHistogram::new(gy);
        let desired = chunk_desires(graph, chunk_edges, topo.num_banks(), |slice, costs| {
            for &t in slice {
                let (x, y) = bank_xy[vertex_banks[t as usize] as usize];
                cols.add(x);
                rows.add(y);
            }
            cols.price(&x_hops);
            rows.price(&y_hops);
            for (cost, &(x, y)) in costs.iter_mut().zip(&bank_xy) {
                *cost = cols.cost[x] + rows.cost[y];
            }
            cols.clear();
            rows.clear();
        });
        Self::place(chunk_edges, desired, topo.num_banks(), imbalance)
    }

    /// The `O(E · banks)` oracle [`Self::build`] replaced: one
    /// [`Topology::manhattan`] per (edge, bank) pair. Kept as the
    /// equivalence witness for tests and the `hotpath` benchmark; no figure
    /// calls it.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is smaller than one edge entry.
    pub fn build_reference(
        topo: Topology,
        graph: &Graph,
        vertex_banks: &[u32],
        chunk_bytes: u64,
        imbalance: f64,
    ) -> Self {
        let chunk_edges = chunk_edges(graph, chunk_bytes);
        let desired = chunk_desires(graph, chunk_edges, topo.num_banks(), |slice, costs| {
            for (b, cost) in costs.iter_mut().enumerate() {
                *cost = slice
                    .iter()
                    .map(|&t| u64::from(topo.manhattan(b as u32, vertex_banks[t as usize])))
                    .sum();
            }
        });
        Self::place(chunk_edges, desired, topo.num_banks(), imbalance)
    }

    /// Assign every chunk a bank under the load cap: chunks with the largest
    /// saving claim their desired bank first; spilled chunks go to the
    /// least-occupied bank (paper footnote 2).
    fn place(
        chunk_edges: usize,
        mut desired: Vec<(usize, u32, f64)>,
        banks: u32,
        imbalance: f64,
    ) -> Self {
        let num_chunks = desired.len();
        let cap = ((num_chunks as f64 / f64::from(banks)) * (1.0 + imbalance)).ceil() as usize;
        let cap = cap.max(1);
        desired.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite savings"));
        let mut load = vec![0usize; banks as usize];
        let mut chunk_banks = vec![0u32; num_chunks];
        let mut overflow = Vec::new();
        for &(c, want, _) in &desired {
            if load[want as usize] < cap {
                load[want as usize] += 1;
                chunk_banks[c] = want;
            } else {
                overflow.push(c);
            }
        }
        for c in overflow {
            let (b, _) = load
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .expect("banks exist");
            load[b] += 1;
            chunk_banks[c] = b as u32;
        }
        Self {
            chunk_edges,
            chunk_banks,
        }
    }

    /// Bank of global edge slot `e`.
    pub fn bank_of_edge(&self, e: u64) -> u32 {
        self.chunk_banks[(e as usize) / self.chunk_edges]
    }

    /// Edges per chunk.
    pub fn chunk_edges(&self) -> usize {
        self.chunk_edges
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunk_banks.len()
    }

    /// Largest per-bank chunk count over the mean (placement imbalance).
    pub fn load_imbalance(&self, num_banks: u32) -> f64 {
        let mut load = vec![0usize; num_banks as usize];
        for &b in &self.chunk_banks {
            load[b as usize] += 1;
        }
        let max = *load.iter().max().expect("banks") as f64;
        let mean = self.chunk_banks.len() as f64 / f64::from(num_banks);
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

/// Edges per oracle chunk.
///
/// # Panics
///
/// Panics if `chunk_bytes` is smaller than one edge entry.
fn chunk_edges(graph: &Graph, chunk_bytes: u64) -> usize {
    let edge_bytes = if graph.is_weighted() { 8 } else { 4 };
    assert!(chunk_bytes >= edge_bytes, "chunk smaller than one edge");
    (chunk_bytes / edge_bytes) as usize
}

/// `(chunk, desired bank, saving)` for every chunk of `graph`'s edge array.
/// `price(slice, costs)` fills `costs[b]` with the chunk's total hops to
/// bank `b`. The desired bank is the cheapest (lowest id on ties); the
/// saving is its distance below the all-bank average, so the rebalancer
/// evicts the least-profitable chunks first.
fn chunk_desires(
    graph: &Graph,
    chunk_edges: usize,
    banks: u32,
    mut price: impl FnMut(&[u32], &mut [u64]),
) -> Vec<(usize, u32, f64)> {
    let targets = graph.targets();
    let num_chunks = targets.len().div_ceil(chunk_edges).max(1);
    let mut costs = vec![0u64; banks as usize];
    (0..num_chunks)
        .map(|c| {
            let lo = c * chunk_edges;
            let hi = (lo + chunk_edges).min(targets.len());
            price(&targets[lo..hi], &mut costs);
            let (mut best_bank, mut best_cost) = (0u32, f64::INFINITY);
            let mut avg_cost = 0.0;
            for (b, &cost) in costs.iter().enumerate() {
                avg_cost += cost as f64;
                if (cost as f64) < best_cost {
                    best_cost = cost as f64;
                    best_bank = b as u32;
                }
            }
            avg_cost /= f64::from(banks);
            (c, best_bank, avg_cost - best_cost)
        })
        .collect()
}

/// Target counts per router-grid coordinate on one axis, with the touched
/// coordinates listed so pricing and clearing cost `O(distinct)`, not
/// `O(axis length)`, per chunk.
struct AxisHistogram {
    count: Vec<u64>,
    touched: Vec<usize>,
    /// `cost[p]`: total hops along this axis from coordinate `p` to every
    /// counted target (filled by [`Self::price`]).
    cost: Vec<u64>,
}

impl AxisHistogram {
    fn new(len: usize) -> Self {
        Self {
            count: vec![0; len],
            touched: Vec::new(),
            cost: vec![0; len],
        }
    }

    fn add(&mut self, p: usize) {
        if self.count[p] == 0 {
            self.touched.push(p);
        }
        self.count[p] += 1;
    }

    /// Fill `cost` from the counts and the axis's `len × len` hop table.
    fn price(&mut self, hops: &[u64]) {
        let len = self.count.len();
        for (p, cost) in self.cost.iter_mut().enumerate() {
            let row = &hops[p * len..(p + 1) * len];
            *cost = self.touched.iter().map(|&q| self.count[q] * row[q]).sum();
        }
    }

    fn clear(&mut self) {
        for &p in &self.touched {
            self.count[p] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_sim_core::config::MachineConfig;
    use affinity_alloc::BankSelectPolicy;

    fn alloc() -> AffinityAllocator {
        AffinityAllocator::new(MachineConfig::paper_default(), BankSelectPolicy::paper_default())
    }

    fn ring(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn csr_layout_builds() {
        let mut a = alloc();
        let g = ring(1024);
        let c = CsrLayout::build(&mut a, &g, AllocMode::Baseline).unwrap();
        assert_eq!(c.index().len(), 1025);
        assert_eq!(c.edges().len(), 1024);
        assert!(c.bank_of_edge(0) < 64);
    }

    #[test]
    fn ideal_chunks_sit_exactly_at_targets() {
        let topo = Topology::new(8, 8);
        let g = ring(4096);
        // Vertex v lives at bank v % 64.
        let vb: Vec<u32> = (0..4096u32).map(|v| v % 64).collect();
        let placed = ChunkedCsr::build(topo, &g, &vb, 4, 1e9);
        // Each 1-edge chunk should land on its target's bank.
        for (e, &t) in g.targets().iter().enumerate().step_by(97) {
            assert_eq!(placed.bank_of_edge(e as u64), vb[t as usize]);
        }
    }

    #[test]
    fn load_cap_binds() {
        let topo = Topology::new(8, 8);
        // Every edge points at vertex 0 ⇒ every chunk wants bank 0.
        let edges: Vec<(u32, u32)> = (0..4096u32).map(|v| (v, 0)).collect();
        let g = Graph::from_edges(4096, &edges);
        let vb = vec![0u32; 4096];
        let placed = ChunkedCsr::build(topo, &g, &vb, 64, 0.02);
        // 256 chunks over 64 banks: cap = ceil(4 * 1.02) = 5 ⇒ max ratio 1.25.
        assert!(
            placed.load_imbalance(64) <= 1.26,
            "cap must spread the chunks, got {}",
            placed.load_imbalance(64)
        );
    }

    #[test]
    fn coarser_chunks_place_worse() {
        let topo = Topology::new(8, 8);
        let g = ring(8192);
        let vb: Vec<u32> = (0..8192u32).map(|v| (v / 128) % 64).collect();
        let hops = |chunk_bytes: u64| -> u64 {
            let placed = ChunkedCsr::build(topo, &g, &vb, chunk_bytes, 0.02);
            g.targets()
                .iter()
                .enumerate()
                .map(|(e, &t)| {
                    u64::from(topo.manhattan(placed.bank_of_edge(e as u64), vb[t as usize]))
                })
                .sum()
        };
        let fine = hops(64);
        let coarse = hops(4096);
        assert!(fine <= coarse, "finer chunks must not increase indirect hops");
    }

    #[test]
    #[should_panic(expected = "chunk smaller")]
    fn tiny_chunks_rejected() {
        let topo = Topology::new(2, 2);
        let g = ring(8);
        ChunkedCsr::build(topo, &g, &[0; 8], 2, 0.02);
    }
}

#[cfg(test)]
mod oracle_equivalence {
    use super::*;
    use aff_sim_core::config::{BankOrder, TopologyKind};
    use aff_sim_core::rng::SimRng;
    use proptest::prelude::*;

    const KINDS: [TopologyKind; 3] = [TopologyKind::Mesh, TopologyKind::Torus, TopologyKind::CMesh];
    /// Fig 6's chunk sizes; 0 stands for one edge (`Ind-Ideal`).
    const CHUNKS: [u64; 5] = [0, 64, 256, 1024, 4096];

    fn topo(kind: TopologyKind, w: u32, h: u32) -> Topology {
        // A concentrated mesh tiles 2×2 blocks: round odd sides up.
        let (w, h) = match kind {
            TopologyKind::CMesh => (w + w % 2, h + h % 2),
            _ => (w, h),
        };
        Topology::with_kind(w, h, BankOrder::RowMajor, kind)
    }

    /// A skewed random graph (half the edges hit a few hot vertices, so
    /// chunks fight over banks and the load cap binds) plus a vertex→bank
    /// map that clusters vertices on a subset of banks.
    fn instance(seed: u64, n: u32, m: usize, weighted: bool, banks: u32) -> (Graph, Vec<u32>) {
        let mut rng = SimRng::new(seed);
        let hot = 1 + rng.below(4) as u32;
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let src = rng.below(u64::from(n)) as u32;
                let dst = if rng.below(2) == 0 {
                    rng.below(u64::from(hot)) as u32
                } else {
                    rng.below(u64::from(n)) as u32
                };
                (src, dst)
            })
            .collect();
        let g = if weighted {
            let w: Vec<u32> = (0..m).map(|_| 1 + rng.below(255) as u32).collect();
            Graph::from_weighted_edges(n, &edges, &w)
        } else {
            Graph::from_edges(n, &edges)
        };
        let spread = 1 + rng.below(u64::from(banks));
        let vb = (0..n).map(|_| rng.below(spread) as u32).collect();
        (g, vb)
    }

    fn assert_equivalent(t: Topology, g: &Graph, vb: &[u32], chunk: u64, imbalance: f64) {
        let bytes = if chunk == 0 {
            if g.is_weighted() {
                8
            } else {
                4
            }
        } else {
            chunk
        };
        assert_eq!(
            ChunkedCsr::build(t, g, vb, bytes, imbalance),
            ChunkedCsr::build_reference(t, g, vb, bytes, imbalance),
            "{t:?} chunk {bytes} B, imbalance {imbalance}, weighted {}",
            g.is_weighted()
        );
    }

    /// The full matrix on fixed inputs: every kind, square and non-square
    /// grids up to 16×16, every Fig 6 chunk size, both edge widths, both
    /// imbalance caps.
    #[test]
    fn linear_oracle_matches_reference_across_the_matrix() {
        for kind in KINDS {
            for (w, h) in [(8, 8), (16, 16), (16, 6), (3, 16), (1, 5)] {
                let t = topo(kind, w, h);
                for weighted in [false, true] {
                    let seed = u64::from(w * 31 + h);
                    let (g, vb) = instance(seed, 700, 1500, weighted, t.num_banks());
                    for chunk in CHUNKS {
                        for imbalance in [0.0, 0.02] {
                            assert_equivalent(t, &g, &vb, chunk, imbalance);
                        }
                    }
                }
            }
        }
    }

    /// Degenerate inputs: no edges at all (one empty chunk) and a single
    /// bank.
    #[test]
    fn linear_oracle_matches_reference_on_degenerate_inputs() {
        let empty = Graph::from_edges(4, &[]);
        assert_equivalent(Topology::new(4, 4), &empty, &[0, 5, 9, 15], 64, 0.02);
        let (g, vb) = instance(3, 64, 256, false, 1);
        assert_equivalent(Topology::new(1, 1), &g, &vb, 0, 0.0);
    }

    proptest! {
        /// Random geometry, graph, chunk size and cap: the linear oracle
        /// places every chunk exactly where the `O(E·banks)` one does.
        #[test]
        fn linear_oracle_matches_reference(
            kind in 0usize..3,
            w in 1u32..17,
            h in 1u32..17,
            chunk in 0usize..5,
            weighted in 0u8..2,
            imbalance in 0usize..2,
            seed in 0u64..u64::MAX,
            n in 2u32..600,
            m in 0usize..1200,
        ) {
            let t = topo(KINDS[kind], w, h);
            let (g, vb) = instance(seed, n, m, weighted == 1, t.num_banks());
            assert_equivalent(t, &g, &vb, CHUNKS[chunk], [0.0, 0.02][imbalance]);
        }
    }
}
