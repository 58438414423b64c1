//! Stream and stream-dependence-graph descriptors (Fig 2 of the paper).
//!
//! The NSC compiler turns loops into *stream dependence graphs*: nodes are
//! streams (one per long-term access pattern plus attached computation),
//! edges are element-wise dependences. We build the same graphs by hand via
//! [`StreamGraph::builder`] — the reproduction's stand-in for the LLVM
//! stream compiler — and the executors charge configuration and credit
//! traffic from the graph's shape.

/// The long-term access pattern of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Affine load: `A[p/q · i + x]`.
    AffineLoad,
    /// Affine store (carries the attached computation in Fig 2(a)).
    AffineStore,
    /// Indirect access `A[B[i]]`.
    Indirect,
    /// Pointer-chasing `p = p->next`.
    PointerChase,
    /// Remote atomic (CAS / fetch-add) — Fig 2(c)'s `sx`, `st`.
    Atomic,
    /// Reduction into a scalar (pull-style graph kernels).
    Reduce,
}

/// How one stream depends on another (edge labels of Fig 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Consumer needs the producer's value (e.g. `sc` needs `sa`, `sb`).
    Value,
    /// Consumer's address comes from the producer (indirect base).
    Address,
    /// Consumer executes only if the producer's predicate is true
    /// (Fig 2(c): `st`,`sq` predicated on the CAS stream `sx`).
    Predicate,
}

/// One stream declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDecl {
    /// Short name used in reports (`"sa"`, `"sv"`, …).
    pub name: String,
    /// Access pattern class.
    pub kind: StreamKind,
    /// Bytes accessed per element.
    pub elem_bytes: u64,
    /// Whether the stream carries near-stream computation (outlined ops run
    /// on SE ALUs or spare SMT threads).
    pub has_compute: bool,
}

/// One dependence edge, by stream indices into the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer stream index.
    pub from: usize,
    /// Consumer stream index.
    pub to: usize,
    /// Dependence class.
    pub kind: DepKind,
}

/// A stream dependence graph — what the NSC compiler emits per loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamGraph {
    name: String,
    streams: Vec<StreamDecl>,
    deps: Vec<DepEdge>,
}

impl StreamGraph {
    /// Start building a graph for the loop `name`.
    pub fn builder(name: impl Into<String>) -> StreamGraphBuilder {
        StreamGraphBuilder {
            graph: StreamGraph {
                name: name.into(),
                streams: Vec::new(),
                deps: Vec::new(),
            },
        }
    }

    /// Loop name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared streams.
    pub fn streams(&self) -> &[StreamDecl] {
        &self.streams
    }

    /// Dependence edges.
    pub fn deps(&self) -> &[DepEdge] {
        &self.deps
    }

    /// Number of streams — each costs one configuration message per
    /// offloading core (§2.2: SEcore sends a configure packet to SEL3).
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Streams that carry near-stream computation.
    pub fn compute_streams(&self) -> usize {
        self.streams.iter().filter(|s| s.has_compute).count()
    }

    /// Producers of `consumer` (by index) with the given dependence kind.
    pub fn producers_of(&self, consumer: usize, kind: DepKind) -> Vec<usize> {
        self.deps
            .iter()
            .filter(|d| d.to == consumer && d.kind == kind)
            .map(|d| d.from)
            .collect()
    }

    /// The canonical vector-add graph of Fig 2(a): `sa`, `sb` forwarding
    /// values into the computing store `sc`.
    pub fn vec_add() -> Self {
        let mut b = Self::builder("vec_add");
        let sa = b.stream("sa", StreamKind::AffineLoad, 4, false);
        let sb = b.stream("sb", StreamKind::AffineLoad, 4, false);
        let sc = b.stream("sc", StreamKind::AffineStore, 4, true);
        b.dep(sa, sc, DepKind::Value);
        b.dep(sb, sc, DepKind::Value);
        b.build()
    }

    /// The push-BFS graph of Fig 2(c): queue scan, CSR index, parent load,
    /// edge stream, CAS on `P[v]`, predicated tail-increment and queue store.
    pub fn push_bfs() -> Self {
        let mut b = Self::builder("push_bfs");
        let su = b.stream("su", StreamKind::AffineLoad, 4, false);
        let se = b.stream("se", StreamKind::AffineLoad, 8, false);
        let sp = b.stream("sp", StreamKind::AffineLoad, 4, false);
        let sv = b.stream("sv", StreamKind::AffineLoad, 4, false);
        let sx = b.stream("sx", StreamKind::Atomic, 8, true);
        let st = b.stream("st", StreamKind::Atomic, 8, false);
        let sq = b.stream("sq", StreamKind::Indirect, 4, false);
        b.dep(su, se, DepKind::Address);
        b.dep(se, sv, DepKind::Address);
        b.dep(sv, sx, DepKind::Address);
        b.dep(sp, sx, DepKind::Value);
        b.dep(sx, st, DepKind::Predicate);
        b.dep(sx, sq, DepKind::Predicate);
        b.dep(st, sq, DepKind::Address);
        b.build()
    }

    /// The list-search graph of Fig 2(b): a pointer-chasing stream with an
    /// attached comparison and dynamic break.
    pub fn list_search() -> Self {
        let mut b = Self::builder("list_search");
        b.stream("sp", StreamKind::PointerChase, 16, true);
        b.build()
    }
}

/// Builder for [`StreamGraph`].
#[derive(Debug)]
pub struct StreamGraphBuilder {
    graph: StreamGraph,
}

impl StreamGraphBuilder {
    /// Declare a stream; returns its index for wiring dependences.
    pub fn stream(
        &mut self,
        name: impl Into<String>,
        kind: StreamKind,
        elem_bytes: u64,
        has_compute: bool,
    ) -> usize {
        self.graph.streams.push(StreamDecl {
            name: name.into(),
            kind,
            elem_bytes,
            has_compute,
        });
        self.graph.streams.len() - 1
    }

    /// Add a dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or the edge is a self-loop.
    pub fn dep(&mut self, from: usize, to: usize, kind: DepKind) -> &mut Self {
        let n = self.graph.streams.len();
        assert!(from < n && to < n, "dependence on undeclared stream");
        assert_ne!(from, to, "self-dependence");
        self.graph.deps.push(DepEdge { from, to, kind });
        self
    }

    /// Finish the graph.
    pub fn build(self) -> StreamGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_add_shape() {
        let g = StreamGraph::vec_add();
        assert_eq!(g.num_streams(), 3);
        assert_eq!(g.compute_streams(), 1);
        assert_eq!(g.producers_of(2, DepKind::Value), vec![0, 1]);
        assert_eq!(g.name(), "vec_add");
    }

    #[test]
    fn push_bfs_shape_matches_fig2c() {
        let g = StreamGraph::push_bfs();
        assert_eq!(g.num_streams(), 7);
        // st and sq are predicated on the CAS stream sx (index 4).
        let preds: Vec<_> = g
            .deps()
            .iter()
            .filter(|d| d.kind == DepKind::Predicate)
            .collect();
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|d| d.from == 4));
    }

    #[test]
    fn list_search_is_single_stream() {
        let g = StreamGraph::list_search();
        assert_eq!(g.num_streams(), 1);
        assert_eq!(g.streams()[0].kind, StreamKind::PointerChase);
        assert!(g.streams()[0].has_compute);
    }

    #[test]
    #[should_panic(expected = "undeclared stream")]
    fn dep_bounds_checked() {
        let mut b = StreamGraph::builder("bad");
        let s = b.stream("s", StreamKind::AffineLoad, 4, false);
        b.dep(s, 5, DepKind::Value);
    }

    #[test]
    #[should_panic(expected = "self-dependence")]
    fn self_loop_rejected() {
        let mut b = StreamGraph::builder("bad");
        let s = b.stream("s", StreamKind::AffineLoad, 4, false);
        b.dep(s, s, DepKind::Value);
    }
}
