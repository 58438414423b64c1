//! Stream-graph interpreter: executes Fig 2 programs element-wise over
//! simulated memory.
//!
//! The workload executors in `aff-workloads` charge *costs*; this module
//! supplies the *semantics* — it runs a [`StreamGraph`] against an
//! [`AddressSpace`] and produces real values, so tests can check that the
//! stream abstraction computes exactly what the scalar loop it replaced
//! would have (the compiler-correctness obligation of §2). Supported:
//!
//! * affine load / store streams with attached computation (Fig 2(a)),
//! * indirect streams `A[B[i]]` fed by an address edge,
//! * atomic CAS streams and predicate edges that skip dependent streams
//!   (Fig 2(c)'s `sx` gating `st`/`sq`),
//! * pointer-chasing streams with the dynamic break (Fig 2(b)) via
//!   [`Interp::execute_chase`].
//!
//! Per-stream access counts are reported so tests can also assert *where*
//! the accesses landed.

use crate::stream::{DepKind, StreamGraph};
use aff_mem::addr::VAddr;
use aff_mem::space::AddressSpace;
use aff_sim_core::error::{BudgetKind, RunBudget, SimError};

/// Arithmetic attached to a computing stream: inputs are the values of its
/// `Value`-edge producers, in declaration order.
pub type ComputeFn = Box<dyn Fn(&[u64]) -> u64>;

/// How one stream maps onto memory.
pub enum Binding {
    /// Affine load: element `i` at `base + i·elem_size`.
    Load {
        /// Array base.
        base: VAddr,
        /// Element size in bytes (1–8).
        elem_size: u64,
    },
    /// Affine store of `compute(values)` to `base + i·elem_size`.
    Store {
        /// Array base.
        base: VAddr,
        /// Element size in bytes (1–8).
        elem_size: u64,
        /// Attached computation over the `Value` producers.
        compute: ComputeFn,
    },
    /// Indirect access `base + producer_value·elem_size` (the producer is
    /// the stream's `Address` edge).
    Indirect {
        /// Pointed-to array base.
        base: VAddr,
        /// Element size in bytes (1–8).
        elem_size: u64,
    },
    /// Atomic compare-and-swap at `base + producer_value·elem_size`:
    /// stores the stream's `Value` producer if the current value equals
    /// `expected`; yields 1 on success (the predicate output of Fig 2(c)).
    AtomicCas {
        /// Target array base.
        base: VAddr,
        /// Element size (must be 8 for CAS).
        elem_size: u64,
        /// Expected (unvisited) value.
        expected: u64,
    },
}

/// Result of interpreting an affine graph instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterpReport {
    /// Elements processed.
    pub iterations: u64,
    /// Memory accesses per stream index.
    pub accesses_per_stream: Vec<u64>,
    /// Accesses per bank (index = bank id).
    pub accesses_per_bank: Vec<u64>,
    /// Elements skipped by predication, per stream index.
    pub predicated_off: Vec<u64>,
}

/// Result of a pointer-chasing execution (Fig 2(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseReport {
    /// Whether the comparison hit before the list ended.
    pub hit: bool,
    /// Nodes visited (including the hit node).
    pub steps: u64,
    /// The value found, if any.
    pub value: Option<u64>,
}

/// The interpreter. Borrows the address space for one execution.
pub struct Interp<'a> {
    space: &'a mut AddressSpace,
}

impl<'a> Interp<'a> {
    /// Interpreter over `space`.
    pub fn new(space: &'a mut AddressSpace) -> Self {
        Self { space }
    }

    fn read_elem(&mut self, addr: VAddr, elem_size: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.space
            .memory()
            .read_bytes(addr, &mut buf[..elem_size as usize]);
        u64::from_le_bytes(buf)
    }

    fn write_elem(&mut self, addr: VAddr, elem_size: u64, v: u64) {
        self.space
            .memory_mut()
            .write_bytes(addr, &v.to_le_bytes()[..elem_size as usize]);
    }

    /// Execute `graph` for `n` elements with one [`Binding`] per stream
    /// (same order as the graph's declarations) under `budget`.
    /// Graph/binding mismatches (wrong count, binding kind incompatible with
    /// stream kind, missing address producer, cyclic dependences) surface
    /// as [`SimError::InvalidConfig`] and every element access
    /// counts against `budget.max_events` (`wall_ms` is checked once per
    /// 4096 elements), so runaway interpreter loops terminate with
    /// [`SimError::BudgetExhausted`] instead of spinning.
    pub fn try_execute_affine(
        &mut self,
        graph: &StreamGraph,
        bindings: &[Binding],
        n: u64,
        budget: &RunBudget,
    ) -> Result<InterpReport, SimError> {
        if bindings.len() != graph.num_streams() {
            return Err(SimError::InvalidConfig(format!(
                "one binding per stream: got {} bindings for {} streams",
                bindings.len(),
                graph.num_streams()
            )));
        }
        let order = try_topo_order(graph)?;
        let deadline = budget
            .wall_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let num_banks = self.space.config().num_banks() as usize;
        let mut report = InterpReport {
            iterations: n,
            accesses_per_stream: vec![0; bindings.len()],
            accesses_per_bank: vec![0; num_banks],
            predicated_off: vec![0; bindings.len()],
        };
        let mut events = 0u64;
        // Stream slots are small dense integers: a flat vector (absent slot
        // reads 0) replaces the per-element hash map.
        let mut values: Vec<u64> = vec![0; graph.num_streams()];
        let mut value_inputs: Vec<u64> = Vec::new();
        for i in 0..n {
            values.fill(0);
            if let Some(dl) = deadline {
                // Amortize the syscall: one wall-clock check per 4096 elements.
                if i.is_multiple_of(4096) && std::time::Instant::now() >= dl {
                    return Err(SimError::BudgetExhausted {
                        budget: BudgetKind::WallMs,
                        limit: budget.wall_ms.unwrap_or(0),
                        reached: budget.wall_ms.unwrap_or(0),
                    });
                }
            }
            for &s in &order {
                // Predication: skip when any predicate producer yielded 0.
                let gated_off = graph
                    .producers_of(s, DepKind::Predicate)
                    .iter()
                    .any(|&p| values[p] == 0);
                if gated_off {
                    report.predicated_off[s] += 1;
                    continue;
                }
                let addr_producer = graph.producers_of(s, DepKind::Address);
                value_inputs.clear();
                value_inputs.extend(
                    graph
                        .producers_of(s, DepKind::Value)
                        .iter()
                        .map(|&p| values[p]),
                );
                let (addr, elem) = match &bindings[s] {
                    Binding::Load { base, elem_size } | Binding::Store { base, elem_size, .. } => {
                        (*base + i * elem_size, *elem_size)
                    }
                    Binding::Indirect { base, elem_size }
                    | Binding::AtomicCas {
                        base, elem_size, ..
                    } => {
                        let Some(idx) = addr_producer.first().map(|&p| values[p]) else {
                            return Err(SimError::InvalidConfig(format!(
                                "indirect/atomic stream needs an address producer (stream {s})"
                            )));
                        };
                        (*base + idx * elem_size, *elem_size)
                    }
                };
                events += 1;
                if let Some(limit) = budget.max_events {
                    if events > limit {
                        return Err(SimError::BudgetExhausted {
                            budget: BudgetKind::Events,
                            limit,
                            reached: events,
                        });
                    }
                }
                let bank = self.space.bank_of(addr) as usize;
                report.accesses_per_stream[s] += 1;
                report.accesses_per_bank[bank] += 1;
                let out = match &bindings[s] {
                    Binding::Load { .. } => self.read_elem(addr, elem),
                    Binding::Indirect { .. } => self.read_elem(addr, elem),
                    Binding::Store { compute, .. } => {
                        let v = compute(&value_inputs);
                        self.write_elem(addr, elem, v);
                        v
                    }
                    Binding::AtomicCas { expected, .. } => {
                        let new = value_inputs.first().copied().unwrap_or(0);
                        u64::from(self.space.memory_mut().cas_u64(addr, *expected, new))
                    }
                };
                values[s] = out;
            }
        }
        Ok(report)
    }

    /// Execute a pointer-chasing search (Fig 2(b)): nodes are
    /// `[value: u64][next: u64(vaddr)]`; chase until `value == target`,
    /// the next pointer is null, or `max_steps` nodes were visited.
    pub fn execute_chase(&mut self, head: VAddr, target: u64, max_steps: u64) -> ChaseReport {
        let mut cur = head;
        let mut steps = 0u64;
        while cur.raw() != 0 && steps < max_steps {
            steps += 1;
            let v = self.space.memory().read_u64(cur);
            if v == target {
                return ChaseReport {
                    hit: true,
                    steps,
                    value: Some(v),
                };
            }
            cur = VAddr(self.space.memory().read_u64(cur + 8));
        }
        ChaseReport {
            hit: false,
            steps,
            value: None,
        }
    }
}

/// Topological order of the graph's streams (address/value/predicate edges
/// all order producer before consumer); a dependence cycle is reported as
/// [`SimError::InvalidConfig`].
fn try_topo_order(graph: &StreamGraph) -> Result<Vec<usize>, SimError> {
    let n = graph.num_streams();
    let mut indeg = vec![0usize; n];
    for d in graph.deps() {
        indeg[d.to] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&s| indeg[s] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(s) = ready.pop() {
        order.push(s);
        for d in graph.deps() {
            if d.from == s {
                indeg[d.to] -= 1;
                if indeg[d.to] == 0 {
                    ready.push(d.to);
                }
            }
        }
    }
    if order.len() != n {
        return Err(SimError::InvalidConfig(format!(
            "stream dependence cycle: only {} of {n} streams orderable",
            order.len()
        )));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamKind as K;
    use aff_sim_core::config::MachineConfig;

    fn space() -> AddressSpace {
        AddressSpace::new(MachineConfig::paper_default())
    }

    #[test]
    fn vec_add_computes_the_sum() {
        let mut space = space();
        let n = 1000u64;
        let a = space.heap_alloc(4 * n, 64);
        let b = space.heap_alloc(4 * n, 64);
        let c = space.heap_alloc(4 * n, 64);
        for i in 0..n {
            space.memory_mut().write_u32(a + i * 4, i as u32);
            space.memory_mut().write_u32(b + i * 4, (2 * i) as u32);
        }
        let graph = StreamGraph::vec_add();
        let bindings = vec![
            Binding::Load { base: a, elem_size: 4 },
            Binding::Load { base: b, elem_size: 4 },
            Binding::Store {
                base: c,
                elem_size: 4,
                compute: Box::new(|v| v[0] + v[1]),
            },
        ];
        let report = Interp::new(&mut space)
            .try_execute_affine(&graph, &bindings, n, &RunBudget::unlimited())
            .expect("valid bindings");
        for i in (0..n).step_by(97) {
            assert_eq!(space.memory().read_u32(c + i * 4), (3 * i) as u32, "C[{i}]");
        }
        assert_eq!(report.accesses_per_stream, vec![n, n, n]);
        assert_eq!(report.accesses_per_bank.iter().sum::<u64>(), 3 * n);
    }

    #[test]
    fn indirect_gather_reads_through_the_index() {
        let mut space = space();
        let n = 256u64;
        let idx = space.heap_alloc(8 * n, 64);
        let data = space.heap_alloc(8 * 1024, 64);
        let out = space.heap_alloc(8 * n, 64);
        for i in 0..n {
            space.memory_mut().write_u64(idx + i * 8, (i * 37) % 1024);
        }
        for j in 0..1024u64 {
            space.memory_mut().write_u64(data + j * 8, j * j);
        }
        // sb = idx[i]; sv = data[sb]; sc = store(sv)
        let mut b = StreamGraph::builder("gather");
        let sb = b.stream("sb", K::AffineLoad, 8, false);
        let sv = b.stream("sv", K::Indirect, 8, false);
        let sc = b.stream("sc", K::AffineStore, 8, true);
        b.dep(sb, sv, DepKind::Address);
        b.dep(sv, sc, DepKind::Value);
        let graph = b.build();
        let bindings = vec![
            Binding::Load { base: idx, elem_size: 8 },
            Binding::Indirect { base: data, elem_size: 8 },
            Binding::Store {
                base: out,
                elem_size: 8,
                compute: Box::new(|v| v[0]),
            },
        ];
        Interp::new(&mut space)
            .try_execute_affine(&graph, &bindings, n, &RunBudget::unlimited())
            .expect("valid bindings");
        for i in (0..n).step_by(13) {
            let j = (i * 37) % 1024;
            assert_eq!(space.memory().read_u64(out + i * 8), j * j, "out[{i}]");
        }
    }

    #[test]
    fn cas_predication_gates_dependent_stores() {
        // The Fig 2(c) core: sv produces vertex ids, sx CASes P[v], and a
        // predicated store records successes. Duplicate ids must fail the
        // second CAS and suppress the dependent store.
        let mut space = space();
        let n = 8u64;
        let verts = space.heap_alloc(8 * n, 64);
        let parent = space.heap_alloc(8 * 16, 64);
        let log = space.heap_alloc(8 * n, 64);
        let ids = [3u64, 5, 3, 7, 5, 1, 3, 2]; // duplicates: 3, 5, 3
        for (i, &v) in ids.iter().enumerate() {
            space.memory_mut().write_u64(verts + i as u64 * 8, v);
        }
        for j in 0..16u64 {
            space.memory_mut().write_u64(parent + j * 8, u64::MAX);
        }
        let mut b = StreamGraph::builder("cas");
        let sv = b.stream("sv", K::AffineLoad, 8, false);
        let sp = b.stream("sp", K::AffineLoad, 8, false); // parent value = i
        let sx = b.stream("sx", K::Atomic, 8, true);
        let sq = b.stream("sq", K::AffineStore, 8, false);
        b.dep(sv, sx, DepKind::Address);
        b.dep(sp, sx, DepKind::Value);
        b.dep(sx, sq, DepKind::Predicate);
        b.dep(sv, sq, DepKind::Value);
        let graph = b.build();
        // sp reads a counter array holding i at slot i.
        let counter = space.heap_alloc(8 * n, 64);
        for i in 0..n {
            space.memory_mut().write_u64(counter + i * 8, 100 + i);
        }
        let bindings = vec![
            Binding::Load { base: verts, elem_size: 8 },
            Binding::Load { base: counter, elem_size: 8 },
            Binding::AtomicCas {
                base: parent,
                elem_size: 8,
                expected: u64::MAX,
            },
            Binding::Store {
                base: log,
                elem_size: 8,
                compute: Box::new(|v| v[0]),
            },
        ];
        let report = Interp::new(&mut space)
            .try_execute_affine(&graph, &bindings, n, &RunBudget::unlimited())
            .expect("valid bindings");
        // First visits set the parent; repeats failed the CAS.
        assert_eq!(space.memory().read_u64(parent + 3 * 8), 100);
        assert_eq!(space.memory().read_u64(parent + 5 * 8), 101);
        assert_eq!(space.memory().read_u64(parent + 7 * 8), 103);
        // Three duplicate CASes failed ⇒ the store was predicated off 3x.
        assert_eq!(report.predicated_off[3], 3);
        assert_eq!(report.accesses_per_stream[3], n - 3);
    }

    #[test]
    fn chase_finds_its_target() {
        let mut space = space();
        // Build a 20-node list with values 0,10,20,…
        let mut nodes = Vec::new();
        for _ in 0..20 {
            nodes.push(space.heap_alloc(16, 64));
        }
        for (k, &node) in nodes.iter().enumerate() {
            space.memory_mut().write_u64(node, (k as u64) * 10);
            let next = nodes.get(k + 1).map_or(0, |n| n.raw());
            space.memory_mut().write_u64(node + 8, next);
        }
        let mut interp = Interp::new(&mut space);
        let hit = interp.execute_chase(nodes[0], 70, 1000);
        assert_eq!(
            hit,
            ChaseReport {
                hit: true,
                steps: 8,
                value: Some(70)
            }
        );
        let miss = interp.execute_chase(nodes[0], 75, 1000);
        assert!(!miss.hit);
        assert_eq!(miss.steps, 20, "dynamic break at the null next pointer");
    }

    #[test]
    fn event_budget_cuts_the_interpreter_loop() {
        use aff_sim_core::error::{BudgetKind, SimError};
        let mut space = space();
        let n = 1000u64;
        let a = space.heap_alloc(4 * n, 64);
        let b_arr = space.heap_alloc(4 * n, 64);
        let c = space.heap_alloc(4 * n, 64);
        let graph = StreamGraph::vec_add();
        let bindings = vec![
            Binding::Load { base: a, elem_size: 4 },
            Binding::Load { base: b_arr, elem_size: 4 },
            Binding::Store {
                base: c,
                elem_size: 4,
                compute: Box::new(|v| v[0] + v[1]),
            },
        ];
        // 3 accesses/element x 1000 elements = 3000 events; cap at 100.
        let budget = RunBudget::unlimited().with_max_events(100);
        let err = Interp::new(&mut space)
            .try_execute_affine(&graph, &bindings, n, &budget)
            .expect_err("3000 accesses exceed a 100-event budget");
        assert!(matches!(
            err,
            SimError::BudgetExhausted {
                budget: BudgetKind::Events,
                limit: 100,
                reached: 101
            }
        ));
        // The unlimited path still works and matches the legacy entry point.
        let ok = Interp::new(&mut space)
            .try_execute_affine(&graph, &bindings, n, &RunBudget::unlimited())
            .expect("unlimited budget");
        assert_eq!(ok.accesses_per_stream, vec![n, n, n]);
    }

    #[test]
    fn mismatched_bindings_are_a_typed_error() {
        use aff_sim_core::error::SimError;
        let mut space = space();
        let graph = StreamGraph::vec_add();
        let err = Interp::new(&mut space)
            .try_execute_affine(&graph, &[], 1, &RunBudget::unlimited())
            .expect_err("no bindings for three streams");
        match err {
            SimError::InvalidConfig(msg) => {
                assert!(msg.contains("one binding per stream"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn topo_order_respects_dependences() {
        let g = StreamGraph::push_bfs();
        let order = try_topo_order(&g).expect("builder graphs are acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (i, &s) in order.iter().enumerate() {
                p[s] = i;
            }
            p
        };
        for d in g.deps() {
            assert!(pos[d.from] < pos[d.to], "{} before {}", d.from, d.to);
        }
    }
}
