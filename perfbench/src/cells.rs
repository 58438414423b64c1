//! The benchmark's workloads: which figure cells each one runs, and how the
//! traced run reproduces every cell by calling the layer functions itself.
//!
//! The recipes mirror the cell closures of `aff_bench::figures` one for one
//! (same labels, same order, same configs). The traced run checks its labels
//! against the plans and its metrics against the untraced run, so a recipe
//! that drifts from its figure fails the run instead of measuring something
//! else.

use aff_bench::figures::{fig13_policies, FIG13_WORKLOADS};
use aff_ds::csr::CsrLayout;
use aff_ds::graph::Graph;
use aff_ds::hash::HashChainTable;
use aff_ds::layout::{AllocMode, VertexArray};
use aff_ds::linked_csr::LinkedCsr;
use aff_ds::list::AffLinkedList;
use aff_ds::queue::{GlobalQueue, SpatialQueue};
use aff_ds::tree::AffBinaryTree;
use aff_nsc::engine::Metrics;
use aff_sim_core::config::{MachineConfig, CACHE_LINE};
use aff_sim_core::rng::SimRng;
use aff_workloads::affine::{run_stencil, run_vecadd_forced_delta, Stencil};
use aff_workloads::config::{RunConfig, SystemConfig};
use aff_workloads::graphs::{pick_source, DirectionPolicy, GraphInstance};
use aff_workloads::pointer::{
    run_bin_tree, run_hash_join, run_link_list, BinTreeParams, HashJoinParams, LinkListParams,
};
use aff_workloads::suite::{self, WorkloadName};
use affinity_alloc::{AffineArrayReq, AffinityAllocator, AffinityHint, AllocStats};

use crate::spans::Tracer;

/// A named cell set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig6 + fig16: generated Kronecker graphs through three layouts.
    GraphInputs,
    /// fig13: irregular workloads under the seven bank-select policies.
    PointerAlloc,
    /// fig4 + fig15: affine arrays, no generated input.
    AffineStencil,
}

/// Where a workload's `sim_speedup_geomean` comes from: the Hybrid-5 rows of
/// one figure's speedup column.
pub struct Headline {
    /// Figure id.
    pub figure: &'static str,
    /// Column holding the speedup against the figure's own baseline.
    pub column: &'static str,
    /// Substring a row label must contain (`None`: every non-geomean row).
    pub row_filter: Option<&'static str>,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GraphInputs,
        Workload::PointerAlloc,
        Workload::AffineStencil,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphInputs => "graph_inputs",
            Workload::PointerAlloc => "pointer_alloc",
            Workload::AffineStencil => "affine_stencil",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The figures whose cells make up the workload, in run order.
    pub fn figures(self) -> &'static [&'static str] {
        match self {
            Workload::GraphInputs => &["fig6", "fig16"],
            Workload::PointerAlloc => &["fig13"],
            Workload::AffineStencil => &["fig4", "fig15"],
        }
    }

    /// The headline figure rows behind `sim_speedup_geomean`.
    pub fn headline(self) -> Headline {
        match self {
            Workload::GraphInputs => Headline {
                figure: "fig16",
                column: "speedup",
                row_filter: Some("/Hybrid-5/"),
            },
            Workload::PointerAlloc => Headline {
                figure: "fig13",
                column: "speedup",
                row_filter: Some("/Hybrid-5"),
            },
            // Aff-Alloc in fig15 is Hybrid-5.
            Workload::AffineStencil => Headline {
                figure: "fig15",
                column: "aff_speedup",
                row_filter: None,
            },
        }
    }
}

/// One call to the input generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenKey {
    /// `RunConfig::scale` multiplier.
    pub scale: u32,
    /// Weighted (sssp) Kronecker.
    pub weighted: bool,
    /// Generator seed.
    pub seed: u64,
}

impl GenKey {
    fn generate(self) -> Graph {
        if self.weighted {
            suite::kron_weighted_input(self.scale, self.seed)
        } else {
            suite::kron_input(self.scale, self.seed)
        }
    }
}

/// How a graph cell lays its graph out.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// `GraphInstance::new`: linked CSR under Aff-Alloc, CSR otherwise.
    Instance,
    /// `GraphInstance::with_chunk_oracle`; `0` bytes means one edge.
    ChunkOracle(u64),
}

/// The graph kernel a cell runs.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    PrPush,
    PrPull,
    Bfs(DirectionPolicy),
    Sssp,
}

/// What one cell computes.
#[derive(Debug, Clone)]
pub enum Recipe {
    Graph {
        input: GenKey,
        layout: Layout,
        algo: Algo,
    },
    LinkList(LinkListParams),
    HashJoin(HashJoinParams),
    BinTree(BinTreeParams),
    Stencil(Stencil),
    VecAdd {
        n: u64,
        delta: Option<u32>,
    },
}

/// One figure cell as the traced run executes it.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// Figure id.
    pub figure: &'static str,
    /// Cell label, identical to the plan's.
    pub label: String,
    /// The computation.
    pub recipe: Recipe,
    /// Its run configuration.
    pub cfg: RunConfig,
}

fn hybrid5() -> SystemConfig {
    SystemConfig::aff_alloc_default()
}

fn cfg(system: SystemConfig, seed: u64, scale: u32, machine: MachineConfig) -> RunConfig {
    RunConfig::new(system)
        .with_seed(seed)
        .with_scale(scale)
        .with_machine(machine)
}

/// The cells of `workload` at `seed`, in plan declaration order.
pub fn cells(workload: Workload, seed: u64) -> Vec<TraceCell> {
    let mut out = Vec::new();
    for &fig in workload.figures() {
        match fig {
            "fig4" => fig4(seed, &mut out),
            "fig6" => fig6(seed, &mut out),
            "fig13" => fig13(seed, &mut out),
            "fig15" => fig15(seed, &mut out),
            "fig16" => fig16(seed, &mut out),
            other => unreachable!("no recipe for {other}"),
        }
    }
    out
}

fn fig4(seed: u64, out: &mut Vec<TraceCell>) {
    let n = 1_500_000;
    let machine = MachineConfig::paper_default();
    let mut push = |label: String, system, delta| {
        out.push(TraceCell {
            figure: "fig4",
            label,
            recipe: Recipe::VecAdd { n, delta },
            cfg: cfg(system, seed, 1, machine.clone()),
        });
    };
    push("In-Core".into(), SystemConfig::InCore, Some(0));
    for delta in (0..=64u32).step_by(4) {
        push(format!("Δ Bank {delta}"), SystemConfig::NearL3, Some(delta));
    }
    push("Random".into(), SystemConfig::NearL3, None);
}

fn fig6(seed: u64, out: &mut Vec<TraceCell>) {
    let workloads = [
        ("pr_push", Algo::PrPush),
        ("bfs_push", Algo::Bfs(DirectionPolicy::PushOnly)),
        ("sssp", Algo::Sssp),
        ("pr_pull", Algo::PrPull),
        ("bfs_pull", Algo::Bfs(DirectionPolicy::PullOnly)),
    ];
    let configs = [
        ("Ind-4kB", 4096),
        ("Ind-1kB", 1024),
        ("Ind-256B", 256),
        ("Ind-64B", 64),
        ("Ind-Ideal", 0),
    ];
    let machine = MachineConfig::paper_default();
    for (w, algo) in workloads {
        let input = GenKey {
            scale: 1,
            weighted: w == "sssp",
            seed,
        };
        out.push(TraceCell {
            figure: "fig6",
            label: format!("{w}/Base"),
            recipe: Recipe::Graph {
                input,
                layout: Layout::Instance,
                algo,
            },
            cfg: cfg(SystemConfig::NearL3, seed, 1, machine.clone()),
        });
        for (label, bytes) in configs {
            out.push(TraceCell {
                figure: "fig6",
                label: format!("{w}/{label}"),
                recipe: Recipe::Graph {
                    input,
                    layout: Layout::ChunkOracle(bytes),
                    algo,
                },
                cfg: cfg(hybrid5(), seed, 1, machine.clone()),
            });
        }
    }
}

/// The suite's graph recipe for `w` (what `suite::run` executes).
fn suite_graph(w: WorkloadName, system: SystemConfig, scale: u32, seed: u64) -> Recipe {
    let (algo, weighted) = match w {
        WorkloadName::PrPush => (Algo::PrPush, false),
        WorkloadName::PrPull => (Algo::PrPull, false),
        WorkloadName::Bfs => (Algo::Bfs(DirectionPolicy::default_for(system)), false),
        WorkloadName::Sssp => (Algo::Sssp, true),
        other => unreachable!("{other:?} is not a graph workload"),
    };
    Recipe::Graph {
        input: GenKey {
            scale,
            weighted,
            seed,
        },
        layout: Layout::Instance,
        algo,
    }
}

fn fig13(seed: u64, out: &mut Vec<TraceCell>) {
    let machine = MachineConfig::paper_default();
    for w in FIG13_WORKLOADS {
        for p in fig13_policies() {
            let system = SystemConfig::AffAlloc(p);
            // Pointer sizes at scale 1, as `suite::run` builds them.
            let recipe = match w {
                WorkloadName::LinkList => Recipe::LinkList(LinkListParams {
                    lists: 1000,
                    nodes_per_list: 512,
                }),
                WorkloadName::HashJoin => Recipe::HashJoin(HashJoinParams {
                    build_keys: 64 * 1024,
                    probe_keys: 128 * 1024,
                    buckets: 32 * 1024,
                    hit_rate: 1.0 / 8.0,
                }),
                WorkloadName::BinTree => Recipe::BinTree(BinTreeParams {
                    nodes: 32 * 1024,
                    lookups: 128 * 1024,
                }),
                graph => suite_graph(graph, system, 1, seed),
            };
            out.push(TraceCell {
                figure: "fig13",
                label: format!("{}/{}", w.label(), p.label()),
                recipe,
                cfg: cfg(system, seed, 1, machine.clone()),
            });
        }
    }
}

fn fig15(seed: u64, out: &mut Vec<TraceCell>) {
    type StencilMaker = fn(u64) -> Stencil;
    let base: [(&str, StencilMaker); 4] = [
        ("pathfinder", |s| Stencil::pathfinder(1_500_000 * s)),
        ("hotspot", |s| Stencil::hotspot(2048 * s, 1024)),
        ("srad", |s| Stencil::srad(1024 * s, 2048)),
        ("hotspot3D", |s| Stencil::hotspot3d(256, 1024, 8 * s)),
    ];
    let machine = MachineConfig::paper_default();
    for (name, mk) in base {
        for scale in [1u64, 2, 4, 8] {
            for (sys_label, system) in [
                ("In-Core", SystemConfig::InCore),
                ("Near-L3", SystemConfig::NearL3),
                ("Aff-Alloc", hybrid5()),
            ] {
                out.push(TraceCell {
                    figure: "fig15",
                    label: format!("{name}/{scale}x/{sys_label}"),
                    recipe: Recipe::Stencil(mk(scale)),
                    cfg: cfg(system, seed, 1, machine.clone()),
                });
            }
        }
    }
}

fn fig16(seed: u64, out: &mut Vec<TraceCell>) {
    // The capacity-matched L3 of the scaled harness.
    let mut machine = MachineConfig::paper_default();
    machine.l3_bank_bytes = 128 << 10;
    let systems = [
        ("Near-L3", SystemConfig::NearL3),
        (
            "Min-Hops",
            SystemConfig::AffAlloc(affinity_alloc::BankSelectPolicy::MinHop),
        ),
        ("Hybrid-5", hybrid5()),
    ];
    for w in [WorkloadName::PrPush, WorkloadName::Bfs, WorkloadName::Sssp] {
        for scale in [1u32, 2, 4, 8] {
            for (label, system) in systems {
                out.push(TraceCell {
                    figure: "fig16",
                    label: format!("{}/{}/|V|x{}", w.label(), label, scale),
                    recipe: suite_graph(w, system, scale, seed),
                    cfg: cfg(system, seed, scale, machine.clone()),
                });
            }
        }
    }
}

/// What the traced run learned about one cell besides its metrics.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// The generator call, for graph cells.
    pub gen: Option<GenKey>,
    /// Edges the generator produced.
    pub gen_edges: u64,
    /// Allocator counters from the identically seeded estimate allocator.
    pub alloc: AllocStats,
    /// Whether the cell's layout happens inside its run call, so its
    /// `ds.layout` time is an estimate to net out of `workloads.run`.
    pub layout_inside_run: bool,
}

/// Run `cell` under span recording. Layer spans nest under one
/// `bench.cell` span; estimate spans (builder calls on a separate,
/// identically seeded allocator) are marked as such.
pub fn run_traced(cell: &TraceCell, id: usize, t: &mut Tracer) -> (Metrics, CellTrace) {
    let cfg = &cell.cfg;
    t.span("bench.cell", id, false, |t| match &cell.recipe {
        Recipe::Graph {
            input,
            layout,
            algo,
        } => {
            let g = t.span("workloads.gen", id, false, |_| input.generate());
            let gen_edges = g.num_edges() as u64;
            let inst = t.span("ds.layout", id, false, |_| match *layout {
                Layout::Instance => GraphInstance::new(g, cfg),
                Layout::ChunkOracle(bytes) => {
                    let edge = if input.weighted { 8 } else { 4 };
                    let chunk = if bytes == 0 { edge } else { bytes };
                    GraphInstance::with_chunk_oracle(g, cfg, chunk)
                }
            });
            let alloc = t.span("core.alloc", id, true, |_| {
                graph_alloc_estimate(inst.graph(), cfg, *layout)
            });
            let src = pick_source(inst.graph());
            let run = t.span("workloads.run", id, false, |_| match *algo {
                Algo::PrPush => inst.run_pr_push(),
                Algo::PrPull => inst.run_pr_pull(),
                Algo::Bfs(policy) => inst.run_bfs(src, policy),
                Algo::Sssp => inst.run_sssp(src),
            });
            let trace = CellTrace {
                gen: Some(*input),
                gen_edges,
                alloc,
                layout_inside_run: false,
            };
            (run.metrics, trace)
        }
        recipe => {
            let m = t.span("workloads.run", id, false, |_| match recipe {
                Recipe::LinkList(p) => run_link_list(*p, cfg),
                Recipe::HashJoin(p) => run_hash_join(*p, cfg),
                Recipe::BinTree(p) => run_bin_tree(*p, cfg),
                Recipe::Stencil(s) => run_stencil(s, cfg),
                Recipe::VecAdd { n, delta } => run_vecadd_forced_delta(*n, *delta, cfg),
                Recipe::Graph { .. } => unreachable!("handled above"),
            });
            let alloc = t.span("ds.layout", id, true, |_| {
                internal_layout_estimate(recipe, cfg)
            });
            let trace = CellTrace {
                alloc,
                layout_inside_run: true,
                ..CellTrace::default()
            };
            (m, trace)
        }
    })
}

fn estimate_allocator(cfg: &RunConfig) -> AffinityAllocator {
    AffinityAllocator::with_seed(cfg.machine.clone(), cfg.system.policy(), cfg.seed)
}

/// Allocator counters of the layout `GraphInstance` builds for `g`: the
/// same `aff_ds` builders on an identically seeded allocator.
fn graph_alloc_estimate(g: &Graph, cfg: &RunConfig, layout: Layout) -> AllocStats {
    let mut alloc = estimate_allocator(cfg);
    let n = u64::from(g.num_vertices());
    let parts = cfg.machine.num_banks().min(g.num_vertices());
    let built = match (layout, cfg.system.uses_affinity_alloc()) {
        (Layout::ChunkOracle(_), _) => VertexArray::new(&mut alloc, n, 8, AllocMode::Affinity)
            .and_then(|props| SpatialQueue::build(&mut alloc, &props, parts).map(|_| ())),
        (Layout::Instance, true) => VertexArray::new(&mut alloc, n, 8, AllocMode::Affinity)
            .and_then(|props| {
                LinkedCsr::build(&mut alloc, g, &props)?;
                SpatialQueue::build(&mut alloc, &props, parts).map(|_| ())
            }),
        (Layout::Instance, false) => VertexArray::new(&mut alloc, n, 8, AllocMode::Baseline)
            .and_then(|_| CsrLayout::build(&mut alloc, g, AllocMode::Baseline))
            .and_then(|_| GlobalQueue::new(&mut alloc, n).map(|_| ())),
    };
    built.expect("estimate layout mirrors a layout the cell already built");
    alloc.stats()
}

/// Allocator counters of the structures a run call builds internally: the
/// same builders (or allocation calls) on an identically seeded allocator.
fn internal_layout_estimate(recipe: &Recipe, cfg: &RunConfig) -> AllocStats {
    let mut alloc = estimate_allocator(cfg);
    let mode = if cfg.system.uses_affinity_alloc() {
        AllocMode::Affinity
    } else {
        AllocMode::Baseline
    };
    let ok = match recipe {
        Recipe::LinkList(p) => (0..p.lists)
            .try_for_each(|_| AffLinkedList::build(&mut alloc, p.nodes_per_list, mode).map(|_| ())),
        Recipe::HashJoin(p) => {
            let mut rng = SimRng::new(cfg.seed ^ 0x44A5);
            let keys: Vec<u64> = (0..p.build_keys).map(|_| rng.next_u64()).collect();
            HashChainTable::build(&mut alloc, p.buckets, &keys, mode).map(|_| ())
        }
        Recipe::BinTree(p) => {
            let mut rng = SimRng::new(cfg.seed ^ 0xB17E);
            let keys: Vec<u64> = (0..p.nodes).map(|_| rng.next_u64()).collect();
            AffBinaryTree::build(&mut alloc, &keys, mode).map(|_| ())
        }
        Recipe::Stencil(s) => stencil_arrays(&mut alloc, s, cfg),
        Recipe::VecAdd { n, delta } => {
            vecadd_arrays(&mut alloc, *n, *delta, cfg);
            Ok(())
        }
        Recipe::Graph { .. } => unreachable!("graph layouts are timed directly"),
    };
    ok.expect("estimate layout mirrors a layout the cell already built");
    alloc.stats()
}

/// The stencil's arrays as `run_stencil` allocates them under annotated
/// hints.
fn stencil_arrays(
    alloc: &mut AffinityAllocator,
    s: &Stencil,
    cfg: &RunConfig,
) -> Result<(), affinity_alloc::AllocError> {
    let bytes = s.elems * s.elem_size;
    if cfg.system.uses_affinity_alloc() {
        let main_hint = if s.row > 0 {
            AffinityHint::IntraStride { stride: s.row }
        } else {
            AffinityHint::None
        };
        let main = alloc.malloc_aff_affine(&AffineArrayReq::with_hint(
            s.elem_size,
            s.elems,
            &main_hint,
        ))?;
        let align = AffinityHint::AlignTo {
            partner: main,
            p: 1,
            q: 1,
            x: 0,
        };
        for _ in 0..=s.extra_inputs {
            alloc.malloc_aff_affine(&AffineArrayReq::with_hint(s.elem_size, s.elems, &align))?;
        }
    } else {
        let mut rng = SimRng::new(cfg.seed ^ 0xA11A);
        let intrlv = alloc.config().default_interleave;
        let banks = u64::from(alloc.config().num_banks());
        for _ in 0..s.extra_inputs + 2 {
            let skip = rng.below(banks) * intrlv;
            alloc.space_mut().heap_alloc(skip, CACHE_LINE);
            alloc.heap_alloc(bytes);
        }
    }
    Ok(())
}

/// The three vecadd arrays as `run_vecadd_forced_delta` places them.
fn vecadd_arrays(alloc: &mut AffinityAllocator, n: u64, delta: Option<u32>, cfg: &RunConfig) {
    let bytes = n * Stencil::vecadd(n).elem_size;
    match delta {
        Some(d) => {
            let space = alloc.space_mut();
            let pool = space
                .pool_for_interleave(CACHE_LINE)
                .expect("line pool exists on the paper machine");
            for start in [0, 0, d % cfg.machine.num_banks()] {
                space
                    .pool_alloc_at(pool, start, bytes)
                    .expect("vecadd arrays fit the line pool");
            }
        }
        None => {
            alloc
                .space_mut()
                .set_heap_mapping(aff_mem::space::HeapMapping::Random { seed: cfg.seed });
            for _ in 0..3 {
                alloc.heap_alloc(bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aff_bench::figures::{plan_figure, HarnessOpts};
    use std::collections::BTreeSet;

    #[test]
    fn labels_match_the_figure_plans() {
        let opts = HarnessOpts::default();
        for w in Workload::ALL {
            let ours: Vec<(&str, String)> = cells(w, opts.seed)
                .into_iter()
                .map(|c| (c.figure, c.label))
                .collect();
            let plans: Vec<(&str, String)> = w
                .figures()
                .iter()
                .flat_map(|&f| {
                    let plan = plan_figure(f, opts).expect("known figure");
                    plan.cell_labels()
                        .into_iter()
                        .map(|l| (f, l.to_string()))
                        .collect::<Vec<_>>()
                })
                .collect();
            assert_eq!(ours, plans, "{}", w.name());
        }
    }

    #[test]
    fn graph_inputs_generate_8_distinct_graphs_over_66_calls() {
        let keys: Vec<GenKey> = cells(Workload::GraphInputs, 2023)
            .iter()
            .filter_map(|c| match c.recipe {
                Recipe::Graph { input, .. } => Some(input),
                _ => None,
            })
            .collect();
        let distinct: BTreeSet<GenKey> = keys.iter().copied().collect();
        assert_eq!(keys.len(), 66);
        assert_eq!(distinct.len(), 8);
        assert!((crate::unique_ratio(&keys) - 8.0 / 66.0).abs() < 1e-12);
    }
}
