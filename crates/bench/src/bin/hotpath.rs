//! Hot-path microbenchmark: times the per-message accounting layers in
//! isolation — dense route table, heap translation, engine charge
//! coalescing, the fused Eq-4 argmin, the per-bank occupancy scans, and
//! Fig 6's chunk oracle — each against the scalar/hash-map/write-through/
//! quadratic baseline it replaced, and writes `BENCH_hotpath.json` (schema
//! `aff-bench/hotpath-v5`).
//! The route layer runs at 8×8 *and* 16×16 (both dense CSR since the
//! 256-bank threshold raise), a `route_memory` section records the
//! resident route-store bytes at 1024 banks against the dense `n²`
//! entry-array curve, a `kron_gen` section records the Kronecker
//! generator's throughput on the harness's scale-1 graph input, and a
//! `malloc_aff` section records ns per irregular allocation for three
//! request shapes through the real allocator.
//!
//! ```text
//! cargo run --release -p aff-bench --bin hotpath -- [--ops N] [--out PATH]
//! ```
//!
//! The access streams are seeded [`SimRng`] draws, so the measured work is
//! identical run to run; only the wall-clock varies.

use aff_ds::csr::ChunkedCsr;
use aff_mem::addr::VAddr;
use aff_mem::space::{AddressSpace, HeapMapping};
use aff_noc::topology::Topology;
use aff_noc::traffic::{TrafficClass, TrafficMatrix};
use aff_nsc::engine::SimEngine;
use aff_sim_core::config::{MachineConfig, PAGE_SIZE};
use aff_sim_core::json::Value;
use aff_sim_core::rng::SimRng;
use aff_workloads::gen;
use aff_workloads::suite::{BASE_KRON_SCALE, KRON_EDGE_FACTOR};
use affinity_alloc::{AffineArrayReq, AffinityAllocator, BankSelectPolicy};
use std::collections::HashMap;
use std::time::Instant;

/// One measured layer: the optimized path and its baseline, in Mops/sec.
struct Layer {
    name: &'static str,
    ops: u64,
    fast_mops: f64,
    base_mops: f64,
    /// Checksum equality witness: both paths did the same accounting.
    checksum: u64,
}

fn mops(ops: u64, secs: f64) -> f64 {
    ops as f64 / 1e6 / secs.max(1e-12)
}

/// Seeded `(src, dst)` message stream with same-pair runs of up to
/// `max_run` — the shape a vertex's neighbor sweep produces (a linked-CSR
/// chain node covers a run of edges on one bank).
fn pair_stream(ops: usize, banks: u32, max_run: u64) -> Vec<(u32, u32)> {
    let mut rng = SimRng::new(0xB0B);
    let mut pairs = Vec::with_capacity(ops);
    while pairs.len() < ops {
        let src = rng.below(u64::from(banks)) as u32;
        let dst = rng.below(u64::from(banks)) as u32;
        let run = 1 + rng.below(max_run) as usize;
        for _ in 0..run.min(ops - pairs.len()) {
            pairs.push((src, dst));
        }
    }
    pairs
}

/// Layer 1: `TrafficMatrix::record_n` through the route store (dense CSR at
/// 8×8, bounded on-demand rows at 16×16) versus the old shape — a
/// `HashMap<(src, dst), Vec<link>>` cache probed per message.
fn bench_route_table(ops: u64, name: &'static str, mesh: u32) -> Layer {
    let topo = Topology::new(mesh, mesh);
    let pairs = pair_stream(ops as usize, topo.num_banks(), 4);
    let cfg = MachineConfig::paper_default();

    let t0 = Instant::now();
    let mut dense = TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes);
    for &(s, d) in &pairs {
        dense.record_n(s, d, 64, TrafficClass::Data, 1);
    }
    let fast = t0.elapsed().as_secs_f64();
    let fast_sum = dense.sum_link_flits();

    let t0 = Instant::now();
    let mut cache: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    let mut link_flits = vec![0u64; topo.num_links()];
    let flits = dense.flits_for(64);
    for &(s, d) in &pairs {
        let links = cache.entry((s, d)).or_insert_with(|| {
            topo.xy_route(s, d)
                .into_iter()
                .map(|l| topo.link_index(l) as u32)
                .collect()
        });
        for &idx in links.iter() {
            link_flits[idx as usize] += flits;
        }
    }
    let base = t0.elapsed().as_secs_f64();
    let base_sum: u64 = link_flits.iter().sum();
    assert_eq!(fast_sum, base_sum, "route layers must account identically");

    Layer {
        name,
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Route-store memory at scale: resident bytes after a realistic message
/// stream on a 32×32 mesh (1024 banks), against what the dense CSR entry
/// array alone would cost at that size. The on-demand store keeps a bounded
/// row arena, so its footprint must stay far below the dense `n²` curve.
struct RouteMemory {
    banks: u32,
    on_demand_bytes: usize,
    dense_entry_bytes: usize,
}

fn measure_route_memory(ops: u64) -> RouteMemory {
    let topo = Topology::new(32, 32);
    let n = topo.num_banks();
    let cfg = MachineConfig::paper_default();
    let pairs = pair_stream((ops as usize).min(1 << 20), n, 4);
    let mut m = TrafficMatrix::new(topo, cfg.link_bytes_per_cycle, cfg.packet_header_bytes);
    for &(s, d) in &pairs {
        m.record_n(s, d, 64, TrafficClass::Data, 1);
    }
    RouteMemory {
        banks: n,
        on_demand_bytes: m.route_table_bytes(),
        // The dense store's entry array is n² × 8 B (two u32s per pair)
        // before counting its link arena — the curve on-demand rows avoid.
        dense_entry_bytes: n as usize * n as usize * 8,
    }
}

/// Layer 2: `AddressSpace::bank_of` under `HeapMapping::Random` — flat page
/// table plus last-translation cache versus a `HashMap` page map.
fn bench_translation(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    let heap_bytes = 8u64 << 20;

    let mut space = AddressSpace::new(cfg.clone());
    space.set_heap_mapping(HeapMapping::Random { seed: 7 });
    let base_va = space.heap_alloc(heap_bytes, PAGE_SIZE);
    // Sequential element scan: consecutive hits on each page, like a
    // property-array sweep.
    let t0 = Instant::now();
    let mut fast_sum = 0u64;
    for i in 0..ops {
        let va = base_va + (i * 8) % heap_bytes;
        fast_sum += u64::from(space.bank_of(va));
    }
    let fast = t0.elapsed().as_secs_f64();

    // The old shape: per-lookup HashMap probe of vpn -> ppn with the same
    // lazy first-touch frame draws.
    let t0 = Instant::now();
    let mut page_map: HashMap<u64, u64> = HashMap::new();
    let mut rng = SimRng::new(7);
    let mut base_sum = 0u64;
    let banks = u64::from(cfg.num_banks());
    for i in 0..ops {
        let off = (i * 8) % heap_bytes;
        let (vpn, in_page) = (off / PAGE_SIZE, off % PAGE_SIZE);
        let ppn = *page_map
            .entry(vpn)
            .or_insert_with(|| rng.below(1 << 24));
        let pa = ppn * PAGE_SIZE + in_page;
        base_sum += (pa / cfg.default_interleave) % banks;
    }
    let base = t0.elapsed().as_secs_f64();
    assert_eq!(fast_sum, base_sum, "translation layers must agree");

    Layer {
        name: "translation",
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Layer 3: the same engine charge primitives with coalescing on versus
/// write-through (one `TrafficMatrix::record_n` per message, the old
/// engine behavior).
fn bench_coalescing(ops: u64) -> Layer {
    let cfg = MachineConfig::paper_default();
    // One linked-CSR chain node serves a run of edges from one bank.
    let pairs = pair_stream(ops as usize, cfg.num_banks(), 16);

    let t0 = Instant::now();
    let mut engine = SimEngine::new(cfg.clone());
    for &(s, d) in &pairs {
        engine.indirect(s, d, 8, 1);
    }
    let fast = t0.elapsed().as_secs_f64();
    let fast_sum = engine.traffic_mut().sum_link_flits();

    let t0 = Instant::now();
    let mut engine = SimEngine::new(cfg.clone());
    engine.set_coalescing(false);
    for &(s, d) in &pairs {
        engine.indirect(s, d, 8, 1);
    }
    let base = t0.elapsed().as_secs_f64();
    let base_sum = engine.traffic_mut().sum_link_flits();
    assert_eq!(fast_sum, base_sum, "coalescing layers must agree");

    Layer {
        name: "coalescing",
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Layer 4: the Eq-4 bank-select argmin — `policy::argmin_eq4`, the fused
/// one-pass scorer `select_bank` runs, versus the scalar shape it replaced:
/// an iterator `min_by` over lazily computed `score`s with a `total_cmp`
/// comparator closure. `candidates` healthy banks per call: 64 is the 8×8
/// machine every sweep runs, 1024 the largest geometry.
fn bench_argmin(ops: u64, name: &'static str, candidates: u32) -> Layer {
    use affinity_alloc::policy::{argmin_eq4, argmin_score, score};

    const AFF_LEN: usize = 3;
    let calls = (ops / u64::from(candidates)).max(1);
    let ops = calls * u64::from(candidates);
    let mut rng = SimRng::new(0xE94);
    let ids: Vec<u32> = (0..candidates).collect();
    let hop_sums: Vec<u32> = ids.iter().map(|_| rng.below(3 * 32) as u32).collect();
    let loads: Vec<u64> = ids.iter().map(|_| rng.below(4096)).collect();
    let slowdowns: Vec<u64> = ids.iter().map(|_| 1 + rng.below(4) / 3).collect();
    let avg_load = 17.25;
    let h = 5.0;

    let t0 = Instant::now();
    let mut fast_sum = 0u64;
    for call in 0..calls {
        // Perturb the average like successive allocations do, so the score
        // computation cannot be hoisted out of the loop.
        let avg = avg_load + (call % 7) as f64;
        let best = argmin_eq4(&ids, &slowdowns, &hop_sums, &loads, AFF_LEN, avg, h);
        fast_sum += u64::from(best.expect("non-empty"));
    }
    let fast = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut base_sum = 0u64;
    for call in 0..calls {
        let avg = avg_load + (call % 7) as f64;
        let best = argmin_score(ids.iter().zip(&slowdowns).map(|(&b, &slow)| {
            let avg_hops = f64::from(hop_sums[b as usize]) / AFF_LEN as f64;
            (b, score(avg_hops, loads[b as usize] * slow, avg, h))
        }));
        base_sum += u64::from(best.expect("non-empty"));
    }
    let base = t0.elapsed().as_secs_f64();
    assert_eq!(fast_sum, base_sum, "argmin layers must pick identical banks");

    Layer {
        name,
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Layer 5: the per-bank counter scans behind every metrics read —
/// `aff_cache::lanes::{sum_u64, max_u64}` versus the scalar iterator
/// `sum`/`max` they replaced.
fn bench_occupancy_scan(ops: u64) -> Layer {
    const BANKS: usize = 1024;
    let rounds = (ops as usize / BANKS).max(1);
    let ops = (rounds * BANKS) as u64;
    let mut rng = SimRng::new(0x0CC);
    let mut counters: Vec<Vec<u64>> = (0..64)
        .map(|_| (0..BANKS).map(|_| rng.below(1 << 30)).collect())
        .collect();
    // Both passes mutate the rows; replay the baseline from the same
    // starting state so the checksums are comparable.
    let pristine = counters.clone();

    let t0 = Instant::now();
    let mut fast_sum = 0u64;
    for r in 0..rounds {
        let row = &mut counters[r % 64];
        row[r % BANKS] = (r as u64) << 10; // keep rounds from folding away
        fast_sum ^= aff_cache::lanes::sum_u64(row).wrapping_add(aff_cache::lanes::max_u64(row));
    }
    let fast = t0.elapsed().as_secs_f64();

    counters = pristine;
    let t0 = Instant::now();
    let mut base_sum = 0u64;
    for r in 0..rounds {
        let row = &mut counters[r % 64];
        row[r % BANKS] = (r as u64) << 10;
        let sum: u64 = row.iter().sum();
        let max = row.iter().copied().max().unwrap_or(0);
        base_sum ^= sum.wrapping_add(max);
    }
    let base = t0.elapsed().as_secs_f64();
    assert_eq!(fast_sum, base_sum, "occupancy scans must agree");

    Layer {
        name: "occupancy_scan",
        ops,
        fast_mops: mops(ops, fast),
        base_mops: mops(ops, base),
        checksum: fast_sum,
    }
}

/// Layer 6: Fig 6's chunk oracle — `ChunkedCsr::build`, which prices every
/// bank from per-axis target histograms, versus `build_reference`, the
/// `O(E · banks)` manhattan loop it replaced — over a Kronecker graph of
/// about `ops / 32` edges on the 8×8 mesh, at every Fig 6 chunk size. Ops
/// are edges placed.
fn bench_chunk_oracle(ops: u64) -> Layer {
    const CHUNK_BYTES: [u64; 5] = [4, 64, 256, 1024, 4096];
    let topo = Topology::new(8, 8);
    // Symmetrized Kronecker: 2 · edge_factor · 2^scale edges.
    let scale = (ops / 32 / u64::from(2 * KRON_EDGE_FACTOR)).max(1).ilog2().clamp(6, 16);
    let g = gen::kronecker(scale, KRON_EDGE_FACTOR, 0xC0C);
    // Property arrays interleave 1 KiB per bank: 128 eight-byte vertices.
    let vb: Vec<u32> = (0..g.num_vertices()).map(|v| (v / 128) % topo.num_banks()).collect();
    let ops = g.num_edges() as u64 * CHUNK_BYTES.len() as u64;
    let checksum = |c: &ChunkedCsr| -> u64 {
        (0..c.num_chunks())
            .map(|i| u64::from(c.bank_of_edge((i * c.chunk_edges()) as u64)))
            .sum()
    };

    let t0 = Instant::now();
    let fast: Vec<ChunkedCsr> = CHUNK_BYTES
        .iter()
        .map(|&b| ChunkedCsr::build(topo, &g, &vb, b, 0.02))
        .collect();
    let fast_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let base: Vec<ChunkedCsr> = CHUNK_BYTES
        .iter()
        .map(|&b| ChunkedCsr::build_reference(topo, &g, &vb, b, 0.02))
        .collect();
    let base_secs = t0.elapsed().as_secs_f64();
    assert_eq!(fast, base, "chunk oracles must place every chunk identically");

    Layer {
        name: "chunk_oracle",
        ops,
        fast_mops: mops(ops, fast_secs),
        base_mops: mops(ops, base_secs),
        checksum: fast.iter().map(checksum).sum(),
    }
}

/// `AffinityAllocator::malloc_aff` end to end on the 8×8 machine, in ns per
/// call, for the three request shapes the pointer and graph figures make.
struct MallocAff {
    calls: u64,
    /// A list built node by node, each node's one affinity address its
    /// predecessor: under Min-Hop every node lands on one bank.
    chain_min_hop_ns: f64,
    /// The same chain under Hybrid-5, which spills once the bank is hot.
    chain_hybrid5_ns: f64,
    /// A linked-CSR edge node whose 32 affinity addresses are vertices of
    /// an interleaved property array.
    csr_node32_hybrid5_ns: f64,
}

fn time_chain(policy: BankSelectPolicy, calls: u64) -> f64 {
    let mut a = AffinityAllocator::new(MachineConfig::paper_default(), policy);
    let mut prev = a.malloc_aff(64, &[]).expect("first node");
    let t0 = Instant::now();
    for _ in 0..calls {
        prev = a.malloc_aff(64, &[prev]).expect("chain node");
    }
    t0.elapsed().as_secs_f64() * 1e9 / calls as f64
}

fn measure_malloc_aff(ops: u64) -> MallocAff {
    let calls = (ops / 20).max(1_000);
    let chain_min_hop_ns = time_chain(BankSelectPolicy::MinHop, calls);
    let chain_hybrid5_ns = time_chain(BankSelectPolicy::paper_default(), calls);

    let mut a = AffinityAllocator::new(
        MachineConfig::paper_default(),
        BankSelectPolicy::paper_default(),
    );
    const VERTICES: u64 = 1 << 16;
    let props = a
        .malloc_aff_affine(&AffineArrayReq::new(8, VERTICES))
        .expect("property array");
    let mut rng = SimRng::new(0xC5E);
    let sets: Vec<Vec<VAddr>> = (0..1024)
        .map(|_| (0..32).map(|_| props + 8 * rng.below(VERTICES)).collect())
        .collect();
    let t0 = Instant::now();
    for i in 0..calls {
        a.malloc_aff(64, &sets[i as usize % sets.len()])
            .expect("edge node");
    }
    let csr_node32_hybrid5_ns = t0.elapsed().as_secs_f64() * 1e9 / calls as f64;
    MallocAff {
        calls,
        chain_min_hop_ns,
        chain_hybrid5_ns,
        csr_node32_hybrid5_ns,
    }
}

/// Kronecker generation throughput on the harness's scale-1 input: the full
/// generator, and the sssp weight pass that derives the weighted input from
/// an already generated graph.
struct KronGen {
    scale: u32,
    edges: usize,
    edges_per_sec: f64,
    weight_pass_edges_per_sec: f64,
}

fn measure_kron_gen() -> KronGen {
    let scale = BASE_KRON_SCALE;
    let t0 = Instant::now();
    let g = gen::kronecker(scale, KRON_EDGE_FACTOR, 2023);
    let gen_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let w = gen::kronecker_weights(&g, 2023);
    let weight_secs = t0.elapsed().as_secs_f64();
    assert_eq!(w.num_edges(), g.num_edges());
    KronGen {
        scale,
        edges: g.num_edges(),
        edges_per_sec: g.num_edges() as f64 / gen_secs.max(1e-12),
        weight_pass_edges_per_sec: g.num_edges() as f64 / weight_secs.max(1e-12),
    }
}

fn render_json(layers: &[Layer], mem: &RouteMemory, kron: &KronGen, alloc: &MallocAff) -> String {
    let layers = layers.iter().map(|l| {
        Value::object([
            ("name", l.name.into()),
            ("ops", l.ops.into()),
            ("fast_mops_per_sec", l.fast_mops.into()),
            ("baseline_mops_per_sec", l.base_mops.into()),
            ("speedup", (l.fast_mops / l.base_mops.max(1e-12)).into()),
            ("checksum", l.checksum.into()),
        ])
    });
    let dense_over_on_demand = mem.dense_entry_bytes as f64 / mem.on_demand_bytes.max(1) as f64;
    Value::object([
        ("schema", "aff-bench/hotpath-v5".into()),
        ("layers", layers.collect()),
        (
            "route_memory",
            Value::object([
                ("banks", mem.banks.into()),
                ("on_demand_bytes", mem.on_demand_bytes.into()),
                ("dense_entry_bytes", mem.dense_entry_bytes.into()),
                ("dense_over_on_demand", dense_over_on_demand.into()),
            ]),
        ),
        (
            "kron_gen",
            Value::object([
                ("scale", kron.scale.into()),
                ("edges", kron.edges.into()),
                ("edges_per_sec", kron.edges_per_sec.into()),
                (
                    "weight_pass_edges_per_sec",
                    kron.weight_pass_edges_per_sec.into(),
                ),
            ]),
        ),
        (
            "malloc_aff",
            Value::object([
                ("banks", 64u64.into()),
                ("calls", alloc.calls.into()),
                ("chain_min_hop_ns", alloc.chain_min_hop_ns.into()),
                ("chain_hybrid5_ns", alloc.chain_hybrid5_ns.into()),
                ("csr_node32_hybrid5_ns", alloc.csr_node32_hybrid5_ns.into()),
            ]),
        ),
    ])
    .render()
}

fn main() {
    let mut ops: u64 = 4_000_000;
    let mut out_path = String::from("BENCH_hotpath.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ops" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(n) => ops = n,
                    Err(_) => {
                        eprintln!("--ops wants an integer, got '{v}'");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out wants a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}' (use --ops N / --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let layers = [
        bench_route_table(ops, "route_table", 8),
        bench_route_table(ops, "route_table_16x16", 16),
        bench_translation(ops),
        bench_coalescing(ops),
        bench_argmin(ops, "argmin_simd", 64),
        bench_argmin(ops, "argmin_simd_1024", 1024),
        bench_occupancy_scan(ops),
        bench_chunk_oracle(ops),
    ];
    for l in &layers {
        println!(
            "{:<18} {:>7.1} Mops/s vs baseline {:>7.1} Mops/s  ({:.2}x)",
            l.name,
            l.fast_mops,
            l.base_mops,
            l.fast_mops / l.base_mops.max(1e-12)
        );
    }
    let mem = measure_route_memory(ops);
    println!(
        "route_memory @ {} banks: {} B resident vs {} B dense entries ({:.1}x smaller)",
        mem.banks,
        mem.on_demand_bytes,
        mem.dense_entry_bytes,
        mem.dense_entry_bytes as f64 / mem.on_demand_bytes.max(1) as f64
    );
    let kron = measure_kron_gen();
    println!(
        "kron_gen @ scale {}: {} edges, {:.2} M edges/s generated, {:.2} M edges/s weight pass",
        kron.scale,
        kron.edges,
        kron.edges_per_sec / 1e6,
        kron.weight_pass_edges_per_sec / 1e6
    );
    let alloc = measure_malloc_aff(ops);
    println!(
        "malloc_aff @ 8x8, {} calls: chain Min-Hop {:.0} ns, chain Hybrid-5 {:.0} ns, \
         32-address CSR node Hybrid-5 {:.0} ns",
        alloc.calls, alloc.chain_min_hop_ns, alloc.chain_hybrid5_ns, alloc.csr_node32_hybrid5_ns
    );
    let json = render_json(&layers, &mem, &kron, &alloc);
    if let Err(e) = std::fs::write(&out_path, json + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(3);
    }
    println!("wrote {out_path}");
}
