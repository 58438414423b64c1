//! Benchmark of the figure sweep, end to end and layer by layer.
//!
//! ```text
//! aff-perfbench --workload graph_inputs|pointer_alloc|affine_stencil
//!               [--seed N] [--seconds S] [--trace 0|1] [--jobs N]
//! ```
//!
//! `--trace 0` runs the workload's figure plans through
//! `aff_bench::sweep::run_plans_opts` exactly as `figures` does (journal on,
//! memo off), repeating whole passes until `--seconds` have elapsed, and
//! reports the end-to-end metrics. `--trace 1` runs one such pass and then
//! the same cells again by calling each layer's functions directly under
//! span recording, and reports the per-layer metrics. Every run checks its
//! outputs; the last stdout line is the JSON result. Run artifacts (journals,
//! the result with host provenance, spans) go to `.bench_out/`.
//! See `perfbench/README.md` for what each metric means.

mod cells;
mod golden;
mod spans;
mod stats;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aff_bench::figures::{plan_figure, HarnessOpts};
use aff_bench::journal::{fnv1a, read_journal};
use aff_bench::report::Figure;
use aff_bench::sweep::{run_plans_opts, RunOpts, SweepPlan};
use aff_nsc::engine::Metrics;

use cells::{CellTrace, GenKey, TraceCell, Workload};
use spans::{Span, Tracer};

/// The seed `results_scaled.txt` was produced with.
const GOLDEN_SEED: u64 = 2023;
/// Extra set-up repetitions per run, on top of one per pass.
const SETUP_REPS: usize = 200;
/// Where run artifacts go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

/// Golden figure id → comparable lines of `results_scaled.txt`.
type Golden = std::collections::BTreeMap<String, Vec<String>>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
    cores: usize,
}

fn parse_args() -> Result<Args, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workload = None;
    let mut seed = GOLDEN_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut jobs = cores.min(2);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--jobs" => {
                jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    if jobs > cores {
        // More workers than cores measures oversubscription, not the sweep.
        return Err(format!(
            "refusing --jobs {jobs}: only {cores} cores are available"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        jobs,
        cores,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aff-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("aff-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------- sweep pass

/// One untraced pass over the workload's figure plans.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    figures: Vec<Figure>,
    /// Per cell, in declaration order.
    cells: Vec<PassCell>,
}

struct PassCell {
    figure: String,
    label: String,
    wall_ns: u64,
    /// The cell's metrics as the journal recorded them.
    metrics: Option<Metrics>,
    /// Why the cell failed its checks, if it did.
    error: Option<String>,
}

fn harness(seed: u64) -> HarnessOpts {
    HarnessOpts {
        seed,
        ..HarnessOpts::default()
    }
}

/// The journal context `figures` stamps for this figure list.
fn journal_context(figures: &[&str]) -> u64 {
    let mut bytes = Vec::new();
    for id in figures {
        bytes.extend_from_slice(id.as_bytes());
        bytes.push(b'\n');
    }
    bytes.push(0); // not --full
    fnv1a(&bytes)
}

/// Everything `figures` does before its sweep starts: build the plans and
/// the run options.
fn set_up(w: Workload, seed: u64, jobs: usize, journal: &Path) -> (Vec<SweepPlan>, RunOpts) {
    let opts = harness(seed);
    let plans = w
        .figures()
        .iter()
        .map(|id| plan_figure(id, opts).expect("workload figures are known plan ids"))
        .collect();
    let run_opts = RunOpts {
        jobs,
        seed,
        journal: Some(journal.to_path_buf()),
        context: journal_context(w.figures()),
        ..RunOpts::default()
    };
    (plans, run_opts)
}

fn sweep_pass(w: Workload, seed: u64, jobs: usize, journal: &Path) -> Result<Pass, String> {
    let setup_start = Instant::now();
    let (plans, run_opts) = set_up(w, seed, jobs, journal);
    let setup_s = setup_start.elapsed().as_secs_f64();
    let counts: Vec<usize> = plans.iter().map(SweepPlan::num_cells).collect();

    let start = Instant::now();
    let (figures, report) = run_plans_opts(plans, &run_opts);
    let wall_s = start.elapsed().as_secs_f64();

    let replay = read_journal(journal, seed, run_opts.context)
        .map_err(|e| format!("reading back the journal: {e}"))?;
    std::fs::remove_file(journal).map_err(|e| format!("removing the journal: {e}"))?;

    let mut cells = Vec::with_capacity(report.cells.len());
    let mut stats = report.cells.into_iter();
    for (fig, &n) in w.figures().iter().zip(&counts) {
        for idx in 0..n as u64 {
            let stat = stats.next().ok_or("sweep report is missing cells")?;
            let entry = replay.entries.get(&(fig.to_string(), idx));
            let metrics = entry
                .and_then(|e| e.result.as_ref().ok())
                .and_then(|d| d.metrics())
                .cloned();
            let error = if let Some(err) = stat.error.clone() {
                Some(format!("cell failed: {err}"))
            } else if entry.map(|e| e.label.as_str()) != Some(stat.label.as_str()) {
                Some("journal has no record of the cell".to_string())
            } else {
                match &metrics {
                    None => Some("cell produced no metrics".to_string()),
                    Some(m) => model_invariants(m).err(),
                }
            };
            cells.push(PassCell {
                figure: stat.figure,
                label: stat.label,
                wall_ns: stat.wall_ns,
                metrics,
                error,
            });
        }
    }
    Ok(Pass {
        setup_s,
        wall_s,
        figures,
        cells,
    })
}

/// Identities the analytic model guarantees for every run.
fn model_invariants(m: &Metrics) -> Result<(), String> {
    let class_sum: u64 = m.hop_flits.iter().sum();
    if class_sum != m.total_hop_flits {
        return Err(format!(
            "flit classes sum to {class_sum}, total says {}",
            m.total_hop_flits
        ));
    }
    if m.cycles == 0 || m.cycles != m.breakdown.total().max(1) {
        return Err(format!(
            "cycles {} disagree with the breakdown total {}",
            m.cycles,
            m.breakdown.total()
        ));
    }
    Ok(())
}

/// The bit-exact identity of a run's simulated results.
fn fingerprint(m: &Metrics) -> String {
    format!("{m:?}")
}

/// Check `pass` against the golden figures (given at seed 2023 only) and
/// against `reference` (an earlier pass of the same run), marking failed
/// cells.
fn check_pass(pass: &mut Pass, golden: Option<&Golden>, reference: Option<&Pass>) {
    if let Some(golden) = golden {
        for fig in &pass.figures {
            let expected = golden.get(&fig.id).cloned().unwrap_or_default();
            let actual = golden::comparable_lines(&fig.render());
            if let Some(diff) = golden::first_mismatch(&expected, &actual) {
                let msg = format!("{} differs from results_scaled.txt: {diff}", fig.id);
                for c in pass.cells.iter_mut().filter(|c| c.figure == fig.id) {
                    c.error.get_or_insert_with(|| msg.clone());
                }
            }
        }
    }
    if let Some(r) = reference {
        for (c, rc) in pass.cells.iter_mut().zip(&r.cells) {
            let same = c.label == rc.label
                && c.metrics.as_ref().map(fingerprint) == rc.metrics.as_ref().map(fingerprint);
            if !same {
                c.error
                    .get_or_insert_with(|| "metrics differ between passes".to_string());
            }
        }
    }
}

// ---------------------------------------------------------------- metrics

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Simulated L3 + private + DRAM accesses of one run.
fn sim_accesses(m: &Metrics) -> u64 {
    m.energy.l3_accesses + m.energy.private_accesses + m.energy.dram_accesses
}

/// Geomean of the workload's headline Hybrid-5 speedup rows.
fn headline_geomean(w: Workload, figures: &[Figure]) -> Result<f64, String> {
    let h = w.headline();
    let fig = figures
        .iter()
        .find(|f| f.id == h.figure)
        .ok_or_else(|| format!("{} was not produced", h.figure))?;
    let col = fig
        .columns
        .iter()
        .position(|c| c == h.column)
        .ok_or_else(|| format!("{} has no {} column", h.figure, h.column))?;
    let values: Vec<f64> = fig
        .rows
        .iter()
        .filter(|r| !r.label.starts_with("geomean/"))
        .filter(|r| h.row_filter.is_none_or(|f| r.label.contains(f)))
        .map(|r| r.values[col])
        .collect();
    stats::geomean(&values).ok_or_else(|| format!("{} speedups are not all positive", h.figure))
}

/// Distinct generator calls over all calls (0 when nothing was generated).
pub fn unique_ratio(keys: &[GenKey]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    keys.iter().collect::<BTreeSet<_>>().len() as f64 / keys.len() as f64
}

// ---------------------------------------------------------------- runs

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let golden = if args.seed == GOLDEN_SEED {
        let text = std::fs::read_to_string("results_scaled.txt")
            .map_err(|e| format!("reading results_scaled.txt: {e}"))?;
        Some(golden::parse_results(&text))
    } else {
        None
    };
    let journal = PathBuf::from(OUT_DIR).join(format!(
        "journal-{}-{}.bin",
        args.workload.name(),
        std::process::id()
    ));
    let provenance = provenance(args);
    println!("provenance: {provenance}");
    let RunOutput {
        metrics,
        cells_json: cells,
        spans_json: spans,
        attempted,
        failed,
    } = if args.trace {
        traced_run(args, &journal, golden.as_ref())?
    } else {
        untraced_run(args, &journal, golden.as_ref())?
    };
    let correct = failed == 0;

    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        println!("{:<40} {:>18} {}", m.name, m.value, m.unit);
    }
    let mut metrics_json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics_json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics_json}}}}}"
    );
    let artifact = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"provenance\": {provenance}, \"result\": {result}, \"cells\": [{cells}], \"spans\": [{spans}]}}\n"
    );
    std::fs::write(&artifact, body).map_err(|e| format!("writing {}: {e}", artifact.display()))?;
    eprintln!("wrote {}", artifact.display());
    println!("{result}");
    Ok(correct)
}

/// What a run reports: its metrics, the per-cell and span records for the
/// artifact, and the cell counts behind `correct`.
struct RunOutput {
    metrics: Vec<Metric>,
    cells_json: String,
    spans_json: String,
    attempted: usize,
    failed: usize,
}

fn untraced_run(args: &Args, journal: &Path, golden: Option<&Golden>) -> Result<RunOutput, String> {
    let w = args.workload;
    let mut setup_samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let built = set_up(w, args.seed, args.jobs, journal);
            let s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(built));
            s
        })
        .collect();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Whole passes only: start another while it is expected to end within
    // `--seconds`, so a long pass is never cut and never doubles the run.
    let fits = |passes: &[Pass]| {
        let walls: Vec<f64> = passes.iter().map(|p| p.setup_s + p.wall_s).collect();
        start.elapsed().as_secs_f64() + stats::median(&walls) <= args.seconds
    };
    while passes.is_empty() || fits(&passes) {
        let mut pass = sweep_pass(w, args.seed, args.jobs, journal)?;
        check_pass(&mut pass, golden, passes.first());
        eprintln!(
            "pass {}: {} cells in {:.3} s",
            passes.len() + 1,
            pass.cells.len(),
            pass.wall_s
        );
        passes.push(pass);
    }
    setup_samples.extend(passes.iter().map(|p| p.setup_s));

    let all_cells = || passes.iter().flat_map(|p| &p.cells);
    // Each cell's median over the passes, so one slow pass moves no cell.
    let per_pass = passes[0].cells.len();
    let cell_ms: Vec<f64> = (0..per_pass)
        .map(|i| {
            let walls: Vec<f64> = passes
                .iter()
                .map(|p| p.cells[i].wall_ns as f64 / 1e6)
                .collect();
            stats::median(&walls)
        })
        .collect();
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| {
            let accesses: u64 = p
                .cells
                .iter()
                .filter_map(|c| c.metrics.as_ref())
                .map(sim_accesses)
                .sum();
            let cell_s: f64 = p.cells.iter().map(|c| c.wall_ns as f64 / 1e9).sum();
            accesses as f64 / cell_s
        })
        .collect();
    let tail = stats::tail_percentile(per_pass);
    let attempted = passes.len() * per_pass;
    let failed = all_cells().filter(|c| c.error.is_some()).count();
    for c in all_cells().filter(|c| c.error.is_some()) {
        eprintln!(
            "FAILED {}/{}: {}",
            c.figure,
            c.label,
            c.error.as_deref().unwrap_or("")
        );
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    println!(
        "{} passes of {per_pass} cells; cell_ms_tail is p{tail}",
        passes.len()
    );
    // Printed but not bounded in BENCHMARK.json: the failure ratio is
    // usually 0 and travels as `failed`/`attempted`; the peak RSS of the
    // two-worker pool depends on which cells happen to overlap, so it is
    // tracked as the per-layer `bench.sweep.peak_rss_mb` instead.
    println!(
        "{:<40} {:>18} ratio",
        "failed_cell_ratio",
        failed as f64 / attempted as f64
    );
    println!("{:<40} {:>18} MB", "peak_rss_mb", peak_rss_mb()?);
    let metrics = vec![
        metric("wall_s", stats::median(&walls), "s"),
        metric("cell_ms_p50", stats::percentile(&cell_ms, 50), "ms"),
        metric("cell_ms_tail", stats::percentile(&cell_ms, tail), "ms"),
        metric("sim_accesses_per_s", stats::median(&throughput), "1/s"),
        metric("setup_s", stats::median(&setup_samples), "s"),
        metric(
            "sim_speedup_geomean",
            headline_geomean(w, &passes[0].figures)?,
            "x",
        ),
    ];
    Ok(RunOutput {
        metrics,
        cells_json: cells_json(&passes[0].cells),
        spans_json: String::new(),
        attempted,
        failed,
    })
}

fn cells_json(cells: &[PassCell]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"id\": {i}, \"figure\": {}, \"label\": {}, \"untraced_wall_ns\": {}, \"error\": {}}}",
            json_str(&c.figure),
            json_str(&c.label),
            c.wall_ns,
            c.error.as_deref().map_or("null".to_string(), json_str)
        );
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Result of one traced cell.
type Traced = Result<(Metrics, CellTrace), String>;

/// Run every cell on `jobs` workers under span recording.
fn traced_pass(cells: &[TraceCell], jobs: usize) -> (Vec<Traced>, Vec<Span>) {
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Traced>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let buffers: Vec<Vec<Span>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.min(cells.len()).max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tracer::new(epoch);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let r =
                            catch_unwind(AssertUnwindSafe(|| cells::run_traced(cell, i, &mut t)))
                                .map_err(|_| "traced cell panicked".to_string());
                        if r.is_err() {
                            t.close_open();
                        }
                        *results[i]
                            .lock()
                            .expect("no worker panics while holding a result slot") = Some(r);
                    }
                    t.into_spans()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced workers catch cell panics"))
            .collect()
    });
    let results = results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("workers are joined")
                .unwrap_or_else(|| Err("cell never ran".into()))
        })
        .collect();
    (results, spans::merge(buffers))
}

fn traced_run(args: &Args, journal: &Path, golden: Option<&Golden>) -> Result<RunOutput, String> {
    let w = args.workload;
    let mut pass = sweep_pass(w, args.seed, args.jobs, journal)?;
    let untraced_rss_mb = peak_rss_mb()?;
    check_pass(&mut pass, golden, None);
    let cells = cells::cells(w, args.seed);
    let (results, spans) = traced_pass(&cells, args.jobs);
    if cells.len() != pass.cells.len() {
        return Err(format!(
            "the traced run has {} cells, the plans {}",
            cells.len(),
            pass.cells.len()
        ));
    }

    // Simulated results must be bit-identical to the untraced pass.
    let mut errors: Vec<Option<String>> = pass.cells.iter().map(|c| c.error.clone()).collect();
    for (i, (tc, pc)) in cells.iter().zip(&pass.cells).enumerate() {
        let verdict = match &results[i] {
            Err(e) => Some(e.clone()),
            Ok(_) if tc.label != pc.label || tc.figure != pc.figure => Some(format!(
                "traced cell {}/{} does not match plan cell {}/{}",
                tc.figure, tc.label, pc.figure, pc.label
            )),
            Ok((m, _)) if pc.metrics.as_ref().map(fingerprint) != Some(fingerprint(m)) => {
                Some("traced metrics differ from the untraced run".to_string())
            }
            Ok(_) => None,
        };
        if let Some(v) = verdict {
            errors[i].get_or_insert(v);
        }
    }
    let failed = errors.iter().filter(|e| e.is_some()).count();
    for (c, e) in pass.cells.iter().zip(&errors) {
        if let Some(e) = e {
            eprintln!("FAILED {}/{}: {e}", c.figure, c.label);
        }
    }

    let mut metrics = layer_metrics(&spans, &results);
    let untraced_cell_ns: u64 = pass.cells.iter().map(|c| c.wall_ns).sum();
    let busy = untraced_cell_ns as f64 / (pass.wall_s * 1e9 * args.jobs as f64);
    let idle_ms = (pass.wall_s * 1e3 * args.jobs as f64 - untraced_cell_ns as f64 / 1e6).max(0.0);
    metrics.push(metric("bench.sweep.busy_ratio", busy, "ratio"));
    metrics.push(metric("bench.sweep.idle_ms", idle_ms, "ms"));
    metrics.push(metric("bench.sweep.peak_rss_mb", untraced_rss_mb, "MB"));
    let traced_cell_ns = traced_cell_ns(&spans);
    metrics.push(metric(
        "trace.overhead_ratio",
        traced_cell_ns as f64 / untraced_cell_ns.max(1) as f64,
        "ratio",
    ));
    metrics.extend(sim_counters(
        results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|(m, _)| m)),
    ));

    let mut pass_cells = pass.cells;
    for (c, e) in pass_cells.iter_mut().zip(errors) {
        c.error = e;
    }
    Ok(RunOutput {
        metrics,
        cells_json: cells_json(&pass_cells),
        spans_json: spans_json(&spans),
        attempted: cells.len(),
        failed,
    })
}

/// Sum of traced cell time, less the estimate work done inside cells.
fn traced_cell_ns(spans: &[Span]) -> u64 {
    let total = |keep: fn(&Span) -> bool| -> u64 {
        spans.iter().filter(|s| keep(s)).map(Span::dur_ns).sum()
    };
    total(|s| s.parent.is_none()).saturating_sub(total(|s| s.estimate))
}

/// Host-time layer metrics from the spans, plus the allocator counters.
fn layer_metrics(spans: &[Span], results: &[Traced]) -> Vec<Metric> {
    let self_ns = spans::self_times(spans);
    let n = results.len();
    let mut gen_ns = 0u64;
    let mut gen_keys: Vec<GenKey> = Vec::new();
    let mut layout_ns = 0u64;
    let mut layout_calls = 0u64;
    let mut run_ns = vec![0u64; n];
    let mut est_layout_ns = vec![0u64; n];
    let mut est_ns = vec![0u64; n];
    for (s, &own) in spans.iter().zip(&self_ns) {
        match s.name {
            "workloads.gen" => gen_ns += own,
            "ds.layout" => {
                layout_ns += own;
                layout_calls += 1;
                if s.estimate {
                    est_layout_ns[s.cell] += own;
                }
            }
            "workloads.run" => run_ns[s.cell] += own,
            _ => {}
        }
        if s.estimate {
            est_ns[s.cell] += s.dur_ns();
        }
    }
    let mut gen_edges = 0u64;
    let (mut irregular, mut affine, mut fallback) = (0u64, 0u64, 0u64);
    let mut irregular_est_ns = 0u64;
    let mut run_net_ns = 0u64;
    let mut accesses = 0u64;
    for (i, r) in results.iter().enumerate() {
        let Ok((m, t)) = r else { continue };
        gen_keys.extend(t.gen);
        gen_edges += t.gen_edges;
        irregular += t.alloc.irregular;
        affine += t.alloc.affine;
        fallback += t.alloc.fallback;
        if t.alloc.irregular > 0 {
            irregular_est_ns += est_ns[i];
        }
        let internal = if t.layout_inside_run {
            est_layout_ns[i]
        } else {
            0
        };
        run_net_ns += run_ns[i].saturating_sub(internal);
        accesses += sim_accesses(m);
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        metric("workloads.gen.self_ms", gen_ns as f64 / 1e6, "ms"),
        metric("workloads.gen.calls", gen_keys.len() as f64, "count"),
        metric(
            "workloads.gen.unique_ratio",
            unique_ratio(&gen_keys),
            "ratio",
        ),
        metric(
            "workloads.gen.edges_per_s",
            ratio(gen_edges as f64, gen_ns as f64 / 1e9),
            "1/s",
        ),
        metric("ds.layout.self_ms", layout_ns as f64 / 1e6, "ms"),
        metric("ds.layout.calls", layout_calls as f64, "count"),
        metric("core.alloc.irregular_calls", irregular as f64, "count"),
        metric("core.alloc.affine_calls", affine as f64, "count"),
        metric("core.alloc.fallbacks", fallback as f64, "count"),
        metric(
            "core.alloc.ns_per_irregular",
            ratio(irregular_est_ns as f64, irregular as f64),
            "ns",
        ),
        metric("workloads.run.self_ms", run_net_ns as f64 / 1e6, "ms"),
        metric(
            "workloads.run.ns_per_access",
            ratio(run_net_ns as f64, accesses as f64),
            "ns",
        ),
    ]
}

/// Simulated nsc/noc/cache counters over the workload's cells.
fn sim_counters<'a>(cells: impl Iterator<Item = &'a Metrics>) -> Vec<Metric> {
    let mut n = 0usize;
    let mut bound = [0u64; 5];
    let (mut chain, mut cycles) = (0u64, 0u64);
    let mut flits = [0u64; 3];
    let (mut util, mut miss, mut imbalance) = (0.0, 0.0, 0.0);
    let (mut dram, mut accesses) = (0u64, 0u64);
    for m in cells {
        n += 1;
        let b = &m.breakdown;
        let terms = [b.core_compute, b.se_compute, b.bank_service, b.link, b.dram];
        let top = terms.iter().copied().max().unwrap_or(0);
        if let Some(k) = terms.iter().position(|&t| t == top) {
            bound[k] += 1;
        }
        chain += b.chain;
        cycles += m.cycles;
        for (f, v) in flits.iter_mut().zip(m.hop_flits) {
            *f += v;
        }
        util += m.noc_utilization;
        miss += m.l3_miss_rate;
        imbalance += m.bank_imbalance;
        dram += m.dram_accesses;
        accesses += sim_accesses(m);
    }
    vec![
        metric("nsc.sim_accesses", accesses as f64, "count"),
        metric("nsc.bound_cells.core_compute", bound[0] as f64, "count"),
        metric("nsc.bound_cells.se_compute", bound[1] as f64, "count"),
        metric("nsc.bound_cells.bank_service", bound[2] as f64, "count"),
        metric("nsc.bound_cells.link", bound[3] as f64, "count"),
        metric("nsc.bound_cells.dram", bound[4] as f64, "count"),
        metric(
            "nsc.chain_share",
            chain as f64 / cycles.max(1) as f64,
            "ratio",
        ),
        metric("noc.hop_flits.offload", flits[0] as f64, "count"),
        metric("noc.hop_flits.data", flits[1] as f64, "count"),
        metric("noc.hop_flits.control", flits[2] as f64, "count"),
        metric("noc.utilization_mean", util / n.max(1) as f64, "ratio"),
        metric("cache.l3_miss_rate_mean", miss / n.max(1) as f64, "ratio"),
        metric("cache.dram_accesses", dram as f64, "count"),
        metric(
            "cache.bank_imbalance_mean",
            imbalance / n.max(1) as f64,
            "ratio",
        ),
    ]
}

fn spans_json(spans: &[Span]) -> String {
    let self_ns = spans::self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"cell\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"estimate\": {}}}",
            s.name, s.cell, s.start_ns, s.end_ns, s.estimate
        );
    }
    out
}

// ---------------------------------------------------------------- provenance

fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git_rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"jobs\": {}, \"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"build_profile\": {}, \"git_rev\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.jobs,
        args.cores,
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_rev),
    )
}
