//! Deterministic parallel sweep engine.
//!
//! Every figure decomposes into self-contained [`SweepCell`] jobs — one per
//! (workload, config) point — that share **no** mutable state: each cell
//! builds its runtimes and traffic matrices from the experiment seed, shares
//! only immutable generated inputs (graphs) through the sweep's
//! [`InputCache`], and any cell-local stochastic choice draws from a stream
//! derived with [`SimRng::split`] from `(experiment seed, cell id)`, never
//! from a generator another cell might have advanced. Cells therefore compute
//! the same bits no matter which worker runs them or in which order.
//!
//! [`run_plans`] executes the cells of one or more [`SweepPlan`]s on a
//! `std::thread::scope` worker pool (`jobs` workers pulling indices from an
//! atomic counter) and then merges results back **in declaration order**, so
//! the produced [`Figure`]s are byte-identical to a `jobs = 1` run. Per-cell
//! wall time and simulated-cycle throughput are recorded in a
//! [`SweepReport`] for the perf trajectory
//! (`BENCH_sweep.json`).
//!
//! Cells fail soft: a panicking cell is caught (`catch_unwind`), recorded as
//! a cell-level error in the report, and surfaced as `NaN` rows / notes in
//! the merged figure — one broken cell never aborts the harness.
//!
//! Run-to-completion extras (all opt-in via [`RunOpts`]):
//!
//! * **per-cell timeout** — the cell runs on a watchdog thread; if it blows
//!   `cell_timeout_ms` of wall clock the worker abandons it and records a
//!   `timeout:` error instead of hanging the sweep;
//! * **bounded retry** — a panicked or timed-out cell re-runs up to
//!   `max_retries` times, each attempt on a deterministically re-split RNG
//!   stream (attempt 0 uses the unchanged stream, so retry-free runs are
//!   byte-identical to the engine without this feature);
//! * **checkpoint journal and memo** — every finished cell is one
//!   [`JournalEntry`] record, appended (fsync'd, checksummed) to the
//!   [`crate::journal`] record log and filled into the [`crate::memo`]
//!   store; with `resume` the journal's intact prefix is replayed, memo
//!   hits replay across runs, and only missing or failed cells execute.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::journal::{code_salt, journal_scope, JournalEntry, JournalReplay, RecordLog};
use crate::memo::MemoStore;
use crate::report::{CellStat, Figure, Row, SweepReport};
use aff_nsc::engine::Metrics;
use aff_sim_core::config::MachineConfig;
use aff_sim_core::error::SimError;
use aff_sim_core::fault::{self, FaultTimeline};
use aff_sim_core::mine::{self, MinedTrace};
use aff_sim_core::rng::SimRng;
use aff_workloads::inputs::{self, InputCache};
use aff_workloads::suite::SuiteRun;

/// What one cell computed.
#[derive(Debug, Clone)]
pub enum CellData {
    /// Engine metrics of a single simulated run.
    Metrics(Box<Metrics>),
    /// Metrics plus per-iteration stats (frontier workloads).
    Run(Box<SuiteRun>),
    /// Pre-rendered figure rows (single-cell figures, tables), with the
    /// simulated cycles they covered (0 when no simulation ran).
    Rows {
        /// The rows, in declaration order.
        rows: Vec<Row>,
        /// Simulated cycles behind those rows.
        sim_cycles: u64,
    },
}

impl CellData {
    /// The metrics behind this cell, when it ran a single simulation.
    pub fn metrics(&self) -> Option<&Metrics> {
        match self {
            CellData::Metrics(m) => Some(m),
            CellData::Run(r) => Some(&r.metrics),
            CellData::Rows { .. } => None,
        }
    }

    /// Simulated cycles this cell covered (throughput accounting).
    pub fn sim_cycles(&self) -> u64 {
        match self {
            CellData::Rows { sim_cycles, .. } => *sim_cycles,
            other => other.metrics().map_or(0, |m| m.cycles),
        }
    }
}

impl From<Metrics> for CellData {
    fn from(m: Metrics) -> Self {
        CellData::Metrics(Box::new(m))
    }
}

impl From<SuiteRun> for CellData {
    fn from(r: SuiteRun) -> Self {
        CellData::Run(Box::new(r))
    }
}

/// Read access to a plan's executed cells, indexed by the ids
/// [`PlanBuilder::cell`] returned. All accessors are failure-tolerant:
/// a failed (or differently-shaped) cell reads as `None`, so merge
/// functions degrade to `NaN` rows instead of panicking.
#[derive(Debug)]
pub struct Outcomes<'a> {
    cells: &'a [JournalEntry],
}

impl<'a> Outcomes<'a> {
    /// Number of cells in the plan.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan had no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Metrics of cell `i`, if it succeeded with a metrics-shaped result.
    pub fn metrics(&self, i: usize) -> Option<&'a Metrics> {
        self.cells
            .get(i)
            .and_then(|c| c.result.as_ref().ok())
            .and_then(|d| d.metrics())
    }

    /// Full run (metrics + per-iteration stats) of cell `i`.
    pub fn run(&self, i: usize) -> Option<&'a SuiteRun> {
        match self.cells.get(i).and_then(|c| c.result.as_ref().ok()) {
            Some(CellData::Run(r)) => Some(r),
            _ => None,
        }
    }

    /// Pre-rendered rows of cell `i`.
    pub fn rows(&self, i: usize) -> Option<&'a [Row]> {
        match self.cells.get(i).and_then(|c| c.result.as_ref().ok()) {
            Some(CellData::Rows { rows, .. }) => Some(rows),
            _ => None,
        }
    }

    /// Speedup of cell `i` over cell `base` (`NaN` when either failed).
    pub fn speedup(&self, i: usize, base: usize) -> f64 {
        match (self.metrics(i), self.metrics(base)) {
            (Some(m), Some(b)) => m.speedup_over(b),
            _ => f64::NAN,
        }
    }

    /// Traffic of cell `i` relative to cell `base` (`NaN` on failure).
    pub fn traffic(&self, i: usize, base: usize) -> f64 {
        match (self.metrics(i), self.metrics(base)) {
            (Some(m), Some(b)) => m.traffic_vs(b),
            _ => f64::NAN,
        }
    }

    /// Energy efficiency of cell `i` over cell `base` (`NaN` on failure).
    pub fn energy_eff(&self, i: usize, base: usize) -> f64 {
        match (self.metrics(i), self.metrics(base)) {
            (Some(m), Some(b)) => m.energy_eff_over(b),
            _ => f64::NAN,
        }
    }

    /// A metrics field of cell `i`, or `NaN` when the cell failed.
    pub fn field(&self, i: usize, f: impl Fn(&Metrics) -> f64) -> f64 {
        self.metrics(i).map_or(f64::NAN, f)
    }

    /// Append one `note:` line per failed cell, so broken cells are visible
    /// in the rendered figure without aborting the merge.
    pub fn annotate_failures(&self, fig: &mut Figure) {
        for c in self.cells {
            if let Err(e) = &c.result {
                fig.note(format!("cell {} FAILED: {e}", c.label));
            }
        }
    }
}

type CellJob = Arc<dyn Fn(&mut SimRng) -> CellData + Send + Sync>;
type MergeFn = Box<dyn FnOnce(&Outcomes<'_>) -> Figure + Send>;

/// One self-contained (workload, config) job.
pub struct SweepCell {
    label: String,
    job: CellJob,
}

/// A figure decomposed into cells plus the order-stable merge that
/// reassembles the [`Figure`] from their outcomes.
pub struct SweepPlan {
    /// Figure id (`"fig12"`, …).
    pub figure: &'static str,
    cells: Vec<SweepCell>,
    merge: MergeFn,
}

impl SweepPlan {
    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Cell labels, in declaration order.
    pub fn cell_labels(&self) -> Vec<&str> {
        self.cells.iter().map(|c| c.label.as_str()).collect()
    }
}

/// Builder: declare cells (capturing their id for the merge), then attach
/// the merge function.
pub struct PlanBuilder {
    figure: &'static str,
    cells: Vec<SweepCell>,
}

impl PlanBuilder {
    /// Start a plan for `figure`.
    pub fn new(figure: &'static str) -> Self {
        Self {
            figure,
            cells: Vec::new(),
        }
    }

    /// Declare a cell; returns its id for use inside the merge function.
    ///
    /// The job receives a private RNG stream derived with [`SimRng::split`]
    /// from `(experiment seed, figure, cell index)`; jobs must take any
    /// cell-local randomness from it (and nothing else) so results stay
    /// independent of scheduling order. Jobs are `Fn` (not `FnOnce`) so a
    /// timed-out or panicked cell can be retried on a fresh RNG stream.
    pub fn cell<F>(&mut self, label: impl Into<String>, job: F) -> usize
    where
        F: Fn(&mut SimRng) -> CellData + Send + Sync + 'static,
    {
        self.cells.push(SweepCell {
            label: label.into(),
            job: Arc::new(job),
        });
        self.cells.len() - 1
    }

    /// Declare a **closed-loop** cell: the annotate → profile → infer loop
    /// as a single self-contained job.
    ///
    /// `profile` runs first with a fresh thread-local
    /// [`CoAccessMiner`](aff_sim_core::mine::CoAccessMiner) installed — every
    /// engine built on the worker thread streams its access events into it.
    /// The mined summary is then handed to `replay`, whose output becomes
    /// the cell's data. Because both phases live inside one cell, the loop
    /// inherits every engine guarantee for free: byte-identical across
    /// `--jobs`, memo/journal-cacheable as one outcome, retried as a unit.
    ///
    /// The miner is taken down even when `profile` panics, so a broken
    /// profiling phase cannot leak a recorder into whatever cell the pooled
    /// worker thread picks up next; the panic then propagates into the
    /// engine's normal fail-soft path.
    pub fn closed_loop_cell<P, R>(&mut self, label: impl Into<String>, profile: P, replay: R) -> usize
    where
        P: Fn(&mut SimRng) + Send + Sync + 'static,
        R: Fn(&mut SimRng, MinedTrace) -> CellData + Send + Sync + 'static,
    {
        self.cell(label, move |rng| {
            mine::install_thread_miner();
            let profiled = catch_unwind(AssertUnwindSafe(|| profile(rng)));
            let trace = mine::take_thread_miner().unwrap_or_default();
            match profiled {
                Ok(()) => replay(rng, trace),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// Attach the merge function and finish the plan.
    pub fn merge<F>(self, f: F) -> SweepPlan
    where
        F: FnOnce(&Outcomes<'_>) -> Figure + Send + 'static,
    {
        SweepPlan {
            figure: self.figure,
            cells: self.cells,
            merge: Box::new(f),
        }
    }
}

/// FNV-1a over the figure id, xor-folded with the cell index: a stable,
/// declaration-order-independent stream id for [`SimRng::split`].
fn stream_id(figure: &str, index: usize) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in figure.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Execution policy for one sweep run. [`RunOpts::new`] gives the legacy
/// behavior: no timeout, no retries, no journal.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Worker count (clamped to ≥ 1).
    pub jobs: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Per-cell wall-clock timeout in milliseconds. `None` runs cells
    /// inline on the worker; `Some` runs each cell on a watchdog thread
    /// that is abandoned when the deadline passes.
    pub cell_timeout_ms: Option<u64>,
    /// Re-run a panicked or timed-out cell up to this many extra times,
    /// attempt `k > 0` on an RNG stream re-split from `(stream, k)`.
    pub max_retries: u32,
    /// Checkpoint journal path; `None` disables journaling.
    pub journal: Option<std::path::PathBuf>,
    /// Replay the journal's intact prefix and skip its completed cells.
    pub resume: bool,
    /// Experiment context hash (figure set, scale) stamped into the journal
    /// header; a mismatch on resume discards the journal.
    pub context: u64,
    /// Record the per-cell [`CellMetrics`](crate::report::CellMetrics)
    /// sidecar (schema `aff-bench/sweep-v7`) for every cell that produces
    /// engine metrics. Off by default: the sidecar roughly doubles the sweep
    /// report and most runs only need the throughput columns.
    pub collect_metrics: bool,
    /// Chaos mode: sample a deterministic per-cell [`FaultTimeline`] from
    /// this seed (split on the cell's own stream id, so results are
    /// schedule-independent) and install it thread-locally around the cell.
    /// Every finished cell is held to the online chaos invariants; a
    /// violation fails the cell soft — into the same retry/journal
    /// machinery as a panic — rather than aborting the sweep.
    pub chaos: Option<u64>,
    /// Fault-event budget per sampled chaos timeline (0 means
    /// [`DEFAULT_CHAOS_INTENSITY`]; only read when `chaos` is set).
    pub chaos_intensity: u32,
    /// Cross-run memo store path ([`crate::memo`]); `None` disables
    /// memoization. Unlike the journal — which pins one experiment — the
    /// memo caches cells across runs by content hash, so overlapping
    /// experiments (figure subsets, repeated runs) reuse each other's cells.
    pub memo: Option<std::path::PathBuf>,
    /// Harness configuration hash folded into every memo key (scale,
    /// geometry, tenant count — everything that reshapes cell inputs but is
    /// not already in the key via seed/chaos/figure/cell).
    pub memo_config: u64,
}

/// Fault events per chaos timeline when [`RunOpts::chaos_intensity`] is 0.
pub const DEFAULT_CHAOS_INTENSITY: u32 = 4;

impl RunOpts {
    /// Legacy options: run everything, no timeout/retry/journal.
    pub fn new(jobs: usize, seed: u64) -> Self {
        Self {
            jobs,
            seed,
            ..Self::default()
        }
    }

    /// The chaos intensity this run samples: as configured, 0 meaning
    /// [`DEFAULT_CHAOS_INTENSITY`]. Memo keys hash this value, so 0 and the
    /// default share cells.
    fn chaos_events(&self) -> u32 {
        match self.chaos_intensity {
            0 => DEFAULT_CHAOS_INTENSITY,
            n => n,
        }
    }
}

struct Task {
    plan_idx: usize,
    cell_idx: usize,
    figure: &'static str,
    label: String,
    job: CellJob,
    /// Content key of the cell's record (see [`crate::memo`]).
    key: u64,
}

/// Stream perturbation for retry attempt `k`: zero for `k = 0` (first
/// attempts are byte-identical to a retry-free engine), a full-avalanche
/// odd-constant multiply otherwise — a distinct deterministic stream per
/// attempt, per cell.
fn retry_stream(base: u64, attempt: u32) -> u64 {
    base ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The report row for one finished cell — executed, journal-replayed and
/// memo-replayed alike, so a resumed or memoized run's report carries the
/// same sidecars as an uninterrupted one. The metrics sidecar is recorded
/// when collection is enabled and the cell produced engine metrics.
fn cell_stat(entry: &JournalEntry, cached: bool, opts: &RunOpts) -> CellStat {
    let data = entry.result.as_ref().ok();
    CellStat {
        figure: entry.figure.clone(),
        label: entry.label.clone(),
        ok: data.is_some(),
        error: entry.result.as_ref().err().cloned(),
        wall_ns: entry.wall_ns,
        sim_cycles: data.map_or(0, CellData::sim_cycles),
        attempts: entry.attempts,
        cached,
        metrics: data
            .filter(|_| opts.collect_metrics)
            .and_then(CellData::metrics)
            .map(crate::report::CellMetrics::from),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "cell panicked".to_string())
}

/// Sample the chaos timeline for one attempt, when chaos mode is on. The
/// generator splits on the attempt's RNG stream, so the timeline is as
/// schedule-independent (and retry-perturbed) as the cell's own randomness.
fn chaos_timeline(opts: &RunOpts, stream: u64) -> Option<FaultTimeline> {
    opts.chaos.map(|chaos_seed| {
        let mut rng = SimRng::split(chaos_seed, stream);
        FaultTimeline::chaos(&mut rng, &MachineConfig::paper_default(), opts.chaos_events())
    })
}

/// Online invariant checks a chaos cell's result must pass. Cells without
/// engine metrics (pre-rendered tables) only carry the no-panic guarantee.
fn chaos_invariants(data: &CellData, timeline: &FaultTimeline) -> Result<(), String> {
    let Some(m) = data.metrics() else {
        return Ok(());
    };
    // Conservation: the per-class flit counters partition the total.
    let class_sum: u64 = m.hop_flits.iter().sum();
    if class_sum != m.total_hop_flits {
        return Err(format!(
            "flit conservation: classes sum to {class_sum}, total says {}",
            m.total_hop_flits
        ));
    }
    // Monotone cycles: the estimate is exactly the (nonzero) breakdown total.
    if m.cycles == 0 || m.cycles != m.breakdown.total().max(1) {
        return Err(format!(
            "cycle monotonicity: cycles {} vs breakdown total {}",
            m.cycles,
            m.breakdown.total()
        ));
    }
    // The transition log must be an order-preserving subsequence of the
    // installed timeline (engines drop events their machine cannot express,
    // and events past the run's end never fire — but nothing may fire out
    // of order or from outside the schedule).
    let mut remaining = timeline.events().iter();
    for t in &m.transitions {
        if !remaining.any(|e| e == t) {
            return Err(format!("transition {t:?} is not in the installed timeline"));
        }
    }
    if m.degradation.fault_epochs != m.transitions.len() as u64 {
        return Err(format!(
            "epoch count: report says {}, transition log has {}",
            m.degradation.fault_epochs,
            m.transitions.len()
        ));
    }
    Ok(())
}

/// One in-thread execution: install the sweep's input cache and the
/// attempt's chaos timeline (when present) for the duration of the job,
/// catch panics, and hold the finished cell to the chaos invariants. Both
/// are uninstalled even when the job panics — workers are reused across
/// cells, and a cache left behind would outlive its sweep.
fn run_attempt(
    job: &CellJob,
    seed: u64,
    stream: u64,
    chaos: Option<FaultTimeline>,
    inputs: Option<&Arc<InputCache>>,
) -> Result<CellData, String> {
    if let Some(tl) = &chaos {
        fault::install_thread_chaos(tl.clone());
    }
    if let Some(cache) = inputs {
        inputs::install_thread_inputs(Arc::clone(cache));
    }
    let mut rng = SimRng::split(seed, stream);
    let result = catch_unwind(AssertUnwindSafe(|| job(&mut rng))).map_err(panic_message);
    if inputs.is_some() {
        let _ = inputs::take_thread_inputs();
    }
    if chaos.is_some() {
        let _ = fault::take_thread_chaos();
    }
    if let (Ok(data), Some(tl)) = (&result, &chaos) {
        chaos_invariants(data, tl).map_err(|e| format!("chaos invariant violated: {e}"))?;
    }
    result
}

/// One execution attempt: inline on the calling worker, or — when a timeout
/// is configured — on a watchdog thread that the worker abandons if the
/// deadline passes (the thread keeps running detached; its result is
/// discarded on arrival, and its handle on the input cache keeps the cache
/// alive until it finishes).
fn attempt_cell(
    job: &CellJob,
    opts: &RunOpts,
    stream: u64,
    inputs: Option<&Arc<InputCache>>,
) -> Result<CellData, String> {
    let seed = opts.seed;
    let chaos = chaos_timeline(opts, stream);
    match opts.cell_timeout_ms {
        None => run_attempt(job, seed, stream, chaos, inputs),
        Some(ms) => {
            let (tx, rx) = std::sync::mpsc::channel();
            let job = Arc::clone(job);
            let inputs = inputs.cloned();
            let spawned = std::thread::Builder::new()
                .name("sweep-cell".into())
                .spawn(move || {
                    let _ = tx.send(run_attempt(&job, seed, stream, chaos, inputs.as_ref()));
                });
            match spawned {
                Err(e) => Err(format!("could not spawn cell thread: {e}")),
                Ok(_handle) => match rx.recv_timeout(std::time::Duration::from_millis(ms)) {
                    Ok(result) => result,
                    Err(_) => Err(aff_sim_core::error::SimError::Timeout { limit_ms: ms }
                        .to_string()),
                },
            }
        }
    }
}

/// Run one task under the retry/timeout policy, catching panics so a broken
/// cell degrades to an error record instead of killing the harness.
fn run_task(task: Task, opts: &RunOpts, inputs: Option<&Arc<InputCache>>) -> JournalEntry {
    let base_stream = stream_id(task.figure, task.cell_idx);
    let start = Instant::now();
    let mut attempts = 0u32;
    let result = loop {
        let stream = retry_stream(base_stream, attempts);
        attempts += 1;
        let result = attempt_cell(&task.job, opts, stream, inputs);
        if result.is_ok() || attempts > opts.max_retries {
            break result;
        }
    };
    JournalEntry {
        figure: task.figure.to_string(),
        cell_idx: task.cell_idx as u64,
        label: task.label,
        attempts,
        wall_ns: start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        result,
    }
}

/// Where a finished cell's record came from this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Executed,
    Journal,
    Memo,
}

/// One finished cell: its record, where it came from, and its plan.
struct Done {
    plan_idx: usize,
    entry: JournalEntry,
    source: Source,
}

/// The durable side of a run: the journal (when journaling is on) with the
/// first [`SimError::Journal`] that disabled it, and the memo store (when
/// memoization is on). Workers serialize on one mutex around it — appends
/// are tiny next to cell compute time.
struct Records {
    journal: Option<RecordLog>,
    journal_error: Option<SimError>,
    memo: Option<MemoStore>,
}

impl Records {
    /// Degrade to journal-less execution: drop the log, keep the typed
    /// error for the report, and warn immediately on stderr — a full disk
    /// (`ENOSPC`) or dying device (`EIO`) mid-sweep costs durability, never
    /// the figures.
    fn degrade(&mut self, op: &'static str, err: &std::io::Error) {
        self.journal = None;
        let typed = SimError::journal(op, err);
        eprintln!("warning: {typed}");
        self.journal_error = Some(typed);
    }

    /// The one record step for a finished cell: append it to the journal
    /// unless it was replayed from there (so a later `--resume` sees memo
    /// hits too), and memoize it unless the memo already holds its key.
    /// Failed cells are never memoized — they retry on the next run.
    fn record(&mut self, key: u64, entry: &JournalEntry, source: Source) {
        if source != Source::Journal {
            if let Some(Err(e)) = self.journal.as_mut().map(|log| log.append(key, entry)) {
                self.degrade("append", &e);
            }
        }
        if let Some(memo) = self.memo.as_mut() {
            if entry.result.is_ok() && memo.get(key).is_none() {
                memo.insert(key, entry);
            }
        }
    }
}

/// Memo key for one cell under this run's options — the content hash of
/// everything the cell's bytes depend on (see [`crate::memo`]).
fn memo_key_for(figure: &str, cell_idx: usize, label: &str, opts: &RunOpts, salt: u64) -> u64 {
    crate::memo::memo_key(&crate::memo::KeyParts {
        salt,
        config: opts.memo_config,
        seed: opts.seed,
        chaos: opts.chaos,
        chaos_intensity: opts.chaos_events(),
        figure,
        cell_idx: cell_idx as u64,
        label,
    })
}

/// Execute `plans` with `jobs` workers and merge each plan's figure in
/// declaration order — the legacy entry point, equivalent to
/// [`run_plans_opts`] with [`RunOpts::new`].
///
/// Output is byte-identical for every `jobs >= 1`: cells share no mutable state,
/// their RNG streams come from order-insensitive splitting, and both the
/// outcome vector and the returned figures follow declaration order, not
/// completion order. (The [`SweepReport`] records *measured* wall times and
/// is the one output that legitimately differs between runs.)
pub fn run_plans(plans: Vec<SweepPlan>, jobs: usize, seed: u64) -> (Vec<Figure>, SweepReport) {
    run_plans_opts(plans, &RunOpts::new(jobs, seed))
}

/// Execute `plans` under the full [`RunOpts`] policy (timeouts, retries,
/// checkpoint journal, resume). The byte-identity guarantee extends to
/// resumed runs: a journaled cell replays the exact bits it computed before
/// the interruption, so `--resume` output matches an uninterrupted run.
///
/// Cells share generated inputs through one [`InputCache`] created for this
/// call and dropped when it returns: each distinct input is built once per
/// sweep. Inputs are immutable and equal to a direct build, so sharing never
/// changes a byte of output.
pub fn run_plans_opts(plans: Vec<SweepPlan>, opts: &RunOpts) -> (Vec<Figure>, SweepReport) {
    run_plans_with_inputs(plans, opts, Some(&Arc::new(InputCache::new())))
}

/// [`run_plans_opts`] with the input cache supplied by the caller, or with
/// none (`None`: every cell generates its own inputs). Tests use it to count
/// builds and to compare against the unshared path.
pub(crate) fn run_plans_with_inputs(
    plans: Vec<SweepPlan>,
    opts: &RunOpts,
    inputs: Option<&Arc<InputCache>>,
) -> (Vec<Figure>, SweepReport) {
    let jobs = opts.jobs.max(1);
    let seed = opts.seed;
    let salt = code_salt();
    let total_start = Instant::now();

    // Flatten every plan's cells into one task list (stable global order).
    let mut shapes: Vec<(usize, &'static str, MergeFn)> = Vec::with_capacity(plans.len());
    let mut tasks: Vec<Task> = Vec::new();
    for (plan_idx, plan) in plans.into_iter().enumerate() {
        shapes.push((plan.cells.len(), plan.figure, plan.merge));
        for (cell_idx, cell) in plan.cells.into_iter().enumerate() {
            tasks.push(Task {
                plan_idx,
                cell_idx,
                figure: plan.figure,
                key: memo_key_for(plan.figure, cell_idx, &cell.label, opts, salt),
                label: cell.label,
                job: cell.job,
            });
        }
    }
    let n_tasks = tasks.len();

    // Harvest longest-cell-first scheduling hints from whatever journal the
    // previous run left, *before* the log is truncated below. The lenient
    // scan ignores the salt/scope header on purpose: a stale journal still
    // predicts which cells are big, and hints only shape the work-stealing
    // seed order — never output bytes.
    let wall_hints: std::collections::BTreeMap<(String, u64), u64> = opts
        .journal
        .as_deref()
        .map(crate::journal::read_wall_hints)
        .unwrap_or_default();

    // Open both indexes over the record log. Resume replays the journal's
    // intact prefix (cached entries skip execution below); a missing or
    // stale journal re-runs everything against a fresh file; I/O errors
    // degrade to no journaling, recorded in the report. The memo persists
    // across runs; a stale store (other code) was already discarded.
    let mut records = Records {
        journal: None,
        journal_error: None,
        memo: opts.memo.as_deref().map(|p| MemoStore::open(p, salt)),
    };
    let mut journaled = Default::default();
    if let Some(path) = &opts.journal {
        match RecordLog::open(path, salt, journal_scope(seed, opts.context), opts.resume) {
            Ok((log, replayed)) => {
                if replayed.stale {
                    eprintln!("note: journal was from another experiment or code version; re-running every cell");
                }
                journaled = JournalReplay::from(replayed).entries;
                records.journal = Some(log);
            }
            Err((op, e)) => records.degrade(op, &e),
        }
    }
    if let Some(err) = records.memo.as_ref().and_then(|m| m.error.as_deref()) {
        eprintln!("warning: memo store disabled: {err}");
    }
    if records.memo.as_ref().is_some_and(|m| m.invalidated) {
        eprintln!("note: memo store was stale (different code version); starting fresh");
    }

    // Split tasks into journal hits, memo hits, and cells that still need
    // to run. A hit must be a successful record of the exact same figure,
    // cell and label — the memo's 64-bit key already covers them, but a
    // hash collision must degrade to a miss, never a wrong replay. Failed
    // records are deliberately *not* reused: they retry.
    let mut done: Vec<Done> = Vec::with_capacity(n_tasks);
    let mut to_run: Vec<Task> = Vec::with_capacity(n_tasks);
    for t in tasks {
        let same = |e: &JournalEntry| {
            e.figure == t.figure
                && e.cell_idx == t.cell_idx as u64
                && e.label == t.label
                && e.result.is_ok()
        };
        let hit = journaled
            .remove(&(t.figure.to_string(), t.cell_idx as u64))
            .filter(|e| same(e))
            .map(|e| (e, Source::Journal))
            .or_else(|| {
                let memo = records.memo.as_ref()?;
                memo.get(t.key).filter(|e| same(e)).map(|e| (e.clone(), Source::Memo))
            });
        match hit {
            Some((entry, source)) => {
                records.record(t.key, &entry, source);
                done.push(Done {
                    plan_idx: t.plan_idx,
                    entry,
                    source,
                });
            }
            None => to_run.push(t),
        }
    }

    // Execute. `--jobs 1` runs cells inline in declaration order. Parallel
    // runs use a work-stealing pool: each worker owns a deque of task
    // indices, seeded longest-cell-first from the journaled wall times of
    // the previous run (cold runs fall back to declaration order) and dealt
    // round-robin so every worker starts on a big cell instead of the old
    // index-counter pool's failure mode — small cells queueing behind one
    // straggler while finished workers idle. A worker pops its own front
    // (its biggest remaining seed); when empty it steals a victim's *back*
    // (the victim's smallest), which keeps the expensive cells with the
    // workers that were seeded for them. Results carry their (plan, cell)
    // coordinates and cell RNG streams split from order-insensitive ids, so
    // neither seeding nor stealing can change output bytes. Both paths run
    // `execute`, which records each finished cell before the worker moves
    // on, so a kill at any instant loses at most the cells then in flight.
    let records = Mutex::new(records);
    let execute = |t: Task| {
        let (plan_idx, key) = (t.plan_idx, t.key);
        let entry = run_task(t, opts, inputs);
        records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .record(key, &entry, Source::Executed);
        Done {
            plan_idx,
            entry,
            source: Source::Executed,
        }
    };
    let executed: Vec<Done> = if jobs == 1 || to_run.len() <= 1 {
        to_run.into_iter().map(execute).collect()
    } else {
        let n_run = to_run.len();
        let workers = jobs.min(n_run);
        let mut order: Vec<usize> = (0..n_run).collect();
        order.sort_by_key(|&i| {
            let t = &to_run[i];
            let hint = wall_hints
                .get(&(t.figure.to_string(), t.cell_idx as u64))
                .copied()
                .unwrap_or(0);
            // Descending wall hint; unknown cells (hint 0) keep declaration
            // order at the tail.
            (std::cmp::Reverse(hint), i)
        });
        let slots: Vec<std::sync::Mutex<Option<Task>>> = to_run
            .into_iter()
            .map(|t| std::sync::Mutex::new(Some(t)))
            .collect();
        let deques: Vec<std::sync::Mutex<std::collections::VecDeque<usize>>> = (0..workers)
            .map(|w| {
                std::sync::Mutex::new(order.iter().skip(w).step_by(workers).copied().collect())
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let slots = &slots;
                    let deques = &deques;
                    let execute = &execute;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // Own front first, then a cyclic victim scan.
                            // Indices leave a deque exactly once (under its
                            // mutex) and are never re-queued, so a worker
                            // that sees every deque empty can safely exit.
                            // Recover from poisoning rather than unwrap so
                            // a panicking sibling worker (a harness bug,
                            // cells themselves are caught) can't cascade.
                            let mut claimed = None;
                            for v in 0..workers {
                                let mut q = deques[(w + v) % workers]
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                                claimed = if v == 0 { q.pop_front() } else { q.pop_back() };
                                if claimed.is_some() {
                                    break;
                                }
                            }
                            let Some(i) = claimed else { break };
                            let task = slots[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take();
                            out.extend(task.map(execute));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        })
    };
    done.extend(executed);
    // The report serializes the typed error's stable rendering; its `kind()`
    // tag ("journal") prefixes it so downstream tooling can dispatch without
    // string-matching the message.
    let journal_error = records
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .journal_error
        .map(|e| format!("{}: {e}", e.kind()));

    // Scatter records back into declaration order. Stats sort by (plan,
    // cell), i.e. declaration order, so the report is itself deterministic
    // up to the measured wall times.
    done.sort_by_key(|d| (d.plan_idx, d.entry.cell_idx));
    let count = |source| done.iter().filter(|d| d.source == source).count();
    let (resumed_cells, memo_hits) = (count(Source::Journal), count(Source::Memo));
    let mut per_plan: Vec<Vec<Option<JournalEntry>>> =
        shapes.iter().map(|(n, _, _)| vec![None; *n]).collect();
    let mut stats: Vec<CellStat> = Vec::with_capacity(n_tasks);
    for d in done {
        stats.push(cell_stat(&d.entry, d.source != Source::Executed, opts));
        let slot = d.entry.cell_idx as usize;
        per_plan[d.plan_idx][slot] = Some(d.entry);
    }

    // Merge, in plan declaration order.
    let mut figures = Vec::with_capacity(shapes.len());
    for ((_, figure, merge), outcomes) in shapes.into_iter().zip(per_plan) {
        let cells: Vec<JournalEntry> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or_else(|| JournalEntry {
                    figure: figure.to_string(),
                    cell_idx: i as u64,
                    label: format!("{figure}#{i}"),
                    attempts: 0,
                    wall_ns: 0,
                    result: Err("cell was never executed (worker died)".to_string()),
                })
            })
            .collect();
        figures.push(merge(&Outcomes { cells: &cells }));
    }

    let report = SweepReport {
        jobs,
        seed,
        wall_ns: total_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        cells: stats,
        resumed_cells,
        memo_hits,
        journal_error,
        extra_aggregates: Vec::new(),
    };
    (figures, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_plan(label: &'static str) -> SweepPlan {
        let mut b = PlanBuilder::new(label);
        let mut ids = Vec::new();
        for i in 0..5u64 {
            ids.push(b.cell(format!("cell{i}"), move |rng| CellData::Rows {
                rows: vec![Row::new(format!("cell{i}"), vec![rng.next_u64() as f64])],
                sim_cycles: i,
            }));
        }
        b.merge(move |o| {
            let mut fig = Figure::new(label, "toy", vec!["v"]);
            for &i in &ids {
                if let Some(rows) = o.rows(i) {
                    fig.rows.extend(rows.iter().cloned());
                }
            }
            o.annotate_failures(&mut fig);
            fig
        })
    }

    #[test]
    fn serial_and_parallel_runs_are_byte_identical() {
        let (serial, _) = run_plans(vec![toy_plan("a"), toy_plan("b")], 1, 42);
        let (par, _) = run_plans(vec![toy_plan("a"), toy_plan("b")], 4, 42);
        let s: Vec<String> = serial.iter().map(Figure::to_json).collect();
        let p: Vec<String> = par.iter().map(Figure::to_json).collect();
        assert_eq!(s, p);
        // Different figures get different streams even at equal cell index.
        assert_ne!(serial[0].rows[0].values, serial[1].rows[0].values);
    }

    #[test]
    fn closed_loop_cells_mine_then_replay_in_one_cell() {
        use aff_sim_core::mine::RegionKind;
        use aff_sim_core::trace::{Event, Recorder};
        let mut b = PlanBuilder::new("loop");
        let id = b.closed_loop_cell(
            "cell",
            |_rng| {
                // The profiling phase sees a fresh thread-local miner.
                assert!(mine::thread_miner_installed());
                mine::register_region(0, RegionKind::Array, 4, 16);
                let mut rec = mine::ThreadMinerRecorder;
                for i in 0..8u64 {
                    rec.record(&Event::ProfileTouch { region: 0, elem: i, step: i });
                }
            },
            |_rng, trace| CellData::Rows {
                rows: vec![Row::new("mined", vec![trace.touch_events as f64])],
                sim_cycles: 0,
            },
        );
        let plan = b.merge(move |o| {
            let mut fig = Figure::new("loop", "closed loop", vec!["touches"]);
            if let Some(rows) = o.rows(id) {
                fig.rows.extend(rows.iter().cloned());
            }
            o.annotate_failures(&mut fig);
            fig
        });
        let (figs, _) = run_plans(vec![plan], 1, 7);
        assert_eq!(figs[0].rows[0].values, vec![8.0]);
        // jobs = 1 ran the cell inline on this thread: the miner must be gone.
        assert!(!mine::thread_miner_installed());
    }

    #[test]
    fn closed_loop_profile_panic_fails_soft_and_uninstalls_the_miner() {
        let mut b = PlanBuilder::new("loop-panic");
        let id = b.closed_loop_cell(
            "cell",
            |_rng| panic!("profiling phase exploded"),
            |_rng, _trace| CellData::Rows {
                rows: vec![Row::new("unreached", vec![1.0])],
                sim_cycles: 0,
            },
        );
        let plan = b.merge(move |o| {
            let mut fig = Figure::new("loop-panic", "closed loop", vec!["v"]);
            assert!(o.rows(id).is_none(), "panicked cell must yield no data");
            o.annotate_failures(&mut fig);
            fig
        });
        let (figs, report) = run_plans(vec![plan], 1, 7);
        // Fail-soft: the panic became a cell-level error, not an abort …
        assert!(report.cells[0].error.as_deref().is_some_and(|e| e.contains("exploded")));
        assert!(figs[0].notes.iter().any(|n| n.contains("exploded")));
        // … and the miner did not leak onto the (reused) executing thread.
        assert!(!mine::thread_miner_installed());
    }

    #[test]
    fn stale_journal_wall_hints_seed_stealing_without_changing_bytes() {
        // A journal from a *different* experiment (other seed/context) at the
        // journal path: its wall times may seed the scheduler, but output
        // bytes must match a hint-less serial run and every cell must run
        // fresh (the stale journal is not resumed from).
        let dir = std::env::temp_dir().join("aff-sweep-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("hints-{}.journal", std::process::id()));
        let scope = journal_scope(777, 888);
        let (mut w, _) = RecordLog::open(&path, code_salt(), scope, false).expect("create");
        for (i, wall) in [(0u64, 5u64), (1, 500_000_000), (2, 10), (3, 7), (4, 100)] {
            w.append(0, &JournalEntry {
                figure: "a".into(),
                cell_idx: i,
                label: format!("cell{i}"),
                attempts: 1,
                wall_ns: wall,
                result: Err("stale".into()),
            })
            .expect("append");
        }
        drop(w);
        let (serial, _) = run_plans(vec![toy_plan("a"), toy_plan("b")], 1, 42);
        let opts = RunOpts {
            journal: Some(path.clone()),
            ..RunOpts::new(3, 42)
        };
        let (hinted, report) = run_plans_opts(vec![toy_plan("a"), toy_plan("b")], &opts);
        let s: Vec<String> = serial.iter().map(Figure::to_json).collect();
        let h: Vec<String> = hinted.iter().map(Figure::to_json).collect();
        assert_eq!(s, h);
        assert_eq!(report.resumed_cells, 0, "stale journal must not resume");
        assert!(report.cells.iter().all(|c| !c.cached));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memo_warm_run_replays_bytes_without_executing() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let dir = std::env::temp_dir().join("aff-sweep-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("memo-{}.memo", std::process::id()));
        std::fs::remove_file(&path).ok();
        let executions = Arc::new(AtomicU32::new(0));
        let plan = |ex: &Arc<AtomicU32>| {
            let mut b = PlanBuilder::new("m");
            let mut ids = Vec::new();
            for i in 0..4u64 {
                let ex = Arc::clone(ex);
                ids.push(b.cell(format!("cell{i}"), move |rng| {
                    ex.fetch_add(1, Ordering::SeqCst);
                    CellData::Rows {
                        rows: vec![Row::new(format!("cell{i}"), vec![rng.next_u64() as f64])],
                        sim_cycles: i + 1,
                    }
                }));
            }
            b.merge(move |o| {
                let mut fig = Figure::new("m", "memo", vec!["v"]);
                for &i in &ids {
                    if let Some(rows) = o.rows(i) {
                        fig.rows.extend(rows.iter().cloned());
                    }
                }
                o.annotate_failures(&mut fig);
                fig
            })
        };
        let opts = RunOpts {
            memo: Some(path.clone()),
            memo_config: 77,
            ..RunOpts::new(2, 42)
        };
        let (cold, cold_report) = run_plans_opts(vec![plan(&executions)], &opts);
        assert_eq!(executions.load(Ordering::SeqCst), 4);
        assert_eq!(cold_report.memo_hits, 0);
        // Warm run: every cell replays from the store, byte-identically.
        let (warm, warm_report) = run_plans_opts(vec![plan(&executions)], &opts);
        assert_eq!(executions.load(Ordering::SeqCst), 4, "no cell re-ran");
        assert_eq!(warm_report.memo_hits, 4);
        assert!(warm_report.cells.iter().all(|c| c.cached && c.ok));
        assert_eq!(cold[0].to_json(), warm[0].to_json());
        // A different config (scale/geometry/tenants) or seed must miss.
        for changed in [
            RunOpts {
                memo: Some(path.clone()),
                memo_config: 78,
                ..RunOpts::new(2, 42)
            },
            RunOpts {
                memo: Some(path.clone()),
                memo_config: 77,
                ..RunOpts::new(2, 43)
            },
        ] {
            let before = executions.load(Ordering::SeqCst);
            let (_, r) = run_plans_opts(vec![plan(&executions)], &changed);
            assert_eq!(r.memo_hits, 0);
            assert_eq!(executions.load(Ordering::SeqCst), before + 4);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_and_memo_compose() {
        // A memo hit is appended to the journal, a resumed journal warms an
        // empty memo, and every combination replays the cold run's bytes.
        let dir = std::env::temp_dir().join("aff-sweep-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let file = |name: &str| dir.join(format!("compose-{}.{name}", std::process::id()));
        let (memo, fresh_memo, journal) = (file("memo"), file("memo2"), file("journal"));
        for p in [&memo, &fresh_memo, &journal] {
            std::fs::remove_file(p).ok();
        }
        let plans = || vec![toy_plan("a"), toy_plan("b")];
        let json = |figs: &[Figure]| figs.iter().map(Figure::to_json).collect::<Vec<_>>();
        let opts = |memo: Option<&std::path::PathBuf>, journaled: bool, resume: bool| RunOpts {
            memo: memo.cloned(),
            journal: journaled.then(|| journal.clone()),
            resume,
            context: 5,
            ..RunOpts::new(2, 42)
        };
        let (cold, report) = run_plans_opts(plans(), &opts(Some(&memo), false, false));
        assert_eq!(report.memo_hits, 0);
        let cold = json(&cold);

        // Every cell replays from the memo and lands in the fresh journal …
        let (warm, report) = run_plans_opts(plans(), &opts(Some(&memo), true, false));
        assert_eq!((report.memo_hits, report.resumed_cells), (10, 0));
        assert_eq!(json(&warm), cold);
        // … so resuming that journal without the memo replays all of them.
        let (resumed, report) = run_plans_opts(plans(), &opts(None, true, true));
        assert_eq!((report.memo_hits, report.resumed_cells), (0, 10));
        assert_eq!(json(&resumed), cold);

        // Resuming into an empty memo store warms it from the journal.
        let (resumed, report) = run_plans_opts(plans(), &opts(Some(&fresh_memo), true, true));
        assert_eq!((report.memo_hits, report.resumed_cells), (0, 10));
        assert_eq!(json(&resumed), cold);
        let (replayed, report) = run_plans_opts(plans(), &opts(Some(&fresh_memo), false, false));
        assert_eq!(report.memo_hits, 10);
        assert_eq!(json(&replayed), cold);

        // A warm memo and a resumed journal together: still the cold bytes.
        let (both, report) = run_plans_opts(plans(), &opts(Some(&fresh_memo), true, true));
        assert_eq!(report.memo_hits + report.resumed_cells, 10);
        assert!(report.cells.iter().all(|c| c.cached && c.ok));
        assert_eq!(json(&both), cold);
        for p in [&memo, &fresh_memo, &journal] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn journal_from_other_code_is_refused_but_still_hints() {
        // A journal for this very experiment, written by a build with another
        // code salt, holding plausible successful records: resuming must
        // re-run every cell, while its wall times still seed the scheduler.
        let dir = std::env::temp_dir().join("aff-sweep-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("salt-{}.journal", std::process::id()));
        let scope = journal_scope(42, 5);
        let (mut w, _) = RecordLog::open(&path, code_salt() ^ 1, scope, false).expect("create");
        for i in 0..5u64 {
            let entry = JournalEntry {
                figure: "a".into(),
                cell_idx: i,
                label: format!("cell{i}"),
                attempts: 1,
                wall_ns: 1_000 * (i + 1),
                result: Ok(CellData::Rows {
                    rows: vec![Row::new(format!("cell{i}"), vec![-1.0])],
                    sim_cycles: i,
                }),
            };
            w.append(0, &entry).expect("append");
        }
        drop(w);
        assert_eq!(crate::journal::read_wall_hints(&path).len(), 5);
        let opts = RunOpts {
            journal: Some(path.clone()),
            resume: true,
            context: 5,
            ..RunOpts::new(2, 42)
        };
        let (fresh, _) = run_plans(vec![toy_plan("a")], 1, 42);
        let (resumed, report) = run_plans_opts(vec![toy_plan("a")], &opts);
        assert_eq!(report.resumed_cells, 0, "a journal from other code must not resume");
        assert_eq!(resumed[0].to_json(), fresh[0].to_json());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_intensity_is_used_as_given_and_zero_means_default() {
        let timeline = |intensity| {
            let opts = RunOpts {
                chaos: Some(7),
                chaos_intensity: intensity,
                ..RunOpts::new(1, 42)
            };
            let tl = chaos_timeline(&opts, stream_id("fig4", 0)).expect("chaos on");
            (tl.events().to_vec(), memo_key_for("fig4", 0, "cell", &opts, 1))
        };
        assert_ne!(timeline(1), timeline(DEFAULT_CHAOS_INTENSITY));
        assert_eq!(timeline(0), timeline(DEFAULT_CHAOS_INTENSITY));
    }

    #[test]
    fn panicking_cell_fails_soft() {
        let mut b = PlanBuilder::new("boom");
        let ok = b.cell("fine", |_| CellData::Rows {
            rows: vec![Row::new("fine", vec![1.0])],
            sim_cycles: 7,
        });
        let bad = b.cell("broken", |_| -> CellData { panic!("injected cell failure") });
        let plan = b.merge(move |o| {
            let mut fig = Figure::new("boom", "fail soft", vec!["v"]);
            assert!(o.rows(ok).is_some());
            assert!(o.rows(bad).is_none());
            fig.push("broken", vec![o.field(bad, |m| m.noc_utilization)]);
            o.annotate_failures(&mut fig);
            fig
        });
        let (figs, report) = run_plans(vec![plan], 4, 1);
        assert!(figs[0].rows[0].values[0].is_nan());
        assert!(figs[0].notes.iter().any(|n| n.contains("injected cell failure")));
        let broken = &report.cells[1];
        assert!(!broken.ok);
        assert_eq!(report.cells[0].sim_cycles, 7);
    }

    #[test]
    fn unwritable_journal_degrades_to_journal_less_execution() {
        // A journal path that is a directory makes `create` fail with a real
        // I/O error — the same shape as ENOSPC/EIO mid-sweep. The sweep must
        // still compute every figure, with the typed journal error recorded.
        let dir = std::env::temp_dir().join("aff_sweep_journal_is_a_dir");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let opts = RunOpts {
            journal: Some(dir.clone()),
            ..RunOpts::new(2, 42)
        };
        let (figs, report) = run_plans_opts(vec![toy_plan("a")], &opts);
        let (clean, _) = run_plans(vec![toy_plan("a")], 2, 42);
        assert_eq!(figs[0].to_json(), clean[0].to_json(), "results unaffected");
        assert!(report.cells.iter().all(|c| c.ok));
        let err = report.journal_error.expect("degrade recorded");
        assert!(err.starts_with("journal: "), "typed kind() prefix: {err}");
        assert!(err.contains("journal create failed"), "{err}");
        assert!(err.contains("continuing without checkpoints"), "{err}");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn report_follows_declaration_order() {
        let (_, report) = run_plans(vec![toy_plan("x"), toy_plan("y")], 3, 9);
        let labels: Vec<&str> = report
            .cells
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(
            labels,
            vec![
                "cell0", "cell1", "cell2", "cell3", "cell4", "cell0", "cell1", "cell2", "cell3",
                "cell4"
            ]
        );
        assert_eq!(report.cells[0].figure, "x");
        assert_eq!(report.cells[5].figure, "y");
        assert_eq!(report.jobs, 3);
    }

    #[test]
    fn retries_rerun_flaky_cells_on_reseeded_streams() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (c, s) = (Arc::clone(&calls), Arc::clone(&seen));
        let mut b = PlanBuilder::new("flaky");
        b.cell("flaky", move |rng| {
            let draw = rng.next_u64();
            s.lock().expect("seen").push(draw);
            if c.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("flaky failure");
            }
            CellData::Rows {
                rows: vec![Row::new("v", vec![draw as f64])],
                sim_cycles: 1,
            }
        });
        let plan = b.merge(|o| {
            let mut fig = Figure::new("flaky", "t", vec!["v"]);
            o.annotate_failures(&mut fig);
            fig
        });
        let opts = RunOpts {
            max_retries: 3,
            ..RunOpts::new(1, 5)
        };
        let (_, report) = run_plans_opts(vec![plan], &opts);
        assert!(report.cells[0].ok);
        assert_eq!(report.cells[0].attempts, 3);
        // Each attempt drew from a distinct deterministic stream.
        let draws = seen.lock().expect("seen").clone();
        assert_eq!(draws.len(), 3);
        assert_ne!(draws[0], draws[1]);
        assert_ne!(draws[1], draws[2]);
    }

    #[test]
    fn exhausted_retries_report_the_final_error() {
        let mut b = PlanBuilder::new("hopeless");
        b.cell("hopeless", |_| -> CellData { panic!("always broken") });
        let plan = b.merge(|o| {
            let mut fig = Figure::new("hopeless", "t", vec!["v"]);
            o.annotate_failures(&mut fig);
            fig
        });
        let opts = RunOpts {
            max_retries: 2,
            ..RunOpts::new(1, 5)
        };
        let (_, report) = run_plans_opts(vec![plan], &opts);
        assert!(!report.cells[0].ok);
        assert_eq!(report.cells[0].attempts, 3);
        assert!(report.cells[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("always broken")));
    }

    #[test]
    fn timeout_abandons_hung_cells() {
        let mut b = PlanBuilder::new("hang");
        b.cell("hung", |_| {
            std::thread::sleep(std::time::Duration::from_secs(30));
            CellData::Rows {
                rows: vec![],
                sim_cycles: 0,
            }
        });
        let quick = b.cell("quick", |_| CellData::Rows {
            rows: vec![Row::new("ok", vec![1.0])],
            sim_cycles: 3,
        });
        let plan = b.merge(move |o| {
            let mut fig = Figure::new("hang", "t", vec!["v"]);
            assert!(o.rows(quick).is_some());
            o.annotate_failures(&mut fig);
            fig
        });
        let opts = RunOpts {
            cell_timeout_ms: Some(50),
            ..RunOpts::new(2, 5)
        };
        let start = Instant::now();
        let (_, report) = run_plans_opts(vec![plan], &opts);
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
        assert!(!report.cells[0].ok);
        assert!(report.cells[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("timeout: cell exceeded 50 ms")));
        assert!(report.cells[0].budget_limited());
        assert!(report.cells[1].ok);
    }

    #[test]
    fn metrics_sidecar_is_collected_only_when_asked() {
        fn plan() -> SweepPlan {
            let mut b = PlanBuilder::new("sidecar");
            b.cell("engine", |_| {
                let mut e = aff_nsc::engine::SimEngine::new(
                    aff_sim_core::config::MachineConfig::tiny_mesh(),
                );
                e.core_read_lines(0, 1, 4);
                e.try_finish().expect("unlimited budget").into()
            });
            b.cell("table", |_| CellData::Rows {
                rows: vec![Row::new("r", vec![1.0])],
                sim_cycles: 0,
            });
            b.merge(|o| {
                let mut fig = Figure::new("sidecar", "t", vec!["v"]);
                o.annotate_failures(&mut fig);
                fig
            })
        }
        let (_, without) = run_plans_opts(vec![plan()], &RunOpts::new(1, 7));
        assert!(without.cells.iter().all(|c| c.metrics.is_none()));

        let opts = RunOpts {
            collect_metrics: true,
            ..RunOpts::new(1, 7)
        };
        let (_, with) = run_plans_opts(vec![plan()], &opts);
        let m = with.cells[0].metrics.as_ref().expect("engine cell sidecar");
        assert!(m.total_hop_flits > 0);
        assert_eq!(m.cycles, with.cells[0].sim_cycles);
        // Table-style cells have no engine metrics to record.
        assert!(with.cells[1].metrics.is_none());
    }

    fn engine_plan(figure: &'static str) -> SweepPlan {
        let mut b = PlanBuilder::new(figure);
        let mut ids = Vec::new();
        for i in 0..3u64 {
            ids.push(b.cell(format!("cell{i}"), move |_| {
                let mut e = aff_nsc::engine::SimEngine::new(MachineConfig::paper_default());
                e.begin_phase();
                e.register_resident((i % 4) as u32 * 9, 1 << 16);
                e.bank_read_lines((i % 4) as u32 * 9, 200 + i);
                e.remote_atomic(0, 9, 50);
                e.end_phase();
                e.try_finish().expect("unlimited budget").into()
            }));
        }
        b.merge(move |o| {
            let mut fig = Figure::new(figure, "chaos determinism", vec!["cycles", "flits", "epochs"]);
            for &i in &ids {
                fig.push(
                    format!("cell{i}"),
                    vec![
                        o.field(i, |m| m.cycles as f64),
                        o.field(i, |m| m.total_hop_flits as f64),
                        o.field(i, |m| m.degradation.fault_epochs as f64),
                    ],
                );
            }
            o.annotate_failures(&mut fig);
            fig
        })
    }

    #[test]
    fn chaos_runs_are_deterministic_across_job_counts() {
        let run = |jobs| {
            let opts = RunOpts {
                chaos: Some(7),
                chaos_intensity: 6,
                ..RunOpts::new(jobs, 42)
            };
            let (figs, report) = run_plans_opts(vec![engine_plan("chaos")], &opts);
            assert!(report.cells.iter().all(|c| c.ok), "{:?}", report.cells);
            figs[0].to_json()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn chaos_timeline_reaches_the_engine_and_passes_invariants() {
        use aff_sim_core::fault::FaultChange;
        // A hand-made cycle-0 bank death: the engine must adopt it from the
        // thread-local install, log the transition, and the chaos invariant
        // checks must accept the result.
        let tl = FaultTimeline::none().at(0, FaultChange::BankFail(9));
        let job: CellJob = Arc::new(|_rng: &mut SimRng| {
            let mut e = aff_nsc::engine::SimEngine::new(MachineConfig::paper_default());
            e.bank_read_lines(9, 100);
            e.try_finish().expect("unlimited budget").into()
        });
        let data = run_attempt(&job, 1, 2, Some(tl.clone()), None).expect("chaos cell runs clean");
        let m = data.metrics().expect("engine cell");
        assert_eq!(m.transitions, tl.events());
        assert_eq!(m.degradation.fault_epochs, 1);
        // The install is scoped to the attempt: nothing leaks to this thread.
        assert!(!fault::thread_chaos_installed());
    }

    #[test]
    fn chaos_invariant_violation_fails_the_cell_soft() {
        let mut b = PlanBuilder::new("doctored");
        b.cell("doctored", |_| {
            let mut e = aff_nsc::engine::SimEngine::new(MachineConfig::paper_default());
            e.remote_atomic(0, 9, 10);
            let mut m = e.try_finish().expect("unlimited budget");
            m.total_hop_flits += 1; // break flit conservation
            m.into()
        });
        let plan = b.merge(|o| {
            let mut fig = Figure::new("doctored", "t", vec!["v"]);
            o.annotate_failures(&mut fig);
            fig
        });
        let opts = RunOpts {
            chaos: Some(3),
            ..RunOpts::new(1, 5)
        };
        let (figs, report) = run_plans_opts(vec![plan], &opts);
        assert!(!report.cells[0].ok);
        assert!(report.cells[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("chaos invariant violated")));
        assert!(figs[0].notes.iter().any(|n| n.contains("flit conservation")));
    }

    #[test]
    fn stream_ids_are_distinct_across_figures_and_cells() {
        let mut seen = std::collections::BTreeSet::new();
        for f in ["fig4", "fig6", "fig12", "fig13"] {
            for i in 0..128 {
                assert!(seen.insert(stream_id(f, i)), "collision at {f}/{i}");
            }
        }
    }
}

#[cfg(test)]
mod input_sharing {
    use super::*;
    use crate::figures::{fig16_plan, fig6_plan, HarnessOpts};
    use aff_workloads::suite;

    fn json(figures: &[Figure]) -> Vec<String> {
        figures.iter().map(Figure::to_json).collect()
    }

    /// A plan whose cells each read the scale-1 graph input, recording its
    /// edge count, plus an optional last cell that panics.
    fn graph_plan(cells: usize, panic_last: bool) -> SweepPlan {
        let mut b = PlanBuilder::new("shared");
        for i in 0..cells {
            b.cell(format!("cell{i}"), move |_| {
                assert!(inputs::thread_inputs().is_some(), "cells run with the cache installed");
                let g = suite::kron_shared(1, 2023, false);
                assert!(!(panic_last && i + 1 == cells), "cell {i} breaks on purpose");
                CellData::Rows {
                    rows: vec![Row::new(format!("cell{i}"), vec![g.num_edges() as f64])],
                    sim_cycles: 1,
                }
            });
        }
        b.merge(|o| {
            let mut fig = Figure::new("shared", "t", vec!["edges"]);
            for i in 0..o.len() {
                if let Some(rows) = o.rows(i) {
                    fig.rows.extend(rows.iter().cloned());
                }
            }
            o.annotate_failures(&mut fig);
            fig
        })
    }

    /// Fig 6 + Fig 16 ask for 8 distinct Kronecker inputs over 66 cells:
    /// at any job count each is built exactly once, every cell is served by
    /// the cache, and the figures are byte-identical to the unshared path.
    /// Release-only (three full sweeps); `INPUT_CACHE_E2E=1` forces it in
    /// debug builds.
    #[test]
    fn fig6_fig16_build_each_input_once_and_match_the_unshared_path() {
        if cfg!(debug_assertions) && std::env::var_os("INPUT_CACHE_E2E").is_none() {
            return;
        }
        let opts = HarnessOpts::default();
        let plans = || vec![fig6_plan(opts), fig16_plan(opts)];
        let (unshared, report) = run_plans_with_inputs(plans(), &RunOpts::new(2, opts.seed), None);
        assert_eq!(report.failures().count(), 0);
        let want = json(&unshared);
        for jobs in [1, 4] {
            let cache = Arc::new(InputCache::new());
            let (figs, report) =
                run_plans_with_inputs(plans(), &RunOpts::new(jobs, opts.seed), Some(&cache));
            assert_eq!(report.failures().count(), 0);
            assert_eq!(json(&figs), want, "jobs {jobs}: shared inputs changed the figures");
            // fig16: {unweighted, weighted} × |V| scales {1, 2, 4, 8}; fig6
            // uses the two scale-1 inputs again.
            assert_eq!(cache.built(), 8, "jobs {jobs}");
            // 66 cell requests, plus each weighted build asking for its
            // unweighted base once.
            assert_eq!(cache.lookups(), 66 + 4, "jobs {jobs}");
        }
    }

    #[test]
    fn no_cache_stays_installed_after_a_panicking_cell_or_the_sweep() {
        assert!(inputs::thread_inputs().is_none());
        // jobs 1 runs every cell inline on this thread, so this thread is
        // the worker; the last cell panics (and is retried once).
        let opts = RunOpts {
            max_retries: 1,
            ..RunOpts::new(1, 7)
        };
        let cache = Arc::new(InputCache::new());
        let (_, report) = run_plans_with_inputs(vec![graph_plan(3, true)], &opts, Some(&cache));
        assert!(report.cells[..2].iter().all(|c| c.ok));
        assert!(!report.cells[2].ok && report.cells[2].attempts == 2);
        assert!(inputs::thread_inputs().is_none(), "cache leaked onto the worker");
        assert_eq!(cache.built(), 1);
        // The public entry point cleans up after itself too.
        let _ = run_plans_opts(vec![graph_plan(2, true)], &RunOpts::new(1, 7));
        assert!(inputs::thread_inputs().is_none());
        // Only the sweep's own handle remains: nothing else kept the cache.
        assert_eq!(Arc::strong_count(&cache), 1);
    }

    #[test]
    fn cells_on_timeout_watchdog_threads_still_share_inputs() {
        let opts = RunOpts {
            cell_timeout_ms: Some(600_000),
            ..RunOpts::new(2, 7)
        };
        let cache = Arc::new(InputCache::new());
        let (figs, report) = run_plans_with_inputs(vec![graph_plan(4, false)], &opts, Some(&cache));
        assert_eq!(report.failures().count(), 0);
        assert_eq!((cache.lookups(), cache.built()), (4, 1));
        let edges = suite::kron_input(1, 2023).num_edges() as f64;
        assert!(figs[0].rows.iter().all(|r| r.values == vec![edges]));
    }
}
