//! Figure reports: labeled rows of named numeric series, rendered as text
//! tables (and serializable to JSON for downstream plotting).

use aff_sim_core::json::{self, Value};

/// One row of a figure: a label (workload, Δ value, policy…) plus one value
/// per series.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label.
    pub label: String,
    /// One value per column of the parent figure.
    pub values: Vec<f64>,
}

impl Row {
    /// Construct a row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }
}

/// A reproduced figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier ("fig4", "fig12", …).
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// Column (series) names.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Free-form notes (scale used, normalization).
    pub notes: Vec<String>,
}

impl Figure {
    /// Start a figure with the given columns.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: Vec<&str>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(Row::new(label, values));
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Column index by name.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column named {name}"))
    }

    /// Values of one column across rows.
    pub fn column_values(&self, name: &str) -> Vec<f64> {
        let i = self.col(name);
        self.rows.iter().map(|r| r.values[i]).collect()
    }

    /// Render as JSON for downstream plotting (non-finite values become
    /// `null`).
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|r| {
            Value::object([
                ("label", (&r.label).into()),
                ("values", r.values.iter().copied().collect()),
            ])
        });
        Value::object([
            ("id", (&self.id).into()),
            ("title", (&self.title).into()),
            ("columns", self.columns.iter().collect()),
            ("rows", rows.collect()),
            ("notes", self.notes.iter().collect()),
        ])
        .render()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once("row".len()))
            .max()
            .unwrap_or(3)
            .max(3);
        let col_w: Vec<usize> = self.columns.iter().map(|c| c.len().max(9)).collect();
        out.push_str(&format!("{:label_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:label_w$}", r.label));
            for (v, w) in r.values.iter().zip(&col_w) {
                if v.abs() >= 1000.0 {
                    out.push_str(&format!("  {v:>w$.0}"));
                } else {
                    out.push_str(&format!("  {v:>w$.3}"));
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// Per-cell simulation metrics sidecar (schema `aff-bench/sweep-v7`).
///
/// A compact, plotting-oriented projection of
/// [`Metrics`](aff_nsc::engine::Metrics): the handful of scalars the paper's
/// figures are built from, recorded per sweep cell when the harness runs
/// with `--metrics`. Collection is opt-in because the sidecar roughly
/// doubles the `BENCH_sweep.json` size and most CI runs only need the
/// wall-time/throughput columns. v4 over v3: the fault-recovery triple
/// (`fault_epochs`, `evacuated_lines`, `transitions`) — all zero/empty on
/// plain runs, populated under a fault timeline or `--chaos`. v5 over v4:
/// the multi-tenant pair (`fragmentation_ratio`, `tenants`) — zero/empty on
/// single-tenant runs, populated by the `tenants` churn family. v7 over v5:
/// the hint-provenance pair (`hint_source`, `inferred_hints`) —
/// `null`/zero on ordinary annotated runs, populated by the `inference`
/// closed-loop family. Every earlier field is emitted unchanged, so v4+
/// readers keep working.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Analytic cycle estimate.
    pub cycles: u64,
    /// Total flit-hops across traffic classes.
    pub total_hop_flits: u64,
    /// Mean/peak link utilization.
    pub noc_utilization: f64,
    /// Access-weighted L3 miss rate in `[0, 1]`.
    pub l3_miss_rate: f64,
    /// DRAM line accesses.
    pub dram_accesses: u64,
    /// Total energy (pJ) under the default model.
    pub energy_pj: f64,
    /// Busiest-bank / mean-bank access ratio.
    pub bank_imbalance: f64,
    /// Fault epochs the run crossed (timeline events that fired).
    pub fault_epochs: u64,
    /// Cache lines evacuated off dying banks at those epochs.
    pub evacuated_lines: u64,
    /// The fired transition log, rendered (`"bank-fail(9)@100"`), in the
    /// order the events landed.
    pub transitions: Vec<String>,
    /// Free-listed fraction of claimed pool space at cell end (0 when the
    /// cell does not churn an allocator).
    pub fragmentation_ratio: f64,
    /// Per-tenant admission/quota/shed counters (empty on single-tenant
    /// cells).
    pub tenants: Vec<aff_sim_core::tenant::TenantUsage>,
    /// Where the run's affinity hints came from (`"inferred"` / `"none"`);
    /// `None` on ordinary annotated runs, so every pre-inference cell is
    /// unchanged.
    pub hint_source: Option<String>,
    /// Hints applied from a mined profile (0 outside inferred runs).
    pub inferred_hints: u64,
}

impl From<&aff_nsc::engine::Metrics> for CellMetrics {
    fn from(m: &aff_nsc::engine::Metrics) -> Self {
        Self {
            cycles: m.cycles,
            total_hop_flits: m.total_hop_flits,
            noc_utilization: m.noc_utilization,
            l3_miss_rate: m.l3_miss_rate,
            dram_accesses: m.dram_accesses,
            energy_pj: m.energy_pj,
            bank_imbalance: m.bank_imbalance,
            fault_epochs: m.degradation.fault_epochs,
            evacuated_lines: m.degradation.evacuated_lines,
            transitions: m.transitions.iter().map(|t| t.to_string()).collect(),
            fragmentation_ratio: m.fragmentation_ratio,
            tenants: m.tenants.clone(),
            hint_source: m.hint_source.clone(),
            inferred_hints: m.inferred_hints,
        }
    }
}

impl CellMetrics {
    fn to_value(&self) -> Value {
        let tenants = self.tenants.iter().map(|t| {
            Value::object([
                ("tenant", t.tenant.into()),
                ("name", (&t.name).into()),
                ("admitted", t.admitted.into()),
                ("quota_rejects", t.quota_rejects.into()),
                ("shed", t.shed.into()),
                ("retries", t.retries.into()),
                ("backoff_ticks", t.backoff_ticks.into()),
                ("resident_bytes", t.resident_bytes.into()),
                ("evacuated_lines", t.evacuated_lines.into()),
                ("migrated_bytes", t.migrated_bytes.into()),
                ("se_ops", t.se_ops.into()),
                ("core_ops", t.core_ops.into()),
                ("traffic_msgs", t.traffic_msgs.into()),
                ("dram_lines", t.dram_lines.into()),
            ])
        });
        Value::object([
            ("cycles", self.cycles.into()),
            ("total_hop_flits", self.total_hop_flits.into()),
            ("noc_utilization", self.noc_utilization.into()),
            ("l3_miss_rate", self.l3_miss_rate.into()),
            ("dram_accesses", self.dram_accesses.into()),
            ("energy_pj", self.energy_pj.into()),
            ("bank_imbalance", self.bank_imbalance.into()),
            ("fault_epochs", self.fault_epochs.into()),
            ("evacuated_lines", self.evacuated_lines.into()),
            ("transitions", self.transitions.iter().collect()),
            ("fragmentation_ratio", self.fragmentation_ratio.into()),
            ("tenants", tenants.collect()),
            ("hint_source", self.hint_source.as_ref().into()),
            ("inferred_hints", self.inferred_hints.into()),
        ])
    }
}

/// Wall-time and throughput accounting for one executed sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStat {
    /// Figure the cell belongs to.
    pub figure: String,
    /// Cell label (row-oriented).
    pub label: String,
    /// Whether the cell completed.
    pub ok: bool,
    /// Error message when it did not.
    pub error: Option<String>,
    /// Measured wall time, nanoseconds.
    pub wall_ns: u64,
    /// Simulated cycles the cell covered (0 for table-style cells).
    pub sim_cycles: u64,
    /// Execution attempts the outcome took (1 = first try; retries add up).
    pub attempts: u32,
    /// Whether the outcome was replayed — from the resume journal or the
    /// memo store — instead of executed this run.
    pub cached: bool,
    /// Simulation metrics sidecar, populated when the sweep ran with metrics
    /// collection enabled and the cell produced engine metrics (`None` for
    /// table-style cells, failed cells, and metrics-off runs).
    pub metrics: Option<CellMetrics>,
}

impl CellStat {
    /// Simulated megacycles per wall-second — the sweep's throughput unit.
    pub fn mcycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.sim_cycles as f64 / 1e6) / (self.wall_ns as f64 / 1e9)
    }

    /// Whether this cell's failure is a run-to-completion limit (cycle/event
    /// budget, watchdog stall, or wall-clock timeout) rather than a broken
    /// cell. The `figures` binary maps these to exit code 4.
    pub fn budget_limited(&self) -> bool {
        self.error.as_deref().is_some_and(|e| {
            e.contains("budget exhausted:")
                || e.contains("stalled: no flit moved")
                || e.contains("timeout: cell exceeded")
        })
    }
}

/// One run-level throughput aggregate: the headline numbers of a whole sweep
/// at a given worker count. The current run always contributes the first
/// row of the report's `aggregates` array; `figures --aggregate-from PATH`
/// merges the rows of a prior report so one `BENCH_sweep.json` can record
/// e.g. both the `--jobs 1` and `--jobs 4` baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// Worker count of the run this row measures.
    pub jobs: usize,
    /// End-to-end wall time, milliseconds.
    pub wall_ms: f64,
    /// Total simulated cycles across cells.
    pub total_sim_cycles: u64,
    /// Aggregate simulated megacycles per wall-second.
    pub mcycles_per_sec: f64,
}

impl AggregateRow {
    fn to_value(&self) -> Value {
        Value::object([
            ("jobs", self.jobs.into()),
            ("wall_ms", self.wall_ms.into()),
            ("total_sim_cycles", self.total_sim_cycles.into()),
            ("mcycles_per_sec", self.mcycles_per_sec.into()),
        ])
    }

    /// The aggregate rows of a rendered sweep report. A v6+ report yields
    /// its `aggregates` array; an older report (no array) degrades to one
    /// row built from its top-level totals. Rows missing a field are
    /// skipped, and anything that is not JSON yields `[]`.
    pub fn parse_report(text: &str) -> Vec<AggregateRow> {
        let Ok(doc) = json::parse(text) else {
            return Vec::new();
        };
        match doc.get("aggregates").and_then(Value::as_array) {
            Some(rows) => rows.iter().filter_map(Self::from_value).collect(),
            // Pre-v6 report: its run-level header fields are the one row.
            None => Self::from_value(&doc).into_iter().collect(),
        }
    }

    fn from_value(v: &Value) -> Option<AggregateRow> {
        Some(AggregateRow {
            jobs: usize::try_from(v.get("jobs")?.as_u64()?).ok()?,
            wall_ms: v.get("wall_ms")?.as_f64()?,
            total_sim_cycles: v.get("total_sim_cycles")?.as_u64()?,
            mcycles_per_sec: v.get("mcycles_per_sec")?.as_f64()?,
        })
    }
}

/// Machine-readable record of one sweep run (`BENCH_sweep.json`): per-cell
/// wall time and simulated-cycle throughput, plus run-level totals. Unlike
/// [`Figure`] output — which is byte-identical across `--jobs` settings —
/// this report holds *measurements* and differs run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Experiment seed.
    pub seed: u64,
    /// End-to-end wall time of the sweep, nanoseconds.
    pub wall_ns: u64,
    /// Per-cell stats, in declaration order.
    pub cells: Vec<CellStat>,
    /// Cells replayed from the resume journal instead of executed.
    pub resumed_cells: usize,
    /// Cells replayed from the cross-run memo store instead of executed.
    pub memo_hits: usize,
    /// First error that disabled checkpoint journaling, if any (the sweep
    /// itself still completes; only durability is lost).
    pub journal_error: Option<String>,
    /// Aggregate rows carried over from a prior report
    /// (`--aggregate-from`); the current run's own row is always emitted
    /// first and is not stored here.
    pub extra_aggregates: Vec<AggregateRow>,
}

impl SweepReport {
    /// Total simulated cycles across cells.
    pub fn total_sim_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.sim_cycles).sum()
    }

    /// Sum of per-cell wall times (exceeds `wall_ns` when cells overlap on
    /// workers; the ratio is the achieved parallelism).
    pub fn total_cell_wall_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_ns).sum()
    }

    /// Cells that failed.
    pub fn failures(&self) -> impl Iterator<Item = &CellStat> {
        self.cells.iter().filter(|c| !c.ok)
    }

    /// Failed cells whose error is a run-to-completion limit (budget,
    /// stall watchdog, timeout) — the `figures` exit-code-4 class.
    pub fn budget_failures(&self) -> impl Iterator<Item = &CellStat> {
        self.cells.iter().filter(|c| c.budget_limited())
    }

    /// Aggregate simulated megacycles per wall-second.
    pub fn mcycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.total_sim_cycles() as f64 / 1e6) / (self.wall_ns as f64 / 1e9)
    }

    /// Summed cell wall time over sweep wall time: the achieved parallelism.
    pub fn parallelism(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.total_cell_wall_ns() as f64 / self.wall_ns as f64
    }

    /// This run's own aggregate row (the first entry of `aggregates`).
    pub fn aggregate(&self) -> AggregateRow {
        AggregateRow {
            jobs: self.jobs,
            wall_ms: self.wall_ns as f64 / 1e6,
            total_sim_cycles: self.total_sim_cycles(),
            mcycles_per_sec: self.mcycles_per_sec(),
        }
    }

    /// Render as JSON (`BENCH_sweep.json` schema `aff-bench/sweep-v7`).
    ///
    /// v3 over v2: every cell object carries a `"metrics"` key — the
    /// [`CellMetrics`] sidecar object when collected, `null` otherwise.
    /// v5 over v4: the metrics object gains `fragmentation_ratio` and
    /// `tenants`; all v4 keys are unchanged.
    /// v6 over v5: run level gains `memo_hits` and an `aggregates` array —
    /// this run's [`AggregateRow`] first, then any rows merged from a prior
    /// report via `--aggregate-from`.
    /// v7 over v6: the metrics object gains the hint-provenance pair
    /// (`hint_source`, `inferred_hints`) stamped by the `inference` family;
    /// `null`/0 everywhere else.
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|c| {
            Value::object([
                ("figure", (&c.figure).into()),
                ("label", (&c.label).into()),
                ("ok", c.ok.into()),
                ("error", c.error.as_ref().into()),
                ("wall_ms", (c.wall_ns as f64 / 1e6).into()),
                ("sim_cycles", c.sim_cycles.into()),
                ("mcycles_per_sec", c.mcycles_per_sec().into()),
                ("attempts", c.attempts.into()),
                ("cached", c.cached.into()),
                (
                    "metrics",
                    c.metrics
                        .as_ref()
                        .map_or(Value::Null, CellMetrics::to_value),
                ),
            ])
        });
        let aggregates = std::iter::once(self.aggregate())
            .chain(self.extra_aggregates.iter().cloned())
            .map(|a| a.to_value());
        Value::object([
            ("schema", "aff-bench/sweep-v7".into()),
            ("jobs", self.jobs.into()),
            ("seed", self.seed.into()),
            ("wall_ms", (self.wall_ns as f64 / 1e6).into()),
            ("total_sim_cycles", self.total_sim_cycles().into()),
            (
                "total_cell_wall_ms",
                (self.total_cell_wall_ns() as f64 / 1e6).into(),
            ),
            ("mcycles_per_sec", self.mcycles_per_sec().into()),
            ("parallelism", self.parallelism().into()),
            ("failed_cells", self.failures().count().into()),
            ("budget_failed_cells", self.budget_failures().count().into()),
            ("resumed_cells", self.resumed_cells.into()),
            ("memo_hits", self.memo_hits.into()),
            ("journal_error", self.journal_error.as_ref().into()),
            ("aggregates", aggregates.collect()),
            ("cells", cells.collect()),
        ])
        .render()
    }

    /// One-paragraph human summary (stderr material: never part of the
    /// byte-identical figure output).
    pub fn render_summary(&self) -> String {
        let failed = self.failures().count();
        let mut out = format!(
            "sweep: {} cells on {} worker(s) in {:.1} ms ({:.1} sim-Mcy/s, parallelism {:.2}x{})",
            self.cells.len(),
            self.jobs,
            self.wall_ns as f64 / 1e6,
            self.mcycles_per_sec(),
            self.parallelism(),
            if failed == 0 {
                String::new()
            } else {
                format!(", {failed} FAILED")
            }
        );
        let mut slowest: Vec<&CellStat> = self.cells.iter().collect();
        slowest.sort_by_key(|c| std::cmp::Reverse(c.wall_ns));
        for c in slowest.iter().take(3) {
            out.push_str(&format!(
                "\n  slowest: {}/{} {:.1} ms ({:.1} sim-Mcy/s)",
                c.figure,
                c.label,
                c.wall_ns as f64 / 1e6,
                c.mcycles_per_sec()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("figX", "Sample", vec!["speedup", "hops"]);
        f.push("a", vec![1.0, 0.5]);
        f.push("b", vec![2.0, 0.25]);
        f.note("normalized to a");
        f
    }

    #[test]
    fn columns_and_rows() {
        let f = sample();
        assert_eq!(f.col("hops"), 1);
        assert_eq!(f.column_values("speedup"), vec![1.0, 2.0]);
    }

    #[test]
    fn renders_all_parts() {
        let s = sample().render();
        assert!(s.contains("figX"));
        assert!(s.contains("speedup"));
        assert!(s.contains("note: normalized to a"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut f = Figure::new("f", "t", vec!["one"]);
        f.push("bad", vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn missing_column_panics() {
        sample().col("nope");
    }

    fn sample_sweep() -> SweepReport {
        SweepReport {
            jobs: 4,
            seed: 2023,
            wall_ns: 2_000_000,
            cells: vec![
                CellStat {
                    figure: "fig4".into(),
                    label: "In-Core".into(),
                    ok: true,
                    error: None,
                    wall_ns: 1_000_000,
                    sim_cycles: 5_000_000,
                    attempts: 1,
                    cached: true,
                    metrics: Some(CellMetrics {
                        cycles: 5_000_000,
                        total_hop_flits: 1234,
                        noc_utilization: 0.25,
                        l3_miss_rate: 0.01,
                        dram_accesses: 77,
                        energy_pj: 1.5e6,
                        bank_imbalance: f64::NAN,
                        fault_epochs: 2,
                        evacuated_lines: 4096,
                        transitions: vec![
                            "bank-fail(9)@100".into(),
                            "bank-repair(9)@2000".into(),
                        ],
                        fragmentation_ratio: 0.125,
                        tenants: vec![{
                            let mut u =
                                aff_sim_core::tenant::TenantUsage::new(0, "alice");
                            u.admitted = 42;
                            u.shed = 3;
                            u.resident_bytes = 4096;
                            u
                        }],
                        hint_source: Some("inferred".into()),
                        inferred_hints: 12,
                    }),
                },
                CellStat {
                    figure: "fig4".into(),
                    label: "Δ Bank 4".into(),
                    ok: false,
                    error: Some("boom \"quoted\"".into()),
                    wall_ns: 3_000_000,
                    sim_cycles: 0,
                    attempts: 2,
                    cached: false,
                    metrics: None,
                },
            ],
            resumed_cells: 1,
            memo_hits: 1,
            journal_error: None,
            extra_aggregates: vec![AggregateRow {
                jobs: 1,
                wall_ms: 8.5,
                total_sim_cycles: 5_000_000,
                mcycles_per_sec: 588.2,
            }],
        }
    }

    #[test]
    fn sweep_report_totals_and_throughput() {
        let r = sample_sweep();
        assert_eq!(r.total_sim_cycles(), 5_000_000);
        assert_eq!(r.total_cell_wall_ns(), 4_000_000);
        assert_eq!(r.failures().count(), 1);
        // 5 Mcy in 2 ms of wall time = 2500 Mcy/s.
        assert!((r.mcycles_per_sec() - 2500.0).abs() < 1e-9);
        assert!((r.cells[0].mcycles_per_sec() - 5000.0).abs() < 1e-9);
    }

    /// `SweepReport::to_json` bytes for `sample_sweep()`, recorded before
    /// the report moved onto the shared JSON writer.
    const SAMPLE_SWEEP_JSON: &str = r#"{
  "schema": "aff-bench/sweep-v7",
  "jobs": 4,
  "seed": 2023,
  "wall_ms": 2,
  "total_sim_cycles": 5000000,
  "total_cell_wall_ms": 4,
  "mcycles_per_sec": 2500,
  "parallelism": 2,
  "failed_cells": 1,
  "budget_failed_cells": 0,
  "resumed_cells": 1,
  "memo_hits": 1,
  "journal_error": null,
  "aggregates": [
    { "jobs": 4, "wall_ms": 2, "total_sim_cycles": 5000000, "mcycles_per_sec": 2500 },
    { "jobs": 1, "wall_ms": 8.5, "total_sim_cycles": 5000000, "mcycles_per_sec": 588.2 }
  ],
  "cells": [
    { "figure": "fig4", "label": "In-Core", "ok": true, "error": null, "wall_ms": 1, "sim_cycles": 5000000, "mcycles_per_sec": 5000, "attempts": 1, "cached": true, "metrics": { "cycles": 5000000, "total_hop_flits": 1234, "noc_utilization": 0.25, "l3_miss_rate": 0.01, "dram_accesses": 77, "energy_pj": 1500000, "bank_imbalance": null, "fault_epochs": 2, "evacuated_lines": 4096, "transitions": ["bank-fail(9)@100", "bank-repair(9)@2000"], "fragmentation_ratio": 0.125, "tenants": [{ "tenant": 0, "name": "alice", "admitted": 42, "quota_rejects": 0, "shed": 3, "retries": 0, "backoff_ticks": 0, "resident_bytes": 4096, "evacuated_lines": 0, "migrated_bytes": 0, "se_ops": 0, "core_ops": 0, "traffic_msgs": 0, "dram_lines": 0 }], "hint_source": "inferred", "inferred_hints": 12 } },
    { "figure": "fig4", "label": "Δ Bank 4", "ok": false, "error": "boom \"quoted\"", "wall_ms": 3, "sim_cycles": 0, "mcycles_per_sec": 0, "attempts": 2, "cached": false, "metrics": null }
  ]
}"#;

    #[test]
    fn sweep_report_json_is_byte_pinned() {
        let j = sample_sweep().to_json();
        assert_eq!(j, SAMPLE_SWEEP_JSON);
        let doc = json::parse(&j).expect("the report is valid JSON");
        assert_eq!(
            doc.get("cells")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn aggregate_rows_round_trip_through_the_rendered_report() {
        let r = sample_sweep();
        let rows = AggregateRow::parse_report(&r.to_json());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], r.aggregate());
        assert_eq!(rows[1], r.extra_aggregates[0]);
        // A pre-v6 report (no aggregates array) degrades to one row built
        // from the run-level header fields.
        let legacy = "{\n  \"schema\": \"aff-bench/sweep-v5\",\n  \"jobs\": 2,\n  \
                      \"wall_ms\": 10.5,\n  \"total_sim_cycles\": 42,\n  \
                      \"mcycles_per_sec\": 4,\n  \"cells\": [\n  ]\n}";
        let rows = AggregateRow::parse_report(legacy);
        assert_eq!(
            rows,
            vec![AggregateRow {
                jobs: 2,
                wall_ms: 10.5,
                total_sim_cycles: 42,
                mcycles_per_sec: 4.0,
            }]
        );
        // Garbage parses to nothing, not a panic.
        assert!(AggregateRow::parse_report("not json at all").is_empty());
    }

    #[test]
    fn aggregate_rows_survive_compaction_and_keep_u64_precision() {
        // `jq -c` output: no whitespace anywhere.
        let compact = "{\"schema\":\"aff-bench/sweep-v7\",\"jobs\":4,\"aggregates\":[\
                       {\"jobs\":4,\"wall_ms\":2,\"total_sim_cycles\":5000000,\"mcycles_per_sec\":2500},\
                       {\"jobs\":1,\"wall_ms\":8.5,\"total_sim_cycles\":5000000,\"mcycles_per_sec\":588.2}],\
                       \"cells\":[]}";
        assert_eq!(
            AggregateRow::parse_report(compact),
            AggregateRow::parse_report(SAMPLE_SWEEP_JSON)
        );
        // Cycle totals above 2^53 are not representable as f64.
        let big = (1u64 << 53) + 1;
        let r = SweepReport {
            extra_aggregates: vec![AggregateRow {
                total_sim_cycles: big,
                ..sample_sweep().extra_aggregates[0].clone()
            }],
            ..sample_sweep()
        };
        assert_eq!(
            AggregateRow::parse_report(&r.to_json())[1].total_sim_cycles,
            big
        );
    }

    #[test]
    fn checked_in_sweep_record_yields_its_two_aggregate_rows() {
        let text = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_sweep.json"
        ));
        assert_eq!(
            AggregateRow::parse_report(text),
            vec![
                AggregateRow {
                    jobs: 4,
                    wall_ms: 58263.591186,
                    total_sim_cycles: 1302585300,
                    mcycles_per_sec: 22.356763005590267,
                },
                AggregateRow {
                    jobs: 1,
                    wall_ms: 54236.159869,
                    total_sim_cycles: 1302585300,
                    mcycles_per_sec: 24.016916078612795,
                },
            ]
        );
    }

    #[test]
    fn budget_limited_matches_run_to_completion_errors() {
        let mut c = sample_sweep().cells[1].clone();
        assert!(!c.budget_limited());
        for msg in [
            "budget exhausted: max_cycles limit 100 reached (101)",
            "stalled: no flit moved for 10000 cycles at cycle 10042 with 337 \
             flits in flight across 3 congested routers",
            "timeout: cell exceeded 50 ms wall clock",
        ] {
            c.error = Some(msg.to_string());
            assert!(c.budget_limited(), "{msg}");
        }
        let r = SweepReport {
            cells: vec![c],
            ..sample_sweep()
        };
        assert_eq!(r.budget_failures().count(), 1);
    }

    #[test]
    fn sweep_summary_mentions_failures_and_slowest() {
        let s = sample_sweep().render_summary();
        assert!(s.contains("1 FAILED"));
        assert!(s.contains("slowest:"));
    }
}
