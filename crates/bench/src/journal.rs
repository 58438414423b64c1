//! The sweep's one durable record log, and the resume journal built on it.
//!
//! A record log is an append-only file: a 24-byte header — magic, **code
//! salt**, scope hash — followed by self-delimiting records
//! `[u32 length][u64 FNV-1a checksum][payload]`, each fsync'd on append. The
//! payload is one cell record: the cell's content key (see [`crate::memo`])
//! and its [`JournalEntry`]. A sweep killed at *any* instant (including
//! mid-write) leaves a log whose intact prefix is fully trusted and whose
//! torn tail is detected and cut off.
//!
//! Two indexes read the same log type:
//!
//! * the **resume journal** (`BENCH_sweep.journal`, this module) indexes
//!   records by `(figure, cell index)`; its scope is the experiment's
//!   `(seed, context)`. `figures --resume` replays the intact prefix, skips
//!   the cells it covers, and re-runs only missing or failed cells; because
//!   a cell's bytes depend only on `(seed, figure, cell index)` — never on
//!   scheduling — the merged output is byte-identical to an uninterrupted
//!   run;
//! * the **memo store** ([`crate::memo`]) indexes records by content key
//!   and persists across runs and experiments.
//!
//! The code salt ([`code_salt`]) is derived by `build.rs` from every source
//! and manifest in the workspace, so any code change makes every older log
//! stale: a header whose magic, salt or scope differs is refused (the log
//! starts over empty), and results from other code or another experiment
//! never reach the figures.
//!
//! The payload is a hand-rolled little-endian encoding (the build
//! environment has no crates.io access for a real serializer): strings are
//! length-prefixed UTF-8 and `f64`s travel as `to_bits`, so values —
//! including NaNs from failed baseline cells — round-trip bit-exactly.
//!
//! Corruption policy, enforced by tests here, in `memo.rs` and in
//! `tests/run_to_completion.rs`:
//!
//! * truncated record (torn write) → prefix kept, tail dropped;
//! * bit flip anywhere in a record → checksum mismatch → that record and
//!   everything after it dropped (a flipped *length* makes record framing
//!   untrustworthy, so scanning past a bad record is not attempted);
//! * duplicate index keys (crash between write and the in-memory mark) →
//!   the **last** intact record wins.

use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use crate::report::Row;
use crate::sweep::CellData;
use aff_nsc::engine::{CycleBreakdown, Metrics};
use aff_nsc::occupancy::{OccupancySnapshot, OccupancyTimeline};
use aff_sim_core::energy::EnergyBreakdown;
use aff_sim_core::fault::{DegradationReport, FaultChange, FaultEvent, LinkRef};
use aff_workloads::graphs::{Direction, IterStat};
use aff_workloads::suite::SuiteRun;

/// File magic: identifies the format *and* its version. Bump the trailing
/// digit on any header or payload-layout change so old logs are refused,
/// not misparsed. (v5: the code salt joined the header and every record
/// carries its content key; journal and memo share the format.)
const MAGIC: &[u8; 8] = b"AFFJRNL5";

/// Header length: magic + code salt + scope hash.
const HEADER_LEN: usize = 24;

/// Upper bound on one record's payload — far above any real cell outcome,
/// low enough that a corrupt length prefix cannot trigger a huge allocation.
const MAX_RECORD_LEN: u32 = 64 << 20;

/// FNV-1a over `bytes` (the record checksum; also used for context hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The code salt of this build: FNV-1a over every `*.rs` and `Cargo.toml`
/// under `crates/` and `vendor/` plus the root `Cargo.toml` and
/// `Cargo.lock`, computed by `build.rs`. Stamped into every log header and
/// folded into every memo key, so editing any source invalidates both.
pub fn code_salt() -> u64 {
    u64::from_str_radix(env!("AFF_CODE_SALT"), 16).unwrap_or_default()
}

/// Scope of a resume journal: the experiment's seed and context hash
/// (figure set, scale, geometry, chaos parameters).
pub fn journal_scope(seed: u64, context: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&context.to_le_bytes());
    fnv1a(&bytes)
}

/// One cell record: what a cell produced, as the executor, the journal, the
/// memo store, the merge and the report all see it.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Figure the cell belongs to.
    pub figure: String,
    /// Cell index within its plan (declaration order).
    pub cell_idx: u64,
    /// Cell label.
    pub label: String,
    /// Execution attempts the outcome took (1 = first try).
    pub attempts: u32,
    /// Wall time of the successful (or final) attempt, nanoseconds.
    pub wall_ns: u64,
    /// The outcome: cell data, or the cell-level error message.
    pub result: Result<CellData, String>,
}

/// Why a log could not be replayed.
#[derive(Debug)]
pub enum JournalError {
    /// The file does not exist (a fresh run, not an error for `--resume`).
    Missing,
    /// The header does not match (different format version, code salt, or
    /// scope). Resuming must re-run everything.
    HeaderMismatch,
    /// An I/O error other than not-found.
    Io(std::io::Error),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Missing => write!(f, "journal file does not exist"),
            JournalError::HeaderMismatch => write!(
                f,
                "journal belongs to a different experiment (seed/figures/scale) or code version"
            ),
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The intact prefix of a record log, in file order.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Intact records with their content keys.
    pub records: Vec<(u64, JournalEntry)>,
    /// Whether a torn or corrupt tail was discarded.
    pub dropped_tail: bool,
    /// Whether a file was there but written by other code or for another
    /// scope, and was started over.
    pub stale: bool,
}

/// The journal index over a replayed log.
#[derive(Debug)]
pub struct JournalReplay {
    /// Last intact entry per `(figure, cell_idx)` — duplicates resolved.
    pub entries: BTreeMap<(String, u64), JournalEntry>,
    /// Whether a torn or corrupt tail was discarded.
    pub dropped_tail: bool,
    /// Intact records read (before duplicate resolution).
    pub records_read: usize,
}

impl From<Replayed> for JournalReplay {
    fn from(r: Replayed) -> Self {
        JournalReplay {
            records_read: r.records.len(),
            dropped_tail: r.dropped_tail,
            entries: r
                .records
                .into_iter()
                .map(|(_, e)| ((e.figure.clone(), e.cell_idx), e))
                .collect(),
        }
    }
}

/// An append handle on one record log. One per index per sweep; workers
/// serialize on a mutex around it (appends are rare next to cell compute).
#[derive(Debug)]
pub struct RecordLog {
    file: std::fs::File,
}

impl RecordLog {
    /// Open the log at `path` for appending under `(salt, scope)`.
    ///
    /// With `keep`, the intact prefix of a log written under the same
    /// header is replayed and a torn tail cut off. Otherwise — or when the
    /// file is missing, or stale (another magic, salt or scope) — the log
    /// starts over empty under a fresh header. An I/O error is returned
    /// with the operation it broke (`"read"`, `"resume"`, `"create"`).
    pub fn open(
        path: &Path,
        salt: u64,
        scope: u64,
        keep: bool,
    ) -> Result<(RecordLog, Replayed), (&'static str, std::io::Error)> {
        let mut replayed = Replayed::default();
        let mut valid_len = None;
        if keep {
            match read_log(path, salt, scope) {
                Ok((r, len)) => (replayed, valid_len) = (r, Some(len)),
                Err(JournalError::Missing) => {}
                Err(JournalError::HeaderMismatch) => replayed.stale = true,
                Err(JournalError::Io(e)) => return Err(("read", e)),
            }
        }
        let mut options = std::fs::OpenOptions::new();
        options.write(true);
        let file = match valid_len {
            Some(len) => options
                .open(path)
                .and_then(|mut f| {
                    f.set_len(len)?;
                    f.seek(SeekFrom::End(0))?;
                    Ok(f)
                })
                .map_err(|e| ("resume", e))?,
            None => options
                .create(true)
                .truncate(true)
                .open(path)
                .and_then(|mut f| {
                    f.write_all(MAGIC)?;
                    f.write_all(&salt.to_le_bytes())?;
                    f.write_all(&scope.to_le_bytes())?;
                    f.sync_data()?;
                    Ok(f)
                })
                .map_err(|e| ("create", e))?,
        };
        Ok((RecordLog { file }, replayed))
    }

    /// Append one cell record under its content key and fsync it durable.
    pub fn append(&mut self, key: u64, entry: &JournalEntry) -> std::io::Result<()> {
        let payload = encode_record(key, entry);
        let mut rec = Vec::with_capacity(payload.len() + 12);
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);
        self.file.write_all(&rec)?;
        self.file.sync_data()
    }
}

/// The one reader of framed records: decode records from `buf` past the
/// header until the first torn, corrupt or undecodable one, and return them
/// with the byte length of the intact prefix.
fn scan(buf: &[u8]) -> (Vec<(u64, JournalEntry)>, usize) {
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        let mut d = Dec { buf, pos };
        let Some((len, want_sum)) = d.u32().zip(d.u64()) else {
            break; // end of file, or a torn frame head
        };
        if len > MAX_RECORD_LEN {
            break; // corrupt length prefix
        }
        let Some(payload) = d.take(len as usize) else {
            break; // torn tail
        };
        if fnv1a(payload) != want_sum {
            break; // bit flip (in payload, or in the length itself)
        }
        let Some(record) = decode_record(payload) else {
            break; // checksum ok but undecodable: format drift, stop trusting
        };
        records.push(record);
        pos = d.pos;
    }
    (records, pos)
}

/// Read the log at `path`, trusting exactly its intact prefix; the header
/// must carry `salt` and `scope`. Also returns the prefix's byte length.
fn read_log(path: &Path, salt: u64, scope: u64) -> Result<(Replayed, u64), JournalError> {
    let buf = match std::fs::read(path) {
        Ok(buf) if buf.is_empty() => return Err(JournalError::Missing),
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(JournalError::Missing),
        Err(e) => return Err(JournalError::Io(e)),
    };
    if buf.len() < HEADER_LEN
        || &buf[..8] != MAGIC
        || buf[8..16] != salt.to_le_bytes()
        || buf[16..24] != scope.to_le_bytes()
    {
        return Err(JournalError::HeaderMismatch);
    }
    let (records, valid_len) = scan(&buf);
    let replayed = Replayed {
        records,
        dropped_tail: valid_len < buf.len(),
        stale: false,
    };
    Ok((replayed, valid_len as u64))
}

/// Replay the journal at `path` written by this build for the experiment
/// `(seed, context)`. A journal from another experiment or another code
/// version is refused with [`JournalError::HeaderMismatch`] — a stale
/// journal never poisons a new experiment's output.
pub fn read_journal(path: &Path, seed: u64, context: u64) -> Result<JournalReplay, JournalError> {
    read_log(path, code_salt(), journal_scope(seed, context)).map(|(r, _)| r.into())
}

/// The lenient scan: per-cell wall times from whatever intact log sits at
/// `path`, keyed by `(figure, cell_idx)`. Only the magic must match — salt
/// and scope are ignored on purpose: wall hints seed the work-stealing
/// scheduler's longest-cell-first order and can never change output bytes,
/// so a stale journal is still a fine predictor of which cells are big. Any
/// read or decode problem degrades to an empty map.
pub fn read_wall_hints(path: &Path) -> BTreeMap<(String, u64), u64> {
    match std::fs::read(path) {
        Ok(buf) if buf.starts_with(MAGIC) => scan(&buf)
            .0
            .into_iter()
            .map(|(_, e)| ((e.figure, e.cell_idx), e.wall_ns))
            .collect(),
        _ => BTreeMap::new(),
    }
}

// ---------- payload codec ----------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `f64` as raw bits: bit-exact round-trip, NaN payloads included.
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_metrics(out: &mut Vec<u8>, m: &Metrics) {
    put_u64(out, m.cycles);
    for v in [
        m.breakdown.core_compute,
        m.breakdown.se_compute,
        m.breakdown.bank_service,
        m.breakdown.link,
        m.breakdown.dram,
        m.breakdown.chain,
    ] {
        put_u64(out, v);
    }
    for v in m.hop_flits {
        put_u64(out, v);
    }
    put_u64(out, m.total_hop_flits);
    put_f64(out, m.noc_utilization);
    put_f64(out, m.l3_miss_rate);
    put_u64(out, m.dram_accesses);
    for v in [
        m.energy.noc_hop_flits,
        m.energy.l3_accesses,
        m.energy.private_accesses,
        m.energy.dram_accesses,
        m.energy.core_ops,
        m.energy.se_ops,
        m.energy.cycles,
    ] {
        put_u64(out, v);
    }
    put_f64(out, m.energy_pj);
    put_f64(out, m.bank_imbalance);
    let snaps = m.occupancy.snapshots();
    put_u32(out, snaps.len() as u32);
    for s in snaps {
        put_u32(out, s.per_bank.len() as u32);
        for &v in &s.per_bank {
            put_f64(out, v);
        }
        put_f64(out, s.weight);
    }
    for v in [
        m.degradation.rerouted_messages,
        m.degradation.detour_hops,
        m.degradation.limped_messages,
        m.degradation.remapped_banks,
        m.degradation.remapped_bytes,
        m.degradation.masked_capacity_bytes,
        m.degradation.incore_fallback_streams,
        m.degradation.rerouted_migrations,
        m.degradation.excluded_banks,
        m.degradation.fallback_allocations,
        m.degradation.fault_epochs,
        m.degradation.evacuated_lines,
    ] {
        put_u64(out, v);
    }
    put_u32(out, m.transitions.len() as u32);
    for t in &m.transitions {
        put_fault_event(out, t);
    }
    put_f64(out, m.fragmentation_ratio);
    match &m.hint_source {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
    put_u64(out, m.inferred_hints);
    put_u32(out, m.tenants.len() as u32);
    for t in &m.tenants {
        put_u32(out, t.tenant);
        put_str(out, &t.name);
        for v in [
            t.admitted,
            t.quota_rejects,
            t.shed,
            t.retries,
            t.backoff_ticks,
            t.resident_bytes,
            t.evacuated_lines,
            t.migrated_bytes,
            t.se_ops,
            t.core_ops,
            t.traffic_msgs,
            t.dram_lines,
        ] {
            put_u64(out, v);
        }
    }
}

fn put_link(out: &mut Vec<u8>, l: &LinkRef) {
    for v in [l.fx, l.fy, l.tx, l.ty] {
        put_u32(out, v);
    }
}

fn put_fault_event(out: &mut Vec<u8>, e: &FaultEvent) {
    put_u64(out, e.cycle);
    match e.change {
        FaultChange::BankFail(b) => {
            out.push(0);
            put_u32(out, b);
        }
        FaultChange::BankRepair(b) => {
            out.push(1);
            put_u32(out, b);
        }
        FaultChange::BankSlow { bank, multiplier } => {
            out.push(2);
            put_u32(out, bank);
            put_u32(out, multiplier);
        }
        FaultChange::LinkFail(l) => {
            out.push(3);
            put_link(out, &l);
        }
        FaultChange::LinkRepair(l) => {
            out.push(4);
            put_link(out, &l);
        }
        FaultChange::LinkDegrade { link, multiplier } => {
            out.push(5);
            put_link(out, &link);
            put_u32(out, multiplier);
        }
    }
}

fn put_cell_data(out: &mut Vec<u8>, data: &CellData) {
    match data {
        CellData::Metrics(m) => {
            out.push(1);
            put_metrics(out, m);
        }
        CellData::Run(r) => {
            out.push(2);
            put_metrics(out, &r.metrics);
            put_u32(out, r.iters.len() as u32);
            for it in &r.iters {
                out.push(match it.dir {
                    Direction::Push => 0,
                    Direction::Pull => 1,
                });
                put_u64(out, it.active);
                put_u64(out, it.visited);
                put_u64(out, it.scout_edges);
                put_u64(out, it.examined_edges);
            }
        }
        CellData::Rows { rows, sim_cycles } => {
            out.push(3);
            put_u64(out, *sim_cycles);
            put_u32(out, rows.len() as u32);
            for row in rows {
                put_str(out, &row.label);
                put_u32(out, row.values.len() as u32);
                for &v in &row.values {
                    put_f64(out, v);
                }
            }
        }
    }
}

/// One record payload: the content key, then the entry.
fn encode_record(key: u64, e: &JournalEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_u64(&mut out, key);
    put_str(&mut out, &e.figure);
    put_u64(&mut out, e.cell_idx);
    put_str(&mut out, &e.label);
    put_u32(&mut out, e.attempts);
    put_u64(&mut out, e.wall_ns);
    match &e.result {
        Ok(data) => put_cell_data(&mut out, data),
        Err(msg) => {
            out.push(0);
            put_str(&mut out, msg);
        }
    }
    out
}

/// Bounds-checked little-endian reader over one record payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let chunk = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(chunk)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn metrics(&mut self) -> Option<Metrics> {
        let cycles = self.u64()?;
        let breakdown = CycleBreakdown {
            core_compute: self.u64()?,
            se_compute: self.u64()?,
            bank_service: self.u64()?,
            link: self.u64()?,
            dram: self.u64()?,
            chain: self.u64()?,
        };
        let hop_flits = [self.u64()?, self.u64()?, self.u64()?];
        let total_hop_flits = self.u64()?;
        let noc_utilization = self.f64()?;
        let l3_miss_rate = self.f64()?;
        let dram_accesses = self.u64()?;
        let energy = EnergyBreakdown {
            noc_hop_flits: self.u64()?,
            l3_accesses: self.u64()?,
            private_accesses: self.u64()?,
            dram_accesses: self.u64()?,
            core_ops: self.u64()?,
            se_ops: self.u64()?,
            cycles: self.u64()?,
        };
        let energy_pj = self.f64()?;
        let bank_imbalance = self.f64()?;
        let n_snaps = self.u32()? as usize;
        let mut occupancy = OccupancyTimeline::new();
        for _ in 0..n_snaps {
            let n_banks = self.u32()? as usize;
            let mut per_bank = Vec::with_capacity(n_banks.min(1 << 16));
            for _ in 0..n_banks {
                per_bank.push(self.f64()?);
            }
            let weight = self.f64()?;
            occupancy.push(OccupancySnapshot { per_bank, weight });
        }
        let degradation = DegradationReport {
            rerouted_messages: self.u64()?,
            detour_hops: self.u64()?,
            limped_messages: self.u64()?,
            remapped_banks: self.u64()?,
            remapped_bytes: self.u64()?,
            masked_capacity_bytes: self.u64()?,
            incore_fallback_streams: self.u64()?,
            rerouted_migrations: self.u64()?,
            excluded_banks: self.u64()?,
            fallback_allocations: self.u64()?,
            fault_epochs: self.u64()?,
            evacuated_lines: self.u64()?,
        };
        let n_transitions = self.u32()? as usize;
        let mut transitions = Vec::with_capacity(n_transitions.min(1 << 16));
        for _ in 0..n_transitions {
            transitions.push(self.fault_event()?);
        }
        let fragmentation_ratio = self.f64()?;
        let hint_source = match self.u8()? {
            0 => None,
            1 => Some(self.string()?),
            _ => return None,
        };
        let inferred_hints = self.u64()?;
        let n_tenants = self.u32()? as usize;
        let mut tenants = Vec::with_capacity(n_tenants.min(1 << 16));
        for _ in 0..n_tenants {
            let id = self.u32()?;
            let name = self.string()?;
            let mut u = aff_sim_core::tenant::TenantUsage::new(id, name);
            u.admitted = self.u64()?;
            u.quota_rejects = self.u64()?;
            u.shed = self.u64()?;
            u.retries = self.u64()?;
            u.backoff_ticks = self.u64()?;
            u.resident_bytes = self.u64()?;
            u.evacuated_lines = self.u64()?;
            u.migrated_bytes = self.u64()?;
            u.se_ops = self.u64()?;
            u.core_ops = self.u64()?;
            u.traffic_msgs = self.u64()?;
            u.dram_lines = self.u64()?;
            tenants.push(u);
        }
        Some(Metrics {
            cycles,
            breakdown,
            hop_flits,
            total_hop_flits,
            noc_utilization,
            l3_miss_rate,
            dram_accesses,
            energy,
            energy_pj,
            bank_imbalance,
            occupancy,
            degradation,
            transitions,
            fragmentation_ratio,
            tenants,
            hint_source,
            inferred_hints,
        })
    }

    fn link(&mut self) -> Option<LinkRef> {
        Some(LinkRef {
            fx: self.u32()?,
            fy: self.u32()?,
            tx: self.u32()?,
            ty: self.u32()?,
        })
    }

    fn fault_event(&mut self) -> Option<FaultEvent> {
        let cycle = self.u64()?;
        let change = match self.u8()? {
            0 => FaultChange::BankFail(self.u32()?),
            1 => FaultChange::BankRepair(self.u32()?),
            2 => FaultChange::BankSlow {
                bank: self.u32()?,
                multiplier: self.u32()?,
            },
            3 => FaultChange::LinkFail(self.link()?),
            4 => FaultChange::LinkRepair(self.link()?),
            5 => FaultChange::LinkDegrade {
                link: self.link()?,
                multiplier: self.u32()?,
            },
            _ => return None,
        };
        Some(FaultEvent { cycle, change })
    }

    fn cell_data(&mut self, tag: u8) -> Option<CellData> {
        match tag {
            1 => Some(CellData::Metrics(Box::new(self.metrics()?))),
            2 => {
                let metrics = self.metrics()?;
                let n = self.u32()? as usize;
                let mut iters = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let dir = match self.u8()? {
                        0 => Direction::Push,
                        1 => Direction::Pull,
                        _ => return None,
                    };
                    iters.push(IterStat {
                        dir,
                        active: self.u64()?,
                        visited: self.u64()?,
                        scout_edges: self.u64()?,
                        examined_edges: self.u64()?,
                    });
                }
                Some(CellData::Run(Box::new(SuiteRun { metrics, iters })))
            }
            3 => {
                let sim_cycles = self.u64()?;
                let n = self.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let label = self.string()?;
                    let n_vals = self.u32()? as usize;
                    let mut values = Vec::with_capacity(n_vals.min(1 << 16));
                    for _ in 0..n_vals {
                        values.push(self.f64()?);
                    }
                    rows.push(Row { label, values });
                }
                Some(CellData::Rows { rows, sim_cycles })
            }
            _ => None,
        }
    }
}

fn decode_record(payload: &[u8]) -> Option<(u64, JournalEntry)> {
    let mut d = Dec { buf: payload, pos: 0 };
    let key = d.u64()?;
    let figure = d.string()?;
    let cell_idx = d.u64()?;
    let label = d.string()?;
    let attempts = d.u32()?;
    let wall_ns = d.u64()?;
    let tag = d.u8()?;
    let result = if tag == 0 {
        Err(d.string()?)
    } else {
        Ok(d.cell_data(tag)?)
    };
    // A record with trailing garbage decodes "successfully" but signals
    // format drift; refuse it so the reader stops trusting the file there.
    if d.pos != payload.len() {
        return None;
    }
    let entry = JournalEntry {
        figure,
        cell_idx,
        label,
        attempts,
        wall_ns,
        result,
    };
    Some((key, entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let mut occupancy = OccupancyTimeline::new();
        occupancy.push(OccupancySnapshot {
            per_bank: vec![0.5, 0.25, f64::NAN, 1.0],
            weight: 2.0,
        });
        Metrics {
            cycles: 123_456,
            breakdown: CycleBreakdown {
                core_compute: 1,
                se_compute: 2,
                bank_service: 3,
                link: 4,
                dram: 5,
                chain: 6,
            },
            hop_flits: [7, 8, 9],
            total_hop_flits: 24,
            noc_utilization: 0.125,
            l3_miss_rate: f64::NAN,
            dram_accesses: 10,
            energy: EnergyBreakdown {
                noc_hop_flits: 24,
                l3_accesses: 11,
                private_accesses: 12,
                dram_accesses: 10,
                core_ops: 13,
                se_ops: 14,
                cycles: 123_456,
            },
            energy_pj: 1.5e9,
            bank_imbalance: 3.25,
            occupancy,
            degradation: DegradationReport {
                rerouted_messages: 1,
                detour_hops: 2,
                fault_epochs: 2,
                evacuated_lines: 4096,
                ..DegradationReport::default()
            },
            transitions: vec![
                FaultEvent {
                    cycle: 100,
                    change: FaultChange::BankFail(9),
                },
                FaultEvent {
                    cycle: 2_000,
                    change: FaultChange::LinkDegrade {
                        link: LinkRef {
                            fx: 1,
                            fy: 1,
                            tx: 2,
                            ty: 1,
                        },
                        multiplier: 4,
                    },
                },
            ],
            fragmentation_ratio: 0.0625,
            hint_source: Some("inferred".to_string()),
            inferred_hints: 5,
            tenants: vec![{
                let mut u = aff_sim_core::tenant::TenantUsage::new(1, "bob");
                u.admitted = 99;
                u.resident_bytes = 1 << 16;
                u.dram_lines = 7;
                u
            }],
        }
    }

    fn entry(figure: &str, idx: u64, result: Result<CellData, String>) -> JournalEntry {
        JournalEntry {
            figure: figure.into(),
            cell_idx: idx,
            label: format!("{figure}#{idx}"),
            attempts: 1,
            wall_ns: 42,
            result,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("aff-journal-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    /// A fresh journal for the experiment `(seed, context)` under this
    /// build's salt.
    fn create(path: &Path, seed: u64, context: u64) -> RecordLog {
        RecordLog::open(path, code_salt(), journal_scope(seed, context), false)
            .expect("create")
            .0
    }

    #[test]
    fn roundtrip_every_cell_shape_bit_exact() {
        let path = tmp("roundtrip");
        let entries = vec![
            entry("fig4", 0, Ok(CellData::Metrics(Box::new(sample_metrics())))),
            entry(
                "fig17",
                3,
                Ok(CellData::Run(Box::new(SuiteRun {
                    metrics: sample_metrics(),
                    iters: vec![IterStat {
                        dir: Direction::Pull,
                        active: 1,
                        visited: 2,
                        scout_edges: 3,
                        examined_edges: 4,
                    }],
                }))),
            ),
            entry(
                "table2",
                1,
                Ok(CellData::Rows {
                    rows: vec![Row::new("r", vec![1.0, f64::NAN, -0.0])],
                    sim_cycles: 9,
                }),
            ),
            entry("fig6", 2, Err("cell panicked: boom".into())),
        ];
        let mut w = create(&path, 7, 99);
        for e in &entries {
            w.append(0, e).expect("append");
        }
        drop(w);
        let replay = read_journal(&path, 7, 99).expect("read");
        assert_eq!(replay.records_read, 4);
        assert!(!replay.dropped_tail);
        for e in &entries {
            let got = replay
                .entries
                .get(&(e.figure.clone(), e.cell_idx))
                .expect("entry present");
            assert_eq!(got.label, e.label);
            match (&got.result, &e.result) {
                (Ok(a), Ok(b)) => {
                    // Compare through the encoder: bit-exact round-trip
                    // (NaN payloads included) is exactly what it certifies.
                    let (mut ba, mut bb) = (Vec::new(), Vec::new());
                    put_cell_data(&mut ba, a);
                    put_cell_data(&mut bb, b);
                    assert_eq!(ba, bb, "{}/{}", e.figure, e.cell_idx);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("result shape changed in round-trip"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_seed_or_context_is_refused() {
        let path = tmp("header");
        let mut w = create(&path, 7, 99);
        w.append(0, &entry("fig4", 0, Err("x".into()))).expect("append");
        drop(w);
        assert!(matches!(
            read_journal(&path, 8, 99),
            Err(JournalError::HeaderMismatch)
        ));
        assert!(matches!(
            read_journal(&path, 7, 100),
            Err(JournalError::HeaderMismatch)
        ));
        // The same experiment written by other code is refused too.
        let (_, replayed) =
            RecordLog::open(&path, code_salt() ^ 1, journal_scope(7, 99), false).expect("create");
        assert!(!replayed.stale, "a log opened without keep reads nothing");
        assert!(matches!(
            read_journal(&path, 7, 99),
            Err(JournalError::HeaderMismatch)
        ));
        assert!(matches!(
            read_journal(&tmp("nonexistent-file"), 7, 99),
            Err(JournalError::Missing)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_keeps_the_intact_prefix() {
        let path = tmp("trunc");
        let mut w = create(&path, 1, 2);
        w.append(0, &entry("fig4", 0, Err("a".into()))).expect("append");
        w.append(0, &entry("fig4", 1, Err("b".into()))).expect("append");
        drop(w);
        let full = std::fs::read(&path).expect("read file");
        // Chop mid-way through the second record (torn write).
        std::fs::write(&path, &full[..full.len() - 5]).expect("truncate");
        let replay = read_journal(&path, 1, 2).expect("read");
        assert_eq!(replay.records_read, 1);
        assert!(replay.dropped_tail);
        assert!(replay.entries.contains_key(&("fig4".to_string(), 0)));
        assert!(!replay.entries.contains_key(&("fig4".to_string(), 1)));
        // Resume truncates to the trusted prefix and appends cleanly.
        let (mut w, replayed) =
            RecordLog::open(&path, code_salt(), journal_scope(1, 2), true).expect("resume");
        assert_eq!(replayed.records.len(), 1);
        assert!(replayed.dropped_tail && !replayed.stale);
        w.append(0, &entry("fig4", 1, Err("b2".into()))).expect("append");
        drop(w);
        let replay = read_journal(&path, 1, 2).expect("reread");
        assert_eq!(replay.records_read, 2);
        assert!(!replay.dropped_tail);
        assert_eq!(
            replay.entries[&("fig4".to_string(), 1)]
                .result
                .as_ref()
                .err()
                .map(String::as_str),
            Some("b2")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_invalidates_the_record_and_its_suffix() {
        let path = tmp("bitflip");
        let mut w = create(&path, 1, 2);
        w.append(0, &entry("fig4", 0, Err("a".into()))).expect("append");
        w.append(0, &entry("fig4", 1, Err("b".into()))).expect("append");
        w.append(0, &entry("fig4", 2, Err("c".into()))).expect("append");
        drop(w);
        let mut bytes = std::fs::read(&path).expect("read file");
        // Walk the framing to the second record and flip a payload bit.
        let first = HEADER_LEN;
        let len1 = u32::from_le_bytes([bytes[first], bytes[first + 1], bytes[first + 2], bytes[first + 3]]) as usize;
        let second_payload = first + 12 + len1 + 12;
        bytes[second_payload + 2] ^= 0x10;
        std::fs::write(&path, &bytes).expect("rewrite");
        let replay = read_journal(&path, 1, 2).expect("read");
        // First record survives; the flipped one and everything after drop.
        assert!(replay.dropped_tail);
        assert!(replay.records_read < 3);
        assert!(replay.entries.contains_key(&("fig4".to_string(), 0)));
        assert!(!replay.entries.contains_key(&("fig4".to_string(), 2)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wall_hints_ignore_the_header_but_stop_at_corruption() {
        let path = tmp("hints");
        let mut w = create(&path, 7, 99);
        for (i, wall) in [(0u64, 11u64), (1, 22), (2, 33)] {
            let mut e = entry("fig4", i, Err("x".into()));
            e.wall_ns = wall;
            w.append(0, &e).expect("append");
        }
        drop(w);
        // Wrong seed/context would refuse a resume — hints still read.
        assert!(matches!(
            read_journal(&path, 8, 100),
            Err(JournalError::HeaderMismatch)
        ));
        let hints = read_wall_hints(&path);
        assert_eq!(hints.len(), 3);
        assert_eq!(hints[&("fig4".to_string(), 1)], 22);
        // A flipped bit in the second record drops it and its suffix.
        let mut bytes = std::fs::read(&path).expect("read file");
        let first = HEADER_LEN;
        let len1 = u32::from_le_bytes([
            bytes[first],
            bytes[first + 1],
            bytes[first + 2],
            bytes[first + 3],
        ]) as usize;
        bytes[first + 12 + len1 + 12 + 2] ^= 0x10;
        std::fs::write(&path, &bytes).expect("rewrite");
        let hints = read_wall_hints(&path);
        assert_eq!(hints.len(), 1);
        // Missing file and wrong magic degrade to empty.
        assert!(read_wall_hints(&tmp("hints-nonexistent")).is_empty());
        std::fs::write(&path, b"NOTAJOURNALFILE!").expect("clobber");
        assert!(read_wall_hints(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_entries_resolve_to_the_last_intact_one() {
        let path = tmp("dup");
        let mut w = create(&path, 1, 2);
        w.append(0, &entry("fig4", 0, Err("first".into()))).expect("append");
        w.append(0, &entry("fig4", 0, Err("second".into()))).expect("append");
        drop(w);
        let replay = read_journal(&path, 1, 2).expect("read");
        assert_eq!(replay.records_read, 2);
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(
            replay.entries[&("fig4".to_string(), 0)]
                .result
                .as_ref()
                .err()
                .map(String::as_str),
            Some("second")
        );
        std::fs::remove_file(&path).ok();
    }
}
