//! Structured event tracing: the one instrumentation surface every component
//! of the simulated machine reports through.
//!
//! Accounting used to be scattered: `SimEngine` charged the traffic matrix
//! and bank counters directly from ~25 ad-hoc methods, the NoC models kept
//! private cycle counters, and nothing could observe *where* cycles or flits
//! went over time. This module defines the typed [`Event`] vocabulary and the
//! [`Recorder`] sink that all of them now feed:
//!
//! * `SimEngine::record(Event)` is the choke point for the analytic model —
//!   the coalescer, the traffic matrix, the bank counters and any attached
//!   recorder all consume the same event stream.
//! * `CycleNoc`/`DesNoc` emit per-router activity and per-message delivery
//!   events from their cycle loops.
//! * `DramModel` emits per-controller line accesses.
//!
//! Recording is strictly opt-in: the default is no recorder at all, and every
//! emit site guards on one hoisted boolean, so the disabled path costs a
//! single predicted branch per event (pinned by the perf-smoke floor in CI).
//!
//! [`TraceRecorder`] is the bundled ring-buffered sink; it renders the
//! Chrome `trace_event` JSON format (load the file in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) with one track per bank, router and
//! DRAM controller.

use crate::json::Value;
use std::cell::RefCell;

/// Traffic class of a NoC message, mirrored from the NoC crate so events can
/// be defined here without a dependency cycle (`aff-noc` depends on this
/// crate and converts losslessly in both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficKind {
    /// Stream configuration / migration traffic.
    Offload,
    /// Payload data.
    Data,
    /// Requests, credits, coherence — header-only messages.
    Control,
}

impl TrafficKind {
    /// All kinds, in canonical `[Offload, Data, Control]` order.
    pub const ALL: [TrafficKind; 3] = [
        TrafficKind::Offload,
        TrafficKind::Data,
        TrafficKind::Control,
    ];

    /// Canonical index (matches `aff_noc::traffic::TrafficClass::idx`).
    pub fn idx(self) -> usize {
        match self {
            TrafficKind::Offload => 0,
            TrafficKind::Data => 1,
            TrafficKind::Control => 2,
        }
    }

    /// Lower-case label used in trace and metric names.
    pub fn label(self) -> &'static str {
        match self {
            TrafficKind::Offload => "offload",
            TrafficKind::Data => "data",
            TrafficKind::Control => "control",
        }
    }
}

/// One observable thing that happened in the simulated machine.
///
/// Events describe *post-fault-redirect* reality: a charge homed at a dead
/// bank is reported against the spare that actually served it, so tracing,
/// energy accounting and fault blame all see the same world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `count` identical messages of `payload_bytes` from `src` to `dst`.
    Traffic {
        /// Source tile/bank.
        src: u32,
        /// Destination tile/bank.
        dst: u32,
        /// Payload bytes per message (0 = header-only).
        payload_bytes: u64,
        /// Traffic class.
        class: TrafficKind,
        /// Message count.
        count: u64,
    },
    /// `count` plain accesses served by `bank`. `fetch` marks accesses that
    /// can produce a capacity miss (excludes writebacks and temporal hits).
    BankAccess {
        /// Serving bank.
        bank: u32,
        /// Access count.
        count: u64,
        /// Whether these accesses are capacity-miss eligible.
        fetch: bool,
    },
    /// `count` atomics executed at `bank`, `hops` links from the requester
    /// (the occupancy model weighs remote atomics by distance).
    BankAtomic {
        /// Serving bank.
        bank: u32,
        /// Atomic count.
        count: u64,
        /// Manhattan distance from the requester.
        hops: u64,
    },
    /// `bytes` declared resident at `bank` for the capacity model.
    BankResident {
        /// Serving bank.
        bank: u32,
        /// Bytes resident.
        bytes: u64,
    },
    /// `lines` cache lines served by DRAM controller `ctrl`.
    DramAccess {
        /// Memory controller index.
        ctrl: u32,
        /// Line count.
        lines: u64,
    },
    /// `count` ops retired on the OOO cores.
    CoreOps {
        /// Op count.
        count: u64,
    },
    /// `count` ops retired on the stream engine at `bank`.
    SeOps {
        /// SEL3's bank.
        bank: u32,
        /// Op count.
        count: u64,
    },
    /// `count` private L1/L2 hits (energy only; never reach the NoC).
    PrivateHits {
        /// Hit count.
        count: u64,
    },
    /// `cycles` of serial dependence-chain latency.
    ChainCycles {
        /// Cycles added to the critical path.
        cycles: u64,
    },
    /// An occupancy-sampled phase begins.
    PhaseBegin,
    /// The current occupancy-sampled phase ends.
    PhaseEnd,
    /// Router `router` moved `flits` flits during NoC cycle `cycle`
    /// (emitted by the cycle-accurate model, sampled).
    RouterActive {
        /// Router index.
        router: u32,
        /// NoC cycle.
        cycle: u64,
        /// Flits traversed this sample.
        flits: u64,
    },
    /// Attribution context switch: subsequent engine charges belong to
    /// `tenant` (`u32::MAX` clears attribution back to the system). Emitted
    /// by `SimEngine::set_tenant`; purely observational — the accounting
    /// effect happens in the engine, recorders just see the boundary.
    TenantSwitch {
        /// Dense tenant id, or `u32::MAX` for "no tenant".
        tenant: u32,
    },
    /// A DES message of `flits` flits from `src` departed at `depart` and
    /// fully arrived at `dst` at `arrive`.
    MessageDelivered {
        /// Source router.
        src: u32,
        /// Destination router.
        dst: u32,
        /// Departure cycle.
        depart: u64,
        /// Arrival cycle.
        arrive: u64,
        /// Message length in flits.
        flits: u64,
    },
    /// Profiling only: the executor touched element `elem` of profiled
    /// region `region` during logical profile step `step`. Emitted by
    /// annotation-free workload runs when a [`crate::mine::CoAccessMiner`]
    /// is installed; carries no accounting — the affinity-inference miner is
    /// its only consumer. Touches sharing a `step` were co-accessed by one
    /// logical unit of work (one stencil segment, one vertex sweep, one
    /// chain traversal).
    ProfileTouch {
        /// Region ordinal (allocation order within the profiled run).
        region: u32,
        /// Element index (or address ordinal for node-granular regions).
        elem: u64,
        /// Logical co-access step.
        step: u64,
    },
}

/// A sink for [`Event`]s.
///
/// Implementations must be additive observers: recording an event must not
/// change any simulation outcome (the recorder-equivalence property tests pin
/// this for the engine).
pub trait Recorder {
    /// Observe one event.
    fn record(&mut self, ev: &Event);

    /// Whether this recorder actually consumes events. Emit sites may skip
    /// event construction entirely when `false`.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The zero-cost disabled default: ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _ev: &Event) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Fan one event stream out to several sinks (e.g. trace + metrics).
#[derive(Default)]
pub struct MultiRecorder {
    sinks: Vec<Box<dyn Recorder>>,
}

impl MultiRecorder {
    /// An empty fan-out (disabled until a sink is added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sink.
    pub fn push(&mut self, sink: Box<dyn Recorder>) {
        self.sinks.push(sink);
    }

    /// Recover the sinks (e.g. to export each after a run).
    pub fn into_sinks(self) -> Vec<Box<dyn Recorder>> {
        self.sinks
    }
}

impl Recorder for MultiRecorder {
    fn record(&mut self, ev: &Event) {
        for s in &mut self.sinks {
            s.record(ev);
        }
    }

    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }
}

/// An event plus its position in the recorded stream (the logical timestamp
/// used for analytic-model events, which have no cycle of their own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// 0-based sequence number over the whole recording (pre-drop).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// Default ring capacity: enough for every event of a paper-scale figure
/// cell while bounding a runaway trace to ~4 MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 17;

/// Ring-buffered structured event trace.
///
/// Holds the most recent `capacity` events; older events are dropped (and
/// counted) rather than growing without bound — a stalled run's trace ends
/// with the events leading up to the stall, which is exactly the useful part.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    ring: Vec<TimedEvent>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRecorder {
    /// A trace holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            capacity,
            seq: 0,
            dropped: 0,
        }
    }

    /// Events recorded (and kept) so far, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring[self.head..].iter().chain(&self.ring[..self.head])
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever offered (kept + dropped).
    pub fn total_seen(&self) -> u64 {
        self.seq
    }

    /// Render the Chrome `trace_event` JSON object format: one process per
    /// component family (engine / banks / routers / DRAM), one thread track
    /// per bank, router or controller. Loadable in `chrome://tracing` and
    /// Perfetto.
    ///
    /// Analytic-model events carry no cycle, so their timestamp is the event
    /// sequence number; `RouterActive`/`MessageDelivered` use real NoC
    /// cycles. Timestamps are reported in "microseconds" 1:1.
    pub fn to_chrome_json(&self) -> String {
        const ENGINE: u32 = 1;
        const BANKS: u32 = 2;
        const ROUTERS: u32 = 3;
        const DRAM: u32 = 4;
        const TRAFFIC: [&str; 3] = ["traffic/offload", "traffic/data", "traffic/control"];

        // Metadata: name the four component-family "processes".
        let processes = [
            (ENGINE, "engine"),
            (BANKS, "L3 banks"),
            (ROUTERS, "NoC routers"),
            (DRAM, "DRAM controllers"),
        ];
        let mut events: Vec<Value> = processes
            .into_iter()
            .map(|(pid, name)| {
                Value::object([
                    ("ph", "M".into()),
                    ("name", "process_name".into()),
                    ("pid", pid.into()),
                    ("tid", 0u32.into()),
                    ("args", Value::object([("name", name.into())])),
                ])
            })
            .collect();

        for te in self.events() {
            let seq = te.seq;
            // A bank's counter track names its series after the bank.
            let resident_key;
            // One row per event kind: (phase, name, category, process,
            // thread track, timestamp, duration), then the args.
            let ((ph, name, cat, pid, tid, ts, dur), args) = match te.event {
                Event::Traffic {
                    src,
                    dst,
                    payload_bytes,
                    class,
                    count,
                } => {
                    let name = TRAFFIC[class.idx()];
                    (
                        ("X", name, "noc", ROUTERS, src, seq, Some(count)),
                        vec![
                            ("src", src.into()),
                            ("dst", dst.into()),
                            ("payload_bytes", payload_bytes.into()),
                            ("count", count.into()),
                        ],
                    )
                }
                Event::BankAccess { bank, count, fetch } => (
                    ("X", "access", "bank", BANKS, bank, seq, Some(count)),
                    vec![("count", count.into()), ("fetch", fetch.into())],
                ),
                Event::BankAtomic { bank, count, hops } => (
                    ("X", "atomic", "bank", BANKS, bank, seq, Some(count)),
                    vec![("count", count.into()), ("hops", hops.into())],
                ),
                Event::BankResident { bank, bytes } => {
                    resident_key = format!("bank {bank}");
                    (
                        ("C", "resident_bytes", "bank", BANKS, bank, seq, None),
                        vec![(resident_key.as_str(), bytes.into())],
                    )
                }
                Event::DramAccess { ctrl, lines } => (
                    ("X", "dram_lines", "dram", DRAM, ctrl, seq, Some(lines)),
                    vec![("lines", lines.into())],
                ),
                Event::CoreOps { count } => (
                    ("X", "core_ops", "compute", ENGINE, 0, seq, Some(count)),
                    vec![("count", count.into())],
                ),
                Event::SeOps { bank, count } => (
                    ("X", "se_ops", "compute", BANKS, bank, seq, Some(count)),
                    vec![("count", count.into())],
                ),
                Event::PrivateHits { count } => (
                    ("X", "private_hits", "compute", ENGINE, 0, seq, Some(count)),
                    vec![("count", count.into())],
                ),
                Event::ChainCycles { cycles } => (
                    ("X", "chain", "compute", ENGINE, 0, seq, Some(cycles)),
                    vec![("cycles", cycles.into())],
                ),
                Event::PhaseBegin => (("B", "phase", "engine", ENGINE, 0, seq, None), vec![]),
                Event::PhaseEnd => (("E", "phase", "engine", ENGINE, 0, seq, None), vec![]),
                Event::TenantSwitch { tenant } => (
                    ("i", "tenant_switch", "engine", ENGINE, 0, seq, None),
                    vec![("tenant", tenant.into())],
                ),
                Event::RouterActive {
                    router,
                    cycle,
                    flits,
                } => {
                    // Real NoC cycles, one per flit-hop.
                    let (ts, dur) = (cycle, Some(1));
                    (
                        ("X", "router_active", "noc", ROUTERS, router, ts, dur),
                        vec![("flits", flits.into())],
                    )
                }
                Event::MessageDelivered {
                    src,
                    dst,
                    depart,
                    arrive,
                    flits,
                } => {
                    let dur = arrive.saturating_sub(depart).max(1);
                    (
                        ("X", "message", "noc", ROUTERS, dst, depart, Some(dur)),
                        vec![
                            ("src", src.into()),
                            ("dst", dst.into()),
                            ("flits", flits.into()),
                        ],
                    )
                }
                Event::ProfileTouch { region, elem, step } => (
                    ("i", "profile_touch", "profile", ENGINE, 0, seq, None),
                    vec![
                        ("region", region.into()),
                        ("elem", elem.into()),
                        ("step", step.into()),
                    ],
                ),
            };
            let mut fields = vec![
                ("ph", ph.into()),
                ("name", name.into()),
                ("cat", cat.into()),
                ("pid", pid.into()),
                ("tid", tid.into()),
                ("ts", ts.into()),
            ];
            if let Some(dur) = dur {
                fields.push(("dur", dur.into()));
            }
            if ph == "i" {
                // Instant events are scoped to their thread track.
                fields.push(("s", "t".into()));
            }
            if !args.is_empty() {
                fields.push(("args", Value::object(args)));
            }
            events.push(Value::object(fields));
        }
        Value::object([
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", "ns".into()),
            (
                "otherData",
                Value::object([
                    ("dropped_events", self.dropped.into()),
                    ("total_events", self.seq.into()),
                ]),
            ),
        ])
        .render()
    }
}

impl Recorder for TraceRecorder {
    fn record(&mut self, ev: &Event) {
        let te = TimedEvent {
            seq: self.seq,
            event: *ev,
        };
        self.seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(te);
        } else {
            self.ring[self.head] = te;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local capture: how `figures --trace` reaches engines constructed
// deep inside workload executors without threading a recorder through every
// call signature. Installing a capture makes every SimEngine created *on
// this thread* forward its events here until the buffer is taken back.
// ---------------------------------------------------------------------------

thread_local! {
    static THREAD_TRACE: RefCell<Option<TraceRecorder>> = const { RefCell::new(None) };
}

/// Install a thread-local trace capture of `capacity` events. Engines
/// constructed on this thread after this call record into it.
pub fn install_thread_trace(capacity: usize) {
    THREAD_TRACE.with(|t| *t.borrow_mut() = Some(TraceRecorder::new(capacity)));
}

/// Whether a thread-local capture is installed.
pub fn thread_trace_installed() -> bool {
    THREAD_TRACE.with(|t| t.borrow().is_some())
}

/// Remove and return the thread-local capture (with everything it recorded).
pub fn take_thread_trace() -> Option<TraceRecorder> {
    THREAD_TRACE.with(|t| t.borrow_mut().take())
}

/// Format the last `n` events of the thread-local capture (oldest first)
/// **without** consuming it — the capture stays installed and keeps
/// recording. This is the diagnostic feed for
/// [`StallSnapshot::recent_events`](crate::error::StallSnapshot): when the
/// progress watchdog fires, the snapshot carries what the machine was doing
/// right before it wedged. Returns an empty vector when no capture is
/// installed (tracing stays strictly opt-in).
pub fn thread_trace_tail(n: usize) -> Vec<String> {
    THREAD_TRACE.with(|t| {
        t.borrow()
            .as_ref()
            .map(|rec| {
                let skip = rec.len().saturating_sub(n);
                rec.events()
                    .skip(skip)
                    .map(|te| format!("#{} {:?}", te.seq, te.event))
                    .collect()
            })
            .unwrap_or_default()
    })
}

/// A [`Recorder`] forwarding into the thread-local capture, if one is
/// installed at record time.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadTraceRecorder;

impl Recorder for ThreadTraceRecorder {
    fn record(&mut self, ev: &Event) {
        THREAD_TRACE.with(|t| {
            if let Some(rec) = t.borrow_mut().as_mut() {
                rec.record(ev);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> Event {
        Event::CoreOps { count: i }
    }

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder.is_enabled());
        let mut r = NullRecorder;
        r.record(&ev(1)); // must be a no-op, not a panic
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let mut t = TraceRecorder::new(4);
        for i in 0..10 {
            t.record(&ev(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total_seen(), 10);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, newest kept");
    }

    #[test]
    fn chrome_export_contains_tracks_and_events() {
        let mut t = TraceRecorder::default();
        t.record(&Event::Traffic {
            src: 3,
            dst: 7,
            payload_bytes: 64,
            class: TrafficKind::Data,
            count: 2,
        });
        t.record(&Event::BankAccess {
            bank: 7,
            count: 2,
            fetch: true,
        });
        t.record(&Event::DramAccess { ctrl: 1, lines: 5 });
        t.record(&Event::BankResident {
            bank: 7,
            bytes: 4096,
        });
        t.record(&Event::PhaseBegin);
        t.record(&Event::TenantSwitch { tenant: 2 });
        let doc = crate::json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4 + 6, "four process names, then every event");
        let names: Vec<&str> = events[..4]
            .iter()
            .map(|e| {
                assert_eq!(e.get("ph").and_then(Value::as_str), Some("M"));
                assert_eq!(e.get("name").and_then(Value::as_str), Some("process_name"));
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .expect("name")
            })
            .collect();
        assert_eq!(
            names,
            ["engine", "L3 banks", "NoC routers", "DRAM controllers"]
        );
        let want = [
            r#"{ "ph": "X", "name": "traffic/data", "cat": "noc", "pid": 3, "tid": 3, "ts": 0, "dur": 2, "args": { "src": 3, "dst": 7, "payload_bytes": 64, "count": 2 } }"#,
            r#"{ "ph": "X", "name": "access", "cat": "bank", "pid": 2, "tid": 7, "ts": 1, "dur": 2, "args": { "count": 2, "fetch": true } }"#,
            r#"{ "ph": "X", "name": "dram_lines", "cat": "dram", "pid": 4, "tid": 1, "ts": 2, "dur": 5, "args": { "lines": 5 } }"#,
            r#"{ "ph": "C", "name": "resident_bytes", "cat": "bank", "pid": 2, "tid": 7, "ts": 3, "args": { "bank 7": 4096 } }"#,
            r#"{ "ph": "B", "name": "phase", "cat": "engine", "pid": 1, "tid": 0, "ts": 4 }"#,
            r#"{ "ph": "i", "name": "tenant_switch", "cat": "engine", "pid": 1, "tid": 0, "ts": 5, "s": "t", "args": { "tenant": 2 } }"#,
        ];
        for (got, want) in events[4..].iter().zip(want) {
            assert_eq!(*got, crate::json::parse(want).expect("valid expectation"));
        }
        let other = doc.get("otherData").expect("otherData");
        assert_eq!(other.get("dropped_events"), Some(&Value::U64(0)));
        assert_eq!(other.get("total_events"), Some(&Value::U64(6)));
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ns")
        );
    }

    #[test]
    fn multi_recorder_fans_out() {
        let mut m = MultiRecorder::new();
        assert!(!m.is_enabled(), "empty fan-out is disabled");
        m.push(Box::new(TraceRecorder::new(8)));
        m.push(Box::new(NullRecorder));
        assert!(m.is_enabled());
        m.record(&ev(1));
        m.record(&ev(2));
        let sinks = m.into_sinks();
        assert_eq!(sinks.len(), 2);
    }

    #[test]
    fn thread_capture_roundtrip() {
        assert!(!thread_trace_installed());
        assert!(take_thread_trace().is_none());
        install_thread_trace(16);
        assert!(thread_trace_installed());
        let mut fwd = ThreadTraceRecorder;
        fwd.record(&ev(7));
        let cap = take_thread_trace().expect("installed capture");
        assert_eq!(cap.len(), 1);
        assert!(!thread_trace_installed());
        // Forwarding with no capture installed is a silent no-op.
        fwd.record(&ev(8));
    }

    #[test]
    fn trace_tail_is_nondestructive_and_newest_last() {
        assert!(thread_trace_tail(8).is_empty(), "no capture installed");
        install_thread_trace(4);
        let mut fwd = ThreadTraceRecorder;
        for i in 0..10 {
            fwd.record(&ev(i));
        }
        let tail = thread_trace_tail(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].starts_with("#8 "), "{tail:?}");
        assert!(tail[1].starts_with("#9 "), "{tail:?}");
        assert!(tail[1].contains("CoreOps"), "{tail:?}");
        // The capture is still installed and still recording.
        assert!(thread_trace_installed());
        fwd.record(&ev(10));
        assert!(thread_trace_tail(1)[0].starts_with("#10 "));
        let cap = take_thread_trace().expect("still installed");
        assert_eq!(cap.total_seen(), 11);
    }

    #[test]
    fn traffic_kind_roundtrip() {
        for (i, k) in TrafficKind::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i);
        }
        assert_eq!(TrafficKind::Data.label(), "data");
    }
}
