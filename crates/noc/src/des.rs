//! Packet-level discrete-event model of the mesh.
//!
//! The figure harness uses an analytic bottleneck model (fast enough for
//! millions of messages); this module provides the slower reference model it
//! is validated against (`tests/des_vs_analytic.rs` at the workspace root).
//!
//! The model is wormhole-flavored: each packet traverses its X-Y route hop by
//! hop; a directed link serializes flits at the machine's link width and a
//! router adds a fixed pipeline latency per hop. Contention appears as
//! waiting for a link's next free cycle. Packets are processed in injection
//! order (injection time defaults to back-to-back issue at the source).

use crate::fault_route::{FaultRouter, LIMP_COST};
use crate::topology::Topology;
use crate::traffic::Packet;
use aff_sim_core::error::{BudgetKind, RunBudget, SimError};
use aff_sim_core::fault::FaultPlan;
use aff_sim_core::trace::{Event, Recorder};
use std::collections::HashMap;

/// Result of replaying a packet set through the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesReport {
    /// Cycle the last flit of the last packet arrived.
    pub finish_cycle: u64,
    /// Total packets replayed.
    pub packets: u64,
    /// Total flit-hops (must agree with the analytic matrix).
    pub hop_flits: u64,
}

/// Packet-level mesh simulator.
#[derive(Debug)]
pub struct DesNoc {
    topo: Topology,
    hop_latency: u64,
    /// Next cycle each directed link is free, keyed by link index.
    link_free: Vec<u64>,
    /// Next cycle each source tile can inject (models the NI serializing).
    inject_free: HashMap<u32, u64>,
    /// Fault-aware route tables; `None` routes plain X-Y.
    router: Option<Box<FaultRouter>>,
}

impl DesNoc {
    /// New simulator with the given per-hop router latency.
    pub fn new(topo: Topology, hop_latency: u64) -> Self {
        Self {
            topo,
            hop_latency,
            link_free: vec![0; topo.num_links()],
            inject_free: HashMap::new(),
            router: None,
        }
    }

    /// New simulator routing around the link faults in `plan`: packets take
    /// the BFS-healthy route, degraded links serialize flits `multiplier`×
    /// slower, and limped packets (no healthy path) crawl their X-Y route at
    /// [`LIMP_COST`]× per link. With no link faults this is exactly
    /// [`DesNoc::new`].
    pub fn with_faults(topo: Topology, hop_latency: u64, plan: &FaultPlan) -> Self {
        let mut des = Self::new(topo, hop_latency);
        if plan.has_link_faults() {
            des.router = Some(Box::new(FaultRouter::new(topo, plan)));
        }
        des
    }

    /// Install a new fault plan mid-run (a fault epoch): packets sent after
    /// this call route under the new tables, while accumulated link and
    /// injection contention state is kept — in-flight history is not
    /// rewritten. An empty plan restores plain X-Y routing.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.router = if plan.has_link_faults() {
            Some(Box::new(FaultRouter::new(self.topo, plan)))
        } else {
            None
        };
    }

    /// Replay `packets` in order, all ready for injection at cycle 0 (the
    /// per-source network interface serializes them), under `budget`: the
    /// packet count is checked against
    /// `max_events` up front, the finish cycle against `max_cycles` and the
    /// elapsed host time against `wall_ms` as the replay progresses. The
    /// greedy model cannot deadlock (every `send` completes in bounded
    /// arithmetic), so `Stalled` is never returned here.
    pub fn try_replay(
        &mut self,
        packets: &[Packet],
        budget: &RunBudget,
    ) -> Result<DesReport, SimError> {
        self.replay_inner(packets, budget, None)
    }

    /// [`DesNoc::try_replay`] with an event recorder attached: each packet is
    /// reported as an [`Event::MessageDelivered`] carrying its departure and
    /// tail-arrival cycles, on the destination router's track. Recording is
    /// purely observational — the report is identical to the untraced run.
    pub fn try_replay_traced(
        &mut self,
        packets: &[Packet],
        budget: &RunBudget,
        recorder: &mut dyn Recorder,
    ) -> Result<DesReport, SimError> {
        self.replay_inner(packets, budget, Some(recorder))
    }

    fn replay_inner(
        &mut self,
        packets: &[Packet],
        budget: &RunBudget,
        mut recorder: Option<&mut dyn Recorder>,
    ) -> Result<DesReport, SimError> {
        if let Some(limit) = budget.max_events {
            if packets.len() as u64 > limit {
                return Err(SimError::BudgetExhausted {
                    budget: BudgetKind::Events,
                    limit,
                    reached: packets.len() as u64,
                });
            }
        }
        let deadline = budget
            .wall_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let mut finish = 0u64;
        let mut hop_flits = 0u64;
        for (i, p) in packets.iter().enumerate() {
            let (depart, t) = self.send_timed(p, 0);
            finish = finish.max(t);
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(&Event::MessageDelivered {
                    src: p.src,
                    dst: p.dst,
                    depart,
                    arrive: t,
                    flits: p.flits,
                });
            }
            if let Some(limit) = budget.max_cycles {
                if finish > limit {
                    return Err(SimError::BudgetExhausted {
                        budget: BudgetKind::Cycles,
                        limit,
                        reached: finish,
                    });
                }
            }
            // Amortize the syscall: one wall-clock check per 4096 packets.
            if let Some(dl) = deadline {
                if i.is_multiple_of(4096) && std::time::Instant::now() >= dl {
                    return Err(SimError::BudgetExhausted {
                        budget: BudgetKind::WallMs,
                        limit: budget.wall_ms.unwrap_or(0),
                        reached: budget.wall_ms.unwrap_or(0),
                    });
                }
            }
            let hops = match self.router.as_deref() {
                None => u64::from(self.topo.manhattan(p.src, p.dst)),
                Some(r) => r.route(p.src, p.dst).links.len() as u64,
            };
            hop_flits += p.flits * hops;
        }
        Ok(DesReport {
            finish_cycle: finish,
            packets: packets.len() as u64,
            hop_flits,
        })
    }

    /// Send one packet, ready at `ready_cycle`; returns arrival cycle of its
    /// tail flit at the destination.
    pub fn send(&mut self, p: &Packet, ready_cycle: u64) -> u64 {
        self.send_timed(p, ready_cycle).1
    }

    /// [`DesNoc::send`], also returning the cycle the packet actually
    /// departed its source NI (after injection-port serialization) — the
    /// trace wants both endpoints of the message's lifetime.
    pub fn send_timed(&mut self, p: &Packet, ready_cycle: u64) -> (u64, u64) {
        let inject = self.inject_free.entry(p.src).or_insert(0);
        let start = ready_cycle.max(*inject);
        // The source NI occupies its injection port for the packet's flits.
        *inject = start + p.flits;

        if p.src == p.dst {
            return (start, start);
        }
        // Resolve the route and the per-link cost multiplier (1 everywhere
        // on a fault-free mesh — identical arithmetic to the original model).
        let hops: Vec<(usize, u64)> = match self.router.as_deref() {
            None => self
                .topo
                .xy_route(p.src, p.dst)
                .into_iter()
                .map(|l| (self.topo.link_index(l), 1))
                .collect(),
            Some(r) => {
                let fr = r.route(p.src, p.dst);
                fr.links
                    .iter()
                    .map(|&idx| {
                        let cost = if fr.limped {
                            LIMP_COST
                        } else {
                            r.link_cost(idx as usize)
                        };
                        (idx as usize, cost)
                    })
                    .collect()
            }
        };
        if hops.is_empty() {
            // Same-router banks under a concentrated geometry: no link is
            // crossed, delivery is router-local like a same-bank message.
            return (start, start);
        }
        let mut head_time = start;
        let mut last_cost = 1;
        for (idx, cost) in hops {
            let grant = head_time.max(self.link_free[idx]);
            // Link is busy for the whole packet's flits (wormhole: body
            // follows head, one flit per cycle; degraded links take
            // `cost` cycles per flit).
            self.link_free[idx] = grant + p.flits * cost;
            head_time = grant + self.hop_latency;
            last_cost = cost;
        }
        // Tail arrives (flits - 1) link cycles after the head.
        (start, head_time + (p.flits * last_cost).saturating_sub(1))
    }

    /// Reset link/injection state while keeping the topology.
    pub fn reset(&mut self) {
        self.link_free.iter_mut().for_each(|c| *c = 0);
        self.inject_free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficClass;

    fn pkt(src: u32, dst: u32, flits: u64) -> Packet {
        Packet {
            src,
            dst,
            flits,
            class: TrafficClass::Data,
        }
    }

    /// The migrated shape of the legacy `replay(packets)` calls.
    fn replay_ok(des: &mut DesNoc, packets: &[Packet]) -> DesReport {
        use aff_sim_core::error::RunBudget;
        des.try_replay(packets, &RunBudget::unlimited())
            .expect("unlimited budget cannot fail")
    }

    #[test]
    fn single_packet_latency() {
        let topo = Topology::new(4, 4);
        let mut des = DesNoc::new(topo, 6);
        // 0 -> 3: 3 hops, 1 flit. Latency = 3 * 6 + 0 = 18.
        let t = des.send(&pkt(0, 3, 1), 0);
        assert_eq!(t, 18);
    }

    #[test]
    fn multi_flit_tail_latency() {
        let topo = Topology::new(4, 4);
        let mut des = DesNoc::new(topo, 6);
        // 0 -> 1: 1 hop, 4 flits. Head at 6, tail at 6 + 3 = 9.
        let t = des.send(&pkt(0, 1, 4), 0);
        assert_eq!(t, 9);
    }

    #[test]
    fn local_packet_is_instant() {
        let topo = Topology::new(4, 4);
        let mut des = DesNoc::new(topo, 6);
        assert_eq!(des.send(&pkt(5, 5, 4), 3), 3);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let topo = Topology::new(4, 4);
        let mut des = DesNoc::new(topo, 1);
        // Two packets from different sources converge on link (1,y=0)->(0,y=0):
        // 1 -> 0 and 2 -> 0 share that final link.
        let t1 = des.send(&pkt(1, 0, 8), 0);
        let t2 = des.send(&pkt(2, 0, 8), 0);
        assert!(t2 > t1, "second packet must queue behind the first");
    }

    #[test]
    fn injection_port_serializes_same_source() {
        let topo = Topology::new(4, 4);
        let mut des = DesNoc::new(topo, 1);
        let t1 = des.send(&pkt(0, 3, 4), 0);
        let t2 = des.send(&pkt(0, 12, 4), 0);
        // Different routes, but the source NI delays the second injection.
        assert!(t2 >= t1.min(4));
        assert!(t2 > 4, "second packet cannot finish before its injection");
    }

    #[test]
    fn replay_reports_totals() {
        let topo = Topology::new(4, 4);
        let mut des = DesNoc::new(topo, 2);
        let pkts = vec![pkt(0, 3, 2), pkt(3, 0, 2), pkt(5, 5, 1)];
        let rep = replay_ok(&mut des, &pkts);
        assert_eq!(rep.packets, 3);
        assert_eq!(rep.hop_flits, 2 * 3 + 2 * 3); // local packet adds none
        assert!(rep.finish_cycle > 0);
    }

    #[test]
    fn empty_fault_plan_matches_plain_des() {
        let topo = Topology::new(4, 4);
        let mut plain = DesNoc::new(topo, 6);
        let mut faulted = DesNoc::with_faults(topo, 6, &FaultPlan::none());
        let pkts = vec![pkt(0, 3, 2), pkt(3, 12, 4), pkt(5, 5, 1), pkt(1, 0, 8)];
        assert_eq!(replay_ok(&mut plain, &pkts), replay_ok(&mut faulted, &pkts));
    }

    #[test]
    fn dead_link_lengthens_latency_and_hops() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let plan =
            FaultPlan::none().fail_link(LinkRef::between(1, 0, 2, 0).expect("adjacent"));
        let mut plain = DesNoc::new(topo, 6);
        let mut faulted = DesNoc::with_faults(topo, 6, &plan);
        // 0 -> 3 must bend around the dead middle link: 5 hops vs 3.
        let t_plain = plain.send(&pkt(0, 3, 1), 0);
        let t_fault = faulted.send(&pkt(0, 3, 1), 0);
        assert_eq!(t_plain, 18);
        assert_eq!(t_fault, 30, "5 hops x 6 cycles");
        faulted.reset();
        let rep = replay_ok(&mut faulted, &[pkt(0, 3, 1)]);
        assert_eq!(rep.hop_flits, 5);
    }

    #[test]
    fn degraded_link_serializes_slower() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let plan = FaultPlan::none()
            .degrade_link(LinkRef::between(0, 0, 1, 0).expect("adjacent"), 4);
        let mut plain = DesNoc::new(topo, 6);
        let mut faulted = DesNoc::with_faults(topo, 6, &plan);
        // 0 -> 1: 1 hop, 4 flits. Healthy tail at 6+3=9; degraded link takes
        // 4 cycles/flit, tail at 6 + 16 - 1 = 21.
        assert_eq!(plain.send(&pkt(0, 1, 4), 0), 9);
        assert_eq!(faulted.send(&pkt(0, 1, 4), 0), 21);
    }

    #[test]
    fn limped_packet_is_slow_but_delivered() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let plan = FaultPlan::none()
            .fail_link(LinkRef::between(0, 0, 1, 0).expect("adjacent"))
            .fail_link(LinkRef::between(0, 0, 0, 1).expect("adjacent"));
        let mut faulted = DesNoc::with_faults(topo, 6, &plan);
        let mut plain = DesNoc::new(topo, 6);
        let t_limp = faulted.send(&pkt(0, 3, 2), 0);
        let t_plain = plain.send(&pkt(0, 3, 2), 0);
        assert!(t_limp > t_plain, "limping must cost more ({t_limp} vs {t_plain})");
    }

    #[test]
    fn try_replay_enforces_budgets() {
        use aff_sim_core::error::{BudgetKind, RunBudget, SimError};
        let topo = Topology::new(4, 4);
        let pkts = vec![pkt(0, 3, 2), pkt(3, 12, 4), pkt(5, 5, 1), pkt(1, 0, 8)];
        let mut des = DesNoc::new(topo, 6);
        let err = des
            .try_replay(&pkts, &RunBudget::unlimited().with_max_events(2))
            .expect_err("4 packets exceed 2 events");
        assert!(matches!(
            err,
            SimError::BudgetExhausted {
                budget: BudgetKind::Events,
                limit: 2,
                reached: 4
            }
        ));

        des.reset();
        let err = des
            .try_replay(&pkts, &RunBudget::unlimited().with_max_cycles(1))
            .expect_err("nothing multi-hop finishes in 1 cycle");
        assert!(matches!(
            err,
            SimError::BudgetExhausted {
                budget: BudgetKind::Cycles,
                limit: 1,
                ..
            }
        ));
    }

    #[test]
    fn traced_replay_is_observational_and_emits_deliveries() {
        use aff_sim_core::error::RunBudget;
        use aff_sim_core::trace::TraceRecorder;
        let topo = Topology::new(4, 4);
        let pkts = vec![pkt(0, 3, 2), pkt(3, 12, 4), pkt(5, 5, 1), pkt(1, 0, 8)];
        let mut des = DesNoc::new(topo, 6);
        let want = replay_ok(&mut des, &pkts);
        des.reset();
        let mut rec = TraceRecorder::default();
        let got = des
            .try_replay_traced(&pkts, &RunBudget::unlimited(), &mut rec)
            .expect("unlimited budget");
        assert_eq!(got, want, "recording must not change the report");
        assert_eq!(rec.len(), pkts.len(), "one delivery event per packet");
        let local = rec
            .events()
            .find(|te| matches!(te.event, Event::MessageDelivered { src: 5, dst: 5, .. }))
            .expect("local packet event");
        if let Event::MessageDelivered { depart, arrive, .. } = local.event {
            assert_eq!(depart, arrive, "local delivery is instant");
        }
    }

    #[test]
    fn set_fault_plan_swaps_routing_mid_run() {
        use aff_sim_core::fault::LinkRef;
        let topo = Topology::new(4, 4);
        let dead = LinkRef::between(1, 0, 2, 0).expect("adjacent");
        let mut des = DesNoc::new(topo, 6);
        // Healthy: 0 -> 3 in 3 hops x 6 cycles.
        assert_eq!(des.send(&pkt(0, 3, 1), 100), 118);
        des.set_fault_plan(&FaultPlan::none().fail_link(dead));
        // Dead middle link: later sends bend (5 hops), contention state kept.
        assert_eq!(des.send(&pkt(0, 3, 1), 200), 230);
        des.set_fault_plan(&FaultPlan::none());
        // Repair restores X-Y for sends after the epoch.
        assert_eq!(des.send(&pkt(0, 3, 1), 300), 318);
    }

    #[test]
    fn reset_clears_contention() {
        let topo = Topology::new(4, 4);
        let mut des = DesNoc::new(topo, 1);
        let a = des.send(&pkt(0, 3, 8), 0);
        des.reset();
        let b = des.send(&pkt(0, 3, 8), 0);
        assert_eq!(a, b);
    }
}
