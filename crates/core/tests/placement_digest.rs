//! Placement digests: a seeded mix of `malloc_aff`, `malloc_hinted`,
//! `malloc_aff_affine`, `free_aff`, `realloc_aff` and `reclaim_pool_tails`,
//! run under every bank-select policy, every free-list order and three
//! machine states, then hashed down to one value per configuration.
//!
//! The hash covers every returned address and its bank, every error value,
//! the reclaimed byte counts, and periodic and final `stats()`,
//! `fragmentation()`, per-bank loads, residency and degradation reports. The
//! pinned values were recorded from the allocator as it stood before its
//! free lists became run-length stacks and its liveness set a bitset, so a
//! mismatch means the allocator's observable behaviour changed.

use aff_mem::addr::VAddr;
use aff_sim_core::config::MachineConfig;
use aff_sim_core::fault::FaultPlan;
use aff_sim_core::rng::SimRng;
use affinity_alloc::{
    AffineArrayReq, AffinityAllocator, AffinityHint, AllocError, BankSelectPolicy,
};

/// Operations per configuration.
const OPS: usize = 2500;

/// FNV-1a over the little-endian bytes of each value.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn result<T>(&mut self, r: &Result<T, AllocError>, ok: impl FnOnce(&mut Self, &T)) {
        match r {
            Ok(v) => {
                self.u64(1);
                ok(self, v);
            }
            Err(e) => {
                self.u64(2);
                self.bytes(format!("{e:?}").as_bytes());
            }
        }
    }

    fn placed(&mut self, a: &mut AffinityAllocator, r: &Result<VAddr, AllocError>) {
        match r {
            Ok(va) => {
                self.u64(1);
                self.u64(va.raw());
                self.u64(u64::from(a.bank_of(*va)));
            }
            Err(_) => self.result(r, |_, _| {}),
        }
    }

    fn snapshot(&mut self, a: &AffinityAllocator) {
        let s = a.stats();
        for x in [s.affine, s.fallback, s.irregular, s.freed, s.freelist_hits] {
            self.u64(x);
        }
        let f = a.fragmentation();
        for x in [f.live_bytes, f.free_bytes, f.affine_free_bytes] {
            self.u64(x);
        }
        self.u64(f.free_bytes_per_interleave.len() as u64);
        for &(intrlv, bytes) in &f.free_bytes_per_interleave {
            self.u64(intrlv);
            self.u64(bytes);
        }
        self.u64(f.fragmentation_ratio().to_bits());
    }
}

#[derive(Debug, Clone, Copy)]
enum Machine {
    Healthy,
    /// Failed and slowed banks, re-planned halfway through the run.
    Faulted,
    /// A tenant partition, with a live fault plan over part of it later on.
    Restricted,
}

#[derive(Debug, Clone, Copy)]
enum Coalescing {
    Off,
    On,
    /// Off for the first third of the run, then switched on (re-sorts the
    /// lists built in LIFO order).
    OffThenOn,
}

fn pick(rng: &mut SimRng, from: &[VAddr], k: usize) -> Vec<VAddr> {
    if from.is_empty() {
        return Vec::new();
    }
    (0..k).map(|_| from[rng.index(from.len())]).collect()
}

fn run(policy: BankSelectPolicy, coalescing: Coalescing, machine: Machine) -> u64 {
    let plan = match machine {
        Machine::Faulted => FaultPlan::none()
            .fail_bank(0)
            .fail_bank(9)
            .fail_bank(27)
            .slow_bank(1, 4)
            .slow_bank(8, 8)
            .slow_bank(36, 2),
        _ => FaultPlan::none(),
    };
    let cfg = MachineConfig::paper_default().with_faults(plan);
    let mut a = AffinityAllocator::with_seed(cfg, policy, 0x5EED);
    if let Machine::Restricted = machine {
        a.restrict_banks(&[3, 4, 5, 11, 12, 13, 40, 41, 63])
            .unwrap();
    }
    if let Coalescing::On = coalescing {
        a.set_coalescing(true);
    }
    let mut rng = SimRng::new(0x00D1_6E57 ^ OPS as u64);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    let mut live: Vec<VAddr> = Vec::new();
    let mut arrays: Vec<VAddr> = Vec::new();
    let mut freed: Vec<VAddr> = Vec::new();
    for op in 0..OPS {
        if op == OPS / 3 {
            if let Coalescing::OffThenOn = coalescing {
                a.set_coalescing(true);
            }
        }
        if op == OPS / 2 {
            match machine {
                Machine::Healthy => {}
                Machine::Faulted => a.apply_fault_plan(
                    &FaultPlan::none()
                        .fail_bank(0)
                        .fail_bank(50)
                        .slow_bank(9, 3)
                        .slow_bank(2, 6),
                ),
                Machine::Restricted => {
                    a.apply_fault_plan(&FaultPlan::none().fail_bank(4).slow_bank(12, 5))
                }
            }
        }
        let r = rng.below(100);
        match r {
            0..=39 => {
                let size = [8, 64, 64, 64, 100, 256, 4096][rng.index(7)];
                let k = [0, 1, 1, 2, 3, 32][rng.index(6)];
                let affs = pick(&mut rng, &live, k);
                let res = a.malloc_aff(size, &affs);
                d.placed(&mut a, &res);
                if let Ok(va) = res {
                    live.push(va);
                }
            }
            40..=47 => {
                let hint = if rng.chance(0.5) {
                    AffinityHint::None
                } else {
                    let k = 33 + rng.index(40);
                    AffinityHint::Irregular {
                        aff_addrs: pick(&mut rng, &live, k),
                    }
                };
                let res = a.malloc_hinted(64, 1, &hint);
                d.placed(&mut a, &res);
                if let Ok(va) = res {
                    live.push(va);
                }
            }
            48..=51 => {
                let n = [256u64, 1024, 4096][rng.index(3)];
                let req = match (rng.below(3), arrays.is_empty()) {
                    (0, _) => AffineArrayReq::with_hint(4, n, &AffinityHint::Partition),
                    (1, false) => {
                        let partner = arrays[rng.index(arrays.len())];
                        let hint = AffinityHint::AlignTo {
                            partner,
                            p: 1,
                            q: 1,
                            x: 0,
                        };
                        AffineArrayReq::with_hint(8, n, &hint)
                    }
                    _ => AffineArrayReq::new(4, n),
                };
                let res = a.malloc_aff_affine(&req);
                d.placed(&mut a, &res);
                if let Ok(va) = res {
                    arrays.push(va);
                }
            }
            52..=79 if !live.is_empty() => {
                let va = live.swap_remove(rng.index(live.len()));
                let res = a.free_aff(va);
                d.result(&res, |_, _| {});
                freed.push(va);
            }
            80..=83 if !arrays.is_empty() => {
                let va = arrays.swap_remove(rng.index(arrays.len()));
                let res = a.free_aff(va);
                d.result(&res, |_, _| {});
            }
            84..=91 if !live.is_empty() => {
                let i = rng.index(live.len());
                let k = [1, 2, 4, 32][rng.index(4)];
                let affs = pick(&mut rng, &live, k);
                let res = a.realloc_aff(live[i], &affs);
                d.placed(&mut a, &res);
                if let Ok(va) = res {
                    live[i] = va;
                }
            }
            92..=94 => {
                // Invalid frees and re-placements: a stale address, an
                // interior pointer, and an address nobody handed out.
                let stale = freed.last().copied();
                let interior = live.last().map(|&v| v + 8);
                let res = match (rng.below(4), stale, interior) {
                    (0, Some(v), _) => a.free_aff(v),
                    (1, Some(v), _) => a.realloc_aff(v, &[]).map(|_| ()),
                    (2, _, Some(v)) => a.free_aff(v),
                    (3, _, Some(v)) => a.realloc_aff(v, &[]).map(|_| ()),
                    _ => a.free_aff(VAddr(0x123)),
                };
                d.result(&res, |_, _| {});
            }
            95..=96 => {
                let bytes = a.reclaim_pool_tails();
                d.u64(bytes);
            }
            _ => d.snapshot(&a),
        }
    }
    d.snapshot(&a);
    for &x in a.loads().iter().chain(a.resident_per_bank()) {
        d.u64(x);
    }
    d.bytes(format!("{:?}", a.degradation()).as_bytes());
    d.0
}

fn policies() -> [(BankSelectPolicy, &'static str); 5] {
    [
        (BankSelectPolicy::Rnd, "Rnd"),
        (BankSelectPolicy::Lnr, "Lnr"),
        (BankSelectPolicy::MinHop, "Min-Hop"),
        (BankSelectPolicy::Hybrid { h: 1.0 }, "Hybrid-1"),
        (BankSelectPolicy::Hybrid { h: 5.0 }, "Hybrid-5"),
    ]
}

/// `(policy, coalescing, machine, digest)`.
const PINNED: &[(&str, &str, &str, u64)] = &[
    ("Rnd", "Off", "Healthy", 0x2b461c8fb436aefc),
    ("Rnd", "Off", "Faulted", 0x0c8d143cc86c3521),
    ("Rnd", "Off", "Restricted", 0x9c292cc21ce6e553),
    ("Rnd", "On", "Healthy", 0xed62236f7cdda846),
    ("Rnd", "On", "Faulted", 0xc262ca6920812e8d),
    ("Rnd", "On", "Restricted", 0x132f578daabca6f1),
    ("Rnd", "OffThenOn", "Healthy", 0x54cdf70fd580652a),
    ("Rnd", "OffThenOn", "Faulted", 0x8ffecaca0073dfac),
    ("Rnd", "OffThenOn", "Restricted", 0xb560aa50b2656244),
    ("Lnr", "Off", "Healthy", 0x8287d334d741b445),
    ("Lnr", "Off", "Faulted", 0x4ab1cacc25d14362),
    ("Lnr", "Off", "Restricted", 0x10e0d9825ed5676d),
    ("Lnr", "On", "Healthy", 0x157e08b48895d8a1),
    ("Lnr", "On", "Faulted", 0xd57025827b56e27f),
    ("Lnr", "On", "Restricted", 0x180cc07939317f8b),
    ("Lnr", "OffThenOn", "Healthy", 0x7e2fd4232e641e52),
    ("Lnr", "OffThenOn", "Faulted", 0xf70111b2a683c802),
    ("Lnr", "OffThenOn", "Restricted", 0x87a5038065bedf56),
    ("Min-Hop", "Off", "Healthy", 0x9443692427b23a4a),
    ("Min-Hop", "Off", "Faulted", 0x6350c9d233a70729),
    ("Min-Hop", "Off", "Restricted", 0x2c69b95a31e717a9),
    ("Min-Hop", "On", "Healthy", 0xce42acb5d8066ba5),
    ("Min-Hop", "On", "Faulted", 0x34f1230bfd73b0f0),
    ("Min-Hop", "On", "Restricted", 0x4055ede3fc5c731f),
    ("Min-Hop", "OffThenOn", "Healthy", 0x113b722f3fd00889),
    ("Min-Hop", "OffThenOn", "Faulted", 0xe0a776a0cb17dc53),
    ("Min-Hop", "OffThenOn", "Restricted", 0x3e230acd5cd6eea6),
    ("Hybrid-1", "Off", "Healthy", 0xf8ac8e0a87eb46f7),
    ("Hybrid-1", "Off", "Faulted", 0x6ffb9b47d95d9f0f),
    ("Hybrid-1", "Off", "Restricted", 0x9476e78137038962),
    ("Hybrid-1", "On", "Healthy", 0xb3e89c8830ef2df5),
    ("Hybrid-1", "On", "Faulted", 0x0c7ba32c048f571c),
    ("Hybrid-1", "On", "Restricted", 0x129c74830f49eac9),
    ("Hybrid-1", "OffThenOn", "Healthy", 0x801e664875fe34bf),
    ("Hybrid-1", "OffThenOn", "Faulted", 0x1c4ae636b1b146d9),
    ("Hybrid-1", "OffThenOn", "Restricted", 0xbb87f0f9f4b3e448),
    ("Hybrid-5", "Off", "Healthy", 0xe7df3aa5cc556bee),
    ("Hybrid-5", "Off", "Faulted", 0xa8452e4d1db55901),
    ("Hybrid-5", "Off", "Restricted", 0xd02d86fac6fd679e),
    ("Hybrid-5", "On", "Healthy", 0xed917c701058b233),
    ("Hybrid-5", "On", "Faulted", 0xbd727a6a0a3057ba),
    ("Hybrid-5", "On", "Restricted", 0x96690dc120febfd6),
    ("Hybrid-5", "OffThenOn", "Healthy", 0x2d436965429bf275),
    ("Hybrid-5", "OffThenOn", "Faulted", 0x0f0ae6417d1bb998),
    ("Hybrid-5", "OffThenOn", "Restricted", 0xb5ea3fb10f8ab164),
];

#[test]
fn placement_digests_match_the_pinned_allocator() {
    let mut computed = Vec::new();
    for (policy, name) in policies() {
        for coalescing in [Coalescing::Off, Coalescing::On, Coalescing::OffThenOn] {
            for machine in [Machine::Healthy, Machine::Faulted, Machine::Restricted] {
                let digest = run(policy, coalescing, machine);
                computed.push((
                    name,
                    format!("{coalescing:?}"),
                    format!("{machine:?}"),
                    digest,
                ));
            }
        }
    }
    let table: String = computed
        .iter()
        .map(|(p, c, m, d)| format!("    (\"{p}\", \"{c}\", \"{m}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(computed.len(), PINNED.len(), "computed digests:\n{table}");
    for ((p, c, m, d), &(pp, pc, pm, pd)) in computed.iter().zip(PINNED) {
        assert_eq!((*p, c.as_str(), m.as_str()), (pp, pc, pm), "table order");
        assert_eq!(
            *d, pd,
            "{p} / {c} / {m} diverged; computed digests:\n{table}"
        );
    }
}
