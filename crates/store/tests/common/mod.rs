//! Fixtures shared by the store's integration tests.

#![allow(dead_code)] // each test crate uses a subset

use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, TraceBundle, VirtAddr,
};

/// Deterministic synthetic bundle: several cores, bursty repeated-IP
/// stretches (suppressible), function hops, occasional TSC wraparound.
pub fn synth_bundle(seed: u64, n: usize) -> TraceBundle {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = TraceBundle::default();
    let wrap = seed.is_multiple_of(3);
    let mut tscs = [0u64; 4];
    for (c, t) in tscs.iter_mut().enumerate() {
        *t = if wrap {
            u64::MAX - 500 - (c as u64) * 17
        } else {
            1_000_000 + (c as u64) * 911
        };
    }
    for i in 0..n {
        let core = (step() % 4) as usize;
        let t = &mut tscs[core];
        *t = t.wrapping_add(1 + step() % 40);
        let burst = step() % 4 != 0;
        let ip = if burst {
            0x40_0000 + (step() % 3) * 0x1000
        } else {
            0x40_0000 + step() % 0x4000
        };
        b.samples.push(PebsRecord {
            core: CoreId(core as u32),
            tsc: *t,
            ip: VirtAddr(ip),
            r13: (i as u64) / 7,
            event: HwEvent::ALL[(step() % 4) as usize],
        });
        if i % 5 == 0 {
            b.marks.push(MarkRecord {
                core: CoreId(core as u32),
                tsc: *t,
                item: ItemId(i as u64 / 5),
                kind: if step() % 2 == 0 {
                    MarkKind::Start
                } else {
                    MarkKind::End
                },
            });
        }
    }
    b
}

fn sample(core: u32, tsc: u64, ip: u64, r13: u64, event: HwEvent) -> PebsRecord {
    PebsRecord {
        core: CoreId(core),
        tsc,
        ip: VirtAddr(ip),
        r13,
        event,
    }
}

/// The malformed-input suite's fixture: 200 samples over 3 cores with
/// repeated `(ip, r13, event)` stretches, and 200 alternating marks.
pub fn fixture_bundle() -> TraceBundle {
    let mut b = TraceBundle::default();
    for i in 0..200u64 {
        let core = (i % 3) as u32;
        // Repeated (ip, r13, event) stretches so suppression has teeth.
        let ip = 0x4000 + (i / 16) * 8;
        b.samples
            .push(sample(core, 1000 + i * 3, ip, i / 16, HwEvent::UopsRetired));
        b.marks.push(MarkRecord {
            core: CoreId(core),
            tsc: 1000 + i * 3,
            item: ItemId(i / 2),
            kind: if i % 2 == 0 {
                MarkKind::Start
            } else {
                MarkKind::End
            },
        });
    }
    b
}
