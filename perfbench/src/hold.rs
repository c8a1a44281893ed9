//! Scheduler hold model and the host reference workload.

use crate::workload::thread_cpu_s;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;
use xpass_sim::{Dur, EventQueue, Rng, SchedulerKind, SimTime};

/// A payload the size of the engine's event enum (a packet plus its
/// discriminant), so each scheduler moves what it moves in a real run.
struct HoldEv {
    id: u64,
    _body: [u64; 11],
}

/// Timed pop-then-push pairs per hold measurement.
const HOLD_OPS: u64 = 4_000_000;

/// Nanoseconds per pop-then-push pair on an `EventQueue` of `kind` held at
/// `depth` events. Each popped event is re-pushed a uniform 1 ps–6 µs later,
/// the spread of per-flow packet and pacing events at 10 Gbps.
pub fn hold_ns_per_op(kind: SchedulerKind, depth: usize) -> f64 {
    let horizon = 6_000_000u64;
    let mut rng = Rng::new(0x401D ^ depth as u64);
    let mut q = EventQueue::with_scheduler(kind);
    for i in 0..depth.max(1) as u64 {
        q.push(
            SimTime(rng.below(horizon)),
            HoldEv {
                id: i,
                _body: [i; 11],
            },
        );
    }
    let step = |q: &mut EventQueue<HoldEv>, rng: &mut Rng| {
        let (t, ev) = q.pop().expect("the hold model never drains its queue");
        let id = ev.id;
        q.push(t + Dur::ps(1 + rng.below(horizon)), ev);
        id
    };
    for _ in 0..HOLD_OPS / 4 {
        step(&mut q, &mut rng);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..HOLD_OPS {
        acc = acc.wrapping_add(step(&mut q, &mut rng));
    }
    let wall = t0.elapsed().as_secs_f64();
    black_box(acc);
    wall * 1e9 / HOLD_OPS as f64
}

/// Thread CPU seconds for a fixed reference workload that shares no code
/// with the simulator but stresses what it stresses: a 4096-entry
/// `BinaryHeap` of timed events, each pop touching a random 64-byte record
/// of a 16 MB table (past the per-core L2, inside the shared L3) behind a
/// data-dependent branch. Its time moves with the host's cache and memory
/// contention as the simulator's does (a register-only loop's does not),
/// so `run.py` scales host times by it; only host drift can change it.
pub fn ref_loop_s() -> f64 {
    const RECORDS: usize = 1 << 18;
    const OPS: u32 = 1_500_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table: Vec<[u64; 8]> = (0..RECORDS as u64).map(|i| [i; 8]).collect();
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..4096)
        .map(|id| Reverse((next() % 1_000_000, id)))
        .collect();
    let t0 = thread_cpu_s();
    let mut acc = 0u64;
    for _ in 0..OPS {
        let Reverse((t, id)) = heap.pop().expect("the reference heap never drains");
        let r = next();
        let rec = &mut table[(r as usize ^ id as usize) % RECORDS];
        if rec[0] & 1 == 0 {
            rec[1] = rec[1].wrapping_add(t);
        } else {
            rec[2] ^= r;
        }
        acc = acc.wrapping_add(rec[(r >> 61) as usize]);
        heap.push(Reverse((t + 1 + (r >> 44) % 6000, id)));
    }
    black_box(acc);
    thread_cpu_s() - t0
}
