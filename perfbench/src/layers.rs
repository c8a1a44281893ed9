//! Outside-in instrumentation for the traced run: everything here wraps a
//! public interface of the simulator from the benchmark's side, so the
//! simulator itself carries no benchmark code.
//!
//! * [`timed_factory`] wraps an [`EndpointFactory`] so every endpoint
//!   callback (`on_start`, `on_packet`, `on_timer`) is counted and timed.
//!   The times are inclusive of the work an endpoint does synchronously
//!   through its `Ctx`, such as the NIC enqueue behind `Ctx::send`.
//! * [`CountingSink`] is a [`TraceSink`] that counts queue and credit
//!   events instead of recording them.
//! * [`CountingAlloc`] is the binary's global allocator; it tallies heap
//!   bytes only while [`count_allocations`] has switched it on, so untraced
//!   runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use xpass_net::arena::FlowHandle;
use xpass_net::endpoint::{Ctx, Endpoint, EndpointFactory, FlowInfo};
use xpass_net::ids::Side;
use xpass_net::packet::Packet;
use xpass_sim::trace::{TraceClass, TraceEvent, TraceSink};
use xpass_sim::{SnapError, SnapReader, SnapWriter};

/// Endpoint callback kinds, in report order.
pub const CALLBACKS: [&str; 3] = ["on_start", "on_packet", "on_timer"];

thread_local! {
    static CALLS: [Cell<u64>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
    static NANOS: [Cell<u64>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
}

/// Calls and inclusive seconds per callback kind, in [`CALLBACKS`] order.
pub fn endpoint_totals() -> [(u64, f64); 3] {
    let mut out = [(0, 0.0); 3];
    CALLS.with(|c| {
        NANOS.with(|n| {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = (c[i].get(), n[i].get() as f64 * 1e-9);
            }
        })
    });
    out
}

fn record(kind: usize, since: Instant) {
    let ns = since.elapsed().as_nanos() as u64;
    CALLS.with(|c| c[kind].set(c[kind].get() + 1));
    NANOS.with(|n| n[kind].set(n[kind].get() + ns));
}

/// An endpoint whose callbacks are counted and timed.
struct Timed(Box<dyn Endpoint>);

impl Endpoint for Timed {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.0.on_start(ctx);
        record(0, t);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.0.on_packet(pkt, ctx);
        record(1, t);
    }

    fn on_timer(&mut self, kind: u8, gen: u64, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.0.on_timer(kind, gen, ctx);
        record(2, t);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.0.as_any()
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.0.snap_state(w)
    }

    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.0.restore_state(r)
    }
}

/// Wrap `inner` so every endpoint it builds is a timed one.
pub fn timed_factory(inner: EndpointFactory) -> EndpointFactory {
    Box::new(move |side: Side, info: &FlowInfo, h: FlowHandle| {
        Box::new(Timed(inner(side, info, h))) as Box<dyn Endpoint>
    })
}

/// Queue and credit event counts gathered from the trace stream.
#[derive(Default)]
pub struct CountingSink {
    /// Packets accepted into any queue.
    pub enqueues: u64,
    /// Packets that left a queue for the wire.
    pub dequeues: u64,
    /// Data packets dropped at a queue.
    pub data_drops: u64,
    /// Credits dropped at a credit queue.
    pub credit_drops: u64,
    /// Data packets ECN-marked.
    pub ecn_marks: u64,
    /// Credits emitted by receivers.
    pub credits_sent: u64,
    /// Credits that reached a sender with nothing to send.
    pub credits_wasted: u64,
    /// Credit feedback-loop updates.
    pub feedback_updates: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::PktEnqueue { .. } => self.enqueues += 1,
            TraceEvent::PktDequeue { .. } => self.dequeues += 1,
            TraceEvent::PktDrop { class, .. } => match class {
                TraceClass::Credit => self.credit_drops += 1,
                TraceClass::Data => self.data_drops += 1,
                TraceClass::Ack | TraceClass::Ctrl => {}
            },
            TraceEvent::EcnMark { .. } => self.ecn_marks += 1,
            TraceEvent::CreditSent { .. } => self.credits_sent += 1,
            TraceEvent::CreditWasted { .. } => self.credits_wasted += 1,
            TraceEvent::FeedbackUpdate { .. } => self.feedback_updates += 1,
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// The system allocator with switchable byte tallies.
pub struct CountingAlloc;

/// Start tallying heap bytes (traced runs only).
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Cumulative bytes allocated while counting was on.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes allocated minus bytes freed while counting was on.
pub fn live_bytes() -> u64 {
    allocated_bytes().saturating_sub(FREED.load(Ordering::Relaxed))
}

fn tally(counter: &AtomicU64, bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        counter.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tallies are side effects that touch no
// allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            tally(&ALLOCATED, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            tally(&ALLOCATED, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        tally(&FREED, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            tally(&ALLOCATED, new_size);
            tally(&FREED, layout.size());
        }
        p
    }
}
