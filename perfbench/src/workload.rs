//! The benchmark's workloads: build one seeded instance through the
//! simulator's public API, run it, check its output, and report.

use crate::layers::{self, CountingSink, CALLBACKS};
use expresspass::netcalc::{buffer_bounds, HierTopo, LinkClass, NetCalcParams};
use expresspass::XPassConfig;
use std::time::Instant;
use xpass_experiments::harness::{eval_fat_tree_invariants, FctBuckets, Scheme, SizeBucket};
use xpass_net::config::NetConfig;
use xpass_net::health::InvariantSpec;
use xpass_net::ids::{FlowId, HostId, NodeId};
use xpass_net::network::{FlowOutcome, FlowRecord, Network};
use xpass_net::topology::Topology;
use xpass_sim::json::Json;
use xpass_sim::metrics::{self, MetricsSpec};
use xpass_sim::time::{Dur, SimTime};
use xpass_sim::trace::JsonlSink;
use xpass_workloads::{FlowSpec, PoissonWorkload, Workload};

const FAT_TREE_BPS: u64 = 10_000_000_000;
const CLOS_BPS: u64 = 1_000_000_000;
const CLOS_FLOW_BYTES: u64 = 100_000_000;
const CLOS_WARMUP: Dur = Dur::us(300);
const CLOS_WINDOW: Dur = Dur::us(700);

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Web Search flow sizes, Poisson arrivals at 0.6 ToR-uplink load, on
    /// the 192-host 3:1 fat tree at 10 Gbps, under ExpressPass.
    WebSearchXPass,
    /// The same flow list under DCTCP.
    WebSearchDctcp,
    /// Long stride-permutation flows on the 10 240-host 3-tier Clos at
    /// 1 Gbps under aggressive ExpressPass, over 1 simulated ms.
    Clos,
}

impl Kind {
    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WebSearchXPass => "fattree_websearch_xpass",
            Kind::WebSearchDctcp => "fattree_websearch_dctcp",
            Kind::Clos => "clos10k_longflows",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::WebSearchXPass, Kind::WebSearchDctcp, Kind::Clos]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Flows in a Clos instance.
    const CLOS_FLOWS: usize = 131_072;
    /// A fat-tree instance offers the bytes of this many mean-sized flows:
    /// small enough (1.5–3 s of host time) that a run times several
    /// instances and its median rides out host noise lasting seconds.
    const FAT_TREE_FLOWS: usize = 400;

    /// Timed set-ups behind the `setup` median: enough for a steady median
    /// of a 1.5 ms fat-tree set-up, few enough for the 0.1 s Clos one.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Clos => 9,
            _ => 41,
        }
    }

    fn scheme(self) -> Scheme {
        match self {
            Kind::WebSearchXPass => Scheme::XPass(XPassConfig::default()),
            Kind::WebSearchDctcp => Scheme::Dctcp,
            Kind::Clos => Scheme::XPass(XPassConfig::aggressive()),
        }
    }

    fn link_bps(self) -> u64 {
        match self {
            Kind::Clos => CLOS_BPS,
            _ => FAT_TREE_BPS,
        }
    }

    fn topology(self) -> Topology {
        match self {
            Kind::Clos => {
                Topology::three_tier(16, 8, 16, 40, 64, CLOS_BPS, CLOS_BPS, CLOS_BPS, Dur::us(1))
            }
            _ => Topology::eval_fat_tree(FAT_TREE_BPS),
        }
    }

    /// The flow list: the only input the simulator receives besides the
    /// network seed. `n` fixes the flow count; by default a Clos instance
    /// has [`Kind::CLOS_FLOWS`] flows and a fat-tree one takes Poisson
    /// arrivals until they offer the bytes of [`Kind::FAT_TREE_FLOWS`]
    /// mean-sized flows, which keeps the work per instance nearly the same
    /// across seeds.
    fn flows(self, topo: &Topology, n: Option<usize>, seed: u64) -> Vec<FlowSpec> {
        if self == Kind::Clos {
            // The fig15_xl stride permutation: round r of host h sends to
            // the host half the fabric away, rotated by the round; starts
            // staggered over 100 µs.
            let hosts = topo.n_hosts;
            return (0..n.unwrap_or(Kind::CLOS_FLOWS))
                .map(|i| {
                    let src = i % hosts;
                    let mut dst = (src + hosts / 2 + (i / hosts) * 131) % hosts;
                    if dst == src {
                        dst = (dst + 1) % hosts;
                    }
                    FlowSpec {
                        src: HostId(src as u32),
                        dst: HostId(dst as u32),
                        size_bytes: CLOS_FLOW_BYTES,
                        start: SimTime::ZERO + Dur::us((i as u64 * 13) % 100),
                    }
                })
                .collect();
        }
        // Generation is sequential, so a shorter list is a prefix of a
        // longer one: fig19's 600 flows are the first 600 of this stream.
        let generate = |count| {
            PoissonWorkload::new(Workload::WebSearch.dist(), 0.6, count, seed ^ 0xABCD)
                .generate(topo)
        };
        if let Some(n) = n {
            return generate(n);
        }
        let target = (Kind::FAT_TREE_FLOWS as f64 * Workload::WebSearch.dist().mean()) as u64;
        let mut count = Kind::FAT_TREE_FLOWS * 3 / 2;
        loop {
            let mut specs = generate(count);
            let mut offered = 0;
            if let Some(last) = specs.iter().position(|s| {
                offered += s.size_bytes;
                offered >= target
            }) {
                specs.truncate(last + 1);
                return specs;
            }
            count *= 2;
        }
    }

    /// The Table-1 data-queue bound (Eq 1) for this workload's fabric, for
    /// the ExpressPass workloads.
    fn queue_bound_bytes(self, cfg: &NetConfig) -> Option<u64> {
        match self {
            Kind::WebSearchXPass => {
                eval_fat_tree_invariants(FAT_TREE_BPS, cfg).data_queue_bound_bytes
            }
            Kind::WebSearchDctcp => None,
            Kind::Clos => {
                let link = LinkClass {
                    speed_bps: CLOS_BPS,
                    prop: Dur::us(1),
                };
                let topo = HierTopo {
                    name: "10k-host Clos".to_string(),
                    host_link: link,
                    tor_agg: link,
                    agg_core: link,
                    tor_down_ports: 40,
                    tor_up_ports: 8,
                };
                let p = NetCalcParams {
                    credit_queue: cfg.credit_queue_pkts,
                    dhost_min: cfg.host_delay.min,
                    dhost_max: cfg.host_delay.max,
                    switch_latency: Dur::ZERO,
                };
                let b = buffer_bounds(&topo, &p);
                Some(
                    b.tor_down
                        .buffer_bytes
                        .max(b.tor_up.buffer_bytes)
                        .max(b.core.buffer_bytes),
                )
            }
        }
    }
}

/// An observer left on for the whole instance.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// Every observer off: the configuration the end-to-end metrics use.
    Off,
    /// A JSONL trace sink writing to a discarding writer.
    Trace,
    /// The packet conservation ledger.
    Ledger,
    /// The Table-1 queue-bound and zero-loss monitors.
    Invariants,
    /// The live metrics sampler at a 100 µs sim-time interval.
    Metrics,
}

impl Observer {
    /// Parse an observer name.
    pub fn parse(name: &str) -> Option<Observer> {
        match name {
            "off" => Some(Observer::Off),
            "trace" => Some(Observer::Trace),
            "ledger" => Some(Observer::Ledger),
            "invariants" => Some(Observer::Invariants),
            "metrics" => Some(Observer::Metrics),
            _ => None,
        }
    }
}

/// What to run.
pub struct Opts {
    /// Workload.
    pub kind: Kind,
    /// Network seed; the flow list derives from it too.
    pub seed: u64,
    /// Flow count; `None` for the workload's default flow list.
    pub flows: Option<usize>,
    /// Observer to switch on.
    pub observer: Observer,
    /// Time endpoint callbacks, count queue events and heap bytes.
    pub traced: bool,
    /// Stop early: at the arrival of the flow a quarter into the list
    /// (fat tree), or at 150 µs (Clos).
    pub prefix: bool,
}

/// FNV-1a over the flow records, the global counters and the engine's
/// event counts: equal digests mean equal simulated output.
fn digest(records: &[FlowRecord], net: &Network) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.id.0 as u64);
        eat(r.src.0 as u64);
        eat(r.dst.0 as u64);
        eat(r.size_bytes);
        eat(r.start.0);
        eat(r.fct.map_or(u64::MAX, |d| d.0));
        eat(r.credits_sent);
        eat(r.credits_wasted);
        eat(match r.outcome {
            None => 0,
            Some(FlowOutcome::Completed) => 1,
            Some(FlowOutcome::Stalled) => 2,
            Some(FlowOutcome::Aborted) => 3,
        });
    }
    let c = net.counters();
    for v in [
        c.credits_sent,
        c.credits_dropped,
        c.credits_wasted,
        c.data_dropped,
        c.payload_delivered,
        c.ecn_marked,
        c.faults_injected,
        c.pkts_corrupted,
        c.pkts_lost_to_faults,
        c.flows_aborted,
    ] {
        eat(v);
    }
    let e = net.engine_report();
    eat(e.events_processed);
    for (_, n) in &e.events_by_kind {
        eat(*n);
    }
    eat(e.peak_queue_len as u64);
    eat(net.max_switch_queue_bytes());
    h
}

/// Mean of the `k` largest per-port peak data queues over switch egress
/// ports: the height of the fabric's worst queues, steadier across seeds
/// than the single largest.
fn top_peaks_mean(net: &Network, k: usize) -> f64 {
    let mut peaks: Vec<u64> = net
        .ports()
        .iter()
        .filter(|p| {
            matches!(
                net.topo().dlinks[p.dlink.0 as usize].from,
                NodeId::Switch(_)
            )
        })
        .map(|p| p.data.stats.max_bytes)
        .collect();
    peaks.sort_unstable_by(|a, b| b.cmp(a));
    peaks.truncate(k);
    peaks.iter().sum::<u64>() as f64 / peaks.len().max(1) as f64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the thread CPU clock below assumes 64-bit Linux");

/// CPU seconds this thread has run. Set-up and run phases are timed on
/// this clock, which leaves out time the host steals from the VM and time
/// another process holds the core.
pub(crate) fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (time_t and long are
    // both 64 bits on 64-bit Linux), and the clock id is Linux's constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Thread CPU seconds since `*t`; moves `*t` to now.
fn secs(t: &mut f64) -> f64 {
    let now = thread_cpu_s();
    let s = now - *t;
    *t = now;
    s
}

/// A network with its flows added, ready to run.
struct Built {
    net: Network,
    specs: Vec<FlowSpec>,
    flows: Vec<FlowId>,
    bound: Option<u64>,
    /// Thread CPU seconds in each set-up layer: topology, workload,
    /// network, flows.
    setup: [f64; 4],
    /// Heap bytes the flow adds left live (traced runs).
    live_flow_adds: u64,
}

/// Set-up layers, in [`Built::setup`] order.
pub const SETUP_LAYERS: [&str; 4] = ["topology", "workload", "network", "add_flows"];

/// The set-up phase: topology, flow list, network and flow adds, each
/// through the simulator's public API and timed on its own.
fn build(o: &Opts) -> Built {
    let kind = o.kind;
    let scheme = kind.scheme();
    let link = kind.link_bps();
    let cfg = scheme.net_config(link).with_seed(o.seed);
    let bound = kind.queue_bound_bytes(&cfg);
    let mut t = thread_cpu_s();
    let topo = kind.topology();
    let topology_s = secs(&mut t);
    let specs = kind.flows(&topo, o.flows, o.seed);
    let workload_s = secs(&mut t);
    let mut net = if o.traced {
        Network::new(topo, cfg, layers::timed_factory(scheme.factory(link)))
    } else {
        scheme.build(topo, link, o.seed)
    };
    if o.traced {
        net.install_trace_sink(Box::new(CountingSink::default()));
    }
    match o.observer {
        Observer::Trace => {
            net.install_trace_sink(Box::new(JsonlSink::new(Box::new(std::io::sink()))))
        }
        Observer::Ledger => net.install_ledger(),
        Observer::Invariants => net.install_invariants(InvariantSpec {
            data_queue_bound_bytes: bound,
            zero_data_loss: bound.is_some(),
        }),
        Observer::Off | Observer::Metrics => {}
    }
    let network_s = secs(&mut t);
    let mut flows = Vec::with_capacity(specs.len());
    let live_before_flows = layers::live_bytes();
    flows.extend(
        specs
            .iter()
            .map(|s| net.add_flow(s.src, s.dst, s.size_bytes, s.start)),
    );
    let live_flow_adds = layers::live_bytes().saturating_sub(live_before_flows);
    let add_flows_s = secs(&mut t);
    Built {
        net,
        specs,
        flows,
        bound,
        setup: [topology_s, workload_s, network_s, add_flows_s],
        live_flow_adds,
    }
}

/// Median set-up seconds, total and per layer, over the workload's
/// [`Kind::setup_reps`] set-ups in this process, after 0.3 s of untimed
/// set-ups bring the host core and caches to a steady state.
pub fn setup_only(o: &Opts) -> Json {
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < 0.3 {
        build(o);
    }
    let mut samples: Vec<[f64; 4]> = (0..o.kind.setup_reps()).map(|_| build(o).setup).collect();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut out = Json::obj().with(
        "total_s",
        Json::Num(median(
            &mut samples.iter().map(|s| s.iter().sum()).collect(),
        )),
    );
    for (i, name) in SETUP_LAYERS.iter().enumerate() {
        let mut v: Vec<f64> = samples.iter_mut().map(|s| s[i]).collect();
        out = out.with(&format!("{name}_s"), Json::Num(median(&mut v)));
    }
    out.with("reps", Json::num_u64(samples.len() as u64))
}

/// Build, run and check one instance; the result is one JSON object.
pub fn run(o: &Opts) -> Json {
    let kind = o.kind;
    if o.traced {
        layers::count_allocations();
    }
    if o.observer == Observer::Metrics {
        metrics::install(
            MetricsSpec {
                interval: Dur::us(100),
                ..MetricsSpec::default()
            },
            None,
        );
    }
    let Built {
        mut net,
        specs,
        flows,
        bound,
        setup,
        live_flow_adds,
    } = build(o);

    // --- run phase ---
    let mut failures: Vec<String> = Vec::new();
    // Allocated ahead so the run-phase heap tallies hold the simulator's
    // allocations only.
    let mut before: Vec<u64> = Vec::with_capacity(flows.len());
    let alloc_before_run = layers::allocated_bytes();
    let live_before_run = layers::live_bytes();
    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let mut clos_delivered = 0;
    match (kind, o.prefix) {
        (Kind::Clos, true) => net.run_until(SimTime::ZERO + Dur::us(150)),
        (Kind::Clos, false) => {
            // fig15_xl's measurement: goodput over the window after warmup.
            net.run_until(SimTime::ZERO + CLOS_WARMUP);
            before.extend(flows.iter().map(|&f| net.delivered_bytes(f)));
            net.run_until(SimTime::ZERO + CLOS_WARMUP + CLOS_WINDOW);
            clos_delivered = flows
                .iter()
                .zip(&before)
                .map(|(&f, &b)| net.delivered_bytes(f) - b)
                .sum();
        }
        (_, true) => net.run_until(specs[specs.len() / 4].start),
        (_, false) => {
            let last_start = specs.last().expect("at least one flow").start;
            net.run_until_done(last_start + Dur::secs(10));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu0;
    let run_alloc = layers::allocated_bytes() - alloc_before_run;
    let live_after_run = layers::live_bytes();
    let records = net.flow_records();
    let mut sim = Json::obj();
    if kind == Kind::Clos {
        if !o.prefix {
            let concurrent = specs.len() - net.completed_count() - net.aborted_count();
            let goodput_bps = clos_delivered as f64 * 8.0 / CLOS_WINDOW.as_secs_f64();
            if concurrent != specs.len() {
                failures.push(format!(
                    "{} of {} flows ended early",
                    specs.len() - concurrent,
                    specs.len()
                ));
            }
            if goodput_bps <= 0.0 {
                failures.push("no goodput".to_string());
            }
            sim = sim
                .with("concurrent", Json::num_u64(concurrent as u64))
                .with("goodput_bps", Json::Num(goodput_bps));
        }
    } else {
        net.finish_stats();
        let mut fct = FctBuckets::from_records(&records);
        let buckets: Vec<Json> = SizeBucket::all()
            .iter()
            .map(|&b| {
                Json::obj()
                    .with("bucket", Json::str(b.label()))
                    .with("avg_s", Json::Num(fct.avg(b)))
                    .with("p99_s", Json::Num(fct.p99(b)))
                    .with("count", Json::num_u64(fct.count(b) as u64))
            })
            .collect();
        let mut overall = fct.overall();
        let (p50, p99) = if overall.is_empty() {
            (0.0, 0.0)
        } else {
            (overall.median(), overall.p99())
        };
        let (mut qsum, mut nports) = (0.0, 0usize);
        for p in net.ports() {
            if matches!(
                net.topo().dlinks[p.dlink.0 as usize].from,
                NodeId::Switch(_)
            ) {
                qsum += p.data.stats.occupancy.mean();
                nports += 1;
            }
        }
        // Mean flow goodput: each finished flow's size over its FCT,
        // averaged over flows. Bytes over summed FCTs would weigh the few
        // largest flows most and vary about twice as much from seed to seed.
        let (rate_sum, finished) = records
            .iter()
            .filter_map(|r| Some(r.size_bytes as f64 * 8.0 / r.fct?.as_secs_f64()))
            .fold((0.0, 0usize), |(s, n), rate| (s + rate, n + 1));
        let goodput_bps = rate_sum / finished.max(1) as f64;
        sim = sim
            .with("fct_buckets", Json::Arr(buckets))
            .with(
                "fct_overall",
                Json::obj()
                    .with("p50_s", Json::Num(p50))
                    .with("p99_s", Json::Num(p99)),
            )
            .with("unfinished", Json::num_u64(fct.unfinished() as u64))
            .with("avg_switch_bytes", Json::Num(qsum / nports.max(1) as f64))
            .with("goodput_bps", Json::Num(goodput_bps));
    }

    // --- checks against the paper's theory ---
    let max_queue = net.max_switch_queue_bytes();
    let drops = net.total_data_drops();
    if let Some(b) = bound {
        if drops > 0 {
            failures.push(format!("{drops} data packets dropped under ExpressPass"));
        }
        if max_queue > b {
            failures.push(format!(
                "max switch queue {max_queue} B over the Table-1 bound {b} B"
            ));
        }
    }
    match o.observer {
        Observer::Ledger if !net.ledger_report().balanced() => {
            failures.push("conservation ledger unbalanced".to_string())
        }
        Observer::Invariants if !net.health_report().ok() => {
            failures.push("invariant monitor reported a violation".to_string())
        }
        _ => {}
    }

    let e = net.engine_report();
    let by_kind = e
        .events_by_kind
        .iter()
        .fold(Json::obj(), |j, &(k, n)| j.with(k, Json::num_u64(n)));
    let counters = net.counters().to_json();
    let mut out = Json::obj()
        .with("workload", Json::str(kind.name()))
        .with("seed", Json::num_u64(o.seed))
        .with("flows", Json::num_u64(specs.len() as u64))
        .with(
            "digest",
            Json::str(format!("{:016x}", digest(&records, &net))),
        )
        .with(
            "failures",
            Json::Arr(failures.into_iter().map(Json::str).collect()),
        )
        .with("wall_s", Json::Num(wall_s))
        .with("cpu_s", Json::Num(cpu_s))
        .with(
            "setup",
            SETUP_LAYERS.iter().zip(setup).fold(
                Json::obj().with("total_s", Json::Num(setup.iter().sum())),
                |j, (name, s)| j.with(&format!("{name}_s"), Json::Num(s)),
            ),
        )
        .with("events_processed", Json::num_u64(e.events_processed))
        .with("events_by_kind", by_kind)
        .with("peak_queue_len", Json::num_u64(e.peak_queue_len as u64))
        .with("max_switch_bytes", Json::num_u64(max_queue))
        .with("peak10_switch_bytes", Json::Num(top_peaks_mean(&net, 10)))
        .with("data_drops", Json::num_u64(drops))
        .with("counters", counters)
        .with("sim", sim);

    if o.traced {
        let mut sink = net
            .take_trace_sink()
            .expect("the counting sink stays installed for the run");
        let s = sink
            .as_any()
            .downcast_mut::<CountingSink>()
            .expect("the installed sink is a CountingSink");
        let mut layer = Json::obj()
            .with("port.enqueues", Json::num_u64(s.enqueues))
            .with("port.dequeues", Json::num_u64(s.dequeues))
            .with("port.data_drops", Json::num_u64(s.data_drops))
            .with("port.credit_drops", Json::num_u64(s.credit_drops))
            .with("port.ecn_marks", Json::num_u64(s.ecn_marks))
            .with("credit.sent", Json::num_u64(s.credits_sent))
            .with("credit.wasted", Json::num_u64(s.credits_wasted))
            .with("feedback.updates", Json::num_u64(s.feedback_updates))
            .with(
                "arena.slots",
                Json::num_u64(net.arena().slot_count() as u64),
            )
            .with(
                "timers.pending_end",
                Json::num_u64(net.timer_wheels().total_pending()),
            )
            .with("mem.alloc_bytes", Json::num_u64(run_alloc))
            .with(
                "mem.live_bytes_flows",
                Json::num_u64((live_flow_adds + live_after_run).saturating_sub(live_before_run)),
            );
        let mut endpoint_s = 0.0;
        for (name, (calls, s)) in CALLBACKS.iter().zip(layers::endpoint_totals()) {
            endpoint_s += s;
            layer = layer
                .with(&format!("endpoint.{name}.calls"), Json::num_u64(calls))
                .with(&format!("endpoint.{name}_s"), Json::Num(s));
        }
        layer = layer.with("net.self_s", Json::Num(wall_s - endpoint_s));
        out = out.with("layers", layer);
    }
    out
}
