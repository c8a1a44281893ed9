#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ExpressPass simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `xpass-perfbench` binary from source (cargo, release
profile, into $CARGO_TARGET_DIR, default `.bench_build`), then starts it
once per measured simulation so each instance runs single-threaded in a
fresh process. It prints a readable report, and as its last stdout line
one JSON object with the keys `correct`, `attempted`, `failed`, `metrics`.

Workloads (see BENCHMARK.json for why each was chosen):
  fattree_websearch_xpass  Web Search sizes, Poisson arrivals at 0.6 uplink
                           load until they offer the bytes of 400 mean-sized
                           flows, 192-host 3:1 fat tree at 10G, ExpressPass,
                           run until every flow finishes.
  fattree_websearch_dctcp  the same flow list under DCTCP.
  clos10k_longflows        the fig15_xl shape: 10 240-host 3-tier Clos at 1G,
                           131 072 stride-permutation 100 MB flows, 1 sim-ms.

--trace 0 runs instances with every observer off for --seconds (at least
eight on the fat tree, two on the Clos): instance r uses seed
seed + r * 0x9E3779B97F4A7C15  (mod 2^64). Before every instance and after
the last, a set-up process times the set-up and then the host reference
workload (host.ref_loop_s: fixed work that shares no code with the
simulator and loads the cache and memory as it does). Host times are
scaled by it to a host on which the reference takes REF_HOST_S = 0.25 CPU
seconds, which cancels most host drift; a code change leaves the reference
alone, so it moves a scaled time as much as the raw one.
Reported:
  norm_cpu_s      median run-phase CPU seconds per instance (thread CPU
                  clock), each scaled by REF_HOST_S over the mean of the
                  reference times just before and just after it
  setup_s         set-up CPU seconds (topology, network, flow list and flow
                  adds): each set-up process takes the median of repeated
                  set-ups and scales it by REF_HOST_S over its own
                  reference time; the run reports the mean over its set-up
                  processes
  peak_rss_mb     median peak resident memory of an instance process
  sim.goodput_gbps
                  mean simulated goodput over the first eight instances on
                  the fat tree, two on the Clos (so the simulated metrics
                  depend on --seed only): mean flow goodput
                  (each finished flow's size over its FCT) on the fat
                  tree, fig15_xl's window goodput on the Clos
  sim.max_queue_kb
                  the ten largest per-port peak switch data queues,
                  averaged, then averaged over the same instances
                  (steadier than the single largest, which the Table-1
                  check bounds)
It also prints the unscaled medians, the run phase's wall time and CPU
share (below 1 when the host steals time or another process takes the
core) and the median reference time; these are reported, not gated.
An operation is one flow on the fat-tree workloads and one instance on the
Clos. A flow fails if it does not finish; an instance that crashes or fails
a check fails all of its operations. Checks: every flow finishes (fat
tree), no flow ends early (Clos), zero data drops and a largest switch
queue within the Table-1 bound (ExpressPass workloads), and at the
workload's default seed a digest of flow records and counters equal to the
committed one in expected.json.

--trace 1 makes one untraced and one traced instance at the given seed,
times each layer from outside through calls into its public functions, and
reports the per-layer metrics of BENCHMARK.json. It also runs the
observer-overhead prefixes and the cross-checks against the committed
fig19 / fig15_xl records. An operation is one checked simulation there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

WORKLOADS = ("fattree_websearch_xpass", "fattree_websearch_dctcp", "clos10k_longflows")
# The first SIM_INSTANCES instances of a --trace 0 run give its simulated
# metrics, so those depend on --seed alone; later instances only add timings.
# Eight short fat-tree instances offer as many bytes as 3200 mean-sized
# flows; a Clos instance runs the same flows every time, so two suffice
# there.
SIM_INSTANCES = {
    "fattree_websearch_xpass": 8,
    "fattree_websearch_dctcp": 8,
    "clos10k_longflows": 2,
}
# Host times are scaled to a host on which the reference workload
# (`hold::ref_loop_s`, timed by every `setup` process) takes this many CPU
# seconds.
REF_HOST_S = 0.25
# Flows in one instance (on the fat tree, the mean: its instances offer a
# fixed byte total); counts the operations of an instance that crashed.
NOMINAL_FLOWS = {
    "fattree_websearch_xpass": 400,
    "fattree_websearch_dctcp": 400,
    "clos10k_longflows": 131072,
}
SEED_STRIDE = 0x9E3779B97F4A7C15
# Every child must be done by then, so the whole run ends within 180 s.
BUDGET_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "xpass-perfbench")


class Runner:
    def __init__(self, binary, start):
        self.binary = binary
        self.deadline = start + BUDGET_S

    def expired(self):
        return time.monotonic() >= self.deadline

    def child(self, *args):
        """Run the binary once; returns (json result or None, peak RSS in kB)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            return None, 0
        p = subprocess.Popen([self.binary, *map(str, args)], cwd=ROOT,
                             stdout=subprocess.PIPE)
        timer = threading.Timer(left, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        if p.returncode != 0:
            print(f"perfbench: {' '.join(map(str, args))} exited {p.returncode}",
                  file=sys.stderr)
            return None, usage.ru_maxrss
        return json.loads(out.decode().strip().splitlines()[-1]), usage.ru_maxrss


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def instance_seed(seed, r):
    return (seed + r * SEED_STRIDE) % (1 << 64)


def default_digest_failures(expected, workload, seed, res):
    """The committed digest check, for an instance at the default seed."""
    want = expected["default"][workload]
    if seed != want["seed"] or res["flows"] != want["flows"]:
        return []
    if res["digest"] != want["digest"]:
        return [f"digest {res['digest']} != committed {want['digest']} at seed {seed}"]
    return []


def report(metrics, correct, attempted, failed, extra=()):
    print(f"{'metric':<34} {'value':>16}  unit")
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>16.6g}  {m['unit']}")
    for line in extra:
        print(line)
    print(f"ops: {failed} failed of {attempted} attempted; correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_untraced(rn, workload, seed, seconds, expected):
    setups = []

    def time_setup(s):
        # Set-up and the reference workload are timed before every instance
        # and after the last: set-up samples the host across the whole run,
        # and each instance has a reference time on either side.
        res = rn.child("setup", "--workload", workload, "--seed", s)[0]
        if res is None:
            fail("set-up run failed")
        setups.append(res)

    fat_tree = workload != "clos10k_longflows"
    attempted = failed = 0
    done = []
    start = time.monotonic()
    last = 0.0
    r = 0
    # Instances until the next would end past --seconds, and at least
    # SIM_INSTANCES of them.
    sim_instances = SIM_INSTANCES[workload]
    while r < sim_instances or time.monotonic() - start + last <= seconds:
        s = instance_seed(seed, r)
        r += 1
        t = time.monotonic()
        time_setup(s)
        res, rss = rn.child("instance", "--workload", workload, "--seed", s)
        last = time.monotonic() - t
        if res is None:
            ops = NOMINAL_FLOWS[workload] if fat_tree else 1
            attempted += ops
            failed += ops
            if rn.expired():
                break
            continue
        ops = res["flows"] if fat_tree else 1
        attempted += ops
        problems = res["failures"] + default_digest_failures(expected, workload, s, res)
        for p in problems:
            print(f"perfbench: seed {s}: {p}", file=sys.stderr)
        if problems:
            failed += ops
        elif fat_tree:
            failed += res["sim"]["unfinished"]
        res["rss_kb"] = rss
        res["index"] = r - 1
        done.append(res)
    if not done:
        fail("no instance completed")
    time_setup(instance_seed(seed, r))
    med = statistics.median
    for d in done:
        i = d["index"]
        d["ref_s"] = (setups[i]["ref_loop_s"] + setups[i + 1]["ref_loop_s"]) / 2
    sim = [d for d in done if d["index"] < sim_instances]
    metrics = {
        "norm_cpu_s": {"value": med(d["cpu_s"] * REF_HOST_S / d["ref_s"] for d in done),
                       "unit": "s"},
        # A mean, not a median, over set-up processes: a process's address
        # layout puts all its set-ups in a fast or a slow mode (about 1.6x
        # apart on the fat tree), and the median of such a mix jumps
        # between the modes from run to run.
        "setup_s": {"value": statistics.fmean(u["total_s"] * REF_HOST_S / u["ref_loop_s"]
                                              for u in setups), "unit": "s"},
        "peak_rss_mb": {"value": med(d["rss_kb"] * 1024 / 1e6 for d in done), "unit": "MB"},
        "sim.goodput_gbps": {"value": statistics.fmean(d["sim"]["goodput_bps"] / 1e9
                                                       for d in sim), "unit": "Gbps"},
        "sim.max_queue_kb": {"value": statistics.fmean(d["peak10_switch_bytes"] / 1e3
                                                       for d in sim), "unit": "KB"},
    }
    extra = [f"instances: {len(done)} of {r} completed; seeds {seed} + r*{SEED_STRIDE:#x}; "
             f"set-up timed {len(setups)} times",
             f"unscaled medians: run-phase cpu_s = {med(d['cpu_s'] for d in done):.4f} s, "
             f"wall_s = {med(d['wall_s'] for d in done):.4f} s, "
             f"set-up = {med(u['total_s'] for u in setups):.6f} s",
             f"host.ref_loop_s (median) = {med(u['ref_loop_s'] for u in setups):.6f} s; "
             f"cpu_s over wall_s (median) = {med(d['cpu_s'] / d['wall_s'] for d in done):.3f}",
             f"largest switch queue: {max(d['max_switch_bytes'] for d in done) / 1e3:.3f} KB"]
    if fat_tree:
        for q in ("p50", "p99"):
            v = med(d["sim"]["fct_overall"][f"{q}_s"] * 1e6 for d in sim)
            extra.append(f"sim.fct_{q}_us (median over the first {sim_instances} "
                         f"instances) = {v:.3f} us")
    report(metrics, failed == 0, attempted, failed, extra)


# fig19 / fig15_xl record fields -> where the instance result keeps them.
FIG19_FIELDS = {
    "events_processed": ("events_processed",),
    "peak_queue_len": ("peak_queue_len",),
    "events_by_kind": ("events_by_kind",),
    "counters": ("counters",),
    "fct_buckets": ("sim", "fct_buckets"),
    "fct_overall": ("sim", "fct_overall"),
    "unfinished": ("sim", "unfinished"),
    "avg_switch_bytes": ("sim", "avg_switch_bytes"),
    "max_switch_bytes": ("max_switch_bytes",),
}
FIG15_XL_FIELDS = {
    "flows": ("flows",),
    "concurrent": ("sim", "concurrent"),
    "goodput_bps": ("sim", "goodput_bps"),
    "max_queue_bytes": ("max_switch_bytes",),
    "drops": ("data_drops",),
    "events": ("events_processed",),
}


def dig(obj, path):
    for k in path:
        obj = obj[k]
    return obj


def cross_check(rn, workload, expected):
    """Re-run the committed figure configurations: one problem list per case."""
    out = []
    for case in expected["crosscheck"][workload]:
        res, _ = rn.child("instance", "--workload", workload, "--seed", case["seed"],
                          "--flows", case["flows"])
        tag = f"{case['source']} (seed {case['seed']}, {case['flows']} flows)"
        if res is None:
            out.append([f"{tag}: crashed"])
            continue
        fields = FIG19_FIELDS if case["source"].startswith("fig19") else FIG15_XL_FIELDS
        problems = [f"{tag}: {key} = {dig(res, path)!r}, record has {case['record'][key]!r}"
                    for key, path in fields.items() if dig(res, path) != case["record"][key]]
        if res["digest"] != case["digest"]:
            problems.append(f"{tag}: digest {res['digest']} != committed {case['digest']}")
        out.append(problems + [f"{tag}: {p}" for p in res["failures"]])
    return out


OBSERVERS = ("trace", "ledger", "invariants", "metrics")
OBSERVER_ROUNDS = 3


def run_traced(rn, workload, seed, expected):
    checked = []  # one list of problems per checked simulation

    def sim(*args):
        res, _ = rn.child("instance", "--workload", workload, "--seed", seed, *args)
        checked.append(["crashed"] if res is None else list(res["failures"]))
        return res, checked[-1]

    plain, plain_problems = sim()
    traced, traced_problems = sim("--traced")
    if plain is None or traced is None:
        fail("the untraced or traced instance crashed")
    plain_problems += default_digest_failures(expected, workload, seed, plain)
    if traced["digest"] != plain["digest"]:
        traced_problems.append("tracing changed the simulated output")
    layer = traced["layers"]
    c = plain["counters"]
    for sink_key, counter in (("port.credit_drops", "credits_dropped"),
                              ("port.data_drops", "data_dropped"),
                              ("port.ecn_marks", "ecn_marked"),
                              ("credit.sent", "credits_sent"),
                              ("credit.wasted", "credits_wasted")):
        if layer[sink_key] != c[counter]:
            traced_problems.append(f"trace count {sink_key}={layer[sink_key]} "
                                   f"!= counter {counter}={c[counter]}")

    setup = rn.child("setup", "--workload", workload, "--seed", seed)[0]
    hold = rn.child("hold", "--depth", plain["peak_queue_len"])[0]
    if setup is None or hold is None:
        fail("set-up or hold-model run failed")

    # Each observer against the observer-off prefix of the same round, so
    # host drift between rounds cancels; the median over rounds is reported.
    ratios = {ob: [] for ob in OBSERVERS}
    for _ in range(OBSERVER_ROUNDS):
        base, _ = sim("--prefix")
        for ob in OBSERVERS:
            res, problems = sim("--prefix", "--observer", ob)
            if res is None or base is None:
                continue
            ratios[ob].append(res["cpu_s"] / base["cpu_s"])
            if res["digest"] != base["digest"]:
                problems.append(f"observer {ob} changed the simulated output")
    overhead = {ob: statistics.median(v) if v else 0.0 for ob, v in ratios.items()}

    for problems in cross_check(rn, workload, expected):
        checked.append(problems)
    for p in (p for problems in checked for p in problems):
        print(f"perfbench: {p}", file=sys.stderr)
    failed = sum(1 for problems in checked if problems)

    events = plain["events_processed"]
    kinds = plain["events_by_kind"]
    count = lambda v: {"value": v, "unit": "count"}
    metrics = {
        "sched.events": count(events),
        **{f"sched.events.{k}": count(kinds[k])
           for k in ("port_wake", "arrive", "host_rx", "timer", "flow_start")},
        "sched.peak_queue_len": count(plain["peak_queue_len"]),
        "sched.hold_ns_per_op.calendar": {"value": hold["calendar_ns"], "unit": "ns/op"},
        "sched.hold_ns_per_op.heap": {"value": hold["heap_ns"], "unit": "ns/op"},
        "net.ns_per_event": {"value": plain["cpu_s"] * 1e9 / events, "unit": "ns/event"},
        "net.self_s": {"value": layer["net.self_s"], "unit": "s"},
        **{k: count(layer[k]) for k in ("port.enqueues", "port.dequeues", "port.data_drops",
                                         "port.credit_drops", "port.ecn_marks")},
        "port.wakes_per_dequeue": {"value": kinds["port_wake"] / max(1, layer["port.dequeues"]),
                                   "unit": "ratio"},
        "port.credit_drop_ratio": {"value": layer["port.credit_drops"]
                                   / max(1, layer["credit.sent"]), "unit": "ratio"},
    }
    for cb in ("on_start", "on_packet", "on_timer"):
        metrics[f"endpoint.{cb}.calls"] = count(layer[f"endpoint.{cb}.calls"])
        metrics[f"endpoint.{cb}_s"] = {"value": layer[f"endpoint.{cb}_s"], "unit": "s"}
    metrics.update({
        **{k: count(layer[k]) for k in ("credit.sent", "credit.wasted", "feedback.updates",
                                         "arena.slots", "timers.pending_end")},
        **{f"setup.{k}_s": {"value": setup[f"{k}_s"], "unit": "s"}
           for k in ("topology", "network", "workload", "add_flows")},
        "mem.alloc_bytes_per_event": {"value": layer["mem.alloc_bytes"] / events,
                                      "unit": "B/event"},
        "mem.live_bytes_per_flow": {"value": layer["mem.live_bytes_flows"] / plain["flows"],
                                    "unit": "B/flow"},
        **{f"observer.{ob}_overhead": {"value": overhead[ob], "unit": "ratio"}
           for ob in OBSERVERS},
        "bench.trace_overhead": {"value": traced["cpu_s"] / plain["cpu_s"], "unit": "ratio"},
        "host.ref_loop_s": {"value": setup["ref_loop_s"], "unit": "s"},
    })
    extra = [f"untraced cpu_s = {plain['cpu_s']:.4f} s (wall {plain['wall_s']:.4f} s), "
             f"traced cpu_s = {traced['cpu_s']:.4f} s (wall {traced['wall_s']:.4f} s)",
             f"cross-checks run: {len(expected['crosscheck'][workload])}"]
    report(metrics, failed == 0, len(checked), failed, extra)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if not 0 <= a.seed < 1 << 64 or a.seconds < 1:
        fail("--seed must fit in a u64 and --seconds must be positive")
    start = time.monotonic()
    expected = load_expected()
    rn = Runner(build(), start)
    if a.trace:
        run_traced(rn, a.workload, a.seed, expected)
    else:
        run_untraced(rn, a.workload, a.seed, a.seconds, expected)


if __name__ == "__main__":
    main()
