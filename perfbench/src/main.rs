//! Benchmark binary for the ExpressPass simulator.
//!
//! `run.py` starts this binary once per measured simulation, so every
//! instance gets a fresh process (and its own peak RSS). Subcommands, each
//! printing one JSON object on stdout:
//!
//! ```text
//! xpass-perfbench instance --workload <name> --seed <u64> [--flows <n>]
//!                          [--observer off|trace|ledger|invariants|metrics]
//!                          [--traced] [--prefix]
//! xpass-perfbench setup --workload <name> --seed <u64>
//! xpass-perfbench hold --depth <n>
//! ```

mod hold;
mod layers;
mod workload;

use std::process::ExitCode;
use xpass_sim::json::Json;
use xpass_sim::SchedulerKind;

#[global_allocator]
static GLOBAL: layers::CountingAlloc = layers::CountingAlloc;

fn usage(msg: &str) -> ExitCode {
    eprintln!("xpass-perfbench: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage("missing subcommand (instance|setup|hold)");
    };
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let out = match cmd.as_str() {
        "instance" | "setup" => {
            let Some(kind) = value("--workload").and_then(workload::Kind::parse) else {
                return usage("--workload must name a benchmark workload");
            };
            let Some(seed) = value("--seed").and_then(|s| s.parse().ok()) else {
                return usage("--seed needs a u64");
            };
            let flows = match value("--flows").map(str::parse) {
                None => None,
                Some(Ok(n)) if n > 0 => Some(n),
                Some(_) => return usage("--flows needs a positive count"),
            };
            let Some(observer) = workload::Observer::parse(value("--observer").unwrap_or("off"))
            else {
                return usage("--observer must be off|trace|ledger|invariants|metrics");
            };
            let opts = workload::Opts {
                kind,
                seed,
                flows,
                observer,
                traced: flag("--traced"),
                prefix: flag("--prefix"),
            };
            if cmd == "instance" {
                workload::run(&opts)
            } else {
                // The reference workload right after the set-ups: run.py
                // scales both the set-ups and the neighbouring instances
                // by it.
                workload::setup_only(&opts).with("ref_loop_s", Json::Num(hold::ref_loop_s()))
            }
        }
        "hold" => {
            let Some(depth) = value("--depth").and_then(|s| s.parse().ok()) else {
                return usage("hold needs --depth <n>");
            };
            Json::obj()
                .with(
                    "calendar_ns",
                    Json::Num(hold::hold_ns_per_op(SchedulerKind::Calendar, depth)),
                )
                .with(
                    "heap_ns",
                    Json::Num(hold::hold_ns_per_op(SchedulerKind::Heap, depth)),
                )
        }
        other => return usage(&format!("unknown subcommand '{other}'")),
    };
    println!("{out}");
    ExitCode::SUCCESS
}
