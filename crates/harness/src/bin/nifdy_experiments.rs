//! CLI entry point: regenerate any table or figure of the NIFDY paper.
//!
//! ```text
//! nifdy-experiments <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|table3|all> [--full|--quick|--smoke] [--seed N]
//! ```

use std::process::ExitCode;

use nifdy_harness::{
    ablations, analyze_cmd, ext, ext_lossy, fig23, fig4, fig5, fig6, fig78, fig9, node_cmd,
    percentile_table, sweep, table3, trace_guard, wire_cmd, Jobs, Scale,
};
use nifdy_trace::export;

const USAGE: &str = "usage: nifdy-experiments \
    <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|table3|all|sweep:<network>\
    |ablations|ext:adaptive|ext:loadsweep|ext:lossy|trace-guard|wire:loopback|wire:udp|wire:chaos\
    |trace:analyze|node:serve|node:swarm> \
    [--full|--quick|--smoke] [--seed N] [--jobs N] \
    [--trace-out FILE.json] [--trace-jsonl FILE.jsonl] [--metrics-out FILE.json]\n\
    wire:chaos --metrics-out writes the per-cause fault-counter JSON report\n\
    wire:udp exits with code 3 when the localhost sockets cannot bind\n\
    trace:analyze --metrics-out writes the journey-analysis JSON report, \
    --trace-out the journey-enriched Perfetto trace (fabric carrier), \
    --trace-jsonl the raw event stream; exits nonzero on invariant violation\n\
    node:serve hosts a many-endpoint daemon \
    [--nodes=N --shards=S --batch=B --workload=rotation|em3d \
    --messages=M --packets=P --scalar --parity]\n\
    node:swarm runs an M-process localhost swarm with a sim parity gate \
    [--procs=M --per-proc=K --kill ...serve flags]; \
    --metrics-out writes the aggregated swarm JSON report";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target = None;
    let mut scale = Scale::Full;
    let mut seed = 1u64;
    let mut jobs = Jobs::available();
    let mut trace_out: Option<String> = None;
    let mut trace_jsonl: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut extra: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(s) = Scale::from_flag(a) {
            scale = s;
        } else if a == "--seed" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--jobs" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => jobs = Jobs::new(v),
                None => {
                    eprintln!("--jobs needs a worker count\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--trace-out" || a == "--trace-jsonl" || a == "--metrics-out" {
            let Some(path) = it.next() else {
                eprintln!("{a} needs a file path\n{USAGE}");
                return ExitCode::FAILURE;
            };
            match a.as_str() {
                "--trace-out" => trace_out = Some(path.clone()),
                "--trace-jsonl" => trace_jsonl = Some(path.clone()),
                _ => metrics_out = Some(path.clone()),
            }
        } else if a.starts_with("--") {
            // Command-specific flags (node:* uses --key=value form); the
            // dispatch below validates them against the chosen target.
            extra.push(a.clone());
        } else if target.is_none() {
            target = Some(a.clone());
        } else {
            eprintln!("unexpected argument '{a}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let Some(target) = target else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if !extra.is_empty() && !target.starts_with("node:") {
        eprintln!("unexpected argument '{}'\n{USAGE}", extra[0]);
        return ExitCode::FAILURE;
    }

    let all = target == "all";
    let mut matched = false;
    let mut want = |name: &str| -> bool {
        let hit = all || target == name;
        matched |= hit;
        hit
    };

    if want("table3") {
        let (table, _) = table3::run(seed, jobs);
        println!("{table}");
    }
    if want("fig2") {
        let (table, _) = fig23::run(true, scale, seed, jobs);
        println!("{table}");
    }
    if want("fig3") {
        let (table, _) = fig23::run(false, scale, seed, jobs);
        println!("{table}");
    }
    if want("fig4") {
        let (b_panel, o_panel, _) = fig4::run(scale, seed, jobs);
        println!("{b_panel}");
        println!("{o_panel}");
    }
    if want("fig5") {
        let (maps, _, _) = fig5::run(scale, seed, jobs);
        println!("{maps}");
    }
    if want("fig6") {
        let (table, _) = fig6::run(scale, seed, jobs);
        println!("{table}");
    }
    if want("fig7") {
        let (table, _) = fig78::run(true, scale, seed, jobs);
        println!("{table}");
    }
    if want("fig8") {
        let (table, _) = fig78::run(false, scale, seed, jobs);
        println!("{table}");
    }
    if want("fig9") {
        let (scan, coalesce, _) = fig9::run(scale, seed, jobs);
        println!("{scan}");
        println!("{coalesce}");
    }

    if target == "ablations" {
        for table in ablations::run(scale, seed) {
            println!("{table}");
        }
        matched = true;
    }
    if target == "ext:adaptive" {
        let (table, _) = ext::run_adaptive(scale, seed, jobs);
        println!("{table}");
        matched = true;
    }
    if target == "ext:loadsweep" {
        let (table, _) = ext::run_loadsweep(scale, seed, jobs);
        println!("{table}");
        matched = true;
    }
    if target == "ext:lossy" || target == "ext-lossy" {
        let (table, _) = ext_lossy::run_lossy(scale, seed, jobs);
        println!("{table}");
        matched = true;
    }
    if target == "wire:loopback" {
        let (table, _) = wire_cmd::run_loopback(scale, seed);
        println!("{table}");
        matched = true;
    }
    if target == "wire:chaos" {
        let (table, points) = wire_cmd::run_chaos(scale, seed);
        println!("{table}");
        if let Some(path) = &metrics_out {
            let json = wire_cmd::chaos_json(seed, &points).render();
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        matched = true;
    }
    if target == "wire:udp" {
        match wire_cmd::run_udp(scale, seed) {
            Ok(report) => {
                println!(
                    "nifdy-wire: UDP localhost exchange: {} packets delivered in order, \
                     {} retransmits, {} ms \
                     (refused {}, oversize {}, unknown peer {}, transport errors {} \
                     [{} dropped])",
                    report.delivered,
                    report.retransmits,
                    report.millis,
                    report.refused,
                    report.oversize,
                    report.unknown_peer,
                    report.transport_errors,
                    report.dropped_errors,
                );
            }
            Err(e) => {
                // Distinct exit code: CI distinguishes "no loopback socket
                // available in this sandbox" from a protocol failure.
                eprintln!("wire:udp cannot bind localhost sockets: {e}");
                return ExitCode::from(3);
            }
        }
        matched = true;
    }
    if target == "node:serve" {
        match node_cmd::run_serve(scale, seed, &extra) {
            Ok(node_cmd::ServeOutcome::Child) => {}
            Ok(node_cmd::ServeOutcome::Report(report)) => {
                println!("{}", report.summary);
                println!("{}", report.shards);
                if !report.ok() {
                    eprintln!("node:serve: delivery order diverged from the plan");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("node:serve: {e}");
                return ExitCode::FAILURE;
            }
        }
        matched = true;
    }
    if target == "node:swarm" {
        match node_cmd::run_swarm(scale, seed, &extra) {
            Ok(report) => {
                println!("{}", report.table);
                println!("{}", report.verdict);
                if let Some(path) = &metrics_out {
                    if let Err(e) = std::fs::write(path, report.json.render()) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {path}");
                }
                if !report.ok {
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("node:swarm: {e}");
                return ExitCode::FAILURE;
            }
        }
        matched = true;
    }
    if target == "trace:analyze" {
        let run = analyze_cmd::run(scale, seed);
        println!("{}", run.render());
        let write = |path: &str, data: String| -> bool {
            if let Err(e) = std::fs::write(path, data) {
                eprintln!("cannot write {path}: {e}");
                return false;
            }
            eprintln!("wrote {path}");
            true
        };
        if let Some(path) = &metrics_out {
            if !write(path, run.to_json().render()) {
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &trace_out {
            if !write(path, run.fabric.enriched_trace()) {
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &trace_jsonl {
            if !write(
                path,
                export::to_jsonl_with_loss(&run.fabric.events, &run.fabric.loss),
            ) {
                return ExitCode::FAILURE;
            }
        }
        if !run.ok() {
            eprintln!("trace:analyze: conservation invariants or sim/wire equivalence violated");
            return ExitCode::FAILURE;
        }
        matched = true;
    }
    if target == "trace-guard" {
        let report = trace_guard::run(scale, seed, 5, 2.0);
        println!("{}", report.table());
        if !report.passed() {
            eprintln!(
                "trace-guard: recorder overhead {:.2}% exceeds the {:.2}% budget",
                report.overhead_pct, report.budget_pct
            );
            return ExitCode::FAILURE;
        }
        matched = true;
    }

    // Flight-recorder artifacts: re-run the lossy sweep's representative
    // cell (10% bursty loss, bulk, adaptive RTO) with the recorder on and
    // export whatever was requested.
    if (trace_out.is_some() || trace_jsonl.is_some() || metrics_out.is_some())
        && target != "wire:chaos"
        && target != "trace:analyze"
        && !target.starts_with("node:")
    {
        if !(target.starts_with("ext:lossy") || target == "ext-lossy") {
            eprintln!(
                "--trace-out/--trace-jsonl/--metrics-out only apply to ext:lossy, \
                 wire:chaos, trace:analyze, and node:swarm\n{USAGE}"
            );
            return ExitCode::FAILURE;
        }
        let (events, registry, point) = ext_lossy::run_traced_cell(scale, seed);
        eprintln!(
            "traced cell: loss 10% {} {}, {} packets delivered, {} events recorded",
            point.mode,
            point.rto,
            point.delivered,
            events.len()
        );
        println!("{}", percentile_table("ext:lossy traced cell", &registry));
        let write = |path: &str, data: String| -> bool {
            if let Err(e) = std::fs::write(path, data) {
                eprintln!("cannot write {path}: {e}");
                return false;
            }
            eprintln!("wrote {path}");
            true
        };
        if let Some(path) = &trace_out {
            if !write(path, export::to_chrome_trace(&events)) {
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &trace_jsonl {
            if !write(path, export::to_jsonl(&events)) {
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &metrics_out {
            if !write(path, registry.to_json().render()) {
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(label) = target.strip_prefix("sweep:") {
        match sweep::kind_from_label(label) {
            Some(kind) => {
                let (table, _) = sweep::run(kind, scale, seed, jobs);
                println!("{table}");
                matched = true;
            }
            None => {
                eprintln!("unknown network '{label}'");
                return ExitCode::FAILURE;
            }
        }
    }

    if !matched {
        eprintln!("unknown experiment '{target}'\n{USAGE}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
