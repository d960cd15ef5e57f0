//! `nifdy-bench`: the repo benchmark. One process, one thread,
//! busy-polling, fixed work per repetition; see `README.md` beside this
//! package for the workloads, the metrics and how to read the ledger.
//!
//! ```text
//! nifdy-bench --workload W --seed N --seconds S --trace 0|1    (what BENCHMARK.json runs)
//! nifdy-bench run W|--all [--seed N] [--seconds S] [--trace-dir DIR] [--out FILE]
//! nifdy-bench compare A.json B.json
//! nifdy-bench manifest > BENCHMARK.json
//! ```

#![deny(unsafe_code)]

mod carrier;
mod codec_cells;
mod kernel;
mod plan;
mod report;
mod spans;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use kernel::{clock_read_ns, percentile, proc_reading, quantile, Clock, Estimate, Summary};
use report::{WorkloadResult, END_TO_END};
use workloads::{ratio, Rep, Slice};

/// The system allocator plus two counters. Installed in every run so the
/// traced and untraced runs execute the same allocator; only the traced
/// run's report reads the counters.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(size: usize) {
    // The benchmark is one thread, so a plain load/store pair counts
    // exactly and stays off the locked-instruction path a `fetch_add`
    // would put in every allocation of the timed window.
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
    ALLOC_BYTES.store(ALLOC_BYTES.load(Relaxed) + size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` since the process started.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// A run makes at least this many untraced repetitions, however long they
/// take, so every median has quartiles.
const MIN_REPS: usize = 3;
/// Set-up is cheap next to a window (10 µs to 3 ms), so it is sampled far
/// more often than the window is: before every repetition (spread over the
/// run, so the samples do not all land in one slow phase of the host) the
/// system is constructed and dropped again and again for this long (the
/// repetition's own construction is one more sample, so a batch is never
/// empty). The reported figure is the lower decile of all samples, for the
/// reason given at [`RATE_QUANTILE`]: the first construction of a process
/// is four times slower than the tenth (cold allocator), the first after a
/// window finds the caches full of the window's data, and the host's slow
/// seconds stretch the rest. The per-repetition values are the same decile
/// over each repetition's own batch.
const SETUP_BATCH_NS: u64 = 200_000_000;
const SETUP_QUANTILE: f64 = 0.10;

/// Runs one workload for about `seconds` of timed windows and folds the
/// repetitions into a result. With `trace`, every untraced repetition is
/// followed by a traced one of the same plan; the result then carries the
/// per-layer ledger. `trace_out` receives the Chrome trace of the last
/// traced repetition.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<&std::path::Path>,
) -> Result<WorkloadResult, String> {
    let wl = workloads::build(name, seed).ok_or_else(|| {
        let names: Vec<&str> = workloads::TABLE.iter().map(|&(n, _)| n).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let clock = Clock::new();
    let budget_ns = seconds * 1_000_000_000;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut gate: Vec<String> = Vec::new();
    let mut spent_ns = 0u64;

    // Construction times in seconds, one batch per repetition.
    let mut setups: Vec<Vec<f64>> = Vec::new();
    loop {
        let round_start = clock.ns();
        let mut batch: Vec<f64> = Vec::new();
        while clock.ns() - round_start < SETUP_BATCH_NS {
            batch.push(wl.setup_once(clock) as f64 / 1e9);
        }
        plain.push(wl.rep(false, clock));
        if trace {
            traced.push(wl.rep(true, clock));
        }
        batch.extend(
            [plain.last(), traced.last()]
                .into_iter()
                .flatten()
                .map(|r| r.setup_ns as f64 / 1e9),
        );
        setups.push(batch);
        let round_ns = clock.ns() - round_start;
        spent_ns += round_ns;
        let enough = plain.len() >= if trace { 2 } else { MIN_REPS };
        // Stop when the next round would overrun the budget.
        if enough && spent_ns + round_ns > budget_ns {
            break;
        }
    }

    // Gates: every repetition's own, then exact-count agreement between
    // all of them (which, on the simulator workloads, is the mirror-equals-
    // driver check).
    for r in plain.iter().chain(&traced) {
        gate.extend(r.gate.iter().cloned());
    }
    let exact = plain[0].exact.clone();
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        if r.exact != exact {
            gate.push(format!(
                "exact counts of repetition {i} differ from repetition 0: {:?} vs {:?}",
                r.exact, exact
            ));
        }
    }
    gate.sort();
    gate.dedup();

    let mut end_to_end: BTreeMap<&'static str, Estimate> = BTreeMap::new();
    end_to_end.insert(
        "setup_s",
        Estimate {
            value: quantile(&mut setups.concat(), SETUP_QUANTILE),
            reps: setups
                .iter_mut()
                .map(|batch| quantile(batch, SETUP_QUANTILE))
                .collect(),
        },
    );
    end_to_end.insert("delivered_per_s", delivered_estimate(&plain));
    end_to_end.insert("latency_p50_us", latency_estimate(&plain));
    end_to_end.insert(
        "peak_rss_mb",
        Estimate::median_of(vec![proc_reading().peak_rss_kb as f64 / 1024.0]),
    );
    debug_assert!(END_TO_END.iter().all(|m| end_to_end.contains_key(m.name)));

    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();
    let per_layer = trace.then(|| ledger(&plain, &traced, attempted, failed, clock));
    if let (Some(path), Some(rec)) = (trace_out, traced.last().and_then(|r| r.recorder.as_ref())) {
        std::fs::write(path, rec.chrome_trace().render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    Ok(WorkloadResult {
        name: name.to_string(),
        seed,
        correct: gate.is_empty() && failed == 0,
        attempted,
        failed,
        gate,
        end_to_end,
        exact,
        per_layer,
    })
}

/// The sandbox this runs in shares its cores and caches with other
/// tenants: identical work times 10–25% apart from one second to the next,
/// and the interference only ever slows the program down. A rate is
/// therefore estimated from the fastest slices, not the typical one: every
/// window is cut into [`Window::SLICES`](workloads::Window::SLICES) slices
/// of equal work, and the reported rate is the 98th percentile of the slice
/// rates of all repetitions together (about ten slices lie beyond it). Ten
/// runs of one workload then agree several times more closely than their
/// medians do; see the README for the measured spreads.
const RATE_QUANTILE: f64 = 0.98;
/// Latency percentiles are taken per group of this many slices (so each has
/// thousands of samples) ...
const LATENCY_GROUP: usize = 5;
/// ... and, by the same argument as for rates, the reported figure is the
/// 5th percentile of the groups' medians: the latency in the intervals the
/// host left alone. The 99th percentile gets no such treatment — on this
/// host it measures the hypervisor's stalls and spreads 20–130% from run
/// to run whichever way it is cut — so it is a ledger line, not an
/// end-to-end metric.
const LATENCY_QUANTILE: f64 = 0.05;

fn rate_estimate(reps: &[Rep], count: impl Fn(&Slice) -> u64) -> Estimate {
    let rates = |r: &Rep| -> Vec<f64> {
        r.slices
            .iter()
            .filter(|s| s.ns > 0)
            .map(|s| count(s) as f64 / (s.ns as f64 / 1e9))
            .collect()
    };
    let mut pooled: Vec<f64> = reps.iter().flat_map(rates).collect();
    Estimate {
        value: quantile(&mut pooled, RATE_QUANTILE),
        reps: reps
            .iter()
            .map(|r| quantile(&mut rates(r), RATE_QUANTILE))
            .collect(),
    }
}

/// Packets delivered per wall second over `r`'s whole window.
fn window_rate(r: &Rep) -> f64 {
    r.delivered() as f64 / (r.usage.wall_ns.max(1) as f64 / 1e9)
}

/// `delivered_per_s`: the fastest slices' rate where the machine sets the
/// pace (closed loops, simulated time), the plain whole-window rate where
/// the generator does — on the paced open loop a slice's rate is the offered
/// rate, and a fast slice is only the backlog of a stall being worked off.
fn delivered_estimate(reps: &[Rep]) -> Estimate {
    if reps.iter().all(|r| !r.paced) {
        return rate_estimate(reps, |s| s.delivered);
    }
    Estimate::median_of(reps.iter().map(window_rate).collect())
}

/// The median latency, in µs, of each group of slices of `r`.
fn latency_group_medians(r: &Rep) -> Vec<f64> {
    let mut from = 0;
    r.slices
        .chunks(LATENCY_GROUP)
        .filter_map(|group| {
            let to = group.last()?.latency_end;
            let mut samples = r.latency_ns.get(from..to)?.to_vec();
            from = to;
            (!samples.is_empty()).then(|| percentile(&mut samples, 0.5) as f64 / 1e3)
        })
        .collect()
}

fn latency_estimate(reps: &[Rep]) -> Estimate {
    let mut pooled: Vec<f64> = reps.iter().flat_map(latency_group_medians).collect();
    Estimate {
        value: quantile(&mut pooled, LATENCY_QUANTILE),
        reps: reps
            .iter()
            .map(|r| quantile(&mut latency_group_medians(r), LATENCY_QUANTILE))
            .collect(),
    }
}

/// The per-layer ledger of a traced run: what the last untraced and the
/// last traced repetition each computed on their own, plus the lines that
/// need both.
fn ledger(
    plain: &[Rep],
    traced: &[Rep],
    attempted: u64,
    failed: u64,
    clock: Clock,
) -> BTreeMap<&'static str, f64> {
    let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();
    for r in [plain.last(), traced.last()].into_iter().flatten() {
        l.extend(r.layer.iter().map(|(&k, &v)| (k, v)));
    }
    let wall = |reps: &[Rep]| {
        Summary::of(
            &reps
                .iter()
                .map(|r| r.usage.wall_ns as f64)
                .collect::<Vec<_>>(),
        )
        .median
    };
    let (plain_wall, traced_wall) = (wall(plain), wall(traced));
    let covered = Summary::of(
        &traced
            .iter()
            .map(|r| r.recorder.as_ref().map_or(0, spans::Recorder::top_level_ns) as f64)
            .collect::<Vec<_>>(),
    )
    .median;
    l.insert("bench.trace_overhead_share", traced_wall / plain_wall - 1.0);
    l.insert(
        "bench.untraced_residue_share",
        (traced_wall - covered) / traced_wall,
    );
    if l.contains_key("traffic.stepped_share") {
        // Driver wall against the ungated mirror's phase spans: negative
        // means the driver's gating saves work.
        l.insert(
            "traffic.driver_residue_share",
            (plain_wall - covered) / plain_wall,
        );
    }
    if let Some(r) = traced.last().filter(|r| !r.captured_frames.is_empty()) {
        // Once per run, not per repetition: the cells take three seconds.
        let cells = codec_cells::run(&r.captured_frames, clock);
        l.insert("wire.codec_encode_ns", cells.encode_ns);
        l.insert("wire.codec_decode_ns", cells.decode_ns);
        l.insert("wire.codec_peek_route_ns", cells.peek_route_ns);
        // Per frame the stack encodes once, decodes once, and the receiving
        // daemon peeks the route once.
        let frames =
            l.get("node.frames_per_delivered").copied().unwrap_or(0.0) * r.delivered() as f64;
        let per_frame = cells.encode_ns + cells.decode_ns + cells.peek_route_ns;
        l.insert(
            "wire.codec_share_est",
            per_frame * frames / r.usage.wall_ns.max(1) as f64,
        );
    }
    if l.contains_key("traffic.stepped_share") {
        l.insert(
            "traffic.sim_cycles_per_s",
            rate_estimate(plain, |s| s.cycles).value,
        );
    }
    l.insert("bench.clock_read_ns", clock_read_ns(&clock, 1_000_000));
    let cpu: u64 = plain.iter().map(|r| r.usage.cpu_ns).sum();
    let walls: u64 = plain.iter().map(|r| r.usage.wall_ns).sum();
    l.insert("bench.cpu_busy_share", ratio(cpu, walls));
    l.insert(
        "bench.ctx_switches_involuntary",
        plain
            .iter()
            .map(|r| r.usage.involuntary_switches)
            .sum::<u64>() as f64,
    );
    // The typical case beside the end-to-end metrics' best case: plain
    // whole-window figures, median over the untraced repetitions. A
    // slowdown that leaves some slices untouched (a heavier periodic
    // sweep, a sporadic retransmit storm) shows here and not there.
    let window_median =
        |of: &dyn Fn(&Rep) -> f64| Summary::of(&plain.iter().map(of).collect::<Vec<_>>()).median;
    let window_latency_us = |r: &Rep, q: f64| percentile(&mut r.latency_ns.clone(), q) as f64 / 1e3;
    l.insert("bench.window_delivered_per_s", window_median(&window_rate));
    l.insert(
        "bench.window_latency_p50_us",
        window_median(&|r| window_latency_us(r, 0.5)),
    );
    l.insert(
        "bench.latency_p99_us",
        window_median(&|r| window_latency_us(r, 0.99)),
    );
    l.insert("bench.failed_share", ratio(failed, attempted));
    l.insert("bench.repetitions", plain.len() as f64);
    l.insert("bench.traced_repetitions", traced.len() as f64);
    l.insert("bench.window_s", plain_wall / 1e9);
    l.insert("bench.traced_window_s", traced_wall / 1e9);
    l
}

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    all: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
        all: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => out.all = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--trace-dir" | "--out" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.flags
                    .insert(a.trim_start_matches("--").to_string(), v.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => out.positional.push(a.clone()),
        }
    }
    Ok(out)
}

impl Args {
    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} needs a whole number, got {v:?}")),
        }
    }
}

const USAGE: &str = "usage:
  nifdy-bench --workload W --seed N --seconds S --trace 0|1
  nifdy-bench run W|--all [--seed N] [--seconds S] [--trace-dir DIR] [--out FILE]
  nifdy-bench compare A.json B.json
  nifdy-bench manifest                      (prints BENCHMARK.json)";

/// The contract form: one workload, one JSON object as the last line.
fn contract(args: &Args) -> Result<bool, String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let trace = match args.flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, got {v:?}")),
    };
    let result = run_workload(
        name,
        args.number("seed", 1)?,
        args.number("seconds", report::RUN_SECONDS)?,
        trace,
        None,
    )?;
    result.print();
    println!("{}", result.contract_line());
    Ok(result.correct)
}

fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<String> = if args.all {
        workloads::TABLE
            .iter()
            .map(|&(n, _)| n.to_string())
            .collect()
    } else {
        args.positional[1..].to_vec()
    };
    if names.is_empty() {
        return Err("run needs a workload name or --all".into());
    }
    let (seed, seconds) = (
        args.number("seed", 1)?,
        args.number("seconds", report::RUN_SECONDS)?,
    );
    let trace_dir = args.flags.get("trace-dir").map(std::path::PathBuf::from);
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let out = args
        .flags
        .get("out")
        .map_or("nifdy-bench-result.json", String::as_str);
    let (workloads, correct) = match names.as_slice() {
        [name] => {
            // End-to-end numbers come from an untraced run; the ledger from
            // a second, traced run of the same workload and seed.
            let mut result = run_workload(name, seed, seconds, false, None)?;
            if let Some(dir) = &trace_dir {
                let path = dir.join(format!("{name}.trace.json"));
                let traced = run_workload(name, seed, seconds, true, Some(&path))?;
                result.correct &= traced.correct;
                result.gate.extend(traced.gate);
                result.per_layer = traced.per_layer;
            }
            result.print();
            (vec![result.to_json()], result.correct)
        }
        // One process per workload, so `peak_rss_mb` (the process's
        // high-water mark) and the allocator's state are each workload's own.
        _ => run_each_in_a_child(&names, args, out)?,
    };
    std::fs::write(
        out,
        report::set_json(seed, seconds, workloads).render() + "\n",
    )
    .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(correct)
}

/// Runs `nifdy-bench run <name>` once per workload, each in a child process
/// that is waited for, and collects the one-workload result sets they write.
fn run_each_in_a_child(
    names: &[String],
    args: &Args,
    out: &str,
) -> Result<(Vec<nifdy_trace::json::Json>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut workloads = Vec::new();
    let mut correct = true;
    for name in names {
        let part = format!("{out}.{name}.part");
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", name, "--out", &part]);
        for key in ["seed", "seconds", "trace-dir"] {
            if let Some(v) = args.flags.get(key) {
                cmd.args([&format!("--{key}"), v]);
            }
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        correct &= status.success();
        let set = load_json(&part)?;
        let _ = std::fs::remove_file(&part);
        workloads.extend(
            set.get("workloads")
                .and_then(nifdy_trace::json::Json::as_arr)
                .ok_or_else(|| format!("{part} is not a result set"))?
                .iter()
                .cloned(),
        );
    }
    Ok((workloads, correct))
}

fn load_json(path: &str) -> Result<nifdy_trace::json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    nifdy_trace::json::parse(&text).map_err(|e| format!("{path} is not JSON: {e:?}"))
}

fn compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let (table, bad) = report::compare(&load_json(a)?, &load_json(b)?)?;
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_args(&raw).and_then(|args| match args.positional.first().map(String::as_str) {
            None => contract(&args),
            Some("run") => run(&args),
            Some("compare") => compare(&args),
            Some("manifest") => {
                println!("{}", report::manifest().render());
                Ok(true)
            }
            Some(other) => Err(format!("unknown command {other:?}")),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("nifdy-bench: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
