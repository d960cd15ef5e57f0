//! `node:*` commands: the many-endpoint daemon (`node:serve`) and the
//! multi-process localhost swarm (`node:swarm`).
//!
//! * [`run_serve`] hosts N logical endpoints inside one carrier-less daemon
//!   and drives a seeded workload through it, reporting throughput and the
//!   per-shard [`NodeStats`](nifdy_node::NodeStats) breakdown. The same
//!   entry point doubles as the hidden `--swarm-child` mode the swarm
//!   parent spawns.
//! * [`run_swarm`] partitions the logical node range over M child
//!   processes of this very binary, connects them over real UDP sockets,
//!   runs the planned workload, and gates the aggregated per-destination
//!   delivery order byte-for-byte against the flit-level simulator
//!   (the same plan on a [`FabricSet`]). With `--kill` it SIGKILLs one child
//!   mid-workload, respawns it with a bumped epoch, and gates completeness
//!   plus recovery evidence instead of order parity.
//!
//! # Wire protocol between parent and child (newline-delimited, stdio)
//!
//! ```text
//! child  -> parent   PORT <addr>          once, after binding its socket
//! parent -> child    PEER <proc> <addr>   repeatable, also after a respawn
//! parent -> child    GO                   peers are in place, start
//! child  -> parent   PROG <unique>        periodic progress
//! child  -> parent   COMPLETE             local workload drained
//! parent -> child    STOP                 dump state and exit
//! child  -> parent   LOG <src> <dst> <msg_id> <pkt>   delivery order
//! child  -> parent   STATS <json>         counters, one line
//! child  -> parent   DONE                 clean exit follows
//! ```
//!
//! All node-specific flags use `--key=value` form so the binary's global
//! argument parser can forward them opaquely.

#![expect(
    clippy::disallowed_types,
    reason = "orchestrates real child processes and UDP sockets: wall-clock deadlines bound \
              handshakes and run phases and are reported as throughput, never fed into \
              simulated time"
)]

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use nifdy::NifdyConfig;
use nifdy_net::FaultConfig;
use nifdy_node::workload::{em3d_plan, DaemonSet, PlanFeeder, SwarmPlan};
use nifdy_node::{NifdyNode, NodeConfig};
use nifdy_sim::NodeId;
use nifdy_trace::json::{self, Json};
use nifdy_trace::TraceHandle;
use nifdy_traffic::Em3dParams;
use nifdy_wire::conformance::{run, DeliveryLog, FabricSet};
use nifdy_wire::{PeerEvent, SupervisorConfig, UdpTransport};

use crate::wire_cmd::SIZE_WORDS;
use crate::{Scale, Table};

/// Which planned workload the daemon or swarm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The conformance suite's fixed-point-free rotation permutation.
    Rotation,
    /// The paper's EM3D kernel (§4.4), cross-processor arcs only.
    Em3d,
}

impl WorkloadKind {
    fn label(self) -> &'static str {
        match self {
            WorkloadKind::Rotation => "rotation",
            WorkloadKind::Em3d => "em3d",
        }
    }
}

/// Parsed `node:*` options (all `--key=value` extras plus scale defaults).
#[derive(Debug, Clone)]
struct NodeOpts {
    workload: WorkloadKind,
    /// Logical endpoints a single `node:serve` daemon hosts.
    nodes: usize,
    /// Swarm process count.
    procs: usize,
    /// Logical endpoints per swarm process.
    per_proc: usize,
    shards: usize,
    batch: usize,
    messages: u64,
    packets: u32,
    bulk: bool,
    kill: bool,
    /// `node:serve`: also gate against the flit-level simulator.
    parity: bool,
    swarm_child: bool,
    /// This child's process index (`--swarm-child` only).
    proc: usize,
    /// Starting endpoint epoch (a respawned child passes the next one).
    epoch: u32,
}

impl NodeOpts {
    fn defaults(scale: Scale) -> Self {
        let (nodes, per_proc, messages, packets) = match scale {
            Scale::Full => (1024, 64, 2, 4),
            Scale::Quick => (256, 32, 1, 3),
            Scale::Smoke => (64, 16, 1, 2),
        };
        NodeOpts {
            workload: WorkloadKind::Rotation,
            nodes,
            procs: 4,
            per_proc,
            shards: 8,
            batch: 64,
            messages,
            packets,
            bulk: true,
            kill: false,
            parity: false,
            swarm_child: false,
            proc: 0,
            epoch: 0,
        }
    }
}

fn num<T: std::str::FromStr>(key: &str, val: Option<&str>) -> Result<T, String> {
    val.ok_or_else(|| format!("{key} needs a value ({key}=N)"))?
        .parse()
        .map_err(|_| format!("{key} needs a number, got '{}'", val.unwrap_or("")))
}

fn parse_opts(scale: Scale, extra: &[String]) -> Result<NodeOpts, String> {
    let mut o = NodeOpts::defaults(scale);
    for arg in extra {
        let (key, val) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v)),
            None => (arg.as_str(), None),
        };
        match key {
            "--workload" => {
                o.workload = match val {
                    Some("rotation") => WorkloadKind::Rotation,
                    Some("em3d") => WorkloadKind::Em3d,
                    other => {
                        return Err(format!(
                            "--workload must be rotation or em3d, got '{}'",
                            other.unwrap_or("")
                        ))
                    }
                }
            }
            "--nodes" => o.nodes = num(key, val)?,
            "--procs" => o.procs = num(key, val)?,
            "--per-proc" => o.per_proc = num(key, val)?,
            "--shards" => o.shards = num(key, val)?,
            "--batch" => o.batch = num(key, val)?,
            "--messages" => o.messages = num(key, val)?,
            "--packets" => o.packets = num(key, val)?,
            "--epoch" => o.epoch = num(key, val)?,
            "--proc" => o.proc = num(key, val)?,
            "--bulk" => o.bulk = true,
            "--scalar" => o.bulk = false,
            "--kill" => o.kill = true,
            "--parity" => o.parity = true,
            "--swarm-child" => o.swarm_child = true,
            _ => return Err(format!("unknown node flag '{arg}'")),
        }
    }
    if o.nodes < 2 {
        return Err("--nodes must be at least 2".into());
    }
    if o.procs < 2 {
        return Err("--procs must be at least 2".into());
    }
    if o.per_proc < 1 || o.shards < 1 || o.batch < 1 || o.packets < 1 || o.messages < 1 {
        return Err("--per-proc/--shards/--batch/--messages/--packets must be positive".into());
    }
    if o.kill && o.workload != WorkloadKind::Rotation {
        return Err("node:swarm --kill supports --workload=rotation only".into());
    }
    Ok(o)
}

/// Small EM3D configuration sized for swarm smoke runs: mostly-local arcs
/// over a narrow span keep per-pair message counts modest at any scale.
fn em3d_params(seed: u64, scale: Scale) -> Em3dParams {
    Em3dParams {
        n_nodes: 20,
        d_nodes: 4,
        local_p: 50,
        dist_span: 8,
        iters: if scale == Scale::Full { 2 } else { 1 },
        seed,
        compute_per_iter: 0,
    }
}

/// Builds the plan for `total` logical nodes. Kill mode forces scalar
/// traffic: the crash-recovery contract (sender-side §6.2 state carrying a
/// flow across a peer's crash) is defined for scalar packets.
fn build_plan(o: &NodeOpts, scale: Scale, seed: u64, total: usize) -> SwarmPlan {
    let bulk = o.bulk && !o.kill;
    match o.workload {
        WorkloadKind::Rotation => {
            SwarmPlan::rotation(total, o.messages, o.packets, SIZE_WORDS, bulk, seed)
        }
        WorkloadKind::Em3d => em3d_plan(total, em3d_params(seed, scale), SIZE_WORDS, bulk),
    }
}

/// Tick limit of the in-process runs: a wedge guard, never reached.
const MAX_TICKS: u64 = 50_000_000;

/// The plan's delivery log on the flit-level simulated fabric — the
/// reference a daemon or swarm run must match byte for byte.
fn sim_reference(plan: &SwarmPlan) -> DeliveryLog {
    let (cfg, faults) = (NodeConfig::default().protocol, FaultConfig::default());
    let mut set = FabricSet::new(plan, cfg, faults, &TraceHandle::off());
    run(&mut set, plan, 0, MAX_TICKS).log
}

fn scale_flag(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "--full",
        Scale::Quick => "--quick",
        Scale::Smoke => "--smoke",
    }
}

// ---------------------------------------------------------------------------
// node:serve
// ---------------------------------------------------------------------------

/// What `node:serve` produced.
#[derive(Debug)]
pub struct ServeReport {
    /// One-row throughput summary.
    pub summary: Table,
    /// Per-shard counter breakdown.
    pub shards: Table,
    /// Delivery order matched the plan's send order.
    pub order_ok: bool,
    /// `--parity` verdict against the flit-level simulator, if requested.
    pub sim_parity: Option<bool>,
    /// Endpoint-frames demultiplexed per wall second.
    pub frames_per_sec: f64,
}

impl ServeReport {
    /// Every requested gate held.
    pub fn ok(&self) -> bool {
        self.order_ok && self.sim_parity != Some(false)
    }
}

/// How `node:serve` ran.
#[derive(Debug)]
pub enum ServeOutcome {
    /// Normal daemon run; print the report.
    Report(Box<ServeReport>),
    /// `--swarm-child` mode: the stdio protocol already ran, print nothing.
    Child,
}

/// Runs a single many-endpoint daemon over the planned workload (or, with
/// `--swarm-child`, one swarm child process — see the module docs).
pub fn run_serve(scale: Scale, seed: u64, extra: &[String]) -> Result<ServeOutcome, String> {
    let opts = parse_opts(
        scale, // node:serve alone tolerates the swarm defaults; --procs is unused.
        extra,
    )?;
    if opts.swarm_child {
        swarm_child(scale, seed, &opts)?;
        return Ok(ServeOutcome::Child);
    }
    let plan = build_plan(&opts, scale, seed, opts.nodes);
    let cfg = NodeConfig::default()
        .with_shards(opts.shards)
        .with_batch(opts.batch)
        .with_seed(seed);
    let start = Instant::now();
    let mut set = DaemonSet::new(plan.nodes, 1, &cfg);
    let served = run(&mut set, &plan, 0, MAX_TICKS);
    let millis = start.elapsed().as_millis().max(1);
    let order_ok = served.log == plan.expected_log();
    let sim_parity = opts.parity.then(|| served.log == sim_reference(&plan));
    let stats = set.daemons[0].stats();
    let frames_per_sec = stats.frames_in as f64 * 1_000.0 / millis as f64;
    let packets = plan.total_packets();
    let mut summary = Table::new(
        format!(
            "nifdy-node: serve, {} endpoints / {} shards, {} workload ({}, seed {seed})",
            opts.nodes,
            opts.shards,
            opts.workload.label(),
            if plan.want_bulk { "bulk" } else { "scalar" },
        ),
        vec![
            "endpoints".into(),
            "packets".into(),
            "rounds".into(),
            "wall ms".into(),
            "frames/s".into(),
            "pkts/s".into(),
            "order".into(),
        ],
    );
    summary.row(vec![
        opts.nodes.to_string(),
        packets.to_string(),
        served.ticks.to_string(),
        millis.to_string(),
        format!("{frames_per_sec:.0}"),
        format!("{:.0}", packets as f64 * 1_000.0 / millis as f64),
        match (order_ok, sim_parity) {
            (true, Some(true)) => "plan+sim".into(),
            (true, None) => "plan".into(),
            _ => format!("DIVERGED ({} failures)", served.failure_total()),
        },
    ]);
    let mut shards = Table::new(
        "per-shard breakdown".to_string(),
        vec![
            "shard".into(),
            "frames in".into(),
            "frames out".into(),
            "delivered".into(),
            "failures".into(),
        ],
    );
    for (i, s) in stats.shards.iter().enumerate() {
        shards.row(vec![
            i.to_string(),
            s.frames_in.to_string(),
            s.frames_out.to_string(),
            s.delivered.to_string(),
            s.failures.to_string(),
        ]);
    }
    Ok(ServeOutcome::Report(Box::new(ServeReport {
        summary,
        shards,
        order_ok,
        sim_parity,
        frames_per_sec,
    })))
}

// ---------------------------------------------------------------------------
// swarm child
// ---------------------------------------------------------------------------

fn emit(line: &str) {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn apply_peer(node: &mut NifdyNode<UdpTransport>, c0: usize, rest: &str) -> Result<(), String> {
    let mut it = rest.split_whitespace();
    let idx: usize = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("PEER needs a process index")?;
    let addr: std::net::SocketAddr = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("PEER needs a socket address")?;
    node.carrier_mut(c0).add_peer(NodeId::new(idx), addr);
    Ok(())
}

/// The swarm protocol configuration: adaptive RTO with a budget generous
/// enough that a kill-mode outage (thousands of fast poll rounds) is
/// absorbed as retransmissions, never surfacing a typed failure.
fn swarm_protocol(kill: bool) -> NifdyConfig {
    let base = NodeConfig::default().protocol;
    if kill {
        base.with_retx_timeout(256)
            .with_adaptive_rto(true)
            .with_retx_budget(10_000)
    } else {
        base.with_retx_timeout(5_000).with_adaptive_rto(true)
    }
}

/// Heartbeats every 256 rounds; the silence timeout is set far beyond any
/// scheduling hiccup because restart detection is epoch-driven (a spurious
/// `Down` would only be noise, but there is no reason to invite it).
fn swarm_supervisor() -> SupervisorConfig {
    SupervisorConfig::default()
        .with_heartbeat_every(256)
        .with_peer_timeout(1_000_000)
}

/// One swarm child: binds a socket, hosts its slice of the node range, and
/// speaks the stdio protocol until STOP.
fn swarm_child(scale: Scale, seed: u64, opts: &NodeOpts) -> Result<(), String> {
    let me = opts.proc;
    let k = opts.per_proc;
    let total = opts.procs * k;
    if me >= opts.procs {
        return Err(format!(
            "--proc={me} out of range for --procs={}",
            opts.procs
        ));
    }
    let plan = build_plan(opts, scale, seed, total);
    let owner = |n: usize| n / k;
    let hosted = me * k..(me + 1) * k;

    let carrier = UdpTransport::bind(NodeId::new(me), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind swarm child socket: {e}"))?
        .with_pump_limit(opts.batch * 2);
    let addr = carrier
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;

    let cfg = NodeConfig::default()
        .with_shards(opts.shards)
        .with_batch(opts.batch)
        .with_protocol(swarm_protocol(opts.kill))
        .with_supervisor(swarm_supervisor())
        .with_initial_epoch(opts.epoch)
        .with_seed(seed.wrapping_add(me as u64));
    let mut node: NifdyNode<UdpTransport> = NifdyNode::new(cfg);
    let c0 = node.add_carrier(carrier);
    for n in hosted.clone() {
        node.add_endpoint(NodeId::new(n), plan.peers_of(n));
    }
    for n in 0..total {
        if !hosted.contains(&n) {
            node.set_route(NodeId::new(n), c0, NodeId::new(owner(n)));
        }
    }

    // Stdin arrives on a dedicated thread so the poll loop never blocks.
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    emit(&format!("PORT {addr}"));
    let handshake_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) if line == "GO" => break,
            Ok(line) if line == "STOP" => return Ok(()),
            Ok(line) => {
                if let Some(rest) = line.strip_prefix("PEER ") {
                    apply_peer(&mut node, c0, rest)?;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() > handshake_deadline {
                    return Err("no GO from the swarm parent".into());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("swarm parent hung up before GO".into())
            }
        }
    }

    let expected_in = plan
        .sends
        .iter()
        .flatten()
        .filter(|p| hosted.contains(&p.dst.index()))
        .count() as u64;
    let mut feeders: Vec<(usize, PlanFeeder)> = hosted
        .clone()
        .map(|n| (n, PlanFeeder::new(&plan, n)))
        .collect();
    let mut log = DeliveryLog::new();
    let mut seen: BTreeSet<(usize, usize, u64, u32)> = BTreeSet::new();
    let mut reoffered: BTreeSet<usize> = BTreeSet::new();
    let mut restarted_observed = 0u64;
    let mut dups = 0u64;
    let mut failures = 0u64;
    let mut complete = false;
    let mut stop = false;
    let deadline = Instant::now() + Duration::from_secs(180);

    while !stop {
        if Instant::now() > deadline {
            return Err(format!(
                "swarm child {me} timed out at {}/{expected_in} packets",
                seen.len()
            ));
        }
        while let Ok(line) = rx.try_recv() {
            if line == "STOP" {
                stop = true;
            } else if let Some(rest) = line.strip_prefix("PEER ") {
                apply_peer(&mut node, c0, rest)?;
            }
        }
        if stop {
            break;
        }
        let mut progressed = false;
        for (n, f) in feeders.iter_mut() {
            f.pump(|pkt| node.try_send(NodeId::new(*n), pkt));
        }
        node.poll_round();
        while let Some((dst, d)) = node.next_delivery() {
            let key = (d.src.index(), dst.index(), d.user.msg_id, d.user.pkt_index);
            if seen.insert(key) {
                log.entry((key.0, key.1)).or_default().push((key.2, key.3));
                progressed = true;
            } else {
                dups += 1;
            }
        }
        failures += node.take_failures().len() as u64;
        // Kill-mode re-offer: a restarted peer process lost every packet
        // its dead incarnation had accepted, so the first Restarted
        // observation for a process triggers a one-shot re-offer of all
        // frames destined to it (receivers deduplicate) — the same
        // protocol the respawned child itself runs by re-playing its plan.
        for (_, ev) in node.take_peer_events() {
            if let PeerEvent::Restarted { peer, .. } = ev {
                restarted_observed += 1;
                let kproc = owner(peer.index());
                if opts.kill && kproc != me && reoffered.insert(kproc) {
                    let mut filtered = plan.clone();
                    for q in &mut filtered.sends {
                        q.retain(|p| owner(p.dst.index()) == kproc);
                    }
                    for n in hosted.clone() {
                        if !filtered.sends[n].is_empty() {
                            feeders.push((n, PlanFeeder::new(&filtered, n)));
                        }
                    }
                }
            }
        }
        if !complete
            && seen.len() as u64 == expected_in
            && feeders.iter().all(|(_, f)| f.done())
            && node.is_idle()
        {
            complete = true;
            emit(&format!("PROG {}", seen.len()));
            emit("COMPLETE");
        }
        if node.stats().rounds.is_multiple_of(1024) {
            emit(&format!("PROG {}", seen.len()));
        }
        if !progressed {
            std::thread::yield_now();
        }
    }

    for ((src, dst), order) in &log {
        for (msg, pkt) in order {
            emit(&format!("LOG {src} {dst} {msg} {pkt}"));
        }
    }
    let stats = node.stats().clone();
    let udp = node.carrier_mut(c0);
    let error_detail = udp.take_error().map(|e| e.to_string()).unwrap_or_default();
    let stats_json = Json::obj([
        ("proc", Json::u64(me as u64)),
        ("epoch", Json::u64(u64::from(opts.epoch))),
        ("expected_in", Json::u64(expected_in)),
        ("unique", Json::u64(seen.len() as u64)),
        ("dups", Json::u64(dups)),
        ("failures", Json::u64(failures)),
        ("restarted_observed", Json::u64(restarted_observed)),
        ("rounds", Json::u64(stats.rounds)),
        ("frames_in", Json::u64(stats.frames_in)),
        ("frames_out", Json::u64(stats.frames_out)),
        ("local_frames", Json::u64(stats.local_frames)),
        ("unroutable", Json::u64(stats.unroutable)),
        ("foreign", Json::u64(stats.foreign)),
        ("dropped_down", Json::u64(stats.dropped_down)),
        ("refused", Json::u64(udp.refused())),
        ("oversize", Json::u64(udp.oversize())),
        ("unknown_peer", Json::u64(udp.unknown_peer())),
        ("send_errors", Json::u64(udp.send_errors())),
        ("transport_errors", Json::u64(udp.transport_errors())),
        ("dropped_errors", Json::u64(udp.dropped_errors())),
        ("transport_error_detail", Json::str(error_detail)),
    ]);
    emit(&format!("STATS {}", stats_json.render()));
    emit("DONE");
    Ok(())
}

// ---------------------------------------------------------------------------
// swarm parent
// ---------------------------------------------------------------------------

enum FromChild {
    Line(String),
    Eof,
}

struct Slot {
    child: Child,
    stdin: ChildStdin,
    gen: u64,
    addr: Option<String>,
    complete: bool,
    prog: u64,
    epoch: u32,
    log_lines: Vec<(usize, usize, u64, u32)>,
    stats: Option<Json>,
    done: bool,
}

fn attach_reader(
    tx: &mpsc::Sender<(usize, u64, FromChild)>,
    slot: usize,
    gen: u64,
    stdout: ChildStdout,
) {
    let tx = tx.clone();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if tx.send((slot, gen, FromChild::Line(line))).is_err() {
                return;
            }
        }
        let _ = tx.send((slot, gen, FromChild::Eof));
    });
}

fn spawn_child(
    exe: &std::path::Path,
    scale: Scale,
    seed: u64,
    opts: &NodeOpts,
    proc: usize,
    epoch: u32,
) -> Result<(Child, ChildStdin, ChildStdout), String> {
    let mut cmd = Command::new(exe);
    cmd.arg("node:serve")
        .arg("--swarm-child")
        .arg(format!("--proc={proc}"))
        .arg(format!("--procs={}", opts.procs))
        .arg(format!("--per-proc={}", opts.per_proc))
        .arg(format!("--workload={}", opts.workload.label()))
        .arg(format!("--messages={}", opts.messages))
        .arg(format!("--packets={}", opts.packets))
        .arg(format!("--shards={}", opts.shards))
        .arg(format!("--batch={}", opts.batch))
        .arg(format!("--epoch={epoch}"))
        .arg("--seed")
        .arg(seed.to_string())
        .arg(scale_flag(scale));
    if opts.kill {
        cmd.arg("--kill");
    }
    if !opts.bulk {
        cmd.arg("--scalar");
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn swarm child {proc}: {e}"))?;
    let stdin = child.stdin.take().ok_or("child stdin unavailable")?;
    let stdout = child.stdout.take().ok_or("child stdout unavailable")?;
    Ok((child, stdin, stdout))
}

fn send_line(slot: &mut Slot, line: &str) {
    // A write failure means the child died; the event loop will see the
    // EOF and report it with context, so the error is not lost here.
    let _ = writeln!(slot.stdin, "{line}");
    let _ = slot.stdin.flush();
}

fn stat(slot: &Slot, key: &str) -> u64 {
    slot.stats
        .as_ref()
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// What `node:swarm` produced.
#[derive(Debug)]
pub struct SwarmReport {
    /// Per-process counter table.
    pub table: Table,
    /// One-line verdict (parity or recovery).
    pub verdict: String,
    /// Every gate held.
    pub ok: bool,
    /// Machine-readable report for `--metrics-out`.
    pub json: Json,
}

#[derive(PartialEq)]
enum Phase {
    Ports,
    Run,
    Drain,
}

/// Runs the multi-process swarm; see the module docs for the protocol and
/// the clean-mode (order parity) vs `--kill` (completeness + recovery)
/// gates.
pub fn run_swarm(scale: Scale, seed: u64, extra: &[String]) -> Result<SwarmReport, String> {
    let opts = parse_opts(scale, extra)?;
    let total = opts.procs * opts.per_proc;
    let plan = build_plan(&opts, scale, seed, total);
    let expected = plan.expected_log();
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let victim = opts.procs - 1;

    let (tx, rx) = mpsc::channel::<(usize, u64, FromChild)>();
    let mut slots: Vec<Slot> = Vec::with_capacity(opts.procs);
    for i in 0..opts.procs {
        let (child, stdin, stdout) = spawn_child(&exe, scale, seed, &opts, i, 0)?;
        attach_reader(&tx, i, 0, stdout);
        slots.push(Slot {
            child,
            stdin,
            gen: 0,
            addr: None,
            complete: false,
            prog: 0,
            epoch: 0,
            log_lines: Vec::new(),
            stats: None,
            done: false,
        });
    }
    let cleanup = |slots: &mut Vec<Slot>| {
        for s in slots.iter_mut() {
            let _ = s.child.kill();
            let _ = s.child.wait();
        }
    };

    let mut phase = Phase::Ports;
    let mut killed = false;
    let deadline = Instant::now() + Duration::from_secs(240);
    loop {
        if Instant::now() > deadline {
            cleanup(&mut slots);
            return Err("swarm parent timed out".into());
        }
        // Kill-one-process recovery drill: once the victim shows progress,
        // SIGKILL it and respawn the same slice with the next epoch.
        if opts.kill && !killed && phase == Phase::Run {
            let trigger = slots[victim].prog >= 1 || slots[victim].complete;
            if trigger {
                killed = true;
                let s = &mut slots[victim];
                s.gen += 1;
                let _ = s.child.kill();
                let _ = s.child.wait();
                let (child, stdin, stdout) = spawn_child(&exe, scale, seed, &opts, victim, 1)?;
                attach_reader(&tx, victim, s.gen, stdout);
                s.child = child;
                s.stdin = stdin;
                s.addr = None;
                s.complete = false;
                s.prog = 0;
                s.epoch = 1;
            }
        }
        match phase {
            Phase::Ports => {
                if slots.iter().all(|s| s.addr.is_some()) {
                    let peers: Vec<(usize, String)> = slots
                        .iter()
                        .enumerate()
                        .map(|(j, s)| (j, s.addr.clone().unwrap_or_default()))
                        .collect();
                    for (i, slot) in slots.iter_mut().enumerate() {
                        for (j, addr) in &peers {
                            if *j != i {
                                send_line(slot, &format!("PEER {j} {addr}"));
                            }
                        }
                        send_line(slot, "GO");
                    }
                    phase = Phase::Run;
                    continue;
                }
            }
            Phase::Run => {
                let all_complete = slots.iter().all(|s| s.complete) && (!opts.kill || killed);
                if all_complete {
                    for s in slots.iter_mut() {
                        send_line(s, "STOP");
                    }
                    phase = Phase::Drain;
                    continue;
                }
            }
            Phase::Drain => {
                if slots.iter().all(|s| s.done) {
                    break;
                }
            }
        }
        let (i, gen, msg) = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(ev) => ev,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                cleanup(&mut slots);
                return Err("all swarm reader threads vanished".into());
            }
        };
        if gen != slots[i].gen {
            continue; // stale line from a killed incarnation
        }
        let line = match msg {
            FromChild::Line(l) => l,
            FromChild::Eof => {
                if slots[i].done {
                    continue;
                }
                cleanup(&mut slots);
                return Err(format!("swarm child {i} exited unexpectedly"));
            }
        };
        let mut it = line.split_whitespace();
        match it.next() {
            Some("PORT") => {
                let addr = it.next().unwrap_or_default().to_string();
                slots[i].addr = Some(addr.clone());
                if phase == Phase::Run {
                    // A respawned child joins late: give it the full peer
                    // map, start it, and update everyone else's view.
                    let peers: Vec<(usize, String)> = slots
                        .iter()
                        .enumerate()
                        .filter(|(j, s)| *j != i && s.addr.is_some())
                        .map(|(j, s)| (j, s.addr.clone().unwrap_or_default()))
                        .collect();
                    for (j, a) in &peers {
                        send_line(&mut slots[i], &format!("PEER {j} {a}"));
                    }
                    send_line(&mut slots[i], "GO");
                    for (j, slot) in slots.iter_mut().enumerate() {
                        if j != i {
                            send_line(slot, &format!("PEER {i} {addr}"));
                        }
                    }
                }
            }
            Some("PROG") => {
                slots[i].prog = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            }
            Some("COMPLETE") => slots[i].complete = true,
            Some("LOG") => {
                let mut p = || it.next().and_then(|v| v.parse::<u64>().ok());
                match (p(), p(), p(), p()) {
                    (Some(src), Some(dst), Some(msg_id), Some(pkt)) => {
                        slots[i]
                            .log_lines
                            .push((src as usize, dst as usize, msg_id, pkt as u32));
                    }
                    _ => {
                        cleanup(&mut slots);
                        return Err(format!("swarm child {i}: malformed LOG line '{line}'"));
                    }
                }
            }
            Some("STATS") => {
                let raw = line.trim_start_matches("STATS ").to_string();
                slots[i].stats = json::parse(&raw).ok();
            }
            Some("DONE") => slots[i].done = true,
            _ => {
                cleanup(&mut slots);
                return Err(format!("swarm child {i}: unexpected line '{line}'"));
            }
        }
    }
    for s in slots.iter_mut() {
        let _ = s.child.wait();
    }

    // Aggregate the per-destination delivery logs (destinations are
    // partitioned over children, so keys never collide).
    let mut agg = DeliveryLog::new();
    for s in &slots {
        for &(src, dst, msg_id, pkt) in &s.log_lines {
            agg.entry((src, dst)).or_default().push((msg_id, pkt));
        }
    }
    let unique: u64 = slots.iter().map(|s| stat(s, "unique")).sum();
    let dups: u64 = slots.iter().map(|s| stat(s, "dups")).sum();
    let failures: u64 = slots.iter().map(|s| stat(s, "failures")).sum();
    let transport_errors: u64 = slots.iter().map(|s| stat(s, "transport_errors")).sum();
    let unroutable: u64 = slots.iter().map(|s| stat(s, "unroutable")).sum();
    let foreign: u64 = slots.iter().map(|s| stat(s, "foreign")).sum();
    let restarted_observed: u64 = slots.iter().map(|s| stat(s, "restarted_observed")).sum();
    let hygiene = failures == 0 && transport_errors == 0 && unroutable == 0 && foreign == 0;

    let (ok, verdict) = if opts.kill {
        let want: BTreeSet<(usize, usize, u64, u32)> = expected
            .iter()
            .flat_map(|(&(s, d), v)| v.iter().map(move |&(m, p)| (s, d, m, p)))
            .collect();
        let got: BTreeSet<(usize, usize, u64, u32)> = agg
            .iter()
            .flat_map(|(&(s, d), v)| v.iter().map(move |&(m, p)| (s, d, m, p)))
            .collect();
        let coverage = want == got;
        let victim_epoch = slots[victim].epoch == 1 && stat(&slots[victim], "epoch") == 1;
        let ok = coverage && victim_epoch && restarted_observed > 0 && hygiene;
        let verdict = if ok {
            format!(
                "node:swarm recovery OK: {} packets covered after killing process {victim} \
                 (epoch 1, {restarted_observed} restart observations, {dups} dups absorbed)",
                want.len()
            )
        } else {
            format!(
                "node:swarm recovery FAILED: coverage {coverage}, victim epoch ok {victim_epoch}, \
                 restarts observed {restarted_observed}, failures {failures}, \
                 transport errors {transport_errors}, unroutable {unroutable}, foreign {foreign}"
            )
        };
        (ok, verdict)
    } else {
        let sim = sim_reference(&plan);
        let parity = agg == sim && sim == expected;
        let ok = parity && dups == 0 && hygiene;
        let verdict = if ok {
            format!(
                "node:swarm parity OK: {} packets, delivery order byte-identical to the \
                 flit-level sim (seed {seed})",
                plan.total_packets()
            )
        } else {
            format!(
                "node:swarm parity FAILED: sim parity {parity}, dups {dups}, \
                 failures {failures}, transport errors {transport_errors}, \
                 unroutable {unroutable}, foreign {foreign}"
            )
        };
        (ok, verdict)
    };

    let mut table = Table::new(
        format!(
            "nifdy-node: swarm, {} procs x {} endpoints = {} nodes, {} workload ({}, seed {seed}{})",
            opts.procs,
            opts.per_proc,
            total,
            opts.workload.label(),
            if plan.want_bulk { "bulk" } else { "scalar" },
            if opts.kill { ", kill drill" } else { "" },
        ),
        vec![
            "proc".into(),
            "epoch".into(),
            "unique".into(),
            "dups".into(),
            "restarts seen".into(),
            "frames in".into(),
            "frames out".into(),
            "local".into(),
            "dropped down".into(),
            "refused".into(),
        ],
    );
    for (i, s) in slots.iter().enumerate() {
        table.row(vec![
            i.to_string(),
            stat(s, "epoch").to_string(),
            stat(s, "unique").to_string(),
            stat(s, "dups").to_string(),
            stat(s, "restarted_observed").to_string(),
            stat(s, "frames_in").to_string(),
            stat(s, "frames_out").to_string(),
            stat(s, "local_frames").to_string(),
            stat(s, "dropped_down").to_string(),
            stat(s, "refused").to_string(),
        ]);
    }

    let children = Json::Arr(
        slots
            .iter()
            .map(|s| s.stats.clone().unwrap_or(Json::obj([])))
            .collect(),
    );
    let json = Json::obj([
        ("experiment", Json::str("node:swarm")),
        ("seed", Json::u64(seed)),
        ("procs", Json::u64(opts.procs as u64)),
        ("per_proc", Json::u64(opts.per_proc as u64)),
        ("workload", Json::str(opts.workload.label())),
        ("kill", Json::u64(u64::from(opts.kill))),
        ("total_packets", Json::u64(plan.total_packets())),
        ("unique_delivered", Json::u64(unique)),
        ("duplicates", Json::u64(dups)),
        ("failures", Json::u64(failures)),
        ("transport_errors", Json::u64(transport_errors)),
        ("restarted_observed", Json::u64(restarted_observed)),
        ("ok", Json::u64(u64::from(ok))),
        ("children", children),
    ]);
    Ok(SwarmReport {
        table,
        verdict,
        ok,
        json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_scale_down() {
        let o = parse_opts(Scale::Smoke, &[]).expect("defaults parse");
        assert_eq!(o.nodes, 64);
        assert_eq!(o.procs, 4);
        assert!(o.bulk);
        let full = parse_opts(Scale::Full, &[]).expect("full defaults");
        assert_eq!(full.nodes, 1024);
        assert_eq!(full.per_proc, 64);
    }

    #[test]
    fn flags_override_defaults() {
        let o = parse_opts(
            Scale::Smoke,
            &s(&[
                "--procs=2",
                "--per-proc=8",
                "--workload=em3d",
                "--shards=3",
                "--scalar",
            ]),
        )
        .expect("flags parse");
        assert_eq!(o.procs, 2);
        assert_eq!(o.per_proc, 8);
        assert_eq!(o.workload, WorkloadKind::Em3d);
        assert_eq!(o.shards, 3);
        assert!(!o.bulk);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_opts(Scale::Smoke, &s(&["--bogus=1"])).is_err());
        assert!(parse_opts(Scale::Smoke, &s(&["--procs=1"])).is_err());
        assert!(parse_opts(Scale::Smoke, &s(&["--workload=mystery"])).is_err());
        assert!(parse_opts(Scale::Smoke, &s(&["--kill", "--workload=em3d"])).is_err());
        assert!(parse_opts(Scale::Smoke, &s(&["--messages"])).is_err());
    }

    #[test]
    fn kill_mode_forces_scalar_traffic() {
        let mut o = parse_opts(Scale::Smoke, &s(&["--kill"])).expect("kill parses");
        o.bulk = true;
        let plan = build_plan(&o, Scale::Smoke, 1, 8);
        assert!(
            !plan.want_bulk,
            "crash recovery is defined for scalar flows"
        );
        o.kill = false;
        let plan = build_plan(&o, Scale::Smoke, 1, 8);
        assert!(plan.want_bulk);
    }

    #[test]
    fn em3d_swarm_plan_is_small_but_nonempty() {
        let o = parse_opts(
            Scale::Smoke,
            &s(&["--workload=em3d", "--procs=2", "--per-proc=4"]),
        )
        .expect("em3d parses");
        let plan = build_plan(&o, Scale::Smoke, 3, 8);
        assert!(plan.total_packets() > 0);
        assert!(plan.total_packets() < 10_000, "smoke plan stays small");
    }

    #[test]
    fn serve_smoke_reports_throughput_and_order() {
        let outcome = run_serve(
            Scale::Smoke,
            2,
            &s(&["--nodes=12", "--shards=4", "--messages=1", "--packets=2"]),
        )
        .expect("serve runs");
        let ServeOutcome::Report(r) = outcome else {
            panic!("not a child run");
        };
        assert!(r.order_ok, "delivery order matches the plan");
        assert!(r.frames_per_sec > 0.0);
        assert!(r.ok());
    }
}
