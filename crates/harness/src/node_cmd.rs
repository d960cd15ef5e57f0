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
//! A line either side cannot parse is an error naming its sender and quoting
//! it. A child exits when its stdin closes; the parent reaps every child.
//!
//! All node-specific flags use `--key=value` form so the binary's global
//! argument parser can forward them opaquely, and the swarm parent hands
//! its own to every child unchanged.

#![expect(
    clippy::disallowed_types,
    reason = "orchestrates real child processes and UDP sockets: wall-clock deadlines bound \
              handshakes and run phases and are reported as throughput, never fed into \
              simulated time"
)]

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    if o.per_proc < 1 || o.shards < 1 || o.batch < 1 || o.packets < 1 || o.messages < 1 {
        return Err("--per-proc/--shards/--batch/--messages/--packets must be positive".into());
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
    /// The run passed its [`gate`]: the plan's delivery order, and with
    /// `--parity` the flit-level simulator's.
    pub ok: bool,
    /// Endpoint-frames demultiplexed per wall second.
    pub frames_per_sec: f64,
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
    let opts = parse_opts(scale, extra)?;
    if opts.swarm_child {
        swarm_child(scale, seed, &opts)?;
        return Ok(ServeOutcome::Child);
    }
    let plan = build_plan(&opts, scale, seed, opts.nodes);
    let cfg = NodeConfig::default()
        .with_shards(opts.shards)
        .with_batch(opts.batch);
    let start = Instant::now();
    let mut set = DaemonSet::new(plan.nodes, 1, &cfg);
    let served = run(&mut set, &plan, 0, MAX_TICKS);
    let millis = start.elapsed().as_millis().max(1);
    let failures = [Json::obj([("failures", Json::u64(served.failure_total()))])];
    let mode = Mode::Serve { sim: opts.parity };
    let (ok, verdict) = gate(&plan, &served.log, mode, &failures);
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
        verdict,
    ]);
    let columns = ["shard", "frames in", "frames out", "delivered", "failures"];
    let mut shards = Table::new("per-shard breakdown", columns.map(String::from).into());
    for (i, s) in stats.shards.iter().enumerate() {
        let counts = [i as u64, s.frames_in, s.frames_out, s.delivered, s.failures];
        shards.row(counts.map(|n| n.to_string()).into());
    }
    Ok(ServeOutcome::Report(Box::new(ServeReport {
        summary,
        shards,
        ok,
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

/// A command from the swarm parent.
#[derive(Debug, PartialEq)]
enum Cmd {
    Peer(NodeId, SocketAddr),
    Go,
    Stop,
}

/// The parent's next command, if one arrives within `wait`. A line that is
/// no command, and stdin EOF, end the child with an error: a child never
/// outlives its parent's pipe.
fn command(rx: &mpsc::Receiver<String>, wait: Duration) -> Result<Option<Cmd>, String> {
    let line = match rx.recv_timeout(wait) {
        Ok(line) => line,
        Err(mpsc::RecvTimeoutError::Timeout) => return Ok(None),
        Err(mpsc::RecvTimeoutError::Disconnected) => return Err("swarm parent hung up".into()),
    };
    let peer = |p: &str, a: &str| Some(Cmd::Peer(NodeId::new(p.parse().ok()?), a.parse().ok()?));
    let cmd = match line.split(' ').collect::<Vec<_>>()[..] {
        ["GO"] => Some(Cmd::Go),
        ["STOP"] => Some(Cmd::Stop),
        ["PEER", proc, addr] => peer(proc, addr),
        _ => None,
    };
    cmd.map(Some)
        .ok_or_else(|| format!("swarm parent sent a malformed line '{line}'"))
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

    // Adaptive RTO, with a budget generous enough that a kill-mode outage
    // (thousands of fast poll rounds) is absorbed as retransmissions, never
    // surfacing a typed failure. Heartbeats every 256 rounds; the silence
    // timeout is far beyond any scheduling hiccup because restart detection
    // is epoch-driven (a spurious `Down` would only be noise).
    let protocol = NodeConfig::default().protocol.with_adaptive_rto(true);
    let protocol = match opts.kill {
        true => protocol.with_retx_timeout(256).with_retx_budget(10_000),
        false => protocol.with_retx_timeout(5_000),
    };
    let liveness = SupervisorConfig::default().with_heartbeat_every(256);
    let cfg = NodeConfig::default()
        .with_shards(opts.shards)
        .with_batch(opts.batch)
        .with_protocol(protocol)
        .with_supervisor(liveness.with_peer_timeout(1_000_000))
        .with_initial_epoch(opts.epoch);
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
        let mut lines = std::io::stdin().lines().map_while(Result::ok);
        let _ = lines.try_for_each(|line| tx.send(line));
    });

    emit(&format!("PORT {addr}"));
    let go_by = Instant::now() + Duration::from_secs(60);
    loop {
        match command(&rx, Duration::from_millis(50))? {
            Some(Cmd::Go) => break,
            Some(Cmd::Stop) => return Ok(()),
            Some(Cmd::Peer(proc, addr)) => node.carrier_mut(c0).add_peer(proc, addr),
            None if Instant::now() > go_by => return Err("no GO from the swarm parent".into()),
            None => {}
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
    let deadline = Instant::now() + Duration::from_secs(180);

    loop {
        if Instant::now() > deadline {
            return Err(format!(
                "swarm child {me} timed out at {}/{expected_in} packets",
                seen.len()
            ));
        }
        match command(&rx, Duration::ZERO)? {
            Some(Cmd::Stop) => break,
            Some(Cmd::Peer(proc, addr)) => node.carrier_mut(c0).add_peer(proc, addr),
            Some(Cmd::Go) | None => {}
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
        for ev in node.take_peer_events() {
            if let PeerEvent::Restarted { peer, .. } = ev {
                restarted_observed += 1;
                // A beacon names its daemon by carrier address: the process index.
                let kproc = peer.index();
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
        ("heartbeats_out", Json::u64(stats.heartbeats_out)),
        ("heartbeats_in", Json::u64(stats.heartbeats_in)),
        ("local_frames", Json::u64(stats.local_frames)),
        ("unroutable", Json::u64(stats.unroutable)),
        ("foreign", Json::u64(stats.foreign)),
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

/// What the parent heard from one child incarnation on its stdout.
#[derive(Debug, Default)]
struct Heard {
    addr: Option<SocketAddr>,
    prog: u64,
    complete: bool,
    /// Its `LOG` lines, whole, unparsed until [`gather`].
    log: Vec<String>,
    /// Its `STATS` line's JSON.
    stats: Option<String>,
    done: bool,
}

impl Heard {
    /// Takes in one line child `proc` printed. A line that is not one of
    /// the protocol's is an error naming the child and quoting the line.
    fn hear(&mut self, proc: usize, line: &str) -> Result<(), String> {
        let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
        let bad = || format!("swarm child {proc} sent a malformed line '{line}'");
        match word {
            "PORT" => self.addr = Some(rest.parse().map_err(|_| bad())?),
            "PROG" => self.prog = rest.parse().map_err(|_| bad())?,
            "COMPLETE" => self.complete = true,
            "LOG" => self.log.push(line.to_string()),
            "STATS" => self.stats = Some(rest.to_string()),
            "DONE" => self.done = true,
            _ => return Err(bad()),
        }
        Ok(())
    }
}

/// Every counter the parent reads from a child's `STATS` line, with its
/// column in the per-process table. A counter with no column counts errors:
/// the [`gate`] requires its sum to be zero.
const COUNTERS: [(&str, Option<&str>); 14] = [
    ("epoch", Some("epoch")),
    ("unique", Some("unique")),
    ("dups", Some("dups")),
    ("restarted_observed", Some("restarts seen")),
    ("frames_in", Some("frames in")),
    ("frames_out", Some("frames out")),
    ("heartbeats_in", Some("beacons in")),
    ("heartbeats_out", Some("beacons out")),
    ("local_frames", Some("local")),
    ("refused", Some("refused")),
    ("failures", None),
    ("transport_errors", None),
    ("unroutable", None),
    ("foreign", None),
];

/// `LOG <src> <dst> <msg_id> <pkt>`, each field within its type's range.
fn parse_log(line: &str) -> Option<(usize, usize, u64, u32)> {
    let mut it = line.strip_prefix("LOG ")?.split_whitespace();
    let mut next = || it.next();
    let entry = (
        next()?.parse().ok()?,
        next()?.parse().ok()?,
        next()?.parse().ok()?,
        next()?.parse().ok()?,
    );
    next().is_none().then_some(entry)
}

/// Merges what every child printed: the per-destination delivery log
/// (destinations are partitioned over children, so keys never collide) and
/// each child's `STATS` object. A missing or unparsable `STATS` line, a
/// counter of [`COUNTERS`] missing from it, or a malformed `LOG` line is
/// an error naming the child: a child that cannot be read is never clean.
fn gather<'a>(
    from: impl IntoIterator<Item = &'a Heard>,
) -> Result<(DeliveryLog, Vec<Json>), String> {
    let mut log = DeliveryLog::new();
    let mut stats = Vec::new();
    for (i, child) in from.into_iter().enumerate() {
        for line in &child.log {
            let (src, dst, msg, pkt) = parse_log(line)
                .ok_or_else(|| format!("swarm child {i}: malformed LOG line '{line}'"))?;
            log.entry((src, dst)).or_default().push((msg, pkt));
        }
        let raw = child.stats.as_deref();
        let raw = raw.ok_or_else(|| format!("swarm child {i} sent no STATS line"))?;
        let json =
            json::parse(raw).map_err(|e| format!("swarm child {i}: unparsable STATS ({e:?})"))?;
        for (key, _) in COUNTERS {
            if json.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("swarm child {i}: STATS has no counter '{key}'"));
            }
        }
        stats.push(json);
    }
    Ok((log, stats))
}

/// A child's counter `key`; [`gather`] checked that every [`COUNTERS`]
/// counter is there.
fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Counter `key` summed over every child.
fn summed(children: &[Json], key: &str) -> u64 {
    children.iter().map(|c| stat(c, key)).sum()
}

/// What a run's merged delivery log is held to.
enum Mode {
    /// `node:serve`: the plan's order, and with `sim` the simulator's.
    Serve { sim: bool },
    /// A clean swarm: the plan's and the simulator's order, no duplicate.
    Parity,
    /// The `--kill` drill: every planned packet delivered, child `victim`
    /// back at epoch 1, and its restart observed.
    Recovery { victim: usize },
}

/// The one gate of both commands: `mode`'s checks over the merged `log` and
/// the children's counters, and a verdict that names every failed check.
fn gate(plan: &SwarmPlan, log: &DeliveryLog, mode: Mode, children: &[Json]) -> (bool, String) {
    let count = |key: &str| summed(children, key);
    let mut failed: Vec<String> = COUNTERS
        .iter()
        .filter(|&&(key, column)| column.is_none() && count(key) > 0)
        .map(|(key, _)| format!("{} {}", key.replace('_', " "), count(key)))
        .collect();
    let mut check = |ok: bool, what: &str| failed.extend((!ok).then(|| what.to_string()));
    let (expected, dups) = (plan.expected_log(), count("dups"));
    let sim = matches!(mode, Mode::Serve { sim: true } | Mode::Parity);
    let in_order = matches!(mode, Mode::Recovery { .. }) || *log == expected;
    check(in_order, "plan order");
    check(!sim || *log == sim_reference(plan), "sim parity");
    let (pass, fail) = match mode {
        Mode::Serve { .. } => (if sim { "plan+sim" } else { "plan" }.into(), "DIVERGED"),
        Mode::Parity => {
            check(dups == 0, &format!("dups {dups}"));
            let pass = format!(
                "node:swarm parity OK: {} packets, delivery order byte-identical to the \
                 flit-level sim (seed {})",
                plan.total_packets(),
                plan.seed
            );
            (pass, "node:swarm parity FAILED")
        }
        Mode::Recovery { victim } => {
            let sets = |log: &DeliveryLog| -> Vec<_> {
                let set = |v: &Vec<_>| v.iter().copied().collect::<BTreeSet<(u64, u32)>>();
                log.iter().map(|(pair, v)| (*pair, set(v))).collect()
            };
            let epoch = stat(&children[victim], "epoch");
            let restarts = count("restarted_observed");
            check(sets(log) == sets(&expected), "coverage");
            check(epoch == 1, &format!("victim epoch {epoch}"));
            check(restarts > 0, "restarts observed 0");
            let pass = format!(
                "node:swarm recovery OK: {} packets covered after killing process {victim} \
                 (epoch 1, {restarts} restart observations, {dups} dups absorbed)",
                plan.total_packets()
            );
            (pass, "node:swarm recovery FAILED")
        }
    };
    match failed.is_empty() {
        true => (true, pass),
        false => (false, format!("{fail}: {}", failed.join(", "))),
    }
}

/// Swarm child `proc`'s node flags: the parent's own, forwarded as given,
/// then the three that make it a child — last, so they win.
fn child_args(extra: &[String], proc: usize, epoch: u32) -> Vec<String> {
    let mut args = extra.to_vec();
    args.push("--swarm-child".into());
    args.push(format!("--proc={proc}"));
    args.push(format!("--epoch={epoch}"));
    args
}

/// One child incarnation. Dropping it kills and reaps the process.
struct Slot {
    child: Child,
    stdin: ChildStdin,
    /// Incarnation: lines an earlier one printed are stale.
    gen: u64,
    /// `GO` sent.
    started: bool,
    heard: Heard,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The swarm parent's children and the one channel their stdout arrives
/// on. Every child starts through [`Swarm::start`], and none outlives the
/// swarm: each [`Slot`] kills and reaps its process when dropped, on every
/// exit path of the parent, errors and panics included.
struct Swarm {
    /// `node:serve`, the parent's seed and scale, then its node flags.
    args: Vec<String>,
    slots: Vec<Slot>,
    /// Stdout lines by slot and incarnation, `None` at a child's EOF.
    tx: mpsc::Sender<(usize, u64, Option<String>)>,
    rx: mpsc::Receiver<(usize, u64, Option<String>)>,
}

impl Swarm {
    /// Starts child `proc` at `epoch`, replacing (so killing) the
    /// incarnation in its slot, if any.
    fn start(&mut self, proc: usize, epoch: u32) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(child_args(&self.args, proc, epoch))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn swarm child {proc}: {e}"))?;
        let stdout = child.stdout.take().ok_or("child stdout unavailable")?;
        let stdin = child.stdin.take().ok_or("child stdin unavailable")?;
        let gen = self.slots.get(proc).map_or(0, |s| s.gen + 1);
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines().map_while(Result::ok);
            let _ = lines.try_for_each(|l| tx.send((proc, gen, Some(l))));
            let _ = tx.send((proc, gen, None));
        });
        let slot = Slot {
            child,
            stdin,
            gen,
            started: false,
            heard: Heard::default(),
        };
        match self.slots.get_mut(proc) {
            Some(old) => *old = slot,
            None => self.slots.push(slot),
        }
        Ok(())
    }

    fn send(&mut self, proc: usize, line: &str) {
        // A write failure means the child died; the event loop will see the
        // EOF and report it with context, so the error is not lost here.
        let stdin = &mut self.slots[proc].stdin;
        let _ = writeln!(stdin, "{line}").and_then(|()| stdin.flush());
    }

    /// Introduces child `proc`, whose `PORT` just arrived, to every child
    /// whose address is known and each of them to it; then, once every
    /// address is known, sends `GO` to every child not yet started.
    fn introduce(&mut self, proc: usize) {
        let addrs: Vec<_> = self.slots.iter().map(|s| s.heard.addr).collect();
        for (j, addr) in addrs.iter().enumerate() {
            if let (Some(peer), Some(new), true) = (addr, addrs[proc], j != proc) {
                self.send(proc, &format!("PEER {j} {peer}"));
                self.send(j, &format!("PEER {proc} {new}"));
            }
        }
        for j in 0..self.slots.len() {
            if addrs.iter().all(Option::is_some) && !self.slots[j].started {
                self.slots[j].started = true;
                self.send(j, "GO");
            }
        }
    }
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

/// Runs the multi-process swarm; see the module docs for the protocol and
/// the clean-mode (order parity) vs `--kill` (completeness + recovery)
/// gates.
pub fn run_swarm(scale: Scale, seed: u64, extra: &[String]) -> Result<SwarmReport, String> {
    let opts = parse_opts(scale, extra)?;
    if opts.procs < 2 {
        return Err("--procs must be at least 2".into());
    }
    if opts.kill && opts.workload != WorkloadKind::Rotation {
        return Err("node:swarm --kill supports --workload=rotation only".into());
    }
    let total = opts.procs * opts.per_proc;
    let plan = build_plan(&opts, scale, seed, total);
    let victim = opts.procs - 1;
    let serve = ["node:serve", "--seed", &seed.to_string(), scale_flag(scale)].map(String::from);
    let args = [&serve[..], extra].concat();
    let (tx, rx) = mpsc::channel();
    let slots = Vec::with_capacity(opts.procs);
    let mut swarm = Swarm {
        args,
        slots,
        tx,
        rx,
    };
    for i in 0..opts.procs {
        swarm.start(i, 0)?;
    }

    let (mut killed, mut stopping) = (false, false);
    let deadline = Instant::now() + Duration::from_secs(240);
    loop {
        if Instant::now() > deadline {
            return Err("swarm parent timed out".into());
        }
        // Kill-one-process recovery drill: once the victim shows progress,
        // SIGKILL it and respawn the same slice with the next epoch.
        let shown = &swarm.slots[victim].heard;
        if opts.kill && !killed && (shown.prog >= 1 || shown.complete) {
            killed = true;
            swarm.start(victim, 1)?;
        }
        let complete = swarm.slots.iter().all(|s| s.heard.complete);
        if !stopping && complete && (!opts.kill || killed) {
            stopping = true;
            (0..opts.procs).for_each(|i| swarm.send(i, "STOP"));
        }
        if stopping && swarm.slots.iter().all(|s| s.heard.done) {
            break;
        }
        let Ok((i, gen, line)) = swarm.rx.recv_timeout(Duration::from_millis(50)) else {
            continue; // the swarm holds a sender, so this is a timeout
        };
        if gen != swarm.slots[i].gen {
            continue; // stale line from a killed incarnation
        }
        match line {
            Some(line) => {
                swarm.slots[i].heard.hear(i, &line)?;
                if line.starts_with("PORT") {
                    swarm.introduce(i);
                }
            }
            None if swarm.slots[i].heard.done => {}
            None => return Err(format!("swarm child {i} exited unexpectedly")),
        }
    }

    let (log, stats) = gather(swarm.slots.iter().map(|s| &s.heard))?;
    let mode = match opts.kill {
        true => Mode::Recovery { victim },
        false => Mode::Parity,
    };
    let (ok, verdict) = gate(&plan, &log, mode, &stats);

    let columns = COUNTERS
        .iter()
        .filter_map(|&(key, column)| Some((key, column?)));
    let headers = std::iter::once("proc").chain(columns.clone().map(|(_, column)| column));
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
        headers.map(String::from).collect(),
    );
    for (i, s) in stats.iter().enumerate() {
        let counts = columns.clone().map(|(key, _)| stat(s, key).to_string());
        table.row(std::iter::once(i.to_string()).chain(counts).collect());
    }

    let sum = |key| Json::u64(summed(&stats, key));
    let json = Json::obj([
        ("experiment", Json::str("node:swarm")),
        ("seed", Json::u64(seed)),
        ("procs", Json::u64(opts.procs as u64)),
        ("per_proc", Json::u64(opts.per_proc as u64)),
        ("workload", Json::str(opts.workload.label())),
        ("kill", Json::u64(u64::from(opts.kill))),
        ("total_packets", Json::u64(plan.total_packets())),
        ("unique_delivered", sum("unique")),
        ("duplicates", sum("dups")),
        ("failures", sum("failures")),
        ("transport_errors", sum("transport_errors")),
        ("restarted_observed", sum("restarted_observed")),
        ("ok", Json::u64(u64::from(ok))),
        ("children", Json::Arr(stats)),
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
        assert!(parse_opts(Scale::Smoke, &s(&["--workload=mystery"])).is_err());
        assert!(parse_opts(Scale::Smoke, &s(&["--messages"])).is_err());
    }

    #[test]
    fn swarm_only_checks_run_in_the_swarm_parent() {
        for (flags, why) in [
            (&["--procs=1"][..], "--procs must be at least 2"),
            (&["--kill", "--workload=em3d"][..], "rotation only"),
        ] {
            assert!(parse_opts(Scale::Smoke, &s(flags)).is_ok(), "{flags:?}");
            let err = run_swarm(Scale::Smoke, 1, &s(flags)).expect_err("rejected before spawning");
            assert!(err.contains(why), "{flags:?}: {err}");
        }
    }

    #[test]
    fn a_child_parses_the_parents_options() {
        let extra = s(&[
            "--procs=3",
            "--per-proc=5",
            "--nodes=10",
            "--messages=2",
            "--packets=3",
            "--shards=2",
            "--batch=16",
            "--scalar",
            "--kill",
            "--parity",
            "--proc=7",
            "--epoch=9",
        ]);
        let parent = parse_opts(Scale::Smoke, &extra).expect("parent parses");
        let child = parse_opts(Scale::Smoke, &child_args(&extra, 2, 1)).expect("child parses");
        assert!(child.swarm_child);
        assert_eq!((child.proc, child.epoch), (2, 1), "the child flags win");
        let child = NodeOpts {
            swarm_child: parent.swarm_child,
            proc: parent.proc,
            epoch: parent.epoch,
            ..child
        };
        assert_eq!(child, parent);
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

    fn dump(log: &[&str], stats: Option<&str>) -> Heard {
        Heard {
            log: s(log),
            stats: stats.map(str::to_string),
            ..Heard::default()
        }
    }

    /// A `STATS` object with every counter the parent reads: `epoch` and
    /// `restarted_observed` as given, every other counter 0.
    fn counters(epoch: u64, restarts: u64) -> Json {
        Json::obj(COUNTERS.map(|(key, _)| {
            let n = match key {
                "epoch" => epoch,
                "restarted_observed" => restarts,
                _ => 0,
            };
            (key, Json::u64(n))
        }))
    }

    fn clean_stats() -> String {
        counters(0, 0).render()
    }

    #[test]
    fn gather_merges_clean_children() {
        let good = clean_stats();
        let (log, stats) = gather(&[
            dump(&["LOG 1 0 7 0", "LOG 1 0 7 1"], Some(&good)),
            dump(&["LOG 0 1 9 0"], Some(&good)),
        ])
        .expect("clean reports gather");
        assert_eq!(log[&(1, 0)], vec![(7, 0), (7, 1)]);
        assert_eq!(log[&(0, 1)], vec![(9, 0)]);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn a_child_that_cannot_be_read_is_a_run_error() {
        let good = clean_stats();
        let missing_key = good.replacen("\"foreign\"", "\"foreign_\"", 1);
        for (bad, why) in [
            (dump(&[], None), "no STATS line"),
            (dump(&[], Some("{\"unique\": 1")), "unparsable STATS"),
            (dump(&[], Some(&missing_key)), "no counter 'foreign'"),
            (
                dump(&["LOG 1 0 7 4294967296"], Some(&good)),
                "malformed LOG",
            ),
            (dump(&["LOG 1 0 7"], Some(&good)), "malformed LOG"),
        ] {
            let err = gather(&[dump(&[], Some(&good)), bad]).expect_err(why);
            assert!(err.contains("swarm child 1") && err.contains(why), "{err}");
        }
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
        assert!(r.ok, "delivery order matches the plan");
        assert!(r.frames_per_sec > 0.0);
        assert_eq!(r.summary.rows[0].last().map(String::as_str), Some("plan"));
    }

    #[test]
    fn a_malformed_child_line_is_an_error_naming_the_child() {
        let mut heard = Heard::default();
        heard.hear(3, "PORT 127.0.0.1:9").expect("an address");
        heard.hear(3, "PROG 4").expect("a count");
        assert_eq!((heard.addr.map(|a| a.port()), heard.prog), (Some(9), 4));
        for line in [
            "PORT",
            "PORT ",
            "PORT nowhere",
            "PROG",
            "PROG x",
            "PROG 1 2",
            "HELLO",
        ] {
            let err = Heard::default().hear(3, line).expect_err(line);
            assert!(
                err.contains("swarm child 3") && err.contains(&format!("'{line}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_child_takes_only_the_parents_commands_and_exits_at_eof() {
        let (tx, rx) = mpsc::channel::<String>();
        let next = |line: &str| {
            tx.send(line.to_string()).expect("receiver alive");
            command(&rx, Duration::ZERO)
        };
        let peer = next("PEER 1 127.0.0.1:9").expect("a peer");
        let want = Cmd::Peer(NodeId::new(1), "127.0.0.1:9".parse().expect("addr"));
        assert_eq!(peer, Some(want));
        assert_eq!(next("GO"), Ok(Some(Cmd::Go)));
        assert_eq!(next("STOP"), Ok(Some(Cmd::Stop)));
        for line in [
            "PEER 1",
            "PEER x 127.0.0.1:9",
            "PEER 1 nowhere",
            "GO now",
            "HELLO",
            "",
        ] {
            let err = next(line).expect_err(line);
            assert!(
                err.contains("swarm parent") && err.contains(&format!("'{line}'")),
                "{err}"
            );
        }
        assert_eq!(command(&rx, Duration::ZERO), Ok(None), "nothing sent yet");
        drop(tx);
        let err = command(&rx, Duration::ZERO).expect_err("stdin closed");
        assert!(err.contains("hung up"), "{err}");
    }

    /// A rotation over 8 nodes, two scalar packets per pair, and the
    /// counters of its two children: clean, the second back at epoch 1
    /// after one observed restart.
    fn gate_inputs() -> (SwarmPlan, Vec<Json>) {
        let plan = SwarmPlan::rotation(8, 1, 2, SIZE_WORDS, false, 1);
        (plan, vec![counters(0, 1), counters(1, 0)])
    }

    #[test]
    fn a_log_equal_to_the_plan_passes_every_gate() {
        let (plan, children) = gate_inputs();
        let log = plan.expected_log();
        for (mode, verdict) in [
            (Mode::Parity, "node:swarm parity OK: 16 packets"),
            (
                Mode::Recovery { victim: 1 },
                "node:swarm recovery OK: 16 packets",
            ),
            (Mode::Serve { sim: true }, "plan+sim"),
            (Mode::Serve { sim: false }, "plan"),
        ] {
            let (ok, got) = gate(&plan, &log, mode, &children);
            assert!(ok && got.starts_with(verdict), "{got}");
        }
    }

    #[test]
    fn the_clean_gate_fails_a_dropped_repeated_or_swapped_delivery() {
        let (plan, children) = gate_inputs();
        for case in ["dropped", "repeated", "swapped"] {
            let mut log = plan.expected_log();
            let order = log.get_mut(&(3, 5)).expect("pair 3 -> 5 is planned");
            match case {
                "dropped" => order.truncate(1),
                "repeated" => order.push(order[0]),
                _ => order.swap(0, 1),
            }
            let (ok, verdict) = gate(&plan, &log, Mode::Parity, &children);
            assert!(!ok, "{case}: {verdict}");
            assert!(
                verdict.starts_with("node:swarm parity FAILED: plan order"),
                "{verdict}"
            );
        }
    }

    #[test]
    fn the_kill_gate_fails_a_missing_packet_and_names_error_counters() {
        let (plan, mut children) = gate_inputs();
        let mut log = plan.expected_log();
        log.get_mut(&(3, 5)).expect("pair 3 -> 5 is planned").pop();
        let (ok, verdict) = gate(&plan, &log, Mode::Recovery { victim: 1 }, &children);
        assert!(!ok);
        assert_eq!(verdict, "node:swarm recovery FAILED: coverage");
        let Json::Obj(first) = &mut children[0] else {
            panic!("counters are an object")
        };
        first.insert("transport_errors".into(), Json::u64(2));
        let (ok, verdict) = gate(&plan, &plan.expected_log(), Mode::Parity, &children);
        assert!(!ok);
        assert_eq!(verdict, "node:swarm parity FAILED: transport errors 2");
    }
}
