//! Ring-buffered flight recorder and the shareable [`TraceHandle`].
//!
//! Each simulation replica is single-threaded and cycle-synchronous, but
//! whole replicas are fanned out across worker threads by the parallel
//! experiment executor, so the recorder is shared as `Arc<Mutex<_>>`:
//! within one replica the lock is never contended (one thread), and the
//! handle — like every other piece of the replica — is `Send`, which is
//! what lets a fully assembled `Driver` be moved onto a worker thread.
//! Every instrumented component holds a cheap [`TraceHandle`] clone; a
//! detached handle's [`is_enabled`](TraceHandle::is_enabled) is `false`, so
//! the `trace_event!` macro never evaluates the event payload expression.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use nifdy_sim::{Cycle, NodeId};

use crate::event::{EventKind, TraceEvent};

/// Bounds and sampling for a recording session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity per node; the oldest events are evicted first. The
    /// flight-recorder dump on a watchdog trip shows at most this many
    /// events for the wedged node.
    pub capacity_per_node: usize,
    /// Record every `sample_every`-th *frequent* event per node (sends, OPT
    /// churn, deliveries, RTT samples). Rare events — drops, retransmits,
    /// dialog lifecycle, failures, watchdog fires — always record, so loss
    /// accounting stays exact under sampling. `1` records everything;
    /// `u64::MAX` suppresses all frequent events (the overhead-guard
    /// configuration).
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity_per_node: 4096,
            sample_every: 1,
        }
    }
}

impl TraceConfig {
    /// Default bounds: 4096 events per node, no sampling.
    pub fn new() -> Self {
        TraceConfig::default()
    }

    /// Sets the per-node ring capacity.
    pub fn with_capacity_per_node(mut self, cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        self.capacity_per_node = cap;
        self
    }

    /// Sets the sampling stride for frequent events.
    pub fn with_sample_every(mut self, stride: u64) -> Self {
        assert!(stride > 0, "sampling stride must be positive");
        self.sample_every = stride;
        self
    }
}

/// Per-node loss accounting for a recording session.
///
/// The rings are bounded, so a long run can silently shed history: the
/// oldest events are evicted once a node's ring fills, and frequent events
/// are skipped by the sampling stride. Both losses are counted **per node**
/// here so consumers — the exporters and the journey analyzer — can tell
/// exactly which nodes' histories are trustworthy instead of discovering a
/// gap as a stitching failure. A journey touching a node with evictions is
/// *incomplete*, never silently wrong.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLoss {
    /// Events evicted by the ring bound, indexed by node.
    pub evicted: Vec<u64>,
    /// Frequent events skipped by the sampling stride, indexed by node.
    pub sampled_out: Vec<u64>,
}

impl TraceLoss {
    /// Total evicted events across all nodes.
    pub fn evicted_total(&self) -> u64 {
        self.evicted.iter().sum()
    }

    /// Total sampled-out frequent events across all nodes.
    pub fn sampled_out_total(&self) -> u64 {
        self.sampled_out.iter().sum()
    }

    /// True when every recorded event was retained: nothing evicted,
    /// nothing sampled out. Only then can event-counting invariants
    /// (journeys = deliveries) be checked exactly.
    pub fn is_lossless(&self) -> bool {
        self.evicted_total() == 0 && self.sampled_out_total() == 0
    }

    /// Nodes whose rings evicted at least one event — the nodes whose
    /// journeys must be flagged incomplete.
    pub fn lossy_nodes(&self) -> Vec<usize> {
        self.evicted
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-node ring state.
#[derive(Debug, Default)]
struct NodeRing {
    ring: VecDeque<TraceEvent>,
    /// Frequent events offered to this ring so far (sampling clock).
    frequent_seen: u64,
    /// Events evicted from the ring after it filled.
    evicted: u64,
    /// Frequent events skipped by the sampling stride.
    sampled_out: u64,
}

/// The event store: one bounded ring per node plus global ordering state.
#[derive(Debug)]
pub struct Recorder {
    cfg: TraceConfig,
    nodes: Vec<NodeRing>,
    next_seq: u64,
}

impl Recorder {
    /// Creates a recorder with the given bounds.
    pub fn new(cfg: TraceConfig) -> Self {
        Recorder {
            cfg,
            nodes: Vec::new(),
            next_seq: 0,
        }
    }

    fn ring_mut(&mut self, node: NodeId) -> &mut NodeRing {
        let idx = node.index();
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, NodeRing::default);
        }
        &mut self.nodes[idx]
    }

    /// Records one event, honoring sampling (frequent kinds only) and the
    /// per-node ring bound.
    pub fn record(&mut self, at: Cycle, node: NodeId, kind: EventKind) {
        let stride = self.cfg.sample_every;
        let cap = self.cfg.capacity_per_node;
        let seq = self.next_seq;
        let ring = self.ring_mut(node);
        if !kind.is_rare() {
            let tick = ring.frequent_seen;
            ring.frequent_seen += 1;
            if !tick.is_multiple_of(stride) {
                ring.sampled_out += 1;
                return;
            }
        }
        self.next_seq += 1;
        let ring = &mut self.nodes[node.index()];
        if ring.ring.len() == cap {
            ring.ring.pop_front();
            ring.evicted += 1;
        }
        ring.ring.push_back(TraceEvent {
            seq,
            at,
            node,
            kind,
        });
    }

    /// Total events currently held across all rings.
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|n| n.ring.len()).sum()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by ring bounds, across all nodes.
    pub fn evicted(&self) -> u64 {
        self.nodes.iter().map(|n| n.evicted).sum()
    }

    /// Frequent events skipped by the sampling stride, across all nodes.
    pub fn sampled_out(&self) -> u64 {
        self.nodes.iter().map(|n| n.sampled_out).sum()
    }

    /// Per-node loss accounting (evictions and sampling skips).
    pub fn loss(&self) -> TraceLoss {
        TraceLoss {
            evicted: self.nodes.iter().map(|n| n.evicted).collect(),
            sampled_out: self.nodes.iter().map(|n| n.sampled_out).collect(),
        }
    }

    /// All retained events merged into one global time order (cycle, then
    /// record sequence as the same-cycle tiebreak).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .nodes
            .iter()
            .flat_map(|n| n.ring.iter().copied())
            .collect();
        out.sort_by_key(|e| (e.at.as_u64(), e.seq));
        out
    }

    /// The last up-to-`n` events retained for `node`, oldest first — the
    /// flight-recorder dump for a wedged unit.
    pub fn last_events(&self, node: NodeId, n: usize) -> Vec<TraceEvent> {
        match self.nodes.get(node.index()) {
            None => Vec::new(),
            Some(ring) => {
                let skip = ring.ring.len().saturating_sub(n);
                ring.ring.iter().skip(skip).copied().collect()
            }
        }
    }
}

/// A cheap, cloneable handle to a shared [`Recorder`] — or to nothing.
///
/// Instrumented components store one of these and call it through the
/// [`trace_event!`](crate::trace_event) macro. Two states:
///
/// * [`TraceHandle::off`]: detached (`is_enabled()` is `false`, one branch
///   per call site, and the event payload is never evaluated),
/// * [`TraceHandle::recording`]: connected to a live recorder.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Mutex<Recorder>>>,
}

/// Locks the shared recorder. A poisoned lock means a replica thread
/// panicked mid-record; the recorder state is still consistent (every
/// mutation is a single push/pop), so recover the guard rather than
/// cascading the panic into unrelated replicas.
fn lock(rec: &Arc<Mutex<Recorder>>) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl TraceHandle {
    /// A detached handle: every record call is a cheap no-op.
    pub fn off() -> Self {
        TraceHandle::default()
    }

    /// A handle connected to a fresh recorder with the given bounds.
    /// Clones share the same recorder.
    pub fn recording(cfg: TraceConfig) -> Self {
        TraceHandle {
            inner: Some(Arc::new(Mutex::new(Recorder::new(cfg)))),
        }
    }

    /// Whether events will actually be stored: `false` on a detached
    /// handle, which makes `trace_event!` skip its payload.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the recorder, or returns `T::default()` when detached.
    fn read<T: Default>(&self, f: impl FnOnce(&Recorder) -> T) -> T {
        self.inner
            .as_ref()
            .map(|rec| f(&lock(rec)))
            .unwrap_or_default()
    }

    /// Records one event. Call through [`trace_event!`](crate::trace_event)
    /// so detached handles skip evaluating the event payload entirely.
    #[inline]
    pub fn record(&self, at: Cycle, node: NodeId, kind: EventKind) {
        if let Some(rec) = &self.inner {
            lock(rec).record(at, node, kind);
        }
    }

    /// A merged, time-ordered snapshot of all retained events (empty when
    /// detached).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.read(Recorder::snapshot)
    }

    /// The last up-to-`n` events for `node`, oldest first (empty when
    /// detached).
    pub fn last_events(&self, node: NodeId, n: usize) -> Vec<TraceEvent> {
        self.read(|rec| rec.last_events(node, n))
    }

    /// Events currently retained (0 when detached).
    pub fn recorded(&self) -> usize {
        self.read(Recorder::len)
    }

    /// Events evicted by ring bounds (0 when detached).
    pub fn evicted(&self) -> u64 {
        self.read(Recorder::evicted)
    }

    /// Per-node loss accounting (empty when detached — matching the empty
    /// snapshot a detached handle produces).
    pub fn loss(&self) -> TraceLoss {
        self.read(Recorder::loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultCause;

    #[test]
    fn handles_are_send_and_sync() {
        // The parallel experiment executor moves whole replicas (driver,
        // fabric, NICs, their trace handles) onto worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceHandle>();
    }

    fn send(dst: usize) -> EventKind {
        EventKind::ScalarSend {
            dst: NodeId::new(dst),
            size_words: 8,
        }
    }

    fn drop_ev() -> EventKind {
        EventKind::Drop {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            ack: false,
            cause: FaultCause::Drop,
        }
    }

    #[test]
    fn off_handle_records_nothing() {
        let h = TraceHandle::off();
        assert!(!h.is_enabled());
        h.record(Cycle::new(1), NodeId::new(0), send(1));
        assert_eq!(h.recorded(), 0);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn ring_bound_evicts_oldest() {
        let h = TraceHandle::recording(TraceConfig::new().with_capacity_per_node(3));
        for c in 0..5u64 {
            h.record(Cycle::new(c), NodeId::new(0), send(1));
        }
        let events = h.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at, Cycle::new(2));
        assert_eq!(h.evicted(), 2);
    }

    #[test]
    fn sampling_keeps_rare_events_exact() {
        let h = TraceHandle::recording(TraceConfig::new().with_sample_every(10));
        for c in 0..100u64 {
            h.record(Cycle::new(c), NodeId::new(0), send(1));
            h.record(Cycle::new(c), NodeId::new(0), drop_ev());
        }
        let events = h.snapshot();
        let drops = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Drop { .. }))
            .count();
        let sends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ScalarSend { .. }))
            .count();
        assert_eq!(drops, 100, "rare events must bypass sampling");
        assert_eq!(sends, 10, "frequent events honor the stride");
    }

    #[test]
    fn loss_accounting_is_per_node() {
        let h = TraceHandle::recording(
            TraceConfig::new()
                .with_capacity_per_node(2)
                .with_sample_every(2),
        );
        // Node 0: 6 frequent offers → ticks 0,2,4 recorded (3 sampled out),
        // ring cap 2 → 1 evicted. Node 2: a single recorded event.
        for c in 0..6u64 {
            h.record(Cycle::new(c), NodeId::new(0), send(1));
        }
        h.record(Cycle::new(9), NodeId::new(2), send(0));
        let loss = h.loss();
        assert_eq!(loss.evicted, vec![1, 0, 0]);
        assert_eq!(loss.sampled_out, vec![3, 0, 0]);
        assert_eq!(loss.evicted_total(), 1);
        assert_eq!(loss.sampled_out_total(), 3);
        assert!(!loss.is_lossless());
        assert_eq!(loss.lossy_nodes(), vec![0]);
        assert!(TraceHandle::off().loss().is_lossless());
    }

    #[test]
    fn snapshot_merges_nodes_in_time_order() {
        let h = TraceHandle::recording(TraceConfig::new());
        h.record(Cycle::new(5), NodeId::new(1), send(0));
        h.record(Cycle::new(2), NodeId::new(0), send(1));
        h.record(Cycle::new(5), NodeId::new(0), send(1));
        let events = h.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at, Cycle::new(2));
        // Same-cycle tiebreak follows record order.
        assert_eq!(events[1].node, NodeId::new(1));
        assert_eq!(events[2].node, NodeId::new(0));
    }

    #[test]
    fn last_events_returns_the_tail() {
        let h = TraceHandle::recording(TraceConfig::new());
        for c in 0..10u64 {
            h.record(Cycle::new(c), NodeId::new(3), send(1));
        }
        let tail = h.last_events(NodeId::new(3), 4);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].at, Cycle::new(6));
        assert_eq!(tail[3].at, Cycle::new(9));
        assert!(h.last_events(NodeId::new(99), 4).is_empty());
    }

    #[test]
    fn clones_share_the_recorder() {
        let h = TraceHandle::recording(TraceConfig::new());
        let h2 = h.clone();
        h.record(Cycle::new(1), NodeId::new(0), send(1));
        h2.record(Cycle::new(2), NodeId::new(1), send(0));
        assert_eq!(h.recorded(), 2);
        assert_eq!(h2.recorded(), 2);
    }
}
