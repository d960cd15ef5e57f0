//! The traced run's span recorder. Spans are opened and closed by the
//! benchmark's own code around the calls into each layer; nothing inside
//! the library crates is instrumented.
//!
//! Every span is aggregated in memory per name (count, busy time, self
//! time = duration minus the part its children cover, and — where a
//! percentile is reported — every duration). The first `RAW_SPANS` spans
//! are also kept raw (start, end, parent, tick) and written at exit as
//! Chrome trace-event JSON.
//!
//! The recorder is a thread-local because the timing carriers live inside
//! the daemon (`Transport: Send` rules out a shared `Rc`) and must nest
//! their spans under the round span the main loop opened. The benchmark is
//! one thread, so there is exactly one recorder.

use std::cell::RefCell;

use nifdy_trace::json::Json;

use crate::kernel::{percentile, Clock};

/// Raw spans kept for the Chrome trace.
const RAW_SPANS: usize = 10_000;

/// Every span name the benchmark records; the discriminant indexes the
/// aggregate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    NodeTrySend,
    NodePollRound,
    NodeDrain,
    CarrierTick,
    CarrierRecvBatch,
    CarrierSendBatch,
    EndpointTrySend,
    EndpointStep,
    EndpointPoll,
    HubTick,
    FaultSend,
    LoopbackSend,
    ProcPhase,
    NicPhase,
    FabricStep,
}

impl Span {
    const COUNT: usize = Span::FabricStep as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Span::NodeTrySend => "node.try_send",
            Span::NodePollRound => "node.poll_round",
            Span::NodeDrain => "node.drain",
            Span::CarrierTick => "wire.carrier.tick",
            Span::CarrierRecvBatch => "wire.carrier.recv_batch",
            Span::CarrierSendBatch => "wire.carrier.send_batch",
            Span::EndpointTrySend => "wire.endpoint.try_send",
            Span::EndpointStep => "wire.endpoint.step",
            Span::EndpointPoll => "wire.endpoint.poll",
            Span::HubTick => "wire.hub.tick",
            Span::FaultSend => "wire.fault.send",
            Span::LoopbackSend => "wire.loopback.send",
            Span::ProcPhase => "traffic.proc_phase",
            Span::NicPhase => "core.nic_phase",
            Span::FabricStep => "net.fabric_step",
        }
    }

    /// Only the round span reports a percentile, so only it pays for
    /// keeping every duration.
    fn keeps_samples(self) -> bool {
        matches!(self, Span::NodePollRound)
    }
}

/// Per-name aggregate.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    durations: Vec<u32>,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.count as f64
        }
    }

    /// Exact nearest-rank percentile over every recorded duration (0 when
    /// this span keeps no samples).
    pub fn percentile_ns(&mut self, q: f64) -> u64 {
        percentile(&mut self.durations, q)
    }
}

#[derive(Debug, Clone, Copy)]
struct Raw {
    span: Span,
    start: u64,
    end: u64,
    /// Index of the enclosing raw span, if it was itself kept.
    parent: Option<u32>,
    tick: u64,
}

#[derive(Debug)]
struct Open {
    span: Span,
    start: u64,
    child_ns: u64,
    raw: Option<u32>,
}

#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    raw: Vec<Raw>,
    tick: u64,
    top_level_ns: u64,
}

impl Recorder {
    fn new(clock: Clock) -> Self {
        Recorder {
            clock,
            stack: Vec::with_capacity(8),
            aggs: vec![Agg::default(); Span::COUNT],
            raw: Vec::with_capacity(RAW_SPANS),
            tick: 0,
            top_level_ns: 0,
        }
    }

    fn open_at(&mut self, span: Span, start: u64) {
        let raw = (self.raw.len() < RAW_SPANS).then(|| {
            let parent = self.stack.last().and_then(|o| o.raw);
            self.raw.push(Raw {
                span,
                start,
                end: start,
                parent,
                tick: self.tick,
            });
            (self.raw.len() - 1) as u32
        });
        self.stack.push(Open {
            span,
            start,
            child_ns: 0,
            raw,
        });
    }

    /// Returns the closed span's duration.
    fn close_at(&mut self, end: u64) -> u64 {
        let open = self.stack.pop().expect("span closed without an open");
        let dur = end.saturating_sub(open.start);
        let agg = &mut self.aggs[open.span as usize];
        agg.count += 1;
        agg.busy_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if open.span.keeps_samples() {
            agg.durations.push(u32::try_from(dur).unwrap_or(u32::MAX));
        }
        if let Some(i) = open.raw {
            self.raw[i as usize].end = end;
        }
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.top_level_ns += dur,
        }
        dur
    }

    pub fn agg(&mut self, span: Span) -> &mut Agg {
        &mut self.aggs[span as usize]
    }

    /// Busy time of the spans that had no parent.
    pub fn top_level_ns(&self) -> u64 {
        self.top_level_ns
    }

    /// The raw spans as a Chrome trace-event document (`ph: "X"` complete
    /// events, microsecond timestamps; `args` carry the parent index and
    /// the round/cycle the span belongs to).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .raw
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj([
                    ("name", Json::str(r.span.name())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(r.start as f64 / 1e3)),
                    ("dur", Json::Num((r.end - r.start) as f64 / 1e3)),
                    ("pid", Json::u64(1)),
                    ("tid", Json::u64(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::u64(i as u64)),
                            (
                                "parent",
                                r.parent.map_or(Json::Null, |p| Json::u64(u64::from(p))),
                            ),
                            ("tick", Json::u64(r.tick)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder for one traced repetition.
pub fn install(clock: Clock) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(clock)));
}

/// Removes and returns the recorder installed by [`install`].
pub fn take() -> Recorder {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("no span recorder installed")
}

/// Sets the round/cycle number subsequent spans are tagged with.
pub fn set_tick(tick: u64) {
    with(|rec| rec.tick = tick);
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Opens `span` now. Without a recorder — the traced run's warm-up, before
/// the window opens — `open`, `lap` and `close` do nothing.
pub fn open(span: Span) {
    with(|rec| {
        let now = rec.clock.ns();
        rec.open_at(span, now);
    });
}

/// Closes the innermost open span and opens `span` at the same instant:
/// back-to-back phases share one clock read and leave no gap between them.
pub fn lap(span: Span) {
    with(|rec| {
        let now = rec.clock.ns();
        rec.close_at(now);
        rec.open_at(span, now);
    });
}

/// Closes the innermost open span and returns its duration.
pub fn close() -> u64 {
    with(|rec| {
        let now = rec.clock.ns();
        rec.close_at(now)
    })
    .unwrap_or(0)
}

/// Runs `f` inside a span and also returns the span's duration. The
/// recorder borrow is not held across `f`, so spans nest freely (a timing
/// carrier inside a timed `poll_round`).
pub fn timed_ns<R>(span: Span, f: impl FnOnce() -> R) -> (R, u64) {
    open(span);
    let out = f();
    (out, close())
}

pub fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    timed_ns(span, f).0
}

/// `timed` when `TRACED`, a plain call otherwise: the untraced run
/// monomorphises to the bare call with no clock read and no branch.
#[inline(always)]
pub fn maybe<const TRACED: bool, R>(span: Span, f: impl FnOnce() -> R) -> R {
    if TRACED {
        timed(span, f)
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut rec = Recorder::new(Clock::new());
        // round [0, 100) with children [10, 30) and [40, 90); the second
        // child has a grandchild [50, 60).
        rec.open_at(Span::NodePollRound, 0);
        rec.open_at(Span::CarrierTick, 10);
        rec.close_at(30);
        rec.open_at(Span::CarrierSendBatch, 40);
        rec.open_at(Span::LoopbackSend, 50);
        rec.close_at(60);
        rec.close_at(90);
        rec.close_at(100);
        let round = rec.agg(Span::NodePollRound).clone();
        assert_eq!((round.count, round.busy_ns, round.self_ns), (1, 100, 30));
        let send = rec.agg(Span::CarrierSendBatch).clone();
        assert_eq!((send.busy_ns, send.self_ns), (50, 40));
        assert_eq!(rec.agg(Span::LoopbackSend).self_ns, 10);
        // Only the parentless span counts as top-level cover.
        assert_eq!(rec.top_level_ns(), 100);
        assert_eq!(rec.agg(Span::NodePollRound).percentile_ns(0.99), 100);
        assert_eq!(rec.agg(Span::CarrierTick).percentile_ns(0.99), 0);
    }

    #[test]
    fn raw_spans_record_parent_and_tick() {
        let mut rec = Recorder::new(Clock::new());
        rec.tick = 7;
        rec.open_at(Span::NodePollRound, 1_000);
        rec.open_at(Span::CarrierTick, 2_000);
        rec.close_at(3_000);
        rec.close_at(5_000);
        let doc = rec.chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(
            child.get("name").and_then(Json::as_str),
            Some("wire.carrier.tick")
        );
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(1.0));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("tick").and_then(Json::as_u64), Some(7));
        // The document round-trips through the repo's own parser.
        assert!(nifdy_trace::json::parse(&doc.render()).is_ok());
    }
}
