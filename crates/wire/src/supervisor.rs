//! Endpoint liveness and crash recovery: heartbeat beacons and
//! peer-restart detection.
//!
//! The protocol unit assumes its peer's interface state is durable — bulk
//! dialogs, duplicate bits, and grants all persist "forever" in the paper's
//! model. A real endpoint crashes. This module layers the recovery protocol
//! on top of [`WireEndpoint`] without touching the protocol machine:
//!
//! * every endpoint incarnation carries an **epoch**, announced in periodic
//!   [`Heartbeat`](crate::Heartbeat) control frames on the reply lane;
//! * a [`SupervisedEndpoint`] tracks each watched peer's last-heard cycle
//!   and epoch: prolonged silence flags the peer down (a `PeerDown` trace
//!   event), and an **epoch increase** proves the peer restarted — the
//!   survivor then calls [`NifdyUnit::reset_peer`](nifdy::NifdyUnit::reset_peer), tearing down dialogs
//!   entangled with the dead incarnation so both sides can re-handshake
//!   from a clean slate (`PeerRestart`).
//!
//! A crashed endpoint comes back only as a new incarnation: a fresh
//! [`SupervisedEndpoint`] built at the next epoch on the same address (a
//! restarted process passes it in). Nothing here schedules restarts.
//!
//! Silence alone never resets protocol state: a partitioned peer that
//! reappears with the *same* epoch resumes exactly where it left off (its
//! retransmission machinery self-heals), which is why detection keys on the
//! epoch, not the timeout.

use std::collections::BTreeMap;

use nifdy_sim::{Cycle, NodeId, Wakeup};
use nifdy_trace::{trace_event, EventKind, TraceHandle};

use crate::endpoint::WireEndpoint;
use crate::transport::Transport;

/// Timing knobs for heartbeats and liveness detection, in cycles.
///
/// # Examples
///
/// ```
/// use nifdy_wire::SupervisorConfig;
///
/// let cfg = SupervisorConfig::default().with_heartbeat_every(128);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Cycles between heartbeat broadcasts to every watched peer.
    pub heartbeat_every: u64,
    /// Silence (no frame *or* heartbeat) after which a peer is flagged down.
    pub peer_timeout: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_every: 256,
            peer_timeout: 2_048,
        }
    }
}

impl SupervisorConfig {
    /// Sets the heartbeat broadcast period.
    pub fn with_heartbeat_every(mut self, cycles: u64) -> Self {
        self.heartbeat_every = cycles;
        self
    }

    /// Sets the peer-silence threshold.
    pub fn with_peer_timeout(mut self, cycles: u64) -> Self {
        self.peer_timeout = cycles;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: a zero
    /// heartbeat period, or a timeout that a healthy peer's own heartbeat
    /// cadence would trip.
    pub fn validate(&self) -> Result<(), String> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            heartbeat_every,
            peer_timeout,
        } = *self;
        if heartbeat_every == 0 {
            return Err("heartbeat_every must be at least 1 cycle".into());
        }
        if peer_timeout <= 2 * heartbeat_every {
            return Err(format!(
                "peer_timeout ({}) must exceed two heartbeat periods ({}): \
                 one lost beacon would otherwise flap the peer down",
                peer_timeout,
                2 * heartbeat_every
            ));
        }
        Ok(())
    }
}

/// A liveness transition observed by a [`SupervisedEndpoint`], drained via
/// [`SupervisedEndpoint::take_peer_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// A watched peer has been silent past the timeout.
    Down {
        /// The silent peer.
        peer: NodeId,
        /// Cycles since its last heartbeat.
        silent_for: u64,
    },
    /// A watched peer reappeared with a higher epoch: it crashed and
    /// restarted, and the entangled protocol state has been reset.
    Restarted {
        /// The restarted peer.
        peer: NodeId,
        /// Its new incarnation's epoch.
        epoch: u32,
    },
}

/// Per-peer liveness bookkeeping.
#[derive(Debug, Clone, Copy)]
struct PeerState {
    last_heard: Cycle,
    epoch: u32,
    down: bool,
}

/// A [`WireEndpoint`] with the liveness protocol attached: broadcasts
/// epoch-stamped heartbeats, tracks watched peers, and resets protocol
/// state when a peer provably restarted.
#[derive(Debug)]
pub struct SupervisedEndpoint<T: Transport> {
    ep: WireEndpoint<T>,
    cfg: SupervisorConfig,
    epoch: u32,
    watched: Vec<NodeId>,
    peers: BTreeMap<NodeId, PeerState>,
    /// When the last heartbeat broadcast went out (`None` = never, so the
    /// first step announces immediately — crucial after a restart).
    last_beat: Option<Cycle>,
    events: Vec<PeerEvent>,
    trace: TraceHandle,
}

impl<T: Transport> SupervisedEndpoint<T> {
    /// Wraps an endpoint as incarnation `epoch` of its node.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SupervisorConfig::validate`].
    pub fn new(ep: WireEndpoint<T>, cfg: SupervisorConfig, epoch: u32) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented contract; the daemon's `NodeConfig::validate` runs the same \
                      check before it builds any endpoint"
        )]
        if let Err(why) = cfg.validate() {
            panic!("invalid supervisor config: {why}");
        }
        SupervisedEndpoint {
            ep,
            cfg,
            epoch,
            watched: Vec::new(),
            peers: BTreeMap::new(),
            last_beat: None,
            events: Vec::new(),
            trace: TraceHandle::off(),
        }
    }

    /// Adds a peer to the heartbeat broadcast and liveness watch list.
    ///
    /// Beacons from unwatched nodes are ignored, so a peer's restart is
    /// detected (and [`NifdyUnit::reset_peer`] called) only if that peer
    /// is watched: the list must include every node that sends to this
    /// endpoint, or a stale dup bit for a restarted sender can swallow
    /// its new incarnation's first packet.
    ///
    /// [`NifdyUnit::reset_peer`]: nifdy::NifdyUnit::reset_peer
    pub fn watch(&mut self, peer: NodeId) {
        if !self.watched.contains(&peer) {
            self.watched.push(peer);
        }
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Connects endpoint and supervision events to a flight recorder.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.ep.attach_trace(trace.clone());
        self.trace = trace;
    }

    /// Drains liveness transitions observed since the last call.
    pub fn take_peer_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether `peer` is currently flagged down.
    pub fn peer_down(&self, peer: NodeId) -> bool {
        self.peers.get(&peer).is_some_and(|p| p.down)
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &WireEndpoint<T> {
        &self.ep
    }

    /// The wrapped endpoint, mutably (send/poll traffic through it).
    pub fn endpoint_mut(&mut self) -> &mut WireEndpoint<T> {
        &mut self.ep
    }

    /// One cycle: protocol step, then the liveness pass — consume arrived
    /// heartbeats (detecting restarts), broadcast our own beacon when due,
    /// and flag peers that fell silent.
    pub fn step(&mut self) {
        self.ep.step();
        let now = self.ep.now();
        let me = self.ep.node();
        self.consume_heartbeats(now, me);
        self.broadcast(now, me);
        self.check_silence(now, me);
    }

    /// When this supervised endpoint next needs a [`step`](Self::step),
    /// under the [`Wakeup`] contract: the earliest of the protocol unit's
    /// own wakeup, the next heartbeat-broadcast deadline (none while the
    /// watch list is empty: a broadcast to nobody is no work), and the
    /// earliest watched peer's silence deadline. Frames still inside the
    /// transport are invisible here, exactly as for
    /// [`WireEndpoint::next_event`] — an event-driven driver must also
    /// consult the transport's clock.
    pub fn next_event(&self) -> Wakeup {
        let now = self.ep.now();
        let mut wake = self.ep.next_event();
        if !self.watched.is_empty() {
            wake = wake.earliest(match self.last_beat {
                // Never beaten: the next step broadcasts immediately.
                None => Wakeup::Now,
                Some(at) => Wakeup::at_or_now(at + self.cfg.heartbeat_every, now),
            });
        }
        for state in self.peers.values() {
            if !state.down {
                wake = wake.earliest(Wakeup::at_or_now(
                    state.last_heard + self.cfg.peer_timeout,
                    now,
                ));
            }
        }
        wake
    }

    /// Applies every heartbeat the port decoded this cycle.
    fn consume_heartbeats(&mut self, now: Cycle, me: NodeId) {
        while let Some(hb) = self.ep.port_mut().pop_heartbeat() {
            trace_event!(
                self.trace,
                now,
                me,
                EventKind::Heartbeat {
                    peer: hb.src,
                    epoch: hb.epoch,
                    sent: false,
                }
            );
            match self.peers.get_mut(&hb.src) {
                // A delayed or duplicated beacon from an incarnation already
                // known dead speaks for no live process. Recording its epoch
                // would make the live incarnation's next beacon read as a
                // second restart.
                Some(state) if hb.epoch < state.epoch => {}
                Some(state) => {
                    if hb.epoch > state.epoch {
                        // The peer provably restarted: everything our unit
                        // remembers about the old incarnation is hazardous.
                        trace_event!(
                            self.trace,
                            now,
                            me,
                            EventKind::PeerRestart {
                                peer: hb.src,
                                epoch: hb.epoch,
                            }
                        );
                        self.ep.unit_mut().reset_peer(hb.src);
                        self.events.push(PeerEvent::Restarted {
                            peer: hb.src,
                            epoch: hb.epoch,
                        });
                    }
                    state.last_heard = now;
                    state.epoch = hb.epoch;
                    state.down = false;
                }
                // A beacon from a node we never watched (stray or forged)
                // creates no state, so it can never raise a `PeerDown`.
                None if !self.watched.contains(&hb.src) => {}
                None => {
                    self.peers.insert(
                        hb.src,
                        PeerState {
                            last_heard: now,
                            epoch: hb.epoch,
                            down: false,
                        },
                    );
                }
            }
        }
    }

    /// Broadcasts a heartbeat to every watched peer when the period lapses.
    fn broadcast(&mut self, now: Cycle, me: NodeId) {
        let due = match self.last_beat {
            None => true,
            Some(at) => now.saturating_since(at) >= self.cfg.heartbeat_every,
        };
        if !due {
            return;
        }
        self.last_beat = Some(now);
        let epoch = self.epoch;
        for i in 0..self.watched.len() {
            let Some(&peer) = self.watched.get(i) else {
                break;
            };
            self.ep.port_mut().send_heartbeat(peer, epoch);
            trace_event!(
                self.trace,
                now,
                me,
                EventKind::Heartbeat {
                    peer,
                    epoch,
                    sent: true,
                }
            );
        }
    }

    /// Flags watched peers whose silence exceeds the timeout.
    fn check_silence(&mut self, now: Cycle, me: NodeId) {
        for (&peer, state) in self.peers.iter_mut() {
            if state.down {
                continue;
            }
            let silent_for = now.saturating_since(state.last_heard);
            if silent_for >= self.cfg.peer_timeout {
                state.down = true;
                trace_event!(
                    self.trace,
                    now,
                    me,
                    EventKind::PeerDown { peer, silent_for }
                );
                self.events.push(PeerEvent::Down { peer, silent_for });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use nifdy::NifdyConfig;

    use super::*;
    use crate::transport::LoopbackHub;

    fn pair(
        hub: &LoopbackHub,
        cfg: SupervisorConfig,
    ) -> [SupervisedEndpoint<crate::LoopbackTransport>; 2] {
        let mk = |n: usize| {
            let node = NodeId::new(n);
            let mut s = SupervisedEndpoint::new(
                WireEndpoint::new(node, NifdyConfig::mesh(), hub.endpoint(node)),
                cfg,
                0,
            );
            s.watch(NodeId::new(1 - n));
            s
        };
        [mk(0), mk(1)]
    }

    #[test]
    fn heartbeats_establish_liveness_without_protocol_traffic() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(16)
            .with_peer_timeout(64);
        let mut eps = pair(&hub, cfg);
        for _ in 0..32 {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
        }
        for ep in eps.iter() {
            assert!(!ep.peer_down(NodeId::new(0)));
            assert!(!ep.peer_down(NodeId::new(1)));
        }
        assert!(eps[0].peers.len() == 1, "peer 1 tracked via heartbeat");
    }

    #[test]
    fn silence_flags_the_peer_down_once() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40);
        let mut eps = pair(&hub, cfg);
        // Warm up so each side has heard the other.
        for _ in 0..16 {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
        }
        // Now only node 0 keeps stepping: node 1 falls silent.
        let mut down_events = 0;
        for _ in 0..200 {
            let Some((zero, _)) = eps.split_first_mut() else {
                unreachable!()
            };
            zero.step();
            hub.tick();
            down_events += zero
                .take_peer_events()
                .iter()
                .filter(|e| matches!(e, PeerEvent::Down { .. }))
                .count();
        }
        assert_eq!(down_events, 1, "down transition is edge-triggered");
        assert!(eps[0].peer_down(NodeId::new(1)));
    }

    #[test]
    fn epoch_bump_triggers_peer_reset() {
        let hub = LoopbackHub::new(2, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40);
        let mut eps = pair(&hub, cfg);
        for _ in 0..16 {
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
        }
        // Node 1 "restarts": same transport, bumped epoch.
        eps[1].epoch = 1;
        let mut restarted = Vec::new();
        for round in 0..32 {
            if round == 16 {
                // A beacon of the dead incarnation, delayed past the new
                // one's first: it must not rewind the recorded epoch.
                let stale = crate::codec::Heartbeat {
                    src: NodeId::new(1),
                    dst: NodeId::new(0),
                    epoch: 0,
                };
                hub.endpoint(stale.src).send(
                    stale.dst,
                    nifdy_net::Lane::Reply,
                    crate::codec::encode_heartbeat(&stale),
                );
            }
            for ep in eps.iter_mut() {
                ep.step();
            }
            hub.tick();
            restarted.extend(
                eps[0]
                    .take_peer_events()
                    .into_iter()
                    .filter(|e| matches!(e, PeerEvent::Restarted { .. })),
            );
        }
        assert_eq!(
            restarted,
            vec![PeerEvent::Restarted {
                peer: NodeId::new(1),
                epoch: 1
            }],
            "exactly one restart detection per epoch bump"
        );
    }

    #[test]
    fn a_beacon_from_an_unwatched_node_leaves_no_state() {
        let hub = LoopbackHub::new(3, 1);
        let cfg = SupervisorConfig::default()
            .with_heartbeat_every(8)
            .with_peer_timeout(40);
        let [mut zero, _] = pair(&hub, cfg);
        let stray = crate::codec::Heartbeat {
            src: NodeId::new(2),
            dst: NodeId::new(0),
            epoch: 0,
        };
        let frame = crate::codec::encode_heartbeat(&stray);
        hub.endpoint(stray.src)
            .send(stray.dst, nifdy_net::Lane::Reply, frame);
        for _ in 0..200 {
            zero.step();
            hub.tick();
        }
        assert!(zero.peers.is_empty(), "{:?}", zero.peers);
        assert_eq!(zero.take_peer_events(), []);
    }

    #[test]
    fn an_endpoint_watching_nobody_goes_quiescent() {
        let hub = LoopbackHub::new(1, 1);
        let node = NodeId::new(0);
        let ep = WireEndpoint::new(node, NifdyConfig::mesh(), hub.endpoint(node));
        let mut sup = SupervisedEndpoint::new(ep, SupervisorConfig::default(), 0);
        sup.step();
        assert_eq!(sup.next_event(), Wakeup::Quiescent);
    }

    #[test]
    fn invalid_supervisor_configs_are_rejected() {
        assert!(SupervisorConfig::default()
            .with_heartbeat_every(0)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default()
            .with_heartbeat_every(100)
            .with_peer_timeout(150)
            .validate()
            .is_err());
        assert!(SupervisorConfig::default().validate().is_ok());
    }
}
