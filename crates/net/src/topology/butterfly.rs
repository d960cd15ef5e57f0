//! Radix-4 butterflies and multibutterflies (indirect, unidirectional).
//!
//! A 4-ary n-fly has `n = log4(N)` stages of `N/4` routers. Packets enter
//! stage 0 (router `src/4`), pick output direction `digit_{n-1-s}(dst)` at
//! stage `s`, and eject to the node from the last stage. With dilation 1
//! (the plain butterfly) each direction has exactly one link — a unique
//! path, so delivery is in order but there is no way around a hot spot.
//! With dilation 2 (the multibutterfly) each direction has two links wired
//! to randomly chosen routers of the valid "splitter" set, giving the
//! adaptive multipath the METRO/multibutterfly literature exploits.
//!
//! The wiring invariant is the same replace-digit scheme as the fat tree:
//! a stage-`s` link in direction `j` must land on a stage-`s+1` router whose
//! digit `n-2-s` equals `j` and whose higher digits match the current
//! router; lower digits are free (randomized in the multibutterfly).

use nifdy_sim::{NodeId, SimRng};

use super::{Candidate, Endpoint, FabricSpec, NodeAttach, RouteState, RouterSpec, Topology};

const K: usize = 4;

/// A radix-4 butterfly (`dilation` 1) or multibutterfly (`dilation` 2).
///
/// # Examples
///
/// ```
/// use nifdy_net::topology::{Butterfly, Topology};
/// use nifdy_sim::NodeId;
///
/// let bfly = Butterfly::new(64, 1, 0);
/// // "Every packet travels only three hops."
/// assert_eq!(bfly.hops(NodeId::new(0), NodeId::new(63)), 3);
/// assert!(!bfly.reorders());
///
/// let mbfly = Butterfly::new(64, 2, 7);
/// assert!(mbfly.reorders());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Butterfly {
    nodes: usize,
    stages: usize,
    dilation: usize,
    wiring_seed: u64,
}

impl Butterfly {
    /// Creates a butterfly over `nodes` nodes with the given `dilation`;
    /// `wiring_seed` randomizes the multibutterfly wiring (ignored for
    /// dilation 1).
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of 4 (≥ 16) and `dilation` is 1 or 2.
    pub fn new(nodes: usize, dilation: usize, wiring_seed: u64) -> Self {
        let mut stages = 0;
        let mut n = 1;
        while n < nodes {
            n *= K;
            stages += 1;
        }
        assert!(
            n == nodes && stages >= 2,
            "butterfly size must be a power of 4, at least 16 (got {nodes})"
        );
        assert!(
            dilation == 1 || dilation == 2,
            "dilation must be 1 or 2 (got {dilation})"
        );
        Butterfly {
            nodes,
            stages,
            dilation,
            wiring_seed,
        }
    }

    fn per_stage(&self) -> usize {
        self.nodes / K
    }

    fn stage_of(&self, router: u32) -> (usize, usize) {
        let per = self.per_stage();
        ((router as usize) / per, (router as usize) % per)
    }

    fn router_id(&self, stage: usize, w: usize) -> u32 {
        (stage * self.per_stage() + w) as u32
    }

    /// All valid stage-`s+1` targets for direction `j` out of router `w` at
    /// stage `s`: digit `n-2-s` forced to `j`, higher digits preserved,
    /// lower digits free.
    fn valid_targets(&self, s: usize, w: usize, j: usize) -> Vec<usize> {
        let pos = self.stages - 2 - s;
        let low_span = K.pow(pos as u32);
        let base = (w / (low_span * K)) * (low_span * K) + j * low_span;
        (0..low_span).map(|low| base + low).collect()
    }
}

impl Topology for Butterfly {
    fn name(&self) -> String {
        if self.dilation == 1 {
            format!("radix-4 butterfly ({} nodes)", self.nodes)
        } else {
            format!(
                "radix-4 multibutterfly d{} ({} nodes)",
                self.dilation, self.nodes
            )
        }
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn spec(&self) -> FabricSpec {
        let per = self.per_stage();
        let mut rng = SimRng::from_seed_stream(self.wiring_seed, 0xB17E);
        // Reserve injection in-ports 0..K at stage 0.
        let mut in_count: Vec<u8> = (0..self.stages * per)
            .map(|r| if r < per { K as u8 } else { 0 })
            .collect();
        let mut links: Vec<Vec<Endpoint>> = vec![Vec::new(); self.stages * per];

        for s in 0..self.stages {
            for w in 0..per {
                let rid = self.router_id(s, w) as usize;
                if s == self.stages - 1 {
                    // Last stage ejects straight to nodes, dilation 1.
                    for j in 0..K {
                        links[rid].push(Endpoint::Node((w * K + j) as u32));
                    }
                    continue;
                }
                for j in 0..K {
                    let valid = self.valid_targets(s, w, j);
                    for copy in 0..self.dilation {
                        // Plain butterfly keeps the canonical wiring (lower
                        // digits preserved); the multibutterfly randomizes,
                        // drawing distinct targets while possible.
                        let t = if self.dilation == 1 {
                            let pos = self.stages - 2 - s;
                            let low_span = K.pow(pos as u32);
                            (w / (low_span * K)) * (low_span * K) + j * low_span + (w % low_span)
                        } else if valid.len() >= self.dilation {
                            // Sample without replacement across copies.
                            loop {
                                #[expect(
                                    clippy::expect_used,
                                    reason = "this branch holds valid.len() >= dilation >= 1"
                                )]
                                let cand = *rng.choose(&valid).expect("nonempty");
                                let target = self.router_id(s + 1, cand);
                                let dup = links[rid]
                                    .iter()
                                    .rev()
                                    .take(copy)
                                    .any(|e| matches!(e, Endpoint::Router { router, .. } if *router == target));
                                if !dup {
                                    break cand;
                                }
                            }
                        } else {
                            valid[copy % valid.len()]
                        };
                        let target = self.router_id(s + 1, t);
                        let in_port = in_count[target as usize];
                        in_count[target as usize] += 1;
                        links[rid].push(Endpoint::Router {
                            router: target,
                            in_port,
                        });
                    }
                }
            }
        }

        let routers: Vec<RouterSpec> = links
            .into_iter()
            .zip(in_count)
            .map(|(links, in_ports)| RouterSpec { in_ports, links })
            .collect();

        let mut attaches = Vec::with_capacity(self.nodes);
        let last = self.stages - 1;
        for node in 0..self.nodes {
            attaches.push(NodeAttach {
                inj_router: self.router_id(0, node / K),
                inj_port: (node % K) as u8,
                ej_router: self.router_id(last, node / K),
                ej_port: (node % K) as u8,
            });
        }
        FabricSpec { routers, attaches }
    }

    fn route(&self, router: u32, dst: NodeId, _state: &RouteState, out: &mut Vec<Candidate>) {
        let (s, _) = self.stage_of(router);
        // Direction = base-4 digit (stages-1-s) of the node address.
        let dir = (dst.index() / K.pow((self.stages - 1 - s) as u32)) % K;
        if s == self.stages - 1 {
            out.push(Candidate::any(dir as u8));
        } else {
            for copy in 0..self.dilation {
                out.push(Candidate::any((dir * self.dilation + copy) as u8));
            }
        }
    }

    fn hops(&self, _a: NodeId, _b: NodeId) -> u32 {
        // Indirect network: every packet crosses all stages.
        self.stages as u32
    }

    fn reorders(&self) -> bool {
        self.dilation > 1
    }
}

#[cfg(test)]
mod tests {
    use super::super::checks::{check_all_candidates_deliver, check_routing_delivers, check_spec};
    use super::*;

    #[test]
    fn butterfly_spec_is_well_formed() {
        check_spec(&Butterfly::new(16, 1, 0));
        check_spec(&Butterfly::new(64, 1, 0));
    }

    #[test]
    fn multibutterfly_spec_is_well_formed() {
        check_spec(&Butterfly::new(64, 2, 1));
        check_spec(&Butterfly::new(64, 2, 99)); // different wiring, same invariants
    }

    #[test]
    fn butterfly_routing_delivers() {
        check_routing_delivers(&Butterfly::new(16, 1, 0), 2);
        check_routing_delivers(&Butterfly::new(64, 1, 0), 3);
    }

    #[test]
    fn multibutterfly_all_paths_deliver() {
        check_all_candidates_deliver(&Butterfly::new(64, 2, 5), 3);
    }

    #[test]
    fn dilation_two_doubles_internal_links() {
        let d1 = Butterfly::new(64, 1, 0).spec();
        let d2 = Butterfly::new(64, 2, 0).spec();
        assert_eq!(d2.num_internal_links(), 2 * d1.num_internal_links());
    }

    #[test]
    fn multibutterfly_offers_distinct_first_stage_targets() {
        let spec = Butterfly::new(64, 2, 3).spec();
        // Stage-0 router 0, direction 0 = links 0 and 1: distinct routers.
        let (a, b) = (&spec.routers[0].links[0], &spec.routers[0].links[1]);
        match (a, b) {
            (Endpoint::Router { router: ra, .. }, Endpoint::Router { router: rb, .. }) => {
                assert_ne!(ra, rb)
            }
            other => panic!("unexpected endpoints {other:?}"),
        }
    }

    #[test]
    fn valid_targets_respect_the_splitter_invariant() {
        let b = Butterfly::new(64, 2, 0);
        // Stage 0, router 5 (digits 1,1), direction 2: digit 1 forced to 2,
        // digit 0 free -> routers 8 + 0..4 = {8, 9, 10, 11}.
        assert_eq!(b.valid_targets(0, 5, 2), vec![8, 9, 10, 11]);
        // Stage 1: no free digits, single target.
        assert_eq!(b.valid_targets(1, 5, 2).len(), 1);
    }

    #[test]
    #[should_panic(expected = "dilation")]
    fn rejects_large_dilation() {
        let _ = Butterfly::new(64, 3, 0);
    }
}
