//! Fat trees: the full 4-ary fat tree (k-ary n-tree) and the CM-5-like
//! variant whose lower routers have only two parents.
//!
//! In a k-ary n-tree, routers live on levels `0..n` (level 0 at the leaves),
//! with `k^(n-1)` routers per level. Router `(l, w)` — `w` written in base-k
//! digits `w_{n-2}..w_0` — connects up-port `j` to router
//! `(l+1, replace_digit(w, l, j))`. Going up, *any* parent makes progress
//! (the adaptive multipath the paper exploits); going down, the path is
//! unique. Port numbering: down ports `0..k`, up ports `k..2k`.

use nifdy_sim::NodeId;

use super::{Candidate, Endpoint, FabricSpec, NodeAttach, RouteState, RouterSpec, Topology};

const K: usize = 4;

/// A full 4-ary fat tree.
///
/// # Examples
///
/// ```
/// use nifdy_net::topology::{FatTree, Topology};
/// use nifdy_sim::NodeId;
///
/// let ft = FatTree::new(64);
/// assert_eq!(ft.num_nodes(), 64);
/// // "With three levels of routers, the maximum internode distance is 6 hops."
/// assert_eq!(ft.hops(NodeId::new(0), NodeId::new(63)), 6);
/// assert!(ft.reorders());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTree {
    nodes: usize,
    levels: usize,
    /// Up links removed by fault injection: `(level, router index, up port
    /// j)`. Dead links are filtered from routing candidates; the multipath
    /// structure routes around them (§1: "faults in the network may
    /// restrict the available bandwidth").
    dead_up: std::collections::BTreeSet<(u8, u32, u8)>,
}

impl FatTree {
    /// Creates a full 4-ary fat tree over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of 4 and at least 16.
    pub fn new(nodes: usize) -> Self {
        let mut levels = 0;
        let mut n = 1;
        while n < nodes {
            n *= K;
            levels += 1;
        }
        assert!(
            n == nodes && levels >= 2,
            "fat tree size must be a power of 4, at least 16 (got {nodes})"
        );
        FatTree {
            nodes,
            levels,
            dead_up: std::collections::BTreeSet::new(),
        }
    }

    /// Marks up links as failed: each entry is `(level, router index within
    /// the level, up port 0..4)`. Faulty links still exist in the spec but
    /// are never chosen by routing — modelling a link taken out of service.
    ///
    /// # Panics
    ///
    /// Panics if any entry is out of range, or if every up link of some
    /// router is dead (which would partition the network).
    pub fn with_dead_up_links(mut self, dead: impl IntoIterator<Item = (u8, u32, u8)>) -> Self {
        let per = self.routers_per_level() as u32;
        for (level, w, j) in dead {
            assert!(
                (level as usize) < self.levels - 1,
                "level {level} has no up links"
            );
            assert!(w < per, "router index {w} out of range");
            assert!((j as usize) < K, "up port {j} out of range");
            self.dead_up.insert((level, w, j));
        }
        for level in 0..self.levels - 1 {
            for w in 0..per {
                let dead = (0..K as u8)
                    .filter(|&j| self.dead_up.contains(&(level as u8, w, j)))
                    .count();
                assert!(
                    dead < K,
                    "all up links of router ({level}, {w}) are dead: network partitioned"
                );
            }
        }
        self
    }

    fn routers_per_level(&self) -> usize {
        self.nodes / K
    }

    fn router_id(&self, level: usize, w: usize) -> u32 {
        (level * self.routers_per_level() + w) as u32
    }

    fn level_of(&self, router: u32) -> (usize, usize) {
        let per = self.routers_per_level();
        ((router as usize) / per, (router as usize) % per)
    }

    /// Is router `(level, w)` an ancestor of node `a`? True iff `w`'s digits
    /// at positions `level..n-1` match the node's leaf-router digits.
    fn is_ancestor(&self, level: usize, w: usize, a: usize) -> bool {
        let leaf = a / K;
        let shift = pow_k(level);
        w / shift == leaf / shift
    }
}

#[inline]
fn pow_k(e: usize) -> usize {
    K.pow(e as u32)
}

#[inline]
fn digit(w: usize, pos: usize) -> usize {
    (w / pow_k(pos)) % K
}

#[inline]
fn replace_digit(w: usize, pos: usize, v: usize) -> usize {
    w - digit(w, pos) * pow_k(pos) + v * pow_k(pos)
}

impl Topology for FatTree {
    fn name(&self) -> String {
        format!("4-ary fat tree ({} nodes)", self.nodes)
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn spec(&self) -> FabricSpec {
        let per = self.routers_per_level();
        let top = self.levels - 1;
        let mut routers = Vec::with_capacity(self.levels * per);
        for level in 0..self.levels {
            for w in 0..per {
                let mut links = Vec::new();
                // Down ports 0..K.
                for c in 0..K {
                    if level == 0 {
                        links.push(Endpoint::Node((w * K + c) as u32));
                    } else {
                        // Child c: same index with digit (level-1) set to c.
                        let child = replace_digit(w, level - 1, c);
                        links.push(Endpoint::Router {
                            router: self.router_id(level - 1, child),
                            // Arrives at the child's up in-port for parent j,
                            // where j is the digit the child sees us under.
                            in_port: (K + digit(w, level - 1)) as u8,
                        });
                    }
                }
                // Up ports K..2K (absent at the top level).
                if level < top {
                    for j in 0..K {
                        let parent = replace_digit(w, level, j);
                        links.push(Endpoint::Router {
                            router: self.router_id(level + 1, parent),
                            // We are the parent's child number digit(w, level).
                            in_port: digit(w, level) as u8,
                        });
                    }
                }
                let in_ports = if level == top { K } else { 2 * K };
                routers.push(RouterSpec {
                    in_ports: in_ports as u8,
                    links,
                });
            }
        }
        // Node injection: dedicated extra in-port at the leaf router.
        let mut attaches = Vec::with_capacity(self.nodes);
        for node in 0..self.nodes {
            let leaf = self.router_id(0, node / K);
            let inj_port = routers[leaf as usize].in_ports;
            routers[leaf as usize].in_ports += 1;
            attaches.push(NodeAttach {
                inj_router: leaf,
                inj_port,
                ej_router: leaf,
                ej_port: (node % K) as u8,
            });
        }
        FabricSpec { routers, attaches }
    }

    fn route(&self, router: u32, dst: NodeId, _state: &RouteState, out: &mut Vec<Candidate>) {
        let (level, w) = self.level_of(router);
        let a = dst.index();
        if self.is_ancestor(level, w, a) {
            // Unique path down: at level 0 eject to the node, else descend
            // toward the child holding digit `level-1` of the leaf index.
            let port = if level == 0 {
                a % K
            } else {
                digit(a / K, level - 1)
            };
            out.push(Candidate::any(port as u8));
        } else {
            // Any live parent makes progress: full adaptivity going up.
            for j in 0..K {
                if !self.dead_up.contains(&(level as u8, w as u32, j as u8)) {
                    out.push(Candidate::any((K + j) as u8));
                }
            }
        }
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        // 2L + 2 link hops, counting the node-router links, where L is the
        // lowest common-ancestor level.
        let (la, lb) = (a.index() / K, b.index() / K);
        let mut level = 0;
        while la / pow_k(level) != lb / pow_k(level) {
            level += 1;
        }
        (2 * level + 2) as u32
    }

    fn reorders(&self) -> bool {
        true
    }
}

/// The CM-5-like fat tree: routers in the first two levels have **two**
/// parents instead of four, reducing bisection bandwidth, and links carry 4
/// bits per cycle (every fabric serializes a flit in 4 cycles; configure it
/// with `time_mux_lanes = true` to reproduce the paper's "eight bits every
/// two cycles" per logical network).
///
/// Structure for `N` nodes (`N` ∈ {32, 64}): `N/4` leaf routers (4 nodes
/// each, 2 up ports), `N/8` middle routers (4 down, 2 up) in groups of two
/// per 16-node subtree, and `N/16` top routers.
///
/// # Examples
///
/// ```
/// use nifdy_net::topology::{Cm5FatTree, Topology};
/// use nifdy_sim::NodeId;
///
/// let cm5 = Cm5FatTree::new(64);
/// assert_eq!(cm5.hops(NodeId::new(0), NodeId::new(63)), 6);
/// assert_eq!(cm5.hops(NodeId::new(0), NodeId::new(5)), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cm5FatTree {
    nodes: usize,
}

impl Cm5FatTree {
    /// Creates a CM-5-style fat tree over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is 32 or 64 (the machine sizes the paper
    /// simulates with this network).
    pub fn new(nodes: usize) -> Self {
        assert!(
            nodes == 32 || nodes == 64,
            "CM-5 fat tree supports 32 or 64 nodes (got {nodes})"
        );
        Cm5FatTree { nodes }
    }

    fn leaves(&self) -> usize {
        self.nodes / 4
    }

    fn groups(&self) -> usize {
        self.nodes / 16
    }

    fn mids(&self) -> usize {
        self.nodes / 8
    }

    // Router index layout: [leaves][mids][tops].
    fn leaf_id(&self, l: usize) -> u32 {
        l as u32
    }

    fn mid_id(&self, g: usize, i: usize) -> u32 {
        (self.leaves() + 2 * g + i) as u32
    }

    fn top_id(&self, t: usize) -> u32 {
        (self.leaves() + self.mids() + t) as u32
    }

    fn classify(&self, router: u32) -> Cm5Router {
        let r = router as usize;
        if r < self.leaves() {
            Cm5Router::Leaf(r)
        } else if r < self.leaves() + self.mids() {
            let m = r - self.leaves();
            Cm5Router::Mid(m / 2, m % 2)
        } else {
            Cm5Router::Top(r - self.leaves() - self.mids())
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cm5Router {
    /// Leaf router index (serves nodes `4l..4l+4`).
    Leaf(usize),
    /// Middle router (group, copy within group).
    Mid(usize, usize),
    /// Top router index.
    Top(usize),
}

impl Topology for Cm5FatTree {
    fn name(&self) -> String {
        format!("CM-5 fat tree ({} nodes)", self.nodes)
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn spec(&self) -> FabricSpec {
        let mut routers = Vec::new();
        // Leaves: down ports 0..4 to nodes, up ports 4,5 to the two group
        // mids. In-ports: 0..4 node injection (via attaches), 4,5 from mids.
        for l in 0..self.leaves() {
            let g = l / 4;
            let c = l % 4; // position within group
            let mut links: Vec<Endpoint> =
                (0..4).map(|p| Endpoint::Node((l * 4 + p) as u32)).collect();
            for i in 0..2 {
                links.push(Endpoint::Router {
                    router: self.mid_id(g, i),
                    in_port: c as u8, // mid's down in-port for this leaf
                });
            }
            routers.push(RouterSpec { in_ports: 6, links });
        }
        // Mids: down ports 0..4 to the group's leaves, up ports 4,5 to tops.
        for g in 0..self.groups() {
            for i in 0..2 {
                let mut links = Vec::new();
                for c in 0..4 {
                    links.push(Endpoint::Router {
                        router: self.leaf_id(g * 4 + c),
                        in_port: (4 + i) as u8, // leaf's up in-port for mid i
                    });
                }
                for j in 0..2 {
                    links.push(Endpoint::Router {
                        router: self.top_id(2 * i + j),
                        in_port: g as u8, // top's down in-port for this group
                    });
                }
                routers.push(RouterSpec { in_ports: 6, links });
            }
        }
        // Tops: down port per group, to mid (g, i(t)).
        for t in 0..4 {
            let i = t / 2;
            let j = t % 2;
            let mut links = Vec::new();
            for g in 0..self.groups() {
                links.push(Endpoint::Router {
                    router: self.mid_id(g, i),
                    in_port: (4 + j) as u8, // mid's up in-port for top j
                });
            }
            routers.push(RouterSpec {
                in_ports: self.groups() as u8,
                links,
            });
        }
        // Node attaches at leaves.
        let mut attaches = Vec::with_capacity(self.nodes);
        for node in 0..self.nodes {
            let leaf = self.leaf_id(node / 4);
            attaches.push(NodeAttach {
                inj_router: leaf,
                inj_port: (node % 4) as u8,
                ej_router: leaf,
                ej_port: (node % 4) as u8,
            });
        }
        FabricSpec { routers, attaches }
    }

    fn route(&self, router: u32, dst: NodeId, _state: &RouteState, out: &mut Vec<Candidate>) {
        let a = dst.index();
        match self.classify(router) {
            Cm5Router::Leaf(l) => {
                if a / 4 == l {
                    out.push(Candidate::any((a % 4) as u8));
                } else {
                    out.push(Candidate::any(4));
                    out.push(Candidate::any(5));
                }
            }
            Cm5Router::Mid(g, _) => {
                if a / 16 == g {
                    out.push(Candidate::any(((a / 4) % 4) as u8));
                } else {
                    out.push(Candidate::any(4));
                    out.push(Candidate::any(5));
                }
            }
            Cm5Router::Top(_) => {
                out.push(Candidate::any((a / 16) as u8));
            }
        }
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (x, y) = (a.index(), b.index());
        if x / 4 == y / 4 {
            2
        } else if x / 16 == y / 16 {
            4
        } else {
            6
        }
    }

    fn reorders(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::checks::{check_all_candidates_deliver, check_routing_delivers, check_spec};
    use super::super::hop_profile;
    use super::*;

    #[test]
    fn fat_tree_spec_is_well_formed() {
        check_spec(&FatTree::new(16));
        check_spec(&FatTree::new(64));
        check_spec(&FatTree::new(256));
    }

    #[test]
    fn fat_tree_routing_delivers() {
        check_routing_delivers(&FatTree::new(64), 5);
    }

    #[test]
    fn fat_tree_all_adaptive_choices_deliver() {
        check_all_candidates_deliver(&FatTree::new(16), 3);
        check_all_candidates_deliver(&FatTree::new(64), 5);
    }

    #[test]
    fn fat_tree_paper_distances() {
        // Max internode distance 6 hops for 64 nodes; "the average distance
        // is not much less than that".
        let (avg, max) = hop_profile(&FatTree::new(64));
        assert_eq!(max, 6);
        assert!(avg > 5.0 && avg < 6.0, "avg={avg}");
    }

    #[test]
    fn fat_tree_digit_helpers() {
        assert_eq!(digit(0b1110, 1), 3); // 14 = 32... base 4: 14 = 3*4+2
        assert_eq!(digit(14, 0), 2);
        assert_eq!(digit(14, 1), 3);
        assert_eq!(replace_digit(14, 0, 1), 13);
        assert_eq!(replace_digit(14, 1, 0), 2);
    }

    #[test]
    #[should_panic(expected = "power of 4")]
    fn fat_tree_rejects_bad_sizes() {
        let _ = FatTree::new(60);
    }

    #[test]
    fn faulty_fat_tree_still_delivers_everywhere() {
        // Kill three of four up links on one leaf router and one mid-level
        // link: routing must steer around them.
        let ft = FatTree::new(64).with_dead_up_links([(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 5, 3)]);
        check_routing_delivers(&ft, 5);
        check_all_candidates_deliver(&ft, 5);
    }

    #[test]
    fn faulty_routes_never_use_dead_links() {
        let ft = FatTree::new(64).with_dead_up_links([(0, 0, 0), (0, 0, 1)]);
        let mut out = Vec::new();
        // Leaf router 0 going up (destination outside its subtree).
        ft.route(0, NodeId::new(63), &RouteState::default(), &mut out);
        let ports: Vec<u8> = out.iter().map(|c| c.port).collect();
        assert_eq!(ports, vec![6, 7], "dead up ports 4 and 5 must be filtered");
    }

    #[test]
    #[should_panic(expected = "partitioned")]
    fn killing_every_up_link_is_rejected() {
        let _ = FatTree::new(16).with_dead_up_links([(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)]);
    }

    #[test]
    fn cm5_spec_is_well_formed() {
        check_spec(&Cm5FatTree::new(32));
        check_spec(&Cm5FatTree::new(64));
    }

    #[test]
    fn cm5_routing_delivers() {
        check_routing_delivers(&Cm5FatTree::new(32), 5);
        check_routing_delivers(&Cm5FatTree::new(64), 5);
    }

    #[test]
    fn cm5_all_adaptive_choices_deliver() {
        check_all_candidates_deliver(&Cm5FatTree::new(64), 5);
    }

    #[test]
    fn cm5_has_lower_bisection_than_full_tree() {
        // Count top-level links: the full tree keeps full bandwidth at every
        // level; the CM-5 variant halves it twice.
        let full = FatTree::new(64).spec();
        let cm5 = Cm5FatTree::new(64).spec();
        assert!(cm5.num_internal_links() < full.num_internal_links());
    }

    #[test]
    #[should_panic(expected = "32 or 64")]
    fn cm5_rejects_unsupported_sizes() {
        let _ = Cm5FatTree::new(128);
    }
}
