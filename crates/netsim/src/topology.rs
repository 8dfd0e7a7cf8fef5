//! Shortest-path routing over the static topology.
//!
//! Routers in the AITF world forward by destination prefix; the protocol
//! crate turns "next hop towards node N" into "next hop towards prefix P"
//! by mapping each prefix to the node that owns it. This module provides
//! the node-to-node half: an all-pairs next-hop table computed with
//! Dijkstra per source over arbitrary positive link weights.
//!
//! Determinism: when two paths tie, the one whose next hop has the smaller
//! `(weight, link id)` wins, so the table is a pure function of the
//! topology.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::link::LinkId;
use crate::node::NodeId;

/// All-pairs next-hop table: `next_hop(from, to)` is the link `from` should
/// forward on to reach `to` by a shortest path.
#[derive(Debug, Clone)]
pub struct NextHops {
    n: usize,
    /// `table[from * n + to]` = outgoing link index, [`NextHops::NONE`]
    /// when unreachable or `from == to`: 4 bytes a pair, the n² a world
    /// routing this way keeps for its lifetime.
    table: Vec<u32>,
}

impl NextHops {
    /// The table entry of a pair with no next hop.
    const NONE: u32 = u32::MAX;

    /// Computes the table from an edge list `(a, b, link, weight)`.
    ///
    /// Links are bidirectional. Weights must be positive.
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero (zero-weight cycles break Dijkstra's
    /// invariants), an endpoint is out of range, or a link index does not
    /// fit below `u32::MAX`.
    pub fn compute(n: usize, links: &[(NodeId, NodeId, LinkId, u64)]) -> Self {
        let mut adj: Vec<Vec<(NodeId, u32, u64)>> = vec![Vec::new(); n];
        for &(a, b, id, w) in links {
            assert!(w > 0, "link weights must be positive");
            assert!(a.0 < n && b.0 < n, "endpoint out of range");
            let id = u32::try_from(id.0)
                .ok()
                .filter(|&id| id != Self::NONE)
                .expect("link index fits below u32::MAX");
            adj[a.0].push((b, id, w));
            adj[b.0].push((a, id, w));
        }
        // Deterministic neighbour order.
        for neighbours in &mut adj {
            neighbours.sort_by_key(|&(_, id, w)| (w, id));
        }
        let mut table = vec![Self::NONE; n * n];
        // One source's distances at a time; only the next hops are kept.
        let mut dist = vec![u64::MAX; n];
        for (src, first_link) in table.chunks_exact_mut(n.max(1)).enumerate() {
            dist.fill(u64::MAX);
            Self::dijkstra(src, &adj, first_link, &mut dist);
        }
        NextHops { n, table }
    }

    /// Dijkstra from `src`; records, for each destination, the *first* link
    /// out of `src` on the shortest path.
    fn dijkstra(
        src: usize,
        adj: &[Vec<(NodeId, u32, u64)>],
        first_link: &mut [u32],
        dist: &mut [u64],
    ) {
        let n = adj.len();
        let mut done = vec![false; n];
        dist[src] = 0;
        // Heap entries: (distance, node, first link taken out of src).
        let mut heap: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();
        heap.push(Reverse((0, src, Self::NONE)));
        while let Some(Reverse((d, u, first))) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            first_link[u] = first;
            for &(v, link, w) in &adj[u] {
                let nd = d + w;
                if nd < dist[v.0] {
                    dist[v.0] = nd;
                    let f = if u == src { link } else { first };
                    heap.push(Reverse((nd, v.0, f)));
                }
            }
        }
    }

    /// The link `from` forwards on towards `to`; `None` if unreachable or
    /// `from == to`.
    #[inline]
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        let link = self.table[from.0 * self.n + to.0];
        (link != Self::NONE).then_some(LinkId(link as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId(i)
    }

    fn lid(i: usize) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn line_routes_through_neighbours() {
        // 0 -l0- 1 -l1- 2 -l2- 3
        let links = [
            (nid(0), nid(1), lid(0), 1),
            (nid(1), nid(2), lid(1), 1),
            (nid(2), nid(3), lid(2), 1),
        ];
        let nh = NextHops::compute(4, &links);
        assert_eq!(nh.next_hop(nid(0), nid(3)), Some(lid(0)));
        assert_eq!(nh.next_hop(nid(1), nid(3)), Some(lid(1)));
        assert_eq!(nh.next_hop(nid(2), nid(3)), Some(lid(2)));
        assert_eq!(nh.next_hop(nid(3), nid(0)), Some(lid(2)));
        assert_eq!(nh.next_hop(nid(0), nid(0)), None);
    }

    #[test]
    fn picks_shorter_of_two_paths() {
        // 0 -(w1)- 1 -(w1)- 3 and 0 -(w5)- 2 -(w1)- 3.
        let links = [
            (nid(0), nid(1), lid(0), 1),
            (nid(1), nid(3), lid(1), 1),
            (nid(0), nid(2), lid(2), 5),
            (nid(2), nid(3), lid(3), 1),
        ];
        let nh = NextHops::compute(4, &links);
        assert_eq!(nh.next_hop(nid(0), nid(3)), Some(lid(0)));
        assert_eq!(nh.next_hop(nid(1), nid(3)), Some(lid(1)));
        // Node 2 goes round through 3 (weight 1) rather than 0 (weight 5).
        assert_eq!(nh.next_hop(nid(2), nid(0)), Some(lid(3)));
    }

    #[test]
    fn disconnected_components_are_unreachable() {
        let links = [(nid(0), nid(1), lid(0), 1)];
        let nh = NextHops::compute(4, &links);
        assert_eq!(nh.next_hop(nid(0), nid(2)), None);
        assert_eq!(nh.next_hop(nid(2), nid(0)), None);
        assert_eq!(nh.next_hop(nid(2), nid(3)), None);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two equal-cost paths 0->1->3 and 0->2->3; the smaller link id from
        // node 0 must win regardless of edge-list order.
        let forward = [
            (nid(0), nid(1), lid(0), 1),
            (nid(1), nid(3), lid(1), 1),
            (nid(0), nid(2), lid(2), 1),
            (nid(2), nid(3), lid(3), 1),
        ];
        let mut reversed = forward;
        reversed.reverse();
        let a = NextHops::compute(4, &forward);
        let b = NextHops::compute(4, &reversed);
        assert_eq!(a.next_hop(nid(0), nid(3)), b.next_hop(nid(0), nid(3)));
        assert_eq!(a.next_hop(nid(0), nid(3)), Some(lid(0)));
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        let _ = NextHops::compute(2, &[(nid(0), nid(1), lid(0), 0)]);
    }

    #[test]
    fn star_topology_routes_through_hub() {
        // Hub is node 0; leaves 1..=4.
        let links: Vec<_> = (1..5).map(|i| (nid(0), nid(i), lid(i - 1), 1)).collect();
        let nh = NextHops::compute(5, &links);
        for i in 1..5 {
            for j in 1..5 {
                if i != j {
                    // Up to the hub, then down: two hops.
                    assert_eq!(nh.next_hop(nid(i), nid(j)), Some(lid(i - 1)));
                    assert_eq!(nh.next_hop(nid(0), nid(j)), Some(lid(j - 1)));
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random connected graphs with positive weights.
    fn arb_connected_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, LinkId, u64)>)> {
        (2usize..20).prop_flat_map(|n| {
            // A random spanning tree guarantees connectivity; extra random
            // edges add alternative paths.
            let tree = proptest::collection::vec(any::<u64>(), n - 1);
            let extras = proptest::collection::vec((0..n, 0..n, 1u64..10), 0..n);
            (Just(n), tree, extras).prop_map(|(n, parents, extras)| {
                let mut links = Vec::new();
                for i in 1..n {
                    let parent = (parents[i - 1] % i as u64) as usize;
                    links.push((
                        NodeId(i),
                        NodeId(parent),
                        LinkId(links.len()),
                        1 + parents[i - 1] % 5,
                    ));
                }
                for (a, b, w) in extras {
                    if a != b {
                        links.push((NodeId(a), NodeId(b), LinkId(links.len()), w));
                    }
                }
                (n, links)
            })
        })
    }

    /// Every pair's shortest-path weight, by Floyd–Warshall.
    fn shortest(n: usize, links: &[(NodeId, NodeId, LinkId, u64)]) -> Vec<u64> {
        let mut d = vec![u64::MAX; n * n];
        (0..n).for_each(|i| d[i * n + i] = 0);
        for &(a, b, _, w) in links {
            for (x, y) in [(a.0, b.0), (b.0, a.0)] {
                d[x * n + y] = d[x * n + y].min(w);
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = d[i * n + k].saturating_add(d[k * n + j]);
                    d[i * n + j] = d[i * n + j].min(via);
                }
            }
        }
        d
    }

    proptest! {
        /// Following next hops from any node reaches any other, loop-free,
        /// over a path of the shortest weight.
        #[test]
        fn next_hops_always_converge((n, links) in arb_connected_graph()) {
            let nh = NextHops::compute(n, &links);
            let best = shortest(n, &links);
            for from in 0..n {
                for to in 0..n {
                    if from == to {
                        prop_assert_eq!(nh.next_hop(NodeId(from), NodeId(to)), None);
                        continue;
                    }
                    let (mut cur, mut steps, mut weight) = (from, 0, 0);
                    while cur != to {
                        let link = nh.next_hop(NodeId(cur), NodeId(to))
                            .expect("connected graph must route");
                        let (a, b, _, w) = links[link.0];
                        cur = if a.0 == cur { b.0 } else { a.0 };
                        (steps, weight) = (steps + 1, weight + w);
                        prop_assert!(steps <= n, "routing loop from {} to {}", from, to);
                    }
                    prop_assert_eq!(weight, best[from * n + to], "{} to {}", from, to);
                }
            }
        }
    }
}
