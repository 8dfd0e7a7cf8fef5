//! Shortest-path routing over the static topology.
//!
//! Routers in the AITF world forward by destination prefix; the protocol
//! crate turns "next hop towards node N" into "next hop towards prefix P"
//! by mapping each prefix to the node that owns it. This module provides
//! the node-to-node half: an all-pairs next-hop table over links that all
//! count one hop, computed by one breadth-first search per source —
//! O(n·(n + e)) time for n nodes and e links, n² `u32` of table.
//!
//! Determinism: among equal-hop paths the table is a pure function of the
//! topology, whatever order the links are listed in. Walking back from the
//! destination, each step goes to the lowest-indexed neighbour one hop
//! nearer the source, and the first hop is the lowest-id link from the
//! source to the node that walk ends on. So the route from 0 to 3 over
//! links `0–2` (l0), `0–1` (l1), `1–3` (l2) and `2–3` (l3) takes l1,
//! through node 1, although l0 has the smaller id.

use crate::buckets::Buckets;
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

    /// Computes the table from an edge list `(a, b, link)`.
    ///
    /// Links are bidirectional and each counts one hop.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a link index does not fit
    /// below `u32::MAX`.
    pub fn compute(n: usize, links: &[(NodeId, NodeId, LinkId)]) -> Self {
        let mut edges: Vec<(u32, u32, u32)> = links
            .iter()
            .map(|&(a, b, id)| {
                assert!(a.0 < n && b.0 < n, "endpoint out of range");
                let id = u32::try_from(id.0)
                    .ok()
                    .filter(|&id| id != Self::NONE)
                    .expect("link index fits below u32::MAX");
                (a.0 as u32, b.0 as u32, id)
            })
            .collect();
        // Sorted once by link id; the counting sort keeps that order, so
        // every node lists its links by id.
        edges.sort_by_key(|&(_, _, id)| id);
        let both_ways = edges
            .iter()
            .flat_map(|&(a, b, id)| [(a as usize, (b, id)), (b as usize, (a, id))]);
        let adj = Buckets::group(n, both_ways);
        let mut table = vec![Self::NONE; n * n];
        let (mut level, mut next) = (Vec::new(), Vec::new());
        for (src, first_link) in table.chunks_exact_mut(n.max(1)).enumerate() {
            level.push(src as u32);
            Self::bfs(src, &adj, first_link, &mut level, &mut next);
        }
        NextHops { n, table }
    }

    /// Breadth-first search from `src`; records, for each destination, the
    /// *first* link out of `src` on the shortest path. A row entry other
    /// than [`NextHops::NONE`] marks a node as reached. Each level is
    /// expanded in ascending node index and each node's links in ascending
    /// id, and a node keeps the first link that reaches it: the module
    /// doc's tie-break. `level` holds `src` on entry; both buffers are
    /// empty on return.
    fn bfs(
        src: usize,
        adj: &Buckets<(u32, u32)>,
        first_link: &mut [u32],
        level: &mut Vec<u32>,
        next: &mut Vec<u32>,
    ) {
        while !level.is_empty() {
            level.sort_unstable();
            for &u in level.iter() {
                let u = u as usize;
                for &(v, link) in adj.of(u) {
                    let v = v as usize;
                    if v != src && first_link[v] == Self::NONE {
                        first_link[v] = if u == src { link } else { first_link[u] };
                        next.push(v as u32);
                    }
                }
            }
            level.clear();
            std::mem::swap(level, next);
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
            (nid(0), nid(1), lid(0)),
            (nid(1), nid(2), lid(1)),
            (nid(2), nid(3), lid(2)),
        ];
        let nh = NextHops::compute(4, &links);
        assert_eq!(nh.next_hop(nid(0), nid(3)), Some(lid(0)));
        assert_eq!(nh.next_hop(nid(1), nid(3)), Some(lid(1)));
        assert_eq!(nh.next_hop(nid(2), nid(3)), Some(lid(2)));
        assert_eq!(nh.next_hop(nid(3), nid(0)), Some(lid(2)));
        assert_eq!(nh.next_hop(nid(0), nid(0)), None);
    }

    #[test]
    fn picks_the_path_of_fewer_hops() {
        // 0 -l0- 1 -l1- 3 (two hops) and 0 -l2- 2 -l3- 4 -l4- 3 (three).
        let links = [
            (nid(0), nid(1), lid(0)),
            (nid(1), nid(3), lid(1)),
            (nid(0), nid(2), lid(2)),
            (nid(2), nid(4), lid(3)),
            (nid(4), nid(3), lid(4)),
        ];
        let nh = NextHops::compute(5, &links);
        assert_eq!(nh.next_hop(nid(0), nid(3)), Some(lid(0)));
        assert_eq!(nh.next_hop(nid(1), nid(3)), Some(lid(1)));
        // From node 4, 0 is two hops through 2 and 1 two hops through 3.
        assert_eq!(nh.next_hop(nid(4), nid(0)), Some(lid(3)));
        assert_eq!(nh.next_hop(nid(4), nid(1)), Some(lid(4)));
    }

    #[test]
    fn disconnected_components_are_unreachable() {
        let links = [(nid(0), nid(1), lid(0))];
        let nh = NextHops::compute(4, &links);
        assert_eq!(nh.next_hop(nid(0), nid(2)), None);
        assert_eq!(nh.next_hop(nid(2), nid(0)), None);
        assert_eq!(nh.next_hop(nid(2), nid(3)), None);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two two-hop paths 0->1->3 and 0->2->3. Node 1 is the lower-indexed
        // of 3's neighbours one hop from 0, so the route goes through it
        // (over l0, which also happens to be the smaller link id) whatever
        // order the edges are listed in.
        let forward = [
            (nid(0), nid(1), lid(0)),
            (nid(1), nid(3), lid(1)),
            (nid(0), nid(2), lid(2)),
            (nid(2), nid(3), lid(3)),
        ];
        let mut reversed = forward;
        reversed.reverse();
        let a = NextHops::compute(4, &forward);
        let b = NextHops::compute(4, &reversed);
        assert_eq!(a.table, b.table);
        assert_eq!(a.next_hop(nid(0), nid(3)), Some(lid(0)));
    }

    #[test]
    fn a_tie_goes_through_the_lower_indexed_node_not_the_lower_link() {
        // The module doc's example: 0 reaches 3 through 1 or 2. The link to
        // node 2 has the smaller id, but node 1 has the smaller index.
        let links = [
            (nid(0), nid(2), lid(0)),
            (nid(0), nid(1), lid(1)),
            (nid(1), nid(3), lid(2)),
            (nid(2), nid(3), lid(3)),
        ];
        let nh = NextHops::compute(4, &links);
        assert_eq!(nh.next_hop(nid(0), nid(3)), Some(lid(1)));
        // Parallel links between the same two nodes: the lower id carries.
        let parallel = [(nid(0), nid(1), lid(5)), (nid(1), nid(0), lid(2))];
        let nh = NextHops::compute(2, &parallel);
        assert_eq!(nh.next_hop(nid(0), nid(1)), Some(lid(2)));
        assert_eq!(nh.next_hop(nid(1), nid(0)), Some(lid(2)));
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn an_endpoint_past_the_node_count_is_rejected() {
        let _ = NextHops::compute(2, &[(nid(0), nid(2), lid(0))]);
    }

    #[test]
    fn star_topology_routes_through_hub() {
        // Hub is node 0; leaves 1..=4.
        let links: Vec<_> = (1..5).map(|i| (nid(0), nid(i), lid(i - 1))).collect();
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    type Edges = Vec<(NodeId, NodeId, LinkId)>;

    /// Random connected graphs with extra, parallel and self-loop links,
    /// listed in a random order.
    fn arb_connected_graph() -> impl Strategy<Value = (usize, Edges)> {
        (1usize..24).prop_flat_map(|n| {
            // A random spanning tree guarantees connectivity; extra random
            // edges add alternative paths, and copies of tree edges add
            // parallel links.
            let tree = proptest::collection::vec(any::<u64>(), n - 1);
            let extras = proptest::collection::vec((0..n, 0..n), 0..2 * n);
            let copies = proptest::collection::vec(any::<u64>(), 0..n);
            let order = proptest::collection::vec(any::<u64>(), 4 * n);
            (Just(n), tree, extras, copies, order).prop_map(
                |(n, parents, extras, copies, order)| {
                    let mut ends: Vec<(usize, usize)> = (1..n)
                        .map(|i| (i, (parents[i - 1] % i as u64) as usize))
                        .collect();
                    let tree_edges = ends.len().max(1) as u64;
                    let copied = copies
                        .iter()
                        .filter_map(|&c| ends.get((c % tree_edges) as usize));
                    let copied: Vec<_> = copied.copied().collect();
                    ends.extend(copied);
                    ends.extend(extras);
                    let mut links: Edges = (ends.iter().enumerate())
                        .map(|(id, &(a, b))| (NodeId(a), NodeId(b), LinkId(id)))
                        .collect();
                    links.sort_by_key(|l| order[l.2 .0]);
                    (n, links)
                },
            )
        })
    }

    /// The unit-weight Dijkstra the breadth-first search replaced, as its
    /// model: heap entries `(hops, node, first link)`, each node's links in
    /// id order, a strict `<` on relaxation.
    fn dijkstra(n: usize, links: &[(NodeId, NodeId, LinkId)]) -> Vec<u32> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b, id) in links {
            adj[a.0].push((b.0, id.0 as u32));
            adj[b.0].push((a.0, id.0 as u32));
        }
        adj.iter_mut().for_each(|l| l.sort_by_key(|&(_, id)| id));
        let mut table = vec![NextHops::NONE; n * n];
        for src in 0..n {
            let (mut dist, mut done) = (vec![u64::MAX; n], vec![false; n]);
            dist[src] = 0;
            let mut heap = BinaryHeap::from([Reverse((0, src, NextHops::NONE))]);
            while let Some(Reverse((d, u, first))) = heap.pop() {
                if std::mem::replace(&mut done[u], true) {
                    continue;
                }
                table[src * n + u] = first;
                for &(v, link) in &adj[u] {
                    if d + 1 < dist[v] {
                        dist[v] = d + 1;
                        let f = if u == src { link } else { first };
                        heap.push(Reverse((d + 1, v, f)));
                    }
                }
            }
        }
        table
    }

    /// Every pair's hop count, by Floyd–Warshall.
    fn hops(n: usize, links: &[(NodeId, NodeId, LinkId)]) -> Vec<u64> {
        let mut d = vec![u64::MAX; n * n];
        (0..n).for_each(|i| d[i * n + i] = 0);
        for &(a, b, _) in links {
            for (x, y) in [(a.0, b.0), (b.0, a.0)] {
                d[x * n + y] = d[x * n + y].min(1);
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
        /// The search's table is the unit-weight Dijkstra's, entry for
        /// entry.
        #[test]
        fn bfs_matches_the_dijkstra_model((n, links) in arb_connected_graph()) {
            prop_assert_eq!(NextHops::compute(n, &links).table, dijkstra(n, &links));
        }

        /// Following next hops from any node reaches any other, loop-free,
        /// in the fewest hops.
        #[test]
        fn next_hops_always_converge((n, links) in arb_connected_graph()) {
            let nh = NextHops::compute(n, &links);
            let best = hops(n, &links);
            for from in 0..n {
                for to in 0..n {
                    if from == to {
                        prop_assert_eq!(nh.next_hop(NodeId(from), NodeId(to)), None);
                        continue;
                    }
                    let (mut cur, mut steps) = (from, 0);
                    while cur != to {
                        let link = nh.next_hop(NodeId(cur), NodeId(to))
                            .expect("connected graph must route");
                        let &(a, b, _) = links.iter().find(|l| l.2 == link).expect("a listed link");
                        prop_assert!(a.0 == cur || b.0 == cur, "link {:?} not at {}", link, cur);
                        cur = if a.0 == cur { b.0 } else { a.0 };
                        steps += 1;
                        prop_assert!(steps <= n, "routing loop from {} to {}", from, to);
                    }
                    prop_assert_eq!(steps as u64, best[from * n + to], "{} to {}", from, to);
                }
            }
        }
    }
}
