//! Deterministic graph partitioner for sharded simulation.
//!
//! A [`PartitionSpec`] describes the node graph as a *group forest*: groups
//! of nodes (for AITF worlds, one group per network — the border router and
//! its hosts) arranged in the provider tree. [`partition`] cuts that forest
//! into at most `k` shards so that every group stays whole, heavy subtrees
//! split before light ones, and the result is a pure function of the inputs
//! — no randomness, no hash-map iteration order.
//!
//! "Heavy" is measured in **load**, not nodes: every group carries the
//! event-loop work its owner expects of it ([`PartitionSpec::with_loads`];
//! its member count when nobody says), because a shard's wall time is the
//! events it dispatches and an idle node dispatches none.
//!
//! The partition feeds the conservative-lookahead shard scheduler in
//! [`crate::sim`]: shards only exchange events at window barriers spaced by
//! the minimum propagation delay over *cut links* (links whose endpoints
//! land in different shards). That lookahead must be strictly positive. A
//! zero-delay link between a group and its *parent* group is therefore
//! never cut — the child is folded into the parent's piece before anything
//! is weighed — and a zero-delay link the forest cannot keep inside one
//! shard (between two groups of a flat spec, between siblings, a peering
//! shortcut) is a [`PartitionError`] when its ends land apart, rather than
//! a silent correctness hazard.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::link::LinkId;
use crate::node::NodeId;
use crate::time::SimDuration;

/// The node graph described as a forest of node groups.
///
/// Groups are the atomic placement unit: the partitioner never splits a
/// group across shards. `parents[g]` arranges groups into a forest (e.g.
/// the AITF provider tree); subtrees are the preferred cut boundaries.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    groups: Vec<Vec<NodeId>>,
    parents: Vec<Option<usize>>,
    /// Expected event-loop work per group, in units of one idle node.
    loads: Vec<u64>,
}

impl PartitionSpec {
    /// Builds a spec from explicit groups and a parent forest.
    ///
    /// # Panics
    ///
    /// Panics if `groups` and `parents` disagree in length.
    pub fn new(groups: Vec<Vec<NodeId>>, parents: Vec<Option<usize>>) -> Self {
        assert_eq!(
            groups.len(),
            parents.len(),
            "one parent slot per group required"
        );
        let loads = groups.iter().map(|g| g.len() as u64).collect();
        PartitionSpec {
            groups,
            parents,
            loads,
        }
    }

    /// A structureless spec: every node is its own parentless group. Useful
    /// for generic simulations without a provider hierarchy.
    pub fn flat(node_count: usize) -> Self {
        PartitionSpec::new(
            (0..node_count).map(|i| vec![NodeId(i)]).collect(),
            vec![None; node_count],
        )
    }

    /// Replaces the per-group loads — the weights [`partition`] balances.
    /// A spec that never calls this weighs each group by its member count.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one load per group.
    pub fn with_loads(mut self, loads: Vec<u64>) -> Self {
        assert_eq!(
            loads.len(),
            self.groups.len(),
            "one load per group required"
        );
        self.loads = loads;
        self
    }

    /// The node groups.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// The group forest (`None` = root).
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parents
    }

    /// The per-group loads.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }
}

/// Why a partition could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A link with zero propagation delay crosses shards; the conservative
    /// window protocol needs strictly positive lookahead.
    ZeroDelayCut(LinkId),
    /// A node in range appears in no group.
    Ungrouped(NodeId),
    /// A node appears in more than one group.
    DuplicateNode(NodeId),
    /// A group id referenced by a node or parent slot is out of range, or a
    /// parent chain is cyclic.
    InvalidForest(usize),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroDelayCut(l) => write!(
                f,
                "link {l:?} has zero propagation delay but crosses shards; \
                 conservative lookahead must be > 0"
            ),
            PartitionError::Ungrouped(n) => write!(f, "node {n:?} appears in no group"),
            PartitionError::DuplicateNode(n) => {
                write!(f, "node {n:?} appears in more than one group")
            }
            PartitionError::InvalidForest(g) => {
                write!(
                    f,
                    "group {g} has an out-of-range parent or lies on a parent cycle"
                )
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// The result of partitioning: a shard assignment plus the derived
/// cross-shard schedule parameters.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Number of shards actually produced (≤ the requested count; 1 means
    /// the simulation stays single-threaded).
    pub shards: usize,
    /// Owning shard of every node.
    pub shard_of: Arc<Vec<u16>>,
    /// Exactly the links whose endpoints fall in different shards, in link
    /// id order.
    pub cut_links: Vec<LinkId>,
    /// Minimum propagation delay over `cut_links` — the conservative
    /// lookahead. `None` iff there are no cut links.
    pub lookahead: Option<SimDuration>,
}

impl Partition {
    /// The trivial single-shard partition over `node_count` nodes.
    pub fn identity(node_count: usize) -> Self {
        Partition {
            shards: 1,
            shard_of: Arc::new(vec![0; node_count]),
            cut_links: Vec::new(),
            lookahead: None,
        }
    }
}

/// One work unit during splitting: a group subtree, or a single group whose
/// child subtrees have been split off.
#[derive(Clone, Copy)]
struct Piece {
    root: usize,
    /// `true` once the piece has been reduced to its root group alone.
    solo: bool,
    weight: u64,
}

/// A splittable piece keeps being exploded while it outweighs this
/// fraction of the ideal share `total load / k`, however many pieces there
/// already are. Heaviest-first packing leaves the fullest shard at most
/// one piece above the ideal share, so the fraction bounds the imbalance
/// splitting could still have removed (≤ 25 %), and every exploded piece
/// is this heavy, so at most `4k` are exploded per forest level. The
/// 105,800-host megatree reads the same cut, and the same 43 / 57 % event
/// split, for every fraction from 1/16 to 1: its one loaded provider
/// outweighs the whole ideal share and nothing else reaches a sixteenth.
const SPLIT_FRACTION: (u64, u64) = (1, 4);

/// Cuts the node graph into at most `k` shards.
///
/// Splitting is deterministic. A group whose tree edge to its parent has
/// zero propagation delay is first folded into the parent (that edge can
/// never be a cut). Pieces start as the root subtrees of the group forest,
/// weighed by load; the heaviest splittable piece (ties: lowest root group
/// id) is repeatedly exploded into its root group plus its child subtrees
/// while there are fewer than `k` pieces or it outweighs
/// `SPLIT_FRACTION` (1/4) of the ideal share; pieces are then packed
/// heaviest-first onto the least-loaded shard (ties: lowest shard id).
///
/// `links` is indexed by [`LinkId`]: `(a, b, propagation_delay)`.
pub fn partition(
    k: usize,
    node_count: usize,
    links: &[(NodeId, NodeId, SimDuration)],
    spec: &PartitionSpec,
) -> Result<Partition, PartitionError> {
    let groups = &spec.groups;
    let parents = &spec.parents;
    let g = groups.len();

    // Every node in exactly one group.
    let mut group_of = vec![usize::MAX; node_count];
    for (gi, members) in groups.iter().enumerate() {
        for &n in members {
            if n.0 >= node_count {
                return Err(PartitionError::InvalidForest(gi));
            }
            if group_of[n.0] != usize::MAX {
                return Err(PartitionError::DuplicateNode(n));
            }
            group_of[n.0] = gi;
        }
    }
    if let Some(i) = group_of.iter().position(|&gi| gi == usize::MAX) {
        return Err(PartitionError::Ungrouped(NodeId(i)));
    }

    // Validate the forest and collect children lists.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); g];
    let mut roots: Vec<usize> = Vec::new();
    for (gi, &p) in parents.iter().enumerate() {
        match p {
            None => roots.push(gi),
            Some(pi) if pi < g && pi != gi => children[pi].push(gi),
            Some(_) => return Err(PartitionError::InvalidForest(gi)),
        }
    }
    // Reachability from the roots doubles as the cycle check; `order`
    // lists every parent before its children.
    let mut order: Vec<usize> = Vec::with_capacity(g);
    let mut stack: Vec<usize> = roots.clone();
    while let Some(gi) = stack.pop() {
        order.push(gi);
        stack.extend(children[gi].iter().copied());
    }
    if order.len() != g {
        let seen: std::collections::HashSet<usize> = order.iter().copied().collect();
        let orphan = (0..g).find(|gi| !seen.contains(gi)).expect("missing group");
        return Err(PartitionError::InvalidForest(orphan));
    }

    if k <= 1 || node_count == 0 {
        return Ok(Partition::identity(node_count));
    }
    assert!(k < u16::MAX as usize, "shard count must fit in u16");

    // Fold every group glued to its parent by a zero-delay link into the
    // parent's representative: from here on the forest is the one over
    // representatives (`children`, `load`), and a folded group follows
    // `rep` to its shard at the end.
    let mut glued = vec![false; g];
    for &(a, b, delay) in links {
        if delay.is_zero() {
            let (ga, gb) = (group_of[a.0], group_of[b.0]);
            if parents[ga] == Some(gb) {
                glued[ga] = true;
            } else if parents[gb] == Some(ga) {
                glued[gb] = true;
            }
        }
    }
    let mut rep: Vec<usize> = (0..g).collect();
    let mut load = spec.loads.clone();
    for c in &mut children {
        c.clear();
    }
    for &gi in &order {
        if let Some(p) = parents[gi] {
            if glued[gi] {
                rep[gi] = rep[p];
                load[rep[p]] += spec.loads[gi];
            } else {
                children[rep[p]].push(gi);
            }
        }
    }
    let mut subtree_weight = vec![0u64; g];
    for &gi in order.iter().rev().filter(|&&gi| rep[gi] == gi) {
        subtree_weight[gi] =
            load[gi] + children[gi].iter().map(|&c| subtree_weight[c]).sum::<u64>();
    }
    let total: u64 = roots.iter().map(|&r| subtree_weight[r]).sum();

    // Explode the heaviest splittable piece while there are fewer than k
    // pieces or it is still heavy enough to unbalance the packing.
    let mut pieces: Vec<Piece> = Vec::new();
    let mut splittable: BinaryHeap<(u64, Reverse<usize>)> = BinaryHeap::new();
    let add = |root: usize, pieces: &mut Vec<Piece>, splittable: &mut BinaryHeap<_>| {
        if children[root].is_empty() {
            pieces.push(Piece {
                root,
                solo: true,
                weight: load[root],
            });
        } else {
            splittable.push((subtree_weight[root], Reverse(root)));
        }
    };
    for &r in &roots {
        add(r, &mut pieces, &mut splittable);
    }
    let (num, den) = SPLIT_FRACTION;
    while let Some(&(weight, Reverse(root))) = splittable.peek() {
        let heavy =
            u128::from(weight) * k as u128 * u128::from(den) > u128::from(total) * u128::from(num);
        if pieces.len() + splittable.len() >= k && !heavy {
            break;
        }
        splittable.pop();
        pieces.push(Piece {
            root,
            solo: true,
            weight: load[root],
        });
        for &c in &children[root] {
            add(c, &mut pieces, &mut splittable);
        }
    }
    pieces.extend(splittable.into_iter().map(|(weight, Reverse(root))| Piece {
        root,
        solo: false,
        weight,
    }));

    // Pack pieces onto shards: heaviest first onto the lightest shard.
    let shard_count = k.min(pieces.len()).max(1);
    if shard_count == 1 {
        return Ok(Partition::identity(node_count));
    }
    pieces.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.root.cmp(&b.root)));
    let mut shard_load = vec![0u64; shard_count];
    let mut shard_of_group = vec![0u16; g];
    for p in &pieces {
        let s = (0..shard_count)
            .min_by_key(|&s| (shard_load[s], s))
            .expect("at least one shard");
        shard_load[s] += p.weight;
        if p.solo {
            shard_of_group[p.root] = s as u16;
        } else {
            let mut stack = vec![p.root];
            while let Some(gi) = stack.pop() {
                shard_of_group[gi] = s as u16;
                stack.extend(children[gi].iter().copied());
            }
        }
    }
    let mut shard_of = vec![0u16; node_count];
    for (i, s) in shard_of.iter_mut().enumerate() {
        *s = shard_of_group[rep[group_of[i]]];
    }

    // Cut links and the conservative lookahead.
    let mut cut_links = Vec::new();
    let mut lookahead: Option<SimDuration> = None;
    for (i, &(a, b, delay)) in links.iter().enumerate() {
        if shard_of[a.0] != shard_of[b.0] {
            if delay.is_zero() {
                return Err(PartitionError::ZeroDelayCut(LinkId(i)));
            }
            cut_links.push(LinkId(i));
            lookahead = Some(match lookahead {
                Some(l) if l <= delay => l,
                _ => delay,
            });
        }
    }

    Ok(Partition {
        shards: shard_count,
        shard_of: Arc::new(shard_of),
        cut_links,
        lookahead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<usize>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    /// A two-level tree of groups: root (1 node) with `n` children of
    /// `size` nodes each. Returns (spec, node_count, uplinks).
    fn star_spec(
        n: usize,
        size: usize,
    ) -> (PartitionSpec, usize, Vec<(NodeId, NodeId, SimDuration)>) {
        let mut groups = vec![vec![NodeId(0)]];
        let mut parents = vec![None];
        let mut links = Vec::new();
        let mut next = 1;
        for _ in 0..n {
            groups.push(ids(next..next + size));
            parents.push(Some(0));
            links.push((NodeId(0), NodeId(next), SimDuration::from_millis(10)));
            next += size;
        }
        (PartitionSpec::new(groups, parents), next, links)
    }

    #[test]
    fn k1_is_identity() {
        let (spec, n, links) = star_spec(4, 3);
        let p = partition(1, n, &links, &spec).unwrap();
        assert_eq!(p.shards, 1);
        assert!(p.shard_of.iter().all(|&s| s == 0));
        assert!(p.cut_links.is_empty());
        assert_eq!(p.lookahead, None);
    }

    #[test]
    fn splits_a_star_into_k_shards() {
        let (spec, n, links) = star_spec(4, 5);
        let p = partition(4, n, &links, &spec).unwrap();
        assert_eq!(p.shards, 4);
        // Every node placed, every shard populated.
        let mut pop = vec![0usize; p.shards];
        for &s in p.shard_of.iter() {
            pop[s as usize] += 1;
        }
        assert!(pop.iter().all(|&c| c > 0));
        // Groups stay whole: nodes 1..6 (first child net) share a shard.
        let s = p.shard_of[1];
        assert!((1..6).all(|i| p.shard_of[i] == s));
        // Cut links are exactly the links crossing shards, and the
        // lookahead is their min delay.
        let expect: Vec<LinkId> = links
            .iter()
            .enumerate()
            .filter(|(_, (a, b, _))| p.shard_of[a.0] != p.shard_of[b.0])
            .map(|(i, _)| LinkId(i))
            .collect();
        assert_eq!(p.cut_links, expect);
        assert!(!expect.is_empty());
        assert_eq!(p.lookahead, Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn zero_delay_uplink_is_never_cut() {
        // One spoke hangs off the hub on a zero-delay uplink: it is folded
        // into the hub's piece, so the star still partitions.
        let (spec, n, mut links) = star_spec(3, 2);
        links[1].2 = SimDuration::ZERO;
        let p = partition(3, n, &links, &spec).unwrap();
        assert_eq!(p.shards, 3);
        let (hub, spoke) = (links[1].0, links[1].1);
        assert_eq!(p.shard_of[spoke.0], p.shard_of[hub.0]);
        assert!(!p.cut_links.contains(&LinkId(1)));
        assert_eq!(p.lookahead, Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn zero_delay_cut_is_rejected() {
        // A zero-delay link between two sibling groups (a peering
        // shortcut) is no tree edge: nothing keeps its ends together.
        let (spec, n, mut links) = star_spec(3, 2);
        links.push((NodeId(1), NodeId(3), SimDuration::ZERO));
        let err = partition(3, n, &links, &spec).unwrap_err();
        assert_eq!(err, PartitionError::ZeroDelayCut(LinkId(3)));
        // With one shard the zero-delay link is never cut.
        assert!(partition(1, n, &links, &spec).is_ok());
    }

    #[test]
    fn loads_move_the_cut_to_where_the_work_is() {
        // Four equal spokes, all the work in the first and third: packed
        // by node count those two share a shard, packed by load they
        // never do.
        let (spec, n, links) = star_spec(4, 5);
        let by_nodes = partition(2, n, &links, &spec).unwrap();
        assert_eq!(by_nodes.shard_of[1], by_nodes.shard_of[11]);
        let spec = spec.with_loads(vec![1, 500, 5, 500, 5]);
        let p = partition(2, n, &links, &spec).unwrap();
        assert_eq!(p.shards, 2);
        assert_ne!(p.shard_of[1], p.shard_of[11]);
    }

    #[test]
    fn a_heavy_subtree_is_split_even_with_k_pieces_in_hand() {
        // hub → {a → {a1, a2}, b}: three pieces already cover k = 2, but
        // `a` carries nearly all the load, so it is exploded and its two
        // children land apart.
        let groups = (0..5).map(|i| vec![NodeId(i)]).collect();
        let parents = vec![None, Some(0), Some(0), Some(1), Some(1)];
        let ms = SimDuration::from_millis(1);
        let links = [(0, 1), (0, 2), (1, 3), (1, 4)].map(|(a, b)| (NodeId(a), NodeId(b), ms));
        let spec = PartitionSpec::new(groups, parents).with_loads(vec![1, 1, 1, 100, 100]);
        let p = partition(2, 5, &links, &spec).unwrap();
        assert_ne!(p.shard_of[3], p.shard_of[4]);
    }

    #[test]
    fn requesting_more_shards_than_groups_saturates() {
        let (spec, n, links) = star_spec(2, 2);
        let p = partition(16, n, &links, &spec).unwrap();
        assert!(p.shards <= 3, "root + two leaves = at most 3 pieces");
        assert!(p.shards >= 2);
    }

    #[test]
    fn ungrouped_and_duplicate_nodes_are_errors() {
        let spec = PartitionSpec::new(vec![vec![NodeId(0)]], vec![None]);
        assert_eq!(
            partition(2, 2, &[], &spec).unwrap_err(),
            PartitionError::Ungrouped(NodeId(1))
        );
        let dup = PartitionSpec::new(
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1)]],
            vec![None, None],
        );
        assert_eq!(
            partition(2, 2, &[], &dup).unwrap_err(),
            PartitionError::DuplicateNode(NodeId(1))
        );
    }

    #[test]
    fn cyclic_parents_are_rejected() {
        let spec = PartitionSpec::new(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            vec![Some(1), Some(0)],
        );
        assert!(matches!(
            partition(2, 2, &[], &spec).unwrap_err(),
            PartitionError::InvalidForest(_)
        ));
    }

    #[test]
    fn deterministic_output() {
        let (spec, n, links) = star_spec(7, 4);
        let a = partition(4, n, &links, &spec).unwrap();
        let b = partition(4, n, &links, &spec).unwrap();
        assert_eq!(a.shard_of, b.shard_of);
        assert_eq!(a.cut_links, b.cut_links);
        assert_eq!(a.lookahead, b.lookahead);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    type Links = Vec<(NodeId, NodeId, SimDuration)>;

    /// Random group forest + loads + links strategy. Groups get 1..=4
    /// nodes and a load of 0..1000; each non-first group picks a parent
    /// among earlier groups (or none), which guarantees an acyclic forest,
    /// and hangs off it on an uplink that has zero delay one time in four.
    /// The other links join random node pairs with a positive delay.
    /// Returns (spec without loads, loads, node count, links).
    fn forest() -> impl Strategy<Value = (PartitionSpec, Vec<u64>, usize, Links)> {
        (
            proptest::collection::vec((1usize..=4, any::<u64>()), 1..12),
            proptest::collection::vec(any::<u64>(), 0..40),
        )
            .prop_map(|(group_seeds, link_seeds)| {
                let mut groups = Vec::new();
                let mut parents = Vec::new();
                let mut loads = Vec::new();
                let mut links: Links = Vec::new();
                let mut next = 0usize;
                for (gi, &(size, seed)) in group_seeds.iter().enumerate() {
                    groups.push((next..next + size).map(NodeId).collect::<Vec<_>>());
                    loads.push(seed % 1000);
                    // Deterministic pseudo-parent from the group index.
                    parents.push(if gi == 0 || gi % 3 == 0 {
                        None
                    } else {
                        Some((gi * 7 + 3) % gi)
                    });
                    if let Some(p) = parents[gi] {
                        let delay = if (seed >> 32) % 4 == 0 { 0 } else { 1_000 };
                        links.push((groups[p][0], NodeId(next), SimDuration::from_nanos(delay)));
                    }
                    next += size;
                }
                let n = next;
                links.extend(link_seeds.iter().filter_map(|&s| {
                    let a = (s % n as u64) as usize;
                    let b = ((s >> 16) % n as u64) as usize;
                    let delay = 1 + (s >> 32) % 1_000_000;
                    (a != b).then(|| (NodeId(a), NodeId(b), SimDuration::from_nanos(delay)))
                }));
                (PartitionSpec::new(groups, parents), loads, n, links)
            })
    }

    proptest! {
        /// Every node lands in exactly one shard, shard ids are dense,
        /// groups stay whole, a zero-delay uplink never fails the
        /// partition and is never cut, cut links are exactly the
        /// inter-shard links, the lookahead is the minimum cut-link delay
        /// and strictly positive, the output is a pure function of the
        /// input, and K=1 is the identity.
        #[test]
        fn partition_invariants((spec, loads, n, links) in forest(), k in 1usize..=6) {
            let spec = spec.with_loads(loads);
            let p = partition(k, n, &links, &spec).unwrap();
            let again = partition(k, n, &links, &spec).unwrap();
            prop_assert_eq!(&p.shard_of, &again.shard_of);
            prop_assert_eq!(p.shard_of.len(), n);
            prop_assert!(p.shards >= 1 && p.shards <= k.max(1));
            prop_assert!(p.shard_of.iter().all(|&s| (s as usize) < p.shards));
            // Groups are atomic.
            for g in spec.groups() {
                if let Some(&first) = g.first() {
                    prop_assert!(g.iter().all(|&m| p.shard_of[m.0] == p.shard_of[first.0]));
                }
            }
            // Cut links are exactly the inter-shard links, in id order.
            let expect: Vec<LinkId> = links
                .iter()
                .enumerate()
                .filter(|(_, (a, b, _))| p.shard_of[a.0] != p.shard_of[b.0])
                .map(|(i, _)| LinkId(i))
                .collect();
            prop_assert_eq!(&p.cut_links, &expect);
            // Lookahead = min cut delay, strictly positive; None iff no cuts.
            let min_delay = expect.iter().map(|l| links[l.0].2).min();
            prop_assert_eq!(p.lookahead, min_delay);
            if let Some(l) = p.lookahead {
                prop_assert!(!l.is_zero());
            }
            if k == 1 {
                prop_assert_eq!(p.shards, 1);
                prop_assert!(p.shard_of.iter().all(|&s| s == 0));
                prop_assert!(p.cut_links.is_empty());
                prop_assert_eq!(p.lookahead, None);
            }
        }

        /// A spec that never set loads partitions exactly like one whose
        /// loads are its member counts.
        #[test]
        fn absent_loads_are_member_counts((spec, _, n, links) in forest(), k in 1usize..=6) {
            let counts = spec.groups().iter().map(|g| g.len() as u64).collect();
            let a = partition(k, n, &links, &spec).unwrap();
            let b = partition(k, n, &links, &spec.clone().with_loads(counts)).unwrap();
            prop_assert_eq!(a.shard_of, b.shard_of);
        }

        /// The fullest shard holds at most the ideal share plus one piece
        /// that is not split further: a lone group (with what zero-delay
        /// uplinks glue to it) or a subtree under the split fraction.
        #[test]
        fn the_fullest_shard_is_one_piece_above_ideal(
            (spec, loads, n, links) in forest(),
            k in 2usize..=6,
        ) {
            let spec = spec.with_loads(loads);
            let p = partition(k, n, &links, &spec).unwrap();
            // Loads of the groups as folded: a glued child counts towards
            // the first ancestor that is not glued (parents come first).
            let glued = |gi: usize| spec.parents()[gi].is_some_and(|pi| {
                links.iter().any(|&(a, b, d)| {
                    d.is_zero() && a == spec.groups()[pi][0] && b == spec.groups()[gi][0]
                })
            });
            let mut folded = spec.loads().to_vec();
            for gi in (0..folded.len()).rev() {
                if glued(gi) {
                    let pi = spec.parents()[gi].expect("glued groups have a parent");
                    folded[pi] += std::mem::take(&mut folded[gi]);
                }
            }
            let mut per_shard = vec![0u64; p.shards];
            for (g, &load) in spec.groups().iter().zip(spec.loads()) {
                per_shard[p.shard_of[g[0].0] as usize] += load;
            }
            let (k, total) = (k as u64, spec.loads().iter().sum::<u64>());
            let (num, den) = SPLIT_FRACTION;
            let piece = (*folded.iter().max().expect("a group")).max(total * num / (k * den));
            let fullest = *per_shard.iter().max().expect("a shard");
            prop_assert!(fullest * k <= total + piece * k, "{per_shard:?} of {total}, piece {piece}");
        }
    }
}
