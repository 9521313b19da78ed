//! The part system: what Algorithm 2's greedy loop moves around.
//!
//! After compression and per-component minimum cuts, each user's
//! application is a collection of *parts*: the pinned (always-local)
//! functions, plus one or two node sets per connected component — the
//! two halves of that component's cut. The greedy stage assigns each
//! part to the device or the server; this module holds the bookkeeping
//! that makes a part move priceable in `O(1)`.

use mec_graph::{Bipartition, Graph, NodeId, Side};
use mec_labelprop::CompressionOutcome;
use std::ops::Range;

/// One movable part: a set of functions of one user that the cut stage
/// decided must stay together.
#[derive(Debug, Clone)]
pub struct Part {
    /// Owning user (scenario index).
    pub user: usize,
    /// Component record this part belongs to.
    pub component: usize,
    /// Nodes of the user's original graph in this part.
    pub nodes: Vec<NodeId>,
    /// Total computation weight of the part.
    pub work: f64,
    /// Communication weight to the user's pinned (always-local) nodes.
    pub pinned_cut: f64,
    /// Number of edges to pinned nodes.
    pub pinned_crossings: usize,
    /// Current assignment. Algorithm 2 starts every part remote.
    pub side: Side,
}

/// One connected component after compression: its one or two parts and
/// the communication between them.
#[derive(Debug, Clone)]
pub struct ComponentRec {
    /// Owning user.
    pub user: usize,
    /// First part index.
    pub part1: usize,
    /// Second part index (absent when the cut was trivial).
    pub part2: Option<usize>,
    /// Communication weight between the two parts (0 when single).
    pub cross_weight: f64,
    /// Number of edges between the two parts.
    pub cross_count: usize,
}

/// All parts of all users, with the coupling structure needed to price
/// moves incrementally.
///
/// Records are grouped by user in user order: user `u`'s parts are one
/// contiguous range, and so are their components. Every component has
/// at least one part, so the part ranges alone locate both.
#[derive(Debug, Clone, Default)]
pub struct PartSystem {
    parts: Vec<Part>,
    components: Vec<ComponentRec>,
    /// Per user: total pinned (always-local) computation weight.
    pinned_work: Vec<f64>,
    /// Per user: node count of the original graph (to emit plans).
    node_counts: Vec<usize>,
    /// Per user: one past their last part; their parts start where the
    /// previous user's end.
    part_ends: Vec<usize>,
}

/// Builds one user's parts and components onto the ends of `parts` and
/// `components`, numbered as if those vectors began at part `p0` and
/// component `c0` of the whole system; returns the user's pinned work.
///
/// Every part starts on [`Side::Remote`], then each split component
/// puts one half on the device (see [`PartSystem::add_user`]).
fn build_user(
    parts: &mut Vec<Part>,
    components: &mut Vec<ComponentRec>,
    (user, p0, c0): (usize, usize, usize),
    graph: &Graph,
    compression: &CompressionOutcome,
    quotient_cuts: &[Bipartition],
) -> f64 {
    assert_eq!(
        quotient_cuts.len(),
        compression.components.len(),
        "one quotient cut per compressed component"
    );
    let first_comp = components.len();

    // map: original node -> part index (offloadable nodes only)
    const NO_PART: usize = usize::MAX;
    let mut part_of = vec![NO_PART; graph.node_count()];

    for (comp, qcut) in compression.components.iter().zip(quotient_cuts) {
        let full = comp.quotient.expand(qcut);
        // split subgraph-local nodes by side, then map to original ids
        let mut side_nodes: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
        for local in comp.subgraph.graph().node_ids() {
            let bucket = match full.side(local) {
                Side::Local => 0,
                Side::Remote => 1,
            };
            side_nodes[bucket].push(comp.subgraph.parent_of(local));
        }
        let comp_idx = c0 + components.len();
        let mut part_ids = [None; 2];
        for (slot, nodes) in side_nodes
            .into_iter()
            .filter(|ns| !ns.is_empty())
            .enumerate()
        {
            let work = nodes.iter().map(|&n| graph.node_weight(n)).sum();
            let part_idx = p0 + parts.len();
            for &n in &nodes {
                part_of[n.index()] = part_idx;
            }
            parts.push(Part {
                user,
                component: comp_idx,
                nodes,
                work,
                pinned_cut: 0.0,
                pinned_crossings: 0,
                side: Side::Remote,
            });
            part_ids[slot] = Some(part_idx);
        }
        components.push(ComponentRec {
            user,
            part1: part_ids[0].expect("a component has at least one part"),
            part2: part_ids[1],
            cross_weight: 0.0,
            cross_count: 0,
        });
    }

    // classify every edge of the original graph
    for e in graph.edges() {
        let pa = part_of[e.source.index()];
        let pb = part_of[e.target.index()];
        match (pa, pb) {
            (NO_PART, NO_PART) => {} // pinned-pinned: always free
            (NO_PART, p) | (p, NO_PART) => {
                parts[p - p0].pinned_cut += e.weight;
                parts[p - p0].pinned_crossings += 1;
            }
            (p, q) if p == q => {} // internal to a part
            (p, q) => {
                debug_assert_eq!(
                    parts[p - p0].component,
                    parts[q - p0].component,
                    "cross-part edges only exist between siblings"
                );
                let c = parts[p - p0].component - c0;
                components[c].cross_weight += e.weight;
                components[c].cross_count += 1;
            }
        }
    }

    // initial placement (paper §III-B): the cut splits each
    // component so that "one part executes locally, and another
    // part executes remotely". The device side is the half more
    // tightly coupled to the pinned functions (ties: the lighter
    // half, then the lower index). Single-part components start
    // remote — Algorithm 2's greedy brings them home if that pays.
    for comp in &components[first_comp..] {
        let Some(p2) = comp.part2 else { continue };
        let (p1, p2) = (comp.part1 - p0, p2 - p0);
        let (a, b) = (&parts[p1], &parts[p2]);
        let local = match a
            .pinned_cut
            .partial_cmp(&b.pinned_cut)
            .expect("weights are finite")
        {
            std::cmp::Ordering::Greater => p1,
            std::cmp::Ordering::Less => p2,
            std::cmp::Ordering::Equal => {
                if a.work <= b.work {
                    p1
                } else {
                    p2
                }
            }
        };
        parts[local].side = Side::Local;
    }

    compression
        .pinned
        .iter()
        .map(|&n| graph.node_weight(n))
        .sum()
}

impl PartSystem {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one user: their original graph, its compression
    /// outcome, and one quotient-graph cut per compressed component
    /// (in the same order as `compression.components`).
    ///
    /// Every part starts on [`Side::Remote`], matching Algorithm 2's
    /// initial `V_2`; then each split component puts the half more
    /// tightly coupled to the pinned functions on the device.
    ///
    /// # Panics
    ///
    /// Panics if `quotient_cuts` does not align with the compression's
    /// component list.
    pub fn add_user(
        &mut self,
        graph: &Graph,
        compression: &CompressionOutcome,
        quotient_cuts: &[Bipartition],
    ) -> usize {
        let user = self.user_count();
        let pinned = build_user(
            &mut self.parts,
            &mut self.components,
            (user, 0, 0),
            graph,
            compression,
            quotient_cuts,
        );
        self.pinned_work.push(pinned);
        self.node_counts.push(graph.node_count());
        self.part_ends.push(self.parts.len());
        user
    }

    /// The range of user `u`'s component records: empty, at the next
    /// user's first component, when `u` has no parts.
    fn components_of_user(&self, u: usize) -> Range<usize> {
        let parts = self.parts_of_user(u);
        let lo = self
            .parts
            .get(parts.start)
            .map_or(self.components.len(), |p| p.component);
        let hi = if parts.is_empty() {
            lo
        } else {
            self.parts[parts.end - 1].component + 1
        };
        lo..hi
    }

    /// Removes user `u`, preserving the order of all other users: user
    /// `u + 1` becomes user `u`, and so on. Part sides of the remaining
    /// users are untouched, so a converged placement stays converged
    /// wherever the departure did not change prices.
    ///
    /// Cost is `O(parts + components + users)` after `u` — draining the
    /// user's two record ranges and rebasing the later records' indices
    /// — with no per-node work, which is what makes session-level churn
    /// cheap: the per-node classification of
    /// [`add_user`](Self::add_user) runs only for arriving users.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn remove_user(&mut self, u: usize) {
        assert!(u < self.user_count(), "user {u} out of bounds");
        let parts = self.parts_of_user(u);
        let comps = self.components_of_user(u);
        let (p_n, c_n) = (parts.len(), comps.len());
        debug_assert!(self.components[comps.clone()].iter().all(|c| c.user == u));
        self.parts.drain(parts.clone());
        self.components.drain(comps.clone());
        for p in &mut self.parts[parts.start..] {
            p.user -= 1;
            p.component -= c_n;
        }
        for c in &mut self.components[comps.start..] {
            c.user -= 1;
            c.part1 -= p_n;
            if let Some(p2) = &mut c.part2 {
                *p2 -= p_n;
            }
        }
        self.pinned_work.remove(u);
        self.node_counts.remove(u);
        self.part_ends.remove(u);
        for end in &mut self.part_ends[u..] {
            *end -= p_n;
        }
    }

    /// Replaces user `u`'s workload in place (the same slot), keeping
    /// every other user's records and part sides untouched — the
    /// incremental form of a same-name re-join. The new workload gets
    /// the usual initial placement of [`add_user`](Self::add_user).
    ///
    /// The new records are spliced over the old ones; later users'
    /// records are rebased only when the part or component count
    /// changed, so re-submitting an app of the same shape touches
    /// nothing but the user's own records.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds or the cuts do not align with
    /// the compression's component list.
    pub fn replace_user(
        &mut self,
        u: usize,
        graph: &Graph,
        compression: &CompressionOutcome,
        quotient_cuts: &[Bipartition],
    ) {
        assert!(u < self.user_count(), "user {u} out of bounds");
        let old_parts = self.parts_of_user(u);
        let old_comps = self.components_of_user(u);
        let mut parts = Vec::new();
        let mut comps = Vec::new();
        self.pinned_work[u] = build_user(
            &mut parts,
            &mut comps,
            (u, old_parts.start, old_comps.start),
            graph,
            compression,
            quotient_cuts,
        );
        self.node_counts[u] = graph.node_count();
        let dp = parts.len() as isize - old_parts.len() as isize;
        let dc = comps.len() as isize - old_comps.len() as isize;
        let parts_end = old_parts.start + parts.len();
        let comps_end = old_comps.start + comps.len();
        self.parts.splice(old_parts, parts);
        self.components.splice(old_comps, comps);
        if dc != 0 {
            for p in &mut self.parts[parts_end..] {
                p.component = p.component.wrapping_add_signed(dc);
            }
        }
        if dp != 0 {
            for c in &mut self.components[comps_end..] {
                c.part1 = c.part1.wrapping_add_signed(dp);
                if let Some(p2) = &mut c.part2 {
                    *p2 = p2.wrapping_add_signed(dp);
                }
            }
            for end in &mut self.part_ends[u..] {
                *end = end.wrapping_add_signed(dp);
            }
        }
    }

    /// Number of users registered.
    pub fn user_count(&self) -> usize {
        self.pinned_work.len()
    }

    /// All parts.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// All component records.
    pub fn components(&self) -> &[ComponentRec] {
        &self.components
    }

    /// Pinned computation weight of `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of bounds.
    pub fn pinned_work(&self, user: usize) -> f64 {
        self.pinned_work[user]
    }

    /// Current side of part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn side(&self, i: usize) -> Side {
        self.parts[i].side
    }

    /// Reassigns part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_side(&mut self, i: usize, side: Side) {
        self.parts[i].side = side;
    }

    /// Indices of all parts belonging to `user`: one contiguous range.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of bounds.
    pub fn parts_of_user(&self, user: usize) -> Range<usize> {
        let start = match user {
            0 => 0,
            u => self.part_ends[u - 1],
        };
        start..self.part_ends[user]
    }

    /// The sibling of part `i`, if its component was split in two.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sibling(&self, i: usize) -> Option<usize> {
        let c = &self.components[self.parts[i].component];
        if c.part1 == i {
            c.part2
        } else {
            Some(c.part1)
        }
    }

    /// The user's transmission volume (data + per-crossing overhead)
    /// under the current sides — recomputed from the user's parts; the
    /// greedy loop keeps its own incremental copy and cross-checks
    /// against this in tests.
    pub fn tx_volume_of_user(&self, user: usize, control_overhead: f64) -> f64 {
        let parts = self.parts_of_user(user);
        let mut volume = 0.0;
        // a user's parts ascend, so each component is one run of them
        let mut last = usize::MAX;
        for i in parts.clone() {
            let c = self.parts[i].component;
            if c == last {
                continue;
            }
            last = c;
            let comp = &self.components[c];
            if let Some(p2) = comp.part2 {
                if self.parts[comp.part1].side != self.parts[p2].side {
                    volume += comp.cross_weight + comp.cross_count as f64 * control_overhead;
                }
            }
        }
        for p in &self.parts[parts] {
            if p.side == Side::Remote {
                volume += p.pinned_cut + p.pinned_crossings as f64 * control_overhead;
            }
        }
        volume
    }

    /// The user's local / remote computation work under current sides.
    pub fn work_split_of_user(&self, user: usize) -> (f64, f64) {
        let mut local = self.pinned_work[user];
        let mut remote = 0.0;
        for p in &self.parts[self.parts_of_user(user)] {
            match p.side {
                Side::Local => local += p.work,
                Side::Remote => remote += p.work,
            }
        }
        (local, remote)
    }

    /// Writes user `u`'s plan implied by the current part sides into
    /// `plan` — pinned nodes local, part nodes on their part's side —
    /// reusing its buffer when it already has the user's length.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn write_user_plan(&self, u: usize, plan: &mut Bipartition) {
        let n = self.node_counts[u];
        if plan.len() == n {
            for i in 0..n {
                plan.assign(NodeId::new(i), Side::Local);
            }
        } else {
            *plan = Bipartition::uniform(n, Side::Local);
        }
        for p in &self.parts[self.parts_of_user(u)] {
            if p.side == Side::Remote {
                for &node in &p.nodes {
                    plan.assign(node, Side::Remote);
                }
            }
        }
    }

    /// Emits the per-user plan implied by the current part sides:
    /// pinned nodes local, part nodes on their part's side.
    pub fn plan(&self) -> Vec<Bipartition> {
        (0..self.user_count())
            .map(|u| {
                let mut plan = Bipartition::uniform(0, Side::Local);
                self.write_user_plan(u, &mut plan);
                plan
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::GraphBuilder;
    use mec_labelprop::{CompressionConfig, Compressor, ThresholdRule};

    /// pinned —3— [heavy triangle 0,1,2] —1— [heavy triangle 3,4,5]
    fn build_system() -> (Graph, PartSystem) {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|i| b.add_node(i as f64 + 1.0)).collect();
        let pin = b.add_pinned_node(50.0);
        for (a, c) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(n[a], n[c], 10.0).unwrap();
        }
        b.add_edge(n[2], n[3], 1.0).unwrap();
        b.add_edge(pin, n[0], 3.0).unwrap();
        let g = b.build();
        let compressor =
            Compressor::new(CompressionConfig::new().threshold(ThresholdRule::Absolute(5.0)));
        let outcome = compressor.compress(&g);
        // one component, quotient = 2 super-nodes joined by the bridge
        let cuts: Vec<Bipartition> = outcome
            .components
            .iter()
            .map(|c| {
                // split the quotient by its only edge
                Bipartition::from_fn(c.quotient.graph().node_count(), |i| {
                    if i == 0 {
                        Side::Local
                    } else {
                        Side::Remote
                    }
                })
            })
            .collect();
        let mut ps = PartSystem::new();
        ps.add_user(&g, &outcome, &cuts);
        (g, ps)
    }

    #[test]
    fn parts_partition_the_offloadable_nodes() {
        let (g, ps) = build_system();
        assert_eq!(ps.user_count(), 1);
        assert_eq!(ps.parts().len(), 2);
        let total_nodes: usize = ps.parts().iter().map(|p| p.nodes.len()).sum();
        assert_eq!(total_nodes, 6);
        let total_work: f64 = ps.parts().iter().map(|p| p.work).sum();
        assert_eq!(total_work, 21.0);
        assert_eq!(ps.pinned_work(0), 50.0);
        let _ = g;
    }

    #[test]
    fn component_coupling_is_the_bridge() {
        let (_, ps) = build_system();
        let c = &ps.components()[0];
        assert!((c.cross_weight - 1.0).abs() < 1e-12);
        assert_eq!(c.cross_count, 1);
        assert!(c.part2.is_some());
    }

    #[test]
    fn pinned_coupling_lands_on_the_right_part() {
        let (_, ps) = build_system();
        // the part containing node 0 has the pinned edge (weight 3)
        let p_with_pin = ps
            .parts()
            .iter()
            .find(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert!((p_with_pin.pinned_cut - 3.0).abs() < 1e-12);
        assert_eq!(p_with_pin.pinned_crossings, 1);
        let other = ps
            .parts()
            .iter()
            .find(|p| !p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert_eq!(other.pinned_cut, 0.0);
    }

    #[test]
    fn initial_split_puts_pin_coupled_half_on_the_device() {
        let (_, ps) = build_system();
        // the half containing node 0 carries the pinned edge → Local;
        // the sibling half starts Remote (paper §III-B: one part local,
        // one part remote).
        let pin_part = ps
            .parts()
            .iter()
            .find(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert_eq!(pin_part.side, Side::Local);
        let other = ps
            .parts()
            .iter()
            .find(|p| !p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert_eq!(other.side, Side::Remote);
        let (local, remote) = ps.work_split_of_user(0);
        assert_eq!(local, 50.0 + pin_part.work);
        assert_eq!(remote, other.work);
    }

    #[test]
    fn tx_volume_tracks_sides() {
        let (_, mut ps) = build_system();
        let oh = 2.0;
        // initial split: bridge crosses (1 + 1*2 = 3); pinned edge is
        // local-local and free
        assert!((ps.tx_volume_of_user(0, oh) - 3.0).abs() < 1e-12);
        let pin_part = ps
            .parts()
            .iter()
            .position(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        // push the pin half remote too: only the pinned edge crosses
        ps.set_side(pin_part, Side::Remote);
        assert!((ps.tx_volume_of_user(0, oh) - 5.0).abs() < 1e-12);
        // everything local: nothing crosses
        let other = ps.sibling(pin_part).unwrap();
        ps.set_side(pin_part, Side::Local);
        ps.set_side(other, Side::Local);
        assert_eq!(ps.tx_volume_of_user(0, oh), 0.0);
    }

    #[test]
    fn plan_reflects_sides_and_keeps_pins_local() {
        let (g, mut ps) = build_system();
        let plans = ps.plan();
        assert_eq!(plans.len(), 1);
        // initial split: exactly one triangle (3 nodes) is remote
        assert_eq!(plans[0].count_on(Side::Remote), 3);
        assert_eq!(plans[0].side(NodeId::new(6)), Side::Local);
        for i in 0..ps.parts().len() {
            ps.set_side(i, Side::Remote);
        }
        let plans2 = ps.plan();
        assert_eq!(plans2[0].count_on(Side::Remote), 6);
        assert_eq!(plans2[0].side(NodeId::new(6)), Side::Local);
        let _ = g;
    }

    #[test]
    fn sibling_lookup_is_symmetric() {
        let (_, ps) = build_system();
        let s0 = ps.sibling(0).unwrap();
        assert_eq!(ps.sibling(s0), Some(0));
    }

    /// A distinct multi-component workload per seed, plus its quotient
    /// cuts (mirrors what the session's front-end hands to `add_user`).
    fn user_fixture(seed: u64) -> (Graph, CompressionOutcome, Vec<Bipartition>) {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..8)
            .map(|i| b.add_node((seed * 7 + i) as f64 % 9.0 + 1.0))
            .collect();
        let pin = b.add_pinned_node(10.0 + seed as f64);
        for (a, c) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(n[a], n[c], 10.0).unwrap();
        }
        b.add_edge(n[2], n[3], 1.0).unwrap();
        // second component: a loose pair
        b.add_edge(n[6], n[7], 0.5 + seed as f64 % 2.0).unwrap();
        b.add_edge(pin, n[0], 2.0 + seed as f64 % 3.0).unwrap();
        let g = b.build();
        let compressor =
            Compressor::new(CompressionConfig::new().threshold(ThresholdRule::Absolute(5.0)));
        let outcome = compressor.compress(&g);
        let cuts: Vec<Bipartition> = outcome
            .components
            .iter()
            .map(|c| {
                Bipartition::from_fn(c.quotient.graph().node_count(), |i| {
                    if i == 0 {
                        Side::Local
                    } else {
                        Side::Remote
                    }
                })
            })
            .collect();
        (g, outcome, cuts)
    }

    fn build_from(
        seeds: &[u64],
    ) -> (
        Vec<(Graph, CompressionOutcome, Vec<Bipartition>)>,
        PartSystem,
    ) {
        let fixtures: Vec<_> = seeds.iter().map(|&s| user_fixture(s)).collect();
        let mut ps = PartSystem::new();
        for (g, o, c) in &fixtures {
            ps.add_user(g, o, c);
        }
        (fixtures, ps)
    }

    /// Structural equality probe: everything a consumer can observe.
    type Observation = (Vec<Bipartition>, Vec<(f64, f64)>, Vec<f64>, Vec<f64>);

    fn observe(ps: &PartSystem) -> Observation {
        let splits = (0..ps.user_count())
            .map(|u| ps.work_split_of_user(u))
            .collect();
        let tx = (0..ps.user_count())
            .map(|u| ps.tx_volume_of_user(u, 2.0))
            .collect();
        let pinned = (0..ps.user_count()).map(|u| ps.pinned_work(u)).collect();
        (ps.plan(), splits, tx, pinned)
    }

    #[test]
    fn remove_user_matches_fresh_rebuild() {
        for victim in 0..4 {
            let (fixtures, mut ps) = build_from(&[3, 5, 8, 11]);
            ps.remove_user(victim);
            let mut fresh = PartSystem::new();
            for (i, (g, o, c)) in fixtures.iter().enumerate() {
                if i != victim {
                    fresh.add_user(g, o, c);
                }
            }
            assert_eq!(ps.user_count(), 3);
            assert_eq!(ps.parts().len(), fresh.parts().len());
            assert_eq!(ps.components().len(), fresh.components().len());
            assert_eq!(observe(&ps), observe(&fresh), "victim {victim}");
            // internal indices stay self-consistent
            for (i, p) in ps.parts().iter().enumerate() {
                assert!(ps.parts_of_user(p.user).contains(&i));
                let c = &ps.components()[p.component];
                assert!(c.part1 == i || c.part2 == Some(i));
                assert_eq!(c.user, p.user);
            }
        }
    }

    #[test]
    fn remove_user_keeps_survivor_sides() {
        let (_, mut ps) = build_from(&[3, 5, 8]);
        // scramble sides as a converged placement would
        for i in 0..ps.parts().len() {
            if i % 2 == 0 {
                let s = ps.side(i).flipped();
                ps.set_side(i, s);
            }
        }
        let before: Vec<(usize, Vec<Side>)> = (0..3)
            .map(|u| (u, ps.parts_of_user(u).map(|i| ps.side(i)).collect()))
            .collect();
        ps.remove_user(1);
        for (u, sides) in before {
            if u == 1 {
                continue;
            }
            let nu = if u > 1 { u - 1 } else { u };
            let now: Vec<Side> = ps.parts_of_user(nu).map(|i| ps.side(i)).collect();
            assert_eq!(now, sides, "user {u} sides survived the removal");
        }
    }

    #[test]
    fn replace_user_matches_fresh_rebuild() {
        let (fixtures, mut ps) = build_from(&[3, 5, 8]);
        let (g, o, c) = user_fixture(42);
        ps.replace_user(1, &g, &o, &c);
        let mut fresh = PartSystem::new();
        fresh.add_user(&fixtures[0].0, &fixtures[0].1, &fixtures[0].2);
        fresh.add_user(&g, &o, &c);
        fresh.add_user(&fixtures[2].0, &fixtures[2].1, &fixtures[2].2);
        assert_eq!(observe(&ps), observe(&fresh));
    }

    type Fixture = (Graph, CompressionOutcome, Vec<Bipartition>);

    /// A workload of `comps` components, each a pair of heavy
    /// triangles joined by a light bridge (one quotient edge), every
    /// other one cut in two when `split` and kept whole otherwise; with
    /// no components every function is pinned, so the user has no
    /// parts at all.
    fn shaped_fixture(comps: usize, split: bool, seed: u64) -> Fixture {
        let mut b = GraphBuilder::new();
        let pins: Vec<_> = (0..2)
            .map(|i| b.add_pinned_node(5.0 + (seed + i) as f64))
            .collect();
        b.add_edge(pins[0], pins[1], 1.0 + seed as f64).unwrap();
        for k in 0..comps as u64 {
            let n: Vec<_> = (0..6)
                .map(|i| b.add_node(((seed + 3 * k) * 7 + i) as f64 % 9.0 + 1.0))
                .collect();
            for (a, c) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
                b.add_edge(n[a], n[c], 10.0).unwrap();
            }
            b.add_edge(n[2], n[3], 1.0 + k as f64).unwrap();
            b.add_edge(pins[(k % 2) as usize], n[(seed + k) as usize % 6], 2.0)
                .unwrap();
        }
        let g = b.build();
        let compressor =
            Compressor::new(CompressionConfig::new().threshold(ThresholdRule::Absolute(5.0)));
        let outcome = compressor.compress(&g);
        assert_eq!(outcome.components.len(), comps);
        let cuts = outcome
            .components
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let halves = split && k % 2 == 0;
                Bipartition::from_fn(c.quotient.graph().node_count(), |i| {
                    if halves && i > 0 {
                        Side::Remote
                    } else {
                        Side::Local
                    }
                })
            })
            .collect();
        (g, outcome, cuts)
    }

    /// Every index a record holds points back at it: each user's range
    /// starts where the previous one ended, its parts and components
    /// name the user, and each component's parts name the component.
    fn assert_aligned(ps: &PartSystem) {
        let mut next = 0;
        for u in 0..ps.user_count() {
            let range = ps.parts_of_user(u);
            assert_eq!(range.start, next, "user {u} range is not contiguous");
            next = range.end;
            for i in range {
                let p = &ps.parts()[i];
                assert_eq!(p.user, u, "part {i}");
                let c = &ps.components()[p.component];
                assert_eq!(c.user, u, "component of part {i}");
                assert!(c.part1 == i || c.part2 == Some(i), "part {i}");
            }
        }
        assert_eq!(next, ps.parts().len(), "ranges must cover every part");
        let mut last_user = 0;
        for (k, c) in ps.components().iter().enumerate() {
            assert!(c.user >= last_user, "components are grouped by user");
            last_user = c.user;
            assert_eq!(ps.parts()[c.part1].component, k, "component {k} part1");
            if let Some(p2) = c.part2 {
                assert_eq!(ps.parts()[p2].component, k, "component {k} part2");
                assert!(p2 > c.part1);
            }
        }
    }

    #[test]
    fn random_churn_keeps_every_slot_aligned() {
        // shapes: (components, split) — from no parts at all to three
        // components, whole or cut, so replacements both keep and change
        // the part and component counts
        let shapes = [
            (0, false),
            (1, false),
            (1, true),
            (2, true),
            (3, false),
            (3, true),
        ];
        let fixtures: Vec<(Fixture, Vec<Side>)> = shapes
            .iter()
            .flat_map(|&(comps, split)| (0..4u64).map(move |seed| (comps, split, seed)))
            .map(|(comps, split, seed)| {
                let f = shaped_fixture(comps, split, seed);
                let mut one = PartSystem::new();
                one.add_user(&f.0, &f.1, &f.2);
                let sides = one.parts().iter().map(|p| p.side).collect();
                (f, sides)
            })
            .collect();
        // splitmix64
        let mut state = 0x5eed_u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        // the surviving users: fixture and current part sides
        let mut model: Vec<(usize, Vec<Side>)> = Vec::new();
        let mut ps = PartSystem::new();
        let (mut same_shape, mut new_shape, mut removed) = (0, 0, 0);
        for step in 0..2400 {
            let roll = below(10);
            if model.len() < 4 || (roll < 4 && model.len() < 24) {
                let f = below(fixtures.len());
                let ((g, o, c), sides) = &fixtures[f];
                assert_eq!(ps.add_user(g, o, c), model.len());
                model.push((f, sides.clone()));
            } else if roll < 7 {
                let u = below(model.len());
                ps.remove_user(u);
                model.remove(u);
                removed += 1;
            } else {
                let u = below(model.len());
                let f = below(fixtures.len());
                let ((g, o, c), sides) = &fixtures[f];
                let before = (ps.parts().len(), ps.components().len());
                ps.replace_user(u, g, o, c);
                if (ps.parts().len(), ps.components().len()) == before {
                    same_shape += 1;
                } else {
                    new_shape += 1;
                }
                model[u] = (f, sides.clone());
            }
            // move a random part, as a converged placement would
            if !ps.parts().is_empty() {
                let i = below(ps.parts().len());
                let side = ps.side(i).flipped();
                ps.set_side(i, side);
                let u = ps.parts()[i].user;
                let k = i - ps.parts_of_user(u).start;
                model[u].1[k] = side;
            }
            assert_aligned(&ps);
            let mut fresh = PartSystem::new();
            for (f, sides) in &model {
                let ((g, o, c), _) = &fixtures[*f];
                let u = fresh.add_user(g, o, c);
                for (i, &side) in fresh.parts_of_user(u).zip(sides) {
                    fresh.set_side(i, side);
                }
            }
            assert_eq!(ps.user_count(), model.len());
            assert_eq!(observe(&ps), observe(&fresh), "step {step}");
        }
        assert!(same_shape > 100 && new_shape > 100 && removed > 100);
    }

    #[test]
    fn write_user_plan_overwrites_a_stale_buffer() {
        let (_, mut ps) = build_from(&[3, 5, 8]);
        for i in (0..ps.parts().len()).step_by(3) {
            let s = ps.side(i).flipped();
            ps.set_side(i, s);
        }
        for (u, want) in ps.plan().iter().enumerate() {
            // a buffer holding another placement of the same user
            let mut stale = Bipartition::uniform(want.len(), Side::Remote);
            ps.write_user_plan(u, &mut stale);
            assert_eq!(&stale, want);
        }
    }

    #[test]
    fn work_split_matches_plan_weights() {
        let (g, mut ps) = build_system();
        ps.set_side(1, Side::Local);
        let (local, remote) = ps.work_split_of_user(0);
        let plan = &ps.plan()[0];
        assert!((plan.node_weight_on(&g, Side::Local) - local).abs() < 1e-12);
        assert!((plan.node_weight_on(&g, Side::Remote) - remote).abs() < 1e-12);
    }
}
