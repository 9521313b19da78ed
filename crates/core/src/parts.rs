//! The part system: what Algorithm 2's greedy loop moves around.
//!
//! After compression and per-component minimum cuts, each user's
//! application is a collection of *parts*: the pinned (always-local)
//! functions, plus one or two node sets per connected component — the
//! two halves of that component's cut. The greedy stage assigns each
//! part to the device or the server; this module holds the bookkeeping
//! that makes a part move priceable in `O(1)`.
//!
//! What the cut stage fixed is the same for every user of one graph, so
//! it lives in an immutable [`PartTemplate`], built once per prepared
//! front-end and shared. A user is one small record: their template
//! and their parts' current sides. Parts and components are numbered
//! within the user's application, so no record names another user's
//! and a departure rebases nothing.

use mec_graph::{Bipartition, Graph, NodeId, Side};
use mec_labelprop::CompressionOutcome;
use std::sync::Arc;

/// One movable part: a set of functions of one application that the
/// cut stage decided must stay together.
#[derive(Debug, Clone)]
pub struct Part {
    /// The component this part belongs to, numbered within the
    /// application.
    pub component: usize,
    /// Nodes of the application's graph in this part.
    pub nodes: Vec<NodeId>,
    /// Total computation weight of the part.
    pub work: f64,
    /// Communication weight to the application's pinned (always-local)
    /// nodes.
    pub pinned_cut: f64,
    /// Number of edges to pinned nodes.
    pub pinned_crossings: usize,
}

/// One connected component after compression: its one or two parts and
/// the communication between them.
#[derive(Debug, Clone)]
pub struct ComponentRec {
    /// First part, numbered within the application.
    pub part1: usize,
    /// Second part (absent when the cut was trivial).
    pub part2: Option<usize>,
    /// Communication weight between the two parts (0 when single).
    pub cross_weight: f64,
    /// Number of edges between the two parts.
    pub cross_count: usize,
}

/// One application's parts and components, numbered from zero, and the
/// sides the initial split gives them: everything about a user's parts
/// that depends on their graph alone.
#[derive(Debug)]
pub(crate) struct PartTemplate {
    parts: Vec<Part>,
    /// In component order; a component's parts are adjacent and
    /// ascending, so every part's component is at least its
    /// predecessor's.
    components: Vec<ComponentRec>,
    initial: Vec<Side>,
    /// Total pinned (always-local) computation weight.
    pinned_work: f64,
    /// Node count of the graph (to emit plans).
    node_count: usize,
}

impl PartTemplate {
    /// Builds the template of `graph` from its compression outcome and
    /// one quotient-graph cut per compressed component (in the same
    /// order as `compression.components`).
    ///
    /// Every part starts on [`Side::Remote`], matching Algorithm 2's
    /// initial `V_2`; then each split component puts the half more
    /// tightly coupled to the pinned functions on the device.
    ///
    /// # Panics
    ///
    /// Panics if `quotient_cuts` does not align with the compression's
    /// component list.
    pub(crate) fn build(
        graph: &Graph,
        compression: &CompressionOutcome,
        quotient_cuts: &[Bipartition],
    ) -> Self {
        assert_eq!(
            quotient_cuts.len(),
            compression.components.len(),
            "one quotient cut per compressed component"
        );
        let mut parts: Vec<Part> = Vec::new();
        let mut components: Vec<ComponentRec> = Vec::new();

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
            let comp_idx = components.len();
            let mut part_ids = [None; 2];
            for (slot, nodes) in side_nodes
                .into_iter()
                .filter(|ns| !ns.is_empty())
                .enumerate()
            {
                let work = nodes.iter().map(|&n| graph.node_weight(n)).sum();
                let part_idx = parts.len();
                for &n in &nodes {
                    part_of[n.index()] = part_idx;
                }
                parts.push(Part {
                    component: comp_idx,
                    nodes,
                    work,
                    pinned_cut: 0.0,
                    pinned_crossings: 0,
                });
                part_ids[slot] = Some(part_idx);
            }
            components.push(ComponentRec {
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
                    parts[p].pinned_cut += e.weight;
                    parts[p].pinned_crossings += 1;
                }
                (p, q) if p == q => {} // internal to a part
                (p, q) => {
                    debug_assert_eq!(
                        parts[p].component, parts[q].component,
                        "cross-part edges only exist between siblings"
                    );
                    let c = parts[p].component;
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
        let mut initial = vec![Side::Remote; parts.len()];
        for comp in &components {
            let Some(p2) = comp.part2 else { continue };
            let p1 = comp.part1;
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
            initial[local] = Side::Local;
        }

        PartTemplate {
            parts,
            components,
            initial,
            pinned_work: compression
                .pinned
                .iter()
                .map(|&n| graph.node_weight(n))
                .sum(),
            node_count: graph.node_count(),
        }
    }
}

/// One user's records, borrowed together for a run of lookups: their
/// application's parts and components and their own sides.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UserRecords<'a> {
    pub(crate) parts: &'a [Part],
    pub(crate) components: &'a [ComponentRec],
    pub(crate) sides: &'a [Side],
}

/// One user: their application's shared template and their parts'
/// current sides.
#[derive(Debug, Clone)]
struct UserParts {
    template: Arc<PartTemplate>,
    sides: Box<[Side]>,
}

impl UserParts {
    /// A user of `template` at its initial split.
    fn new(template: Arc<PartTemplate>) -> Self {
        let sides = Box::from(template.initial.as_slice());
        UserParts { template, sides }
    }
}

/// All parts of all users, with the coupling structure needed to price
/// moves incrementally.
///
/// Users are slots in arrival order. Each slot holds only its user's
/// sides and their application's parts and components, which every
/// user of one prepared graph shares. Parts and components are numbered
/// within their user's application (`(user, part)` and
/// `(user, component)`), so removing a user shifts the later slots down
/// without touching any index they hold.
#[derive(Debug, Clone, Default)]
pub struct PartSystem {
    users: Vec<UserParts>,
    /// Parts over all users.
    part_count: usize,
}

impl PartSystem {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one user: their original graph, its compression
    /// outcome, and one quotient-graph cut per compressed component
    /// (in the same order as `compression.components`). Returns the
    /// user's slot.
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
        let template = PartTemplate::build(graph, compression, quotient_cuts);
        self.add_template(Arc::new(template))
    }

    /// Registers one user of a prepared template at its initial split;
    /// returns the user's slot.
    pub(crate) fn add_template(&mut self, template: Arc<PartTemplate>) -> usize {
        self.part_count += template.parts.len();
        self.users.push(UserParts::new(template));
        self.users.len() - 1
    }

    /// Removes user `u`, preserving the order of all other users: user
    /// `u + 1` becomes user `u`, and so on. Part sides of the remaining
    /// users are untouched, so a converged placement stays converged
    /// wherever the departure did not change prices.
    ///
    /// Cost is one shift of the later users' slots, a template handle
    /// and a sides handle each; no index is rewritten and no per-node
    /// work is done.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn remove_user(&mut self, u: usize) {
        assert!(u < self.user_count(), "user {u} out of bounds");
        let gone = self.users.remove(u);
        self.part_count -= gone.sides.len();
    }

    /// Replaces user `u`'s workload in place (the same slot), keeping
    /// every other user's records and part sides untouched — the
    /// incremental form of a same-name re-join. The new workload gets
    /// the usual initial placement of [`add_user`](Self::add_user).
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
        let template = PartTemplate::build(graph, compression, quotient_cuts);
        self.replace_template(u, Arc::new(template));
    }

    /// Re-seats user `u` on a prepared template at its initial split.
    pub(crate) fn replace_template(&mut self, u: usize, template: Arc<PartTemplate>) {
        let user = &mut self.users[u];
        self.part_count = self.part_count - user.sides.len() + template.parts.len();
        *user = UserParts::new(template);
    }

    /// Number of users registered.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Number of parts over all users.
    pub fn part_count(&self) -> usize {
        self.part_count
    }

    /// User `u`'s parts, components and sides at once.
    pub(crate) fn user(&self, u: usize) -> UserRecords<'_> {
        let UserParts { template, sides } = &self.users[u];
        UserRecords {
            parts: &template.parts,
            components: &template.components,
            sides,
        }
    }

    /// User `u`'s parts, numbered within their application.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn parts_of(&self, u: usize) -> &[Part] {
        &self.users[u].template.parts
    }

    /// User `u`'s component records, in component order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn components_of(&self, u: usize) -> &[ComponentRec] {
        &self.users[u].template.components
    }

    /// The current sides of user `u`'s parts, in part order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn sides_of(&self, u: usize) -> &[Side] {
        &self.users[u].sides
    }

    /// Pinned computation weight of `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of bounds.
    pub fn pinned_work(&self, user: usize) -> f64 {
        self.users[user].template.pinned_work
    }

    /// Current side of user `u`'s part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of bounds.
    pub fn side(&self, u: usize, i: usize) -> Side {
        self.users[u].sides[i]
    }

    /// Reassigns user `u`'s part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of bounds.
    pub fn set_side(&mut self, u: usize, i: usize, side: Side) {
        self.users[u].sides[i] = side;
    }

    /// The sibling of user `u`'s part `i`, if its component was split
    /// in two.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of bounds.
    pub fn sibling(&self, u: usize, i: usize) -> Option<usize> {
        let t = &self.users[u].template;
        let c = &t.components[t.parts[i].component];
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
        let UserParts { template, sides } = &self.users[user];
        let mut volume = 0.0;
        for comp in &template.components {
            if let Some(p2) = comp.part2 {
                if sides[comp.part1] != sides[p2] {
                    volume += comp.cross_weight + comp.cross_count as f64 * control_overhead;
                }
            }
        }
        for (p, &side) in template.parts.iter().zip(sides.iter()) {
            if side == Side::Remote {
                volume += p.pinned_cut + p.pinned_crossings as f64 * control_overhead;
            }
        }
        volume
    }

    /// The user's local / remote computation work under current sides.
    pub fn work_split_of_user(&self, user: usize) -> (f64, f64) {
        let UserParts { template, sides } = &self.users[user];
        let mut local = template.pinned_work;
        let mut remote = 0.0;
        for (p, &side) in template.parts.iter().zip(sides.iter()) {
            match side {
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
        let UserParts { template, sides } = &self.users[u];
        let n = template.node_count;
        if plan.len() == n {
            for i in 0..n {
                plan.assign(NodeId::new(i), Side::Local);
            }
        } else {
            *plan = Bipartition::uniform(n, Side::Local);
        }
        for (p, &side) in template.parts.iter().zip(sides.iter()) {
            if side == Side::Remote {
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
        assert_eq!(ps.parts_of(0).len(), 2);
        assert_eq!(ps.part_count(), 2);
        let total_nodes: usize = ps.parts_of(0).iter().map(|p| p.nodes.len()).sum();
        assert_eq!(total_nodes, 6);
        let total_work: f64 = ps.parts_of(0).iter().map(|p| p.work).sum();
        assert_eq!(total_work, 21.0);
        assert_eq!(ps.pinned_work(0), 50.0);
        let _ = g;
    }

    #[test]
    fn component_coupling_is_the_bridge() {
        let (_, ps) = build_system();
        let c = &ps.components_of(0)[0];
        assert!((c.cross_weight - 1.0).abs() < 1e-12);
        assert_eq!(c.cross_count, 1);
        assert!(c.part2.is_some());
    }

    #[test]
    fn pinned_coupling_lands_on_the_right_part() {
        let (_, ps) = build_system();
        // the part containing node 0 has the pinned edge (weight 3)
        let p_with_pin = ps
            .parts_of(0)
            .iter()
            .find(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert!((p_with_pin.pinned_cut - 3.0).abs() < 1e-12);
        assert_eq!(p_with_pin.pinned_crossings, 1);
        let other = ps
            .parts_of(0)
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
            .parts_of(0)
            .iter()
            .position(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert_eq!(ps.side(0, pin_part), Side::Local);
        let other = ps.sibling(0, pin_part).unwrap();
        assert_eq!(ps.side(0, other), Side::Remote);
        let (local, remote) = ps.work_split_of_user(0);
        assert_eq!(local, 50.0 + ps.parts_of(0)[pin_part].work);
        assert_eq!(remote, ps.parts_of(0)[other].work);
    }

    #[test]
    fn tx_volume_tracks_sides() {
        let (_, mut ps) = build_system();
        let oh = 2.0;
        // initial split: bridge crosses (1 + 1*2 = 3); pinned edge is
        // local-local and free
        assert!((ps.tx_volume_of_user(0, oh) - 3.0).abs() < 1e-12);
        let pin_part = ps
            .parts_of(0)
            .iter()
            .position(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        // push the pin half remote too: only the pinned edge crosses
        ps.set_side(0, pin_part, Side::Remote);
        assert!((ps.tx_volume_of_user(0, oh) - 5.0).abs() < 1e-12);
        // everything local: nothing crosses
        let other = ps.sibling(0, pin_part).unwrap();
        ps.set_side(0, pin_part, Side::Local);
        ps.set_side(0, other, Side::Local);
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
        for i in 0..ps.parts_of(0).len() {
            ps.set_side(0, i, Side::Remote);
        }
        let plans2 = ps.plan();
        assert_eq!(plans2[0].count_on(Side::Remote), 6);
        assert_eq!(plans2[0].side(NodeId::new(6)), Side::Local);
        let _ = g;
    }

    #[test]
    fn sibling_lookup_is_symmetric() {
        let (_, ps) = build_system();
        let s0 = ps.sibling(0, 0).unwrap();
        assert_eq!(ps.sibling(0, s0), Some(0));
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

    /// Components over all users.
    fn component_count(ps: &PartSystem) -> usize {
        (0..ps.user_count())
            .map(|u| ps.components_of(u).len())
            .sum()
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
            assert_eq!(ps.part_count(), fresh.part_count());
            assert_eq!(component_count(&ps), component_count(&fresh));
            assert_eq!(observe(&ps), observe(&fresh), "victim {victim}");
            // internal indices stay self-consistent
            assert_aligned(&ps);
        }
    }

    #[test]
    fn remove_user_keeps_survivor_sides() {
        let (_, mut ps) = build_from(&[3, 5, 8]);
        // scramble sides as a converged placement would
        let mut k = 0;
        for u in 0..ps.user_count() {
            for i in 0..ps.parts_of(u).len() {
                if k % 2 == 0 {
                    let s = ps.side(u, i).flipped();
                    ps.set_side(u, i, s);
                }
                k += 1;
            }
        }
        let before: Vec<(usize, Vec<Side>)> =
            (0..3).map(|u| (u, ps.sides_of(u).to_vec())).collect();
        ps.remove_user(1);
        for (u, sides) in before {
            if u == 1 {
                continue;
            }
            let nu = if u > 1 { u - 1 } else { u };
            assert_eq!(
                ps.sides_of(nu),
                sides,
                "user {u} sides survived the removal"
            );
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

    #[test]
    fn users_of_one_template_keep_their_own_sides() {
        let (g, o, c) = user_fixture(3);
        let template = Arc::new(PartTemplate::build(&g, &o, &c));
        let mut ps = PartSystem::new();
        ps.add_template(Arc::clone(&template));
        ps.add_template(Arc::clone(&template));
        let flipped = ps.side(1, 0).flipped();
        ps.set_side(1, 0, flipped);
        assert_eq!(ps.side(0, 0), flipped.flipped());
        assert_eq!(Arc::strong_count(&template), 3);
        ps.remove_user(0);
        assert_eq!(ps.side(0, 0), flipped);
        assert_eq!(Arc::strong_count(&template), 2);
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

    /// Every index a record holds points back at it: each user's parts
    /// name a component that names them, each component's parts name
    /// it, components are ordered by their first part, every part has
    /// a side, and the part count covers every user's parts.
    fn assert_aligned(ps: &PartSystem) {
        let mut total = 0;
        for u in 0..ps.user_count() {
            let (parts, comps) = (ps.parts_of(u), ps.components_of(u));
            assert_eq!(ps.sides_of(u).len(), parts.len(), "user {u} sides");
            total += parts.len();
            let mut last_comp = 0;
            for (i, p) in parts.iter().enumerate() {
                assert!(
                    p.component >= last_comp,
                    "user {u} part {i}: components ascend"
                );
                last_comp = p.component;
                let c = &comps[p.component];
                assert!(c.part1 == i || c.part2 == Some(i), "user {u} part {i}");
            }
            for (k, c) in comps.iter().enumerate() {
                assert_eq!(parts[c.part1].component, k, "user {u} component {k} part1");
                if let Some(p2) = c.part2 {
                    assert_eq!(parts[p2].component, k, "user {u} component {k} part2");
                    assert!(p2 > c.part1);
                }
            }
        }
        assert_eq!(
            total,
            ps.part_count(),
            "the part count must cover every part"
        );
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
                let sides = one.sides_of(0).to_vec();
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
                let before = (ps.part_count(), component_count(&ps));
                ps.replace_user(u, g, o, c);
                if (ps.part_count(), component_count(&ps)) == before {
                    same_shape += 1;
                } else {
                    new_shape += 1;
                }
                model[u] = (f, sides.clone());
            }
            // move a random part, as a converged placement would: the
            // k-th of all parts, counted in user order
            if ps.part_count() > 0 {
                let mut k = below(ps.part_count());
                let mut u = 0;
                while k >= ps.parts_of(u).len() {
                    k -= ps.parts_of(u).len();
                    u += 1;
                }
                let side = ps.side(u, k).flipped();
                ps.set_side(u, k, side);
                model[u].1[k] = side;
            }
            assert_aligned(&ps);
            let mut fresh = PartSystem::new();
            for (f, sides) in &model {
                let ((g, o, c), _) = &fixtures[*f];
                let u = fresh.add_user(g, o, c);
                for (i, &side) in sides.iter().enumerate() {
                    fresh.set_side(u, i, side);
                }
            }
            assert_eq!(ps.user_count(), model.len());
            assert_eq!(ps.part_count(), fresh.part_count(), "step {step}");
            assert_eq!(observe(&ps), observe(&fresh), "step {step}");
        }
        assert!(same_shape > 100 && new_shape > 100 && removed > 100);
    }

    #[test]
    fn write_user_plan_overwrites_a_stale_buffer() {
        let (_, mut ps) = build_from(&[3, 5, 8]);
        let mut k = 0;
        for u in 0..ps.user_count() {
            for i in 0..ps.parts_of(u).len() {
                if k % 3 == 0 {
                    let s = ps.side(u, i).flipped();
                    ps.set_side(u, i, s);
                }
                k += 1;
            }
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
        ps.set_side(0, 1, Side::Local);
        let (local, remote) = ps.work_split_of_user(0);
        let plan = &ps.plan()[0];
        assert!((plan.node_weight_on(&g, Side::Local) - local).abs() < 1e-12);
        assert!((plan.node_weight_on(&g, Side::Remote) - remote).abs() < 1e-12);
    }
}
