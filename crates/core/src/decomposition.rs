//! The recursive decomposition tree of Section 4.
//!
//! The tree's vertices are subgraphs of `G`: the root is `G` itself, and
//! the children of a node `H` are the connected components of
//! `H \ S(H)`. Since every component has at most half its parent's
//! vertices, the depth is at most `log₂ n + 1`. Every vertex of `G` is
//! removed (appears on a separator path) at exactly one node — its
//! *home* — and the path `H₁(v), …, H_r(v)` from the root to `home(v)` is
//! the context chain that labels, routing tables, and the small-world
//! augmentation distribution are built over.
//!
//! The builder is generic over the [`Separator`] kind and the measure
//! its strategy halves, so it also builds the `(k, α)`-doubling tree of
//! §5.3 and the weight-halving tree of [`crate::weighted`].

use std::ops::Range;

use psep_graph::components::components;
use psep_graph::csr::CsrGraph;
use psep_graph::dijkstra::DijkstraScratch;
use psep_graph::graph::{Graph, NodeId, Weight};
use psep_graph::view::{NodeMask, SubgraphView};

use crate::exec::{ShardObs, ShardedRunner};
use crate::separator::{PathGroup, PathSeparator, SepPath, Separator};
use crate::strategy::{within_half, SeparatorStrategy};
use crate::wire::{put_varint, put_zigzag, Cursor, WireError};

/// The number of worker threads construction entry points should use:
/// the `PSEP_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism (1 if it
/// cannot be determined).
pub fn available_threads() -> usize {
    if let Ok(raw) = std::env::var("PSEP_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Metric names for the decomposition waves: components expanded and
/// their summed vertices.
const BUILD_OBS: ShardObs = ShardObs {
    prefix: "core.build",
    items: "components",
    units: "vertices",
    hist: None,
};

/// Construction parameters for [`DecompositionTree::build_with`].
#[derive(Clone, Copy, Debug)]
pub struct DecompositionParams {
    /// Worker threads for separator computation (`0` = all available
    /// threads, honouring `PSEP_THREADS`; `1` = the calling thread only).
    pub threads: usize,
}

impl Default for DecompositionParams {
    fn default() -> Self {
        DecompositionParams { threads: 1 }
    }
}

/// One node of the decomposition tree: a component `H` and its separator
/// `S(H)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecompNode<S = PathSeparator> {
    /// Parent node index (`None` for roots).
    pub parent: Option<usize>,
    /// Depth (root = 0).
    pub depth: usize,
    /// The component's vertices, sorted.
    pub vertices: Vec<NodeId>,
    /// The separator `S(H)` computed for this component.
    pub separator: S,
    /// Child node indices (components of `H \ S(H)`).
    pub children: Vec<usize>,
}

/// The residual graph `J` of one `(node, group)` with compact local ids:
/// what the label, routing-table, doubling-label and augmentation
/// builders search, filled once per `(node, group)` by
/// [`DecompositionTree::residual_pass`]. Each worker keeps one and
/// re-fills it, so its buffers only ever grow.
///
/// Local ids follow global id order ([`ResidualGraph::verts`] ascends),
/// so a Dijkstra on [`ResidualGraph::graph`] settles vertices in the same `(distance, id)`
/// order and picks the same smaller parents as one on the masked view of
/// [`DecompositionTree::residual_mask`]; every array indexed by it is
/// `|J|`-sized.
#[derive(Clone, Debug, Default)]
pub struct ResidualGraph {
    /// `J`'s vertices, ascending: `verts[l]` has local id `l`.
    verts: Vec<NodeId>,
    /// `J` over local ids.
    graph: CsrGraph,
}

impl ResidualGraph {
    /// `J`'s vertices, ascending: the vertex at index `l` has local id `l`.
    pub fn verts(&self) -> &[NodeId] {
        &self.verts
    }

    /// `J` over local ids.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of vertices of `J`.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether `J` has no vertex.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The local id of `v`, or `None` when `v` is not in `J`.
    pub fn local(&self, v: NodeId) -> Option<NodeId> {
        self.verts.binary_search(&v).ok().map(NodeId::from_index)
    }

    /// The global id of local vertex `l`.
    pub fn global(&self, l: NodeId) -> NodeId {
        self.verts[l.index()]
    }

    /// Maps `J`'s local ids, cut into ascending ranges, through `work`
    /// (each range searched in a `|J|`-sized arena) and returns the
    /// results in range order, for a step that searches from every
    /// vertex of `J`. On `threads` workers (`0` = all available), a `J`
    /// holding `|J|` of the graph's `n` vertices fans out over
    /// `threads · |J| / n` of them when that is two or more, so a large
    /// `J` cannot outlast the rest of the pass; a smaller one is one
    /// range on `scratch`. The cut varies, the concatenation does not.
    pub fn source_ranges<R: Send>(
        &self,
        n: usize,
        threads: usize,
        scratch: &mut DijkstraScratch,
        work: impl Fn(&mut DijkstraScratch, Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let workers = ShardedRunner::new(threads).threads() * self.len() / n.max(1);
        if workers < 2 {
            return vec![work(scratch, 0..self.len())];
        }
        // a few ranges per worker, so one slow range cannot hold up the rest
        let cut = |i: usize| i * self.len() / (4 * workers);
        let ranges: Vec<Range<usize>> = (0..4 * workers).map(|i| cut(i)..cut(i + 1)).collect();
        let mut arenas = vec![std::mem::take(scratch)];
        arenas.resize_with(workers, || DijkstraScratch::new(self.len()));
        let work = |arena: &mut DijkstraScratch, r: &Range<usize>| (work(arena, r.clone()), 0);
        let (results, _) = ShardedRunner::new(workers).run(&ranges, None, &mut arenas, work);
        *scratch = arenas.swap_remove(0);
        results
    }
}

/// Why a strategy's separators do not make a decomposition tree.
#[derive(Clone, Debug, PartialEq)]
pub enum DecompositionError {
    /// A separator removed no vertex of its component, so the recursion
    /// would never end.
    RemovedNothing {
        /// The strategy's name.
        strategy: &'static str,
        /// Vertices of the component.
        size: usize,
    },
    /// A component left by a separator measures more than half its
    /// parent ([`SeparatorStrategy::measure`]: vertices unless the
    /// strategy weighs them).
    FailedToHalve {
        /// The strategy's name.
        strategy: &'static str,
        /// Measure of the child component.
        child: f64,
        /// Measure of the parent component.
        parent: f64,
    },
    /// A vertex lies on no separator: the strategy returned vertices
    /// outside the component it was given.
    NoHome {
        /// The vertex.
        vertex: NodeId,
    },
}

impl std::fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompositionError::RemovedNothing { strategy, size } => {
                write!(
                    f,
                    "strategy {strategy} removed nothing from a component of size {size}"
                )
            }
            DecompositionError::FailedToHalve {
                strategy,
                child,
                parent,
            } => write!(
                f,
                "strategy {strategy} failed to halve: child {child} of parent {parent}"
            ),
            DecompositionError::NoHome { vertex } => {
                write!(f, "vertex {vertex:?} never landed on a separator")
            }
        }
    }
}

impl std::error::Error for DecompositionError {}

/// The decomposition tree of a graph under a separator strategy.
///
/// # Example
///
/// ```
/// use psep_graph::generators::grids;
/// use psep_core::{DecompositionTree, AutoStrategy};
///
/// let g = grids::grid2d(8, 8, 1);
/// let tree = DecompositionTree::build(&g, &AutoStrategy::default());
/// assert!(tree.depth() as f64 <= (64f64).log2() + 1.0);
/// assert!(tree.max_paths_per_node() >= 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecompositionTree<S = PathSeparator> {
    nodes: Vec<DecompNode<S>>,
    /// For each vertex: the node where it lies on the separator.
    home: Vec<u32>,
    /// For each vertex: the index of the first group containing it at its
    /// home node.
    removal_group: Vec<u32>,
}

impl<S: Separator> DecompositionTree<S> {
    /// Builds the decomposition tree of `g` (all components) using
    /// `strategy` at every node, sequentially. Equivalent to
    /// [`Self::build_with`] at `threads = 1`.
    ///
    /// # Panics
    ///
    /// Panics with the [`DecompositionError`] that
    /// [`Self::try_build_with`] returns.
    pub fn build(g: &Graph, strategy: &dyn SeparatorStrategy<S>) -> Self {
        Self::build_with(g, strategy, &DecompositionParams::default())
    }

    /// Builds the decomposition tree with `params.threads` workers.
    ///
    /// The result is **bit-identical** at every thread count: after a
    /// separator is removed, sibling components are independent, so each
    /// frontier wave fans its `strategy.separate` calls (the dominant
    /// cost) out on a [`ShardedRunner`]; the node numbering — the only
    /// order-sensitive part — is then produced by a sequential replay of
    /// a depth-first LIFO stack over the prepared components, consuming
    /// the precomputed separators. The equivalence suite compares
    /// tree-section bytes across thread counts to lock this down.
    ///
    /// # Panics
    ///
    /// As [`Self::build`]; a panic inside the strategy propagates.
    pub fn build_with(
        g: &Graph,
        strategy: &dyn SeparatorStrategy<S>,
        params: &DecompositionParams,
    ) -> Self {
        Self::try_build_with(g, strategy, params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build_with`], returning the strategy's first failure
    /// instead of panicking. Failures are met wave by wave, components in
    /// discovery order, so the error is the same at every thread count.
    ///
    /// # Errors
    ///
    /// A separator that removes nothing from a component or fails to
    /// halve it, or a vertex that never lands on a separator.
    pub fn try_build_with(
        g: &Graph,
        strategy: &dyn SeparatorStrategy<S>,
        params: &DecompositionParams,
    ) -> Result<Self, DecompositionError> {
        let _span = psep_obs::span!("decomp_build");
        let n = g.num_nodes();
        let runner = ShardedRunner::new(params.threads);
        let mut scratches = vec![(); runner.threads()];

        // Phase 1 — wave-parallel expansion. The *set* of components
        // (and each component's separator) is independent of traversal
        // order, so every frontier wave runs on the sharded runner.
        struct Prep<S> {
            comp: Vec<NodeId>,
            sep: Option<S>,
            children: Vec<usize>,
        }
        let mut preps: Vec<Prep<S>> = components(g)
            .into_iter()
            .map(|c| Prep {
                comp: c,
                sep: None,
                children: Vec::new(),
            })
            .collect();
        let num_roots = preps.len();
        let mut wave: Vec<usize> = (0..num_roots).collect();
        // wall time per wave (wave index == depth), published as
        // `core.build.levelNN.build_ns` gauges below
        let mut level_ns: Vec<u128> = Vec::new();
        while !wave.is_empty() {
            let t_wave = psep_obs::now_if_enabled();
            let (results, _) = runner.run(&wave, Some(&BUILD_OBS), &mut scratches, |_, &idx| {
                let comp = &preps[idx].comp;
                let t0 = psep_obs::now_if_enabled();
                let expanded = expand_component(g, strategy, comp, n);
                if let Some(t0) = t0 {
                    psep_obs::histogram!("core.build.expand_ns").record_elapsed(t0);
                }
                (expanded, comp.len() as u64)
            });
            let mut next = Vec::new();
            for (&idx, expanded) in wave.iter().zip(results) {
                let (sep, child_comps) = expanded?;
                preps[idx].sep = Some(sep);
                for cc in child_comps {
                    let ci = preps.len();
                    preps.push(Prep {
                        comp: cc,
                        sep: None,
                        children: Vec::new(),
                    });
                    preps[idx].children.push(ci);
                    next.push(ci);
                }
            }
            if let Some(t0) = t_wave {
                level_ns.push(t0.elapsed().as_nanos());
            }
            wave = next;
        }

        // Phase 2 — sequential replay of the depth-first LIFO stack
        // discipline over the prepared components, so the nodes vector
        // (hence the wire encoding) never depends on the claim schedule.
        let mut nodes: Vec<DecompNode<S>> = Vec::with_capacity(preps.len());
        let mut home = vec![u32::MAX; n];
        let mut removal_group = vec![u32::MAX; n];
        let mut work: Vec<(Option<usize>, usize, usize)> =
            (0..num_roots).map(|i| (None, 0usize, i)).collect();
        while let Some((parent, depth, pi)) = work.pop() {
            let node_idx = nodes.len();
            let comp = std::mem::take(&mut preps[pi].comp);
            let sep = preps[pi].sep.take().expect("separator missing for prep");
            let fresh = record_homes(&sep, node_idx, &mut home, &mut removal_group);
            debug_assert!(fresh, "a vertex separated at two nodes");
            for &ci in &preps[pi].children {
                work.push((Some(node_idx), depth + 1, ci));
            }
            if let Some(p) = parent {
                nodes[p].children.push(node_idx);
            }
            nodes.push(DecompNode {
                parent,
                depth,
                vertices: comp,
                separator: sep,
                children: Vec::new(),
            });
        }

        for (level, ns) in level_ns.iter().enumerate() {
            psep_obs::gauge(&format!("core.build.level{level:02}.build_ns")).set(*ns as f64);
        }

        if let Some(v) = home.iter().position(|&h| h == u32::MAX) {
            return Err(DecompositionError::NoHome {
                vertex: NodeId::from_index(v),
            });
        }
        let tree = DecompositionTree {
            nodes,
            home,
            removal_group,
        };
        tree.record_metrics(n);
        Ok(tree)
    }

    /// Publishes the per-level quantities Theorem 1 bounds — paths
    /// removed, largest component fraction — plus depth and the
    /// empirical `k`. Free when instrumentation is off or disabled.
    fn record_metrics(&self, n: usize) {
        if !psep_obs::enabled() || n == 0 {
            return;
        }
        psep_obs::counter("core.decomp.paths_removed").add(self.total_paths() as u64);
        psep_obs::gauge("core.decomp.depth").set(self.depth() as f64);
        psep_obs::gauge("core.decomp.max_paths_per_node").set_max(self.max_paths_per_node() as f64);
        for d in 0..=self.depth() {
            let level = self.nodes.iter().filter(|node| node.depth == d);
            let (mut paths, mut max_comp) = (0usize, 0usize);
            for node in level {
                paths += node.separator.num_paths();
                max_comp = max_comp.max(node.vertices.len());
            }
            psep_obs::gauge(&format!("core.decomp.level{d:02}.paths")).set(paths as f64);
            psep_obs::gauge(&format!("core.decomp.level{d:02}.max_comp_frac"))
                .set_max(max_comp as f64 / n as f64);
        }
    }

    /// The nodes (index 0 is a root; there is one root per component of
    /// the input graph).
    pub fn nodes(&self) -> &[DecompNode<S>] {
        &self.nodes
    }

    /// Node at `idx`.
    pub fn node(&self, idx: usize) -> &DecompNode<S> {
        &self.nodes[idx]
    }

    /// Number of vertices of the graph the tree decomposes (every one
    /// has a home).
    pub fn num_vertices(&self) -> usize {
        self.home.len()
    }

    /// The node where `v` lies on the separator (its *home*).
    pub fn home(&self, v: NodeId) -> usize {
        self.home[v.index()] as usize
    }

    /// The group index of `v` within its home separator.
    pub fn removal_group(&self, v: NodeId) -> usize {
        self.removal_group[v.index()] as usize
    }

    /// The chain `H₁(v), …, H_r(v)`: node indices from the root down to
    /// `home(v)` (inclusive).
    pub fn chain_of(&self, v: NodeId) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut cur = Some(self.home(v));
        while let Some(i) = cur {
            chain.push(i);
            cur = self.nodes[i].parent;
        }
        chain.reverse();
        chain
    }

    /// Maximum tree depth (root = 0), plus one = number of levels.
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// The maximum `Σ k_i` over all nodes — the empirical `k` of the
    /// whole decomposition (what experiment E1 reports).
    pub fn max_paths_per_node(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.separator.num_paths())
            .max()
            .unwrap_or(0)
    }

    /// Total number of separator paths over all nodes.
    pub fn total_paths(&self) -> usize {
        self.nodes.iter().map(|n| n.separator.num_paths()).sum()
    }

    /// A human-readable per-level summary: nodes, largest component, and
    /// worst path budget per depth — handy in examples and debugging.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let max_depth = self.depth();
        let mut out = String::new();
        let _ = writeln!(out, "depth | nodes | max comp | max Σk_i");
        for d in 0..=max_depth {
            let level: Vec<&DecompNode<S>> = self.nodes.iter().filter(|n| n.depth == d).collect();
            let nodes = level.len();
            let max_comp = level.iter().map(|n| n.vertices.len()).max().unwrap_or(0);
            let max_k = level
                .iter()
                .map(|n| n.separator.num_paths())
                .max()
                .unwrap_or(0);
            let _ = writeln!(out, "{d:>5} | {nodes:>5} | {max_comp:>8} | {max_k:>8}");
        }
        out
    }

    /// The residual mask `J` for group `group_idx` at node `node_idx`:
    /// the node's vertices minus all earlier groups' vertices.
    pub fn residual_mask(&self, universe: usize, node_idx: usize, group_idx: usize) -> NodeMask {
        let node = &self.nodes[node_idx];
        let mut mask = NodeMask::from_nodes(universe, node.vertices.iter().copied());
        mask.remove_all(node.separator.vertices_before_group(group_idx));
        mask
    }

    /// Runs `step` once per `(node, group)` whose group is non-empty, on
    /// `threads` workers (`0` = all available threads, honouring
    /// `PSEP_THREADS`), in one [`ShardedRunner::run`] published under
    /// `obs`, and returns the outputs in `(node, group)` order, each with
    /// the index of the worker state it ran on, then those states.
    ///
    /// Each worker owns a [`ResidualGraph`], a [`DijkstraScratch`] and a
    /// `W` (where a step can append its bulk output, returning its
    /// range). Per task it fills `J` once, sizes the arena to `J` and
    /// calls `step(node, group, J, arena, state)` for the output and a
    /// work-unit count. The fills add to `core.residual.builds`.
    pub fn residual_pass<W: Default + Send, T: Send>(
        &self,
        g: &Graph,
        threads: usize,
        obs: &ShardObs,
        step: impl Fn(usize, usize, &ResidualGraph, &mut DijkstraScratch, &mut W) -> (T, u64) + Sync,
    ) -> (Vec<(usize, T)>, Vec<W>) {
        let tasks: Vec<(usize, usize)> = (self.nodes.iter().enumerate())
            .flat_map(|(h, node)| {
                let groups = node.separator.vertex_groups().enumerate();
                groups.filter_map(move |(gi, mut group)| group.next().is_some().then_some((h, gi)))
            })
            .collect();
        let runner = ShardedRunner::new(threads);
        let count = runner.worker_count(tasks.len());
        let mut workers: Vec<(usize, (ResidualGraph, DijkstraScratch, W))> = (0..count)
            .zip(std::iter::repeat_with(Default::default))
            .collect();
        let (outputs, _) = runner.run(
            &tasks,
            Some(obs),
            &mut workers,
            |(w, (j, scratch, state)), &(node, group)| {
                self.residual_graph(g, node, group, j);
                scratch.resize(j.len());
                let (output, units) = step(node, group, j, scratch, state);
                ((*w, output), units)
            },
        );
        // every task filled its J once
        psep_obs::counter!("core.residual.builds").add(tasks.len() as u64);
        let states = workers.into_iter().map(|(_, (.., state))| state).collect();
        (outputs, states)
    }

    /// Fills `j` with the residual graph `J` of `(node_idx, group_idx)` —
    /// the vertices of [`Self::residual_mask`] — over local ids, reusing
    /// `j`'s buffers. Costs `O(|H| + |E(J)| log |J|)` for the node's
    /// component `H`; nothing is sized by the whole graph.
    fn residual_graph(&self, g: &Graph, node_idx: usize, group_idx: usize, j: &mut ResidualGraph) {
        let node = &self.nodes[node_idx];
        let removed = node.separator.vertices_before_group(group_idx);
        // both lists ascend: one merge leaves the node's vertices minus
        // every earlier group's
        let mut gone = removed.iter().peekable();
        j.verts.clear();
        j.verts.extend(node.vertices.iter().copied().filter(|&v| {
            while gone.next_if(|&&r| r < v).is_some() {}
            gone.peek() != Some(&&v)
        }));
        j.graph.induce(g, &j.verts);
    }
}

impl DecompositionTree {
    /// Encodes the tree as a bare `psep-bundle` tree-section body (see
    /// [`Self::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the tree's section body to `out`, with no envelope: the
    /// bundle that carries it owns magic, version and checksum.
    ///
    /// Per node the wire stores `parent + 1` (0 marks a root), the
    /// component's sorted vertices (delta varints), and the separator's
    /// paths (vertex sequences zigzag-delta coded, positions as
    /// prefix-difference varints). Depths, children, homes, and removal
    /// groups are derived data and are recomputed on decode, exactly as
    /// [`DecompositionTree::build`] assigns them.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.home.len() as u64);
        put_varint(out, self.nodes.len() as u64);
        for node in &self.nodes {
            put_varint(out, node.parent.map_or(0, |p| p as u64 + 1));
            put_varint(out, node.vertices.len() as u64);
            let mut prev = 0u64;
            for (i, v) in node.vertices.iter().enumerate() {
                let cur = v.0 as u64;
                put_varint(out, if i == 0 { cur } else { cur - prev });
                prev = cur;
            }
            put_varint(out, node.separator.num_groups() as u64);
            for group in &node.separator.groups {
                put_varint(out, group.num_paths() as u64);
                for path in &group.paths {
                    put_varint(out, path.len() as u64);
                    let mut prev = 0i64;
                    for (i, v) in path.vertices().iter().enumerate() {
                        let cur = v.0 as i64;
                        if i == 0 {
                            put_varint(out, cur as u64);
                        } else {
                            put_zigzag(out, cur - prev);
                        }
                        prev = cur;
                    }
                    for i in 1..path.len() {
                        put_varint(out, path.position(i) - path.position(i - 1));
                    }
                }
            }
        }
    }

    /// Decodes a tree-section body, verifying every structural
    /// invariant (parent indices precede their children, vertex ids fit
    /// the universe, every vertex lands on exactly one separator);
    /// malformed input is a typed error, never a panic.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(data);
        let limit = data.len();
        let n = c.length(limit)?;
        let num_nodes = c.length(limit)?;

        let mut nodes: Vec<DecompNode> = Vec::with_capacity(num_nodes);
        for idx in 0..num_nodes {
            let parent_plus_one = c.length(num_nodes)?;
            let parent = match parent_plus_one {
                0 => None,
                p if p <= idx => Some(p - 1),
                _ => return Err(WireError::Corrupt("child precedes its parent")),
            };
            let depth = parent.map_or(0, |p| nodes[p].depth + 1);

            let count = c.length(n)?;
            if count == 0 {
                return Err(WireError::Corrupt("empty component"));
            }
            let mut vertices = Vec::with_capacity(count);
            let mut prev = 0u64;
            for i in 0..count {
                let raw = c.varint()?;
                let cur = if i == 0 {
                    raw
                } else {
                    if raw == 0 {
                        return Err(WireError::Corrupt("component vertices not ascending"));
                    }
                    prev.checked_add(raw)
                        .ok_or(WireError::Corrupt("vertex id overflows"))?
                };
                if cur >= n as u64 {
                    return Err(WireError::Corrupt("vertex id exceeds universe"));
                }
                vertices.push(NodeId(cur as u32));
                prev = cur;
            }

            let num_groups = c.length(limit)?;
            let mut groups = Vec::with_capacity(num_groups);
            for _ in 0..num_groups {
                let num_paths = c.length(limit)?;
                let mut paths = Vec::with_capacity(num_paths);
                for _ in 0..num_paths {
                    let len = c.length(n)?;
                    if len == 0 {
                        return Err(WireError::Corrupt("empty separator path"));
                    }
                    let mut pverts = Vec::with_capacity(len);
                    let mut prev = 0i64;
                    for i in 0..len {
                        let cur = if i == 0 {
                            let v = c.varint()?;
                            i64::try_from(v)
                                .map_err(|_| WireError::Corrupt("vertex id overflows"))?
                        } else {
                            prev.checked_add(c.zigzag()?)
                                .ok_or(WireError::Corrupt("vertex id overflows"))?
                        };
                        if cur < 0 || cur >= n as i64 {
                            return Err(WireError::Corrupt("path vertex exceeds universe"));
                        }
                        pverts.push(NodeId(cur as u32));
                        prev = cur;
                    }
                    let mut prefix = Vec::with_capacity(len);
                    prefix.push(0 as Weight);
                    for _ in 1..len {
                        let step = c.varint()?;
                        let next = prefix
                            .last()
                            .unwrap()
                            .checked_add(step)
                            .ok_or(WireError::Corrupt("path position overflows"))?;
                        prefix.push(next);
                    }
                    paths.push(
                        SepPath::from_parts(pverts, prefix)
                            .ok_or(WireError::Corrupt("malformed separator path"))?,
                    );
                }
                groups.push(PathGroup::new(paths));
            }

            nodes.push(DecompNode {
                parent,
                depth,
                vertices,
                separator: PathSeparator::new(groups),
                children: Vec::new(),
            });
        }
        if c.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes after payload"));
        }

        // derived data: children from parents, homes as `build` assigns
        // them
        let mut home = vec![u32::MAX; n];
        let mut removal_group = vec![u32::MAX; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
        for (idx, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                children[p].push(idx);
            }
            if !record_homes(&node.separator, idx, &mut home, &mut removal_group) {
                return Err(WireError::Corrupt("a vertex lies on two nodes' separators"));
            }
        }
        if home.contains(&u32::MAX) {
            return Err(WireError::Corrupt("some vertex never lands on a separator"));
        }
        for (node, kids) in nodes.iter_mut().zip(children) {
            node.children = kids;
        }
        Ok(DecompositionTree {
            nodes,
            home,
            removal_group,
        })
    }
}

/// Expands one component: computes its separator and the connected
/// components of `comp \ S`, checking the non-empty and halving
/// invariants. Pure in `(g, strategy, comp)` — safe to call from any
/// worker.
fn expand_component<S: Separator>(
    g: &Graph,
    strategy: &dyn SeparatorStrategy<S>,
    comp: &[NodeId],
    n: usize,
) -> Result<(S, Vec<Vec<NodeId>>), DecompositionError> {
    psep_obs::counter!("core.decomp.separator_calls").incr();
    let sep = strategy.separate(g, comp);
    let sep_vertices = sep.vertices();
    if sep_vertices.is_empty() {
        return Err(DecompositionError::RemovedNothing {
            strategy: strategy.name(),
            size: comp.len(),
        });
    }
    let mut mask = NodeMask::from_nodes(n, comp.iter().copied());
    mask.remove_all(sep_vertices.iter().copied());
    let view = SubgraphView::new(g, &mask);
    let child_comps = components(&view);
    let parent = strategy.measure(comp);
    let mut measures = child_comps.iter().map(|cc| strategy.measure(cc));
    if let Some(child) = measures.find(|&c| !within_half(c, parent)) {
        return Err(DecompositionError::FailedToHalve {
            strategy: strategy.name(),
            child,
            parent,
        });
    }
    Ok((sep, child_comps))
}

/// Records homes and removal groups for every separator vertex of one
/// node (first assignment wins — the earliest group index). Returns
/// `false` if a vertex already has its home at another node, which no
/// tree has: a separator vertex is in no later component.
fn record_homes<S: Separator>(
    sep: &S,
    node_idx: usize,
    home: &mut [u32],
    removal_group: &mut [u32],
) -> bool {
    let mut fresh = true;
    for (gi, group) in sep.vertex_groups().enumerate() {
        for v in group {
            if home[v.index()] == u32::MAX {
                home[v.index()] = node_idx as u32;
                removal_group[v.index()] = gi as u32;
            }
            fresh &= home[v.index()] == node_idx as u32;
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_tree;
    use crate::strategy::{AutoStrategy, IterativeStrategy, TreeCenterStrategy};
    use psep_graph::generators::{grids, ktree, planar_families, trees};

    #[test]
    fn tree_decomposition_depth_logarithmic() {
        let g = trees::path(128);
        let t = DecompositionTree::build(&g, &TreeCenterStrategy);
        assert!(t.depth() <= 8, "depth {}", t.depth()); // log2(128) = 7
        assert_eq!(t.max_paths_per_node(), 1);
        check_tree(&g, &t).unwrap();
    }

    #[test]
    fn every_vertex_has_home_and_chain() {
        let g = trees::random_tree(60, 4);
        let t = DecompositionTree::build(&g, &TreeCenterStrategy);
        for v in g.nodes() {
            let chain = t.chain_of(v);
            assert_eq!(*chain.last().unwrap(), t.home(v));
            assert_eq!(t.node(chain[0]).depth, 0);
            // chain is a root-to-home path
            for w in chain.windows(2) {
                assert_eq!(t.node(w[1]).parent, Some(w[0]));
            }
            // v is in every chain component
            for &i in &chain {
                assert!(t.node(i).vertices.binary_search(&v).is_ok());
            }
        }
    }

    #[test]
    fn grid_decomposition_validates() {
        let g = grids::grid2d(9, 9, 1);
        let t = DecompositionTree::build(&g, &AutoStrategy::default());
        check_tree(&g, &t).unwrap();
        assert!(t.depth() as f64 <= (81f64).log2() + 1.0);
    }

    #[test]
    fn k_tree_decomposition_validates() {
        let kt = ktree::random_k_tree(70, 3, 3);
        let t = DecompositionTree::build(&kt.graph, &AutoStrategy::default());
        check_tree(&kt.graph, &t).unwrap();
        assert!(t.max_paths_per_node() <= 4);
    }

    #[test]
    fn planar_decomposition_validates() {
        let g = planar_families::apollonian(80, 5);
        let t = DecompositionTree::build(&g, &IterativeStrategy::default());
        check_tree(&g, &t).unwrap();
    }

    #[test]
    fn residual_mask_and_membership() {
        let g = grids::grid2d(6, 6, 1);
        let t = DecompositionTree::build(&g, &AutoStrategy::default());
        for v in g.nodes() {
            let home = t.home(v);
            let gi = t.removal_group(v);
            let mask = t.residual_mask(g.num_nodes(), home, gi);
            assert!(mask.contains(v));
            if gi + 1 < t.node(home).separator.num_groups() {
                assert!(!t.residual_mask(g.num_nodes(), home, gi + 1).contains(v));
            }
        }
    }

    /// The pass visits every non-empty group once, in `(node, group)`
    /// order at every thread count, and each local-id residual graph
    /// holds exactly the residual mask's vertices, ascending, and the
    /// edges the masked view offers.
    #[test]
    fn residual_pass_fills_each_residual_graph_once() {
        use psep_graph::view::GraphRef;
        let g = psep_graph::generators::randomize_weights(&grids::grid2d(9, 8, 1), 1, 7, 3);
        let t = DecompositionTree::build(&g, &AutoStrategy::default());
        let obs = ShardObs {
            prefix: "core.residual.test",
            items: "groups",
            units: "vertices",
            hist: None,
        };
        let want: Vec<(usize, usize)> = t
            .nodes()
            .iter()
            .enumerate()
            .flat_map(|(h, node)| {
                let groups = node.separator.groups.iter().enumerate();
                groups.filter_map(move |(gi, group)| (!group.paths.is_empty()).then_some((h, gi)))
            })
            .collect();
        for threads in [1, 3] {
            let (seen, states) =
                t.residual_pass(&g, threads, &obs, |h, gi, j, scratch, _: &mut ()| {
                    let mask = t.residual_mask(g.num_nodes(), h, gi);
                    let view = SubgraphView::new(&g, &mask);
                    assert_eq!(
                        j.verts(),
                        mask.iter().collect::<Vec<_>>(),
                        "node {h} group {gi}"
                    );
                    assert_eq!(scratch.universe(), j.len());
                    for (l, &v) in j.verts().iter().enumerate() {
                        let l = NodeId::from_index(l);
                        assert_eq!(j.local(v), Some(l));
                        assert_eq!(j.global(l), v);
                        let local: Vec<_> = j
                            .graph()
                            .neighbors(l)
                            .map(|e| (j.global(e.to), e.weight))
                            .collect();
                        let global: Vec<_> = view.neighbors(v).map(|e| (e.to, e.weight)).collect();
                        assert_eq!(local, global, "node {h} group {gi} vertex {v:?}");
                    }
                    ((h, gi), j.len() as u64)
                });
            assert!(seen.iter().all(|&(w, _)| w < states.len()));
            let seen: Vec<_> = seen.into_iter().map(|(_, task)| task).collect();
            assert_eq!(seen, want, "threads = {threads}");
        }
    }

    /// A large `J`'s source ranges fan out and come back in order: the
    /// concatenated per-source results are the same at every thread
    /// count, and each range searched from a sized arena.
    #[test]
    fn source_ranges_concatenate_the_same_at_every_thread_count() {
        let g = psep_graph::generators::randomize_weights(&grids::grid2d(9, 8, 1), 1, 7, 3);
        let t = DecompositionTree::build(&g, &AutoStrategy::default());
        let obs = ShardObs {
            prefix: "core.residual.test",
            items: "groups",
            units: "vertices",
            hist: None,
        };
        let per_source = |threads| {
            let (groups, _) = t.residual_pass(&g, 1, &obs, |_, _, j, scratch, _: &mut ()| {
                let ranges = j.source_ranges(g.num_nodes(), threads, scratch, |arena, r| {
                    assert_eq!(arena.universe(), j.len());
                    let sums = r.map(|l| {
                        arena.run(j.graph(), &[NodeId::from_index(l)]);
                        arena.reached().map(|(_, d)| d).sum::<Weight>()
                    });
                    sums.collect::<Vec<_>>()
                });
                (ranges.concat(), 0)
            });
            groups.into_iter().map(|(_, sums)| sums).collect::<Vec<_>>()
        };
        let serial = per_source(1);
        assert_eq!(serial[0].len(), g.num_nodes(), "the root J is the graph");
        for threads in [2, 3, 8] {
            assert_eq!(per_source(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn summary_renders_every_level() {
        let g = grids::grid2d(8, 8, 1);
        let t = DecompositionTree::build(&g, &AutoStrategy::default());
        let s = t.summary();
        assert_eq!(s.lines().count(), t.depth() + 2); // header + levels
        assert!(s.contains("max comp"));
    }

    #[test]
    fn wire_roundtrip_is_exact_across_families() {
        let cases: Vec<psep_graph::Graph> = vec![
            grids::grid2d(7, 7, 1),
            trees::random_weighted_tree(50, 9, 4),
            ktree::random_k_tree(40, 3, 3).graph,
            planar_families::apollonian(60, 5),
        ];
        for g in cases {
            let t = DecompositionTree::build(&g, &AutoStrategy::default());
            let buf = t.encode();
            let back = DecompositionTree::decode(&buf).unwrap();
            assert_eq!(back, t);
            assert_eq!(back.encode(), buf);
            check_tree(&g, &back).unwrap();
        }
    }

    #[test]
    fn wire_rejects_truncation() {
        let g = grids::grid2d(5, 5, 1);
        let t = DecompositionTree::build(&g, &AutoStrategy::default());
        let buf = t.encode();
        // the node count comes first, so every strict prefix runs out
        for cut in 0..buf.len() {
            assert!(
                DecompositionTree::decode(&buf[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn wire_rejects_structurally_corrupt_payload() {
        use crate::wire::put_varint;
        // a node whose parent index points forward
        let mut body = Vec::new();
        put_varint(&mut body, 1); // n = 1
        put_varint(&mut body, 1); // one node
        put_varint(&mut body, 2); // parent + 1 = 2 → parent 1 ≥ own index 0
        assert!(matches!(
            DecompositionTree::decode(&body),
            Err(crate::wire::WireError::Corrupt(_))
        ));

        // structurally fine node, but vertex 1 of 2 never gets a home
        let mut body = Vec::new();
        put_varint(&mut body, 2); // n = 2
        put_varint(&mut body, 1); // one node
        put_varint(&mut body, 0); // root
        put_varint(&mut body, 2); // two vertices: 0, 1
        put_varint(&mut body, 0);
        put_varint(&mut body, 1);
        put_varint(&mut body, 1); // one group
        put_varint(&mut body, 1); // one path
        put_varint(&mut body, 1); // singleton path: vertex 0
        put_varint(&mut body, 0);
        assert!(matches!(
            DecompositionTree::decode(&body),
            Err(crate::wire::WireError::Corrupt(
                "some vertex never lands on a separator"
            ))
        ));

        // vertex 0 separated at the root and again at its child: n = 1,
        // two nodes, each `parent + 1`, vertices [0], one group holding
        // the singleton path [0]
        let mut body = Vec::new();
        for x in [1, 2, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0] {
            put_varint(&mut body, x);
        }
        assert!(matches!(
            DecompositionTree::decode(&body),
            Err(crate::wire::WireError::Corrupt(
                "a vertex lies on two nodes' separators"
            ))
        ));
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        let cases: Vec<psep_graph::Graph> = vec![
            grids::grid2d(9, 9, 1),
            trees::random_weighted_tree(70, 9, 2),
            ktree::random_k_tree(50, 3, 5).graph,
            planar_families::apollonian(60, 7),
        ];
        for g in cases {
            let seq = DecompositionTree::build(&g, &AutoStrategy::default());
            let seq_bytes = seq.encode();
            for threads in [1usize, 2, 4, 8] {
                let par = DecompositionTree::build_with(
                    &g,
                    &AutoStrategy::default(),
                    &DecompositionParams { threads },
                );
                assert_eq!(par, seq, "tree differs at {threads} threads");
                assert_eq!(
                    par.encode(),
                    seq_bytes,
                    "wire bytes differ at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_build_handles_disconnected_and_tiny_inputs() {
        let mut g = psep_graph::Graph::new(7);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        g.add_edge(NodeId(3), NodeId(4), 2);
        // vertices 5 and 6 are isolated singleton components
        let seq = DecompositionTree::build(&g, &TreeCenterStrategy);
        let par = DecompositionTree::build_with(
            &g,
            &TreeCenterStrategy,
            &DecompositionParams { threads: 4 },
        );
        assert_eq!(par, seq);
        assert_eq!(par.encode(), seq.encode());
        check_tree(&g, &par).unwrap();
    }

    /// A one-candidate cycle search with no extra paths cannot halve a
    /// grid: the build returns the error, the same at every thread count,
    /// where it used to abort (and, above one thread, to lose the reason
    /// in a worker's panic).
    #[test]
    fn failing_strategy_returns_a_typed_error() {
        use psep_planar::cycle::CycleSearch;
        let g = grids::grid2d(10, 10, 1);
        let strategy = crate::strategy::FundamentalCycleStrategy {
            search: CycleSearch {
                max_candidates: 1,
                accept_first: true,
                max_extra_paths: 0,
            },
        };
        for threads in [1, 4] {
            let err =
                DecompositionTree::try_build_with(&g, &strategy, &DecompositionParams { threads })
                    .unwrap_err();
            assert_eq!(
                err,
                DecompositionError::FailedToHalve {
                    strategy: "fundamental-cycle",
                    child: 96.0,
                    parent: 100.0,
                },
                "threads = {threads}"
            );
            assert_eq!(
                err.to_string(),
                "strategy fundamental-cycle failed to halve: child 96 of parent 100"
            );
        }
    }

    #[test]
    fn default_params_are_sequential_and_available_threads_positive() {
        assert!(DecompositionParams::default().threads == 1);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn disconnected_input_gets_multiple_roots() {
        let mut g = psep_graph::Graph::new(6);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        g.add_edge(NodeId(4), NodeId(5), 1);
        let t = DecompositionTree::build(&g, &TreeCenterStrategy);
        let roots = t.nodes().iter().filter(|n| n.parent.is_none()).count();
        assert_eq!(roots, 3);
        check_tree(&g, &t).unwrap();
    }
}
