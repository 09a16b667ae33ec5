//! The resource-sharing problem and its clique-based solution
//! (§4.1.1–§4.1.2, Figure 5 of the paper).
//!
//! Each expensive RTL operator instance (and each memory port) is a
//! *node*. The compatibility matrix `A` has `A[i][j] = 1` when nodes
//! `i` and `j` can share one piece of hardware — they never operate at
//! the same time. The rules:
//!
//! 1. nodes in the same operation cannot share (all of an operation's
//!    RTL evaluates in the same cycle; this subsumes the paper's
//!    "same RTL statement" rule for a single-issue-per-cycle datapath),
//!    *except* nodes belonging to different options of the same
//!    non-terminal parameter, which are mutually exclusive by decode;
//! 2. nodes performing different tasks cannot share; `add` and `sub`
//!    are subset-compatible and merge into one adder/subtractor;
//! 3. nodes of operations in the same field (or options of one
//!    non-terminal) can share — one field issues one operation;
//! 4. nodes of operations in different fields cannot share, unless the
//!    constraints (or an `archinfo` share hint) prove the operations
//!    never co-occur.
//!
//! Maximal cliques of the compatibility graph are found with
//! Bron–Kerbosch (with pivoting); a greedy cover then assigns each
//! node to one clique, and the datapath instantiates one functional
//! unit per clique.
//!
//! The planner runs on every candidate an exploration evaluates, so it
//! works on bitsets: the matrix is one row of `u64` words per node,
//! Bron–Kerbosch keeps `P` as a bitset, and each cover round scores a
//! clique by `popcount(clique ∩ uncovered)`. Rule 4's verdict depends
//! only on the two operations, so each operation pair is decided once
//! per plan, however many nodes the two operations own.

use isdl::model::{CExpr, Constraint, Machine, OpRef};
use isdl::rtl::StorageId;
use std::collections::HashMap;
use vlog::ast::VBinOp;

/// The task class of a shareable node (rule 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareClass {
    /// Adders and subtractors (subset-compatible).
    AddSub,
    /// Any other binary operator, shareable only with its own kind.
    Bin(VBinOp),
    /// A read port on an addressed storage.
    MemRead(StorageId),
    /// A write port on an addressed storage.
    MemWrite(StorageId),
}

/// Where a node comes from, for the exclusivity rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOwner {
    /// The operation whose RTL contains the node.
    pub op: OpRef,
    /// Non-terminal option context: `(param_path_key, option_index)`
    /// per non-terminal level the node sits under. Two nodes of the
    /// same operation are mutually exclusive iff they disagree on the
    /// option of a common key.
    pub nt_context: Vec<(u32, usize)>,
}

impl NodeOwner {
    /// An owner with no non-terminal context.
    #[must_use]
    pub fn plain(op: OpRef) -> Self {
        Self { op, nt_context: Vec::new() }
    }

    fn exclusive_within_op(&self, other: &Self) -> bool {
        self.nt_context
            .iter()
            .any(|(k, o)| other.nt_context.iter().any(|(k2, o2)| k == k2 && o != o2))
    }
}

/// One shareable hardware node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareNode {
    /// The task class.
    pub class: ShareClass,
    /// Operand width in bits (units only merge at equal widths).
    pub width: u32,
    /// Origin.
    pub owner: NodeOwner,
}

/// Sharing configuration (the ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareOptions {
    /// Master switch; off instantiates one unit per node.
    pub enabled: bool,
    /// Use the constraints section to prove cross-field exclusivity
    /// (rule 4's refinement).
    pub use_constraints: bool,
    /// Use `archinfo` share hints.
    pub use_hints: bool,
}

impl Default for ShareOptions {
    fn default() -> Self {
        Self { enabled: true, use_constraints: true, use_hints: true }
    }
}

/// The sharing result: a partition of the nodes into hardware units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharePlan {
    /// `groups[u]` = node indices implemented by unit `u`.
    pub groups: Vec<Vec<usize>>,
}

impl SharePlan {
    /// Number of hardware units instantiated.
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of units saved versus no sharing.
    #[must_use]
    pub fn units_saved(&self) -> usize {
        let nodes: usize = self.groups.iter().map(Vec::len).sum();
        nodes - self.groups.len()
    }
}

/// Computes the sharing plan for a set of nodes (Figure 5).
#[must_use]
pub fn plan(machine: &Machine, nodes: &[ShareNode], opts: ShareOptions) -> SharePlan {
    if !opts.enabled || nodes.is_empty() {
        return SharePlan { groups: (0..nodes.len()).map(|i| vec![i]).collect() };
    }
    let graph = compatibility_graph(machine, nodes, opts);
    let cliques = maximal_cliques(&graph);
    SharePlan { groups: clique_cover(nodes.len(), &cliques) }
}

/// An undirected graph on nodes `0..n`, stored as one adjacency row of
/// `u64` words per node (bit `j` of row `i` set iff `i`–`j` is an edge).
/// `n` fits a `u32`, the width cliques store their members at.
#[derive(Debug)]
struct Graph {
    n: usize,
    words: usize,
    adj: Vec<u64>,
}

impl Graph {
    fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "{n} share nodes overflow u32 node indices");
        let words = n.div_ceil(64);
        Self { n, words, adj: vec![0; n * words] }
    }

    fn connect(&mut self, i: usize, j: usize) {
        self.adj[i * self.words + j / 64] |= 1 << (j % 64);
        self.adj[j * self.words + i / 64] |= 1 << (i % 64);
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.adj[i * self.words..(i + 1) * self.words]
    }

    /// The set of all nodes.
    fn full(&self) -> Vec<u64> {
        let mut set = vec![u64::MAX; self.words];
        if let Some(last) = set.last_mut() {
            *last >>= 64 * self.words - self.n;
        }
        set
    }
}

fn contains(set: &[u64], v: usize) -> bool {
    set[v / 64] >> (v % 64) & 1 == 1
}

fn remove(set: &mut [u64], v: usize) {
    set[v / 64] &= !(1 << (v % 64));
}

fn is_empty(set: &[u64]) -> bool {
    set.iter().all(|&w| w == 0)
}

/// `|a ∩ b|`.
fn common(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// The members of a set, ascending.
fn members(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                k * 64 + b
            })
        })
    })
}

/// Builds the compatibility graph `A` of the node set.
fn compatibility_graph(machine: &Machine, nodes: &[ShareNode], opts: ShareOptions) -> Graph {
    let mut rule4 = CrossField::new(machine, opts);
    let mut graph = Graph::new(nodes.len());
    for (i, a) in nodes.iter().enumerate() {
        for (j, b) in nodes.iter().enumerate().skip(i + 1) {
            if compatible(a, b, &mut rule4) {
                graph.connect(i, j);
            }
        }
    }
    graph
}

fn compatible(a: &ShareNode, b: &ShareNode, rule4: &mut CrossField<'_>) -> bool {
    // Rule 2: same task class and width.
    if a.class != b.class || a.width != b.width {
        return false;
    }
    if a.owner.op == b.owner.op {
        // Rule 1 (+ non-terminal refinement).
        return a.owner.exclusive_within_op(&b.owner);
    }
    // Rule 3: same field.
    if a.owner.op.field == b.owner.op.field {
        return true;
    }
    // Rule 4: different fields — only with proof of exclusivity.
    rule4.exclusive(a.owner.op, b.owner.op)
}

/// Rule 4's verdicts, decided once per operation pair: many nodes share
/// an owner operation, and the constraint proof depends only on the
/// two operations.
struct CrossField<'m> {
    machine: &'m Machine,
    opts: ShareOptions,
    /// Every field a constraint mentions, sorted and deduplicated.
    constraint_fields: Vec<usize>,
    verdicts: HashMap<(OpRef, OpRef), bool>,
}

impl<'m> CrossField<'m> {
    fn new(machine: &'m Machine, opts: ShareOptions) -> Self {
        Self {
            machine,
            opts,
            constraint_fields: constraint_fields(machine),
            verdicts: HashMap::new(),
        }
    }

    /// Whether operations `a` and `b` of different fields are proven
    /// never to co-occur. The verdict is symmetric.
    fn exclusive(&mut self, a: OpRef, b: OpRef) -> bool {
        let (machine, opts, fields) = (self.machine, self.opts, &self.constraint_fields);
        *self.verdicts.entry((a.min(b), a.max(b))).or_insert_with(|| {
            (opts.use_hints && hinted_together(machine, a, b))
                || (opts.use_constraints && excluded_by(machine, fields, a, b))
        })
    }
}

/// Whether an `archinfo` share hint names both operations.
fn hinted_together(machine: &Machine, a: OpRef, b: OpRef) -> bool {
    machine.share_hints.iter().any(|h| h.ops.contains(&a) && h.ops.contains(&b))
}

/// Whether the constraints prove operations `a` and `b` can never be
/// selected in the same instruction.
#[must_use]
pub fn constraints_exclude(machine: &Machine, a: OpRef, b: OpRef) -> bool {
    excluded_by(machine, &constraint_fields(machine), a, b)
}

/// [`constraints_exclude`], given the machine's [`constraint_fields`].
fn excluded_by(machine: &Machine, constraint_fields: &[usize], a: OpRef, b: OpRef) -> bool {
    // Fast path: a two-operation forbid naming exactly this pair.
    for c in &machine.constraints {
        if let Constraint::Forbid(ops) = c {
            if ops.len() == 2 && ops.contains(&a) && ops.contains(&b) {
                return true;
            }
        }
    }
    // General path: brute-force satisfiability over the fields any
    // constraint mentions (others pinned to an arbitrary op — their
    // value cannot matter to the mentioned constraints).
    let mut mentioned: Vec<usize> = constraint_fields.to_vec();
    mentioned.extend([a.field.0, b.field.0]);
    mentioned.sort_unstable();
    mentioned.dedup();
    let combos: u64 = mentioned.iter().map(|&f| machine.fields[f].ops.len() as u64).product();
    if combos > 65_536 {
        return false; // too large to prove; assume co-occurrence possible
    }
    let mut selection: Vec<usize> = machine.fields.iter().map(|_| 0).collect();
    !any_valid_selection(machine, &mentioned, 0, &mut selection, a, b)
}

/// Every field any constraint mentions, sorted and deduplicated.
fn constraint_fields(machine: &Machine) -> Vec<usize> {
    let mut fields = Vec::new();
    for c in &machine.constraints {
        collect_fields(c, &mut fields);
    }
    fields.sort_unstable();
    fields.dedup();
    fields
}

fn collect_fields(c: &Constraint, out: &mut Vec<usize>) {
    match c {
        Constraint::Forbid(ops) => out.extend(ops.iter().map(|r| r.field.0)),
        Constraint::Assert(e) => collect_cexpr_fields(e, out),
    }
}

fn collect_cexpr_fields(e: &CExpr, out: &mut Vec<usize>) {
    match e {
        CExpr::Op(r) => out.push(r.field.0),
        CExpr::Not(x) => collect_cexpr_fields(x, out),
        CExpr::And(x, y) | CExpr::Or(x, y) => {
            collect_cexpr_fields(x, out);
            collect_cexpr_fields(y, out);
        }
    }
}

/// Depth-first search for a constraint-satisfying selection containing
/// both `a` and `b`.
fn any_valid_selection(
    machine: &Machine,
    mentioned: &[usize],
    depth: usize,
    selection: &mut Vec<usize>,
    a: OpRef,
    b: OpRef,
) -> bool {
    if depth == mentioned.len() {
        return machine.check_constraints(selection).is_none();
    }
    let f = mentioned[depth];
    if f == a.field.0 {
        selection[f] = a.op;
        return any_valid_selection(machine, mentioned, depth + 1, selection, a, b);
    }
    if f == b.field.0 {
        selection[f] = b.op;
        return any_valid_selection(machine, mentioned, depth + 1, selection, a, b);
    }
    for o in 0..machine.fields[f].ops.len() {
        selection[f] = o;
        if any_valid_selection(machine, mentioned, depth + 1, selection, a, b) {
            return true;
        }
    }
    false
}

/// Enumerates all maximal cliques with Bron–Kerbosch, pivoting on the
/// vertex of `P ∪ X` with most neighbours in `P` (the last such vertex,
/// scanning `P` ascending and then `X` in insertion order). Each clique
/// lists its members in the order they joined `R`.
fn maximal_cliques(graph: &Graph) -> Cliques {
    let mut bk = BronKerbosch {
        graph,
        r: Vec::new(),
        sets: graph.full(),
        xs: Vec::new(),
        cliques: Cliques { members: Vec::new(), bounds: vec![0] },
    };
    bk.expand(0, 0);
    bk.cliques
}

/// Cliques stored back to back: clique `k` is
/// `members[bounds[k]..bounds[k + 1]]`. SPAM's datapath alone has
/// thousands of maximal cliques, so members are `u32` node indices.
#[derive(Debug)]
struct Cliques {
    members: Vec<u32>,
    bounds: Vec<usize>,
}

impl Cliques {
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn get(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        self.members[self.bounds[k]..self.bounds[k + 1]].iter().map(|&v| v as usize)
    }
}

/// Bron–Kerbosch state. The recursion keeps its sets on two stacks, so
/// a call allocates nothing: each level's `P` and then its candidate
/// set occupy `graph.words` words of `sets`, and each level's `X` is a
/// run at the end of `xs`.
struct BronKerbosch<'g> {
    graph: &'g Graph,
    r: Vec<u32>,
    sets: Vec<u64>,
    xs: Vec<usize>,
    cliques: Cliques,
}

impl BronKerbosch<'_> {
    /// Extends `R` from `P = sets[p..]` (the top of the stack) and
    /// `X = xs[x..]`.
    fn expand(&mut self, p: usize, x: usize) {
        let (g, words) = (self.graph, self.graph.words);
        if is_empty(&self.sets[p..]) {
            if self.xs.len() == x {
                self.cliques.members.extend_from_slice(&self.r);
                self.cliques.bounds.push(self.cliques.members.len());
            }
            return;
        }
        let mut pivot = (0, 0);
        for u in members(&self.sets[p..]).chain(self.xs[x..].iter().copied()) {
            let degree = common(g.row(u), &self.sets[p..]);
            if degree >= pivot.1 {
                pivot = (u, degree);
            }
        }
        // Candidates P \ N(pivot), a snapshot taken before P shrinks.
        let c = p + words;
        for (k, &n) in g.row(pivot.0).iter().enumerate() {
            self.sets.push(self.sets[p + k] & !n);
        }
        for k in 0..words {
            let mut word = self.sets[c + k];
            while word != 0 {
                let v = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let row = g.row(v);
                for (j, &n) in row.iter().enumerate() {
                    self.sets.push(self.sets[p + j] & n);
                }
                let x_end = self.xs.len();
                for j in x..x_end {
                    if contains(row, self.xs[j]) {
                        self.xs.push(self.xs[j]);
                    }
                }
                self.r.push(v as u32);
                self.expand(c + words, x_end);
                self.r.pop();
                self.sets.truncate(c + words);
                self.xs.truncate(x_end);
                remove(&mut self.sets[p..c], v);
                self.xs.push(v);
            }
        }
        self.sets.truncate(c);
    }
}

/// Greedy clique cover: repeatedly take the clique with most
/// still-uncovered members (the last such clique on ties), restricted
/// to those members — a subset of a clique is a clique.
fn clique_cover(n: usize, cliques: &Cliques) -> Vec<Vec<usize>> {
    // `score[k]` = uncovered members of clique `k`, kept current through
    // an index of the cliques holding each node: node `v`'s cliques are
    // `holding[start[v]..start[v + 1]]`.
    let mut score: Vec<u32> = cliques.bounds.windows(2).map(|b| (b[1] - b[0]) as u32).collect();
    let mut start = vec![0; n + 1];
    for &v in &cliques.members {
        start[v as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut holding = vec![0u32; start[n]];
    let mut next = start.clone();
    for k in 0..cliques.len() {
        let id = u32::try_from(k).expect("clique count fits u32");
        for v in cliques.get(k) {
            holding[next[v]] = id;
            next[v] += 1;
        }
    }
    let mut covered = vec![false; n];
    let mut groups = Vec::new();
    loop {
        let best = score.iter().copied().max().unwrap_or(0);
        if best == 0 {
            break;
        }
        let k = score.iter().rposition(|&s| s == best).expect("a maximum");
        let group: Vec<usize> = cliques.get(k).filter(|&v| !covered[v]).collect();
        for &v in &group {
            covered[v] = true;
            for &h in &holding[start[v]..start[v + 1]] {
                score[h as usize] -= 1;
            }
        }
        groups.push(group);
    }
    // Any isolated leftovers (no cliques at all for them).
    groups.extend((0..n).filter(|&v| !covered[v]).map(|v| vec![v]));
    groups
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use isdl::model::FieldId;

    fn opref(f: usize, o: usize) -> OpRef {
        OpRef { field: FieldId(f), op: o }
    }

    fn node(class: ShareClass, width: u32, f: usize, o: usize) -> ShareNode {
        ShareNode { class, width, owner: NodeOwner::plain(opref(f, o)) }
    }

    fn toy() -> Machine {
        isdl::load(isdl::samples::TOY).expect("loads")
    }

    #[test]
    fn same_field_different_ops_share() {
        let m = toy();
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0), // ALU.add
            node(ShareClass::AddSub, 16, 0, 1), // ALU.sub
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 1, "add and sub merge into one adder");
        assert_eq!(p.units_saved(), 1);
    }

    #[test]
    fn same_op_nodes_do_not_share() {
        let m = toy();
        let nodes = vec![node(ShareClass::AddSub, 16, 0, 0), node(ShareClass::AddSub, 16, 0, 0)];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 2);
    }

    #[test]
    fn different_class_or_width_do_not_share() {
        let m = toy();
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0),
            node(ShareClass::Bin(VBinOp::Mul), 16, 0, 1),
            node(ShareClass::AddSub, 8, 0, 2),
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 3);
    }

    #[test]
    fn cross_field_needs_constraint_proof() {
        let m = toy();
        // TOY forbids ALU.mac (field 0, op 9) with MOVE.mvacc (field 1,
        // op 1): their nodes may share.
        let mac = m.op_by_name("ALU", "mac").expect("mac");
        let mvacc = m.op_by_name("MOVE", "mvacc").expect("mvacc");
        let nodes = vec![
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(mac) },
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(mvacc) },
        ];
        let with = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(with.unit_count(), 1, "constraint proves exclusivity");
        let without = plan(
            &m,
            &nodes,
            ShareOptions { use_constraints: false, use_hints: false, enabled: true },
        );
        assert_eq!(without.unit_count(), 2, "rule 4 alone forbids sharing");
    }

    #[test]
    fn cross_field_without_constraint_does_not_share() {
        let m = toy();
        let add = m.op_by_name("ALU", "add").expect("add");
        let mv = m.op_by_name("MOVE", "mv").expect("mv");
        let nodes = vec![
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(add) },
            ShareNode { class: ShareClass::AddSub, width: 16, owner: NodeOwner::plain(mv) },
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 2, "add and mv can co-occur");
    }

    #[test]
    fn nt_options_within_one_op_share() {
        let m = toy();
        let add = m.op_by_name("ALU", "add").expect("add");
        let mk = |option| ShareNode {
            class: ShareClass::MemRead(StorageId(1)),
            width: 16,
            owner: NodeOwner { op: add, nt_context: vec![(2, option)] },
        };
        let nodes = vec![mk(0), mk(1)];
        let p = plan(&m, &nodes, ShareOptions::default());
        assert_eq!(p.unit_count(), 1, "exclusive addressing modes share a port");
    }

    #[test]
    fn sharing_disabled_gives_one_unit_per_node() {
        let m = toy();
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0),
            node(ShareClass::AddSub, 16, 0, 1),
            node(ShareClass::AddSub, 16, 0, 2),
        ];
        let p = plan(&m, &nodes, ShareOptions { enabled: false, ..ShareOptions::default() });
        assert_eq!(p.unit_count(), 3);
        assert_eq!(p.units_saved(), 0);
    }

    #[test]
    fn bron_kerbosch_finds_triangle_and_edge() {
        // Graph: 0-1, 1-2, 0-2 (triangle), 3-4 (edge), 5 isolated.
        let mut g = Graph::new(6);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4)] {
            g.connect(a, b);
        }
        let found = maximal_cliques(&g);
        let mut cliques: Vec<Vec<usize>> =
            (0..found.len()).map(|k| found.get(k).collect()).collect();
        for c in &mut cliques {
            c.sort_unstable();
        }
        cliques.sort();
        assert!(cliques.contains(&vec![0, 1, 2]));
        assert!(cliques.contains(&vec![3, 4]));
        assert!(cliques.contains(&vec![5]));
    }

    #[test]
    fn clique_cover_partitions_all_nodes() {
        let m = toy();
        // Seven nodes: 3 shareable ALU adders + mul + 2 cross-field.
        let nodes = vec![
            node(ShareClass::AddSub, 16, 0, 0),
            node(ShareClass::AddSub, 16, 0, 1),
            node(ShareClass::AddSub, 16, 0, 4),
            node(ShareClass::Bin(VBinOp::Mul), 16, 0, 9),
            node(ShareClass::AddSub, 16, 1, 0),
            node(ShareClass::AddSub, 16, 1, 1),
            node(ShareClass::Bin(VBinOp::Xor), 16, 0, 3),
        ];
        let p = plan(&m, &nodes, ShareOptions::default());
        let mut all: Vec<usize> = p.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..nodes.len()).collect::<Vec<_>>(), "exact partition");
        // The three field-0 adders share; the two MOVE-field adders share.
        assert!(p.unit_count() <= 4);
    }
}
