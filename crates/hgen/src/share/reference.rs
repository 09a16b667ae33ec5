//! The original `Vec<bool>` planner, kept as a test oracle: a dense
//! compatibility matrix, `Vec`-based Bron–Kerbosch and a cover that
//! re-filters every clique each round, with rule 4 decided afresh for
//! every node pair. The bitset planner must reproduce its plans
//! exactly, member order included.

use super::{constraints_exclude, hinted_together, ShareNode, ShareOptions, SharePlan};
use isdl::model::Machine;

pub(super) fn plan(machine: &Machine, nodes: &[ShareNode], opts: ShareOptions) -> SharePlan {
    if !opts.enabled || nodes.is_empty() {
        return SharePlan { groups: (0..nodes.len()).map(|i| vec![i]).collect() };
    }
    let matrix = compatibility_matrix(machine, nodes, opts);
    let cliques = maximal_cliques(&matrix);
    SharePlan { groups: clique_cover(nodes.len(), cliques) }
}

pub(super) fn compatibility_matrix(
    machine: &Machine,
    nodes: &[ShareNode],
    opts: ShareOptions,
) -> Vec<Vec<bool>> {
    let n = nodes.len();
    let mut m = vec![vec![false; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let ok = compatible(machine, &nodes[i], &nodes[j], opts);
            m[i][j] = ok;
            m[j][i] = ok;
        }
    }
    m
}

fn compatible(machine: &Machine, a: &ShareNode, b: &ShareNode, opts: ShareOptions) -> bool {
    if a.class != b.class || a.width != b.width {
        return false;
    }
    if a.owner.op == b.owner.op {
        return a.owner.exclusive_within_op(&b.owner);
    }
    if a.owner.op.field == b.owner.op.field {
        return true;
    }
    if opts.use_hints && hinted_together(machine, a.owner.op, b.owner.op) {
        return true;
    }
    if opts.use_constraints && constraints_exclude(machine, a.owner.op, b.owner.op) {
        return true;
    }
    false
}

pub(super) fn maximal_cliques(matrix: &[Vec<bool>]) -> Vec<Vec<usize>> {
    let n = matrix.len();
    let mut cliques = Vec::new();
    let mut r = Vec::new();
    let p: Vec<usize> = (0..n).collect();
    bron_kerbosch(matrix, &mut r, p, Vec::new(), &mut cliques);
    cliques
}

fn bron_kerbosch(
    m: &[Vec<bool>],
    r: &mut Vec<usize>,
    p: Vec<usize>,
    mut x: Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if p.is_empty() && x.is_empty() {
        out.push(r.clone());
        return;
    }
    let pivot = p
        .iter()
        .chain(&x)
        .copied()
        .max_by_key(|&u| p.iter().filter(|&&v| m[u][v]).count())
        .expect("P or X non-empty");
    let candidates: Vec<usize> = p.iter().copied().filter(|&v| !m[pivot][v]).collect();
    let mut p = p;
    for v in candidates {
        let p2: Vec<usize> = p.iter().copied().filter(|&u| m[v][u]).collect();
        let x2: Vec<usize> = x.iter().copied().filter(|&u| m[v][u]).collect();
        r.push(v);
        bron_kerbosch(m, r, p2, x2, out);
        r.pop();
        p.retain(|&u| u != v);
        x.push(v);
    }
}

pub(super) fn clique_cover(n: usize, cliques: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    let mut covered = vec![false; n];
    let mut groups = Vec::new();
    loop {
        let best = cliques
            .iter()
            .map(|c| c.iter().copied().filter(|&v| !covered[v]).collect::<Vec<_>>())
            .max_by_key(Vec::len)
            .unwrap_or_default();
        if best.is_empty() {
            break;
        }
        for &v in &best {
            covered[v] = true;
        }
        groups.push(best);
        if covered.iter().all(|&c| c) {
            break;
        }
    }
    for (v, &c) in covered.iter().enumerate() {
        if !c {
            groups.push(vec![v]);
        }
    }
    groups
}

/// The bitset planner against the oracle above.
mod differential {
    use super::super::{maximal_cliques, Graph, NodeOwner, ShareClass};
    use super::*;
    use crate::datapath::DatapathBuilder;
    use crate::decode::DecodePlan;
    use crate::HgenOptions;
    use isdl::model::OpRef;
    use vlog::ast::VBinOp;

    /// Every rule-4 configuration of the planner.
    const OPTIONS: [ShareOptions; 4] = [
        ShareOptions { enabled: true, use_constraints: true, use_hints: true },
        ShareOptions { enabled: true, use_constraints: true, use_hints: false },
        ShareOptions { enabled: true, use_constraints: false, use_hints: true },
        ShareOptions { enabled: true, use_constraints: false, use_hints: false },
    ];

    fn assert_same_plan(
        machine: &Machine,
        nodes: &[ShareNode],
        options: &[ShareOptions],
        what: &str,
    ) {
        for &opts in options {
            assert_eq!(
                super::super::plan(machine, nodes, opts).groups,
                plan(machine, nodes, opts).groups,
                "{what}, {} nodes, {opts:?}",
                nodes.len()
            );
        }
    }

    /// The node sets `emit` plans: the datapath's functional-unit nodes,
    /// then one write-port set per addressed storage, in emit's order.
    fn node_sets(machine: &Machine) -> Vec<Vec<ShareNode>> {
        let opts = HgenOptions::default();
        let decode = DecodePlan::new(machine);
        let dp = DatapathBuilder::new(&decode, "instr", opts.decode)
            .with_pipeline(opts.pipeline())
            .build(&|r| format!("dec_f{}_o{}", r.field.0, r.op));
        let mut sets = vec![dp.nodes.iter().map(|n| n.share.clone()).collect()];
        let mut per_storage: Vec<(isdl::rtl::StorageId, Vec<(usize, NodeOwner)>)> = Vec::new();
        for w in dp.writes.iter().filter(|w| Some(w.sid) != machine.pc) {
            // Delayed writes reach the ports with order 0 (see `emit`).
            let req = (if w.latency > 1 { 0 } else { w.order }, w.owner.clone());
            match per_storage.iter_mut().find(|(s, _)| *s == w.sid) {
                Some((_, v)) => v.push(req),
                None => per_storage.push((w.sid, vec![req])),
            }
        }
        for (sid, mut reqs) in per_storage {
            let st = machine.storage(sid);
            if st.kind.is_addressed() {
                reqs.sort_by_key(|r| r.0);
                sets.push(
                    reqs.into_iter()
                        .map(|(_, owner)| ShareNode {
                            class: ShareClass::MemWrite(sid),
                            width: st.width,
                            owner,
                        })
                        .collect(),
                );
            }
        }
        sets
    }

    #[test]
    fn planner_matches_reference_on_every_sample_machine() {
        use isdl::samples::{ACC16, SPAM, SPAM2, TOY, WIDEMUL};
        // `SPAM` and `SPAM2` are the two fixtures under fixtures/.
        for src in [TOY, ACC16, WIDEMUL, SPAM, SPAM2] {
            let machine = isdl::load(src).expect("loads");
            let sets = node_sets(&machine);
            assert!(sets.len() > 1, "{}: datapath and write ports", machine.name);
            for nodes in &sets {
                assert_same_plan(&machine, nodes, &OPTIONS, &machine.name);
            }
        }
    }

    #[test]
    fn planner_matches_reference_on_every_proposed_spam_mutation() {
        let spam = isdl::load(isdl::samples::SPAM).expect("loads");
        let kernels = [archex::workloads::dot_product(4), archex::workloads::vector_update(3)];
        let ev = archex::evaluate(&spam, &kernels, Default::default()).expect("evaluates");
        let proposals = archex::Explorer::default().propose(&spam, &ev);
        assert!(proposals.len() > 10, "{} proposals", proposals.len());
        for mutation in &proposals {
            let Some(machine) = archex::explore::apply_mutation(&spam, mutation) else {
                continue;
            };
            for nodes in node_sets(&machine) {
                assert_same_plan(&machine, &nodes, &OPTIONS[..1], &mutation.to_string());
            }
        }
    }

    /// Node counts either side of the 64-bit word boundaries.
    const SIZES: [usize; 5] = [1, 63, 64, 65, 130];

    /// A deterministic xorshift64* stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    #[test]
    fn bitset_cliques_and_cover_match_reference_on_random_graphs() {
        for (seed, &n) in SIZES.iter().enumerate() {
            // Uniform graphs, and clustered ones shaped like share graphs
            // (dense inside a task class, sparse across).
            for (percent_in, percent_out, clusters) in [(10, 10, 1), (30, 30, 1), (90, 5, 7)] {
                let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ ((seed as u64 + 1) * 7919 + percent_in));
                let cluster: Vec<usize> = (0..n).map(|_| rng.below(clusters)).collect();
                let mut graph = Graph::new(n);
                let mut matrix = vec![vec![false; n]; n];
                for i in 0..n {
                    for j in (i + 1)..n {
                        let percent =
                            if cluster[i] == cluster[j] { percent_in } else { percent_out };
                        if rng.chance(percent) {
                            graph.connect(i, j);
                            matrix[i][j] = true;
                            matrix[j][i] = true;
                        }
                    }
                }
                let what = format!("n={n}, {percent_in}%/{percent_out}%, {clusters} clusters");
                let cliques = maximal_cliques(&graph);
                let expected = super::maximal_cliques(&matrix);
                let found: Vec<Vec<usize>> =
                    (0..cliques.len()).map(|k| cliques.get(k).collect()).collect();
                assert_eq!(found, expected, "cliques: {what}");
                assert_eq!(
                    super::super::clique_cover(n, &cliques),
                    clique_cover(n, expected),
                    "cover: {what}"
                );
            }
        }
    }

    #[test]
    fn planner_matches_reference_on_random_spam_nodes() {
        let spam = isdl::load(isdl::samples::SPAM).expect("loads");
        let ops: Vec<OpRef> = spam.all_ops().map(|(r, _)| r).collect();
        let classes = [ShareClass::AddSub, ShareClass::Bin(VBinOp::Mul)];
        for (seed, &n) in SIZES.iter().enumerate() {
            let mut rng = Rng(0xD1B5_4A32_D192_ED03 ^ ((seed as u64 + 1) * 104_729));
            let nodes: Vec<ShareNode> = (0..n)
                .map(|_| {
                    let op = ops[rng.below(ops.len())];
                    let nt_context = (0..rng.below(3)).map(|k| (k as u32, rng.below(3))).collect();
                    ShareNode {
                        class: classes[rng.below(classes.len())],
                        width: [16, 32][rng.below(2)],
                        owner: NodeOwner { op, nt_context },
                    }
                })
                .collect();
            assert_same_plan(&spam, &nodes, &OPTIONS, "random SPAM nodes");
        }
    }
}
