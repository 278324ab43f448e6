//! Multi-KB resolution — the "more than two clean KBs" generalization of
//! §2/§3.2: with k KBs the disjunctive blocking graph is k-partite ("the
//! only information needed to match multiple KBs is to which KB every
//! description belongs").
//!
//! This implementation resolves every KB pair with the standard two-KB
//! pipeline and merges the pairwise matches into entity clusters with a
//! union-find — each cluster holding at most one description per KB is the
//! k-partite analogue of clean-clean 1–1 matching. Conflicting evidence
//! (a cluster that would absorb two descriptions of one KB) is resolved by
//! keeping the earlier, higher-priority pair (pairs are applied in
//! KB-pair order, then match order).

use minoaner_det::DetHashMap;

use minoaner_dataflow::Executor;
use minoaner_kb::{KbPair, KbPairBuilder, Side, Term};

use crate::clusters::UnionFind;
use crate::config::RuleSet;
use crate::pipeline::Minoaner;

/// A multi-KB input: each KB is a list of triples
/// `(subject, predicate, object)`.
#[derive(Debug, Default, Clone)]
pub struct MultiKb {
    kbs: Vec<Vec<(String, String, ObjectTerm)>>,
}

/// Owned object term for [`MultiKb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectTerm {
    Literal(String),
    Uri(String),
}

/// A node of the k-partite match graph: `(kb index, entity URI)`.
pub type MultiNode = (usize, String);

impl MultiKb {
    /// Creates an empty multi-KB input.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an empty KB and returns its index.
    pub fn add_kb(&mut self) -> usize {
        self.kbs.push(Vec::new());
        self.kbs.len() - 1
    }

    /// Adds one triple to a KB.
    pub fn add_triple(&mut self, kb: usize, subject: &str, predicate: &str, object: ObjectTerm) {
        self.kbs[kb].push((subject.to_owned(), predicate.to_owned(), object));
    }

    /// Number of KBs.
    pub fn len(&self) -> usize {
        self.kbs.len()
    }

    /// Whether no KBs were added.
    pub fn is_empty(&self) -> bool {
        self.kbs.is_empty()
    }

    /// Materializes the clean-clean pair for KBs `i` and `j`.
    fn pair(&self, i: usize, j: usize) -> KbPair {
        let mut b = KbPairBuilder::new();
        for (side, idx) in [(Side::Left, i), (Side::Right, j)] {
            for (s, p, o) in &self.kbs[idx] {
                match o {
                    ObjectTerm::Literal(l) => b.add_triple(side, s, p, Term::Literal(l)),
                    ObjectTerm::Uri(u) => b.add_triple(side, s, p, Term::Uri(u)),
                }
            }
        }
        b.finish()
    }
}

/// The result of multi-KB resolution.
#[derive(Debug, Clone)]
pub struct MultiResolution {
    /// Entity clusters (size ≥ 2), each a sorted list of `(kb, uri)` nodes
    /// with at most one node per KB.
    pub clusters: Vec<Vec<MultiNode>>,
    /// Raw pairwise matches per KB pair: `((i, j), matches)`.
    pub pairwise: Vec<((usize, usize), usize)>,
}

impl Minoaner {
    /// The multi-KB implementation behind [`crate::ResolveRequest::multi`]:
    /// every KB pair through the standard two-KB pipeline, then k-partite
    /// clustering of the pairwise matches.
    pub(crate) fn multi_impl(
        &self,
        executor: &Executor,
        input: &MultiKb,
    ) -> Result<MultiResolution, minoaner_dataflow::DataflowError> {
        let mut uf: UnionFind<MultiNode> = UnionFind::new();
        // Cluster membership guard: root → kb indices already present.
        let mut kb_members: DetHashMap<MultiNode, Vec<usize>> = DetHashMap::default();
        let mut pairwise = Vec::new();

        for i in 0..input.len() {
            for j in (i + 1)..input.len() {
                let pair = input.pair(i, j);
                let res = self.resolve_impl(executor, &pair, RuleSet::FULL, false, None)?;
                pairwise.push(((i, j), res.matches.len()));
                for &(l, r) in &res.matches {
                    let a: MultiNode = (i, pair.uri_of(Side::Left, l).to_owned());
                    let b: MultiNode = (j, pair.uri_of(Side::Right, r).to_owned());
                    try_union(&mut uf, &mut kb_members, a, b);
                }
            }
        }

        Ok(MultiResolution { clusters: uf.clusters(2), pairwise })
    }
}

/// Unions `a` and `b` only if the merged cluster keeps at most one
/// description per KB (the k-partite constraint).
fn try_union(
    uf: &mut UnionFind<MultiNode>,
    kb_members: &mut DetHashMap<MultiNode, Vec<usize>>,
    a: MultiNode,
    b: MultiNode,
) {
    let ra = uf.find(&a);
    let rb = uf.find(&b);
    if ra == rb {
        return;
    }
    let ka = kb_members.remove(&ra).unwrap_or_else(|| vec![ra.0]);
    let kb_ = kb_members.remove(&rb).unwrap_or_else(|| vec![rb.0]);
    if ka.iter().any(|k| kb_.contains(k)) {
        // Merging would place two descriptions of one KB in a cluster:
        // keep the earlier assignment and drop this pair.
        kb_members.insert(ra, ka);
        kb_members.insert(rb, kb_);
        return;
    }
    uf.union(&a, &b);
    let new_root = uf.find(&a);
    let mut merged = ka;
    merged.extend(kb_);
    kb_members.insert(new_root, merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResolveRequest;

    /// Three KBs describing overlapping restaurant sets.
    fn three_kbs() -> MultiKb {
        let mut m = MultiKb::new();
        let data: [&[(&str, &str, &str)]; 3] = [
            &[
                ("a:fatduck", "a:label", "the fat duck bray michelin"),
                ("a:noma", "a:label", "noma copenhagen nordic foraging"),
            ],
            &[
                ("b:fat_duck", "b:name", "fat duck bray michelin stars"),
                ("b:noma", "b:name", "noma nordic foraging copenhagen"),
                ("b:bulli", "b:name", "el bulli roses catalonia"),
            ],
            &[
                ("c:fd", "c:title", "fat duck michelin bray heston"),
                ("c:bulli", "c:title", "el bulli catalonia roses adria"),
            ],
        ];
        for kb in data {
            let idx = m.add_kb();
            for (s, p, o) in kb {
                m.add_triple(idx, s, p, ObjectTerm::Literal(o.to_string()));
            }
        }
        m
    }

    fn resolve_multi(m: &MultiKb, workers: usize) -> MultiResolution {
        Minoaner::new()
            .run(ResolveRequest::multi(m).workers(workers))
            .expect("healthy run succeeds")
            .into_multi()
    }

    #[test]
    fn clusters_span_multiple_kbs() {
        let m = three_kbs();
        let res = resolve_multi(&m, 2);
        // Fat Duck appears in all three KBs → one 3-node cluster.
        let fat_duck = res
            .clusters
            .iter()
            .find(|c| c.iter().any(|(_, uri)| uri.contains("fatduck") || uri.contains("fat_duck") || *uri == "c:fd"))
            .expect("fat duck cluster");
        assert_eq!(fat_duck.len(), 3, "{fat_duck:?}");
        // El Bulli appears in KBs 1 and 2 only.
        let bulli = res
            .clusters
            .iter()
            .find(|c| c.iter().any(|(_, uri)| uri.contains("bulli")))
            .expect("bulli cluster");
        assert_eq!(bulli.len(), 2);
        assert_eq!(res.pairwise.len(), 3, "three KB pairs resolved");
    }

    #[test]
    fn clusters_hold_at_most_one_node_per_kb() {
        let m = three_kbs();
        let res = resolve_multi(&m, 1);
        for cluster in &res.clusters {
            let mut kbs: Vec<usize> = cluster.iter().map(|(kb, _)| *kb).collect();
            let n = kbs.len();
            kbs.sort_unstable();
            kbs.dedup();
            assert_eq!(n, kbs.len(), "k-partite constraint violated: {cluster:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two KBs")]
    fn single_kb_rejected() {
        let mut m = MultiKb::new();
        m.add_kb();
        resolve_multi(&m, 1);
    }
}
