//! Multi-KB resolution — the "more than two clean KBs" generalization of
//! §2/§3.2: with k KBs the disjunctive blocking graph is k-partite ("the
//! only information needed to match multiple KBs is to which KB every
//! description belongs").
//!
//! Each KB comes in as the left side of a [`KbPair`], loaded as any other
//! KB is. This implementation builds the clean-clean pair of every two
//! KBs, resolves it with the standard two-KB pipeline and merges the
//! pairwise matches into entity clusters with a union-find — each cluster
//! holding at most one description per KB is the k-partite analogue of
//! clean-clean 1–1 matching. Conflicting evidence (a cluster that would
//! absorb two descriptions of one KB) is resolved by keeping the earlier,
//! higher-priority pair (pairs are applied in KB-pair order, then match
//! order).

use minoaner_det::DetHashMap;

use minoaner_dataflow::DataflowError;
use minoaner_kb::{KbPair, KbPairBuilder, Side, Symbol, Term, Value};

use crate::clusters::UnionFind;
use crate::pipeline::Minoaner;
use crate::request::ResolveRequest;

/// A node of the k-partite match graph: `(kb index, entity URI)`.
pub type MultiNode = (usize, String);

/// The clean-clean pair of the left KBs of `a` and `b`: every triple of
/// `a`'s, then every triple of `b`'s, each added with
/// [`KbPairBuilder::add_triple`] — entities in id order, each entity's
/// pairs in stored order, a reference as its target's URI and a literal as
/// its stored text.
fn pair_of(a: &KbPair, b: &KbPair) -> KbPair {
    let mut builder = KbPairBuilder::new();
    for (side, source) in [(Side::Left, a), (Side::Right, b)] {
        for (id, entity) in source.kb(Side::Left).iter() {
            let subject = source.uri_of(Side::Left, id);
            for (attr, value) in entity.pairs() {
                let object = match value {
                    Value::Literal(l) => Term::Literal(source.literals().resolve(Symbol(l.0))),
                    Value::Ref(target) => Term::Uri(source.uri_of(Side::Left, target)),
                };
                builder.add_triple(side, subject, source.attrs().resolve(Symbol(attr.0)), object);
            }
        }
    }
    builder.finish()
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
    /// Resolves `k` clean KBs, each the left side of its pair (a one-KB
    /// pair, as `minoaner kb compile` with one input or a builder fed only
    /// left-side triples makes it): every KB pair through
    /// [`Minoaner::run`] on `workers` workers, then k-partite clustering of
    /// the pairwise matches. With fewer than two KBs there is no pair to
    /// resolve, and no clusters.
    pub fn resolve_multi(&self, kbs: &[KbPair], workers: usize) -> Result<MultiResolution, DataflowError> {
        let mut uf: UnionFind<MultiNode> = UnionFind::new();
        // Cluster membership guard: root → kb indices already present.
        let mut kb_members: DetHashMap<MultiNode, Vec<usize>> = DetHashMap::default();
        let mut pairwise = Vec::new();

        for (i, a) in kbs.iter().enumerate() {
            for (j, b) in kbs.iter().enumerate().skip(i + 1) {
                let pair = pair_of(a, b);
                let res = self.run(ResolveRequest::pair(&pair).workers(workers))?.resolution;
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

    /// One KB as the left side of a pair.
    fn one_kb(triples: &[(&str, &str, &str)]) -> KbPair {
        let mut b = KbPairBuilder::new();
        for (s, p, o) in triples {
            b.add_triple(Side::Left, s, p, Term::Literal(o));
        }
        b.finish()
    }

    /// Three KBs describing overlapping restaurant sets.
    fn three_kbs() -> Vec<KbPair> {
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
        data.into_iter().map(one_kb).collect()
    }

    fn resolve_multi(kbs: &[KbPair], workers: usize) -> MultiResolution {
        Minoaner::new().resolve_multi(kbs, workers).expect("healthy run succeeds")
    }

    #[test]
    fn clusters_span_multiple_kbs() {
        let res = resolve_multi(&three_kbs(), 2);
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
        let res = resolve_multi(&three_kbs(), 1);
        for cluster in &res.clusters {
            let mut kbs: Vec<usize> = cluster.iter().map(|(kb, _)| *kb).collect();
            let n = kbs.len();
            kbs.sort_unstable();
            kbs.dedup();
            assert_eq!(n, kbs.len(), "k-partite constraint violated: {cluster:?}");
        }
    }

    #[test]
    fn fewer_than_two_kbs_give_no_clusters() {
        let mut kbs = Vec::new();
        for n in [0, 1] {
            let res = resolve_multi(&kbs, 1);
            assert_eq!(kbs.len(), n);
            assert!(res.clusters.is_empty() && res.pairwise.is_empty(), "{n} KB(s): {res:?}");
            kbs.push(one_kb(&[("a:fatduck", "a:label", "the fat duck")]));
        }
    }
}
