//! Entity clustering: grouping pairwise matches into equivalence clusters
//! with a union-find, used by dirty ER (duplicate chains) and multi-KB
//! resolution (§3.2: the disjunctive blocking graph "covers the cases of
//! an entity collection E being composed of one, two, or more KBs").

use minoaner_det::DetHashMap;

/// A disjoint-set forest over arbitrary hashable items.
#[derive(Debug, Default)]
pub struct UnionFind<T: std::hash::Hash + Eq + Clone> {
    parent: DetHashMap<T, T>,
    rank: DetHashMap<T, u32>,
}

impl<T: std::hash::Hash + Eq + Clone> UnionFind<T> {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self { parent: DetHashMap::default(), rank: DetHashMap::default() }
    }

    /// Ensures `x` exists as a singleton.
    pub fn insert(&mut self, x: T) {
        if !self.parent.contains_key(&x) {
            self.parent.insert(x.clone(), x.clone());
            self.rank.insert(x, 0);
        }
    }

    /// Finds the representative of `x`'s set (with path compression),
    /// inserting `x` if new.
    #[expect(clippy::indexing_slicing, reason = "bound: every element the walk reaches is a key of \
              `parent`: `x` is inserted first, and every parent stored is an inserted element.")]
    pub fn find(&mut self, x: &T) -> T {
        self.insert(x.clone());
        let mut root = x.clone();
        while self.parent[&root] != root {
            root = self.parent[&root].clone();
        }
        // Path compression.
        let mut cur = x.clone();
        while self.parent[&cur] != root {
            let next = self.parent[&cur].clone();
            self.parent.insert(cur, root.clone());
            cur = next;
        }
        root
    }

    /// Unions the sets containing `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: &T, b: &T) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        #[expect(clippy::indexing_slicing, reason = "bound: `ra` and `rb` are roots `find` \
                  returned, so inserted, and `insert` gives every element a `rank`.")]
        let (ka, kb) = (self.rank[&ra], self.rank[&rb]);
        if ka < kb {
            self.parent.insert(ra, rb);
        } else if ka > kb {
            self.parent.insert(rb, ra);
        } else {
            self.parent.insert(rb, ra.clone());
            if let Some(rank) = self.rank.get_mut(&ra) {
                *rank += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: &T, b: &T) -> bool {
        self.find(a) == self.find(b)
    }

    /// Extracts all clusters with at least `min_size` members, each sorted,
    /// and the whole list sorted by first member (deterministic).
    #[expect(clippy::disallowed_methods, reason = "every cluster is sorted, and then the list of \
              them, before it is returned")]
    pub fn clusters(&mut self, min_size: usize) -> Vec<Vec<T>>
    where
        T: Ord,
    {
        let keys: Vec<T> = self.parent.keys().cloned().collect();
        let mut groups: DetHashMap<T, Vec<T>> = DetHashMap::default();
        for k in keys {
            let root = self.find(&k);
            groups.entry(root).or_default().push(k);
        }
        let mut out: Vec<Vec<T>> = groups
            .into_values()
            .filter(|g| g.len() >= min_size)
            .map(|mut g| {
                g.sort();
                g
            })
            .collect();
        out.sort();
        out
    }
}

/// Builds clusters (size ≥ 2) from pairwise matches.
pub fn cluster_matches<T: std::hash::Hash + Eq + Clone + Ord>(pairs: &[(T, T)]) -> Vec<Vec<T>> {
    let mut uf = UnionFind::new();
    for (a, b) in pairs {
        uf.union(a, b);
    }
    uf.clusters(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new();
        assert!(uf.union(&1, &2));
        assert!(uf.union(&3, &4));
        assert!(!uf.connected(&1, &3));
        assert!(uf.union(&2, &3));
        assert!(uf.connected(&1, &4));
        assert!(!uf.union(&1, &4), "already joined");
    }

    #[test]
    fn singletons_are_excluded_from_clusters() {
        let mut uf = UnionFind::new();
        uf.insert(10);
        uf.union(&1, &2);
        let clusters = uf.clusters(2);
        assert_eq!(clusters, vec![vec![1, 2]]);
        let all = uf.clusters(1);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn cluster_matches_chains_transitively() {
        let pairs = vec![("a", "b"), ("b", "c"), ("x", "y")];
        let clusters = cluster_matches(&pairs);
        assert_eq!(clusters, vec![vec!["a", "b", "c"], vec!["x", "y"]]);
    }

    #[test]
    fn path_compression_keeps_results_consistent() {
        let mut uf = UnionFind::new();
        for i in 0..100u32 {
            uf.union(&i, &(i + 1));
        }
        let root = uf.find(&0);
        for i in 0..=100 {
            assert_eq!(uf.find(&i), root);
        }
        assert_eq!(uf.clusters(2).len(), 1);
        assert_eq!(uf.clusters(2)[0].len(), 101);
    }

    #[test]
    fn empty_input() {
        let clusters: Vec<Vec<u32>> = cluster_matches(&[]);
        assert!(clusters.is_empty());
    }
}
