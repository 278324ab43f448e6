//! Generation profiles: the knobs that shape a synthetic KB pair.
//!
//! Each profile in [`crate::profiles`] is calibrated to reproduce the
//! characteristics of one of the paper's benchmark datasets (Table 1,
//! Figure 2) that *drive its results*: relative KB sizes, token verbosity
//! and its asymmetry, schema width, name availability and reliability, and
//! the strength of the relation structure.


/// Per-KB generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KbProfile {
    /// Mean number of KB-specific filler tokens per entity (drawn from the
    /// Zipf head — frequent, stopword-like). Filler inflates normalized
    /// similarity denominators without carrying matching evidence; the
    /// BBCmusic-DBpedia asymmetry (4× more tokens in DBpedia) lives here.
    pub filler_tokens: f64,
    /// Probability that each of a world entity's specific (signal) tokens
    /// survives into this KB's view of the entity.
    pub token_keep: f64,
    /// Probability that a kept specific token is corrupted (replaced by a
    /// KB-private token), modeling extraction errors.
    pub token_corrupt: f64,
    /// Number of literal attribute names the KB spreads values over
    /// (schema width; Table 1 "attributes").
    pub attributes: usize,
    /// Number of relation names (Table 1 "relations").
    pub relations: usize,
    /// Number of vocabulary namespaces predicates are drawn from.
    pub vocabularies: usize,
    /// Number of distinct entity types (Table 1 "types").
    pub types: usize,
    /// Probability an entity carries a name attribute value.
    pub name_coverage: f64,
    /// Probability that a carried name is corrupted (one token replaced),
    /// breaking exact name matching for that entity.
    pub name_corrupt: f64,
    /// Probability a world relation edge whose endpoints both exist in the
    /// KB is materialized.
    pub relation_coverage: f64,
    /// Whether the KB carries a fully-covered, all-distinct identifier
    /// attribute that *outranks* the real name attribute in name-attribute
    /// importance — the DBpedia quirk behind the paper's Figure 5 finding
    /// that `k = 1` collapses on BBCmusic-DBpedia.
    pub decoy_id_attribute: bool,
}

/// A complete generation profile for one benchmark-like dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Dataset name, e.g. `"Restaurant"`.
    pub name: String,
    /// World entities present in both KBs (the ground-truth matches).
    pub matches: usize,
    /// Entities only in `E1` / only in `E2`.
    pub extra_left: usize,
    pub extra_right: usize,
    /// Specific (signal) tokens per world entity.
    pub specific_tokens: f64,
    /// Probability that a specific token is drawn from the shared
    /// *ambiguous* pool instead of being dedicated to its entity.
    /// Dedicated tokens are world-unique (entity frequency 1 per KB, the
    /// strongest possible evidence); ambiguous tokens are shared across
    /// entities and carry weaker, sometimes misleading evidence.
    pub token_ambiguity: f64,
    /// Size of the ambiguous-token pool (smaller → more frequent tokens →
    /// weaker per-token evidence).
    pub ambiguous_pool: usize,
    /// Fraction of world entities with *weak value evidence*: their
    /// *dedicated* tokens survive with probability `weak_keep` instead of
    /// the KB's `token_keep` (ambiguous tokens keep the normal rate, so
    /// value similarity stays positive but below R2's β ≥ 1 bar). These
    /// are the "nearly similar" matches of Figure 2, findable only via
    /// names (R1) or neighbors (R3).
    pub weak_fraction: f64,
    /// Dedicated-token survival probability for weak entities.
    pub weak_keep: f64,
    /// Fraction of world entities with *short* descriptions (~20% of the
    /// mean specific-token count) and with *long* ones (~250%). Length
    /// variance is what breaks normalized value similarities on real Web
    /// data: a short non-matching pair sharing two topic tokens outranks a
    /// long true match under Jaccard/cosine, while the paper's
    /// unnormalized valueSim still favors the match (§2.1).
    pub short_fraction: f64,
    pub long_fraction: f64,
    /// Number of *topics* (0 disables them). Same-topic entities share
    /// topic tokens — correlated overlap like shared actors, venues or
    /// genres — which is what confuses normalized, value-only matchers on
    /// real Web data (BSL's collapse in Table 3).
    pub topics: usize,
    /// Tokens in each topic's vocabulary.
    pub topic_tokens: usize,
    /// Probability a specific-token slot holds a topic token.
    pub topic_share: f64,
    /// Size of the shared filler pool and its Zipf exponent.
    pub filler_pool: usize,
    pub filler_zipf: f64,
    /// Probability an entity's name comes from the small shared collision
    /// pool instead of being world-unique. Collision-pool names are used by
    /// many entities, so their blocks exceed 1×1 and R1 ignores them.
    pub name_collision: f64,
    /// Size of the name collision pool.
    pub name_collision_pool: usize,
    /// Tokens per name. A name is a *combination* of tokens drawn from the
    /// name-token pool: distinctive as a whole (R1 matches the full
    /// normalized literal) while each constituent token stays ordinary —
    /// so names do not leak entity-unique tokens into the value
    /// similarity, just like real-world names are made of reusable words.
    pub name_tokens: usize,
    /// Size of the name-token pool the combinations are drawn from.
    pub name_token_pool: usize,
    /// Mean out-degree of the world relation graph.
    pub mean_degree: f64,
    /// Probability that an edge from a *shared* (matched) world entity
    /// targets another shared entity. Real KBs exhibit strong neighbor
    /// locality — a restaurant present in both KBs usually has its chef and
    /// address in both too — and neighbor evidence (γ) depends on it.
    pub neighbor_locality: f64,
    /// Number of world relation kinds.
    pub relation_kinds: usize,
    /// Per-KB parameters.
    pub left: KbProfile,
    pub right: KbProfile,
    /// RNG seed (fixed per profile for reproducibility).
    pub seed: u64,
}

impl DatasetProfile {
    /// Scales entity counts by `factor` (≥ 0), keeping all distribution
    /// parameters fixed. Pool sizes scale too, preserving token rarity.
    pub fn scaled(&self, factor: f64) -> DatasetProfile {
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        DatasetProfile {
            matches: scale(self.matches),
            extra_left: (self.extra_left as f64 * factor).round() as usize,
            extra_right: (self.extra_right as f64 * factor).round() as usize,
            ambiguous_pool: scale(self.ambiguous_pool),
            filler_pool: scale(self.filler_pool),
            ..self.clone()
        }
    }

    /// Total entities in `E1` / `E2`.
    pub fn left_entities(&self) -> usize {
        self.matches + self.extra_left
    }

    pub fn right_entities(&self) -> usize {
        self.matches + self.extra_right
    }

    /// The attribute name used for type triples on `side` — needed by the
    /// Table 1 statistics.
    pub fn type_attr(&self, side: minoaner_kb::Side) -> String {
        let kb = match side {
            minoaner_kb::Side::Left => 1,
            minoaner_kb::Side::Right => 2,
        };
        format!("http://kb{kb}.example.org/v0/type")
    }
}

#[cfg(test)]
mod tests {
    use crate::profiles::restaurant;

    #[test]
    fn scaling_preserves_rates_and_scales_counts() {
        let p = restaurant();
        let half = p.scaled(0.5);
        assert_eq!(half.matches, (p.matches as f64 * 0.5).round() as usize);
        assert_eq!(half.left.token_keep, p.left.token_keep);
        assert!(half.ambiguous_pool < p.ambiguous_pool);
    }

    #[test]
    fn entity_totals() {
        let p = restaurant();
        assert_eq!(p.left_entities(), p.matches + p.extra_left);
        assert_eq!(p.right_entities(), p.matches + p.extra_right);
    }

    #[test]
    fn scaling_never_zeroes_matches() {
        let p = restaurant().scaled(0.0001);
        assert!(p.matches >= 1);
    }
}
