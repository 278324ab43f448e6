//! The paired-KB generator.
//!
//! A *world* of entities is generated first — names, specific (signal)
//! tokens, types, and a relation graph — and each KB then materializes its
//! own *view* of a subset of the world: its own schema (attribute and
//! relation names, vocabulary namespaces), its own verbosity (filler
//! tokens), and its own noise (dropped/corrupted tokens, corrupted names,
//! missing edges). Entities present in both views form the ground truth.

use minoaner_det::rng::{Poisson, Rng, Zipf};

use minoaner_kb::{EntityId, KbPair, KbPairBuilder, Side, Term};

use crate::profile::{DatasetProfile, KbProfile};

/// A generated clean-clean ER task.
#[derive(Debug)]
pub struct GeneratedDataset {
    /// The two KBs.
    pub pair: KbPair,
    /// Ground-truth matches `(left, right)`, sorted.
    pub ground_truth: Vec<(EntityId, EntityId)>,
    /// The profile that produced it.
    pub profile: DatasetProfile,
}

/// A token of a generated value, kept as a code and written out only when
/// its value is. The first three kinds are a world entity's specific
/// (signal) tokens; the others arise as a KB materializes its view.
#[derive(Debug, Clone, Copy)]
enum Token {
    /// World-unique: `u{entity}x{i}` — entity frequency 1 per KB.
    Dedicated(u32, u32),
    /// Drawn from the shared ambiguous pool: `s{idx}`.
    Ambiguous(u32),
    /// A token of the entity's topic: `t{topic}x{i}`. Topic tokens are
    /// shared by all same-topic entities (actors of a franchise, bands of
    /// a scene), creating the *correlated* cross-entity token overlap that
    /// misleads normalized value similarities on real Web data.
    Topic(u32, u8),
    /// A KB-private corruption of a signal or name token: `x{kb_tag}{n}`.
    Corrupt(u32),
    /// A filler token from the shared Zipf head: `f{rank}`.
    Filler(u32),
    /// A name token: `nm{idx}`.
    Name(u16),
}

impl Token {
    /// Appends the token's text to `out`; `kb_tag` is the view's `a` / `b`.
    fn write(self, kb_tag: char, out: &mut String) {
        match self {
            Token::Dedicated(w, i) => {
                out.push('u');
                push_decimal(out, w);
                out.push('x');
                push_decimal(out, i);
            }
            Token::Ambiguous(idx) => {
                out.push('s');
                push_decimal(out, idx);
            }
            Token::Topic(t, i) => {
                out.push('t');
                push_decimal(out, t);
                out.push('x');
                push_decimal(out, i);
            }
            Token::Corrupt(n) => {
                out.push('x');
                out.push(kb_tag);
                push_decimal(out, n);
            }
            Token::Filler(rank) => {
                out.push('f');
                push_decimal(out, rank);
            }
            Token::Name(idx) => {
                out.push_str("nm");
                push_decimal(out, idx);
            }
        }
    }
}

/// Appends `n` in decimal to `out`, without going through `core::fmt`.
fn push_decimal(out: &mut String, n: impl Into<u64>) {
    let mut n = n.into();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Clears `out` and writes `tokens` into it, separated by single spaces.
fn write_value(out: &mut String, kb_tag: char, tokens: impl IntoIterator<Item = Token>) {
    out.clear();
    for (k, token) in tokens.into_iter().enumerate() {
        if k > 0 {
            out.push(' ');
        }
        token.write(kb_tag, out);
    }
}

struct WorldEntity {
    /// The name as a combination of name-token pool indices.
    name: Vec<u16>,
    /// The entity's specific (signal) tokens.
    specific: Vec<Token>,
    /// Whether this entity carries weak value evidence (Figure 2's
    /// nearly-similar regime): its tokens survive with `weak_keep`.
    weak: bool,
    /// World type (reduced modulo each KB's type count).
    wtype: u32,
    /// `(relation kind, target world index)` edges.
    edges: Vec<(u16, u32)>,
}

/// Generates a dataset from a profile. Deterministic for a given profile
/// (including its seed).
///
/// # Panics
/// Panics if one of the profile's Poisson means is infinite, or
/// `filler_zipf` is negative or not finite: the distributions reject
/// them. The built-in profiles and their `scaled` copies are finite.
pub fn generate(profile: &DatasetProfile) -> GeneratedDataset {
    let mut rng = Rng::seed_from_u64(profile.seed);
    let n_world = profile.matches + profile.extra_left + profile.extra_right;

    // --- World ---
    #[expect(clippy::expect_used, reason = "bound: `.max` makes the mean positive (a NaN becomes \
              the floor), and a profile's means are finite (`generate`'s `# Panics`).")]
    let specific_per_entity =
        Poisson::new(profile.specific_tokens.max(0.1)).expect("valid Poisson mean");
    #[expect(clippy::expect_used, reason = "bound: as above: a positive, finite mean.")]
    let degree = Poisson::new(profile.mean_degree.max(0.01)).expect("valid Poisson mean");
    // Ambiguous tokens are Zipf-distributed, like real vocabulary: the head
    // behaves like stopwords (huge blocks, purged), the tail like nearly
    // dedicated tokens — so block sizes vary smoothly and purging has a
    // well-defined knee.
    #[expect(clippy::expect_used, reason = "bound: `n >= 2` after `.max` and the exponent is the \
              constant 1.0.")]
    let ambiguous = Zipf::new(profile.ambiguous_pool.max(2) as u64, 1.0)
        .expect("valid Zipf parameters");
    // The small pool of colliding names (used by several entities each, so
    // their name blocks exceed 1×1 and R1 ignores them).
    let name_token_pool = profile.name_token_pool.max(2) as u16;
    let fresh_combo = |rng: &mut Rng| -> Vec<u16> {
        (0..profile.name_tokens).map(|_| rng.gen_range(0..name_token_pool)).collect()
    };
    let collision_combos: Vec<Vec<u16>> = {
        let mut combos = Vec::with_capacity(profile.name_collision_pool.max(1));
        for _ in 0..profile.name_collision_pool.max(1) {
            combos.push(fresh_combo(&mut rng));
        }
        combos
    };
    let mut world = Vec::with_capacity(n_world);
    for w in 0..n_world {
        let topic = if profile.topics > 0 { rng.gen_range(0..profile.topics) as u32 } else { 0 };
        // Heavy-tailed description lengths (short / medium / long mixture).
        let roll = rng.next_f64();
        let len_factor = if roll < profile.short_fraction {
            0.2
        } else if roll < profile.short_fraction + profile.long_fraction {
            2.5
        } else {
            1.0
        };
        let n_spec = (specific_per_entity.sample(&mut rng) * len_factor).round() as usize;
        let specific = (0..n_spec.max(1) as u32)
            .map(|i| {
                let roll = rng.next_f64();
                if profile.topics > 0 && roll < profile.topic_share {
                    Token::Topic(topic, rng.gen_range(0..profile.topic_tokens.max(1)) as u8)
                } else if roll < profile.topic_share + profile.token_ambiguity * (1.0 - profile.topic_share) {
                    Token::Ambiguous(ambiguous.sample(&mut rng) as u32)
                } else {
                    Token::Dedicated(w as u32, i)
                }
            })
            .collect();
        let d = degree.sample(&mut rng).round() as usize;
        let shared = w < profile.matches;
        let edges = (0..d)
            .map(|_| {
                // Shared entities preferentially link to shared entities
                // (neighbor locality); everything else links uniformly.
                let target = if shared
                    && profile.matches > 1
                    && rng.next_f64() < profile.neighbor_locality
                {
                    rng.gen_range(0..profile.matches) as u32
                } else {
                    rng.gen_range(0..n_world) as u32
                };
                (rng.gen_range(0..profile.relation_kinds.max(1)) as u16, target)
            })
            .collect();
        let name = if rng.next_f64() < profile.name_collision {
            collision_combos[rng.gen_range(0..collision_combos.len())].clone()
        } else {
            fresh_combo(&mut rng)
        };
        world.push(WorldEntity {
            name,
            specific,
            weak: rng.next_f64() < profile.weak_fraction,
            wtype: rng.next_u32(),
            edges,
        });
    }

    // --- Views ---
    // World index layout: [0, matches) shared, then left-only, then right-only.
    let in_left = |w: usize| w < profile.matches + profile.extra_left;
    let in_right = |w: usize| w < profile.matches || w >= profile.matches + profile.extra_left;

    let mut builder = KbPairBuilder::new();
    for (side, kbp) in [(Side::Left, &profile.left), (Side::Right, &profile.right)] {
        let member = |w: usize| match side {
            Side::Left => in_left(w),
            Side::Right => in_right(w),
        };
        materialize_view(&mut builder, &mut rng, profile, kbp, side, &world, &member);
    }

    let pair = builder.finish();
    // Every matched world entity was materialized into both views above,
    // so each lookup succeeds; `filter_map` keeps that invariant panic-free.
    let mut uri = String::new();
    let mut find = |side: Side, w: usize| {
        write_entity_uri(&mut uri, side, w);
        pair.kb(side).entity_by_uri(pair.uris().get(&uri)?)
    };
    let mut ground_truth: Vec<(EntityId, EntityId)> =
        (0..profile.matches).filter_map(|w| Some((find(Side::Left, w)?, find(Side::Right, w)?))).collect();
    ground_truth.sort_unstable();

    GeneratedDataset { pair, ground_truth, profile: profile.clone() }
}

/// Clears `out` and writes the URI of world entity `world_idx` in the
/// view of `side` into it.
fn write_entity_uri(out: &mut String, side: Side, world_idx: usize) {
    out.clear();
    out.push_str(match side {
        Side::Left => "http://kb1.example.org/resource/e",
        Side::Right => "http://kb2.example.org/item/x",
    });
    push_decimal(out, world_idx as u64);
}

/// The view's predicate names, each written once.
struct Predicates {
    /// `attributes[i]` is literal attribute `i`.
    attributes: Vec<String>,
    /// `relations[i]` is the KB's relation `i`. Each KB maps world relation
    /// kinds onto its own (smaller or larger) relation namespace: kind `k`
    /// is `relations[k % relations.len()]`.
    relations: Vec<String>,
    name: String,
    id: String,
    type_: String,
}

impl Predicates {
    fn new(side: Side, kbp: &KbProfile) -> Self {
        let kb = if side == Side::Left { 1 } else { 2 };
        let vocab = |i: usize| i % kbp.vocabularies.max(1);
        Self {
            attributes: (0..kbp.attributes.max(1))
                .map(|i| format!("http://kb{kb}.example.org/v{}/attr{i}", vocab(i)))
                .collect(),
            relations: (0..kbp.relations.max(1))
                .map(|i| format!("http://kb{kb}.example.org/v{}/rel{i}", vocab(i)))
                .collect(),
            name: format!("http://kb{kb}.example.org/v0/name"),
            id: format!("http://kb{kb}.example.org/v0/id"),
            type_: format!("http://kb{kb}.example.org/v0/type"),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn materialize_view(
    builder: &mut KbPairBuilder,
    rng: &mut Rng,
    profile: &DatasetProfile,
    kbp: &KbProfile,
    side: Side,
    world: &[WorldEntity],
    member: &dyn Fn(usize) -> bool,
) {
    let kb_tag = if side == Side::Left { 'a' } else { 'b' };
    #[expect(clippy::expect_used, reason = "bound: `n >= 2` after `.max`; `filler_zipf` is finite \
              and non-negative (`generate`'s `# Panics`).")]
    let filler = Zipf::new(profile.filler_pool.max(2) as u64, profile.filler_zipf)
        .expect("valid Zipf parameters");
    #[expect(clippy::expect_used, reason = "bound: `.max` makes the mean positive, and a profile's \
              means are finite (`generate`'s `# Panics`).")]
    let filler_count = Poisson::new(kbp.filler_tokens.max(0.01)).expect("valid Poisson mean");
    let predicates = Predicates::new(side, kbp);
    // Reused for every entity: the token codes, one value's text, and the
    // entity's and a relation target's URIs.
    let mut tokens: Vec<Token> = Vec::new();
    let mut value = String::new();
    let (mut uri, mut target_uri) = (String::new(), String::new());

    for (w, entity) in world.iter().enumerate() {
        if !member(w) {
            continue;
        }
        write_entity_uri(&mut uri, side, w);
        let e = builder.entity(side, &uri);

        // Signal tokens: keep / corrupt per profile. Weak entities lose
        // most of their *dedicated* tokens (the strong, entity-unique
        // evidence) while keeping ambiguous ones at the normal rate: their
        // value similarity stays positive but weak — the nearly-similar
        // regime of Figure 2 that only names (R1) or neighbor evidence
        // (R3) can resolve.
        tokens.clear();
        for &s in &entity.specific {
            let keep = match s {
                Token::Dedicated(..) if entity.weak => profile.weak_keep,
                _ => kbp.token_keep,
            };
            if rng.next_f64() >= keep {
                continue;
            }
            if rng.next_f64() < kbp.token_corrupt {
                tokens.push(Token::Corrupt(rng.gen_range(0..1_000_000u32)));
            } else {
                tokens.push(s);
            }
        }
        // Filler tokens from the shared Zipf head: frequent, low-evidence.
        let n_fill = filler_count.sample(rng).round() as usize;
        for _ in 0..n_fill {
            tokens.push(Token::Filler(filler.sample(rng) as u32));
        }

        // Group tokens into literal values of ~3 tokens, spread over the
        // KB's attribute space. Tokens are shuffled first so filler-only
        // values (which can coincide across KBs and forge 1×1 name blocks
        // when a non-name attribute lands among the top-k name attributes)
        // are rare; a trailing 1-token remainder is folded into the
        // previous value for the same reason.
        rng.shuffle(&mut tokens);
        let fold = tokens.len() > 4 && tokens.len() % 4 == 1;
        let (whole, last) = tokens.split_at(if fold { tokens.len() - 5 } else { tokens.len() });
        for chunk in whole.chunks(4).chain(Some(last).filter(|l| !l.is_empty())) {
            write_value(&mut value, kb_tag, chunk.iter().copied());
            let attr = &predicates.attributes[rng.gen_range(0..predicates.attributes.len())];
            builder.add_pair(side, e, attr, Term::Literal(&value));
        }

        // Name attribute.
        if rng.next_f64() < kbp.name_coverage {
            write_name(&mut value, &entity.name, kbp, rng, kb_tag);
            builder.add_pair(side, e, &predicates.name, Term::Literal(&value));
        }

        // Decoy identifier attribute: full coverage, all-distinct, never
        // shared across KBs — outranks the name attribute in importance.
        if kbp.decoy_id_attribute {
            value.clear();
            value.push_str("id");
            value.push(kb_tag);
            push_decimal(&mut value, w as u64);
            builder.add_pair(side, e, &predicates.id, Term::Literal(&value));
        }

        // Type triple.
        value.clear();
        value.push_str("type");
        push_decimal(&mut value, (entity.wtype as usize % kbp.types.max(1)) as u64);
        builder.add_pair(side, e, &predicates.type_, Term::Literal(&value));

        // Relation edges to members of the same view.
        for &(kind, target) in &entity.edges {
            let t = target as usize;
            if t == w || !member(t) {
                continue;
            }
            if rng.next_f64() < kbp.relation_coverage {
                let rel = &predicates.relations[kind as usize % predicates.relations.len()];
                write_entity_uri(&mut target_uri, side, t);
                builder.add_pair(side, e, rel, Term::Uri(&target_uri));
            }
        }
    }
}

/// Clears `out` and writes the view's name literal into it: the name's
/// tokens, one of them replaced by a KB-private token with probability
/// `name_corrupt`.
fn write_name(out: &mut String, name: &[u16], kbp: &KbProfile, rng: &mut Rng, kb_tag: char) {
    let corrupt = if rng.next_f64() < kbp.name_corrupt {
        let at = rng.gen_range(0..name.len());
        Some((at, rng.gen_range(0..1_000_000u32)))
    } else {
        None
    };
    let token = |(k, &t): (usize, &u16)| match corrupt {
        Some((at, n)) if at == k => Token::Corrupt(n),
        _ => Token::Name(t),
    };
    write_value(out, kb_tag, name.iter().enumerate().map(token));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{bbc_dbpedia, restaurant};

    #[test]
    fn generation_is_deterministic() {
        let p = restaurant().scaled(0.3);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.pair.kb(Side::Left).triple_count(), b.pair.kb(Side::Left).triple_count());
    }

    #[test]
    fn entity_counts_match_profile() {
        let p = restaurant().scaled(0.5);
        let d = generate(&p);
        assert_eq!(d.pair.kb(Side::Left).len(), p.left_entities());
        assert_eq!(d.pair.kb(Side::Right).len(), p.right_entities());
        assert_eq!(d.ground_truth.len(), p.matches);
    }

    #[test]
    fn ground_truth_is_one_to_one_and_valid() {
        let p = restaurant().scaled(0.5);
        let d = generate(&p);
        let mut lefts: Vec<_> = d.ground_truth.iter().map(|&(l, _)| l).collect();
        let mut rights: Vec<_> = d.ground_truth.iter().map(|&(_, r)| r).collect();
        lefts.sort_unstable();
        rights.sort_unstable();
        let (ll, rl) = (lefts.len(), rights.len());
        lefts.dedup();
        rights.dedup();
        assert_eq!(lefts.len(), ll);
        assert_eq!(rights.len(), rl);
        for &(l, r) in &d.ground_truth {
            assert!(l.index() < d.pair.kb(Side::Left).len());
            assert!(r.index() < d.pair.kb(Side::Right).len());
        }
    }

    #[test]
    fn matched_entities_share_signal_tokens() {
        let p = restaurant().scaled(0.5);
        let d = generate(&p);
        let ef = minoaner_kb::stats::TokenEf::compute(&d.pair);
        let mut with_overlap = 0;
        for &(l, r) in &d.ground_truth {
            if minoaner_kb::stats::value_sim(&d.pair, &ef, l, r) > 0.0 {
                with_overlap += 1;
            }
        }
        // The Restaurant profile is the strongly-similar one: almost every
        // match shares tokens.
        assert!(
            with_overlap as f64 >= 0.95 * d.ground_truth.len() as f64,
            "{with_overlap}/{} matches share tokens",
            d.ground_truth.len()
        );
    }

    #[test]
    fn verbosity_asymmetry_is_respected() {
        let p = bbc_dbpedia().scaled(0.1);
        let d = generate(&p);
        let stats_l = minoaner_kb::dataset_stats::kb_stats(&d.pair, Side::Left, &p.type_attr(Side::Left));
        let stats_r = minoaner_kb::dataset_stats::kb_stats(&d.pair, Side::Right, &p.type_attr(Side::Right));
        // The DBpedia-like side is several times more verbose.
        assert!(
            stats_r.avg_tokens > 2.0 * stats_l.avg_tokens,
            "left {} vs right {}",
            stats_l.avg_tokens,
            stats_r.avg_tokens
        );
    }

    #[test]
    fn relation_edges_exist() {
        let p = restaurant().scaled(0.5);
        let d = generate(&p);
        let kb = d.pair.kb(Side::Left);
        let edge_count: usize = kb.iter().map(|(id, _)| kb.neighbors_of(id).count()).sum();
        assert!(edge_count > 0, "world graph must materialize some edges");
    }
}
