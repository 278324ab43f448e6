//! Dataset-level statistics reproducing Table 1 of the paper: entity and
//! triple counts, average tokens per description, attribute/relation/type
//! counts and the number of vocabularies (predicate namespaces).

use std::collections::BTreeSet;

use minoaner_det::DetHashSet;

use crate::model::{Side, Value};
use crate::store::KbPair;
use crate::tokenize::uri_namespace;

/// Per-KB row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct KbStats {
    /// Number of entity descriptions.
    pub entities: usize,
    /// Number of triples (attribute–value pairs).
    pub triples: usize,
    /// Average token occurrences per description.
    pub avg_tokens: f64,
    /// Distinct attributes (predicates with at least one literal value).
    pub attributes: usize,
    /// Distinct relations (predicates with at least one entity-ref value).
    pub relations: usize,
    /// Distinct values of the type attribute (e.g. `rdf:type`), if any.
    pub types: usize,
    /// Distinct namespaces among predicate URIs.
    pub vocabularies: usize,
}

/// Computes the Table 1 statistics for one side of the pair.
///
/// `type_attr` names the attribute whose distinct values are counted as
/// entity *types* (the paper uses `rdf:type`, footnote 8); pass the
/// attribute name used by the dataset, or an unused name for none.
pub fn kb_stats(pair: &KbPair, side: Side, type_attr: &str) -> KbStats {
    let kb = pair.kb(side);
    let type_attr = pair.attrs().get(type_attr);

    let mut attributes = BTreeSet::new();
    let mut relations = BTreeSet::new();
    let mut types = DetHashSet::default();
    let mut triples = 0usize;
    let mut token_occ = 0u64;

    for (id, e) in kb.iter() {
        triples += e.triple_count();
        token_occ += u64::from(kb.token_occurrences_of(id));
        for (a, v) in e.pairs() {
            match v {
                Value::Literal(l) => {
                    attributes.insert(a);
                    if type_attr.map(|s| s.0) == Some(a.0) {
                        types.insert(TypeKey::Literal(l));
                    }
                }
                Value::Ref(t) => {
                    relations.insert(a);
                    if type_attr.map(|s| s.0) == Some(a.0) {
                        types.insert(TypeKey::Entity(t));
                    }
                }
            }
        }
    }

    let vocabularies: DetHashSet<&str> = attributes
        .iter()
        .chain(relations.iter())
        .map(|a| uri_namespace(pair.attrs().resolve(crate::interner::Symbol(a.0))))
        .collect();

    KbStats {
        entities: kb.len(),
        triples,
        avg_tokens: if kb.is_empty() { 0.0 } else { token_occ as f64 / kb.len() as f64 },
        attributes: attributes.len(),
        relations: relations.len(),
        types: types.len(),
        vocabularies: vocabularies.len(),
    }
}

#[derive(PartialEq, Eq, Hash)]
enum TypeKey {
    Literal(crate::model::LiteralId),
    Entity(crate::model::EntityId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KbPairBuilder, Term};

    #[test]
    fn stats_count_attributes_relations_types_vocabularies() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "e1", "http://v1/label", Term::Literal("alpha beta"));
        b.add_triple(Side::Left, "e1", "http://v1/knows", Term::Uri("e2"));
        b.add_triple(Side::Left, "e1", "http://v2/type", Term::Literal("Person"));
        b.add_triple(Side::Left, "e2", "http://v1/label", Term::Literal("gamma"));
        b.add_triple(Side::Left, "e2", "http://v2/type", Term::Literal("Place"));
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let pair = b.finish();

        let s = kb_stats(&pair, Side::Left, "http://v2/type");
        assert_eq!(s.entities, 2);
        assert_eq!(s.triples, 5);
        // e1 tokens: alpha beta person (3); e2: gamma place (2) → avg 2.5.
        assert!((s.avg_tokens - 2.5).abs() < 1e-12);
        assert_eq!(s.attributes, 2); // label, type
        assert_eq!(s.relations, 1); // knows
        assert_eq!(s.types, 2); // Person, Place
        assert_eq!(s.vocabularies, 2); // http://v1/, http://v2/
    }

    #[test]
    fn stats_with_missing_type_attribute() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "e1", "p", Term::Literal("x"));
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let pair = b.finish();
        let s = kb_stats(&pair, Side::Left, "no-such-attr");
        assert_eq!(s.types, 0);
        assert_eq!(s.entities, 1);
    }

    #[test]
    fn stats_empty_kb() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let pair = b.finish();
        let s = kb_stats(&pair, Side::Left, "t");
        assert_eq!(s.entities, 0);
        assert_eq!(s.avg_tokens, 0.0);
    }
}
