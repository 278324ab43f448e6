//! A seeded oracle for the token tables every loader leaves behind, held
//! against the public `tokenize` and nothing of the builder's own path:
//! a literal's token row is `tokenize` of its normal form, and token ids
//! number tokens by first appearance when the literals are walked in id
//! order — whether the pair came from N-Triples, Turtle or a dirty KB.

use std::collections::BTreeSet;

use minoaner_det::rng::{for_each_seed, Rng};
use minoaner_kb::parser::load_ntriples;
use minoaner_kb::tokenize::tokenize;
use minoaner_kb::turtle::load_turtle;
use minoaner_kb::{KbPair, KbPairBuilder, LiteralId, Side, Symbol, TokenId};

/// Words both sides draw from, so most tokens are shared across them.
const SHARED: [&str; 8] = ["fat", "duck", "Bray", "LAKE", "42", "1995", "chef", "x"];

/// Words past ASCII: `İ` folds to `i` + U+0307, a separator; `ǅ` is
/// titlecase; the CJK words have no case at all.
const WIDE: [&str; 6] = ["İstanbul", "ǅungla", "東京", "Café", "ÆSIR", "naïve"];

/// Literal bodies as a document spells them, escapes included.
const ESCAPED: [&str; 5] = ["caf\\u00E9", "say \\\"hi\\\"", "tab\\there", "\\u6771\\u4EAC tower", "a\\nb"];

/// Separators a literal's words are joined by.
const SEPARATORS: [&str; 5] = [" ", "  ", "-", ", ", "."];

/// One literal as the document spells it: empty, punctuation only, an
/// escaped body, or one to four words (ASCII, wide or side-own) joined by
/// separators.
fn literal(rng: &mut Rng, own: &str) -> String {
    match rng.gen_range(0..10usize) {
        0 => String::new(),
        1 => "--!".to_owned(),
        2 => ESCAPED[rng.gen_range(0..ESCAPED.len())].to_owned(),
        _ => {
            let mut text = String::new();
            for k in 0..rng.gen_range(1..5usize) {
                if k > 0 {
                    text.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
                }
                match rng.gen_range(0..4usize) {
                    0 => text.push_str(WIDE[rng.gen_range(0..WIDE.len())]),
                    1 => text.push_str(&format!("{own}{}", rng.gen_range(0..6usize))),
                    _ => text.push_str(SHARED[rng.gen_range(0..SHARED.len())]),
                }
            }
            text
        }
    }
}

/// A document of up to 12 entities on one side: literals drawn from a small
/// pool of the side's own (so literals repeat), links to entities of the
/// side and URIs that name none (whose local names become literals).
fn document(rng: &mut Rng, prefix: &str) -> String {
    let pool: Vec<String> = (0..rng.gen_range(1..8usize)).map(|_| literal(rng, prefix)).collect();
    let n = rng.gen_range(1..13usize);
    let mut doc = String::new();
    for e in 0..n {
        for _ in 0..rng.gen_range(1..5usize) {
            let object = match rng.gen_range(0..5usize) {
                0 => format!("<http://e/{prefix}{}>", rng.gen_range(0..n)),
                1 => format!("<http://x.org/res/{}_{}>", SHARED[rng.gen_range(0..SHARED.len())], rng.gen_range(0..4usize)),
                _ => format!("\"{}\"", pool[rng.gen_range(0..pool.len())]),
            };
            doc.push_str(&format!("<http://e/{prefix}{e}> <http://p/a{}> {object} .\n", rng.gen_range(0..3usize)));
        }
    }
    doc
}

/// Asserts the pair's token tables against `tokenize`, and returns how many
/// literals hold a char past ASCII.
fn assert_token_tables(pair: &KbPair, what: &str) -> usize {
    let mut first_seen: Vec<String> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut wide = 0;
    for l in 0..pair.literal_space() {
        let normal = pair.literals().resolve(Symbol(l as u32));
        wide += usize::from(!normal.is_ascii());
        let want: Vec<TokenId> = tokenize(normal)
            .map(|token| TokenId(pair.tokens().get(&token).map_or(u32::MAX, |sym| sym.0)))
            .collect();
        assert_eq!(pair.literal_token_seq(LiteralId(l as u32)), want, "{what}: literal {l} {normal:?}");
        for token in tokenize(normal) {
            if seen.insert(token.to_string()) {
                first_seen.push(token.into_owned());
            }
        }
    }
    assert_eq!(pair.token_space(), first_seen.len(), "{what}: every token comes from a literal");
    for (k, token) in first_seen.iter().enumerate() {
        assert_eq!(pair.tokens().resolve(Symbol(k as u32)), token, "{what}: token {k} by first appearance");
    }
    wide
}

#[test]
fn token_rows_are_tokenize_and_token_ids_number_first_appearances() {
    let (mut wide, mut shared) = (0, 0);
    for_each_seed(200, |rng| {
        let (left, right) = (document(rng, "l"), document(rng, "r"));

        let mut b = KbPairBuilder::new();
        load_ntriples(&mut b, Side::Left, &left).expect("the left document parses");
        load_ntriples(&mut b, Side::Right, &right).expect("the right document parses");
        let pair = b.finish();
        wide += assert_token_tables(&pair, "n-triples");
        let tokens_of = |side| -> BTreeSet<TokenId> {
            pair.kb(side).iter().flat_map(|(e, _)| pair.kb(side).tokens_of(e).to_vec()).collect()
        };
        shared += tokens_of(Side::Left).intersection(&tokens_of(Side::Right)).count();

        let mut b = KbPairBuilder::new();
        load_turtle(&mut b, Side::Left, &left).expect("the left document parses as Turtle");
        load_turtle(&mut b, Side::Right, &right).expect("the right document parses as Turtle");
        assert_token_tables(&b.finish(), "turtle");

        let mut dirty = KbPairBuilder::new();
        for doc in [&left, &right] {
            load_ntriples(&mut dirty, Side::Left, doc).expect("the document parses");
        }
        assert_token_tables(&dirty.finish_dirty(), "dirty");
    });
    assert!(wide > 200, "only {wide} literals past ASCII");
    assert!(shared > 200, "only {shared} tokens shared across sides");
}
