//! Property tests for the KB substrate: tokenizer/normalizer invariants,
//! interner laws, N-Triples serialization round-trips with adversarial
//! content, and Turtle/N-Triples load equivalence.
//!
//! Every test is a seeded loop (`minoaner_det::rng::for_each_seed` or a
//! loop over one generator); the second half pins the ingest path's fast
//! paths to their slow definitions and its tables to a naive reference
//! builder.

use minoaner_det::rng::{for_each_seed, Rng};
use minoaner_datagen::{generate, profiles};
use minoaner_kb::parser::{load_ntriples, parse_line, unescape, write_ntriples};
use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::tokenize::{normalize_name, tokenize, uri_local_name};
use minoaner_kb::{
    write_mkb, AttrId, EntityId, Interner, KbPair, KbPairBuilder, LiteralId, MkbFile, Side, Symbol, Term, TokenId,
    Value,
};
use std::collections::BTreeSet;

/// Up to `max` chars of anything: printable ASCII, the scanner's and the
/// tokenizer's special cases (`mixed_string`'s alphabet) and arbitrary
/// Unicode scalars, control characters included — but not `İ` (U+0130),
/// the one char whose lowercase holds a non-alphanumeric char (U+0307):
/// the tokenizer laws below hold everywhere else, and
/// `dotted_capital_i_is_the_exception_to_the_tokenizer_laws` pins what
/// happens there.
fn any_string(rng: &mut Rng, max: usize) -> String {
    (0..rng.gen_range(0..max + 1))
        .map(|_| match rng.gen_range(0..5usize) {
            0 => mixed_string(rng).chars().next().unwrap_or(' '),
            1 => char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{fffd}'),
            _ => char::from(rng.gen_range(b' '..b'~' + 1)),
        })
        .filter(|&c| c != 'İ')
        .collect()
}

/// Up to `max` printable ASCII chars.
fn printable(rng: &mut Rng, max: usize) -> String {
    (0..rng.gen_range(0..max + 1)).map(|_| char::from(rng.gen_range(b' '..b'~' + 1))).collect()
}

/// One to four lowercase words of one to eight letters.
fn words(rng: &mut Rng) -> String {
    let word = |rng: &mut Rng| -> String {
        (0..rng.gen_range(1..9usize)).map(|_| char::from(rng.gen_range(b'a'..b'z' + 1))).collect()
    };
    (0..rng.gen_range(1..5usize)).map(|_| word(rng)).collect::<Vec<_>>().join(" ")
}

#[test]
fn tokenize_produces_lowercase_alphanumeric() {
    for_each_seed(128, |rng| {
        let s = any_string(rng, 60);
        for tok in tokenize(&s) {
            assert!(!tok.is_empty());
            assert!(tok.chars().all(|c| c.is_alphanumeric()));
            assert_eq!(tok.to_lowercase().as_str(), tok.as_ref());
        }
    });
}

/// A `Cow::Borrowed` token must point into the input (zero-copy path),
/// and borrowing must never change what the token *is*.
#[test]
fn tokenize_borrowed_tokens_are_subslices() {
    for_each_seed(128, |rng| {
        let s = any_string(rng, 60);
        for tok in tokenize(&s) {
            if let std::borrow::Cow::Borrowed(t) = tok {
                assert!(s.contains(t));
                assert_eq!(t.to_lowercase().as_str(), t);
            }
        }
    });
}

#[test]
fn normalize_is_idempotent() {
    for_each_seed(128, |rng| {
        let once = normalize_name(&any_string(rng, 60));
        let twice = normalize_name(&once);
        assert_eq!(once, twice);
    });
}

#[test]
fn normalize_agrees_with_tokenize() {
    for_each_seed(128, |rng| {
        // The normalized literal's tokens equal the raw literal's tokens.
        let s = any_string(rng, 60);
        let norm = normalize_name(&s);
        let via_norm: Vec<String> = tokenize(&norm).map(|t| t.into_owned()).collect();
        let direct: Vec<String> = tokenize(&s).map(|t| t.into_owned()).collect();
        assert_eq!(via_norm, direct);
    });
}

/// Found when these laws first ran (ISSUE 21, seed 14 of each): `İ` folds
/// to `i` + U+0307, a combining mark, so a token can hold a
/// non-alphanumeric char, a second `normalize_name` splits there, and the
/// tokens of a normalized literal differ from the literal's own. The
/// loader only ever tokenizes normalized literals (it logs a word past
/// ASCII whole and tokenizes it again, for this reason), so both KBs see
/// the same tokens; this pins the behaviour rather than blessing it.
#[test]
fn dotted_capital_i_is_the_exception_to_the_tokenizer_laws() {
    let tokens = |s: &str| tokenize(s).map(|t| t.into_owned()).collect::<Vec<_>>();
    assert_eq!(tokens("İstanbul"), ["i\u{307}stanbul"]);
    let once = normalize_name("İstanbul");
    assert_eq!(once, "i\u{307}stanbul");
    assert_eq!(normalize_name(&once), "i stanbul");
    assert_eq!(tokens(&once), ["i", "stanbul"]);
}

#[test]
fn interner_is_a_bijection() {
    for_each_seed(128, |rng| {
        let strings: Vec<String> = (0..rng.gen_range(0..40usize)).map(|_| any_string(rng, 20)).collect();
        let mut interner = Interner::new();
        let symbols: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, &sym) in strings.iter().zip(&symbols) {
            assert_eq!(interner.resolve(sym), s.as_str());
            assert_eq!(interner.get(s), Some(sym));
        }
        // Distinct strings ↔ distinct symbols.
        let mut unique_strings = strings.clone();
        unique_strings.sort();
        unique_strings.dedup();
        let mut unique_symbols = symbols.clone();
        unique_symbols.sort();
        unique_symbols.dedup();
        assert_eq!(unique_strings.len(), unique_symbols.len());
        assert_eq!(interner.len(), unique_strings.len());
    });
}

/// Arbitrary (printable) literals and URIs survive the
/// write → parse round trip with identical KB structure.
#[test]
fn ntriples_round_trip() {
    for_each_seed(128, |rng| {
        let literals: Vec<String> = (0..rng.gen_range(1..12usize)).map(|_| printable(rng, 30)).collect();
        let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..8usize))
            .map(|_| (rng.gen_range(0..literals.len()), rng.gen_range(0..literals.len())))
            .collect();
        let mut b = KbPairBuilder::new();
        for (i, lit) in literals.iter().enumerate() {
            b.add_triple(Side::Left, &format!("http://e/{i}"), "http://p/v", Term::Literal(lit));
        }
        for &(from, to) in &edges {
            b.add_triple(
                Side::Left,
                &format!("http://e/{from}"),
                "http://p/rel",
                Term::Uri(&format!("http://e/{to}")),
            );
        }
        b.add_triple(Side::Right, "http://r/0", "http://p/v", Term::Literal("x"));
        let pair = b.finish();

        let doc = write_ntriples(&pair, Side::Left);
        let mut b2 = KbPairBuilder::new();
        let n = load_ntriples(&mut b2, Side::Left, &doc).expect("own output parses");
        b2.add_triple(Side::Right, "http://r/0", "http://p/v", Term::Literal("x"));
        let reloaded = b2.finish();

        assert_eq!(n, pair.kb(Side::Left).triple_count());
        assert_eq!(reloaded.kb(Side::Left).len(), pair.kb(Side::Left).len());
        assert_eq!(reloaded.kb(Side::Left).triple_count(), pair.kb(Side::Left).triple_count());
        // Token sets per entity are identical (ids may differ; compare via strings).
        let token_strings = |pair: &KbPair, id: EntityId| -> Vec<String> {
            let tokens = pair.kb(Side::Left).tokens_of(id);
            let mut strings: Vec<String> =
                tokens.iter().map(|t| pair.tokens().resolve(Symbol(t.0)).to_owned()).collect();
            strings.sort_unstable();
            strings
        };
        for (id, _) in pair.kb(Side::Left).iter() {
            assert_eq!(token_strings(&pair, id), token_strings(&reloaded, id));
        }
    });
}

/// The same simple document loads identically via Turtle and N-Triples.
#[test]
fn turtle_matches_ntriples() {
    for_each_seed(128, |rng| {
        let values: Vec<String> = (0..rng.gen_range(1..8usize)).map(|_| words(rng)).collect();
        let mut nt = String::new();
        let mut ttl = String::from("@prefix e: <http://e/> .\n@prefix p: <http://p/> .\n");
        for (i, v) in values.iter().enumerate() {
            nt.push_str(&format!("<http://e/{i}> <http://p/v> \"{v}\" .\n"));
            ttl.push_str(&format!("e:{i} p:v \"{v}\" .\n"));
        }
        let mut b1 = KbPairBuilder::new();
        load_ntriples(&mut b1, Side::Left, &nt).expect("nt parses");
        b1.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let p1 = b1.finish();

        let mut b2 = KbPairBuilder::new();
        minoaner_kb::turtle::load_turtle(&mut b2, Side::Left, &ttl).expect("ttl parses");
        b2.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let p2 = b2.finish();

        assert_eq!(p1.kb(Side::Left).len(), p2.kb(Side::Left).len());
        assert_eq!(p1.kb(Side::Left).triple_count(), p2.kb(Side::Left).triple_count());
        assert_eq!(p1.token_space(), p2.token_space());
    });
}

// ───────────────── fast paths ≡ slow paths (seeded loops) ─────────────────

/// `normalize_name` as §2 defines it, char by char through the Unicode
/// tables — the slow path the ASCII byte loop must agree with.
fn reference_normalize(value: &str) -> String {
    let mut out = String::new();
    let mut pending_sep = false;
    for c in value.chars() {
        if c.is_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push(' ');
            }
            pending_sep = false;
            out.extend(c.to_lowercase());
        } else {
            pending_sep = true;
        }
    }
    out
}

/// Strings over an alphabet that mixes what the fast paths split on:
/// ASCII in both cases, digits, punctuation and blanks, a titlecase letter
/// (`ǅ`), letters whose lowercase is longer (`İ` → `i` + U+0307, which is a
/// separator) or that have none (`ß`, CJK), a combining mark, symbols and a
/// non-ASCII blank. About a third of the strings are pure ASCII.
fn mixed_string(rng: &mut Rng) -> String {
    const ASCII: [char; 24] = [
        'a', 'b', 'z', 'A', 'B', 'Z', 'q', 'Q', '0', '7', '9', ' ', ' ', '\t', '-', '.', ',', '(',
        '"', '\\', '_', '\n', '\0', '~',
    ];
    const WIDE: [char; 17] = [
        'ǅ', 'İ', 'ß', 'é', 'É', 'Ω', 'ω', '東', '京', '\u{301}', '\u{a0}', '☕', '—', 'Ⅷ', '٣',
        'ǆ', '\u{1F600}',
    ];
    let pick = |rng: &mut Rng, alphabet: &[char]| alphabet[rng.gen_range(0..alphabet.len())];
    let ascii_only = rng.gen_range(0..3usize) == 0;
    (0..rng.gen_range(0..24usize))
        .map(|_| if ascii_only || rng.gen_range(0..4usize) > 0 { pick(rng, &ASCII) } else { pick(rng, &WIDE) })
        .collect()
}

#[test]
fn scratch_normalize_and_space_split_agree_with_the_slow_path() {
    let mut rng = Rng::seed_from_u64(15);
    // The case that makes a plain space split wrong, then random values.
    let mut values = vec!["İstanbul Café".to_owned()];
    values.extend((0..20_000).map(|_| mixed_string(&mut rng)));
    // One builder for all values, so one scratch string: a value must not
    // see what the one before left behind.
    let mut b = KbPairBuilder::new();
    for value in &values {
        b.add_triple(Side::Left, "e", "p", Term::Literal(value));
    }
    let pair = b.finish();
    let entity = pair.kb(Side::Left).entity(EntityId(0));
    assert_eq!(entity.pairs().len(), values.len());
    for (value, (_, literal)) in values.iter().zip(entity.literal_pairs()) {
        let expected = reference_normalize(value);
        assert_eq!(normalize_name(value), expected, "normalize_name({value:?})");
        assert_eq!(pair.literals().resolve(Symbol(literal.0)), expected, "literal of {value:?}");

        let slow: Vec<String> = tokenize(&expected).map(|t| t.into_owned()).collect();
        let split: Vec<&str> =
            pair.literal_token_seq(literal).iter().map(|t| pair.tokens().resolve(Symbol(t.0))).collect();
        assert_eq!(split, slow, "tokens of {value:?} via {expected:?}");
    }
    let first = pair.literal_token_seq(LiteralId(0)).iter().map(|t| pair.tokens().resolve(Symbol(t.0)));
    assert_eq!(first.collect::<Vec<_>>(), ["i", "stanbul", "café"]);
}

// ───────────────── interner ≡ Vec<String> + linear search ─────────────────

#[test]
fn interner_agrees_with_a_linear_search_model() {
    let mut rng = Rng::seed_from_u64(0xA11CE);
    let mut pool: Vec<String> = (0..1_500).map(|_| mixed_string(&mut rng)).collect();
    pool.push(String::new());
    pool.push("x".repeat(64 * 1024));
    // Two distinct strings with the same stored 32-bit hash: the table
    // must tell them apart by their bytes.
    let mut seen = std::collections::BTreeMap::new();
    let (first, second) = (0u32..)
        .find_map(|i| {
            let s = format!("collide-{i}");
            let stored = minoaner_det::hash_bytes(s.as_bytes()) as u32;
            seen.insert(stored, s.clone()).map(|earlier| (earlier, s))
        })
        .expect("a 32-bit hash collides within 2^32 strings");
    assert_ne!(first, second);
    pool.extend([first, second]);

    let mut model: Vec<String> = Vec::new();
    let mut interner = Interner::new();
    for step in 0..40_000 {
        let s = &pool[rng.gen_range(0..pool.len())];
        let known = model.iter().position(|m| m == s);
        // `get` answers from the model and never interns.
        assert_eq!(interner.get(s).map(Symbol::index), known, "get({s:?}) at step {step}");
        assert_eq!(interner.len(), model.len());
        if rng.gen_range(0..4usize) == 0 {
            continue;
        }
        // Dense first-seen ids; interning again changes nothing.
        let expected = known.unwrap_or_else(|| {
            model.push(s.clone());
            model.len() - 1
        });
        assert_eq!(interner.intern(s).index(), expected, "intern({s:?}) at step {step}");
        assert_eq!(interner.intern(s).index(), expected);
        assert_eq!(interner.len(), model.len());
    }
    // 1 500 strings from an empty table: seven doublings of the 16 slots.
    assert!(model.len() > 1_000, "only {} distinct strings interned", model.len());
    assert!(!interner.is_empty());
    for (i, s) in model.iter().enumerate() {
        let sym = Symbol(u32::try_from(i).expect("small"));
        assert_eq!(interner.resolve(sym), s);
        assert_eq!(interner.get(s), Some(sym));
    }
    let listed: Vec<(usize, &str)> = interner.iter().map(|(sym, s)| (sym.index(), s)).collect();
    let expected: Vec<(usize, &str)> = model.iter().map(String::as_str).enumerate().collect();
    assert_eq!(listed, expected);

    // A pre-sized table numbers the same strings the same way.
    let mut sized = Interner::with_capacity(model.len());
    for (i, s) in model.iter().enumerate() {
        assert_eq!(sized.intern(s).index(), i);
    }
    assert_eq!(sized.len(), model.len());
}

// ───────────────── builder ≡ naive reference builder ─────────────────

/// One triple of a document, unescaped.
#[derive(Clone)]
struct RefTriple {
    side: Side,
    subject: String,
    predicate: String,
    object: Result<String, String>, // Ok(literal) | Err(uri)
}

/// What `KbPairBuilder` computes, written the slow and obvious way:
/// `Vec<String>` tables with linear search, `normalize_name` and `tokenize`
/// straight from `tokenize.rs` on every literal, no memo, no scratch, no
/// shared rows.
#[derive(Default, Clone)]
struct NaiveTables {
    uris: Vec<String>,
    attrs: Vec<String>,
    literals: Vec<String>,
    tokens: Vec<String>,
    literal_tokens: Vec<Vec<u32>>,
    entities: [Vec<NaiveEntity>; 2],
}

/// An entity's URI id, then its `(attr, Ok(literal) | Err(uri))` pairs.
type NaiveEntity = (u32, Vec<(u32, Result<u32, u32>)>);

fn naive_intern(table: &mut Vec<String>, s: &str) -> u32 {
    let at = table.iter().position(|t| t == s).unwrap_or_else(|| {
        table.push(s.to_owned());
        table.len() - 1
    });
    u32::try_from(at).expect("small")
}

impl NaiveTables {
    fn literal(&mut self, value: &str) -> u32 {
        let normalized = reference_normalize(value);
        let known = self.literals.len();
        let id = naive_intern(&mut self.literals, &normalized);
        if self.literals.len() > known {
            let seq = tokenize(&normalized).map(|t| naive_intern(&mut self.tokens, &t)).collect();
            self.literal_tokens.push(seq);
        }
        id
    }

    fn add(&mut self, t: &RefTriple) {
        let uri = naive_intern(&mut self.uris, &t.subject);
        let side = t.side.index();
        let entity = self.entities[side].iter().position(|e| e.0 == uri).unwrap_or_else(|| {
            self.entities[side].push((uri, Vec::new()));
            self.entities[side].len() - 1
        });
        let attr = naive_intern(&mut self.attrs, &t.predicate);
        let value = match &t.object {
            Ok(literal) => Ok(self.literal(literal)),
            Err(object) => Err(naive_intern(&mut self.uris, object)),
        };
        self.entities[side][entity].1.push((attr, value));
    }

    /// Copies the left side onto the right, as a dirty KB is mirrored.
    fn mirror_left(&mut self) {
        self.entities[1] = self.entities[0].clone();
    }

    /// Asserts that `pair` holds exactly these tables.
    fn assert_same_as(mut self, pair: &KbPair) {
        for side in [Side::Left, Side::Right] {
            let kb = pair.kb(side);
            let entities = std::mem::take(&mut self.entities[side.index()]);
            assert_eq!(kb.len(), entities.len(), "{side:?} entity count");
            for (i, (uri, raw_pairs)) in entities.iter().enumerate() {
                let id = EntityId(u32::try_from(i).expect("small"));
                let entity = kb.entity(id);
                assert_eq!(entity.uri, Symbol(*uri), "{side:?} entity {i} uri");
                // A URI object is a reference when it is a subject of the
                // same side, else a literal holding its local name.
                let pairs: Vec<(AttrId, Value)> = raw_pairs
                    .iter()
                    .map(|&(attr, value)| {
                        let value = match value {
                            Ok(literal) => Value::Literal(LiteralId(literal)),
                            Err(object) => match entities.iter().position(|e| e.0 == object) {
                                Some(target) => Value::Ref(EntityId(u32::try_from(target).expect("small"))),
                                None => {
                                    let local = uri_local_name(&self.uris[object as usize]).to_owned();
                                    Value::Literal(LiteralId(self.literal(&local)))
                                }
                            },
                        };
                        (AttrId(attr), value)
                    })
                    .collect();
                assert_eq!(entity.pairs().collect::<Vec<_>>(), pairs, "{side:?} entity {i} pairs");

                let occurrences: Vec<u32> = entity
                    .literal_pairs()
                    .flat_map(|(_, l)| self.literal_tokens[l.index()].iter().copied())
                    .collect();
                assert_eq!(kb.token_occurrences_of(id) as usize, occurrences.len(), "{side:?} entity {i}");
                let set: Vec<TokenId> = occurrences.iter().copied().collect::<BTreeSet<u32>>().into_iter().map(TokenId).collect();
                assert_eq!(kb.tokens_of(id), set, "{side:?} entity {i} token set");
            }
        }
        let strings = |interner: &Interner| interner.iter().map(|(_, s)| s.to_owned()).collect::<Vec<_>>();
        assert_eq!(strings(pair.uris()), self.uris, "uri table");
        assert_eq!(strings(pair.attrs()), self.attrs, "attr table");
        assert_eq!(strings(pair.literals()), self.literals, "literal table");
        assert_eq!(strings(pair.tokens()), self.tokens, "token table");
        assert_eq!(pair.literal_space(), self.literal_tokens.len());
        for (l, seq) in self.literal_tokens.iter().enumerate() {
            let seq: Vec<TokenId> = seq.iter().copied().map(TokenId).collect();
            assert_eq!(pair.literal_token_seq(LiteralId(u32::try_from(l).expect("small"))), seq, "literal {l}");
        }
    }
}

/// Loads both documents through the real loader and through the naive
/// tables, and compares everything a `KbPair` exposes.
fn assert_loader_matches_naive_builder(left: &str, right: &str) {
    let mut builder = KbPairBuilder::new();
    let mut naive = NaiveTables::default();
    for (side, doc) in [(Side::Left, left), (Side::Right, right)] {
        let loaded = load_ntriples(&mut builder, side, doc).expect("document parses");
        let mut triples = 0;
        for line in doc.lines() {
            let Some(t) = parse_line(line).expect("document parses") else { continue };
            let object = match t.object {
                Term::Literal(l) => Ok(unescape(l).into_owned()),
                Term::Uri(u) => Err(u.to_owned()),
            };
            naive.add(&RefTriple { side, subject: t.subject.to_owned(), predicate: t.predicate.to_owned(), object });
            triples += 1;
        }
        assert_eq!(loaded, triples);
    }
    naive.assert_same_as(&builder.finish());
}

#[test]
fn loader_builds_the_tables_of_a_naive_reference_builder() {
    // The benchmark's verbose wide-schema pair, small enough for linear
    // search: ≈ 750 entities, ≈ 14 000 triples.
    let d = generate(&profiles::bbc_dbpedia().scaled(0.05));
    assert_loader_matches_naive_builder(&write_ntriples(&d.pair, Side::Left), &write_ntriples(&d.pair, Side::Right));

    // What datagen never writes: raw and escaped non-ASCII, mixed case,
    // subjects that interleave, repeat across sides and follow their own
    // mention as an object, and URI objects that dangle.
    let mut rng = Rng::seed_from_u64(7);
    let mut docs = [String::new(), String::new()];
    for doc in &mut docs {
        for _ in 0..600 {
            let subject = rng.gen_range(0..12usize);
            let predicate = rng.gen_range(0..5usize);
            let object = if rng.gen_range(0..3usize) == 0 {
                format!("<http://e/{}#{}>", rng.gen_range(0..16usize), rng.gen_range(0..3usize))
            } else {
                let literal: String = mixed_string(&mut rng)
                    .chars()
                    .flat_map(|c| match c {
                        '"' | '\\' => vec!['\\', c],
                        '\n' => vec!['\\', 'n'],
                        c => vec![c],
                    })
                    .collect();
                format!("\"{literal}\\u00C9\"")
            };
            doc.push_str(&format!("<http://e/{subject}#0> <http://p/{predicate}> {object} .\n"));
        }
    }
    assert_loader_matches_naive_builder(&docs[0], &docs[1]);

    // Two normal forms with the same stored 32-bit hash, so the same probe
    // sequence in the literal table: the loader must tell them apart by
    // their bytes.
    let mut seen = std::collections::BTreeMap::new();
    let (first, second) = (0u32..)
        .find_map(|i| {
            let s = format!("collide {i}");
            seen.insert(minoaner_det::hash_bytes(s.as_bytes()) as u32, s.clone()).map(|earlier| (earlier, s))
        })
        .expect("a 32-bit hash collides within 2^32 strings");
    let doc = format!("<a> <p> \"{first}\" .\n<b> <p> \"{second}\" .\n<c> <p> \"{first}\" .\n<d> <p> \"{second}\" .\n");
    assert_loader_matches_naive_builder(&doc, &doc);
}

/// A literal whose normal form is itself: `len` times `letter`.
fn run_of(letter: char, len: usize) -> String {
    std::iter::repeat(letter).take(len).collect()
}

/// One triple of a [`log_script`]: a subject of up to twelve (the same
/// names on both sides) and one of four predicates.
fn script_triple(rng: &mut Rng, side: Side, object: Result<String, String>) -> RefTriple {
    let subject = format!("e{}", rng.gen_range(0..12usize));
    RefTriple { side, subject, predicate: format!("p{}", rng.gen_range(0..4usize)), object }
}

/// The calls of one case, in order. Sides mostly alternate call by call;
/// objects come from one pool for both sides (so literals repeat across
/// them), or are URIs naming a subject or nothing (a dangling URI, whose
/// local name `finish` makes a literal). Then a run that revisits the
/// subjects in descending order, so the step from one pair's entity to the
/// next goes back, with the sides alternating call by call through
/// `add_pair` (predicate `p0`) and empty normal forms among its literals.
/// Around them sit the shapes the builder's logs are cut at — 1 MiB
/// segments of pair records and of literal records (a word count, then a
/// token id per ASCII word, or a mark, a three-byte length and the bytes of
/// a long word past ASCII): an empty normal form as the log's last
/// occurrence and, with `empty_first`, as its first (literal 0, which an
/// occurrence the log lost would read as); with `segments`, one whose
/// record fills a segment exactly, followed by an empty one (which then
/// starts the next segment), and one longer than a segment. With `long`,
/// the left side gets 70 000 more pairs.
fn log_script(rng: &mut Rng, empty_first: bool, segments: bool, long: bool) -> Vec<RefTriple> {
    const SEGMENT: usize = 1 << 20;
    let pool: Vec<String> =
        (0..24).map(|k| if k % 2 == 0 { words(rng) } else { mixed_string(rng) }).collect();
    let edges = if segments {
        // One wide word of `SEGMENT - 5` bytes: its record is the count,
        // the mark, the length and the word.
        vec![
            run_of('é', (SEGMENT - 6) / 2) + "a",
            String::new(),
            "after".to_owned(),
            run_of('ł', SEGMENT / 2 + 1 + rng.gen_range(0..100usize)),
            String::new(),
        ]
    } else {
        Vec::new()
    };
    // "--!" normalizes to the empty string.
    let first = if empty_first { "--!" } else { "first" };
    let mut triples = vec![script_triple(rng, Side::Left, Ok(first.to_owned()))];
    let mut side = Side::Right;
    let n = rng.gen_range(200..1_500usize);
    let edges_at = rng.gen_range(0..n);
    for k in 0..n {
        if k == edges_at {
            for edge in &edges {
                side = side.other();
                triples.push(script_triple(rng, side, Ok(edge.clone())));
            }
        }
        if rng.gen_range(0..4usize) > 0 {
            side = side.other();
        }
        let object = match rng.gen_range(0..6usize) {
            0 => Err(format!("e{}", rng.gen_range(0..16usize))),
            1 => Err(format!("http://x.org/res/{}_{}", rng.gen_range(0..5usize), rng.gen_range(0..3usize))),
            _ => Ok(pool[rng.gen_range(0..pool.len())].clone()),
        };
        triples.push(script_triple(rng, side, object));
    }
    for k in 0..48usize {
        let side = if k % 2 == 0 { Side::Left } else { Side::Right };
        let object = match k % 6 {
            0 => Ok("--!".to_owned()),
            3 => Err(format!("e{}", k % 16)),
            _ => Ok(pool[k % pool.len()].clone()),
        };
        triples.push(RefTriple { side, subject: format!("e{}", 11 - k / 4), predicate: "p0".to_owned(), object });
    }
    if long {
        for k in 0..70_000 {
            let side = if k % 16 == 15 { Side::Right } else { Side::Left };
            triples.push(script_triple(rng, side, Ok(pool[k % pool.len()].clone())));
        }
    }
    triples.push(script_triple(rng, side, Ok(String::new())));
    triples
}

/// The object of `t` as the builder takes it.
fn term(t: &RefTriple) -> Term<'_> {
    match &t.object {
        Ok(literal) => Term::Literal(literal),
        Err(uri) => Term::Uri(uri),
    }
}

/// Asserts that `pair` holds `naive`'s tables, and so does the pair read
/// back from the `.mkb` file it compiles to — whose bytes the read-back
/// pair compiles to again.
fn assert_same_and_compiled(naive: &NaiveTables, pair: &KbPair, dir: &std::path::Path, what: &str) {
    naive.clone().assert_same_as(pair);
    let (path, again) = (dir.join(format!("{what}.mkb")), dir.join(format!("{what}-again.mkb")));
    write_mkb(pair, &path).expect("compile");
    let read_back = MkbFile::open(&path).expect("open").to_pair().expect("the file is valid");
    naive.clone().assert_same_as(&read_back);
    write_mkb(&read_back, &again).expect("compile again");
    let bytes = |path: &std::path::Path| std::fs::read(path).expect("read the file back");
    assert!(bytes(&path) == bytes(&again), "{what}: the read-back pair compiles to other bytes");
}

/// Literal ids number normal forms by first sight, however the builder
/// holds them until `finish`: every pair's literal id, every token row and
/// the tables of the `.mkb` file the pair compiles to are those of the
/// naive builder, which interns each literal when it is added — for the
/// pair builder, called side by side, and for the dirty builder.
#[test]
fn first_sight_numbering_survives_the_literal_log() {
    let dir = std::env::temp_dir().join(format!("minoaner-kb-first-sight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut case = 0;
    for_each_seed(8, |rng| {
        case += 1;
        let triples = log_script(rng, case % 2 == 1, case == 1 || case == 4, case == 4);

        let (mut builder, mut naive) = (KbPairBuilder::new(), NaiveTables::default());
        for t in &triples {
            // Both ways in: the triple call, and the entity and pair calls.
            if t.predicate == "p0" {
                let e = builder.entity(t.side, &t.subject);
                builder.add_pair(t.side, e, &t.predicate, term(t));
            } else {
                builder.add_triple(t.side, &t.subject, &t.predicate, term(t));
            }
            naive.add(t);
        }
        assert_same_and_compiled(&naive, &builder.finish(), &dir, "pair");

        let (mut dirty, mut naive) = (KbPairBuilder::new(), NaiveTables::default());
        for t in &triples {
            dirty.add_triple(Side::Left, &t.subject, &t.predicate, term(t));
            naive.add(&RefTriple { side: Side::Left, ..t.clone() });
        }
        naive.mirror_left();
        assert_same_and_compiled(&naive, &dirty.finish_dirty(), &dir, "dirty");
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Each entity's pairs come back in the order they were added past the
/// widths of one- and two-byte varints: more than 2¹⁴ entities, attributes
/// and URI objects; passes over the subjects in orders that step thousands
/// of entities either way; and, on the side that gets few pairs, steps of
/// thousands of literal occurrences. The records take more than one 1 MiB
/// segment. Too large for the naive builder: this checks pairs by string.
#[test]
fn pairs_come_back_in_the_order_added_past_two_byte_varints() {
    const N: usize = 20_000;
    // Pass `k / N` visits subject `k * stride % N`; the first pass numbers
    // the entities in subject order.
    const STRIDES: [usize; 8] = [1, 7_919, 9_973, 12_007, 3_001, 19_999, 4_999, 10_007];
    let mut b = KbPairBuilder::new();
    let mut added = [vec![Vec::new(); N], vec![Vec::new(); N]];
    for k in 0..STRIDES.len() * N {
        let side = if k % 997 == 5 || k % 60_013 < 3 { Side::Right } else { Side::Left };
        let subject = k * STRIDES[k / N] % N;
        let predicate = format!("p{}", k * 6_007 % N);
        let object = match k % 3 {
            0 => Err(format!("e{}", k * 3_001 % N)),
            1 => Ok(format!("v{}", k % 50_000)),
            _ => Err(format!("http://x.org/{k}")),
        };
        let term = match &object {
            Ok(literal) => Term::Literal(literal),
            Err(uri) => Term::Uri(uri),
        };
        b.add_triple(side, &format!("e{subject}"), &predicate, term);
        added[side.index()][subject].push((predicate, object));
    }
    let pair = b.finish();
    for side in [Side::Left, Side::Right] {
        let (kb, added) = (pair.kb(side), &added[side.index()]);
        // A URI object is a reference when it names a subject of this
        // side, else a literal of its local name.
        let subjects: BTreeSet<String> =
            (0..N).filter(|&subject| !added[subject].is_empty()).map(|subject| format!("e{subject}")).collect();
        let mut checked = 0;
        for (subject, pairs) in added.iter().enumerate().filter(|(_, pairs)| !pairs.is_empty()) {
            let uri = pair.uris().get(&format!("e{subject}")).expect("every subject is interned");
            let entity = kb.entity(kb.entity_by_uri(uri).expect("a subject is an entity of its side"));
            let want: Vec<(&str, Result<String, &str>)> = pairs
                .iter()
                .map(|(predicate, object)| {
                    let value = match object {
                        Ok(literal) => Ok(normalize_name(literal)),
                        Err(uri) if subjects.contains(uri) => Err(uri.as_str()),
                        Err(uri) => Ok(normalize_name(uri_local_name(uri))),
                    };
                    (predicate.as_str(), value)
                })
                .collect();
            let got: Vec<(&str, Result<String, &str>)> = entity
                .pairs()
                .map(|(attr, value)| {
                    let value = match value {
                        Value::Literal(l) => Ok(pair.literals().resolve(Symbol(l.0)).to_owned()),
                        Value::Ref(e) => Err(pair.uri_of(side, e)),
                    };
                    (pair.attrs().resolve(Symbol(attr.0)), value)
                })
                .collect();
            assert_eq!(got, want, "{side:?} subject e{subject}");
            checked += pairs.len();
        }
        assert_eq!(checked, kb.triple_count(), "{side:?}");
    }
    assert!(pair.kb(Side::Left).len() == N && pair.attr_space() == N && pair.uris().len() > 3 * N);
}

/// The last-subject memo must never hand out an entity of the other
/// side, of an earlier subject, or of an object.
#[test]
fn subject_memo_edge_cases() {
    // The same URI on both sides, back to back: one entity per side.
    let mut b = KbPairBuilder::new();
    b.add_triple(Side::Left, "same", "p", Term::Literal("left value"));
    b.add_triple(Side::Right, "same", "p", Term::Literal("right value"));
    b.add_triple(Side::Left, "same", "q", Term::Literal("left again"));
    let pair = b.finish();
    assert_eq!((pair.kb(Side::Left).len(), pair.kb(Side::Right).len()), (1, 1));
    assert_eq!(pair.kb(Side::Left).triple_count(), 2);
    assert_eq!(pair.kb(Side::Right).triple_count(), 1);
    assert_eq!(pair.uris().len(), 1);

    // A B A: the second A is the first entity again, not a third.
    let mut b = KbPairBuilder::new();
    let a = b.entity(Side::Left, "A");
    b.add_pair(Side::Left, a, "p", Term::Literal("one"));
    b.add_triple(Side::Left, "B", "p", Term::Literal("two"));
    b.add_triple(Side::Left, "A", "p", Term::Literal("three"));
    assert_eq!(b.entity(Side::Left, "A"), a);
    assert_eq!(b.entity(Side::Left, "B"), EntityId(1));
    let pair = b.finish();
    assert_eq!(pair.kb(Side::Left).len(), 2);
    assert_eq!(pair.kb(Side::Left).entity(a).pairs().len(), 2);
    assert_eq!(pair.kb(Side::Left).entity(EntityId(1)).pairs().len(), 1);

    // A subject that was the previous triple's object is a new entity,
    // and the reference to it resolves.
    let mut b = KbPairBuilder::new();
    b.add_triple(Side::Left, "a", "knows", Term::Uri("b"));
    b.add_triple(Side::Left, "b", "name", Term::Literal("bee"));
    // An attribute named like the last one, on another entity and side.
    b.add_triple(Side::Right, "c", "name", Term::Literal("sea"));
    let pair = b.finish();
    let kb = pair.kb(Side::Left);
    assert_eq!(kb.len(), 2);
    assert_eq!(kb.neighbors_of(EntityId(0)).collect::<Vec<_>>(), [EntityId(1)]);
    assert_eq!(pair.attr_space(), 2);

    // Nothing at all.
    let pair = KbPairBuilder::new().finish();
    assert!(pair.kb(Side::Left).is_empty() && pair.kb(Side::Right).is_empty());
    assert_eq!((pair.token_space(), pair.literal_space(), pair.attr_space()), (0, 0, 0));
}

// ───────────────── stats ≡ hash-set counts ─────────────────

#[test]
fn stats_agree_with_per_attribute_sets() {
    let d = generate(&profiles::bbc_dbpedia().scaled(0.05));
    let pair = &d.pair;
    let relations = RelationStats::compute(pair);
    let k = 3;
    let names = NameStats::compute(pair, k);
    let harmonic = |a: f64, b: f64| if a + b == 0.0 { 0.0 } else { 2.0 * a * b / (a + b) };
    for side in [Side::Left, Side::Right] {
        let kb = pair.kb(side);
        let n = kb.len() as f64;
        let mut name_order = Vec::new();
        for a in 0..pair.attr_space() {
            let attr = AttrId(u32::try_from(a).expect("small"));
            // Definitions 2.2–2.4 over explicit sets.
            let instances = kb.iter().flat_map(|(_, e)| e.relation_pairs()).filter(|&(p, _)| p == attr).count();
            let objects: BTreeSet<EntityId> =
                kb.iter().flat_map(|(_, e)| e.relation_pairs()).filter(|&(p, _)| p == attr).map(|(_, o)| o).collect();
            if instances == 0 {
                assert_eq!(relations.global_rank(side, attr), None);
                assert_eq!(relations.importance(side, attr), 0.0);
            } else {
                let support = instances as f64 / (n * n);
                let discriminability = objects.len() as f64 / instances as f64;
                assert_eq!(relations.support(side, attr).to_bits(), support.to_bits(), "{side:?} {attr:?}");
                assert_eq!(relations.discriminability(side, attr).to_bits(), discriminability.to_bits());
                assert_eq!(relations.importance(side, attr).to_bits(), harmonic(support, discriminability).to_bits());
            }

            // "Entity Names" over explicit sets.
            let literal_pairs = || kb.iter().flat_map(|(id, e)| e.literal_pairs().map(move |(p, l)| (id, p, l))).filter(|&(_, p, _)| p == attr);
            let instances = literal_pairs().count();
            let subjects: BTreeSet<EntityId> = literal_pairs().map(|(id, _, _)| id).collect();
            let values: BTreeSet<LiteralId> = literal_pairs().map(|(_, _, l)| l).collect();
            if instances == 0 {
                assert_eq!(names.importance(side, attr), 0.0);
            } else {
                let importance = harmonic(subjects.len() as f64 / n, values.len() as f64 / instances as f64);
                assert_eq!(names.importance(side, attr).to_bits(), importance.to_bits(), "{side:?} {attr:?}");
                name_order.push((importance, attr));
            }
        }
        name_order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let top: Vec<AttrId> = name_order.iter().take(k).map(|&(_, attr)| attr).collect();
        assert_eq!(names.name_attrs(side), top, "{side:?} name attributes");
    }
}
