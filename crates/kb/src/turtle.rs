//! A Turtle-subset parser, complementing the N-Triples loader: most public
//! KB dumps (DBpedia, Wikidata exports, BBC data) ship as Turtle with
//! prefixes and predicate/object lists.
//!
//! Supported subset:
//! * `@prefix p: <iri> .` and SPARQL-style `PREFIX p: <iri>`
//! * `@base <iri> .`
//! * prefixed names (`dbo:name`), absolute IRIs (`<http://…>`)
//! * the `a` keyword for `rdf:type`
//! * predicate lists (`;`) and object lists (`,`)
//! * literals with `@lang` / `^^datatype` suffixes (suffixes ignored, as
//!   in the N-Triples loader), `'`/`"`/`"""`/`'''` quoting
//! * `#` comments
//!
//! Not supported (rejected with a clear error): blank-node property lists
//! `[…]`, collections `(…)`, numeric/boolean literal shorthand.

use crate::model::Side;
use crate::parser::ParseError;
use crate::store::{KbPairBuilder, Term};
use minoaner_det::DetHashMap;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Loads a Turtle-subset document into one side of a [`KbPairBuilder`].
/// Returns the number of triples loaded.
pub fn load_turtle(builder: &mut KbPairBuilder, side: Side, input: &str) -> Result<usize, ParseError> {
    let mut parser = TurtleParser::new(input);
    let mut loaded = 0;
    while let Some(statement) = parser.next_statement()? {
        match statement {
            Statement::Prefix(p, iri) => {
                parser.prefixes.insert(p, iri);
            }
            Statement::Base(iri) => parser.base = Some(iri),
            Statement::Triples(subject, pairs) => {
                for (predicate, objects) in pairs {
                    for object in objects {
                        match object {
                            Object::Iri(iri) => {
                                builder.add_triple(side, &subject, &predicate, Term::Uri(&iri))
                            }
                            Object::Literal(text) => {
                                builder.add_triple(side, &subject, &predicate, Term::Literal(&text))
                            }
                        }
                        loaded += 1;
                    }
                }
            }
        }
    }
    Ok(loaded)
}

enum Statement {
    Prefix(String, String),
    Base(String),
    Triples(String, Vec<(String, Vec<Object>)>),
}

enum Object {
    Iri(String),
    Literal(String),
}

struct TurtleParser<'a> {
    input: &'a str,
    pos: usize,
    line: usize,
    prefixes: DetHashMap<String, String>,
    base: Option<String>,
}

impl<'a> TurtleParser<'a> {
    fn new(input: &'a str) -> Self {
        Self { input, pos: 0, line: 1, prefixes: DetHashMap::default(), base: None }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, message: message.into() }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        let consumed = &self.input[self.pos..self.pos + n];
        self.line += consumed.matches('\n').count();
        self.pos += n;
    }

    /// Skips whitespace and comments.
    fn skip_trivia(&mut self) {
        loop {
            let rest = self.rest();
            let trimmed = rest.trim_start();
            let ws = rest.len() - trimmed.len();
            if ws > 0 {
                self.bump(ws);
            }
            if self.rest().starts_with('#') {
                let end = self.rest().find('\n').unwrap_or(self.rest().len());
                self.bump(end);
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.bump(token.len());
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected {token:?}, found {:?}…", self.rest().chars().take(12).collect::<String>())))
        }
    }

    fn next_statement(&mut self) -> Result<Option<Statement>, ParseError> {
        self.skip_trivia();
        if self.rest().is_empty() {
            return Ok(None);
        }
        // `get`: the sixth byte of a statement may fall inside a char.
        let sparql_prefix = self.rest().get(..6).is_some_and(|word| word.eq_ignore_ascii_case("prefix"))
            && self.rest()[6..].starts_with(|c: char| c.is_whitespace());
        if self.eat("@prefix") || sparql_prefix && {
            self.bump(6);
            true
        } {
            self.skip_trivia();
            let prefix = self.take_until(':')?;
            self.expect(":")?;
            self.skip_trivia();
            let iri = self.take_iri()?;
            self.skip_trivia();
            let _ = self.eat("."); // SPARQL-style PREFIX has no dot
            return Ok(Some(Statement::Prefix(prefix, iri)));
        }
        if self.eat("@base") {
            self.skip_trivia();
            let iri = self.take_iri()?;
            self.skip_trivia();
            self.expect(".")?;
            return Ok(Some(Statement::Base(iri)));
        }

        // Triples: subject, then `; `-separated predicate-object lists.
        let subject = self.take_resource()?;
        let mut pairs = Vec::new();
        loop {
            self.skip_trivia();
            // `a` is the rdf:type keyword only when standalone (followed
            // by whitespace) — not the first letter of `author:x`.
            let is_a_keyword = self.rest().starts_with('a')
                && self.rest()[1..].starts_with(|c: char| c.is_whitespace());
            let predicate = if is_a_keyword {
                self.bump(1);
                RDF_TYPE.to_owned()
            } else {
                self.take_resource()?
            };
            let mut objects = Vec::new();
            loop {
                self.skip_trivia();
                objects.push(self.take_object()?);
                self.skip_trivia();
                if !self.eat(",") {
                    break;
                }
            }
            pairs.push((predicate, objects));
            self.skip_trivia();
            if self.eat(";") {
                self.skip_trivia();
                // A trailing `;` before `.` is legal Turtle.
                if self.rest().starts_with('.') {
                    break;
                }
                continue;
            }
            break;
        }
        self.skip_trivia();
        self.expect(".")?;
        Ok(Some(Statement::Triples(subject, pairs)))
    }

    fn take_until(&mut self, stop: char) -> Result<String, ParseError> {
        let rest = self.rest();
        let end = rest.find(stop).ok_or_else(|| self.error(format!("expected {stop:?}")))?;
        let out = rest[..end].trim().to_owned();
        self.bump(end);
        Ok(out)
    }

    fn take_iri(&mut self) -> Result<String, ParseError> {
        if !self.rest().starts_with('<') {
            return Err(self.error("expected an IRI"));
        }
        self.bump(1);
        let rest = self.rest();
        let end = rest.find('>').ok_or_else(|| self.error("unterminated IRI"))?;
        let iri = rest[..end].to_owned();
        self.bump(end + 1);
        let resolved = match (&self.base, iri.contains("://")) {
            (Some(base), false) => format!("{base}{iri}"),
            _ => iri,
        };
        Ok(resolved)
    }

    /// A subject/predicate: absolute IRI or prefixed name.
    fn take_resource(&mut self) -> Result<String, ParseError> {
        if self.rest().starts_with('<') {
            return self.take_iri();
        }
        if self.rest().starts_with('[') {
            return Err(self.error("blank-node property lists are not supported by this Turtle subset"));
        }
        if self.rest().starts_with('(') {
            return Err(self.error("collections are not supported by this Turtle subset"));
        }
        // Prefixed name: prefix ':' local. A local name may hold a `.`
        // (`ex:St._Louis`) but not end with one: a `.` that nothing can
        // follow within the name ends the statement (`ex:s ex:p ex:o.`).
        let rest = self.rest();
        let ends = |c: char| c.is_whitespace() || matches!(c, ';' | ',' | '<' | '"' | '\'');
        let end = rest
            .char_indices()
            .find(|&(i, c)| {
                ends(c) || (c == '.' && rest[i + 1..].chars().next().map_or(true, |n| ends(n) || n == '#'))
            })
            .map_or(rest.len(), |(i, _)| i);
        let name = &rest[..end];
        let colon = name.find(':').ok_or_else(|| self.error(format!("expected IRI or prefixed name, found {name:?}")))?;
        let (prefix, local) = (&name[..colon], &name[colon + 1..]);
        let base = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| self.error(format!("undeclared prefix {prefix:?}")))?;
        let out = format!("{base}{local}");
        self.bump(end);
        Ok(out)
    }

    fn take_object(&mut self) -> Result<Object, ParseError> {
        let rest = self.rest();
        if rest.starts_with('<') {
            return Ok(Object::Iri(self.take_iri()?));
        }
        for quote in ["\"\"\"", "'''", "\"", "'"] {
            if rest.starts_with(quote) {
                return Ok(Object::Literal(self.take_quoted(quote)?));
            }
        }
        if rest.starts_with('[') || rest.starts_with('(') {
            return Err(self.error("blank nodes / collections are not supported by this Turtle subset"));
        }
        // Prefixed-name object. Numeric/boolean shorthand is rejected.
        if rest.starts_with(|c: char| c.is_ascii_digit() || c == '+' || c == '-') {
            return Err(self.error("numeric literal shorthand is not supported; quote the value"));
        }
        if rest.starts_with("true") || rest.starts_with("false") {
            return Err(self.error("boolean literal shorthand is not supported; quote the value"));
        }
        Ok(Object::Iri(self.take_resource()?))
    }

    fn take_quoted(&mut self, quote: &str) -> Result<String, ParseError> {
        self.bump(quote.len());
        let rest = self.rest();
        // Find the terminating quote, honoring backslash escapes for the
        // single-character quotes.
        let mut end = None;
        if quote.len() == 3 {
            end = rest.find(quote);
        } else {
            let q = quote.chars().next().ok_or_else(|| self.error("empty quote delimiter"))?;
            let mut escaped = false;
            for (i, c) in rest.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == q {
                    end = Some(i);
                    break;
                }
            }
        }
        let end = end.ok_or_else(|| self.error("unterminated literal"))?;
        let text = crate::parser::unescape(&rest[..end]).into_owned();
        self.bump(end + quote.len());
        // Skip @lang / ^^datatype suffixes.
        if self.eat("@") {
            let rest = self.rest();
            let stop = rest
                .find(|c: char| c.is_whitespace() || matches!(c, ';' | ',' | '.'))
                .unwrap_or(rest.len());
            self.bump(stop);
        } else if self.eat("^^") {
            let _ = self.take_resource()?;
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(doc: &str) -> Result<(crate::store::KbPair, usize), ParseError> {
        let mut b = KbPairBuilder::new();
        let n = load_turtle(&mut b, Side::Left, doc)?;
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        Ok((b.finish(), n))
    }

    #[test]
    fn prefixes_and_predicate_object_lists() {
        let doc = r#"
@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix dbr: <http://dbpedia.org/resource/> .

dbr:Fat_Duck a dbo:Restaurant ;
    dbo:name "The Fat Duck"@en ;
    dbo:chef dbr:Heston_Blumenthal , dbr:Jonny_Lake .
dbr:Heston_Blumenthal dbo:name "Heston Blumenthal" .
"#;
        let (pair, n) = load(doc).unwrap();
        assert_eq!(n, 5);
        let kb = pair.kb(Side::Left);
        let duck = kb
            .entity_by_uri(pair.uris().get("http://dbpedia.org/resource/Fat_Duck").unwrap())
            .unwrap();
        // Heston has a subject in the KB → relation edge; Jonny_Lake is
        // dangling → stored as its local-name literal.
        assert_eq!(kb.neighbors_of(duck).count(), 1);
        assert!(pair.tokens().get("jonny").is_some());
    }

    #[test]
    fn a_keyword_maps_to_rdf_type() {
        let doc = "@prefix ex: <http://ex.org/> .\nex:x a ex:Thing .";
        let (pair, n) = load(doc).unwrap();
        assert_eq!(n, 1);
        assert!(pair.attrs().get(RDF_TYPE).is_some());
    }

    #[test]
    fn subject_starting_with_prefix_letters_is_not_the_keyword() {
        let doc = "@prefix prefixes: <http://pp/> .\nprefixes:s prefixes:p \"v\" .";
        let (pair, n) = load(doc).unwrap();
        assert_eq!(n, 1);
        assert!(pair.uris().get("http://pp/s").is_some());
    }

    #[test]
    fn predicate_starting_with_a_is_not_the_type_keyword() {
        let doc = "@prefix author: <http://a.org/> .\nauthor:s author:wrote \"book\" .";
        let (pair, n) = load(doc).unwrap();
        assert_eq!(n, 1);
        assert!(pair.attrs().get("http://a.org/wrote").is_some());
        assert!(pair.attrs().get(RDF_TYPE).is_none());
    }

    #[test]
    fn sparql_style_prefix_and_base() {
        let doc = "PREFIX ex: <http://ex.org/>\n@base <http://base.org/> .\nex:s ex:p <rel> .";
        let (pair, n) = load(doc).unwrap();
        assert_eq!(n, 1);
        // <rel> resolved against @base.
        assert!(pair.uris().get("http://base.org/rel").is_some());
    }

    #[test]
    fn triple_quoted_and_datatyped_literals() {
        let doc = r#"
@prefix ex: <http://ex.org/> .
ex:s ex:long """multi
line""" ; ex:year "1995"^^ex:gYear ; ex:short 'single' .
"#;
        let (_, n) = load(doc).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn a_statement_whose_sixth_byte_is_inside_a_char_is_not_a_prefix() {
        let (pair, n) = load("@prefix ab: <http://x/> .\nab:cdé <http://p> \"x\" .").unwrap();
        assert_eq!(n, 1);
        assert!(pair.uris().get("http://x/cdé").is_some());
    }

    #[test]
    fn comments_are_skipped() {
        let doc = "# header\n@prefix ex: <http://ex.org/> . # trailing\nex:s ex:p \"v\" . # done";
        let (_, n) = load(doc).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let err = load("nope:s nope:p \"v\" .").unwrap_err();
        assert!(err.message.contains("undeclared prefix"), "{err}");
    }

    #[test]
    fn unsupported_constructs_are_rejected_clearly() {
        let blank = load("@prefix ex: <http://e/> .\nex:s ex:p [ ex:q \"v\" ] .").unwrap_err();
        assert!(blank.message.contains("not supported"), "{blank}");
        let number = load("@prefix ex: <http://e/> .\nex:s ex:p 42 .").unwrap_err();
        assert!(number.message.contains("numeric"), "{number}");
    }

    #[test]
    fn error_lines_are_reported() {
        let doc = "@prefix ex: <http://e/> .\n\nex:s ex:p [ ] .";
        let err = load(doc).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn equivalent_to_ntriples_load() {
        for (ttl, nt) in [
            (
                "@prefix ex: <http://e/> .\nex:s ex:p \"hello world\" ; ex:q ex:o .\nex:o ex:p \"other\" .",
                "<http://e/s> <http://e/p> \"hello world\" .\n<http://e/s> <http://e/q> <http://e/o> .\n<http://e/o> <http://e/p> \"other\" .",
            ),
            // A `.` inside a local name is part of it.
            (
                "@prefix ex: <http://e.org/> .\nex:St._Louis ex:name \"Saint Louis\" .",
                "<http://e.org/St._Louis> <http://e.org/name> \"Saint Louis\" .",
            ),
            // A `.` right after a local name ends the statement.
            ("@prefix ex: <http://e/> .\nex:s ex:p ex:o.\nex:o ex:p \"v\".", "<http://e/s> <http://e/p> <http://e/o> .\n<http://e/o> <http://e/p> \"v\" ."),
        ] {
            let (pair_ttl, n1) = load(ttl).unwrap_or_else(|e| panic!("{ttl:?}: {e}"));
            let mut b = KbPairBuilder::new();
            let n2 = crate::parser::load_ntriples(&mut b, Side::Left, nt).unwrap();
            b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
            let pair_nt = b.finish();
            assert_eq!(n1, n2, "{ttl:?}");
            let uris = |pair: &crate::store::KbPair| {
                let mut uris: Vec<String> =
                    pair.kb(Side::Left).iter().map(|(id, _)| pair.uri_of(Side::Left, id).to_owned()).collect();
                uris.sort_unstable();
                uris
            };
            assert_eq!(uris(&pair_ttl), uris(&pair_nt), "{ttl:?}");
            assert_eq!(pair_ttl.kb(Side::Left).triple_count(), pair_nt.kb(Side::Left).triple_count(), "{ttl:?}");
        }
    }
}
