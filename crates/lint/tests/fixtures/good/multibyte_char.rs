//! Char literals wider than one byte, beside lifetimes: the lexer must
//! take each as one token and keep its place in the source.

pub fn alphabet<'a>(extra: &'a [char]) -> Vec<char> {
    let mut out = vec!['a', 'é', 'ß', '€', '語', '🦀', '\u{e9}', '\''];
    out.extend_from_slice(extra);
    out
}
