//! # minoaner-kb
//!
//! The knowledge-base substrate of the MinoanER reproduction: the entity
//! model of §2 of the paper (URI-identified descriptions of attribute–value
//! pairs forming an entity graph), string interning, tokenization, an
//! N-Triples-subset parser, and the schema-agnostic statistics that drive
//! every similarity in the framework — token entity frequencies
//! ([`stats::TokenEf`]), value similarity ([`stats::value_sim`], Def. 2.1),
//! relation importance and top-N neighbors ([`stats::RelationStats`],
//! Defs. 2.2–2.5), and global name attributes ([`stats::NameStats`]).
//!
//! ```
//! use minoaner_kb::{KbPairBuilder, Side, Term};
//! use minoaner_kb::stats::{TokenEf, value_sim};
//!
//! let mut b = KbPairBuilder::new();
//! b.add_triple(Side::Left, "w:R1", "w:label", Term::Literal("The Fat Duck Bray"));
//! b.add_triple(Side::Right, "d:R2", "d:name", Term::Literal("Fat Duck (Bray)"));
//! let pair = b.finish();
//! let ef = TokenEf::compute(&pair);
//! let l = pair.kb(Side::Left).iter().next().unwrap().0;
//! let r = pair.kb(Side::Right).iter().next().unwrap().0;
//! assert!(value_sim(&pair, &ef, l, r) > 0.0);
//! ```

pub mod dataset_stats;
pub mod dirty;
pub mod disk;
pub mod interner;
pub mod model;
pub mod parser;
pub mod rows;
pub mod stats;
pub mod store;
pub mod tokenize;
pub mod turtle;

pub use disk::{write_mkb, MkbError, MkbFile, MKB_FORMAT_VERSION};
pub use interner::{Interner, Symbol};
pub use model::{AttrId, Entity, EntityId, LiteralId, Side, TokenId, Value};
pub use parser::{ParseError, ParseMode, ParseReport, SyntaxError};
pub use rows::Rows;
pub use store::{Kb, KbPair, KbPairBuilder, Term};
