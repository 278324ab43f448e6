//! Token blocking (§3.1): every token appearing in the values of entities
//! from both KBs defines one block. Token blocking is parameter-free and —
//! critically for MinoanER — its block sizes *are* the entity frequencies,
//! so value similarity (Def. 2.1) can be computed from the blocks alone.
//!
//! A side's blocks are the inversion of its token-set column: entity → its
//! tokens becomes token → its entities by one count, prefix-sum and scatter
//! ([`Rows::build`]), linear in the token occurrences. Entities are walked
//! in id order and a token set holds no token twice, so every block's
//! members come out ascending and duplicate-free without a comparison.

use minoaner_dataflow::{Executor, StageIo};
use minoaner_kb::{EntityId, KbPair, Rows, Side, TokenId};

use crate::block::TokenBlocks;

/// Builds the token blocks.
pub fn build_token_blocks(pair: &KbPair) -> TokenBlocks {
    TokenBlocks::active(invert(pair, Side::Left), invert(pair, Side::Right), TokenId)
}

/// Builds the token blocks on `executor`: the same construction, each
/// side's inversion logged as a stage with its item flow and the block
/// counters emitted. One task a side — the inversion is a linear pass that
/// costs less than handing its parts between tasks would.
pub fn build_token_blocks_parallel(executor: &Executor, pair: &KbPair) -> TokenBlocks {
    let [left, right] = [Side::Left, Side::Right].map(|side| {
        let stage = format!("token-blocking/{side:?}");
        let inverted = executor.time_stage(&stage, || invert(pair, side));
        let io = StageIo::items(pair.kb(side).len() as u64, inverted.n_items() as u64);
        executor.annotate_last_stage(&stage, io);
        inverted
    });
    let blocks = TokenBlocks::active(left, right, TokenId);
    executor.emit_counter("blocking/token_blocks_built", blocks.len() as u64);
    executor.emit_counter("blocking/token_block_comparisons", blocks.total_comparisons());
    blocks
}

/// One side's token sets inverted: row `t` holds the entities whose values
/// contain token `t`, ascending.
fn invert(pair: &KbPair, side: Side) -> Rows<EntityId> {
    let memberships = (0u32..).zip(pair.kb(side).token_sets().iter()).flat_map(|(e, tokens)| {
        tokens.iter().map(move |&TokenId(token)| (token as usize, EntityId(e)))
    });
    Rows::build(pair.token_space(), memberships)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::{KbPairBuilder, Term};

    fn pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l1", "p", Term::Literal("fat duck bray"));
        b.add_triple(Side::Left, "l2", "p", Term::Literal("duck pond"));
        b.add_triple(Side::Right, "r1", "p", Term::Literal("fat duck"));
        b.add_triple(Side::Right, "r2", "p", Term::Literal("swan lake"));
        b.finish()
    }

    #[test]
    fn blocks_exist_only_for_shared_tokens() {
        let p = pair();
        let blocks = build_token_blocks(&p);
        // Shared tokens: fat, duck. One-sided: bray, pond, swan, lake.
        assert_eq!(blocks.len(), 2);
        let token_names: Vec<&str> =
            blocks.keys().iter().map(|t| p.tokens().resolve(minoaner_kb::Symbol(t.0))).collect();
        assert!(token_names.contains(&"fat"));
        assert!(token_names.contains(&"duck"));
    }

    #[test]
    fn block_sizes_equal_entity_frequencies() {
        let p = pair();
        let blocks = build_token_blocks(&p);
        let duck = TokenId(p.tokens().get("duck").unwrap().0);
        let (_, b) = blocks.iter().find(|(t, _)| *t == duck).unwrap();
        assert_eq!(b.left.len(), 2); // l1, l2
        assert_eq!(b.right.len(), 1); // r1
        assert_eq!(b.comparisons(), 2);
    }

    #[test]
    fn posting_lists_are_sorted() {
        let p = pair();
        for (_, b) in build_token_blocks(&p).iter() {
            assert!(b.left.windows(2).all(|w| w[0] < w[1]));
            assert!(b.right.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn the_staged_build_is_the_same_blocks_on_every_worker_count() {
        let mut b = KbPairBuilder::new();
        for i in 0..200 {
            let uri = format!("l{i}");
            b.add_triple(Side::Left, &uri, "p", Term::Literal(&format!("tok{} shared common", i % 13)));
        }
        for i in 0..150 {
            let uri = format!("r{i}");
            b.add_triple(Side::Right, &uri, "p", Term::Literal(&format!("tok{} shared other", i % 7)));
        }
        let p = b.finish();
        let seq = build_token_blocks(&p);
        for workers in [1, 4] {
            let exec = Executor::new(workers);
            let par = build_token_blocks_parallel(&exec, &p);
            assert_eq!(seq, par, "workers={workers}");
            let log = exec.stage_log();
            for (side, entities) in [("Left", 200), ("Right", 150)] {
                let io = log.find(&format!("token-blocking/{side}")).expect("stage recorded").io;
                assert_eq!(io.items_in, entities, "{side}");
                assert!(io.items_out >= 3 * entities, "{side}: every entity has three tokens");
            }
        }
    }
}
