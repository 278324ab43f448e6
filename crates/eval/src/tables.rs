//! Builders for the paper's Tables 1–4, each returning both structured
//! rows (for JSON / assertions) and a rendered [`TextTable`].

use minoaner_baselines::published::{published, published_rule};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::purge_blocks;
use minoaner_blocking::stats::{block_stats, BlockCollectionStats};
use minoaner_blocking::token::build_token_blocks;
use minoaner_core::{MinoanerConfig, RuleSet};
use minoaner_dataflow::Executor;
use minoaner_datagen::profiles::all_profiles;
use minoaner_kb::dataset_stats::{kb_stats, KbStats};
use minoaner_kb::stats::NameStats;
use minoaner_kb::Side;

use crate::harness::{dataset_at_scale, run_ablation, run_system, SystemId};
use crate::metrics::Quality;
use crate::report::{count, pct, sci, TextTable};

/// Table 1 — dataset statistics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub dataset: String,
    pub left: KbStats,
    pub right: KbStats,
    pub matches: usize,
}

/// Computes Table 1 over the generated datasets.
pub fn table1(scale: f64) -> (Vec<Table1Row>, TextTable) {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        rows.push(Table1Row {
            left: kb_stats(&d.pair, Side::Left, &profile.type_attr(Side::Left)),
            right: kb_stats(&d.pair, Side::Right, &profile.type_attr(Side::Right)),
            matches: d.ground_truth.len(),
            dataset: profile.name,
        });
    }
    let mut t = TextTable::new(
        format!("Table 1: Dataset statistics (synthetic analogues, scale {scale})"),
        &["statistic", &rows[0].dataset, &rows[1].dataset, &rows[2].dataset, &rows[3].dataset],
    );
    let stat = |t: &mut TextTable, label: &str, f: &dyn Fn(&Table1Row) -> String| {
        t.row(std::iter::once(label.to_owned()).chain(rows.iter().map(f)).collect());
    };
    stat(&mut t, "E1 entities", &|r| count(r.left.entities as u64));
    stat(&mut t, "E2 entities", &|r| count(r.right.entities as u64));
    stat(&mut t, "E1 triples", &|r| count(r.left.triples as u64));
    stat(&mut t, "E2 triples", &|r| count(r.right.triples as u64));
    stat(&mut t, "E1 av. tokens", &|r| format!("{:.2}", r.left.avg_tokens));
    stat(&mut t, "E2 av. tokens", &|r| format!("{:.2}", r.right.avg_tokens));
    stat(&mut t, "E1/E2 attributes", &|r| format!("{} / {}", r.left.attributes, r.right.attributes));
    stat(&mut t, "E1/E2 relations", &|r| format!("{} / {}", r.left.relations, r.right.relations));
    stat(&mut t, "E1/E2 types", &|r| format!("{} / {}", r.left.types, r.right.types));
    stat(&mut t, "E1/E2 vocab.", &|r| format!("{} / {}", r.left.vocabularies, r.right.vocabularies));
    stat(&mut t, "Matches", &|r| count(r.matches as u64));
    (rows, t)
}

/// Table 2 — block statistics.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub dataset: String,
    pub stats: BlockCollectionStats,
}

/// Computes Table 2: name/token block counts, aggregate comparisons, and
/// blocking precision / recall / F1.
pub fn table2(scale: f64) -> (Vec<Table2Row>, TextTable) {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let mut tb = build_token_blocks(&d.pair);
        purge_blocks(&mut tb, d.pair.kb(Side::Left).len() + d.pair.kb(Side::Right).len());
        let names = NameStats::compute(&d.pair, MinoanerConfig::default().name_attrs_k);
        let nb = build_name_blocks(&d.pair, &names);
        let stats = block_stats(&d.pair, &names, &tb, &nb, &d.ground_truth);
        rows.push(Table2Row { dataset: profile.name, stats });
    }
    let mut t = TextTable::new(
        format!("Table 2: Block statistics (scale {scale})"),
        &["statistic", &rows[0].dataset, &rows[1].dataset, &rows[2].dataset, &rows[3].dataset],
    );
    let stat = |t: &mut TextTable, label: &str, f: &dyn Fn(&Table2Row) -> String| {
        t.row(std::iter::once(label.to_owned()).chain(rows.iter().map(f)).collect());
    };
    stat(&mut t, "|B_N|", &|r| count(r.stats.name_blocks as u64));
    stat(&mut t, "|B_T|", &|r| count(r.stats.token_blocks as u64));
    stat(&mut t, "||B_N||", &|r| sci(r.stats.name_comparisons));
    stat(&mut t, "||B_T||", &|r| sci(r.stats.token_comparisons));
    stat(&mut t, "|E1|x|E2|", &|r| sci(r.stats.cartesian));
    stat(&mut t, "Precision", &|r| pct(Some(r.stats.precision)));
    stat(&mut t, "Recall", &|r| pct(Some(r.stats.recall)));
    stat(&mut t, "F1", &|r| pct(Some(r.stats.f1)));
    (rows, t)
}

/// Table 3 — system comparison.
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub system: String,
    pub dataset: String,
    pub measured: Option<Quality>,
    pub paper_precision: Option<f64>,
    pub paper_recall: Option<f64>,
    pub paper_f1: Option<f64>,
    pub detail: String,
}

/// Computes Table 3: every runnable system on every dataset, with the
/// paper's published numbers alongside. Unlike the paper (which could not
/// run SiGMa, LINDA or RiMOM), every row here is measured from a live
/// analogue implementation.
pub fn table3(executor: &Executor, scale: f64) -> (Vec<Table3Row>, TextTable) {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        for system in SystemId::ALL {
            let run = run_system(executor, &d, system);
            let p = published(run.system.name(), &profile.name);
            rows.push(Table3Row {
                system: run.system.name().to_owned(),
                dataset: profile.name.clone(),
                measured: Some(run.quality),
                paper_precision: p.map(|q| q.precision),
                paper_recall: p.map(|q| q.recall),
                paper_f1: p.map(|q| q.f1),
                detail: run.detail,
            });
        }
    }
    let mut t = TextTable::new(
        format!("Table 3: MinoanER vs baselines (measured | paper), scale {scale}"),
        &["dataset", "system", "P", "R", "F1", "paper P", "paper R", "paper F1"],
    );
    for r in &rows {
        t.row(vec![
            r.dataset.clone(),
            r.system.clone(),
            pct(r.measured.map(|q| q.precision)),
            pct(r.measured.map(|q| q.recall)),
            pct(r.measured.map(|q| q.f1)),
            pct(r.paper_precision),
            pct(r.paper_recall),
            pct(r.paper_f1),
        ]);
    }
    (rows, t)
}

/// Table 4 — matching-rule ablations.
#[derive(Debug, Clone)]
pub struct Table4Row {
    pub rule: String,
    pub dataset: String,
    pub measured: Quality,
    pub paper_precision: Option<f64>,
    pub paper_recall: Option<f64>,
    pub paper_f1: Option<f64>,
}

/// The Table 4 ablations in paper order.
pub fn ablations() -> Vec<(&'static str, RuleSet)> {
    vec![
        ("R1", RuleSet::R1_ONLY),
        ("R2", RuleSet::R2_ONLY),
        ("R3", RuleSet::R3_ONLY),
        ("noR4", RuleSet::NO_R4),
        ("noNeighbors", RuleSet::NO_NEIGHBORS),
    ]
}

/// Computes Table 4: each rule alone, the workflow without R4, and the
/// workflow without neighbor evidence (R3).
pub fn table4(executor: &Executor, scale: f64) -> (Vec<Table4Row>, TextTable) {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        for (name, rules) in ablations() {
            let (q, _) = run_ablation(executor, &d, rules, MinoanerConfig::default());
            let p = published_rule(name, &profile.name);
            rows.push(Table4Row {
                rule: name.to_owned(),
                dataset: profile.name.clone(),
                measured: q,
                paper_precision: p.map(|x| x.precision),
                paper_recall: p.map(|x| x.recall),
                paper_f1: p.map(|x| x.f1),
            });
        }
    }
    let mut t = TextTable::new(
        format!("Table 4: Matching-rule evaluation (measured | paper), scale {scale}"),
        &["dataset", "rule", "P", "R", "F1", "paper P", "paper R", "paper F1"],
    );
    for r in &rows {
        t.row(vec![
            r.dataset.clone(),
            r.rule.clone(),
            pct(Some(r.measured.precision)),
            pct(Some(r.measured.recall)),
            pct(Some(r.measured.f1)),
            pct(r.paper_precision),
            pct(r.paper_recall),
            pct(r.paper_f1),
        ]);
    }
    (rows, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_datasets_and_renders() {
        let (rows, t) = table1(0.1);
        assert_eq!(rows.len(), 4);
        let rendered = t.render();
        assert!(rendered.contains("Restaurant"));
        assert!(rendered.contains("Matches"));
        // BBC keeps its schema-width asymmetry at any scale.
        let bbc = &rows[2];
        assert!(bbc.right.attributes > 5 * bbc.left.attributes);
    }

    /// Table 2's two claims (§6.1), on the data this repository generates:
    /// the composite blocks keep nearly every match, at a comparison count
    /// purging holds *linear* in the entity count — which is what leaves
    /// the large datasets one to two orders of magnitude below their cross
    /// product.
    #[test]
    fn table2_recall_is_high_and_comparisons_bounded() {
        use minoaner_blocking::purge::DEFAULT_BUDGET_PER_ENTITY;
        let scale = 0.2;
        let (rows, _) = table2(scale);
        let mut large = 0;
        for (r, profile) in rows.iter().zip(all_profiles()) {
            // At tiny scales the weak/short entities cost a bit more recall
            // than the paper's 99 %+ (94.8–100 here).
            assert!(r.stats.recall > 85.0, "{}: blocking recall {}", r.dataset, r.stats.recall);
            // The designed invariant: purging admits token blocks up to a
            // budget of 64 comparisons per entity.
            let scaled = profile.scaled(scale);
            let entities = (scaled.left_entities() + scaled.right_entities()) as u64;
            let budget = DEFAULT_BUDGET_PER_ENTITY * entities;
            assert!(
                r.stats.token_comparisons <= budget,
                "{}: {} token comparisons exceed the purge budget {budget}",
                r.dataset,
                r.stats.token_comparisons
            );
            // A linear budget is below the quadratic cross product only once
            // a dataset is large enough: Restaurant at this scale is 68 × 451
            // entities, whose budget (33 216) exceeds its 30 668 pairs, and a
            // block-wise count repeats a pair once per shared block — in the
            // paper, too, Restaurant's ‖B_T‖ is 0.7 of its cross product. So
            // the saving is asserted where the budget bites: at least half
            // the cross product there (4–8× here; the gap widens with scale,
            // comparisons growing ~5× per 25× of cross product).
            if 2 * budget < r.stats.cartesian {
                large += 1;
                assert!(
                    2 * (r.stats.token_comparisons + r.stats.name_comparisons) < r.stats.cartesian,
                    "{}: comparisons are not well below the cross product",
                    r.dataset
                );
            }
        }
        assert_eq!(large, 3, "every dataset but Restaurant is large enough for the budget to bite");
    }

    #[test]
    fn table4_rows_cover_all_ablations() {
        let exec = Executor::new(2);
        let (rows, t) = table4(&exec, 0.1);
        assert_eq!(rows.len(), 4 * 5);
        assert!(t.render().contains("noNeighbors"));
    }
}
