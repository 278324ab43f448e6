//! Pins the output of the four baseline analogues that run at one setting
//! (PARIS, SiGMa, LINDA, RiMOM) on a small `restaurant` dataset, so a
//! change to their code cannot move a Table 3 row unnoticed.

use minoaner_dataflow::Executor;
use minoaner_datagen::profiles;
use minoaner_eval::{dataset_at_scale, run_system, SystemId};

#[test]
fn baselines_are_pinned_on_restaurant() {
    let dataset = dataset_at_scale(&profiles::restaurant(), 0.3);
    let executor = Executor::new(2);
    let pinned = [
        (SystemId::Paris, 26, "94.3396"),
        (SystemId::Sigma, 33, "90.0000"),
        (SystemId::Linda, 31, "93.1034"),
        (SystemId::Rimom, 27, "100.0000"),
    ];
    for (system, matches, f1) in pinned {
        let run = run_system(&executor, &dataset, system);
        assert_eq!(
            (run.matches.len(), format!("{:.4}", run.quality.f1)),
            (matches, f1.to_owned()),
            "{} moved",
            system.name()
        );
    }
}
