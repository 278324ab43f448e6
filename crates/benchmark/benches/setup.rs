//! Set-up: datagen → `left.nt` / `right.nt` / `gt.tsv` → (for the `.mkb`
//! workloads) `pair.mkb`, compiled from the text files the way
//! `minoaner kb compile` does. Runs in the parent, outside every timed
//! rep; the program under test only ever sees the files.

use std::path::{Path, PathBuf};
use std::time::Instant;

use minoaner_datagen::{generate, DatasetProfile};
use minoaner_kb::parser::{load_ntriples, write_ntriples};
use minoaner_kb::{write_mkb, KbPairBuilder, Side};

/// Where one workload's generated files live.
pub struct Inputs {
    pub left: PathBuf,
    pub right: PathBuf,
    pub mkb: PathBuf,
    pub gt: PathBuf,
}

impl Inputs {
    pub fn in_dir(dir: &Path) -> Self {
        Self {
            left: dir.join("left.nt"),
            right: dir.join("right.nt"),
            mkb: dir.join("pair.mkb"),
            gt: dir.join("gt.tsv"),
        }
    }
}

/// Seconds spent in each part of one set-up.
pub struct SetupTimes {
    pub generate_s: f64,
    pub write_nt_s: f64,
    /// 0 when the workload reads the text files and needs no container.
    pub compile_mkb_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.write_nt_s + self.compile_mkb_s
    }
}

/// Generates the dataset and (over)writes its files.
pub fn build(profile: &DatasetProfile, inputs: &Inputs, want_mkb: bool) -> Result<SetupTimes, String> {
    let t0 = Instant::now();
    let dataset = generate(profile);
    let generate_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let left_doc = write_ntriples(&dataset.pair, Side::Left);
    let right_doc = write_ntriples(&dataset.pair, Side::Right);
    let mut gt = String::new();
    for &(l, r) in &dataset.ground_truth {
        gt.push_str(dataset.pair.uri_of(Side::Left, l));
        gt.push('\t');
        gt.push_str(dataset.pair.uri_of(Side::Right, r));
        gt.push('\n');
    }
    for (path, doc) in [(&inputs.left, &left_doc), (&inputs.right, &right_doc), (&inputs.gt, &gt)] {
        std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let write_nt_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    if want_mkb {
        let mut builder = KbPairBuilder::new();
        load_ntriples(&mut builder, Side::Left, &left_doc).map_err(|e| format!("left.nt: {e}"))?;
        load_ntriples(&mut builder, Side::Right, &right_doc).map_err(|e| format!("right.nt: {e}"))?;
        write_mkb(&builder.finish(), &inputs.mkb).map_err(|e| e.to_string())?;
    }
    let compile_mkb_s = if want_mkb { t2.elapsed().as_secs_f64() } else { 0.0 };

    Ok(SetupTimes { generate_s, write_nt_s, compile_mkb_s })
}
