//! Match-quality metrics: precision, recall, F1 against a ground truth.

use minoaner_det::DetHashSet;

use minoaner_kb::EntityId;

/// Precision / recall / F1 in percent, plus raw counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub true_positives: usize,
    pub predicted: usize,
    pub actual: usize,
}

impl Quality {
    /// Scores `predicted` pairs against `ground_truth`.
    pub fn evaluate(predicted: &[(EntityId, EntityId)], ground_truth: &[(EntityId, EntityId)]) -> Quality {
        let gt: DetHashSet<(EntityId, EntityId)> = ground_truth.iter().copied().collect();
        let mut pred = predicted.to_vec();
        pred.sort_unstable();
        pred.dedup();
        let tp = pred.iter().filter(|p| gt.contains(p)).count();
        let precision = if pred.is_empty() { 0.0 } else { 100.0 * tp as f64 / pred.len() as f64 };
        let recall = if gt.is_empty() { 0.0 } else { 100.0 * tp as f64 / gt.len() as f64 };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Quality {
            precision,
            recall,
            f1,
            true_positives: tp,
            predicted: pred.len(),
            actual: gt.len(),
        }
    }
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P={:.2} R={:.2} F1={:.2}", self.precision, self.recall, self.f1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn perfect_prediction() {
        let gt = vec![(e(0), e(0)), (e(1), e(1))];
        let q = Quality::evaluate(&gt, &gt);
        assert_eq!(q.precision, 100.0);
        assert_eq!(q.recall, 100.0);
        assert_eq!(q.f1, 100.0);
        assert_eq!(q.true_positives, 2);
    }

    #[test]
    fn partial_prediction() {
        let gt = vec![(e(0), e(0)), (e(1), e(1)), (e(2), e(2)), (e(3), e(3))];
        let pred = vec![(e(0), e(0)), (e(1), e(2))];
        let q = Quality::evaluate(&pred, &gt);
        assert_eq!(q.true_positives, 1);
        assert!((q.precision - 50.0).abs() < 1e-9);
        assert!((q.recall - 25.0).abs() < 1e-9);
        assert!((q.f1 - 2.0 * 50.0 * 25.0 / 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_prediction_and_empty_gt() {
        let gt = vec![(e(0), e(0))];
        let q = Quality::evaluate(&[], &gt);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.f1, 0.0);
        let q2 = Quality::evaluate(&[(e(0), e(0))], &[]);
        assert_eq!(q2.recall, 0.0);
    }

    #[test]
    fn duplicate_predictions_count_once() {
        let gt = vec![(e(0), e(0))];
        let pred = vec![(e(0), e(0)), (e(0), e(0))];
        let q = Quality::evaluate(&pred, &gt);
        assert_eq!(q.predicted, 1);
        assert_eq!(q.precision, 100.0);
    }
}
