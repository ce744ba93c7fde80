//! Classification metrics beyond plain accuracy: confusion matrices and
//! per-class precision/recall, used by the experiment harness and the
//! face-recognition case study.

/// A square confusion matrix: `counts[(truth, predicted)]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// An empty matrix over `classes` classes.
    pub fn new(classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Builds a matrix from `(predicted, truth)` pairs.
    pub fn from_pairs(classes: usize, pairs: &[(usize, usize)]) -> Self {
        let mut m = ConfusionMatrix::new(classes);
        for &(pred, truth) in pairs {
            m.record(truth, pred);
        }
        m
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Records one decision.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.classes && predicted < self.classes,
            "class out of range"
        );
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// The count at `(truth, predicted)`.
    pub fn count(&self, truth: usize, predicted: usize) -> usize {
        self.counts[truth * self.classes + predicted]
    }

    /// Total decisions recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: usize = (0..self.classes).map(|c| self.count(c, c)).sum();
        diag as f64 / total as f64
    }

    /// Per-class recall: `TP / (TP + FN)`; `None` when the class has no
    /// true samples.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row: usize = (0..self.classes).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row as f64)
        }
    }

    /// Per-class precision: `TP / (TP + FP)`; `None` when the class was
    /// never predicted.
    pub fn precision(&self, class: usize) -> Option<f64> {
        let col: usize = (0..self.classes).map(|t| self.count(t, class)).sum();
        if col == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / col as f64)
        }
    }

    /// Per-class F1 score; `None` when precision or recall is undefined.
    pub fn f1(&self, class: usize) -> Option<f64> {
        let p = self.precision(class)?;
        let r = self.recall(class)?;
        if p + r == 0.0 {
            Some(0.0)
        } else {
            Some(2.0 * p * r / (p + r))
        }
    }

    /// Macro-averaged F1 over the classes with defined scores.
    pub fn macro_f1(&self) -> f64 {
        let scores: Vec<f64> = (0..self.classes).filter_map(|c| self.f1(c)).collect();
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f64>() / scores.len() as f64
        }
    }

    /// The most confused off-diagonal pair `(truth, predicted, count)`,
    /// or `None` when there are no errors.
    pub fn worst_confusion(&self) -> Option<(usize, usize, usize)> {
        let mut best: Option<(usize, usize, usize)> = None;
        for t in 0..self.classes {
            for p in 0..self.classes {
                if t == p {
                    continue;
                }
                let c = self.count(t, p);
                if c > 0 && best.is_none_or(|(_, _, bc)| c > bc) {
                    best = Some((t, p, c));
                }
            }
        }
        best
    }

    /// Renders the matrix as an aligned text table (rows = truth).
    pub fn render(&self) -> String {
        let mut out = String::from("truth\\pred");
        for p in 0..self.classes {
            out += &format!("{p:>6}");
        }
        out.push('\n');
        for t in 0..self.classes {
            out += &format!("{t:>10}");
            for p in 0..self.classes {
                out += &format!("{:>6}", self.count(t, p));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        // truth 0: 3 right, 1 called 1; truth 1: 2 right, 2 called 0.
        ConfusionMatrix::from_pairs(
            2,
            &[
                (0, 0),
                (0, 0),
                (0, 0),
                (1, 0),
                (1, 1),
                (1, 1),
                (0, 1),
                (0, 1),
            ],
        )
    }

    #[test]
    fn counts_land_in_the_right_cells() {
        let m = sample();
        assert_eq!(m.count(0, 0), 3);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.count(1, 0), 2);
        assert_eq!(m.count(1, 1), 2);
        assert_eq!(m.total(), 8);
    }

    #[test]
    fn accuracy_is_diagonal_fraction() {
        assert!((sample().accuracy() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(ConfusionMatrix::new(3).accuracy(), 0.0);
    }

    #[test]
    fn precision_recall_f1() {
        let m = sample();
        // Class 0: TP 3, FN 1, FP 2.
        assert!((m.recall(0).expect("defined") - 0.75).abs() < 1e-12);
        assert!((m.precision(0).expect("defined") - 0.6).abs() < 1e-12);
        let f1 = m.f1(0).expect("defined");
        assert!((f1 - 2.0 * 0.75 * 0.6 / 1.35).abs() < 1e-12);
    }

    #[test]
    fn undefined_classes_return_none() {
        let mut m = ConfusionMatrix::new(3);
        m.record(0, 0);
        assert!(m.recall(2).is_none());
        assert!(m.precision(1).is_none());
    }

    #[test]
    fn worst_confusion_finds_the_biggest_error() {
        let m = sample();
        assert_eq!(m.worst_confusion(), Some((1, 0, 2)));
        let perfect = ConfusionMatrix::from_pairs(2, &[(0, 0), (1, 1)]);
        assert_eq!(perfect.worst_confusion(), None);
    }

    #[test]
    fn render_contains_all_cells() {
        let s = sample().render();
        assert!(s.contains("truth\\pred"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn macro_f1_averages_defined_scores() {
        let m = sample();
        let f = m.macro_f1();
        assert!(f > 0.0 && f < 1.0);
    }
}
