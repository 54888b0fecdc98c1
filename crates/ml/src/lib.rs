//! From-scratch supervised classifiers.
//!
//! The paper's fourth baseline is Magellan with its four best classifiers —
//! "a SVM, a random forest, a logistic regression, and a decision tree" —
//! whose linkage quality is averaged (§10). This crate implements those four
//! classifiers from scratch over record-pair comparison vectors, so the
//! supervised baseline can be reproduced without any external ML dependency.
//!
//! All classifiers are deterministic (seeded where randomised), operate on
//! dense `f64` feature vectors with boolean labels, and share the
//! [`Classifier`] interface.

pub mod data;
pub mod forest;
pub mod logistic;
pub mod svm;
pub mod tree;

pub use data::{train_test_split, Dataset};
pub use forest::RandomForest;
pub use logistic::LogisticRegression;
pub use svm::LinearSvm;
pub use tree::DecisionTree;

/// A binary classifier over dense feature vectors.
pub trait Classifier {
    /// Fit on features `x` (row-major) and labels `y`.
    ///
    /// # Panics
    /// Implementations panic when `x` and `y` lengths differ or `x` is
    /// ragged.
    fn fit(&mut self, x: &[Vec<f64>], y: &[bool]);

    /// Predict the label of one feature vector.
    fn predict(&self, x: &[f64]) -> bool;

    /// Short classifier name for reports.
    fn name(&self) -> &'static str;

    /// Predict a batch.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<bool> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Validate a training set's shape; returns the feature dimension.
pub(crate) fn check_shape(x: &[Vec<f64>], y: &[bool]) -> usize {
    assert_eq!(x.len(), y.len(), "features and labels must have equal length");
    assert!(!x.is_empty(), "training set must be non-empty");
    let dim = x[0].len();
    assert!(dim > 0, "feature vectors must be non-empty");
    assert!(x.iter().all(|r| r.len() == dim), "ragged feature matrix");
    dim
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable toy problem: label = (x0 + x1 > 1).
    pub(crate) fn toy() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (f64::from(i) / 10.0, f64::from(j) / 10.0);
                x.push(vec![a, b]);
                y.push(a + b > 1.0);
            }
        }
        (x, y)
    }

    fn accuracy(c: &dyn Classifier, x: &[Vec<f64>], y: &[bool]) -> f64 {
        let correct = x.iter().zip(y).filter(|(xi, &yi)| c.predict(xi) == yi).count();
        correct as f64 / x.len() as f64
    }

    #[test]
    fn all_classifiers_learn_separable_data() {
        let (x, y) = toy();
        let mut classifiers: Vec<Box<dyn Classifier>> = vec![
            Box::new(LogisticRegression::default()),
            Box::new(DecisionTree::default()),
            Box::new(RandomForest::default()),
            Box::new(LinearSvm::default()),
        ];
        for c in &mut classifiers {
            c.fit(&x, &y);
            let acc = accuracy(c.as_ref(), &x, &y);
            assert!(acc > 0.93, "{} accuracy {acc}", c.name());
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn shape_mismatch_panics() {
        let mut c = LogisticRegression::default();
        c.fit(&[vec![1.0]], &[true, false]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_panics() {
        let mut c = DecisionTree::default();
        c.fit(&[vec![1.0], vec![1.0, 2.0]], &[true, false]);
    }
}
