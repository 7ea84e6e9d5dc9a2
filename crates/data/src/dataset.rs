//! Core dataset containers.
//!
//! Labels are carried for *evaluation only* (the kNN-classifier protocol of
//! the paper); no training code path reads them — that is the
//! "unsupervised" in UCL.

use edsr_tensor::Matrix;

use crate::error::DataError;

/// A labeled set of samples (rows of `inputs`).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Sample matrix, `n x d`.
    pub inputs: Matrix,
    /// Per-row class label — used exclusively by evaluation.
    pub labels: Vec<usize>,
    /// Human-readable name.
    pub name: String,
}

impl Dataset {
    /// Creates a dataset, validating that labels align with rows.
    ///
    /// Returns [`DataError::Shape`] if `labels.len() != inputs.rows()`.
    pub fn try_new(
        name: impl Into<String>,
        inputs: Matrix,
        labels: Vec<usize>,
    ) -> Result<Self, DataError> {
        if inputs.rows() != labels.len() {
            return Err(DataError::Shape(format!(
                "Dataset: label/row count mismatch ({} rows, {} labels)",
                inputs.rows(),
                labels.len()
            )));
        }
        Ok(Self {
            inputs,
            labels,
            name: name.into(),
        })
    }

    /// Creates a dataset, validating that labels align with rows.
    ///
    /// Prefer [`Dataset::try_new`]; this panicking variant delegates to it
    /// and will be deprecated once remaining construction sites migrate.
    ///
    /// # Panics
    /// Panics if `labels.len() != inputs.rows()`.
    pub fn new(name: impl Into<String>, inputs: Matrix, labels: Vec<usize>) -> Self {
        match Self::try_new(name, inputs, labels) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.rows()
    }

    /// True if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.inputs.cols()
    }

    /// Distinct labels, sorted.
    pub fn classes(&self) -> Vec<usize> {
        let mut c = self.labels.clone();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Sub-dataset from row indices (order preserved).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            inputs: self.inputs.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            name: format!("{}[subset:{}]", self.name, indices.len()),
        }
    }

    /// Sub-dataset containing only the given classes.
    ///
    /// Membership is a binary search over a sorted copy of `classes`, so a
    /// wide filter (e.g. all-seen-so-far on a 100-class stream) costs
    /// O(n·log c) instead of the old O(n·c) linear scan per row.
    pub fn filter_classes(&self, classes: &[usize]) -> Dataset {
        let mut sorted = classes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let indices: Vec<usize> = (0..self.len())
            .filter(|&i| sorted.binary_search(&self.labels[i]).is_ok())
            .collect();
        self.subset(&indices)
    }

    /// Concatenates datasets, validating that parts exist and agree on
    /// dimensionality. Returns [`DataError::Shape`] otherwise.
    pub fn try_concat(name: impl Into<String>, parts: &[&Dataset]) -> Result<Dataset, DataError> {
        if parts.is_empty() {
            return Err(DataError::Shape("Dataset::concat: no parts".into()));
        }
        let dim = parts[0].dim();
        if let Some(bad) = parts.iter().find(|d| d.dim() != dim) {
            return Err(DataError::Shape(format!(
                "vstack: column mismatch in Dataset::concat ({} is {}-dim, expected {dim})",
                bad.name,
                bad.dim()
            )));
        }
        let inputs = Matrix::vstack(&parts.iter().map(|d| &d.inputs).collect::<Vec<_>>());
        let labels = parts
            .iter()
            .flat_map(|d| d.labels.iter().copied())
            .collect();
        Ok(Dataset {
            inputs,
            labels,
            name: name.into(),
        })
    }

    /// Concatenates datasets (dimension must agree).
    ///
    /// Prefer [`Dataset::try_concat`]; this panicking variant delegates to
    /// it and will be deprecated once remaining call sites migrate.
    ///
    /// # Panics
    /// Panics if `parts` is empty or dimensions differ.
    pub fn concat(name: impl Into<String>, parts: &[&Dataset]) -> Dataset {
        match Self::try_concat(name, parts) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }
}

/// One continual-learning increment: a train split to learn from (without
/// labels) and a test split for the kNN evaluation.
#[derive(Debug, Clone)]
pub struct Task {
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
    /// Classes present in this increment.
    pub classes: Vec<usize>,
}

/// An ordered sequence of increments `X^1 … X^n`.
#[derive(Debug, Clone)]
pub struct TaskSequence {
    /// Benchmark name, e.g. `cifar10-sim`.
    pub name: String,
    /// The increments in presentation order.
    pub tasks: Vec<Task>,
}

impl TaskSequence {
    /// Number of increments.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks exist.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
            vec![0, 0, 1, 1],
        )
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.classes(), vec![0, 1]);
    }

    #[test]
    fn subset_preserves_alignment() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.labels, vec![1, 0]);
        assert_eq!(s.inputs.row(0), &[2.0, 2.0]);
    }

    #[test]
    fn filter_classes_selects_only_requested() {
        let d = toy();
        let f = d.filter_classes(&[1]);
        assert_eq!(f.len(), 2);
        assert!(f.labels.iter().all(|&l| l == 1));
    }

    #[test]
    fn concat_appends() {
        let d = toy();
        let c = Dataset::concat("both", &[&d, &d]);
        assert_eq!(c.len(), 8);
        assert_eq!(c.labels[4], 0);
    }

    #[test]
    #[should_panic(expected = "label/row count mismatch")]
    fn mismatched_labels_panic() {
        let _ = Dataset::new("bad", Matrix::zeros(3, 2), vec![0]);
    }

    #[test]
    #[should_panic(expected = "vstack: column mismatch")]
    fn concat_dimension_mismatch_panics() {
        let a = Dataset::new("a", Matrix::zeros(1, 2), vec![0]);
        let b = Dataset::new("b", Matrix::zeros(1, 3), vec![0]);
        let _ = Dataset::concat("ab", &[&a, &b]);
    }

    #[test]
    fn empty_subset_is_empty() {
        let d = toy();
        let s = d.subset(&[]);
        assert!(s.is_empty());
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn filter_unknown_class_yields_empty() {
        let d = toy();
        assert!(d.filter_classes(&[99]).is_empty());
    }

    #[test]
    fn try_new_reports_mismatch_structurally() {
        let err = Dataset::try_new("bad", Matrix::zeros(3, 2), vec![0]).unwrap_err();
        assert!(matches!(err, DataError::Shape(_)));
        assert!(err.to_string().contains("label/row count mismatch"));
        assert!(Dataset::try_new("ok", Matrix::zeros(2, 2), vec![0, 1]).is_ok());
    }

    #[test]
    fn try_concat_reports_empty_and_mismatch_structurally() {
        let err = Dataset::try_concat("none", &[]).unwrap_err();
        assert!(err.to_string().contains("no parts"));
        let a = Dataset::new("a", Matrix::zeros(1, 2), vec![0]);
        let b = Dataset::new("b", Matrix::zeros(1, 3), vec![0]);
        let err = Dataset::try_concat("ab", &[&a, &b]).unwrap_err();
        assert!(err.to_string().contains("column mismatch"), "{err}");
        let ok = Dataset::try_concat("aa", &[&a, &a]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn filter_classes_many_classes_regression() {
        // 600 rows over 200 classes, filtered by a 100-class unsorted set:
        // exercises the sorted-slice + binary-search path against a brute
        // force reference.
        let n = 600;
        let labels: Vec<usize> = (0..n).map(|i| (i * 7) % 200).collect();
        let d = Dataset::new("many", Matrix::zeros(n, 2), labels.clone());
        let wanted: Vec<usize> = (0..100).map(|k| (199 - k * 2) % 200).collect();
        let f = d.filter_classes(&wanted);
        let expect: Vec<usize> = labels
            .iter()
            .copied()
            .filter(|l| wanted.contains(l))
            .collect();
        assert_eq!(f.labels, expect);
        assert!(!f.is_empty());
    }
}
