//! Feature/target scaling.
//!
//! Hardware-event rates span several orders of magnitude (branch rates near
//! 0.1/cycle, TLB miss rates near 1e-5/cycle), so inputs are standardised
//! before they reach the sigmoid units; targets (IPC) are standardised too so
//! the output layer trains in a well-conditioned range.

use serde::{Deserialize, Serialize};

use crate::error::AnnError;

/// Z-score standardisation: `x' = (x - mean) / std`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits a scaler on a set of rows (all rows must share the width of the
    /// first). Columns with zero variance get a standard deviation of 1 so
    /// that transforming them is a no-op shift.
    pub fn fit(rows: &[Vec<f64>]) -> Result<Self, AnnError> {
        if rows.is_empty() {
            return Err(AnnError::InsufficientData {
                requirement: "scaler needs at least one row".into(),
            });
        }
        let dim = rows[0].len();
        for r in rows {
            if r.len() != dim {
                return Err(AnnError::LengthMismatch {
                    what: "scaler row width",
                    expected: dim,
                    actual: r.len(),
                });
            }
        }
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for r in rows {
            for (m, v) in means.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for r in rows {
            for ((var, v), m) in vars.iter_mut().zip(r).zip(&means) {
                let d = v - m;
                *var += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Self { means, stds })
    }

    /// Dimensionality the scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Transforms one row.
    pub fn transform(&self, row: &[f64]) -> Result<Vec<f64>, AnnError> {
        if row.len() != self.dim() {
            return Err(AnnError::DimensionMismatch { expected: self.dim(), actual: row.len() });
        }
        Ok(row
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect())
    }

    /// Inverse transform of one row.
    pub fn inverse(&self, row: &[f64]) -> Result<Vec<f64>, AnnError> {
        if row.len() != self.dim() {
            return Err(AnnError::DimensionMismatch { expected: self.dim(), actual: row.len() });
        }
        Ok(row.iter().zip(self.means.iter().zip(&self.stds)).map(|(v, (m, s))| v * s + m).collect())
    }

    /// [`StandardScaler::transform`] into a caller-supplied buffer
    /// (allocation-free, bit-identical arithmetic).
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) -> Result<(), AnnError> {
        if row.len() != self.dim() {
            return Err(AnnError::DimensionMismatch { expected: self.dim(), actual: row.len() });
        }
        if out.len() != self.dim() {
            return Err(AnnError::DimensionMismatch { expected: self.dim(), actual: out.len() });
        }
        for (o, (v, (m, s))) in
            out.iter_mut().zip(row.iter().zip(self.means.iter().zip(&self.stds)))
        {
            *o = (v - m) / s;
        }
        Ok(())
    }

    /// [`StandardScaler::inverse`] into a caller-supplied buffer
    /// (allocation-free, bit-identical arithmetic).
    pub fn inverse_into(&self, row: &[f64], out: &mut [f64]) -> Result<(), AnnError> {
        if row.len() != self.dim() {
            return Err(AnnError::DimensionMismatch { expected: self.dim(), actual: row.len() });
        }
        if out.len() != self.dim() {
            return Err(AnnError::DimensionMismatch { expected: self.dim(), actual: out.len() });
        }
        for (o, (v, (m, s))) in
            out.iter_mut().zip(row.iter().zip(self.means.iter().zip(&self.stds)))
        {
            *o = v * s + m;
        }
        Ok(())
    }

    /// Transforms a batch of rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, AnnError> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standard_scaler_round_trip() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let s = StandardScaler::fit(&rows).unwrap();
        assert_eq!(s.dim(), 2);
        let t = s.transform(&rows[0]).unwrap();
        let back = s.inverse(&t).unwrap();
        assert!((back[0] - 1.0).abs() < 1e-9);
        assert!((back[1] - 100.0).abs() < 1e-9);
        // transformed data has ~zero mean
        let all = s.transform_all(&rows).unwrap();
        let mean0: f64 = all.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-9);
    }

    #[test]
    fn standard_scaler_handles_constant_columns() {
        let rows = vec![vec![2.0], vec![2.0], vec![2.0]];
        let s = StandardScaler::fit(&rows).unwrap();
        let t = s.transform(&[2.0]).unwrap();
        assert!(t[0].abs() < 1e-12);
        let t = s.transform(&[3.0]).unwrap();
        assert!(t[0].is_finite());
    }

    #[test]
    fn standard_scaler_errors() {
        assert!(StandardScaler::fit(&[]).is_err());
        assert!(StandardScaler::fit(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let s = StandardScaler::fit(&[vec![1.0, 2.0]]).unwrap();
        assert!(s.transform(&[1.0]).is_err());
        assert!(s.inverse(&[1.0]).is_err());
    }

    proptest! {
        #[test]
        fn standard_scaler_inverse_is_identity(
            vals in proptest::collection::vec(-1e3f64..1e3, 4..20),
            probe in -1e3f64..1e3,
        ) {
            let rows: Vec<Vec<f64>> = vals.iter().map(|&v| vec![v]).collect();
            let s = StandardScaler::fit(&rows).unwrap();
            let round = s.inverse(&s.transform(&[probe]).unwrap()).unwrap()[0];
            prop_assert!((round - probe).abs() < 1e-6);
        }
    }
}
