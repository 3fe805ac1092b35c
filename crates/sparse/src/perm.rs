//! Permutation vectors for fill-reducing orderings and pivoting.

/// A permutation of `0..n`, stored as `new_position → old_index`.
///
/// Applying the permutation to a vector `v` yields `w[k] = v[perm[k]]` —
/// position `k` of the permuted order takes the old entry `perm[k]`.
///
/// ```
/// use opm_sparse::Permutation;
/// let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
/// assert_eq!(p.apply(&[10.0, 20.0, 30.0]), vec![30.0, 10.0, 20.0]);
/// let q = p.inverse();
/// assert_eq!(q.apply(&p.apply(&[1.0, 2.0, 3.0])), vec![1.0, 2.0, 3.0]);
/// ```
///
/// `Permutation::default()` is the empty permutation.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Permutation {
    fwd: Vec<usize>,
}

impl Clone for Permutation {
    fn clone(&self) -> Self {
        Permutation {
            fwd: self.fwd.clone(),
        }
    }

    /// Reuses `self`'s storage, so refilling a factor's permutation
    /// allocates nothing once its capacity fits.
    fn clone_from(&mut self, source: &Self) {
        self.fwd.clone_from(&source.fwd);
    }
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Permutation {
            fwd: (0..n).collect(),
        }
    }

    /// Wraps a vector as a permutation after validating it is a bijection.
    ///
    /// Returns `None` if any index is out of range or repeated.
    pub fn from_vec(fwd: Vec<usize>) -> Option<Self> {
        let n = fwd.len();
        let mut seen = vec![false; n];
        for &i in &fwd {
            if i >= n || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        Some(Permutation { fwd })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.fwd.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }

    /// Old index placed at position `k`.
    #[inline]
    pub fn old_of(&self, k: usize) -> usize {
        self.fwd[k]
    }

    /// Borrows the underlying `new → old` map.
    pub fn as_slice(&self) -> &[usize] {
        &self.fwd
    }

    /// Inverse permutation (`old → new` map wrapped as `new → old`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.fwd.len()];
        for (k, &old) in self.fwd.iter().enumerate() {
            inv[old] = k;
        }
        Permutation { fwd: inv }
    }

    /// Applies to a slice: `out[k] = v[perm[k]]`.
    ///
    /// # Panics
    /// Panics when `v.len() != self.len()`.
    pub fn apply<T: Copy>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.fwd.len(), "permutation length mismatch");
        self.fwd.iter().map(|&old| v[old]).collect()
    }

    /// Composition `self ∘ other`: applying the result equals applying
    /// `other` first, then `self`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "permutation length mismatch");
        Permutation {
            fwd: self.fwd.iter().map(|&k| other.fwd[k]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(4);
        assert_eq!(p.apply(&[1, 2, 3, 4]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn rejects_invalid_vectors() {
        assert!(Permutation::from_vec(vec![0, 0]).is_none());
        assert!(Permutation::from_vec(vec![0, 2]).is_none());
        assert!(Permutation::from_vec(vec![1, 0]).is_some());
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        let q = p.inverse();
        let v = [9.0, 8.0, 7.0, 6.0];
        assert_eq!(q.apply(&p.apply(&v)), v.to_vec());
        assert_eq!(p.apply(&q.apply(&v)), v.to_vec());
    }

    #[test]
    fn composition_order() {
        let p = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let v = [10, 20, 30];
        // compose(p, q) applies q then p.
        let pq = p.compose(&q);
        assert_eq!(pq.apply(&v), p.apply(&q.apply(&v)));
    }
}
