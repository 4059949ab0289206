//! Processor identities.
//!
//! The paper (Section 2) endows each of the `n` processors with a unique
//! identity between `1` and `n`. Internally we index processors from `0` to
//! `n - 1`; [`ProcessorId::display_index`] recovers the paper's 1-based
//! numbering for human-facing output.

use std::fmt;

/// The identity of a processor in the complete network of `n` processors.
///
/// `ProcessorId` is a zero-based index newtype. It is `Copy`, ordered and
/// hashable so it can be used directly as a map key or sorted into delivery
/// schedules.
///
/// # Examples
///
/// ```
/// use agreement_model::ProcessorId;
///
/// let p = ProcessorId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.display_index(), 4);
/// assert_eq!(format!("{p}"), "p4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessorId(usize);

impl ProcessorId {
    /// Creates a processor identity from a zero-based index.
    pub const fn new(index: usize) -> Self {
        ProcessorId(index)
    }

    /// Returns the zero-based index of this processor.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Returns the one-based index used by the paper's notation (`1..=n`).
    pub const fn display_index(self) -> usize {
        self.0 + 1
    }

    /// Returns an iterator over all processor identities of a system of size `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use agreement_model::ProcessorId;
    ///
    /// let ids: Vec<_> = ProcessorId::all(3).collect();
    /// assert_eq!(ids, vec![ProcessorId::new(0), ProcessorId::new(1), ProcessorId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessorId> + Clone {
        (0..n).map(ProcessorId::new)
    }
}

impl fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.display_index())
    }
}

impl From<usize> for ProcessorId {
    fn from(index: usize) -> Self {
        ProcessorId::new(index)
    }
}

impl From<ProcessorId> for usize {
    fn from(id: ProcessorId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn processor_id_round_trips_through_usize() {
        let id = ProcessorId::from(7usize);
        assert_eq!(usize::from(id), 7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.display_index(), 8);
    }

    #[test]
    fn processor_id_display_is_one_based() {
        assert_eq!(ProcessorId::new(0).to_string(), "p1");
        assert_eq!(ProcessorId::new(9).to_string(), "p10");
    }

    #[test]
    fn all_yields_n_distinct_ids_in_order() {
        let ids: Vec<_> = ProcessorId::all(5).collect();
        assert_eq!(ids.len(), 5);
        let set: BTreeSet<_> = ids.iter().copied().collect();
        assert_eq!(set.len(), 5);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn all_with_zero_is_empty() {
        assert_eq!(ProcessorId::all(0).count(), 0);
    }
}
