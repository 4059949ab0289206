//! Helpers for constructing delivery (sender) sets.
//!
//! A window adversary's main lever is the choice of the sender sets `S_i`
//! (`|S_i| >= n - t`). The helper here is the *balanced* selection used by
//! the split-vote adversary: exclude up to `t` senders from the majority side
//! so that the delivered values are as close to an even split as possible.
//! (Everyone, and everyone but a few, are [`Window::push_all_senders`] and
//! [`Window::strike_sender`].)
//!
//! [`Window::push_all_senders`]: agreement_sim::Window::push_all_senders
//! [`Window::strike_sender`]: agreement_sim::Window::strike_sender

use agreement_model::{Bit, ProcessorId};

/// Chooses a delivery set of at least `n - t` senders that makes the
/// delivered `Zero`/`One` values as balanced as possible.
///
/// `values[i]` is the value advocated by sender `i`'s fresh message, or `None`
/// if sender `i` has no fresh value-bearing message this window (e.g. it was
/// reset and is silent); value-less senders are always included since
/// excluding them costs exclusion budget without changing the balance.
///
/// Returns the chosen sender set together with the resulting delivered counts
/// `(zeros, ones)`.
pub fn balanced_senders(values: &[Option<Bit>], t: usize) -> (Vec<ProcessorId>, (usize, usize)) {
    let mut senders = Vec::with_capacity(values.len());
    let counts = balanced_senders_by(values.len(), t, |i| values[i], |id| senders.push(id));
    (senders, counts)
}

/// [`balanced_senders`] over senders `0..n` whose values are read through
/// `value_of` instead of a slice and whose chosen set goes to `push`, sender
/// by sender in identity order, instead of into a fresh vector — the
/// split-vote adversary reads the values out of the message buffer and
/// pushes the senders into the window it is filling. One pass counts the two
/// sides, a second picks the senders; nothing is allocated. Returns the
/// delivered counts `(zeros, ones)`.
pub(crate) fn balanced_senders_by(
    n: usize,
    t: usize,
    value_of: impl Fn(usize) -> Option<Bit>,
    mut push: impl FnMut(ProcessorId),
) -> (usize, usize) {
    let (mut zeros, mut ones) = (0usize, 0usize);
    for i in 0..n {
        match value_of(i) {
            Some(Bit::Zero) => zeros += 1,
            Some(Bit::One) => ones += 1,
            None => {}
        }
    }

    // Exclude from the majority side only, and only as much as the budget and
    // the imbalance allow: its first `exclude_count` senders go, everyone
    // else is delivered, in identity order.
    let exclude_count = zeros.abs_diff(ones).min(t);
    let majority = if zeros >= ones { Bit::Zero } else { Bit::One };
    let mut to_exclude = exclude_count;
    for id in ProcessorId::all(n) {
        if to_exclude > 0 && value_of(id.index()) == Some(majority) {
            to_exclude -= 1;
        } else {
            push(id);
        }
    }

    match majority {
        Bit::Zero => (zeros - exclude_count, ones),
        Bit::One => (zeros, ones - exclude_count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_senders_excludes_majority_up_to_budget() {
        // 6 zeros, 2 ones, budget 2: exclude 2 zeros -> 4 zeros, 2 ones delivered.
        let values: Vec<Option<Bit>> = (0..8)
            .map(|i| Some(if i < 6 { Bit::Zero } else { Bit::One }))
            .collect();
        let (senders, (z, o)) = balanced_senders(&values, 2);
        assert_eq!(senders.len(), 6);
        assert_eq!((z, o), (4, 2));
    }

    #[test]
    fn balanced_senders_drops_the_first_majority_senders_and_keeps_identity_order() {
        let (z, o) = (Some(Bit::Zero), Some(Bit::One));
        let (senders, counts) = balanced_senders(&[z, o, z, None, z, z, o], 2);
        let expected: Vec<ProcessorId> = [1, 3, 4, 5, 6].map(ProcessorId::new).into();
        assert_eq!(senders, expected);
        assert_eq!(counts, (2, 2));
        // Ones in the majority, budget larger than the imbalance.
        let (senders, counts) = balanced_senders(&[o, z, o, o, None], 3);
        let expected: Vec<ProcessorId> = [1, 3, 4].map(ProcessorId::new).into();
        assert_eq!(senders, expected);
        assert_eq!(counts, (1, 1));
    }

    #[test]
    fn balanced_senders_does_not_over_exclude_when_already_balanced() {
        let values: Vec<Option<Bit>> = (0..6)
            .map(|i| Some(if i % 2 == 0 { Bit::Zero } else { Bit::One }))
            .collect();
        let (senders, (z, o)) = balanced_senders(&values, 2);
        assert_eq!(senders.len(), 6, "no exclusions needed for a perfect split");
        assert_eq!((z, o), (3, 3));
    }

    #[test]
    fn balanced_senders_keeps_silent_processors() {
        let values = vec![Some(Bit::One), Some(Bit::One), Some(Bit::One), None, None];
        let (senders, (z, o)) = balanced_senders(&values, 1);
        // One `One` excluded; both silent senders retained.
        assert_eq!(senders.len(), 4);
        assert_eq!((z, o), (0, 2));
        assert!(senders.contains(&ProcessorId::new(3)));
        assert!(senders.contains(&ProcessorId::new(4)));
    }

    #[test]
    fn balanced_senders_with_zero_budget_excludes_nothing() {
        let values = vec![Some(Bit::Zero), Some(Bit::One), Some(Bit::One)];
        let (senders, (z, o)) = balanced_senders(&values, 0);
        assert_eq!(senders.len(), 3);
        assert_eq!((z, o), (1, 2));
    }
}
