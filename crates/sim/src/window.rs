//! Acceptable windows (Definition 1 of the paper).
//!
//! An acceptable window is a consecutive segment of steps in which
//!
//! 1. all `n` processors take sending steps,
//! 2. each processor `i` receives the messages just sent to it by the
//!    processors in a set `S_i` with `|S_i| >= n - t`, and
//! 3. at most `t` resetting steps occur.
//!
//! A [`Window`] is the adversary's choice of the sets `R, S_1, ..., S_n`; the
//! window engine validates it against the configuration before applying it,
//! so an adversary implementation cannot accidentally exceed its power.
//!
//! # Layout
//!
//! A window is **filled, not built**. It is one flat value: the reset set, a
//! single `senders` vector holding every `S_i` back to back, and a row of
//! `ends` saying where each set stops. The windows of the proofs of Lemmas 13
//! and 14, and of every balancing adversary here, are `R, S, S, ..., S` — one
//! sender set for everyone — and store `S` once with one end, shared by
//! `arity` recipients; any other window has `n` ends. An adversary takes the
//! window the scheduler applied last ([`SystemView::take_window`]), and
//! rewrites it in place: [`Window::clear`], then [`Window::push_reset`] for
//! `R`, then per set [`Window::push_sender`] (or
//! [`Window::push_all_senders`] / [`Window::strike_sender`], or
//! [`Window::copy_set`]) closed by [`Window::end_set`] — or, once, by
//! [`Window::end_shared_set`]. The storage is warm after the first window of
//! a workspace, so a window costs the allocator nothing.
//! [`Window::new`] and [`Window::uniform`] build the same layout from owned
//! vectors; [`Window::fill_full_delivery`] rewrites a window as the
//! failure-free, full-delivery one.
//!
//! The two forms are the same window to every observer: `==` compares the
//! sets recipient by recipient, and the order of the senders inside a set —
//! which is the order the recipient processes their messages in — is kept
//! exactly as the adversary gave it.
//!
//! [`Window::validate`] runs on every scheduled window, so it allocates
//! nothing: duplicates are found with a scratch bitset of `n` bits that lives
//! on the stack up to `n = 256` (beyond every `n` the windowed model is run
//! at here; larger `n` falls back to one heap buffer per call), and a shared
//! set is checked once instead of `n` times.
//!
//! [`SystemView::take_window`]: crate::SystemView::take_window

use std::error::Error;
use std::fmt;

use agreement_model::{ProcessorId, SystemConfig};

/// An adversary's choice of one acceptable window: the reset set `R` and the
/// per-processor delivery sets `S_i`.
///
/// The default window is empty (no resets, no sets) and owns no heap memory.
#[derive(Debug, Clone, Default)]
pub struct Window {
    resets: Vec<ProcessorId>,
    /// Every closed `S_i` back to back, then the senders of the set being
    /// filled.
    senders: Vec<ProcessorId>,
    /// `ends[i]` is where `S_i` stops in `senders` (it starts where
    /// `S_{i-1}` stopped); a shared window has the one end of its one set.
    ends: Vec<usize>,
    /// `Some(arity)` when the one closed set is the `S_i` of every one of
    /// `arity` recipients.
    shared: Option<usize>,
}

/// Windows are equal when they reset the same processors in the same order
/// and hand every recipient the same senders in the same order, however the
/// sets are stored.
impl PartialEq for Window {
    fn eq(&self, other: &Self) -> bool {
        self.resets == other.resets
            && self.arity() == other.arity()
            && (0..self.arity()).all(|i| self.delivery_set(i) == other.delivery_set(i))
    }
}

impl Eq for Window {}

/// Words of the duplicate-detection bitset [`Window::validate`] keeps on the
/// stack: enough for `n <= 256`.
const INLINE_SEEN_WORDS: usize = 4;

impl Window {
    /// Creates a window from a reset set and per-processor delivery sets.
    ///
    /// `deliveries[i]` is the set `S_i` of senders whose messages processor
    /// `i` receives in this window. Call [`Window::validate`] (the engine does
    /// so automatically) to check it satisfies Definition 1.
    pub fn new(resets: Vec<ProcessorId>, deliveries: Vec<Vec<ProcessorId>>) -> Self {
        let mut window = Window {
            resets,
            ..Window::default()
        };
        for set in &deliveries {
            window.senders.extend_from_slice(set);
            window.end_set();
        }
        window
    }

    /// A window applying the same sender set `S` to every processor and the
    /// reset set `R`, i.e. the `R, S, S, ..., S` windows used throughout the
    /// proofs of Lemmas 13 and 14. `S` is stored once and shared by all `n`
    /// recipients.
    pub fn uniform(
        cfg: &SystemConfig,
        resets: Vec<ProcessorId>,
        senders: Vec<ProcessorId>,
    ) -> Self {
        let mut window = Window {
            resets,
            senders,
            ..Window::default()
        };
        window.end_shared_set(cfg.n());
        window
    }

    // ----- filling in place ------------------------------------------------------

    /// Empties the window — no resets, no sets — keeping its storage.
    pub fn clear(&mut self) {
        self.resets.clear();
        self.senders.clear();
        self.ends.clear();
        self.shared = None;
    }

    /// Adds `id` to the reset set `R`.
    pub fn push_reset(&mut self, id: ProcessorId) {
        self.resets.push(id);
    }

    /// Appends `id` to the sender set being filled; the recipient will
    /// process its senders' messages in the order they were pushed.
    pub fn push_sender(&mut self, id: ProcessorId) {
        self.senders.push(id);
    }

    /// Appends every processor `0..n`, ascending, to the set being filled.
    pub fn push_all_senders(&mut self, n: usize) {
        self.senders.extend(ProcessorId::all(n));
    }

    /// Removes `id` from the set being filled, keeping the order of the
    /// others; `false` when the set does not list it.
    pub fn strike_sender(&mut self, id: ProcessorId) -> bool {
        let open = self.ends.last().copied().unwrap_or(0);
        match self.senders[open..].iter().position(|&sender| sender == id) {
            Some(at) => {
                self.senders.remove(open + at);
                true
            }
            None => false,
        }
    }

    /// Closes the set being filled as the next recipient's `S_i`.
    ///
    /// # Panics
    ///
    /// Panics if the window already holds a shared set.
    pub fn end_set(&mut self) {
        assert!(
            self.shared.is_none(),
            "a window with a shared set takes no further sets"
        );
        self.ends.push(self.senders.len());
    }

    /// Closes the set being filled as the `S_i` of every one of `arity`
    /// recipients: the window is `R, S, S, ..., S`.
    ///
    /// # Panics
    ///
    /// Panics if a set has been closed already.
    pub fn end_shared_set(&mut self, arity: usize) {
        assert!(
            self.ends.is_empty(),
            "a shared set must be the window's only set"
        );
        self.ends.push(self.senders.len());
        self.shared = Some(arity);
    }

    /// Closes a copy of the already closed `S_index` as the next recipient's
    /// set (anything pushed since the last close is part of it, ahead of the
    /// copy).
    pub fn copy_set(&mut self, index: usize) {
        self.senders.extend_from_within(self.set_range(index));
        self.end_set();
    }

    /// Where the closed set number `index` lies in `senders`.
    fn set_range(&self, index: usize) -> std::ops::Range<usize> {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        start..self.ends[index]
    }

    /// Rewrites this window as the failure-free, full-delivery window of `n`
    /// processors.
    pub fn fill_full_delivery(&mut self, n: usize) {
        self.clear();
        self.push_all_senders(n);
        self.end_shared_set(n);
    }

    // ----- reading ---------------------------------------------------------------

    /// The processors reset at the end of this window.
    pub fn resets(&self) -> &[ProcessorId] {
        &self.resets
    }

    /// The sender set `S_i` for processor `index`, in delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the window's arity.
    pub fn delivery_set(&self, index: usize) -> &[ProcessorId] {
        match self.shared {
            Some(arity) => {
                assert!(
                    index < arity,
                    "delivery set {index} requested from a window of arity {arity}"
                );
                &self.senders[self.set_range(0)]
            }
            None => &self.senders[self.set_range(index)],
        }
    }

    /// The one sender set of an `R, S, S, …, S` window, shared by every
    /// recipient; `None` for a window of per-recipient sets (even equal
    /// ones: [`Window::copy_set`] closes a copy).
    pub fn shared_set(&self) -> Option<&[ProcessorId]> {
        self.shared.map(|_| &self.senders[self.set_range(0)])
    }

    /// Number of per-processor delivery sets (should equal `n`).
    pub fn arity(&self) -> usize {
        self.shared.unwrap_or(self.ends.len())
    }

    /// Checks this window against Definition 1 for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WindowError`] naming the first violated requirement.
    pub fn validate(&self, cfg: &SystemConfig) -> Result<(), WindowError> {
        let n = cfg.n();
        let t = cfg.t();
        if self.arity() != n {
            return Err(WindowError::WrongArity {
                expected: n,
                actual: self.arity(),
            });
        }
        if self.resets.len() > t {
            return Err(WindowError::TooManyResets {
                budget: t,
                actual: self.resets.len(),
            });
        }

        let words = n.div_ceil(64);
        let mut inline = [0u64; INLINE_SEEN_WORDS];
        let mut spilled = Vec::new();
        let seen: &mut [u64] = if words <= INLINE_SEEN_WORDS {
            &mut inline[..words]
        } else {
            spilled.resize(words, 0);
            &mut spilled
        };

        let reset_ids = scan_ids(&self.resets, n, seen);
        if reset_ids.duplicate {
            return Err(WindowError::DuplicateReset);
        }
        if let Some(id) = reset_ids.first_unknown {
            return Err(WindowError::UnknownProcessor { id });
        }
        // One shared set stands for all n >= 1 recipients, so one check does;
        // a violation is the first recipient's as much as anyone's.
        let mut start = 0;
        for (recipient, &end) in self.ends.iter().enumerate() {
            check_delivery_set(recipient, &self.senders[start..end], n, t, seen)?;
            start = end;
        }
        Ok(())
    }
}

/// What one pass over a reset or sender set found.
struct IdScan {
    /// Some processor is listed twice.
    duplicate: bool,
    /// The first listed identity outside `0..n`.
    first_unknown: Option<ProcessorId>,
}

/// Scans `ids` for duplicates and identities outside `0..n`, using (and
/// first clearing) the `n`-bit scratch set `seen`.
fn scan_ids(ids: &[ProcessorId], n: usize, seen: &mut [u64]) -> IdScan {
    seen.fill(0);
    let mut scan = IdScan {
        duplicate: false,
        first_unknown: None,
    };
    for (position, id) in ids.iter().enumerate() {
        let index = id.index();
        if index < n {
            let bit = 1u64 << (index % 64);
            scan.duplicate |= seen[index / 64] & bit != 0;
            seen[index / 64] |= bit;
        } else {
            // Already an invalid set; only which error it is remains open, so
            // the quadratic look-back costs legal windows nothing.
            scan.duplicate |= ids[..position].contains(id);
            scan.first_unknown.get_or_insert(*id);
        }
    }
    scan
}

/// Requirement 2 of Definition 1 for one recipient's sender set.
fn check_delivery_set(
    recipient: usize,
    senders: &[ProcessorId],
    n: usize,
    t: usize,
    seen: &mut [u64],
) -> Result<(), WindowError> {
    let scan = scan_ids(senders, n, seen);
    if scan.duplicate {
        return Err(WindowError::DuplicateSender { recipient });
    }
    if let Some(id) = scan.first_unknown {
        return Err(WindowError::UnknownProcessor { id });
    }
    if senders.len() < n.saturating_sub(t) {
        return Err(WindowError::DeliverySetTooSmall {
            recipient,
            minimum: n - t,
            actual: senders.len(),
        });
    }
    Ok(())
}

/// A violation of Definition 1 detected while validating a [`Window`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WindowError {
    /// The window does not provide exactly one delivery set per processor.
    WrongArity {
        /// Expected number of delivery sets (`n`).
        expected: usize,
        /// Provided number of delivery sets.
        actual: usize,
    },
    /// More than `t` resetting steps were requested.
    TooManyResets {
        /// The per-window reset budget `t`.
        budget: usize,
        /// The number of requested resets.
        actual: usize,
    },
    /// The reset set contains a processor twice.
    DuplicateReset,
    /// A delivery set contains a sender twice.
    DuplicateSender {
        /// The recipient whose delivery set is malformed.
        recipient: usize,
    },
    /// Some delivery set is smaller than `n - t`.
    DeliverySetTooSmall {
        /// The recipient whose delivery set is too small.
        recipient: usize,
        /// The minimum allowed size (`n - t`).
        minimum: usize,
        /// The provided size.
        actual: usize,
    },
    /// A processor identity outside `0..n` was referenced.
    UnknownProcessor {
        /// The out-of-range identity.
        id: ProcessorId,
    },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::WrongArity { expected, actual } => {
                write!(
                    f,
                    "window provides {actual} delivery sets, expected {expected}"
                )
            }
            WindowError::TooManyResets { budget, actual } => {
                write!(f, "window resets {actual} processors, budget is {budget}")
            }
            WindowError::DuplicateReset => write!(f, "reset set contains a duplicate processor"),
            WindowError::DuplicateSender { recipient } => {
                write!(
                    f,
                    "delivery set for processor {recipient} contains a duplicate sender"
                )
            }
            WindowError::DeliverySetTooSmall {
                recipient,
                minimum,
                actual,
            } => write!(
                f,
                "delivery set for processor {recipient} has {actual} senders, minimum is {minimum}"
            ),
            WindowError::UnknownProcessor { id } => {
                write!(f, "window references unknown processor {id}")
            }
        }
    }
}

impl Error for WindowError {}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::ProcessorRng;
    use std::collections::BTreeSet;

    /// `Window::validate` as it was before the bitset: one `BTreeSet` per
    /// set, every recipient checked separately. Kept as the reference model
    /// the differential test below compares against.
    fn reference_validate(
        resets: &[ProcessorId],
        deliveries: &[Vec<ProcessorId>],
        cfg: &SystemConfig,
    ) -> Result<(), WindowError> {
        let n = cfg.n();
        let t = cfg.t();
        if deliveries.len() != n {
            return Err(WindowError::WrongArity {
                expected: n,
                actual: deliveries.len(),
            });
        }
        if resets.len() > t {
            return Err(WindowError::TooManyResets {
                budget: t,
                actual: resets.len(),
            });
        }
        let reset_set: BTreeSet<ProcessorId> = resets.iter().copied().collect();
        if reset_set.len() != resets.len() {
            return Err(WindowError::DuplicateReset);
        }
        if let Some(bad) = resets.iter().find(|p| p.index() >= n) {
            return Err(WindowError::UnknownProcessor { id: *bad });
        }
        for (i, senders) in deliveries.iter().enumerate() {
            let set: BTreeSet<ProcessorId> = senders.iter().copied().collect();
            if set.len() != senders.len() {
                return Err(WindowError::DuplicateSender { recipient: i });
            }
            if let Some(bad) = senders.iter().find(|p| p.index() >= n) {
                return Err(WindowError::UnknownProcessor { id: *bad });
            }
            if senders.len() < n.saturating_sub(t) {
                return Err(WindowError::DeliverySetTooSmall {
                    recipient: i,
                    minimum: n - t,
                    actual: senders.len(),
                });
            }
        }
        Ok(())
    }

    /// A random id list: `lo..=hi` distinct members of `0..n` in random
    /// order, then sometimes an identity outside `0..n` (itself possibly
    /// listed twice) and sometimes a repeated entry, at random positions.
    fn random_ids(rng: &mut ProcessorRng, n: usize, lo: usize, hi: usize) -> Vec<ProcessorId> {
        let len = lo + rng.range((hi - lo) as u64 + 1) as usize;
        let mut ids: Vec<ProcessorId> = rng
            .choose_distinct(n, len)
            .into_iter()
            .map(ProcessorId::new)
            .collect();
        if rng.chance(0.15) {
            let bad = ProcessorId::new(n + rng.range(3) as usize);
            let at = rng.range(ids.len() as u64 + 1) as usize;
            ids.insert(at, bad);
            if rng.chance(0.3) {
                ids.push(bad);
            }
        }
        if !ids.is_empty() && rng.chance(0.15) {
            let repeated = ids[rng.range(ids.len() as u64) as usize];
            let at = rng.range(ids.len() as u64 + 1) as usize;
            ids.insert(at, repeated);
        }
        ids
    }

    /// A sender set that is legal in size most of the time and undersized
    /// by up to two otherwise.
    fn random_senders(rng: &mut ProcessorRng, n: usize, t: usize) -> Vec<ProcessorId> {
        let lo = if rng.chance(0.2) { n - t - 2 } else { n - t };
        random_ids(rng, n, lo, n)
    }

    #[test]
    fn validate_matches_the_set_based_reference_on_random_windows() {
        let mut rng = ProcessorRng::from_seed(0xDEF1);
        let mut rejected = 0;
        let mut recycled = Window::default();
        // n = 300 exercises the heap fallback of the scratch bitset. The
        // sizes go down as well as up, so `recycled` is refilled in storage
        // that last held a larger window as well as a smaller one.
        for (n, t, rounds) in [
            (13, 2, 400),
            (4, 1, 400),
            (300, 40, 10),
            (7, 1, 400),
            (70, 11, 60),
        ] {
            let cfg = SystemConfig::new(n, t).unwrap();
            for _ in 0..rounds {
                let resets = if rng.chance(0.05) {
                    // Oversized and possibly malformed at once: the count
                    // check must still win.
                    random_ids(&mut rng, n, t + 1, n)
                } else {
                    // Half the budget, so an injected entry usually still fits.
                    random_ids(&mut rng, n, 0, t / 2)
                };
                // `recycled` is filled in place, round after round, with
                // whatever the round before left in its storage — larger
                // windows, the other form, windows that failed validation.
                let (window, sets) = if rng.chance(0.5) {
                    let shared = random_senders(&mut rng, n, t);
                    fill(
                        &mut recycled,
                        &resets,
                        std::slice::from_ref(&shared),
                        Some(n),
                    );
                    (
                        Window::uniform(&cfg, resets.clone(), shared.clone()),
                        vec![shared; n],
                    )
                } else {
                    let arity = if rng.chance(0.05) { n - 1 } else { n };
                    // Mostly legal sets, so a violation lands on a late
                    // recipient as often as on an early one.
                    let sets: Vec<Vec<ProcessorId>> = (0..arity)
                        .map(|_| {
                            if rng.chance(0.7) {
                                let len = n - rng.range(t as u64 + 1) as usize;
                                rng.choose_distinct(n, len)
                                    .into_iter()
                                    .map(ProcessorId::new)
                                    .collect()
                            } else {
                                random_senders(&mut rng, n, t)
                            }
                        })
                        .collect();
                    fill(&mut recycled, &resets, &sets, None);
                    (Window::new(resets.clone(), sets.clone()), sets)
                };
                let expected = reference_validate(&resets, &sets, &cfg);
                rejected += usize::from(expected.is_err());
                assert_eq!(
                    window.validate(&cfg),
                    expected,
                    "n={n} t={t} resets={resets:?} sets={sets:?}"
                );
                assert_eq!(recycled.validate(&cfg), expected, "filled in place");
                assert_eq!(recycled, window);
                assert_eq!(recycled.arity(), sets.len());
                assert_eq!(recycled.resets(), resets);
                for (i, set) in sets.iter().enumerate() {
                    assert_eq!(recycled.delivery_set(i), set);
                }
            }
        }
        assert!(
            rejected > 200,
            "the generator must produce illegal windows ({rejected} rejected)"
        );
    }

    /// Rewrites `window` through the fill API: `sets` as one shared set of
    /// the given arity, or as one set per recipient.
    fn fill(
        window: &mut Window,
        resets: &[ProcessorId],
        sets: &[Vec<ProcessorId>],
        shared_by: Option<usize>,
    ) {
        window.clear();
        resets.iter().for_each(|&id| window.push_reset(id));
        for set in sets {
            set.iter().for_each(|&id| window.push_sender(id));
            match shared_by {
                Some(arity) => window.end_shared_set(arity),
                None => window.end_set(),
            }
        }
    }

    #[test]
    fn a_recycled_window_forgets_the_larger_window_it_held() {
        let everyone = |n: usize| -> Vec<ProcessorId> { ProcessorId::all(n).collect() };
        let mut window = Window::default();
        // Shared at n = 13, per recipient at n = 7, shared at n = 4: each
        // refill must read as if built from nothing.
        fill(&mut window, &ids(&[12, 3]), &[everyone(13)], Some(13));
        assert_eq!(
            window,
            Window::uniform(&cfg13(), ids(&[12, 3]), everyone(13))
        );

        let mut sets = vec![everyone(7); 7];
        sets[2] = ids(&[6, 5, 4, 3, 2, 1]);
        fill(&mut window, &[], &sets, None);
        assert_eq!(window, Window::new(vec![], sets.clone()));
        assert_eq!(window.arity(), 7);
        assert!(window.resets().is_empty());
        assert_eq!(window.delivery_set(2), ids(&[6, 5, 4, 3, 2, 1]));
        assert_eq!(window.validate(&cfg()), Ok(()));

        let small = SystemConfig::new(4, 1).unwrap();
        fill(&mut window, &ids(&[1]), &[ids(&[3, 0, 2])], Some(4));
        assert_eq!(window, Window::uniform(&small, ids(&[1]), ids(&[3, 0, 2])));
        assert_eq!(window.arity(), 4);
        assert_eq!(window.delivery_set(3), ids(&[3, 0, 2]));
        assert_eq!(window.validate(&small), Ok(()));
        assert_eq!(
            window.validate(&cfg()),
            Err(WindowError::WrongArity {
                expected: 7,
                actual: 4
            })
        );

        window.fill_full_delivery(7);
        assert_eq!(window, full_delivery(7));
        window.clear();
        assert_eq!(window, Window::default());
        assert_eq!(window.arity(), 0);
    }

    #[test]
    fn sets_are_struck_from_and_copied_in_place() {
        let mut window = Window::default();
        window.push_all_senders(7);
        assert!(window.strike_sender(ProcessorId::new(4)));
        assert!(!window.strike_sender(ProcessorId::new(4)), "already struck");
        assert!(!window.strike_sender(ProcessorId::new(9)), "never listed");
        window.end_set();
        // Striking reaches the set being filled only, never a closed one.
        window.push_sender(ProcessorId::new(2));
        assert!(!window.strike_sender(ProcessorId::new(0)));
        assert!(window.strike_sender(ProcessorId::new(2)));
        window.copy_set(0);
        window.push_all_senders(7);
        window.end_set();
        window.copy_set(2);
        let most = ids(&[0, 1, 2, 3, 5, 6]);
        let all: Vec<ProcessorId> = ProcessorId::all(7).collect();
        assert_eq!(
            window,
            Window::new(vec![], vec![most.clone(), most, all.clone(), all])
        );
    }

    #[test]
    #[should_panic(expected = "arity 7")]
    fn a_shared_set_filled_in_place_still_panics_beyond_its_arity() {
        let mut window = Window::new(vec![], vec![ids(&[0, 1, 2]); 9]);
        window.fill_full_delivery(7);
        let _ = window.delivery_set(7);
    }

    #[test]
    #[should_panic(expected = "only set")]
    fn a_shared_set_cannot_follow_another_set() {
        let mut window = Window::default();
        window.end_set();
        window.end_shared_set(3);
    }

    #[test]
    #[should_panic(expected = "no further sets")]
    fn no_set_can_follow_a_shared_set() {
        let mut window = full_delivery(7);
        window.end_set();
    }

    #[test]
    fn shared_and_per_recipient_forms_of_a_window_are_equal() {
        let senders = ids(&[6, 1, 2, 3, 4, 5]);
        let shared = Window::uniform(&cfg(), ids(&[0]), senders.clone());
        let spelled_out = Window::new(ids(&[0]), vec![senders.clone(); 7]);
        assert_eq!(shared, spelled_out);
        assert_eq!(spelled_out, shared);
        assert_eq!(shared.arity(), 7);

        // Order inside a set is delivery order, so it is part of equality.
        let mut reordered = vec![senders.clone(); 7];
        reordered[4] = ids(&[1, 6, 2, 3, 4, 5]);
        assert_ne!(shared, Window::new(ids(&[0]), reordered));
        assert_ne!(shared, Window::new(ids(&[0]), vec![senders.clone(); 6]));
        assert_ne!(shared, Window::uniform(&cfg(), vec![], senders));
    }

    #[test]
    #[should_panic(expected = "arity 7")]
    fn shared_delivery_set_beyond_the_arity_panics() {
        let _ = full_delivery(7).delivery_set(7);
    }

    fn cfg() -> SystemConfig {
        SystemConfig::new(7, 1).unwrap()
    }

    fn cfg13() -> SystemConfig {
        SystemConfig::new(13, 2).unwrap()
    }

    fn ids(indices: &[usize]) -> Vec<ProcessorId> {
        indices.iter().copied().map(ProcessorId::new).collect()
    }

    /// A window of `n` processors filled by [`Window::fill_full_delivery`].
    fn full_delivery(n: usize) -> Window {
        let mut window = Window::default();
        window.fill_full_delivery(n);
        window
    }

    #[test]
    fn full_delivery_window_is_valid() {
        let w = full_delivery(7);
        assert!(w.validate(&cfg()).is_ok());
        assert_eq!(w.arity(), 7);
        assert!(w.resets().is_empty());
        assert_eq!(w.delivery_set(3).len(), 7);
    }

    #[test]
    fn uniform_window_applies_same_set_everywhere() {
        let senders = ids(&[1, 2, 3, 4, 5, 6]);
        let w = Window::uniform(&cfg(), ids(&[0]), senders.clone());
        assert!(w.validate(&cfg()).is_ok());
        for i in 0..7 {
            assert_eq!(w.delivery_set(i), senders.as_slice());
        }
        assert_eq!(w.resets(), ids(&[0]).as_slice());
    }

    #[test]
    fn too_many_resets_rejected() {
        let w = Window::uniform(&cfg(), ids(&[0, 1]), ids(&[0, 1, 2, 3, 4, 5, 6]));
        assert_eq!(
            w.validate(&cfg()),
            Err(WindowError::TooManyResets {
                budget: 1,
                actual: 2
            })
        );
    }

    #[test]
    fn small_delivery_set_rejected() {
        let mut deliveries = vec![ids(&[0, 1, 2, 3, 4, 5, 6]); 7];
        deliveries[2] = ids(&[0, 1, 2, 3, 4]); // 5 < n - t = 6
        let w = Window::new(vec![], deliveries);
        assert_eq!(
            w.validate(&cfg()),
            Err(WindowError::DeliverySetTooSmall {
                recipient: 2,
                minimum: 6,
                actual: 5
            })
        );
    }

    #[test]
    fn wrong_arity_rejected() {
        let w = Window::new(vec![], vec![ids(&[0, 1, 2, 3, 4, 5]); 6]);
        assert_eq!(
            w.validate(&cfg()),
            Err(WindowError::WrongArity {
                expected: 7,
                actual: 6
            })
        );
    }

    #[test]
    fn duplicate_reset_and_sender_rejected() {
        let w = Window::uniform(&cfg(), ids(&[3, 3]), ids(&[0, 1, 2, 3, 4, 5, 6]));
        // Too many resets is reported first only if count exceeds budget; here budget is 1 so
        // the count check fires. Use a larger budget config to isolate the duplicate check.
        let cfg2 = SystemConfig::new(7, 2).unwrap();
        assert_eq!(w.validate(&cfg2), Err(WindowError::DuplicateReset));

        let mut deliveries = vec![ids(&[0, 1, 2, 3, 4, 5, 6]); 7];
        deliveries[0] = ids(&[1, 1, 2, 3, 4, 5, 6]);
        let w = Window::new(vec![], deliveries);
        assert_eq!(
            w.validate(&cfg()),
            Err(WindowError::DuplicateSender { recipient: 0 })
        );
    }

    #[test]
    fn unknown_processor_rejected() {
        let w = Window::uniform(&cfg(), ids(&[9]), ids(&[0, 1, 2, 3, 4, 5, 6]));
        assert!(matches!(
            w.validate(&cfg()),
            Err(WindowError::UnknownProcessor { .. })
        ));
        let w = Window::uniform(&cfg(), vec![], ids(&[1, 2, 3, 4, 5, 9]));
        assert!(matches!(
            w.validate(&cfg()),
            Err(WindowError::UnknownProcessor { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = WindowError::DeliverySetTooSmall {
            recipient: 4,
            minimum: 6,
            actual: 2,
        };
        let msg = err.to_string();
        assert!(msg.contains('4') && msg.contains('6') && msg.contains('2'));
    }
}
