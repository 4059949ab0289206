//! Binary values: input bits, estimates and write-once output bits.
//!
//! The agreement problem of the paper is over binary values. Each processor
//! starts with an input [`Bit`], maintains a current estimate (the variable
//! `x_p`), and owns a write-once output bit that is initially unset (`⊥` in
//! the paper) and may be written at most once.

use std::fmt;
use std::ops::Not;

use crate::error::ModelError;

/// A binary agreement value.
///
/// # Examples
///
/// ```
/// use agreement_model::Bit;
///
/// assert_eq!(!Bit::Zero, Bit::One);
/// assert_eq!(Bit::from(true), Bit::One);
/// assert_eq!(u8::from(Bit::Zero), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bit {
    /// The value `0`.
    Zero,
    /// The value `1`.
    One,
}

impl Bit {
    /// Both bit values, in ascending order.
    pub const ALL: [Bit; 2] = [Bit::Zero, Bit::One];

    /// Returns `true` if this is [`Bit::One`].
    pub const fn is_one(self) -> bool {
        matches!(self, Bit::One)
    }

    /// Returns `true` if this is [`Bit::Zero`].
    pub const fn is_zero(self) -> bool {
        matches!(self, Bit::Zero)
    }

    /// Returns the opposite bit.
    pub const fn flipped(self) -> Bit {
        match self {
            Bit::Zero => Bit::One,
            Bit::One => Bit::Zero,
        }
    }

    /// Converts the bit to `0usize` or `1usize`, convenient for indexing
    /// two-element tally arrays.
    pub const fn as_index(self) -> usize {
        match self {
            Bit::Zero => 0,
            Bit::One => 1,
        }
    }
}

impl Not for Bit {
    type Output = Bit;

    fn not(self) -> Bit {
        self.flipped()
    }
}

impl From<bool> for Bit {
    fn from(value: bool) -> Self {
        if value {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl From<Bit> for bool {
    fn from(bit: Bit) -> bool {
        bit.is_one()
    }
}

impl From<Bit> for u8 {
    fn from(bit: Bit) -> u8 {
        bit.as_index() as u8
    }
}

impl TryFrom<u8> for Bit {
    type Error = ModelError;

    fn try_from(value: u8) -> Result<Self, Self::Error> {
        match value {
            0 => Ok(Bit::Zero),
            1 => Ok(Bit::One),
            other => Err(ModelError::InvalidBit(other)),
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_index())
    }
}

/// A write-once output register, the paper's output bit with initial value `⊥`.
///
/// The register starts unwritten and accepts exactly one write. Later writes
/// of the *same* value are idempotent no-ops (a processor may legitimately
/// re-derive its decision after a reset); a write of a conflicting value is an
/// error, which the simulation surfaces as a correctness violation.
///
/// # Examples
///
/// ```
/// use agreement_model::{Bit, OutputRegister};
///
/// let mut out = OutputRegister::new();
/// assert!(out.get().is_none());
/// out.write(Bit::One)?;
/// assert_eq!(out.get(), Some(Bit::One));
/// // Idempotent re-write of the same value is allowed.
/// out.write(Bit::One)?;
/// // A conflicting write is rejected.
/// assert!(out.write(Bit::Zero).is_err());
/// # Ok::<(), agreement_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct OutputRegister {
    value: Option<Bit>,
}

impl OutputRegister {
    /// Creates an unwritten output register (`⊥`).
    pub const fn new() -> Self {
        OutputRegister { value: None }
    }

    /// Returns the written value, or `None` if the register is still `⊥`.
    pub const fn get(&self) -> Option<Bit> {
        self.value
    }

    /// Returns `true` once a value has been written.
    pub const fn is_written(&self) -> bool {
        self.value.is_some()
    }

    /// Writes `value` to the register.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ConflictingDecision`] if a different value has
    /// already been written.
    pub fn write(&mut self, value: Bit) -> Result<(), ModelError> {
        match self.value {
            None => {
                self.value = Some(value);
                Ok(())
            }
            Some(existing) if existing == value => Ok(()),
            Some(existing) => Err(ModelError::ConflictingDecision {
                existing,
                attempted: value,
            }),
        }
    }
}

impl fmt::Display for OutputRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Some(bit) => write!(f, "{bit}"),
            None => write!(f, "⊥"),
        }
    }
}

/// An assignment of input bits to all `n` processors.
///
/// # Examples
///
/// ```
/// use agreement_model::{Bit, InputAssignment};
///
/// let unanimous = InputAssignment::unanimous(4, Bit::One);
/// assert_eq!(unanimous.unanimous_value(), Some(Bit::One));
///
/// let split = InputAssignment::evenly_split(4);
/// assert_eq!(split.count(Bit::Zero), 2);
/// assert_eq!(split.count(Bit::One), 2);
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct InputAssignment {
    bits: Vec<Bit>,
}

impl Clone for InputAssignment {
    fn clone(&self) -> Self {
        InputAssignment {
            bits: self.bits.clone(),
        }
    }

    /// Reuses the destination's allocation (campaign workspaces re-clone the
    /// plan's inputs once per trial; the buffer must stay warm).
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
    }
}

impl InputAssignment {
    /// Creates an assignment from explicit per-processor bits.
    pub fn new(bits: Vec<Bit>) -> Self {
        InputAssignment { bits }
    }

    /// All processors share the same input `value`.
    pub fn unanimous(n: usize, value: Bit) -> Self {
        InputAssignment {
            bits: vec![value; n],
        }
    }

    /// The first `⌈n/2⌉` processors hold `0`, the rest hold `1`.
    ///
    /// This is the adversarially chosen "evenly split" input setting discussed
    /// at the end of Section 3 of the paper.
    pub fn evenly_split(n: usize) -> Self {
        let zeros = n.div_ceil(2);
        let bits = (0..n)
            .map(|i| if i < zeros { Bit::Zero } else { Bit::One })
            .collect();
        InputAssignment { bits }
    }

    /// The first `zeros` processors hold `0`, the rest hold `1`.
    pub fn split_at(n: usize, zeros: usize) -> Self {
        assert!(zeros <= n, "cannot assign more zeros than processors");
        let bits = (0..n)
            .map(|i| if i < zeros { Bit::Zero } else { Bit::One })
            .collect();
        InputAssignment { bits }
    }

    /// Number of processors in the assignment.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the assignment covers zero processors.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The input bit of processor `index` (zero-based).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn bit(&self, index: usize) -> Bit {
        self.bits[index]
    }

    /// Iterates over the per-processor bits in identity order.
    pub fn iter(&self) -> impl Iterator<Item = Bit> + '_ {
        self.bits.iter().copied()
    }

    /// Counts how many processors hold `value`.
    pub fn count(&self, value: Bit) -> usize {
        self.bits.iter().filter(|&&b| b == value).count()
    }

    /// Returns the slice of bits.
    pub fn as_slice(&self) -> &[Bit] {
        &self.bits
    }

    /// Returns `Some(v)` when the assignment is unanimous with value `v`.
    pub fn unanimous_value(&self) -> Option<Bit> {
        if self.bits.is_empty() || self.bits.windows(2).any(|w| w[0] != w[1]) {
            None
        } else {
            Some(self.bits[0])
        }
    }
}

impl fmt::Display for InputAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in &self.bits {
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_flip_and_not_agree() {
        assert_eq!(Bit::Zero.flipped(), Bit::One);
        assert_eq!(!Bit::One, Bit::Zero);
        assert_eq!(Bit::Zero.flipped().flipped(), Bit::Zero);
    }

    #[test]
    fn bit_conversions() {
        assert_eq!(Bit::from(true), Bit::One);
        assert_eq!(Bit::from(false), Bit::Zero);
        assert!(bool::from(Bit::One));
        assert_eq!(u8::from(Bit::One), 1);
        assert_eq!(Bit::try_from(0u8).unwrap(), Bit::Zero);
        assert_eq!(Bit::try_from(1u8).unwrap(), Bit::One);
        assert!(Bit::try_from(2u8).is_err());
    }

    #[test]
    fn bit_as_index_covers_both_values() {
        assert_eq!(Bit::Zero.as_index(), 0);
        assert_eq!(Bit::One.as_index(), 1);
        assert_eq!(Bit::ALL.len(), 2);
    }

    #[test]
    fn output_register_starts_unwritten() {
        let out = OutputRegister::new();
        assert!(!out.is_written());
        assert_eq!(out.get(), None);
        assert_eq!(out.to_string(), "⊥");
    }

    #[test]
    fn output_register_accepts_single_value() {
        let mut out = OutputRegister::new();
        out.write(Bit::Zero).unwrap();
        assert_eq!(out.get(), Some(Bit::Zero));
        assert_eq!(out.to_string(), "0");
        // Idempotent rewrite allowed.
        out.write(Bit::Zero).unwrap();
        // Conflicting write rejected.
        let err = out.write(Bit::One).unwrap_err();
        assert!(matches!(err, ModelError::ConflictingDecision { .. }));
        // Value unchanged after the failed write.
        assert_eq!(out.get(), Some(Bit::Zero));
    }

    #[test]
    fn unanimous_assignment_detected() {
        let a = InputAssignment::unanimous(5, Bit::One);
        assert_eq!(a.unanimous_value(), Some(Bit::One));
        assert_eq!(a.count(Bit::One), 5);
        assert_eq!(a.count(Bit::Zero), 0);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn evenly_split_assignment_is_balanced() {
        let a = InputAssignment::evenly_split(7);
        assert_eq!(a.count(Bit::Zero), 4);
        assert_eq!(a.count(Bit::One), 3);
        assert_eq!(a.unanimous_value(), None);
    }

    #[test]
    fn split_at_places_zeros_first() {
        let a = InputAssignment::split_at(4, 1);
        assert_eq!(a.bit(0), Bit::Zero);
        assert_eq!(a.bit(1), Bit::One);
        assert_eq!(a.count(Bit::Zero), 1);
        assert_eq!(a.to_string(), "0111");
    }

    #[test]
    #[should_panic(expected = "cannot assign more zeros than processors")]
    fn split_at_rejects_too_many_zeros() {
        let _ = InputAssignment::split_at(3, 4);
    }

    #[test]
    fn empty_assignment_is_not_unanimous_valued() {
        let a = InputAssignment::new(vec![]);
        assert!(a.is_empty());
        assert_eq!(a.unanimous_value(), None);
    }
}
