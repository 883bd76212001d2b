//! Bit-set primitives for erasure-pattern simulation.
//!
//! The fault-tolerance testing system in this workspace decodes hundreds of
//! millions of erasure patterns over 96-node graphs. This crate provides the
//! state and enumeration primitives used on that hot path:
//!
//! * [`EpochSet`] / [`StampedCounts`] — generation-stamped membership and
//!   counter arrays whose `clear` is a single epoch bump instead of an O(n)
//!   refill. They are the state representation behind the sparse-reset decode
//!   kernel: a trial that touches *t* nodes costs O(t) to reset, not O(n).
//! * [`combinations`] — lexicographic *k*-subset enumeration with
//!   combinatorial ranking/unranking, which lets the simulator split an
//!   exhaustive `C(96, k)` search into independent, evenly sized chunks for
//!   data-parallel execution.
//!
//! Query operations perform no allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combinations;
pub mod epoch;

pub use combinations::CombinationIter;
pub use epoch::{EpochSet, StampedCounts};
