//! # aba-spec
//!
//! Object specifications and shared vocabulary for the reproduction of
//! *"On the Time and Space Complexity of ABA Prevention and Detection"*
//! (Aghazadeh & Woelfel, PODC 2015).
//!
//! This crate defines:
//!
//! * the two implemented object types of the paper — [ABA-detecting
//!   registers](traits::AbaRegisterObject) and [LL/SC/VL
//!   objects](traits::LlScObject) — as object/handle trait pairs that every
//!   implementation in `aba-core` and every state machine in `aba-sim`
//!   satisfies;
//! * [space accounting](space::SpaceUsage) so that the time–space tradeoff of
//!   Theorem 1 can be evaluated uniformly across implementations;
//! * [concurrent history recording](history) with global timestamps;
//! * [sequential specifications](sequential) of both object types;
//! * a [linearizability checker](linearizability) (Wing–Gong style search)
//!   specialised to those sequential specifications; and
//! * the [`WeakRead`/`WeakWrite` correctness condition](weak) that the paper's
//!   lower bounds are proved against, used by `aba_bench::lowerbound` to
//!   exhibit violation witnesses for under-provisioned implementations.
//!
//! # Example
//!
//! ```
//! use aba_spec::sequential::SeqAbaRegister;
//!
//! let mut spec = SeqAbaRegister::new(2, 0);
//! spec.dwrite(0, 7);
//! assert_eq!(spec.dread(1), (7, true));
//! assert_eq!(spec.dread(1), (7, false));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod history;
pub mod linearizability;
pub mod sequential;
pub mod space;
pub mod traits;
pub mod weak;

pub use history::{History, OpKind, OpRecord, Recorder};
pub use linearizability::{check_history, LinCheckOutcome, Spec};
pub use sequential::{SeqAbaRegister, SeqFifoQueue, SeqLifoStack, SeqLlSc, SeqMap, SeqOrderedSet};
pub use space::{BaseObjectKind, SpaceUsage};
pub use traits::{AbaHandle, AbaRegisterObject, LlScHandle, LlScObject};

/// A process identifier, `0..n` as in the paper's model of `n` processes with
/// unique IDs in `{0, ..., n-1}`.
pub type ProcessId = usize;

/// The value domain used throughout the reproduction.
///
/// The paper's objects are `b`-bit registers; we fix `b = 32` so that values,
/// process IDs and sequence numbers can be packed together into a single
/// 64-bit atomic word (see `aba-core::pack`).  All claims of the paper are
/// independent of `b`.
pub type Word = u32;

/// The value an object holds before any write.
///
/// The paper initialises registers to `⊥`; using `0` as the concrete initial
/// value does not affect any of the reproduced claims (all flags and link
/// validity are tracked separately from the value).
pub const INITIAL_WORD: Word = 0;
