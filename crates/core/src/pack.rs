//! Packing of the paper's composite register contents into single 64-bit
//! atomic words.
//!
//! The paper's algorithms store small tuples in their base objects:
//!
//! * Figure 4's register `X` holds a triple `(x, p, s)` — a `b`-bit value, a
//!   process ID and a sequence number in `{0, …, 2n+1}`;
//! * Figure 4's announce array entries hold pairs `(p, s)`;
//! * Figure 3's CAS object holds `(x, a)` where `a` is an `n`-bit string;
//! * the unbounded-tag baselines hold `(x, tag)`.
//!
//! With the value domain fixed to 32 bits ([`Word`]), all of these fit into
//! one `u64`, which is what real hardware gives us for atomic registers and
//! CAS.  The paper's Theorem 3 uses registers of `b + 2·log n + O(1)` bits;
//! with `b = 32` and `n < 2^15` our 64-bit objects respect that budget.

use aba_spec::{ProcessId, Word};

/// Sentinel process ID representing the paper's `⊥` ("no process").
pub const BOT_PID: u16 = u16::MAX;

/// Maximum number of processes supported by the packed representations:
/// the largest `n` whose sequence-number domain `{0, …, 2n+1}` fits the
/// 16-bit field with `u16::MAX` to spare as a `⊥` (which also keeps every
/// process ID below [`BOT_PID`]).
pub const MAX_PROCESSES: usize = 32_766;
const _: () = assert!(2 * MAX_PROCESSES + 2 == u16::MAX as usize - 1);

/// A `(value, pid, seq)` triple as stored in Figure 4's register `X` and in
/// the announce-based LL/SC's CAS object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triple {
    /// The register value.
    pub value: Word,
    /// The writing process (or [`BOT_PID`] initially).
    pub pid: u16,
    /// The sequence number, drawn from `{0, …, 2n+1}`.
    pub seq: u16,
}

impl Triple {
    /// The initial content `(⊥, ⊥, ⊥)`, with the value component fixed to
    /// `initial`.
    pub fn initial(initial: Word) -> Self {
        Triple {
            value: initial,
            pid: BOT_PID,
            seq: 0,
        }
    }

    /// The `(pid, seq)` pair of this triple, as announced by readers.
    pub fn pair(&self) -> Pair {
        Pair {
            pid: self.pid,
            seq: self.seq,
        }
    }

    /// Pack into a 64-bit word: value in the high 32 bits, pid in bits
    /// 16–31, seq in bits 0–15.
    pub fn pack(&self) -> u64 {
        ((self.value as u64) << 32) | ((self.pid as u64) << 16) | (self.seq as u64)
    }

    /// Unpack from a 64-bit word.
    pub fn unpack(raw: u64) -> Self {
        Triple {
            value: (raw >> 32) as u32,
            pid: ((raw >> 16) & 0xFFFF) as u16,
            seq: (raw & 0xFFFF) as u16,
        }
    }
}

/// A `(pid, seq)` pair as stored in the announce array `A[0 … n-1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// The announced writer (or [`BOT_PID`]).
    pub pid: u16,
    /// The announced sequence number.
    pub seq: u16,
}

impl Pair {
    /// The initial announce content `(⊥, ⊥)`.
    pub fn initial() -> Self {
        Pair {
            pid: BOT_PID,
            seq: 0,
        }
    }

    /// Pack into a 64-bit word (low 32 bits used).
    pub fn pack(&self) -> u64 {
        ((self.pid as u64) << 16) | (self.seq as u64)
    }

    /// Unpack from a 64-bit word.
    pub fn unpack(raw: u64) -> Self {
        Pair {
            pid: ((raw >> 16) & 0xFFFF) as u16,
            seq: (raw & 0xFFFF) as u16,
        }
    }
}

/// Figure 3's CAS content `(x, a)`: a value plus an `n`-bit string with one
/// bit per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskWord {
    /// The LL/SC object's value.
    pub value: Word,
    /// The per-process bit string `a` (bit `p` belongs to process `p`).
    pub mask: u32,
}

impl MaskWord {
    /// Maximum number of processes representable in the 32-bit mask.
    pub const MAX_PROCESSES: usize = 32;

    /// Initial content: the given value with all bits cleared.
    pub fn initial(value: Word) -> Self {
        MaskWord { value, mask: 0 }
    }

    /// The all-ones mask `2^n - 1` written by a successful `SC` (Figure 3,
    /// line 6).
    pub fn full_mask(n: usize) -> u32 {
        assert!(
            (1..=Self::MAX_PROCESSES).contains(&n),
            "Figure 3 supports 1..=32 processes, got {n}"
        );
        if n == 32 {
            u32::MAX
        } else {
            (1u32 << n) - 1
        }
    }

    /// Whether process `p`'s bit is set (Figure 3 tests `⌊a/2^p⌋` odd).
    pub fn bit(&self, p: ProcessId) -> bool {
        (self.mask >> p) & 1 == 1
    }

    /// This word with process `p`'s bit cleared (Figure 3, line 21:
    /// `a' - 2^p`).
    pub fn with_bit_cleared(&self, p: ProcessId) -> Self {
        MaskWord {
            value: self.value,
            mask: self.mask & !(1u32 << p),
        }
    }

    /// Pack into a 64-bit word: value high, mask low.
    pub fn pack(&self) -> u64 {
        ((self.value as u64) << 32) | self.mask as u64
    }

    /// Unpack from a 64-bit word.
    pub fn unpack(raw: u64) -> Self {
        MaskWord {
            value: (raw >> 32) as u32,
            mask: (raw & 0xFFFF_FFFF) as u32,
        }
    }
}

/// An unbounded-tag word `(x, tag)` used by the tagging baselines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TagWord {
    /// The value.
    pub value: Word,
    /// The tag / sequence number.  32 bits here; the baselines treat it as
    /// "practically unbounded" (see DESIGN.md §2).
    pub tag: u32,
}

impl TagWord {
    /// Initial content: the given value with tag 0.
    pub fn initial(value: Word) -> Self {
        TagWord { value, tag: 0 }
    }

    /// Pack into a 64-bit word: value high, tag low.
    pub fn pack(&self) -> u64 {
        ((self.value as u64) << 32) | self.tag as u64
    }

    /// Unpack from a 64-bit word.
    pub fn unpack(raw: u64) -> Self {
        TagWord {
            value: (raw >> 32) as u32,
            tag: (raw & 0xFFFF_FFFF) as u32,
        }
    }

    /// The word a writer stores next: same or new value, tag incremented
    /// (wrapping — the wrap is exactly the bounded-tag weakness the paper
    /// discusses, and the `bounded_tag_bits` variants exercise it).
    pub fn bump(&self, value: Word) -> Self {
        TagWord {
            value,
            tag: self.tag.wrapping_add(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_roundtrip() {
        let t = Triple {
            value: 0xDEAD_BEEF,
            pid: 12_345,
            seq: 999,
        };
        assert_eq!(Triple::unpack(t.pack()), t);
    }

    #[test]
    fn triple_initial_uses_bot_pid() {
        let t = Triple::initial(7);
        assert_eq!(t.pid, BOT_PID);
        assert_eq!(t.value, 7);
        assert_eq!(Triple::unpack(t.pack()), t);
    }

    #[test]
    fn pair_roundtrip_and_initial() {
        let p = Pair { pid: 3, seq: 17 };
        assert_eq!(Pair::unpack(p.pack()), p);
        assert_eq!(Pair::initial().pid, BOT_PID);
    }

    #[test]
    fn triple_pair_projection() {
        let t = Triple {
            value: 1,
            pid: 9,
            seq: 4,
        };
        assert_eq!(t.pair(), Pair { pid: 9, seq: 4 });
    }

    #[test]
    fn mask_word_bits() {
        let mut w = MaskWord::initial(5);
        w.mask = MaskWord::full_mask(8);
        assert_eq!(w.mask, 0xFF);
        assert!(w.bit(0));
        assert!(w.bit(7));
        assert!(!w.bit(8));
        let cleared = w.with_bit_cleared(3);
        assert!(!cleared.bit(3));
        assert!(cleared.bit(2));
        assert_eq!(cleared.value, 5);
    }

    #[test]
    fn mask_word_full_mask_32() {
        assert_eq!(MaskWord::full_mask(32), u32::MAX);
        assert_eq!(MaskWord::full_mask(1), 1);
    }

    #[test]
    #[should_panic(expected = "1..=32 processes")]
    fn mask_word_rejects_too_many_processes() {
        let _ = MaskWord::full_mask(33);
    }

    #[test]
    fn mask_word_roundtrip() {
        let w = MaskWord {
            value: 0xAAAA_5555,
            mask: 0x0F0F_F0F0,
        };
        assert_eq!(MaskWord::unpack(w.pack()), w);
    }

    #[test]
    fn tag_word_roundtrip_and_bump() {
        let w = TagWord::initial(3);
        let next = w.bump(9);
        assert_eq!(next.value, 9);
        assert_eq!(next.tag, 1);
        assert_eq!(TagWord::unpack(next.pack()), next);
        let wrapped = TagWord {
            value: 0,
            tag: u32::MAX,
        }
        .bump(1);
        assert_eq!(wrapped.tag, 0);
    }

    #[test]
    fn distinct_triples_pack_distinctly() {
        let a = Triple {
            value: 1,
            pid: 2,
            seq: 3,
        };
        let b = Triple {
            value: 1,
            pid: 2,
            seq: 4,
        };
        let c = Triple {
            value: 1,
            pid: 3,
            seq: 3,
        };
        assert_ne!(a.pack(), b.pack());
        assert_ne!(a.pack(), c.pack());
        assert_ne!(b.pack(), c.pack());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn triple_pack_unpack_roundtrip(value in any::<u32>(), pid in any::<u16>(), seq in any::<u16>()) {
            let t = Triple { value, pid, seq };
            prop_assert_eq!(Triple::unpack(t.pack()), t);
        }

        #[test]
        fn pair_pack_unpack_roundtrip(pid in any::<u16>(), seq in any::<u16>()) {
            let p = Pair { pid, seq };
            prop_assert_eq!(Pair::unpack(p.pack()), p);
        }

        #[test]
        fn mask_pack_unpack_roundtrip(value in any::<u32>(), mask in any::<u32>()) {
            let w = MaskWord { value, mask };
            prop_assert_eq!(MaskWord::unpack(w.pack()), w);
        }

        #[test]
        fn tag_pack_unpack_roundtrip(value in any::<u32>(), tag in any::<u32>()) {
            let w = TagWord { value, tag };
            prop_assert_eq!(TagWord::unpack(w.pack()), w);
        }

        #[test]
        fn packing_is_injective_on_triples(
            a in (any::<u32>(), any::<u16>(), any::<u16>()),
            b in (any::<u32>(), any::<u16>(), any::<u16>()),
        ) {
            let ta = Triple { value: a.0, pid: a.1, seq: a.2 };
            let tb = Triple { value: b.0, pid: b.1, seq: b.2 };
            prop_assert_eq!(ta.pack() == tb.pack(), ta == tb);
        }

        #[test]
        fn clearing_a_bit_only_affects_that_bit(value in any::<u32>(), mask in any::<u32>(), p in 0usize..32) {
            let w = MaskWord { value, mask };
            let c = w.with_bit_cleared(p);
            prop_assert!(!c.bit(p));
            for q in 0..32 {
                if q != p {
                    prop_assert_eq!(c.bit(q), w.bit(q));
                }
            }
        }
    }
}
