//! Records produced by the functional engine: the ordered stream of
//! traversal-group steps, the memory loads they cause, and the outQ
//! entries marshaled to the core.

use serde::{Deserialize, Serialize};

use crate::program::StreamTy;

/// Identifier of one loaded stream element (unique per engine run).
pub type ElemId = u64;

/// A memory load performed by a TU's `mem` stream for one element.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemLoad {
    /// Unique id (readiness handle).
    pub id: ElemId,
    /// Owning layer.
    pub layer: u8,
    /// Owning lane.
    pub lane: u8,
    /// Owning stream slot within the TU (its queue; §5.4 selects streams
    /// in configuration order and requests within a queue in order).
    pub stream: u8,
    /// Ordinal of the element within its TU (queue-slot index).
    pub elem_ordinal: u64,
    /// Virtual address.
    pub addr: u64,
    /// Loads that must complete before this one can issue (chained
    /// indirection within the TU, fiber bounds from the parent layer).
    pub deps: Vec<ElemId>,
}

/// Kind of a traversal-group step (§5.2 FSM states).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// `gbeg`: a traversal/merge begins.
    #[default]
    Beg,
    /// `gite`: one co-iteration/merge step.
    Ite,
    /// `gend`: the traversal/merge is exhausted.
    End,
    /// Conjunctive-merge advance that produced no output (elements were
    /// consumed and discarded); exists only for timing.
    Skip,
}

/// A marshaled operand inside an outQ entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// Vector operand: one word per lane (raw bits), zero-padded for
    /// inactive lanes.
    Vec {
        /// Per-lane words.
        vals: Vec<u64>,
        /// Element type of the source streams.
        ty: StreamTy,
    },
    /// The layer's multi-hot predicate.
    Mask(u64),
    /// A scalar word.
    Scalar {
        /// Raw bits.
        val: u64,
        /// Element type.
        ty: StreamTy,
    },
}

impl Operand {
    /// Interprets a vector operand as f64 lanes.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Vec` operand of `Value` type.
    pub fn as_f64s(&self) -> Vec<f64> {
        match self {
            Operand::Vec {
                vals,
                ty: StreamTy::Value,
            } => vals.iter().map(|&b| f64::from_bits(b)).collect(),
            other => panic!("operand is not an f64 vector: {other:?}"),
        }
    }

    /// Interprets a vector operand as i64 index lanes.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Vec` operand of `Index` type.
    pub fn as_indexes(&self) -> Vec<i64> {
        match self {
            Operand::Vec {
                vals,
                ty: StreamTy::Index,
            } => vals.iter().map(|&b| b as i64).collect(),
            other => panic!("operand is not an index vector: {other:?}"),
        }
    }

    /// Scalar value as f64.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Scalar` of `Value` type.
    pub fn as_f64(&self) -> f64 {
        match self {
            Operand::Scalar {
                val,
                ty: StreamTy::Value,
            } => f64::from_bits(*val),
            other => panic!("operand is not an f64 scalar: {other:?}"),
        }
    }

    /// Scalar value as i64 index.
    ///
    /// # Panics
    ///
    /// Panics if this is not a `Scalar` of `Index` type.
    pub fn as_index(&self) -> i64 {
        match self {
            Operand::Scalar {
                val,
                ty: StreamTy::Index,
            } => *val as i64,
            other => panic!("operand is not an index scalar: {other:?}"),
        }
    }

    /// Bytes this operand occupies in an outQ entry.
    pub fn bytes(&self) -> u32 {
        match self {
            Operand::Vec { vals, .. } => 8 * vals.len() as u32,
            Operand::Mask(_) | Operand::Scalar { .. } => 8,
        }
    }
}

/// One outQ entry: a callback id plus its operands (§4.3, §5.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutQEntry {
    /// Callback id registered with `add_callback`.
    pub callback: u32,
    /// Lane predicate of the producing step.
    pub mask: u64,
    /// Operands in registration order.
    pub operands: Vec<Operand>,
}

impl OutQEntry {
    /// Bytes the entry occupies in the memory-mapped outQ (8-byte header
    /// carrying the callback id and mask tag, plus operands).
    pub fn bytes(&self) -> u32 {
        8 + self.operands.iter().map(Operand::bytes).sum::<u32>()
    }
}

/// One traversal-group step in nested-loop order.
///
/// The timing engine recycles steps: [`crate::Interp::fill_step`]
/// overwrites one in place, reusing every buffer it holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Step {
    /// Layer that stepped.
    pub layer: u8,
    /// FSM state this step corresponds to.
    pub kind: StepKind,
    /// Multi-hot participating-lane predicate.
    pub mask: u64,
    /// Memory loads created while peeking elements for this step.
    pub loads: Vec<MemLoad>,
    /// Elements whose readiness gates this step's completion.
    pub gates: Vec<ElemId>,
    /// `(layer, lane)` of each TU that consumed one element in this step
    /// (frees one stream-queue slot per consuming TU).
    pub consumed: Vec<(u8, u8)>,
    /// outQ entries pushed by this step (callbacks registered on its
    /// event), in registration order.
    pub entries: Vec<OutQEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        let v = Operand::Vec {
            vals: vec![2.5f64.to_bits(), 0],
            ty: StreamTy::Value,
        };
        assert_eq!(v.as_f64s(), vec![2.5, 0.0]);
        assert_eq!(v.bytes(), 16);

        let i = Operand::Vec {
            vals: vec![7u64, (-1i64) as u64],
            ty: StreamTy::Index,
        };
        assert_eq!(i.as_indexes(), vec![7, -1]);

        let s = Operand::Scalar {
            val: 42,
            ty: StreamTy::Index,
        };
        assert_eq!(s.as_index(), 42);
    }

    #[test]
    #[should_panic(expected = "not an f64 vector")]
    fn wrong_type_panics() {
        Operand::Mask(3).as_f64s();
    }

    #[test]
    fn entry_bytes_include_header() {
        let e = OutQEntry {
            callback: 1,
            mask: 0b11,
            operands: vec![
                Operand::Vec {
                    vals: vec![0; 8],
                    ty: StreamTy::Value,
                },
                Operand::Mask(0b11),
            ],
        };
        assert_eq!(e.bytes(), 8 + 64 + 8);
    }
}
