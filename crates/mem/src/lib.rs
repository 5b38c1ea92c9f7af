//! Memory substrate for the QPPT reproduction.
//!
//! This crate hosts the low-level building blocks shared by the index
//! structures and the query engine:
//!
//! * [`dup`] — the paper's duplicate handling (§2.4, Fig. 4): values for a key
//!   are stored in contiguous memory segments that double in size from 64 B up
//!   to the 4 KB page limit, so duplicate scans stay inside hardware-prefetch
//!   friendly memory. A deliberately naive linked-list arena is included as
//!   the strawman the paper argues against (used by the ablation bench).
//! * [`key`] — order-preserving normalisation of attribute values to `u64`
//!   keys, and [`KeyPacker`]: the one bit-packed multi-part key format, held by
//!   every base index (`qppt-storage`) and every composed group-by key
//!   (`qppt-core`).
//! * [`prefetch`] — a thin software-prefetch shim used by the batch processing
//!   scheme of §2.3 (Algorithm 1).
//! * [`prng`] — deterministic pseudo-random number generation (splitmix64 and
//!   xoshiro256**) so that generated benchmark data is bit-identical across
//!   runs and toolchains.

pub mod dup;
pub mod key;
pub mod prefetch;
pub mod prng;

pub use dup::{DupArena, DupList, LinkedDupArena, LinkedList, Values};
pub use key::{compose2, decode_i64, encode_i64, key_bits, split2, KeyPackError, KeyPacker};
pub use prng::{SplitMix64, Xoshiro256StarStar};
