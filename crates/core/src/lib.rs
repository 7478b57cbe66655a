//! # presky-core — data model for skyline probability over uncertain preferences
//!
//! This crate implements the data model of *"Skyline Probability over
//! Uncertain Preferences"* (Q. Zhang, P. Ye, X. Lin, Y. Zhang, EDBT 2013):
//! objects with fixed **categorical** attribute values whose pairwise value
//! *preferences* are uncertain — `Pr(a ≺ b) + Pr(b ≺ a) ≤ 1`, the slack
//! being incomparability.
//!
//! The central export is [`coins::CoinView`]: the reduction of a single
//! object's skyline-probability instance to independent Bernoulli *coins*
//! (one per distinct foreign value per dimension) and *attackers*
//! (conjunctions of coins, one per competing object). All exact and
//! approximate algorithms in the companion crates (`presky-exact`,
//! `presky-approx`) consume this view; the dependence between object
//! dominance events — the phenomenon the paper is about — is exactly coin
//! sharing between attackers.
//!
//! ## Layout
//!
//! * [`types`] — `DimId` / `ValueId` / `ObjectId` newtypes.
//! * [`schema`], [`table`] — categorical schemas, dictionaries and
//!   column-major object tables.
//! * [`preference`] — the [`preference::PreferenceModel`] trait and its
//!   implementations (explicit tables, hash-seeded models for large spaces,
//!   degenerate certain orders) plus RNG-driven generation.
//! * [`dominance`] — `Pr(Qi ≺ O)` (Equation 2) and realized-world dominance.
//! * [`world`] — possible worlds: sampling and exhaustive enumeration.
//! * [`coins`] — the reduced kernel described above.
//! * [`batch`] — shared per-table indexes assembling many coin views with
//!   no per-target hashing (the all-objects query path).
//! * [`epoch`] — MVCC snapshots for live datasets: writers derive the next
//!   [`epoch::DatasetEpoch`] by copy-on-write, readers pin one via
//!   [`epoch::SnapshotView`] so concurrent writes never alter a value
//!   mid-request.
//! * [`bitworlds`] — the bit-parallel possible-world kernel: 64 worlds per
//!   machine word (multi-word SIMD lanes widen this to 256+ per step),
//!   bit-sliced Bernoulli masks, counter-based seeding.
//! * [`pool`] — thread-count resolution and the shared [`pool::ThreadBudget`]
//!   token pot that keeps object-level and within-component parallelism
//!   from oversubscribing one machine.
//!
//! ## Quick example
//!
//! ```
//! use presky_core::prelude::*;
//!
//! // The Observation of Section 1: P1=(α,s), P2=(α,t), P3=(β,t), all
//! // pairwise value preferences one half.
//! let table = Table::from_rows_raw(2, &[vec![0, 0], vec![0, 1], vec![1, 1]]).unwrap();
//! let prefs = TablePreferences::with_default(PrefPair::half());
//!
//! // Pr(P2 ≺ P1) = 1/2, Pr(P3 ≺ P1) = 1/4.
//! assert_eq!(pr_dominates(&table, &prefs, ObjectId(1), ObjectId(0)), 0.5);
//! assert_eq!(pr_dominates(&table, &prefs, ObjectId(2), ObjectId(0)), 0.25);
//!
//! // P2 and P3 share the value t, hence share a coin: their dominance
//! // events over P1 are dependent.
//! let view = CoinView::build(&table, &prefs, ObjectId(0)).unwrap();
//! assert_eq!(view.n_attackers(), 2);
//! assert_eq!(view.n_coins(), 2);
//! ```

#![warn(missing_docs)]
// Unsafe is denied everywhere except the one `#[allow]`-scoped module that
// wraps the AVX2 `std::arch` kernel path behind runtime feature detection
// (`bitworlds::avx2`). Everything else stays safe Rust.
#![deny(unsafe_code)]

pub mod batch;
pub mod bitworlds;
pub mod coins;
pub mod dominance;
pub mod epoch;
pub mod error;
pub mod pool;
pub mod preference;
pub mod schema;
pub mod table;
pub mod types;
pub mod world;

pub use pool::num_threads;

/// Convenient glob-import of the commonly used names.
pub mod prelude {
    pub use crate::batch::{BatchCoinContext, BatchScratch};
    pub use crate::bitworlds::{
        bernoulli_mask, bernoulli_mask_pair, block_lane_mask, superblock_lane_mask,
        survivors_block, survivors_block_antithetic, survivors_wide, survivors_wide_antithetic,
        threshold, BlockKey, BlockScratch, PlaneRng, WideScratch, LANE_WORDS,
    };
    pub use crate::coins::{Attacker, CoinKey, CoinRemap, CoinView, SYNTHETIC_SOURCE};
    pub use crate::dominance::{differing_dims, dominates_in_world, pr_dominates};
    pub use crate::epoch::{DatasetEpoch, SnapshotView, TouchedCoin, WriteEffects};
    pub use crate::error::{CoreError, Result};
    pub use crate::pool::{num_threads, ThreadBudget, ThreadLease};
    pub use crate::preference::{
        generate_table_preferences, Ballot, BradleyTerry, DeterministicOrder, ElicitationBuilder,
        OverlayPreferences, PairLaw, PrefDistribution, PrefPair, PreferenceModel,
        SeededPreferences, TablePreferences, TablePreferencesBuilder, VoteTally,
    };
    pub use crate::schema::{Dictionary, Dimension, Schema};
    pub use crate::table::{Table, TableBuilder};
    pub use crate::types::{DimId, ObjectId, ValueId};
    pub use crate::world::{
        for_each_world, relevant_pairs_all, relevant_pairs_for_target, sample_world, PairId,
        Relation, World,
    };
}
