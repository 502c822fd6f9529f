//! SRLR-based on-chip links: the experiment harness of the paper's
//! Sec. IV.
//!
//! The fabricated test chip feeds a 1-bit 10 mm SRLR link with on-chip
//! PRBS data and counts errors. This crate is that measurement setup in
//! software:
//!
//! * [`prbs`] — LFSR pseudo-random binary sequences (PRBS-7/15/31),
//! * [`link`] — bit-exact link propagation with per-segment inter-symbol
//!   interference (residual-charge) tracking and energy accounting,
//! * [`ber`] — bit-error-rate measurement with confidence bounds and the
//!   max-data-rate search,
//! * [`certify`] — the conservative clean-link certificate and the exact
//!   solitary-`1` refutation that let the Monte Carlo engine skip
//!   simulating provably robust and provably failing dice,
//! * [`error_model`] — aggregated effective-BER measurement over Monte
//!   Carlo dice, the number the `srlr-noc` fault injector consumes,
//! * [`metrics`] — the paper's headline metrics (bandwidth density,
//!   fJ/bit/mm, link power),
//! * [`baselines`] — behavioural models of the prior silicon-proven
//!   interconnects the paper compares against, plus the published-numbers
//!   registry behind Table I and Fig. 8,
//! * [`comparison`] — Table I assembly and rendering,
//! * [`multicast`] — the free 1-to-N multicast capability of Sec. II.
//!
//! # Examples
//!
//! ```
//! use srlr_link::{LinkConfig, SrlrLink};
//! use srlr_tech::Technology;
//! use srlr_units::DataRate;
//!
//! let tech = Technology::soi45();
//! let link = SrlrLink::paper_test_chip(&tech);
//! let report = link.ber_quick_check(10_000, 99);
//! assert_eq!(report.errors, 0, "nominal link must be error-free");
//! # let _ = LinkConfig::paper_default();
//! # let _ = DataRate::from_gigabits_per_second(4.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bathtub;
pub mod ber;
pub mod bundle;
pub mod certify;
pub mod comparison;
pub mod crosstalk;
pub mod error_model;
pub mod eye;
pub mod link;
pub(crate) mod lockstep;
pub mod metrics;
pub mod montecarlo;
pub mod multicast;
pub mod prbs;
pub mod shmoo;
pub mod supply;

pub use baselines::{
    DifferentialClockedLink, EqualizedLink, FullSwingRepeatedLink, PublishedInterconnect,
};
pub use ber::{BerReport, BerTester};
pub use comparison::{ComparisonRow, ComparisonTable};
pub use error_model::LinkErrorModel;
pub use eye::{measure_eye, EyeReport};
pub use link::{LinkConfig, SrlrLink, TransmitOutcome};
pub use metrics::LinkMetrics;
pub use montecarlo::{robustness_ratio, McExperiment};
pub use multicast::MulticastLink;
pub use prbs::Prbs;
