//! Measurement collection: online moments, HDR-style histograms, and
//! bimodality detection (for the paper's Fig. 5a).

mod histogram;
mod modes;
mod online;

pub use histogram::Histogram;
pub use modes::{split_modes, ModeSplit};
pub use online::OnlineStats;
