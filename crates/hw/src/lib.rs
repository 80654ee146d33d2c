//! # cord-hw — hardware substrate models
//!
//! Machines, CPU cores (with DVFS and virtualization jitter), PCIe DMA
//! engines, and simulated process memory. These components, with the
//! link constants in [`machine::LinkSpec`], carry the calibration
//! constants that map the CoRD paper's two physical testbeds (§5: system
//! L and system A) onto the discrete-event simulator. The network those
//! links form lives in `cord-net`.
//!
//! The presets live in [`machine::system_l`] and [`machine::system_a`];
//! every constant is documented with the paper observation it reproduces.

#![deny(missing_docs)]

pub mod cpu;
pub mod dvfs;
pub mod machine;
pub mod memory;
pub mod noise;
pub mod pcie;

pub use cpu::{Core, CoreId};
pub use dvfs::Dvfs;
pub use machine::{system_a, system_l, MachineSpec};
pub use memory::{GuestMem, MemError, MemRegion, MemStats, PayloadSeg, GUEST_BASE};
pub use noise::Noise;
pub use pcie::{DmaDir, DmaEngine};
