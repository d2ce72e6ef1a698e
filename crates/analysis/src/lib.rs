//! # ruu-analysis — static analysis for RUU programs
//!
//! Everything else in this workspace *executes* programs; this crate
//! reasons about them statically (and, for the dataflow bound, over the
//! golden interpreter's dynamic trace — still without touching a timing
//! simulator). Five layers:
//!
//! * [`cfg`](mod@cfg) — basic blocks, branch edges, reachability;
//! * [`branches`] — the static branch-site census ([`branch_sites`]):
//!   every branch pc classified by kind/direction with reachability,
//!   bounding the per-site tables of the dynamic CBP harness;
//! * [`dataflow`] — register bitsets ([`RegSet`]), liveness,
//!   may-uninitialized reads, reaching-definition def→use chains;
//! * [`footprint`](mod@footprint) — interval abstract interpretation of
//!   the A registers checking load/store address ranges against the
//!   data-memory size;
//! * [`lint`](mod@lint) — the typed diagnostic driver ([`lint()`]) over
//!   all of the above, with inline [`Waiver`]s for intentional findings;
//! * [`bound`] — the **dataflow-limit lower bound on cycles**
//!   ([`dataflow_bound`]): the latency-weighted RAW critical path of a
//!   dynamic trace under a [`ruu_sim_core::MachineConfig`]. Every timing
//!   simulator must report `cycles >= bound`; the workspace cross-check
//!   suite enforces exactly that.
//!
//! DESIGN.md §6 documents the lattices, the lint catalog, and the
//! argument that the bound is a true lower bound.

pub mod bound;
pub mod branches;
pub mod cfg;
pub mod dataflow;
pub mod footprint;
pub mod lint;

pub use bound::{dataflow_bound, DataflowBound};
pub use branches::{branch_sites, BranchCensus, BranchSite};
pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{def_use, liveness, uninit_reads, DefUse, Liveness, RegSet};
pub use footprint::{footprint, AccessVerdict, FootprintFinding, Interval};
pub use lint::{apply_waivers, lint, Finding, LintKind, LintOptions, Severity, Waiver};
