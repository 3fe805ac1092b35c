//! In-tree correctness tooling for the OPM workspace.
//!
//! Three instruments, one crate:
//!
//! - **A deterministic-schedule concurrency model checker**
//!   ([`sched`], [`sync`], [`models`]): shim sync primitives under a
//!   controlling scheduler explore the interleavings of the
//!   workspace's load-bearing protocols — the plan cache's
//!   single-flight build gate, `opm-par`'s work-index claim loop, and
//!   `CancelToken`'s flag/deadline core. The protocols are *production
//!   code*, instantiated on the shims through the
//!   [`opm_core::sync::MonitorFamily`] abstraction, so what is checked
//!   is what ships. Violations come back as replayable, shrinkable
//!   schedule traces.
//! - **A repo-invariant lint pass** ([`lint`]): a hand-rolled scanner
//!   enforcing the workspace's cross-cutting source rules (poison
//!   discipline, no wall-clock in kernel crates, `SAFETY:`-annotated
//!   `unsafe`, no fused multiply-add in panel kernels, no stray
//!   printing in library crates), each rule with a justified allowlist.
//! - **Bit-identity digests** ([`digest`]): one hash per pinned solve
//!   over its bounds, columns and outputs, to compare two commits.
//!
//! All run through the `opm-verify` binary: `opm-verify model-check`
//! and `opm-verify lint` in CI, `opm-verify digest` by hand.

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

pub mod digest;
pub mod lint;
pub mod models;
pub mod sched;
pub mod sync;
