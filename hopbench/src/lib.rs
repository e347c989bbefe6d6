//! Loopback-TCP serving benchmark for hopspan.
//!
//! One command runs a seeded workload against `hopspan_serve::Server`
//! on 127.0.0.1: the serving process is a child of the benchmark (this
//! binary re-run as `serve`), fed only the generated inputs; the
//! benchmark process is the single client, with at most two client
//! threads and two connections. Every answer is checked against direct
//! in-process kernel calls. The last line of standard output is one
//! JSON object with the end-to-end metrics (untraced) or the per-layer
//! metrics (traced).
//!
//! The traced run times calls into each layer's public functions from
//! this crate only; the program under test carries no tracing.

pub mod alloc;
mod cli;
mod conn;
mod inputs;
mod measure;
mod reference;
mod serve;
mod trace;

mod run;
mod traced;

pub use run::main_with;

/// Which binary is running: the plain one, or the one linked with the
/// counting allocator ([`alloc::CountingAlloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// `hopbench`: no allocator hook; serves and runs untraced.
    Plain,
    /// `hopbench-traced`: counts allocations; runs traced.
    Traced,
}
