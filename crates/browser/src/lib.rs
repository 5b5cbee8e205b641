//! The browser runtime (paper §4): the first cache level plus the
//! in-browser evaluation engine.
//!
//! "The first level of caching is within the browser itself. Recent query
//! results are remembered and re-used, helping the interactivity of
//! undoing operations or switching to a previous page."
//!
//! "The browser query-result cache is augmented with an evaluation engine,
//! written in C++ and compiled to WebAssembly, which in many cases can
//! synthesize new results from existing rows already fetched from the CDW.
//! These local evaluations avoid the latency of a round-trip to the
//! database … In some cases (e.g. lower cardinality tables), we are able to
//! prefetch a resultset that could be used to fully evaluate all future
//! operations on the table locally in the browser."
//!
//! The substitution (documented in DESIGN.md): the paper's C++→WASM engine
//! is modeled by an embedded instance of the same vectorized kernels the
//! warehouse uses (`sigma-cdw`), holding only prefetched tables. What
//! matters for latency is *where* evaluation happens; the service
//! round-trip is simulated with a configurable network RTT.

pub mod cache;
pub mod client;
pub mod local;
pub mod prefetch;

pub use cache::BatchCache;
pub use client::{BrowserSession, ClientOutcome, Source};
pub use local::{LocalEngine, LocalEval};
pub use prefetch::PrefetchPolicy;
