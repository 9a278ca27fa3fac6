//! # smt-route
//!
//! Routing-stage substrates for the Fig. 4 flow:
//!
//! * [`steiner`] — rectilinear Steiner trees per net;
//! * [`global`] — congestion-aware grid global routing (maze search with
//!   rip-up & reroute) producing per-net routed lengths;
//! * [`router`] — the incremental routing session behind it: cached
//!   per-net base routes, a fingerprint-scoped `refresh`, and a
//!   `full_route_runs()` reuse counter;
//! * [`extract`] — parasitic extraction at two fidelities: pre-route
//!   estimates from placement and post-route RC trees with per-sink
//!   Elmore delays;
//! * [`cts`] — clock tree synthesis by recursive geometric clustering;
//! * [`buffering`] — high-fanout buffering, used for the MTE enable net.

pub mod buffering;
pub mod cts;
pub mod extract;
pub mod global;
pub mod router;
pub mod steiner;

pub use buffering::{buffer_net, BufferingConfig, BufferingReport};
pub use cts::{full_cts_runs, synthesize_clock_tree, CtsConfig, CtsReport, CtsSession};
pub use extract::{reextractions_avoided, NetParasitics, Parasitics};
pub use global::{GlobalRoute, RouteConfig};
pub use router::{full_route_runs, Router};
pub use steiner::{steiner_tree, RouteTree};
