//! Compact 2-hop routing schemes in the labeled fixed-port model
//! (paper §5.1, Theorems 1.3, 5.1 and 5.2).
//!
//! A routing scheme delivers packets on an *overlay network* (here: the
//! bounded hop-diameter spanner) using only, at each node, the node's
//! local routing table, the destination's label, and the packet header.
//! Port numbers are assigned adversarially (fixed-port model); labels are
//! chosen by the designer (labeled model).
//!
//! * [`Network`] — the fixed-port overlay simulator with bit accounting;
//! * [`TreeRoutingScheme`] — stretch-1, 2-hop routing for tree metrics
//!   with O(log²n)-bit labels and tables (Theorem 5.1);
//! * [`MetricRoutingScheme`] — (1+ε)- / O(ℓ)-stretch 2-hop routing for
//!   doubling, general and planar metrics via tree covers (Theorem 1.3);
//! * [`FtMetricRoutingScheme`] — the f-fault-tolerant variant (Thm 5.2).
//!
//! Both metric schemes come from one builder: per cover tree,
//! `hopspan_core::TreeOverlay` at k = 2 gives the tree spanner, the
//! candidate sets `R(v)` and the overlay pairs, and the labels and tables
//! store the ports of every candidate. The plain scheme is the builder at
//! f = 0, where `R(v)` is the vertex's own point; the fault-tolerant
//! scheme is the same builder at f > 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault_tolerant;
mod metric;
mod network;
mod scheme;
mod tree;

pub use fault_tolerant::FtMetricRoutingScheme;
pub use metric::MetricRoutingScheme;
pub use network::{Header, Network, RouteTrace};
pub use scheme::{NavBuildError, RoutingError, SchemeStats};
pub use tree::TreeRoutingScheme;
