//! A cycle-accurate 2-D mesh network-on-chip substrate with activity-based
//! power accounting.
//!
//! The paper embeds its low-swing SRLR datapath inside a classic 5-port
//! mesh router (Fig. 1: input buffers, control logic, crossbar, links) and
//! reports the resulting router power split — input buffers 38.8 mW,
//! control 5.2 mW, SRLR datapath 12.9 mW — plus the Sec. I observation
//! that links + crossbars dominate mesh NoC power (69 % in RAW, 64 % in
//! TRIPS, 32 % in TeraFLOPS). This crate provides the NoC those numbers
//! live in:
//!
//! * [`topology`] — mesh coordinates, ports and XY routing,
//! * [`packet`] — packets and flits,
//! * [`router`] — a 3-stage virtual-channel wormhole router with
//!   credit-based flow control (4 VCs × 4-flit buffers by default, the
//!   paper's 16-buffer configuration),
//! * [`network`] — the cycle-accurate simulator,
//! * [`traffic`] — synthetic traffic patterns (uniform, transpose,
//!   bit-complement, neighbour, hotspot) and multicast generation,
//! * [`stats`] — latency/throughput collection with overflow-aware
//!   histograms,
//! * [`fault`] — BER-driven link fault injection with CRC-16 detection
//!   and bounded NACK/retransmission (the system-level consequence of
//!   the paper's measured link BER),
//! * [`protocol`] — the pure retry/scheduling transition functions the
//!   fault model and the `srlr-model` exhaustive checker share,
//! * [`power`] — per-event energy accounting with a pluggable datapath
//!   (full-swing repeated wires vs the SRLR low-swing datapath), the
//!   published RAW/TRIPS/TeraFLOPS breakdowns, and the paper's router
//!   power calibration,
//! * [`multicast`] — shared-prefix tree accounting for the SRLR's free
//!   1-to-N multicast.
//!
//! # Examples
//!
//! ```
//! use srlr_noc::{NocConfig, Network, traffic::Pattern};
//! use srlr_telemetry::Obs;
//!
//! let config = NocConfig::paper_default().with_size(4, 4);
//! let mut net = Network::new(config);
//! let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 500, 1500, &mut Obs::none());
//! assert!(stats.packets_received > 0);
//! assert!(stats.avg_latency_cycles() < 100.0);
//! ```

#![forbid(unsafe_code)]

pub mod area;
pub mod bufferless;
pub mod express;
pub mod fault;
pub mod multicast;
pub mod network;
pub mod packet;
pub mod power;
pub mod protocol;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use area::RouterAreaModel;
pub use bufferless::DeflectionNetwork;
pub use express::{ExpressComparison, ExpressTopology};
pub use fault::{
    ber_sweep, ber_sweep_observed, FaultConfig, FaultModel, FaultSweepPoint, FaultTally,
    LinkTransmission,
};
pub use multicast::MulticastAccounting;
pub use network::{Network, StalledError};
pub use packet::{crc16, Flit, FlitKind, Packet, PacketId};
pub use power::{DatapathKind, PowerModel, PublishedBreakdown, RouterPowerReport};
pub use router::{NocConfig, Router};
pub use routing::RoutingAlgorithm;
pub use stats::{Histogram, HistogramSummary, NetworkStats};
pub use topology::{Coord, Direction, Mesh};
