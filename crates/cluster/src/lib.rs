//! Cluster topology, hardware profiles, memory accounting, and the
//! in-process rank fabric.
//!
//! This crate describes *where* things run:
//!
//! * [`Topology`] — an `N`-node cluster with `M` GPUs per node and the
//!   rank arithmetic (which ranks share a node) that every hierarchical
//!   all-to-all algorithm needs.
//! * [`HardwareProfile`] — the cost-model constants of a concrete testbed.
//!   [`HardwareProfile::paper_testbed`] reproduces the ScheMoE paper's
//!   8-node × 4× RTX 2080 Ti cluster (PCIe 3.0 x16 intra-node, shared
//!   100 Gb/s InfiniBand inter-node), calibrated against the paper's own
//!   published measurements.
//! * [`MemoryBudget`] — GPU memory accounting used to predict the
//!   out-of-memory cases the paper reports (Faster-MoE on BERT-Large-MoE,
//!   1DH-A2A at large message sizes, and the OOM-excluded sweep configs).
//! * [`fabric`] — a real message-passing fabric: every rank is a thread,
//!   channels are the interconnect. The functional all-to-all and
//!   distributed MoE layers run on it, so collective correctness is tested
//!   with real data movement rather than mocks.
//! * [`transport`] — the interchangeable byte carriers under the fabric
//!   (channels, shared-memory rings, TCP) and, in [`transport::chaos`],
//!   the one fault layer: a seeded [`ChaosPlan`] — link windows, the
//!   loss / corrupt / stall lottery, shaping, per-rank kill and revive
//!   points — injected by a decorator beneath framing. Chaos runs replay
//!   bit-identically from the seed alone.
//! * [`pool`] — the recycled buffers of the data path: a rank's one
//!   [`BufPool`], shared by its transport's receive path and its outgoing
//!   [`FrameBuf`]s, whose buffers go home when their last reference drops.
//! * [`faults`] — the two pure primitives that layer is built from: the
//!   keyed lottery roll, and the epoch-stamped CRC32 wire frame that
//!   turns bit damage into typed [`FabricError::Corrupt`] errors and
//!   stale-membership traffic into [`FabricError::StaleEpoch`] — sealed in
//!   place in a frame's headroom, verified in the buffer it arrived in.

pub mod fabric;
pub mod faults;
pub mod hardware;
pub mod memory;
pub mod pool;
pub mod storage;
pub mod topology;
pub mod transport;

pub use fabric::{AdaptiveDeadline, Fabric, FabricError, RankHandle};
pub use faults::{FramePool, EPOCH_ANY, FRAME_HEADER};
pub use hardware::HardwareProfile;
pub use memory::MemoryBudget;
pub use pool::{BufPool, FrameBuf, Pool};
pub use storage::{write_atomic, ChaosFs, ChaosFsPlan, RealFs, RenameFate, StorageFs, WriteFate};
pub use topology::{Rank, Topology};
pub use transport::{
    ChaosDecision, ChaosLink, ChaosPlan, ChaosTransport, Transport, TransportBootstrap,
    TransportKind, NOMINAL_BW,
};
