//! Interchangeable byte transports beneath the rank fabric.
//!
//! [`RankHandle`](crate::fabric::RankHandle) owns everything *semantic*
//! about fabric traffic — tag demultiplexing and parking, CRC/epoch
//! framing, deadlines, counters. A [`Transport`] owns everything
//! *physical*: moving an opaque `(tag, payload)` record from one rank's
//! endpoint to another's, a rendezvous barrier, and a cluster liveness
//! board. Three implementations ship, and the [`chaos`] decorator wraps
//! any of them in the seeded fault plan — the one place a record in
//! flight is lost, flipped, stalled, shaped or refused:
//!
//! * [`channel`] — the reference impl: ranks are threads in one process,
//!   links are unbounded channels. Zero syscalls, zero framing; this is
//!   the backend every deterministic chaos replay is defined against.
//! * [`shm`] — ranks are OS processes on one host; every directed link is
//!   a single-producer single-consumer ring buffer in a `/dev/shm`-backed
//!   file, and the liveness board is a shared file of per-rank slots.
//! * [`tcp`] — ranks are processes on one or many hosts; every directed
//!   link is a framed TCP stream, with rank 0 hosting a line-oriented
//!   rendezvous service that maps ranks to socket addresses.
//!
//! The trait contract is deliberately narrow so the semantics proven on
//! the channel backend carry over verbatim: per-link FIFO (records from
//! `src` arrive at `dst` in send order), at-most-once delivery, and a
//! monotone liveness board where a posted death means "no record will
//! ever arrive on this link again until the rank is re-admitted".

use std::time::Duration;

use bytes::Bytes;

use crate::pool::BufPool;
use crate::topology::Rank;

pub mod channel;
pub mod chaos;
#[cfg(unix)]
pub mod shm;
pub mod tcp;

pub use channel::ChannelTransport;
pub use chaos::{ChaosDecision, ChaosLink, ChaosPlan, ChaosTransport, NOMINAL_BW};
#[cfg(unix)]
pub use shm::ShmTransport;
pub use tcp::{BootstrapError, TcpTransport};

/// Which backend carries fabric traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process threads over unbounded channels (the reference impl).
    Channel,
    /// One-host processes over shared-memory ring buffers.
    Shm,
    /// Processes over framed TCP streams with rank-0 rendezvous.
    Tcp,
}

/// Environment variable selecting the default backend for
/// [`Fabric::run`](crate::fabric::Fabric::run) and friends. CI sets this
/// per matrix leg so the whole unit + proptest suite exercises every
/// backend without a single test changing.
pub const TRANSPORT_ENV: &str = "SCHEMOE_TRANSPORT";

impl TransportKind {
    /// All backends, in conformance-suite order.
    pub const ALL: [TransportKind; 3] = [
        TransportKind::Channel,
        TransportKind::Shm,
        TransportKind::Tcp,
    ];

    /// Parses a backend name (`channel` / `shm` / `tcp`).
    pub fn parse(name: &str) -> Option<TransportKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "channel" => Some(TransportKind::Channel),
            "shm" => Some(TransportKind::Shm),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }

    /// The backend named by [`TRANSPORT_ENV`], defaulting to `Channel`
    /// when unset or unrecognized.
    pub fn from_env() -> TransportKind {
        std::env::var(TRANSPORT_ENV)
            .ok()
            .and_then(|v| TransportKind::parse(&v))
            .unwrap_or(TransportKind::Channel)
    }

    /// Stable lowercase label (artifact names, CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Shm => "shm",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// The peer's endpoint is gone: its process exited, its socket closed,
/// or its channel endpoints were dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

/// Why a raw receive produced no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawRecvError {
    /// The timeout expired with the link open but silent.
    Timeout,
    /// The link is closed and drained: no record will ever arrive.
    Disconnected,
}

/// A rank's endpoint into one transport backend.
///
/// Implementations take `&self` and use interior mutability: a handle is
/// owned by one rank but may hop between that rank's threads (the overlap
/// executor moves it behind a mutex), so `Send` is required while `Sync`
/// is not.
///
/// Tags are opaque routing bytes to the transport *except* values within
/// [`RESERVED_TAG_BASE`]`..=u64::MAX`, which backends may use for internal
/// control records (death notices, barrier traffic). The fabric never
/// emits tags in that range.
pub trait Transport: Send {
    /// World size this endpoint was built for.
    fn world_size(&self) -> usize;

    /// Queues `payload` to `to` under `tag`. Per-link FIFO; never blocks
    /// on the receiver except for transient backpressure (a full ring).
    fn send_raw(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), LinkClosed>;

    /// Returns the next `(tag, payload)` record from `from`, whatever its
    /// tag — tag matching and parking live above the transport. `None`
    /// blocks indefinitely; `Some(t)` gives up after `t`.
    fn recv_raw(&self, from: Rank, timeout: Option<Duration>)
        -> Result<(u64, Bytes), RawRecvError>;

    /// The pool this endpoint's receive path fills its buffers from. The
    /// rank's handle adopts it for outgoing frames too, so one pool serves
    /// both directions and a payload goes home wherever it is dropped. A
    /// backend whose receive path allocates nothing (channels hand the
    /// sender's buffer over) keeps the default: a fresh pool.
    fn pool(&self) -> BufPool {
        BufPool::default()
    }

    /// Blocks until every rank has reached the same barrier call.
    fn barrier(&self);

    /// Posts `rank`'s death on the cluster liveness board. When `rank`
    /// is this endpoint's own rank the posting must become visible to
    /// every peer's board.
    fn post_death(&self, rank: Rank);

    /// Whether the board currently lists `rank` as dead.
    fn peer_dead(&self, rank: Rank) -> bool;

    /// Clears `rank`'s board entry (the rejoin protocol re-admitting it).
    fn clear_death(&self, rank: Rank);

    /// True when every payload must travel CRC/epoch-framed: real wires
    /// can damage bytes, so the `[len][epoch][crc32]` frame goes on the
    /// wire verbatim for the shm and tcp backends, and the chaos decorator
    /// damages them on purpose, so any backend it wraps is framed too.
    fn always_framed(&self) -> bool;

    /// True when a buried peer can physically come back — as a respawned
    /// OS process dialing in through rendezvous, or from behind a link the
    /// chaos plan cut — without the plan scheduling its revival. Gates the
    /// survivors' rejoin polling.
    fn reconnectable(&self) -> bool;

    /// Tears down the physical stream to `to`, if the backend has one,
    /// so the peer observes EOF and the next send re-handshakes on a
    /// fresh connection. The chaos decorator calls this on flap-window
    /// entry; backends without per-link connections (channels, shared
    /// memory) have nothing to tear and keep the default no-op.
    fn reset_link(&self, _to: Rank) {}
}

/// Lowest tag value reserved for transport-internal control records.
pub const RESERVED_TAG_BASE: u64 = u64::MAX - 15;

/// Deferred construction of one rank's transport endpoint.
///
/// Channel endpoints are ready the moment the mesh is built, but the shm
/// and tcp backends must finish their handshakes *on the rank's own
/// thread* (a tcp endpoint blocks in rendezvous until all ranks have
/// registered), so [`Fabric::run`](crate::fabric::Fabric::run) hands each
/// rank thread a bootstrap to establish rather than a finished endpoint.
pub enum TransportBootstrap {
    /// A ready in-process channel endpoint.
    Channel(ChannelTransport),
    /// A shared-memory session to attach to.
    #[cfg(unix)]
    Shm(shm::ShmBootstrap),
    /// A rendezvous to dial.
    Tcp(tcp::TcpBootstrap),
}

impl TransportBootstrap {
    /// Completes the handshake and returns the live endpoint.
    pub fn establish(self) -> Box<dyn Transport> {
        match self {
            TransportBootstrap::Channel(t) => Box::new(t),
            #[cfg(unix)]
            TransportBootstrap::Shm(b) => Box::new(b.attach()),
            TransportBootstrap::Tcp(b) => Box::new(
                b.connect()
                    .unwrap_or_else(|e| panic!("tcp transport bootstrap: {e}")),
            ),
        }
    }
}

/// Builds one bootstrap per rank for an in-process run over `kind`.
///
/// # Panics
///
/// Panics if the backend cannot be set up on this host (no loopback
/// listener, no shm session directory): an in-process run has no caller
/// that could recover.
pub fn mesh(kind: TransportKind, world: usize) -> Vec<TransportBootstrap> {
    match kind {
        TransportKind::Channel => channel::mesh(world)
            .into_iter()
            .map(TransportBootstrap::Channel)
            .collect(),
        #[cfg(unix)]
        TransportKind::Shm => shm::mesh(world)
            .into_iter()
            .map(TransportBootstrap::Shm)
            .collect(),
        #[cfg(not(unix))]
        TransportKind::Shm => panic!("the shm transport requires a unix host"),
        TransportKind::Tcp => tcp::mesh(world)
            .unwrap_or_else(|e| panic!("tcp mesh: {e}"))
            .into_iter()
            .map(TransportBootstrap::Tcp)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip_through_parse() {
        for kind in TransportKind::ALL {
            assert_eq!(TransportKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(TransportKind::parse("TCP"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
    }
}
