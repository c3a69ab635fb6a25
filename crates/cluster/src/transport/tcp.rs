//! TCP transport: one framed stream per directed link, rank 0 hosting
//! rendezvous.
//!
//! Bootstrap is a two-step handshake. Every rank binds a data listener
//! on an ephemeral port, dials the rendezvous address, and sends one
//! line — `JOIN <rank> <host:port>` — then blocks until the service
//! replies `MAP <addr0> <addr1> ...` with the full rank→address map,
//! which it does the moment all ranks have registered. A persistent
//! rendezvous (the multi-process launcher's mode) keeps serving after
//! the initial map so a respawned rank can re-register under a fresh
//! port and learn the survivors' addresses.
//!
//! Data connections are made lazily: the first send to a peer dials its
//! data listener and opens with a `HELLO` record carrying the sender's
//! rank and listener address (which also teaches the acceptor a
//! rejoiner's new address). Each record on the wire is
//! `[tag u64-le][len u32-le][payload]`; the payload is exactly the
//! fabric's `[len][epoch][crc32]` frame, verbatim. A reader thread per
//! incoming connection demultiplexes records into per-source queues;
//! when its stream closes — the peer dropped its endpoint, exited, or
//! was SIGKILLed — the reader posts the source dead on the local
//! liveness board, turning real socket death into the same typed
//! fast-fail a latched `kill_after` gives in-process.
//!
//! Tags at the top of the [`RESERVED_TAG_BASE`] range carry transport
//! control: death notices (propagating the simulated-kill board between
//! processes) and the rank-0-coordinated barrier (`ARRIVE`/`RELEASE`).

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use schemoe_compression::record::{Reader, Writer};

use super::{LinkClosed, RawRecvError, Transport, RESERVED_TAG_BASE};
use crate::faults::splitmix64;
use crate::pool::{BufPool, FrameBuf};
use crate::topology::Rank;

/// Control tags (all within the reserved range).
const CTRL_DEATH: u64 = u64::MAX;
const CTRL_ARRIVE: u64 = u64::MAX - 1;
const CTRL_RELEASE: u64 = u64::MAX - 2;
const CTRL_HELLO: u64 = u64::MAX - 3;

/// Receive poll slice: how often a blocked receive re-checks the local
/// liveness board so a posted death cuts the wait short.
const RECV_POLL: Duration = Duration::from_millis(5);

/// Sanity cap on record payloads (a damaged length prefix must not
/// allocate the moon).
const MAX_RECORD: u32 = 1 << 30;

/// Longest rendezvous line read, newline included: the peer on the other
/// end of a rendezvous socket must not size the allocation.
const MAX_LINE: u64 = 4096;

/// Dial schedule for lazy *data* connections: quick, because a send to
/// a genuinely dead peer must fail fast enough not to stall the
/// cluster, but with enough retry to ride out a peer whose listener is
/// mid-rebind (a respawning rank).
const DATA_DIAL_ATTEMPTS: u32 = 3;
const DATA_DIAL_BASE: Duration = Duration::from_millis(5);
const DATA_DIAL_CAP: Duration = Duration::from_millis(40);

/// Dial schedule for the *rendezvous* bootstrap: patient, because at
/// cluster start the rendezvous process may simply not have bound yet,
/// and a respawned worker may race a restarting rendezvous.
const RENDEZVOUS_DIAL_ATTEMPTS: u32 = 8;
const RENDEZVOUS_DIAL_BASE: Duration = Duration::from_millis(50);
const RENDEZVOUS_DIAL_CAP: Duration = Duration::from_secs(2);

/// The backoff stall before retry `attempt + 1`: exponential from
/// `base`, capped at `cap`, with splitmix64 jitter in `[half, full]` so
/// a thundering herd of redialing ranks decorrelates. Pure in
/// `(attempt, base, cap, seed)`.
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration, seed: u64) -> Duration {
    let exp = base
        .saturating_mul(1u32 << attempt.min(16))
        .min(cap)
        .max(Duration::from_micros(1));
    let frac = (splitmix64(seed.wrapping_add(attempt as u64)) >> 11) as f64 / (1u64 << 53) as f64;
    exp.div_f64(2.0) + exp.div_f64(2.0).mul_f64(frac)
}

/// Dials `addr` with bounded exponential backoff. Returns the last
/// connect error once `attempts` are exhausted.
fn dial_with_backoff(
    addr: &str,
    attempts: u32,
    base: Duration,
    cap: Duration,
    seed: u64,
) -> std::io::Result<TcpStream> {
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if attempt + 1 >= attempts => return Err(e),
            Err(_) => std::thread::sleep(backoff_delay(attempt, base, cap, seed)),
        }
        attempt += 1;
    }
}

/// Why standing up a TCP endpoint failed — typed, so a worker process
/// can report (and a launcher can distinguish) a dead rendezvous from a
/// local bind failure instead of dying on a bare `expect`.
#[derive(Debug)]
pub enum BootstrapError {
    /// Binding the local data listener failed.
    Bind(std::io::Error),
    /// The rendezvous address never accepted, even after backoff.
    Rendezvous {
        /// The address that was dialed.
        addr: String,
        /// How many connect attempts were made.
        attempts: u32,
        /// The final attempt's error.
        last: std::io::Error,
    },
    /// The rendezvous accepted but the JOIN/MAP exchange failed.
    Handshake(std::io::Error),
    /// The MAP reply did not cover the expected world (a reply without
    /// the `MAP` keyword has no entries).
    BadMap {
        /// Entries received.
        got: usize,
        /// Entries required (the world size).
        want: usize,
    },
}

impl fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootstrapError::Bind(e) => write!(f, "binding data listener: {e}"),
            BootstrapError::Rendezvous {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "rendezvous {addr} unreachable after {attempts} attempts: {last}"
            ),
            BootstrapError::Handshake(e) => write!(f, "rendezvous handshake: {e}"),
            BootstrapError::BadMap { got, want } => {
                write!(f, "rendezvous map has {got} entries, want {want}")
            }
        }
    }
}

impl std::error::Error for BootstrapError {}

struct Msg {
    tag: u64,
    payload: Bytes,
}

/// State shared between the endpoint, its acceptor, and reader threads.
struct Shared {
    world: usize,
    /// Local liveness board: protocol state, fed by `post_death` (local
    /// latches and peers' `CTRL_DEATH` notices), cleared on re-admission.
    /// Consulted only through [`Transport::peer_dead`] so the fabric's
    /// `board_poll` slicing governs when a posted death is noticed —
    /// exactly as on the channel backend.
    dead: Vec<AtomicBool>,
    /// Socket state: the incoming stream from this rank closed (EOF,
    /// reset, or torn record). The tcp analogue of a dropped channel
    /// sender; cleared when a fresh `HELLO` re-establishes the link.
    closed: Vec<AtomicBool>,
    /// Per-source connection generation, bumped on every `HELLO`. A
    /// reader thread only gets to mark its source `closed` at EOF if its
    /// generation is still current; without this, a killed process's
    /// lingering stream can EOF *after* its respawned successor's `HELLO`
    /// cleared the flag, permanently wedging the link as closed.
    /// Transitions are serialized under the `addrs` lock.
    conn_gen: Vec<AtomicU64>,
    /// Per-source inbox senders; readers fetch their clone here so a
    /// rejoiner's fresh connection feeds the same queue.
    inbox_tx: Vec<Sender<Msg>>,
    /// Barrier arrivals, collected by rank 0.
    arrive_tx: Sender<(Rank, u64)>,
    /// Barrier releases, awaited by ranks != 0.
    release_tx: Sender<u64>,
    /// Rank → data-listener address, updated by `HELLO` records.
    addrs: Mutex<Vec<String>>,
    /// Set by `Drop` so the acceptor exits on its wake-up connection.
    shutdown: AtomicBool,
    /// The rank's buffer pool: readers fill received payloads from it.
    pool: BufPool,
}

/// A rendezvous to dial as one rank.
pub struct TcpBootstrap {
    rendezvous: String,
    rank: Rank,
    world: usize,
    reconnectable: bool,
    rendezvous_attempts: u32,
}

impl TcpBootstrap {
    /// A bootstrap for a worker process dialing `rendezvous`.
    /// `reconnectable` marks sessions whose dead ranks may return as
    /// respawned processes (the launcher's mode).
    pub fn new(rendezvous: impl Into<String>, rank: Rank, world: usize) -> Self {
        TcpBootstrap {
            rendezvous: rendezvous.into(),
            rank,
            world,
            reconnectable: true,
            rendezvous_attempts: RENDEZVOUS_DIAL_ATTEMPTS,
        }
    }

    /// Overrides the rendezvous dial budget (tests shrink it so a dead
    /// address fails in milliseconds instead of seconds).
    pub fn with_rendezvous_attempts(mut self, attempts: u32) -> Self {
        self.rendezvous_attempts = attempts.max(1);
        self
    }

    /// Registers with rendezvous and stands up the endpoint.
    pub fn connect(self) -> Result<TcpTransport, BootstrapError> {
        TcpTransport::connect(self)
    }
}

/// Spawns an in-process rendezvous service for `world` ranks and
/// returns one bootstrap per rank. The service thread exits after the
/// initial map broadcast.
pub fn mesh(world: usize) -> Result<Vec<TcpBootstrap>, BootstrapError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(BootstrapError::Bind)?;
    let addr = listener.local_addr().map_err(BootstrapError::Bind)?;
    std::thread::spawn(move || serve_rendezvous(listener, world, false));
    Ok((0..world)
        .map(|rank| TcpBootstrap {
            rendezvous: addr.to_string(),
            rank,
            world,
            reconnectable: false,
            rendezvous_attempts: RENDEZVOUS_DIAL_ATTEMPTS,
        })
        .collect())
}

/// Runs the rendezvous service: collects `JOIN <rank> <addr>` lines
/// until all `world` ranks have registered, then sends every waiter the
/// full `MAP`. In `persistent` mode the service keeps accepting after
/// the initial broadcast, answering late (re)joining ranks immediately
/// with the current map — run it on a thread for the life of rank 0's
/// process.
pub fn serve_rendezvous(listener: TcpListener, world: usize, persistent: bool) {
    serve_rendezvous_with_store(listener, world, persistent, None)
}

/// [`serve_rendezvous`] with an optional on-disk rank→addr store.
///
/// Every accepted JOIN is persisted (atomic tmp + rename, one `RANK
/// ADDR` line per registered rank), and a service started over an
/// existing store begins *pre-filled*: a restarted rendezvous process
/// immediately serves the surviving map to rejoiners instead of
/// wedging on ranks that will never re-register — this is what removes
/// the rank-0 rendezvous as a single point of failure.
pub fn serve_rendezvous_with_store(
    listener: TcpListener,
    world: usize,
    persistent: bool,
    store: Option<PathBuf>,
) {
    let mut addrs: Vec<Option<String>> = store
        .as_deref()
        .map(|p| load_store(p, world))
        .unwrap_or_else(|| vec![None; world]);
    let mut waiting: Vec<TcpStream> = Vec::new();
    // A store that already covers the world means the initial broadcast
    // happened in a previous incarnation: answer every join immediately.
    let mut initial_served = addrs.iter().all(Option::is_some);
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        let join = read_line(&conn)
            .ok()
            .and_then(|line| parse_join(&line, world));
        let Some((rank, addr)) = join else { continue };
        addrs[rank] = Some(addr);
        if let Some(path) = store.as_deref() {
            persist_store(path, &addrs);
        }
        if initial_served {
            let _ = reply_map(conn, &addrs);
            continue;
        }
        waiting.push(conn);
        if addrs.iter().all(Option::is_some) {
            for c in waiting.drain(..) {
                let _ = reply_map(c, &addrs);
            }
            initial_served = true;
            if !persistent {
                return;
            }
        }
    }
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE`] bytes; a longer
/// or unterminated one is an error.
fn read_line(conn: impl Read) -> std::io::Result<String> {
    let mut line = String::new();
    BufReader::new(conn.take(MAX_LINE)).read_line(&mut line)?;
    if !line.ends_with('\n') {
        return Err(std::io::ErrorKind::InvalidData.into());
    }
    Ok(line)
}

/// Parses a `JOIN <rank> <host:port>` line from a rank of a `world`-rank
/// cluster.
fn parse_join(line: &str, world: usize) -> Option<(Rank, String)> {
    let mut parts = line.split_whitespace();
    let (Some("JOIN"), Some(rank), Some(addr)) = (parts.next(), parts.next(), parts.next()) else {
        return None;
    };
    let rank = rank.parse().ok().filter(|&r| r < world)?;
    Some((rank, addr.to_string()))
}

/// Parses the `MAP <addr0> <addr1> ...` reply, which must name exactly
/// `world` addresses.
fn parse_map(line: &str, world: usize) -> Result<Vec<String>, BootstrapError> {
    let mut parts = line.split_whitespace();
    let addrs: Vec<String> = match parts.next() {
        Some("MAP") => parts.map(str::to_string).collect(),
        _ => Vec::new(),
    };
    if addrs.len() != world {
        return Err(BootstrapError::BadMap {
            got: addrs.len(),
            want: world,
        });
    }
    Ok(addrs)
}

/// Reads a rank→addr store written by [`persist_store`].
fn load_store(path: &Path, world: usize) -> Vec<Option<String>> {
    parse_store(&std::fs::read_to_string(path).unwrap_or_default(), world)
}

/// Parses a store's `RANK ADDR` lines. Unknown ranks and damaged lines are
/// skipped, so a torn or stale file degrades to a partial (or empty)
/// prefill rather than an error.
fn parse_store(text: &str, world: usize) -> Vec<Option<String>> {
    let mut addrs = vec![None; world];
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(rank), Some(addr)) = (parts.next(), parts.next()) else {
            continue;
        };
        if let Ok(r) = rank.parse::<usize>() {
            if r < world {
                addrs[r] = Some(addr.to_string());
            }
        }
    }
    addrs
}

/// Atomically replaces the store with the current map through the
/// shared durable-commit helper (write-tmp → fsync → rename → fsync
/// parent) — a crashed rendezvous never leaves a half-written store
/// behind, and a committed one survives power loss.
fn persist_store(path: &Path, addrs: &[Option<String>]) {
    let mut text = String::new();
    for (r, a) in addrs.iter().enumerate() {
        if let Some(a) = a {
            text.push_str(&format!("{r} {a}\n"));
        }
    }
    let _ = crate::storage::write_atomic(&crate::storage::RealFs, path, text.as_bytes());
}

fn reply_map(mut conn: TcpStream, addrs: &[Option<String>]) -> std::io::Result<()> {
    let mut line = String::from("MAP");
    for a in addrs {
        line.push(' ');
        line.push_str(a.as_deref().unwrap_or("?"));
    }
    line.push('\n');
    conn.write_all(line.as_bytes())
}

/// Writes one `[tag][len][payload]` record with as few syscalls as the
/// socket allows: header and payload leave in one vectored write (one
/// segment, for a small control frame on this `TCP_NODELAY` stream), and a
/// partial write resumes where it stopped.
fn write_record(stream: &mut impl Write, tag: u64, payload: &[u8]) -> std::io::Result<()> {
    let mut header = [0u8; 12];
    header[..8].copy_from_slice(&tag.to_le_bytes());
    header[8..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut sent = 0;
    while sent < header.len() {
        let parts = [IoSlice::new(&header[sent..]), IoSlice::new(payload)];
        match stream.write_vectored(&parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.write_all(&payload[sent - header.len()..])
}

/// Reads one record, its payload into a buffer of `pool`. A length past
/// [`MAX_RECORD`] is refused before anything is allocated for it.
fn read_record(reader: &mut impl Read, pool: &BufPool) -> std::io::Result<(u64, FrameBuf)> {
    let mut header = [0u8; 12];
    reader.read_exact(&mut header)?;
    let (tag, len) = Reader::frame(&header, |r| Ok((r.u64()?, r.u32()?)))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    if len > MAX_RECORD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "record length out of range",
        ));
    }
    let mut payload = pool.checkout(0, len as usize);
    reader.read_exact(payload.body_mut())?;
    Ok((tag, payload))
}

/// Demultiplexes one incoming connection. `src` becomes known from the
/// leading `HELLO`; every subsequent record routes by tag.
fn run_reader(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut src: Option<Rank> = None;
    let mut my_gen = 0u64;
    while let Ok((tag, payload)) = read_record(&mut reader, &shared.pool) {
        match tag {
            CTRL_HELLO => {
                let Some((r, addr)) = decode_hello(payload.as_ref()) else {
                    return;
                };
                if r >= shared.world {
                    return;
                }
                {
                    let mut addrs = shared.addrs.lock();
                    my_gen = shared.conn_gen[r].fetch_add(1, Ordering::AcqRel) + 1;
                    addrs[r] = addr;
                    shared.closed[r].store(false, Ordering::Release);
                }
                src = Some(r);
            }
            CTRL_DEATH => {
                if let Some(&r) = payload.as_ref().first() {
                    let r = r as usize;
                    if r < shared.world {
                        shared.dead[r].store(true, Ordering::Release);
                    }
                }
            }
            CTRL_ARRIVE | CTRL_RELEASE => {
                let Some(s) = src else { return };
                let gen = Reader::frame(payload.as_ref(), Reader::u64).unwrap_or(0);
                // Home before the barrier it announces can be observed.
                drop(payload);
                if tag == CTRL_ARRIVE {
                    let _ = shared.arrive_tx.send((s, gen));
                } else {
                    let _ = shared.release_tx.send(gen);
                }
            }
            _ => {
                let Some(s) = src else { return };
                let _ = shared.inbox_tx[s].send(Msg {
                    tag,
                    payload: payload.freeze(),
                });
            }
        }
    }
    // The stream closed: the peer dropped its endpoint, exited, or was
    // killed. Anything it sent is already queued, so marking the link
    // closed means drained receives fail typed instead of stalling
    // deadlines — the socket-reset analogue of a dropped channel. Only
    // the *current* connection may do this: a killed process's stream
    // can EOF after its respawned successor already said `HELLO`, and
    // that stale reader must not re-close the fresh link.
    if let Some(s) = src {
        let _addrs = shared.addrs.lock();
        if shared.conn_gen[s].load(Ordering::Acquire) == my_gen {
            shared.closed[s].store(true, Ordering::Release);
        }
    }
}

/// `HELLO` payload `[rank u64][listener address, UTF-8]`.
fn encode_hello(rank: Rank, addr: &str) -> Vec<u8> {
    let mut w = Writer::new(8 + addr.len());
    w.u64(rank as u64).bytes(addr.as_bytes());
    w.finish()
}

fn decode_hello(payload: &[u8]) -> Option<(Rank, String)> {
    let mut r = Reader::new(payload);
    let rank = usize::try_from(r.u64().ok()?).ok()?;
    let addr = String::from_utf8(r.take(r.remaining()).ok()?.to_vec()).ok()?;
    Some((rank, addr))
}

/// One rank's endpoint into a TCP mesh.
pub struct TcpTransport {
    rank: Rank,
    world: usize,
    reconnectable: bool,
    listen_addr: String,
    /// Lazily-dialed outgoing streams, one per peer.
    out: Vec<Mutex<Option<TcpStream>>>,
    inbox_rx: Vec<Receiver<Msg>>,
    arrive_rx: Receiver<(Rank, u64)>,
    release_rx: Receiver<u64>,
    barrier_gen: Cell<u64>,
    /// Arrivals from barrier generations ahead of this endpoint's.
    early_arrivals: Cell<HashMap<u64, usize>>,
    shared: Arc<Shared>,
}

impl TcpTransport {
    fn connect(b: TcpBootstrap) -> Result<TcpTransport, BootstrapError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(BootstrapError::Bind)?;
        let listen_addr = listener
            .local_addr()
            .map_err(BootstrapError::Bind)?
            .to_string();

        // Register and learn the full rank → address map. The rendezvous
        // process may still be binding (cluster start) or restarting
        // (rejoin after rank-0 respawn), so dial with patient backoff
        // and surface exhaustion as a typed error, not a panic.
        let mut rendezvous = dial_with_backoff(
            &b.rendezvous,
            b.rendezvous_attempts,
            RENDEZVOUS_DIAL_BASE,
            RENDEZVOUS_DIAL_CAP,
            b.rank as u64,
        )
        .map_err(|last| BootstrapError::Rendezvous {
            addr: b.rendezvous.clone(),
            attempts: b.rendezvous_attempts,
            last,
        })?;
        rendezvous
            .write_all(format!("JOIN {} {}\n", b.rank, listen_addr).as_bytes())
            .map_err(BootstrapError::Handshake)?;
        let line = read_line(rendezvous).map_err(BootstrapError::Handshake)?;
        let addrs = parse_map(&line, b.world)?;

        let mut inbox_tx = Vec::with_capacity(b.world);
        let mut inbox_rx = Vec::with_capacity(b.world);
        for _ in 0..b.world {
            let (tx, rx) = unbounded();
            inbox_tx.push(tx);
            inbox_rx.push(rx);
        }
        let (arrive_tx, arrive_rx) = unbounded();
        let (release_tx, release_rx) = unbounded();
        let shared = Arc::new(Shared {
            world: b.world,
            dead: (0..b.world).map(|_| AtomicBool::new(false)).collect(),
            closed: (0..b.world).map(|_| AtomicBool::new(false)).collect(),
            conn_gen: (0..b.world).map(|_| AtomicU64::new(0)).collect(),
            inbox_tx,
            arrive_tx,
            release_tx,
            addrs: Mutex::new(addrs),
            shutdown: AtomicBool::new(false),
            pool: BufPool::default(),
        });

        let acceptor_shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if acceptor_shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let Ok(conn) = conn else { continue };
                let reader_shared = Arc::clone(&acceptor_shared);
                std::thread::spawn(move || run_reader(conn, reader_shared));
            }
        });

        let t = TcpTransport {
            rank: b.rank,
            world: b.world,
            reconnectable: b.reconnectable,
            listen_addr,
            out: (0..b.world).map(|_| Mutex::new(None)).collect(),
            inbox_rx,
            arrive_rx,
            release_rx,
            barrier_gen: Cell::new(0),
            early_arrivals: Cell::new(HashMap::new()),
            shared,
        };
        // Dial the full mesh eagerly: one stream per directed link from
        // the start, so a peer that exits without ever sending still
        // closes an established stream — its EOF is what turns into the
        // typed `Disconnected` a dropped channel gives in-process.
        for r in 0..t.world {
            if r != t.rank {
                let mut slot = t.out[r].lock();
                if slot.is_none() {
                    *slot = t.dial(r).ok();
                }
            }
        }
        Ok(t)
    }

    /// The address this endpoint's data listener is bound to.
    pub fn listen_addr(&self) -> &str {
        &self.listen_addr
    }

    fn dial(&self, to: Rank) -> std::io::Result<TcpStream> {
        let addr = self.shared.addrs.lock()[to].clone();
        // Quick bounded backoff: enough to ride out a peer mid-rebind
        // (a respawning rank re-binding its listener), fast enough that
        // a genuinely dead peer fails typed in tens of milliseconds.
        let mut stream = dial_with_backoff(
            &addr,
            DATA_DIAL_ATTEMPTS,
            DATA_DIAL_BASE,
            DATA_DIAL_CAP,
            ((self.rank as u64) << 32) | to as u64,
        )?;
        stream.set_nodelay(true)?;
        write_record(
            &mut stream,
            CTRL_HELLO,
            &encode_hello(self.rank, &self.listen_addr),
        )?;
        Ok(stream)
    }

    /// Writes one record to `to`, dialing or re-dialing as needed. A
    /// record that fails mid-write is retried whole on a fresh stream
    /// (the torn half died with the old socket).
    fn write_to(&self, to: Rank, tag: u64, payload: &[u8]) -> Result<(), LinkClosed> {
        let mut slot = self.out[to].lock();
        for attempt in 0..2 {
            let stream = match &mut *slot {
                Some(stream) => stream,
                empty => empty.insert(self.dial(to).map_err(|_| LinkClosed)?),
            };
            match write_record(stream, tag, payload) {
                Ok(()) => return Ok(()),
                Err(_) if attempt == 0 => *slot = None,
                Err(_) => return Err(LinkClosed),
            }
        }
        Err(LinkClosed)
    }
}

impl Transport for TcpTransport {
    fn world_size(&self) -> usize {
        self.world
    }

    fn send_raw(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), LinkClosed> {
        debug_assert!(tag < RESERVED_TAG_BASE, "fabric tag in reserved range");
        if to == self.rank {
            // Loop self-sends back locally, as the channel mesh does.
            return self.shared.inbox_tx[to]
                .send(Msg { tag, payload })
                .map_err(|_| LinkClosed);
        }
        self.write_to(to, tag, &payload)
    }

    fn recv_raw(
        &self,
        from: Rank,
        timeout: Option<Duration>,
    ) -> Result<(u64, Bytes), RawRecvError> {
        let rx = &self.inbox_rx[from];
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let slice = match deadline {
                None => RECV_POLL,
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(RawRecvError::Timeout);
                    }
                    RECV_POLL.min(remaining)
                }
            };
            match rx.recv_timeout(slice) {
                Ok(msg) => return Ok((msg.tag, msg.payload)),
                Err(RecvTimeoutError::Disconnected) => return Err(RawRecvError::Disconnected),
                Err(RecvTimeoutError::Timeout) => {
                    if from != self.rank && self.shared.closed[from].load(Ordering::Acquire) {
                        // Drained and posted dead: re-check the queue
                        // once (a record may have landed between the
                        // slice expiring and the board read), then give
                        // the typed fast-fail.
                        match rx.try_recv() {
                            Some(msg) => return Ok((msg.tag, msg.payload)),
                            None => return Err(RawRecvError::Disconnected),
                        }
                    }
                }
            }
        }
    }

    fn pool(&self) -> BufPool {
        self.shared.pool.clone()
    }

    fn barrier(&self) {
        let gen = self.barrier_gen.get() + 1;
        self.barrier_gen.set(gen);
        if self.world == 1 {
            return;
        }
        if self.rank == 0 {
            let mut early = self.early_arrivals.take();
            let mut arrived = 1 + early.remove(&gen).unwrap_or(0);
            while arrived < self.world {
                // `shared` holds the sender for as long as `self` lives.
                let (_, g) = self.arrive_rx.recv().expect("arrive channel open");
                if g == gen {
                    arrived += 1;
                } else {
                    *early.entry(g).or_insert(0) += 1;
                }
            }
            self.early_arrivals.set(early);
            let release = Writer::new(8).u64(gen).finish();
            for r in 1..self.world {
                let _ = self.write_to(r, CTRL_RELEASE, &release);
            }
        } else {
            let _ = self.write_to(0, CTRL_ARRIVE, &Writer::new(8).u64(gen).finish());
            loop {
                // `shared` holds the sender for as long as `self` lives.
                let g = self.release_rx.recv().expect("release channel open");
                if g >= gen {
                    return;
                }
            }
        }
    }

    fn post_death(&self, rank: Rank) {
        if rank >= self.world {
            return;
        }
        self.shared.dead[rank].store(true, Ordering::Release);
        if rank == self.rank {
            // A simulated kill latched locally: tell every peer's board,
            // the cross-process analogue of the shared atomic flag.
            for r in 0..self.world {
                if r != self.rank {
                    let _ = self.write_to(r, CTRL_DEATH, &[rank as u8]);
                }
            }
        }
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        rank < self.world && self.shared.dead[rank].load(Ordering::Acquire)
    }

    fn clear_death(&self, rank: Rank) {
        if rank < self.world {
            self.shared.dead[rank].store(false, Ordering::Release);
        }
    }

    fn reconnectable(&self) -> bool {
        self.reconnectable
    }

    fn reset_link(&self, to: Rank) {
        // Drop the outbound stream: the peer's reader observes a real
        // EOF, and the next send re-dials and re-HELLOs on a fresh
        // connection (bumping the peer's generation) — a genuine link
        // flap, not a simulated one.
        if to < self.world && to != self.rank {
            *self.out[to].lock() = None;
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Close every outgoing stream (peers' readers see EOF), then
        // poke our own listener so the acceptor observes the flag.
        for slot in &self.out {
            *slot.lock() = None;
        }
        let _ = TcpStream::connect(&self.listen_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_grow_exponentially_within_jitter_bounds() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(2);
        let mut prev_nominal = Duration::ZERO;
        for attempt in 0..8 {
            let nominal = base.saturating_mul(1u32 << attempt).min(cap);
            let d = backoff_delay(attempt, base, cap, 42);
            assert!(
                d >= nominal.div_f64(2.0) && d <= nominal,
                "attempt {attempt}: delay {d:?} outside [half, full] of {nominal:?}"
            );
            assert!(nominal >= prev_nominal, "schedule must be monotone");
            prev_nominal = nominal;
        }
        // Pure in the key: same attempt + seed, same delay.
        assert_eq!(
            backoff_delay(3, base, cap, 9),
            backoff_delay(3, base, cap, 9)
        );
        assert_ne!(
            backoff_delay(3, base, cap, 9),
            backoff_delay(3, base, cap, 10)
        );
    }

    #[test]
    fn dead_rendezvous_fails_typed_not_panicking() {
        // A listener bound then dropped: the port actively refuses.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = match TcpBootstrap::new(dead.clone(), 0, 2)
            .with_rendezvous_attempts(2)
            .connect()
        {
            Ok(_) => panic!("dead rendezvous must fail"),
            Err(e) => e,
        };
        match err {
            BootstrapError::Rendezvous { addr, attempts, .. } => {
                assert_eq!(addr, dead);
                assert_eq!(attempts, 2);
            }
            other => panic!("want Rendezvous error, got {other}"),
        }
    }

    #[test]
    fn dial_backoff_rides_out_a_late_binding_listener() {
        // Reserve a port, free it, and rebind it only after a delay —
        // the first connect attempts refuse, a later one lands.
        let (addr, listener) = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            (l.local_addr().unwrap(), l)
        };
        drop(listener);
        let addr_str = addr.to_string();
        let rebind = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let l = TcpListener::bind(addr).expect("rebind reserved port");
            let _ = l.accept();
        });
        let got = dial_with_backoff(
            &addr_str,
            6,
            Duration::from_millis(20),
            Duration::from_millis(200),
            7,
        );
        assert!(got.is_ok(), "backoff dial should land once bound: {got:?}");
        rebind.join().unwrap();
    }

    #[test]
    fn rendezvous_store_round_trips_and_prefills_a_restart() {
        let dir = std::env::temp_dir().join(format!("schemoe-rdv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("rendezvous.map");
        let _ = std::fs::remove_file(&store);

        // First incarnation: both ranks join, map is broadcast and
        // persisted, service exits (non-persistent).
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let rdv1 = l1.local_addr().unwrap().to_string();
        let s1 = store.clone();
        let serve1 =
            std::thread::spawn(move || serve_rendezvous_with_store(l1, 2, false, Some(s1)));
        let join = |rdv: String, rank: usize, addr: &str| -> String {
            let mut c = TcpStream::connect(&rdv).unwrap();
            c.write_all(format!("JOIN {rank} {addr}\n").as_bytes())
                .unwrap();
            let mut line = String::new();
            BufReader::new(c).read_line(&mut line).unwrap();
            line
        };
        let j0 = std::thread::spawn({
            let rdv = rdv1.clone();
            move || join(rdv, 0, "10.0.0.1:5000")
        });
        let map1 = join(rdv1, 1, "10.0.0.2:5001");
        assert_eq!(map1.trim(), "MAP 10.0.0.1:5000 10.0.0.2:5001");
        j0.join().unwrap();
        serve1.join().unwrap();
        assert_eq!(
            load_store(&store, 2),
            vec![
                Some("10.0.0.1:5000".to_string()),
                Some("10.0.0.2:5001".to_string())
            ]
        );

        // Second incarnation over the same store: pre-filled, so a
        // single rejoiner is answered immediately with the full map
        // (its own entry updated to the fresh address).
        let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let rdv2 = l2.local_addr().unwrap().to_string();
        let s2 = store.clone();
        std::thread::spawn(move || serve_rendezvous_with_store(l2, 2, true, Some(s2)));
        let map2 = join(rdv2, 1, "10.0.0.2:6001");
        assert_eq!(map2.trim(), "MAP 10.0.0.1:5000 10.0.0.2:6001");
        assert_eq!(
            load_store(&store, 2),
            vec![
                Some("10.0.0.1:5000".to_string()),
                Some("10.0.0.2:6001".to_string())
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_stores_degrade_to_partial_prefill() {
        let dir = std::env::temp_dir().join(format!("schemoe-rdv-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("rendezvous.map");
        std::fs::write(&store, "0 1.2.3.4:1\ngarbage\n9 out.of:range\n1\n").unwrap();
        assert_eq!(
            load_store(&store, 2),
            vec![Some("1.2.3.4:1".to_string()), None]
        );
        assert_eq!(load_store(&dir.join("missing.map"), 2), vec![None, None]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hello_keeps_its_bytes() {
        let hello = encode_hello(3, "127.0.0.1:5000");
        let hex: String = hello.iter().map(|x| format!("{x:02x}")).collect();
        assert_eq!(hex, "03000000000000003132372e302e302e313a35303030");
        assert_eq!(decode_hello(&hello), Some((3, "127.0.0.1:5000".into())));
        assert_eq!(decode_hello(&hello[..7]), None);
        assert_eq!(decode_hello(&[0, 0, 0, 0, 0, 0, 0, 0, 0xFF]), None);
    }

    #[test]
    fn records_round_trip_and_an_oversized_length_allocates_nothing() {
        let mut wire = Vec::new();
        write_record(&mut wire, 7, b"abc").unwrap();
        write_record(&mut wire, CTRL_HELLO, b"").unwrap();
        let pool = BufPool::default();
        let mut stream = &wire[..];
        let (tag, payload) = read_record(&mut stream, &pool).unwrap();
        assert_eq!((tag, payload.as_ref()), (7, &b"abc"[..]));
        let (tag, payload) = read_record(&mut stream, &pool).unwrap();
        assert_eq!((tag, payload.as_ref()), (CTRL_HELLO, &b""[..]));
        drop(payload);
        let eof = read_record(&mut stream, &pool).err().unwrap();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);

        let fresh = BufPool::default();
        for len in [MAX_RECORD + 1, u32::MAX] {
            let mut header = 9u64.to_le_bytes().to_vec();
            header.extend_from_slice(&len.to_le_bytes());
            let err = read_record(&mut &header[..], &fresh).err().unwrap();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        assert_eq!(fresh.usage(), (0, 0, 0), "nothing was checked out");
    }

    #[test]
    fn rendezvous_lines_are_bounded_and_keyworded() {
        // A line never ends: the read stops at the bound instead of
        // growing with what the peer sends.
        assert!(read_line(std::io::repeat(b'J')).is_err());
        assert!(read_line(&b"JOIN 0 a:1"[..]).is_err(), "unterminated");
        assert_eq!(read_line(&b"MAP a b\nrest"[..]).unwrap(), "MAP a b\n");

        assert_eq!(parse_join("JOIN 1 h:2\n", 2), Some((1, "h:2".into())));
        for bad in [
            "JOIN 2 h:2",
            "JOIN x h:2",
            "JOIN 1",
            "join 1 h:2",
            "MAP 1 h:2",
            "",
        ] {
            assert_eq!(parse_join(bad, 2), None, "{bad:?}");
        }
        assert_eq!(parse_map("MAP a b\n", 2).unwrap(), ["a", "b"]);
        for bad in ["NOPE a b", "a b", "MAP a", "MAP a b c", ""] {
            assert!(
                matches!(
                    parse_map(bad, 2),
                    Err(BootstrapError::BadMap { want: 2, .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn an_endless_join_line_does_not_wedge_the_rendezvous() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rdv = listener.local_addr().unwrap();
        let serve = std::thread::spawn(move || serve_rendezvous(listener, 1, false));
        // A peer that sends and sends but never ends its line, and stays.
        let mut babbler = TcpStream::connect(rdv).unwrap();
        babbler.write_all(&[b'x'; 64 << 10]).unwrap();
        let mut rank0 = TcpStream::connect(rdv).unwrap();
        rank0.write_all(b"JOIN 0 10.0.0.1:5000\n").unwrap();
        rank0
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(read_line(rank0).unwrap(), "MAP 10.0.0.1:5000\n");
        serve.join().unwrap();
    }

    #[test]
    fn a_reply_without_the_map_keyword_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rdv = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_line(&conn).unwrap();
            conn.write_all(b"NOPE 127.0.0.1:1 127.0.0.1:1\n").unwrap();
        });
        let got = TcpBootstrap::new(rdv, 0, 2)
            .with_rendezvous_attempts(1)
            .connect();
        assert!(matches!(
            got,
            Err(BootstrapError::BadMap { got: 0, want: 2 })
        ));
        fake.join().unwrap();
    }

    proptest::proptest! {
        /// Arbitrary bytes through the HELLO decoder and the three line
        /// parsers: a value in range or nothing, never a panic.
        #[test]
        fn hostile_hellos_and_lines_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
            world in 1usize..8,
        ) {
            if let Some((rank, addr)) = decode_hello(&bytes) {
                proptest::prop_assert_eq!(encode_hello(rank, &addr), bytes.clone());
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Some((rank, addr)) = parse_join(&text, world) {
                proptest::prop_assert!(rank < world && !addr.is_empty());
            }
            if let Ok(addrs) = parse_map(&text, world) {
                proptest::prop_assert_eq!(addrs.len(), world);
            }
            proptest::prop_assert_eq!(parse_store(&text, world).len(), world);
        }

        /// A record stream that turns hostile after any number of good
        /// records — cut anywhere, a length past the cap, a length past
        /// the bytes present — yields every good record exactly, then an
        /// error, never a panic, and leaves no buffer checked out.
        #[test]
        fn hostile_record_streams_end_in_an_error(
            good in proptest::collection::vec(
                (0u64..=u64::MAX, proptest::collection::vec(0u8..=255, 0..40)),
                0..4,
            ),
            tail in 0u8..3,
            extra in 1u32..64,
            cut in 0usize..400,
        ) {
            let mut wire = Vec::new();
            for (tag, payload) in &good {
                write_record(&mut wire, *tag, payload).unwrap();
            }
            let clean = wire.len();
            match tail {
                0 => wire.truncate(cut % (clean + 1)),
                1 => {
                    wire.extend_from_slice(&5u64.to_le_bytes());
                    wire.extend_from_slice(&(MAX_RECORD + extra).to_le_bytes());
                }
                _ => {
                    wire.extend_from_slice(&5u64.to_le_bytes());
                    wire.extend_from_slice(&extra.to_le_bytes());
                    wire.extend_from_slice(&vec![0; extra as usize - 1]);
                }
            }
            let pool = BufPool::default();
            let mut stream = &wire[..];
            let mut read = 0;
            while let Ok((tag, payload)) = read_record(&mut stream, &pool) {
                proptest::prop_assert_eq!((tag, payload.as_ref()), (good[read].0, &good[read].1[..]));
                read += 1;
            }
            proptest::prop_assert!(read <= good.len());
            proptest::prop_assert!(tail != 0 || wire.len() < clean || read == good.len());
            proptest::prop_assert_eq!(pool.usage().0, 0);
        }
    }
}
