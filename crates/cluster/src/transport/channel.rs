//! Reference transport: ranks are threads, links are unbounded channels.
//!
//! This is the original in-process fabric interconnect, unchanged in
//! behavior: one channel per ordered rank pair so sends never block, a
//! [`std::sync::Barrier`] shared by the mesh, and a process-local
//! liveness board of atomics. Records travel as the fabric hands them
//! over: the sealed `[len][epoch][crc32][payload]` frame every backend
//! carries, moved by reference, never copied.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use super::{LinkClosed, RawRecvError, Transport};
use crate::topology::Rank;

struct Msg {
    tag: u64,
    payload: Bytes,
}

/// One rank's endpoint into an in-process channel mesh.
pub struct ChannelTransport {
    senders: Vec<Sender<Msg>>,
    receivers: Vec<Receiver<Msg>>,
    barrier: Arc<Barrier>,
    dead_board: Arc<Vec<AtomicBool>>,
}

/// Builds the full p×p channel mesh and returns one endpoint per rank.
pub fn mesh(world: usize) -> Vec<ChannelTransport> {
    // channel[i][j]: endpoint pair carrying messages from i to j.
    let mut senders: Vec<Vec<Option<Sender<Msg>>>> = Vec::with_capacity(world);
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> = (0..world)
        .map(|_| (0..world).map(|_| None).collect::<Vec<_>>())
        .collect();
    for i in 0..world {
        let mut row = Vec::with_capacity(world);
        for j in 0..world {
            let (tx, rx) = unbounded();
            row.push(Some(tx));
            receivers[j][i] = Some(rx);
        }
        senders.push(row);
    }
    let barrier = Arc::new(Barrier::new(world));
    let dead_board = Arc::new(
        (0..world)
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>(),
    );
    senders
        .into_iter()
        .zip(receivers)
        .map(|(sender_row, receiver_row)| ChannelTransport {
            senders: sender_row.into_iter().map(|s| s.expect("filled")).collect(),
            receivers: receiver_row
                .into_iter()
                .map(|r| r.expect("filled"))
                .collect(),
            barrier: Arc::clone(&barrier),
            dead_board: Arc::clone(&dead_board),
        })
        .collect()
}

impl Transport for ChannelTransport {
    fn world_size(&self) -> usize {
        self.senders.len()
    }

    fn send_raw(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), LinkClosed> {
        self.senders[to]
            .send(Msg { tag, payload })
            .map_err(|_| LinkClosed)
    }

    fn recv_raw(
        &self,
        from: Rank,
        timeout: Option<Duration>,
    ) -> Result<(u64, Bytes), RawRecvError> {
        match timeout {
            None => self.receivers[from]
                .recv()
                .map(|m| (m.tag, m.payload))
                .map_err(|_| RawRecvError::Disconnected),
            Some(t) => self.receivers[from]
                .recv_timeout(t)
                .map(|m| (m.tag, m.payload))
                .map_err(|e| match e {
                    RecvTimeoutError::Timeout => RawRecvError::Timeout,
                    RecvTimeoutError::Disconnected => RawRecvError::Disconnected,
                }),
        }
    }

    fn barrier(&self) {
        self.barrier.wait();
    }

    fn post_death(&self, rank: Rank) {
        if rank < self.dead_board.len() {
            self.dead_board[rank].store(true, Ordering::Release);
        }
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        rank < self.dead_board.len() && self.dead_board[rank].load(Ordering::Acquire)
    }

    fn clear_death(&self, rank: Rank) {
        if rank < self.dead_board.len() {
            self.dead_board[rank].store(false, Ordering::Release);
        }
    }

    fn reconnectable(&self) -> bool {
        false
    }
}
