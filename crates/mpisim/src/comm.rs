//! The communicator: point-to-point messaging and collectives.
//!
//! Each rank owns a mailbox (`parking_lot::Mutex<VecDeque<Envelope>>` + a
//! condvar). `send` is buffered (never blocks), `recv` scans the mailbox for
//! the *first* envelope matching `(source, tag)` — wildcards included — which
//! preserves MPI's non-overtaking guarantee: messages from the same sender
//! with the same tag are received in send order.
//!
//! Collectives are built on p2p with reserved negative tags. MPI requires
//! every rank to execute collectives in the same order, so a per-rank
//! collective sequence number embedded in the tag keeps consecutive
//! collectives from cross-talking.

use crate::datatype::{Datatype, ReduceOp, Reducible};
use crate::error::{BlockedOp, SimError};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Receive source selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Rank(usize),
    /// `MPI_ANY_SOURCE`
    Any,
}

/// Receive tag selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Value(i32),
    /// `MPI_ANY_TAG`
    Any,
}

/// Completed-receive metadata (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub source: usize,
    pub tag: i32,
    /// Element count of the received message.
    pub count: usize,
}

#[derive(Debug)]
struct Envelope {
    src: usize,
    tag: i32,
    dtype: &'static str,
    payload: Bytes,
}

#[derive(Default)]
struct Mailbox {
    queue: VecDeque<Envelope>,
}

pub(crate) struct Shared {
    mailboxes: Vec<Mutex<Mailbox>>,
    arrivals: Vec<Condvar>,
    aborted: AtomicBool,
    abort_info: Mutex<Option<(usize, i32)>>,
    start: Instant,
    timeout: Duration,
    /// Per-rank pending blocking operation, registered while a rank waits in
    /// `recv`/`coll_recv`. A timeout snapshots this registry so the resulting
    /// `SimError::Deadlock` can name every blocked rank — the signal a
    /// verifier needs to tell a genuine wait cycle from a lone slow rank.
    /// These are leaf locks: never acquired while waiting on a mailbox.
    pending: Vec<Mutex<Option<String>>>,
}

impl Shared {
    pub(crate) fn new(nranks: usize, timeout: Duration) -> Arc<Shared> {
        Arc::new(Shared {
            mailboxes: (0..nranks)
                .map(|_| Mutex::new(Mailbox::default()))
                .collect(),
            arrivals: (0..nranks).map(|_| Condvar::new()).collect(),
            aborted: AtomicBool::new(false),
            abort_info: Mutex::new(None),
            start: Instant::now(),
            timeout,
            pending: (0..nranks).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// All ranks currently blocked in a pending operation, rank order.
    fn blocked_snapshot(&self) -> Vec<BlockedOp> {
        self.pending
            .iter()
            .enumerate()
            .filter_map(|(rank, slot)| slot.lock().clone().map(|op| BlockedOp { rank, op }))
            .collect()
    }
}

/// Clears a rank's pending-operation slot on every exit path of a blocking
/// receive (match, error, abort wake-up) except a timeout: see
/// [`keep`](PendingGuard::keep).
struct PendingGuard<'a> {
    slot: &'a Mutex<Option<String>>,
}

impl PendingGuard<'_> {
    /// Leave the slot registered. A rank whose receive timed out is still
    /// stuck in that operation as far as its peers can tell; clearing it
    /// would let a peer whose own (slightly later) deadline fires next
    /// report a cycle with one rank missing, depending on which thread
    /// happened to start first.
    fn keep(self) {
        std::mem::forget(self);
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        *self.slot.lock() = None;
    }
}

/// A rank's handle on the simulated world — the `MPI_COMM_WORLD` analogue.
pub struct Comm {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    /// Per-rank collective sequence number (all ranks advance in lockstep
    /// because MPI mandates identical collective order).
    coll_seq: std::cell::Cell<u32>,
}

/// Base of the reserved (negative) tag space for collectives.
const COLL_TAG_BASE: i32 = -2;

impl Comm {
    pub(crate) fn new(rank: usize, size: usize, shared: Arc<Shared>) -> Comm {
        Comm {
            rank,
            size,
            shared,
            coll_seq: std::cell::Cell::new(0),
        }
    }

    /// This rank's id (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Seconds since the world started (`MPI_Wtime`).
    pub fn wtime(&self) -> f64 {
        self.shared.start.elapsed().as_secs_f64()
    }

    /// `MPI_Abort`: mark the world aborted and return the error.
    pub fn abort(&self, code: i32) -> SimError {
        self.shared.aborted.store(true, Ordering::SeqCst);
        *self.shared.abort_info.lock() = Some((self.rank, code));
        // Wake everyone so blocked receives notice.
        for cv in &self.shared.arrivals {
            cv.notify_all();
        }
        SimError::Aborted {
            rank: self.rank,
            code,
        }
    }

    fn check_rank(&self, r: usize) -> Result<(), SimError> {
        if r >= self.size {
            Err(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: r as isize,
            })
        } else {
            Ok(())
        }
    }

    fn post(&self, dest: usize, tag: i32, dtype: &'static str, payload: Bytes) {
        let mut mb = self.shared.mailboxes[dest].lock();
        mb.queue.push_back(Envelope {
            src: self.rank,
            tag,
            dtype,
            payload,
        });
        drop(mb);
        self.shared.arrivals[dest].notify_all();
    }

    /// Buffered standard send (`MPI_Send`): never blocks.
    pub fn send<T: Datatype>(&self, buf: &[T], dest: usize, tag: i32) -> Result<(), SimError> {
        self.check_rank(dest)?;
        self.post(dest, tag, T::NAME, T::serialize(buf));
        Ok(())
    }

    /// Blocking receive (`MPI_Recv`). Fills `buf` with up to `buf.len()`
    /// elements; errors on datatype mismatch or if the message is larger
    /// than the buffer.
    pub fn recv<T: Datatype>(
        &self,
        buf: &mut [T],
        source: Source,
        tag: Tag,
    ) -> Result<Status, SimError> {
        if let Source::Rank(r) = source {
            self.check_rank(r)?;
        }
        let deadline = Instant::now() + self.shared.timeout;
        *self.shared.pending[self.rank].lock() =
            Some(format!("recv(source={source:?}, tag={tag:?})"));
        let pending = PendingGuard {
            slot: &self.shared.pending[self.rank],
        };
        let mut mb = self.shared.mailboxes[self.rank].lock();
        loop {
            if self.shared.aborted.load(Ordering::SeqCst) {
                let (rank, code) = self.shared.abort_info.lock().unwrap_or((self.rank, -1));
                return Err(SimError::Aborted { rank, code });
            }
            let found = mb.queue.iter().position(|e| {
                let src_ok = match source {
                    Source::Any => true,
                    Source::Rank(r) => e.src == r,
                };
                let tag_ok = match tag {
                    Tag::Any => e.tag >= 0, // wildcards never match collective traffic
                    Tag::Value(t) => e.tag == t,
                };
                src_ok && tag_ok
            });
            if let Some(idx) = found {
                let env = mb.queue.remove(idx).expect("index valid");
                drop(mb);
                if env.dtype != T::NAME {
                    return Err(SimError::TypeMismatch {
                        rank: self.rank,
                        expected: T::NAME,
                        actual: env.dtype,
                    });
                }
                let values = T::deserialize(&env.payload);
                if values.len() > buf.len() {
                    return Err(SimError::Truncation {
                        rank: self.rank,
                        buffer: buf.len(),
                        incoming: values.len(),
                    });
                }
                buf[..values.len()].copy_from_slice(&values);
                return Ok(Status {
                    source: env.src,
                    tag: env.tag,
                    count: values.len(),
                });
            }
            let timed_out = self.shared.arrivals[self.rank]
                .wait_until(&mut mb, deadline)
                .timed_out();
            if timed_out {
                pending.keep();
                return Err(SimError::Deadlock {
                    rank: self.rank,
                    detail: format!("recv(source={source:?}, tag={tag:?}) timed out"),
                    blocked: self.shared.blocked_snapshot(),
                });
            }
        }
    }

    /// `MPI_Sendrecv`: post the send, then receive. Safe against pairwise
    /// exchanges because sends are buffered.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv<T: Datatype>(
        &self,
        send_buf: &[T],
        dest: usize,
        send_tag: i32,
        recv_buf: &mut [T],
        source: Source,
        recv_tag: Tag,
    ) -> Result<Status, SimError> {
        self.send(send_buf, dest, send_tag)?;
        self.recv(recv_buf, source, recv_tag)
    }

    // -- collectives ---------------------------------------------------------

    fn next_coll_tag(&self) -> i32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        COLL_TAG_BASE - (seq % 1_000_000) as i32
    }

    /// Internal p2p with a collective (negative) tag.
    fn coll_send<T: Datatype>(&self, buf: &[T], dest: usize, tag: i32) -> Result<(), SimError> {
        self.check_rank(dest)?;
        self.post(dest, tag, T::NAME, T::serialize(buf));
        Ok(())
    }

    fn coll_recv<T: Datatype>(
        &self,
        buf: &mut [T],
        source: usize,
        tag: i32,
    ) -> Result<Status, SimError> {
        let deadline = Instant::now() + self.shared.timeout;
        *self.shared.pending[self.rank].lock() =
            Some(format!("collective recv(source={source}, tag={tag})"));
        let pending = PendingGuard {
            slot: &self.shared.pending[self.rank],
        };
        let mut mb = self.shared.mailboxes[self.rank].lock();
        loop {
            if self.shared.aborted.load(Ordering::SeqCst) {
                let (rank, code) = self.shared.abort_info.lock().unwrap_or((self.rank, -1));
                return Err(SimError::Aborted { rank, code });
            }
            let found = mb
                .queue
                .iter()
                .position(|e| e.src == source && e.tag == tag);
            if let Some(idx) = found {
                let env = mb.queue.remove(idx).expect("index valid");
                drop(mb);
                if env.dtype != T::NAME {
                    return Err(SimError::TypeMismatch {
                        rank: self.rank,
                        expected: T::NAME,
                        actual: env.dtype,
                    });
                }
                let values = T::deserialize(&env.payload);
                if values.len() > buf.len() {
                    return Err(SimError::Truncation {
                        rank: self.rank,
                        buffer: buf.len(),
                        incoming: values.len(),
                    });
                }
                buf[..values.len()].copy_from_slice(&values);
                return Ok(Status {
                    source: env.src,
                    tag: env.tag,
                    count: values.len(),
                });
            }
            let timed_out = self.shared.arrivals[self.rank]
                .wait_until(&mut mb, deadline)
                .timed_out();
            if timed_out {
                pending.keep();
                return Err(SimError::Deadlock {
                    rank: self.rank,
                    detail: format!("collective recv from {source} (tag {tag}) timed out"),
                    blocked: self.shared.blocked_snapshot(),
                });
            }
        }
    }

    /// `MPI_Barrier`: dissemination via gather-to-0 + broadcast.
    pub fn barrier(&self) -> Result<(), SimError> {
        let tag = self.next_coll_tag();
        let token = [0u8];
        if self.rank == 0 {
            let mut buf = [0u8];
            for r in 1..self.size {
                self.coll_recv(&mut buf, r, tag)?;
            }
            for r in 1..self.size {
                self.coll_send(&token, r, tag)?;
            }
        } else {
            self.coll_send(&token, 0, tag)?;
            let mut buf = [0u8];
            self.coll_recv(&mut buf, 0, tag)?;
        }
        Ok(())
    }

    /// `MPI_Bcast`: root's buffer is copied into every rank's buffer.
    pub fn bcast<T: Datatype>(&self, buf: &mut [T], root: usize) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            for r in 0..self.size {
                if r != root {
                    self.coll_send(buf, r, tag)?;
                }
            }
        } else {
            self.coll_recv(buf, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Reduce` with deterministic (rank-ordered) combination at root.
    pub fn reduce<T: Reducible>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        op: ReduceOp,
        root: usize,
    ) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            let recv = recv.ok_or(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: -1,
            })?;
            assert!(recv.len() >= send.len(), "reduce recv buffer too small");
            let n = send.len();
            // Accumulate in rank order 0,1,2,… for bit-reproducibility.
            let mut acc: Vec<T> = Vec::with_capacity(n);
            let mut tmp = vec![send[0]; n];
            for r in 0..self.size {
                let contrib: &[T] = if r == self.rank {
                    send
                } else {
                    self.coll_recv(&mut tmp, r, tag)?;
                    &tmp
                };
                if acc.is_empty() {
                    acc.extend_from_slice(contrib);
                } else {
                    for (a, &c) in acc.iter_mut().zip(contrib) {
                        *a = op.combine(*a, c);
                    }
                }
            }
            recv[..n].copy_from_slice(&acc);
        } else {
            self.coll_send(send, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Allreduce` = reduce to 0 + broadcast.
    pub fn allreduce<T: Reducible>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
    ) -> Result<(), SimError> {
        if self.rank == 0 {
            self.reduce(send, Some(recv), op, 0)?;
        } else {
            self.reduce(send, None, op, 0)?;
        }
        self.bcast(&mut recv[..send.len()], 0)
    }

    /// `MPI_Gather`: every rank contributes `send`; root receives them
    /// concatenated in rank order.
    pub fn gather<T: Datatype>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        root: usize,
    ) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            let recv = recv.ok_or(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: -1,
            })?;
            let n = send.len();
            assert!(
                recv.len() >= n * self.size,
                "gather recv buffer too small: {} < {}",
                recv.len(),
                n * self.size
            );
            for r in 0..self.size {
                if r == self.rank {
                    recv[r * n..(r + 1) * n].copy_from_slice(send);
                } else {
                    self.coll_recv(&mut recv[r * n..(r + 1) * n], r, tag)?;
                }
            }
        } else {
            self.coll_send(send, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Scatter`: root's buffer is split into equal chunks delivered in
    /// rank order.
    pub fn scatter<T: Datatype>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        root: usize,
    ) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        let n = recv.len();
        if self.rank == root {
            let send = send.ok_or(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: -1,
            })?;
            assert!(
                send.len() >= n * self.size,
                "scatter send buffer too small: {} < {}",
                send.len(),
                n * self.size
            );
            for r in 0..self.size {
                if r == self.rank {
                    recv.copy_from_slice(&send[r * n..(r + 1) * n]);
                } else {
                    self.coll_send(&send[r * n..(r + 1) * n], r, tag)?;
                }
            }
        } else {
            self.coll_recv(recv, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Allgather` = gather to 0 + broadcast of the concatenation.
    pub fn allgather<T: Datatype>(&self, send: &[T], recv: &mut [T]) -> Result<(), SimError> {
        if self.rank == 0 {
            self.gather(send, Some(recv), 0)?;
        } else {
            self.gather(send, None, 0)?;
        }
        self.bcast(recv, 0)
    }
}
