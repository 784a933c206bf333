//! The load generator: drives a loopback daemon through the public
//! [`Client`] with a workload's [`Plan`], on two threads and two
//! connections. The calling thread submits at the scheduled times (and
//! keeps `reindex`'s Bulk backlog topped up); a second thread polls. A
//! request's latency runs from the time it was *due*, so a stalled
//! submitter charges its lateness to the requests behind it.

use crate::trace::Tracer;
use crate::traffic::{self, Plan, BULK_BACKLOG};
use mpirical::{SubmitOptions, SuggestPoll};
use mpirical_server::{Client, Submitted};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long outstanding work may take to finish after the window closes
/// before it counts as failed.
const TAIL_LIMIT: Duration = Duration::from_secs(90);
/// After each Bulk Submit the re-index leaves the submit connection idle
/// for this many times as long as that Submit took, as a background
/// indexer that keeps most of the connection for keystrokes. Without the
/// pause Bulk Submits fill the connection and the daemon's service thread,
/// and on a 2-core host Interactive latency then swings with any other
/// load on the machine.
const BULK_YIELD: u32 = 3;
/// How long each client keeps a connection before it opens a fresh one.
/// Each connection settles into one TCP acknowledgement pattern against
/// the daemon, which either adds about 40 ms to every reply or not; a run
/// that kept one connection would inherit that chance for its whole
/// length.
const RECONNECT: Duration = Duration::from_secs(5);
/// Pause between poll sweeps (as [`Client::wait`] does), so a fast wire
/// never turns the poller into a busy loop on the service thread.
const POLL_PAUSE: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Interactive,
    Bulk,
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum End {
    /// Redeemed as `Done`; the payload as it came off the wire.
    Done(SuggestPoll),
    /// Shed with `Busy`.
    Busy,
    /// Refused with `Rejected`.
    Rejected,
    /// Cancelled, Unknown, a transport error, or still pending past the
    /// tail limit.
    Error(String),
}

/// One request as the load generator saw it. Times are offsets from the
/// window's opening.
#[derive(Debug, Clone)]
pub struct Sent {
    pub class: Class,
    pub source: Arc<str>,
    pub options: SubmitOptions,
    pub repeat: bool,
    /// When it should have been sent.
    pub due: Duration,
    /// When the Submit call started.
    pub sent: Duration,
    pub submit_rtt: Duration,
    pub ticket: Option<u64>,
    pub polls: u32,
    /// When a poll first observed its final state.
    pub finished: Option<Duration>,
    pub end: End,
}

impl Sent {
    /// Latency from due time to the poll that observed `Done`.
    pub fn latency(&self) -> Option<Duration> {
        match (&self.end, self.finished) {
            (End::Done(_), Some(f)) => Some(f.saturating_sub(self.due)),
            _ => None,
        }
    }

    pub fn decode_steps(&self) -> u64 {
        match &self.end {
            End::Done(SuggestPoll::Done { telemetry, .. }) => telemetry.decode_steps,
            _ => 0,
        }
    }
}

/// Everything one pass over the window produced.
#[derive(Debug)]
pub struct Pass {
    pub window: Duration,
    pub requests: Vec<Sent>,
    pub tracer: Tracer,
}

impl Pass {
    /// Whether request `s` was finished as `Done` inside the window.
    pub fn done_in_window(&self, s: &Sent) -> bool {
        s.latency().is_some() && s.finished.is_some_and(|f| f <= self.window)
    }
}

/// Drive one pass of `plan` against the daemon at `addr` for `window`,
/// recording Submit and Poll spans only if `traced`.
pub fn run_pass(
    addr: SocketAddr,
    plan: &Plan,
    window: Duration,
    traced: bool,
) -> std::io::Result<Pass> {
    let mut submitter = Client::connect(addr)?;
    let poll_client = Client::connect(addr)?;
    let mut connected = Duration::ZERO;
    let start = Instant::now();
    let (track_tx, track_rx) = channel::<ToPoller>();
    let (bulk_done_tx, bulk_done_rx) = channel::<()>();
    let poller = std::thread::spawn(move || {
        poll_loop(
            poll_client,
            addr,
            track_rx,
            bulk_done_tx,
            start,
            window,
            traced,
        )
    });

    let mut tracer = Tracer::new(start, traced);
    let mut arrivals = plan.arrivals.iter().peekable();
    let mut bulk = plan.bulk.iter();
    let mut topups = if plan.bulk.is_empty() {
        0
    } else {
        BULK_BACKLOG
    };
    // No Bulk Submit before this time (see `BULK_YIELD`): at most a
    // quarter of the connection's time goes to Bulk work.
    let mut bulk_after = Duration::ZERO;
    loop {
        let now = start.elapsed();
        // Due Interactive arrivals go first; Bulk refills fill the gaps.
        let next: Option<(Class, Arc<str>, SubmitOptions, bool, Duration)> = match arrivals.peek() {
            Some(a) if a.at <= now => {
                let a = arrivals.next().expect("peeked");
                Some((
                    Class::Interactive,
                    Arc::clone(&a.buffer.source),
                    traffic::interactive_options(),
                    a.buffer.repeat,
                    a.at,
                ))
            }
            _ if topups > 0 && now < window && now >= bulk_after => match bulk.next() {
                Some(src) => {
                    topups -= 1;
                    Some((
                        Class::Bulk,
                        Arc::clone(src),
                        SubmitOptions::bulk(),
                        false,
                        now,
                    ))
                }
                None => {
                    topups = 0;
                    None
                }
            },
            _ => None,
        };
        if let Some((class, source, options, repeat, due)) = next {
            if now - connected >= RECONNECT {
                submitter = Client::connect(addr)?;
                connected = start.elapsed();
            }
            let sent = submit(
                &mut submitter,
                &mut tracer,
                start,
                class,
                source,
                options,
                repeat,
                due,
            );
            if class == Class::Bulk {
                bulk_after = start.elapsed() + sent.submit_rtt * BULK_YIELD;
            }
            if track_tx.send(ToPoller::Track(Box::new(sent))).is_err() {
                break;
            }
            continue;
        }
        if arrivals.peek().is_none() && now >= window {
            break;
        }
        // Sleep until the next arrival or the end of the Bulk pause,
        // waking early for a Bulk refill.
        let mut wait = arrivals
            .peek()
            .map_or(window.saturating_sub(now), |a| a.at.saturating_sub(now));
        if topups > 0 && now < window {
            wait = wait.min(bulk_after.saturating_sub(now));
        }
        let wait = wait.max(Duration::from_micros(50));
        match bulk_done_rx.recv_timeout(wait) {
            Ok(()) => topups += 1,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = track_tx.send(ToPoller::Close);
    let (requests, poll_tracer) = poller.join().expect("poller thread panicked");
    tracer.absorb(poll_tracer);
    Ok(Pass {
        window,
        requests,
        tracer,
    })
}

enum ToPoller {
    Track(Box<Sent>),
    Close,
}

#[allow(clippy::too_many_arguments)]
fn submit(
    client: &mut Client,
    tracer: &mut Tracer,
    start: Instant,
    class: Class,
    source: Arc<str>,
    options: SubmitOptions,
    repeat: bool,
    due: Duration,
) -> Sent {
    let sent = start.elapsed();
    let reply = client.submit_with(&source, options);
    let replied = start.elapsed();
    let (ticket, end) = match reply {
        Ok(Submitted::Ticket(id)) => (Some(id), End::Error("never polled".into())),
        Ok(Submitted::Busy { .. }) => (None, End::Busy),
        Ok(Submitted::Rejected { .. }) => (None, End::Rejected),
        Err(e) => (None, End::Error(format!("submit: {e}"))),
    };
    tracer.record("submit", ticket.unwrap_or(u64::MAX), sent, replied);
    Sent {
        class,
        source,
        options,
        repeat,
        due,
        sent,
        submit_rtt: replied - sent,
        ticket,
        polls: 0,
        finished: None,
        end,
    }
}

/// Poll one ticket once. Returns `true` when the request reached a final
/// state (recorded in `s`).
fn poll_once(client: &mut Client, tracer: &mut Tracer, start: Instant, s: &mut Sent) -> bool {
    let id = s.ticket.expect("only admitted requests are polled");
    s.polls += 1;
    let reply = tracer.time("poll", id, || client.poll(id));
    let end = match reply {
        Ok(SuggestPoll::Queued { .. }) | Ok(SuggestPoll::Decoding { .. }) => return false,
        Ok(done @ SuggestPoll::Done { .. }) => End::Done(done),
        Ok(other) => End::Error(format!("poll ended as {other:?}")),
        Err(e) => End::Error(format!("poll: {e}")),
    };
    s.finished = Some(start.elapsed());
    s.end = end;
    true
}

/// Poll once; a request still pending once `overdue` is given up as failed.
/// Returns `true` when the request is settled.
fn settle(
    client: &mut Client,
    tracer: &mut Tracer,
    start: Instant,
    s: &mut Sent,
    overdue: bool,
) -> bool {
    if poll_once(client, tracer, start, s) {
        return true;
    }
    if overdue {
        s.end = End::Error("still pending past the tail limit".into());
    }
    overdue
}

/// The poller: every sweep polls each outstanding Interactive ticket once
/// and then one Bulk ticket (round robin), as an editor would favour the
/// buffer under the cursor over a background re-index.
#[allow(clippy::too_many_arguments)]
fn poll_loop(
    mut client: Client,
    addr: SocketAddr,
    rx: Receiver<ToPoller>,
    bulk_done: Sender<()>,
    start: Instant,
    window: Duration,
    traced: bool,
) -> (Vec<Sent>, Tracer) {
    let mut tracer = Tracer::new(start, traced);
    let mut interactive: Vec<Sent> = Vec::new();
    let mut bulk: VecDeque<Sent> = VecDeque::new();
    let mut finished: Vec<Sent> = Vec::new();
    let mut closed = false;
    let mut connected = Duration::ZERO;
    let track = |msg: ToPoller,
                 closed: &mut bool,
                 interactive: &mut Vec<Sent>,
                 bulk: &mut VecDeque<Sent>,
                 finished: &mut Vec<Sent>| match msg {
        ToPoller::Track(s) if s.ticket.is_none() => finished.push(*s),
        ToPoller::Track(s) if s.class == Class::Bulk => bulk.push_back(*s),
        ToPoller::Track(s) => interactive.push(*s),
        ToPoller::Close => *closed = true,
    };
    loop {
        loop {
            match rx.try_recv() {
                Ok(msg) => track(msg, &mut closed, &mut interactive, &mut bulk, &mut finished),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
        }
        if interactive.is_empty() && bulk.is_empty() {
            if closed {
                break;
            }
            match rx.recv() {
                Ok(msg) => track(msg, &mut closed, &mut interactive, &mut bulk, &mut finished),
                Err(_) => closed = true,
            }
            continue;
        }
        if start.elapsed() - connected >= RECONNECT {
            if let Ok(fresh) = Client::connect(addr) {
                client = fresh;
                connected = start.elapsed();
            }
        }
        let overdue = closed && start.elapsed() > window + TAIL_LIMIT;
        // Oldest first, so a late ticket never waits behind newer ones.
        let mut i = 0;
        while i < interactive.len() {
            if settle(
                &mut client,
                &mut tracer,
                start,
                &mut interactive[i],
                overdue,
            ) {
                finished.push(interactive.remove(i));
            } else {
                i += 1;
            }
        }
        if let Some(mut s) = bulk.pop_front() {
            if settle(&mut client, &mut tracer, start, &mut s, overdue) {
                if matches!(s.end, End::Done(_)) {
                    let _ = bulk_done.send(());
                }
                finished.push(s);
            } else {
                bulk.push_back(s);
            }
        }
        std::thread::sleep(POLL_PAUSE);
    }
    (finished, tracer)
}
