//! One endpoint on one real UDP socket, driven by a thread.

use crate::flow::{Flow, Outlet};
use crate::hub::MAX_DGRAM;
use rmcast::{AppEvent, Dest, Endpoint};
use rmwire::{Rank, Time};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender as ChanSender;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

/// Address book mapping protocol destinations to socket addresses, and to
/// the in-flight gauge of each of those sockets. [`crate::cluster`] builds
/// it, once the sockets are bound.
#[derive(Debug, Clone)]
pub struct Addresses {
    /// The sender's socket.
    pub sender: SocketAddr,
    /// Receiver sockets by receiver index.
    pub receivers: Vec<SocketAddr>,
    /// The hub relaying group traffic.
    pub hub: SocketAddr,
    /// One gauge per socket above, shared by every thread of the cluster.
    pub(crate) flow: Arc<Flow>,
}

impl Addresses {
    /// The socket address of `d` and the index of its gauge.
    fn resolve(&self, d: Dest) -> (SocketAddr, usize) {
        match d {
            Dest::Sender => (self.sender, 0),
            Dest::Rank(r) => (self.receivers[r.receiver_index()], r.0 as usize),
            Dest::Receivers => (self.hub, self.flow.hub()),
        }
    }
}

/// What a node thread reports to the coordinator.
#[derive(Debug)]
pub enum Report {
    /// An application event from the node's endpoint.
    App {
        /// Reporting node's rank (0 = sender).
        rank: Rank,
        /// Wall-clock time since the run's epoch when it was polled.
        at: StdDuration,
        /// The event, as the endpoint produced it.
        ev: AppEvent,
    },
    /// The node thread exited. Boxed: the counter block dwarfs an event.
    Finished {
        /// Node rank (0 = sender).
        rank: Rank,
        /// Final counters.
        stats: Box<rmcast::Stats>,
    },
}

/// Most datagrams a loop pulls from its socket before it looks at timers,
/// transmits and the stop flag again: more than the 12 full-size datagrams
/// a default buffer holds, so one pass empties it, yet a flood cannot keep
/// a loop receiving for ever.
pub(crate) const RX_BATCH: usize = 32;

/// How long a loop that has nothing to do keeps polling (`yield_now()`
/// between passes) before it blocks in `recv_from`. A blocked reader costs
/// whoever sends to it next a cross-CPU wake-up inside `send_to`, and
/// itself four system calls around the wait; the gaps inside a transfer
/// (a window waiting for its acknowledgment) are tens of microseconds.
/// 0/100/200/400/1 000 µs read, per `udp_bulk` call (median `elapsed`,
/// three rounds of 1 000): 3 181–3 396 / 1 837–2 405 / 1 741–1 806 /
/// 1 819–1 838 / 1 808–1 846 µs, and wall time around the call (a loop
/// that is still polling sees `stop` at once, one that blocked sleeps out
/// its cap) 9.2–14.4 / 6.8–7.7 / 3.1–3.8 / 2.5–2.7 / 2.4–2.9 ms. 200 µs is
/// the shortest that gets what staying hot has to give to a transfer;
/// longer only buys cheaper joins with more spinning.
pub(crate) const LINGER: StdDuration = StdDuration::from_micros(200);

/// Longest an idle loop blocks in `recv_from` before it looks at the stop
/// flag again. It bounds how long `run_cluster` waits for its threads to
/// join once a run is over, so it is a few milliseconds, not the 120 ms an
/// RTO deadline would allow.
pub(crate) const STOP_CHECK_CAP: StdDuration = StdDuration::from_millis(4);

/// The read timeout for an idle `recv_from`: until the endpoint's next
/// timer deadline, but never longer than `cap` and never zero (which
/// `set_read_timeout` rejects). `None` when the deadline is already due:
/// the caller must not block at all.
pub(crate) fn idle_wait(
    deadline: Option<Time>,
    now: Time,
    cap: StdDuration,
) -> Option<StdDuration> {
    let Some(deadline) = deadline else {
        return Some(cap);
    };
    let nanos = deadline.as_nanos().saturating_sub(now.as_nanos());
    (nanos > 0).then(|| StdDuration::from_nanos(nanos).min(cap))
}

/// Whether a loop polls its socket or blocks on it. A pass that moved
/// nothing yields and polls again until [`LINGER`] has gone by since the
/// last pass that moved something; only then is the socket switched to
/// blocking reads, and the first datagram or timer switches it back.
#[derive(Debug)]
pub(crate) struct Pace {
    last_moved: StdDuration,
    blocking: bool,
}

impl Pace {
    /// A loop that starts hot, on a socket already set non-blocking.
    pub(crate) fn new(now: StdDuration) -> Self {
        Pace {
            last_moved: now,
            blocking: false,
        }
    }

    /// `true` when the next read is a blocking one.
    pub(crate) fn blocking(&self) -> bool {
        self.blocking
    }

    /// Account for one pass, `now` being the time since the run's epoch;
    /// the socket's mode changes only on the polling↔blocking edge.
    pub(crate) fn pass(
        &mut self,
        moved: bool,
        now: StdDuration,
        socket: &UdpSocket,
    ) -> io::Result<()> {
        if moved {
            self.last_moved = now;
        }
        let block = now.saturating_sub(self.last_moved) >= LINGER;
        if block != self.blocking {
            self.blocking = block;
            socket.set_nonblocking(!block)?;
        }
        if !moved && !block {
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// `true` for the two error kinds a read that found no datagram returns
/// (non-blocking: `WouldBlock`; timed out: either, by platform).
pub(crate) fn no_datagram(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Drive `ep` over `socket` until `stop` is raised. `rank` identifies the
/// node in its [`Report`]s. `epoch` is the run's shared wall-clock origin:
/// every node derives its protocol `Time` (and therefore its trace
/// timestamps) from the same instant, so records from different threads
/// are comparable.
///
/// Each pass drains the socket first (non-blocking, at most `RX_BATCH`
/// datagrams, each one taken off the socket's gauge), then fires due
/// timers, then transmits — waiting, bounded, for room in a destination
/// whose gauge is at the depth (`Outlet::admit`) — then reports events.
/// A pass that moved nothing polls again for `LINGER` and then waits in
/// a blocking `recv_from` until the endpoint's next deadline or the
/// stop-check cap (`Pace`).
///
/// Socket errors (receive or send) never terminate the thread: a peer
/// that died mid-run surfaces as transient `ECONNREFUSED`-style errors on
/// the survivors' sockets, which are counted in `udprun.io_errors` and
/// absorbed. Peer death is the protocol's problem (its liveness bounds and
/// the membership failure detector, the same policy the simulator backend
/// uses); a run that cannot finish ends at the coordinator's timeout.
pub fn drive<E: Endpoint>(
    mut ep: E,
    socket: UdpSocket,
    addrs: Addresses,
    rank: Rank,
    epoch: Instant,
    events: ChanSender<Report>,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let now = |epoch: Instant| Time::from_nanos(epoch.elapsed().as_nanos() as u64);
    // rmlint: allow(hot-alloc): once per thread, before the loop
    let mut buf = vec![0u8; MAX_DGRAM];
    // Counter handles are resolved once (registration takes a mutex);
    // per-datagram increments are single relaxed atomic adds.
    let ctr_rx = rmprof::counter("udprun.datagrams_rx");
    let ctr_tx = rmprof::counter("udprun.datagrams_tx");
    let ctr_io_err = rmprof::counter("udprun.io_errors");
    let own = addrs.flow.gauge(rank.0 as usize);
    let mut outlet = Outlet::new(Arc::clone(&addrs.flow));
    socket.set_nonblocking(true)?;
    let mut pace = Pace::new(epoch.elapsed());

    while !stop.load(Ordering::Relaxed) {
        let mut moved = false;
        // 1. Receive: everything the kernel holds while polling; while
        // blocking, one datagram or the next deadline, whichever comes
        // first.
        let polling = !pace.blocking();
        let reads = if polling {
            RX_BATCH
        } else if let Some(wait) = idle_wait(ep.poll_timeout(), now(epoch), STOP_CHECK_CAP) {
            socket.set_read_timeout(Some(wait))?;
            1
        } else {
            0
        };
        for _ in 0..reads {
            let mark = own.mark();
            // Only a non-blocking read is timed: a blocking one would
            // measure the wait for the datagram, not the syscall and its
            // copy.
            let rx_span = polling.then(|| rmprof::span!(rmprof::Stage::UdpRx));
            match socket.recv_from(&mut buf) {
                Ok((n, _)) => {
                    drop(rx_span);
                    own.took_one();
                    ctr_rx.inc();
                    ep.handle_datagram(now(epoch), &buf[..n]);
                    moved = true;
                }
                Err(e) => {
                    // An empty poll is not receive work: discard the sample.
                    if let Some(span) = rx_span {
                        span.cancel();
                    }
                    if no_datagram(&e) {
                        own.found_empty(mark, 0);
                        break;
                    }
                    // On Linux a UDP socket can surface ECONNREFUSED from
                    // a dead peer; count it, don't die on it.
                    ctr_io_err.inc();
                }
            }
        }
        // 2. Fire due timers.
        let t = now(epoch);
        if ep.poll_timeout().is_some_and(|d| d <= t) {
            ep.handle_timeout(t);
            moved = true;
        }
        // 3. Flush transmits, each into a socket with room for it. Send
        // failures are tolerated: the datagram is dropped and the
        // protocol's own retransmission machinery recovers, or its
        // liveness bound eventually fires.
        while let Some(tx) = ep.poll_transmit() {
            let (dest, gauge) = addrs.resolve(tx.dest);
            outlet.admit(gauge, epoch);
            let tx_span = rmprof::span!(rmprof::Stage::UdpTx);
            let sent = socket.send_to(&tx.payload, dest);
            drop(tx_span);
            match sent {
                Ok(_) => {
                    outlet.sent(gauge);
                    ctr_tx.inc();
                }
                Err(_) => ctr_io_err.inc(),
            }
            moved = true;
        }
        // 4. Report events.
        while let Some(ev) = ep.poll_event() {
            let at = epoch.elapsed();
            if events.send(Report::App { rank, at, ev }).is_err() {
                return Ok(());
            }
            moved = true;
        }
        pace.pass(moved, epoch.elapsed(), &socket)?;
    }
    // Push any span samples still batched in this thread's local tables
    // to the shared registry before the thread exits.
    rmprof::flush();
    let _ = events.send(Report::Finished {
        rank,
        // rmlint: allow(hot-alloc): once per thread, after the loop
        stats: Box::new(ep.stats().clone()),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: StdDuration = StdDuration::from_millis(4);

    #[test]
    fn idle_wait_is_the_deadline_capped_and_never_zero() {
        let now = Time::from_millis(10);
        // No timer armed: wait the whole cap.
        assert_eq!(idle_wait(None, now, CAP), Some(CAP));
        // A deadline inside the cap is waited for exactly.
        let soon = Time::from_nanos(now.as_nanos() + 1_500_000);
        assert_eq!(
            idle_wait(Some(soon), now, CAP),
            Some(StdDuration::from_micros(1_500))
        );
        // One past the cap (an RTO, 120 ms away) is cut to the cap.
        let rto = Time::from_millis(130);
        assert_eq!(idle_wait(Some(rto), now, CAP), Some(CAP));
        // The shortest possible wait is still not zero.
        let next_ns = Time::from_nanos(now.as_nanos() + 1);
        assert_eq!(
            idle_wait(Some(next_ns), now, CAP),
            Some(StdDuration::from_nanos(1))
        );
        // Due now or overdue: do not block at all.
        assert_eq!(idle_wait(Some(now), now, CAP), None);
        assert_eq!(idle_wait(Some(Time::from_millis(9)), now, CAP), None);
    }

    #[test]
    fn pace_polls_through_the_linger_then_blocks_until_something_moves() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.set_nonblocking(true).unwrap();
        let at = |us: u64| StdDuration::from_micros(us);
        let mut pace = Pace::new(at(1_000));
        // Idle passes inside the linger keep polling, whatever their number.
        for us in [1_001, 1_050, 1_199] {
            pace.pass(false, at(us), &socket).unwrap();
            assert!(!pace.blocking(), "{us} µs");
        }
        // A pass that moved something starts the linger again.
        pace.pass(true, at(1_199), &socket).unwrap();
        pace.pass(false, at(1_398), &socket).unwrap();
        assert!(!pace.blocking());
        // LINGER after the last movement the loop blocks, and stays blocked
        // through reads that time out …
        pace.pass(false, at(1_399), &socket).unwrap();
        assert!(pace.blocking());
        pace.pass(false, at(5_399), &socket).unwrap();
        assert!(pace.blocking());
        // … until a datagram or a timer moves it.
        pace.pass(true, at(5_400), &socket).unwrap();
        assert!(!pace.blocking());
    }
}
