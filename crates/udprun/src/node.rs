//! One endpoint on one real UDP socket, driven by a thread.

use crate::hub::MAX_DGRAM;
use crossbeam::channel::Sender as ChanSender;
use rmcast::{AppEvent, Dest, Endpoint};
use rmwire::{Rank, Time};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

/// Address book mapping protocol destinations to socket addresses.
#[derive(Debug, Clone)]
pub struct Addresses {
    /// The sender's socket.
    pub sender: SocketAddr,
    /// Receiver sockets by receiver index.
    pub receivers: Vec<SocketAddr>,
    /// The hub relaying group traffic.
    pub hub: SocketAddr,
}

impl Addresses {
    fn resolve(&self, d: Dest) -> SocketAddr {
        match d {
            Dest::Sender => self.sender,
            Dest::Rank(r) => self.receivers[r.receiver_index()],
            Dest::Receivers => self.hub,
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

/// Most datagrams either loop sends back to back before it hands the CPU
/// over ([`hand_off`]). The default `SO_RCVBUF` (212 992 B) holds 12 of
/// the suite's 8 012 B datagrams (the kernel charges about twice their
/// size), and a loopback send only *queues* its consumer behind the
/// producer on the same run queue: a full window of 20 written in one go
/// overflows a buffer nobody has run to empty yet. A third of the buffer
/// per hand-off leaves room for what is already queued.
pub(crate) const BURST: u32 = 4;

/// Most datagrams a loop pulls from its socket before it looks at timers,
/// transmits and the stop flag again: more than the 12 full-size datagrams
/// a default buffer holds, so one pass empties it, yet a flood cannot keep
/// a loop receiving for ever.
pub(crate) const RX_BATCH: usize = 32;

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

/// Counts datagrams sent back to back: every [`BURST`]-th send reports
/// that the CPU is due to be handed to whoever the kernel queued behind
/// this thread.
#[derive(Debug, Default)]
pub(crate) struct Burst(u32);

impl Burst {
    /// Record one more send; `true` when a hand-off is due.
    pub(crate) fn sent(&mut self) -> bool {
        self.0 = (self.0 + 1) % BURST;
        self.0 == 0
    }
}

/// A `yield_now()` that returns sooner than this ran nobody: a switch to
/// the consumer and back takes tens of microseconds.
const YIELD_RAN_NOBODY: StdDuration = StdDuration::from_micros(5);

/// Hand the CPU to whoever the burst just sent has woken. The kernel
/// normally queued that consumer behind this thread, on the same run
/// queue, and a yield runs it. If the yield comes straight back the
/// consumer is on another CPU, possibly still waking up (the scheduler
/// spreads threads for some seconds after all CPUs were busy, for example
/// right after a build): then sleep the shortest sleep there is — the
/// kernel rounds it up to the thread's timer slack, about 50 µs — or the
/// rest of the window is written before anybody reads. `epoch` is only a
/// clock.
pub(crate) fn hand_off(epoch: Instant) {
    let before = epoch.elapsed();
    std::thread::yield_now();
    if epoch.elapsed() - before < YIELD_RAN_NOBODY {
        std::thread::sleep(StdDuration::from_nanos(1));
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
/// datagrams), then fires due timers, then transmits, handing the CPU
/// over every `BURST` datagrams, then reports events. A pass that moved
/// nothing switches the socket to blocking reads and waits in `recv_from`
/// until the endpoint's next deadline or the stop-check cap; the first
/// datagram or timer switches it back.
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
    let mut buf = vec![0u8; MAX_DGRAM];
    // Counter handles are resolved once (registration takes a mutex);
    // per-datagram increments are single relaxed atomic adds.
    let ctr_rx = rmprof::counter("udprun.datagrams_rx");
    let ctr_tx = rmprof::counter("udprun.datagrams_tx");
    let ctr_io_err = rmprof::counter("udprun.io_errors");
    let mut burst = Burst::default();
    // The socket is non-blocking while `busy`, blocking with a read
    // timeout while idle; the mode changes only when `busy` does.
    let mut busy = true;
    socket.set_nonblocking(true)?;

    while !stop.load(Ordering::Relaxed) {
        let mut moved = false;
        // 1. Receive: everything the kernel holds while busy; while idle,
        // one datagram or the next deadline, whichever comes first.
        let reads = if busy {
            RX_BATCH
        } else if let Some(wait) = idle_wait(ep.poll_timeout(), now(epoch), STOP_CHECK_CAP) {
            socket.set_read_timeout(Some(wait))?;
            1
        } else {
            0
        };
        for _ in 0..reads {
            // Only a non-blocking read is timed: an idle one would measure
            // the wait for the datagram, not the syscall and its copy.
            let rx_span = busy.then(|| rmprof::span!(rmprof::Stage::UdpRx));
            match socket.recv_from(&mut buf) {
                Ok((n, _)) => {
                    drop(rx_span);
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
        // 3. Flush transmits, handing the CPU over every `BURST`
        // datagrams. Send failures are tolerated: the datagram is dropped
        // and the protocol's own retransmission machinery recovers, or its
        // liveness bound eventually fires.
        while let Some(tx) = ep.poll_transmit() {
            let dest = addrs.resolve(tx.dest);
            let tx_span = rmprof::span!(rmprof::Stage::UdpTx);
            let sent = socket.send_to(&tx.payload, dest);
            drop(tx_span);
            match sent {
                Ok(_) => ctr_tx.inc(),
                Err(_) => ctr_io_err.inc(),
            }
            moved = true;
            if burst.sent() {
                hand_off(epoch);
            }
        }
        // 4. Report events.
        while let Some(ev) = ep.poll_event() {
            let at = epoch.elapsed();
            if events.send(Report::App { rank, at, ev }).is_err() {
                return Ok(());
            }
            moved = true;
        }
        if busy != moved {
            busy = moved;
            socket.set_nonblocking(busy)?;
        }
    }
    // Push any span samples still batched in this thread's local tables
    // to the shared registry before the thread exits.
    rmprof::flush();
    let _ = events.send(Report::Finished {
        rank,
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
    fn burst_asks_for_a_hand_off_every_fourth_send() {
        let mut burst = Burst::default();
        let due: Vec<bool> = (0..10).map(|_| burst.sent()).collect();
        let every_fourth: Vec<bool> = (1..=10).map(|i| i % BURST == 0).collect();
        assert_eq!(due, every_fourth);
    }
}
