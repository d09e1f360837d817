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

/// Drive `ep` over `socket` until `stop` is raised. `rank` identifies the
/// node in its [`Report`]s. `epoch` is the run's shared wall-clock origin:
/// every node derives its protocol `Time` (and therefore its trace
/// timestamps) from the same instant, so records from different threads
/// are comparable.
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
    socket.set_read_timeout(Some(StdDuration::from_millis(1)))?;
    // Counter handles are resolved once (registration takes a mutex);
    // per-datagram increments are single relaxed atomic adds.
    let ctr_rx = rmprof::counter("udprun.datagrams_rx");
    let ctr_tx = rmprof::counter("udprun.datagrams_tx");
    let ctr_io_err = rmprof::counter("udprun.io_errors");

    while !stop.load(Ordering::Relaxed) {
        // 1. Receive with a short timeout so timers stay responsive.
        let rx_span = rmprof::span!(rmprof::Stage::UdpRx);
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                drop(rx_span);
                ctr_rx.inc();
                ep.handle_datagram(now(epoch), &buf[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // A timed-out read measured the 1ms poll timeout, not
                // receive work: discard the sample.
                rx_span.cancel();
            }
            Err(_) => {
                // On Linux a UDP socket can surface ECONNREFUSED from a
                // dead peer; count it, don't die on it.
                rx_span.cancel();
                ctr_io_err.inc();
            }
        }
        // 2. Fire due timers.
        let t = now(epoch);
        if ep.poll_timeout().is_some_and(|d| d <= t) {
            ep.handle_timeout(t);
        }
        // 3. Flush transmits. Send failures are tolerated: the datagram
        // is dropped and the protocol's own retransmission machinery
        // recovers, or its liveness bound eventually fires.
        while let Some(tx) = ep.poll_transmit() {
            let dest = addrs.resolve(tx.dest);
            let tx_span = rmprof::span!(rmprof::Stage::UdpTx);
            let sent = socket.send_to(&tx.payload, dest);
            drop(tx_span);
            match sent {
                Ok(_) => ctr_tx.inc(),
                Err(_) => ctr_io_err.inc(),
            }
        }
        // 4. Report events.
        while let Some(ev) = ep.poll_event() {
            let at = epoch.elapsed();
            if events.send(Report::App { rank, at, ev }).is_err() {
                return Ok(());
            }
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
