//! Running a whole multicast group over real sockets.

use crate::flow::{probe_depth, Flow};
use crate::hub::{Hub, MAX_DGRAM};
use crate::node::{drive, Addresses, Inbound, NodeFaults, Report, STOP_CHECK_CAP};
use bytes::Bytes;
use rmcast::{
    AppEvent, Endpoint, Faults, FlightDump, GroupSpec, JsonlSink, ProtocolConfig, Receiver, Sender,
    SessionError, Stats, TraceSink,
};
use rmwire::{Rank, Time, HEADER_LEN};
use std::collections::HashMap;
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration as StdDuration, Instant};

/// Cluster-run parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Protocol configuration shared by all endpoints.
    pub protocol: ProtocolConfig,
    /// Number of receivers.
    pub n_receivers: u16,
    /// Give up after this much wall time.
    pub timeout: StdDuration,
    /// Seed for receiver-side randomness and the injected-loss draws.
    pub seed: u64,
    /// The run's faults. Each node draws `loss` for every datagram it
    /// receives. A `down` receiver's socket is bound but not driven, like a
    /// crashed node's (the run needs liveness knobs to finish), until its
    /// `back` delay (wall clock). `dup`, `reorder` and `corrupt` are
    /// refused.
    pub faults: Faults,
    /// Overload faults by node, [`Rank::SENDER`] for the sender —
    /// typically a feedback storm at the sender (ACK/NAK implosion), or a
    /// saturated CPU and/or a socket-buffer blackout at a slow receiver.
    pub overload: Vec<(Rank, NodeFaults)>,
    /// Shared trace sink: every endpoint streams its protocol events here,
    /// and every node a `Drop { cause: DatagramFault }` per copy its
    /// injected loss takes, stamped with wall-clock nanoseconds since one
    /// run-wide epoch so records from different node threads are
    /// comparable; the hub its own drops (stamped from its own start,
    /// about one thread start away from that epoch).
    pub trace_sink: Option<JsonlSink>,
    /// Per-endpoint flight recorder capacity (0 = disabled): the last N
    /// events are dumped as a [`FlightDump`] when a liveness failure trips.
    pub flight_recorder: usize,
    /// Enable `rmprof` span timing for the duration of this run (the
    /// previous enable state is restored afterwards). Counters and
    /// gauges are always live; this gates only the clock-reading spans.
    pub profile: bool,
    /// Bind a live stats endpoint (`GET /metrics`, `GET /stats.json`)
    /// for the duration of the run — e.g. `"127.0.0.1:0"` for an
    /// ephemeral port. The resolved address is published through
    /// [`ClusterConfig::stats_bound`].
    pub stats_addr: Option<String>,
    /// Where [`run_cluster`] publishes the endpoint's bound address once
    /// it is listening. The caller keeps a clone of the `Arc` and can
    /// poll the endpoint mid-run from another thread.
    pub stats_bound: Option<Arc<std::sync::OnceLock<std::net::SocketAddr>>>,
}

impl ClusterConfig {
    /// Defaults: 30-second timeout, fixed seed.
    pub fn new(protocol: ProtocolConfig, n_receivers: u16) -> Self {
        ClusterConfig {
            protocol,
            n_receivers,
            timeout: StdDuration::from_secs(30),
            seed: 42,
            faults: Faults::default(),
            overload: Vec::new(),
            trace_sink: None,
            flight_recorder: 0,
            profile: false,
            stats_addr: None,
            stats_bound: None,
        }
    }
}

/// What a cluster run produced.
#[derive(Debug, Default)]
pub struct ClusterResult {
    /// Wall time from start to the sender's final completion.
    pub elapsed: StdDuration,
    /// `(rank, msg_id, payload)` deliveries.
    pub deliveries: Vec<(Rank, u64, Bytes)>,
    /// Sender counters.
    pub sender_stats: Stats,
    /// Per-receiver counters (by receiver index), where collected.
    pub receiver_stats: HashMap<Rank, Stats>,
    /// `(reporting rank, msg_id, error)` abandoned messages.
    pub failures: Vec<(Rank, u64, SessionError)>,
    /// `(reporting rank, evicted peer, msg_id)` straggler evictions.
    pub evictions: Vec<(Rank, Rank, u64)>,
    /// `(admitted peer, epoch)` membership admissions at the sender.
    pub joins: Vec<(Rank, u32)>,
    /// `(msg_id, congested)` sender backpressure edges, in arrival order:
    /// AIMD shrank the window below its configured size and the send path
    /// stalled on it (`true`) / recovered (`false`).
    pub backpressure: Vec<(u64, bool)>,
    /// `(reporting rank, dump)` flight-recorder dumps captured at
    /// failures (only with [`ClusterConfig::flight_recorder`] enabled).
    pub flight_dumps: Vec<(Rank, FlightDump)>,
}

/// Restores the previous span-timing enable state when the run ends,
/// including the early-return timeout path.
struct ProfileGuard {
    prev: bool,
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        rmprof::set_enabled(self.prev);
    }
}

/// Refuse, before anything is bound, a run that cannot go as asked: a
/// fault plan or overload list that names no node or names one twice, or
/// a receiver that comes back to a group without membership
/// (`InvalidInput`); a fault that sockets on one host do not inject
/// (`Unsupported`).
fn check(cfg: &ClusterConfig) -> io::Result<()> {
    let invalid = |e| io::Error::new(io::ErrorKind::InvalidInput, e);
    cfg.faults
        .validate(usize::from(cfg.n_receivers))
        .map_err(invalid)?;
    if !cfg.protocol.membership && cfg.faults.down.iter().any(|(_, back)| back.is_some()) {
        let e = "a down receiver that comes back needs protocol.membership to rejoin";
        return Err(invalid(e.to_string()));
    }
    for (k, (rank, _)) in cfg.overload.iter().enumerate() {
        if rank.0 > cfg.n_receivers || cfg.overload[..k].iter().any(|(r, _)| r == rank) {
            let e = format!(
                "overload rank {} is no node of the group, or is listed twice",
                rank.0
            );
            return Err(invalid(e));
        }
    }
    let rates = cfg.faults.rates().into_iter();
    if let Some((name, _)) = rates.skip(1).find(|&(_, p)| p > 0.0) {
        let e = format!("udprun cannot inject `{name}` faults");
        return Err(io::Error::new(io::ErrorKind::Unsupported, e));
    }
    Ok(())
}

/// Run one sender and `n` receivers over real UDP sockets until every
/// message completes (or the timeout expires). Refuses a run `check`
/// refuses before it binds a socket.
pub fn run_cluster(cfg: ClusterConfig, msgs: Vec<Bytes>) -> io::Result<ClusterResult> {
    check(&cfg)?;
    let group = GroupSpec::new(cfg.n_receivers);
    let n = cfg.n_receivers as usize;

    let _profile_guard = cfg.profile.then(|| {
        let prev = rmprof::enabled();
        rmprof::set_enabled(true);
        ProfileGuard { prev }
    });
    // The endpoint serves the process-global registry; binding it here
    // just scopes its lifetime to the run. Dropped (and joined) on every
    // exit path, including the timeout error return.
    let _stats_server = match &cfg.stats_addr {
        Some(addr) => {
            let server = crate::stats::StatsServer::bind(addr)?;
            rmprof::gauge("udprun.nodes").set(n as i64 + 1);
            if let Some(slot) = &cfg.stats_bound {
                let _ = slot.set(server.addr());
            }
            Some(server)
        }
        None => None,
    };

    // Sockets first, so the address book is complete before any thread
    // starts.
    let sender_sock = UdpSocket::bind("127.0.0.1:0")?;
    let receiver_socks: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let receiver_addrs: Vec<_> = receiver_socks
        .iter()
        .map(|s| s.local_addr())
        .collect::<io::Result<_>>()?;
    // How many of this cluster's largest datagrams a socket holds before
    // the kernel drops the next: measured, because `std` can neither read
    // nor set `SO_RCVBUF`, and what the kernel charges a datagram is not
    // its length.
    let holds = probe_depth(cfg.protocol.packet_size + HEADER_LEN)?;
    rmprof::gauge("udprun.sockbuf_depth").set(holds as i64);
    let flow = Flow::new(n, holds);
    let hub = Hub::spawn_on(
        receiver_addrs.clone(),
        cfg.trace_sink
            .clone()
            .map(|s| Box::new(s) as Box<dyn rmtrace::TraceSink>),
        Arc::clone(&flow),
    )?;
    let addrs = Addresses {
        sender: sender_sock.local_addr()?,
        receivers: receiver_addrs,
        hub: hub.addr,
        flow,
    };

    let (tx, rx) = mpsc::channel::<Report>();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // One wall-clock origin for every node thread: protocol times (and
    // trace timestamps) across the whole cluster share this epoch.
    #[allow(
        clippy::disallowed_methods,
        reason = "cluster-wide trace-timestamp epoch, not a measurement"
    )]
    let epoch = Instant::now();
    let instrument = |ep: &mut dyn Endpoint| {
        if let Some(s) = &cfg.trace_sink {
            ep.set_trace_sink(Box::new(s.clone()));
        }
        if cfg.flight_recorder > 0 {
            ep.enable_flight_recorder(cfg.flight_recorder);
        }
    };

    // Receivers. A `down` one keeps its bound socket (so nothing is
    // rewired) but is not driven: every datagram sent to it vanishes. One
    // with a `back` delay boots on that socket once the delay is over, a
    // fresh endpoint with no memory of the old incarnation that works its
    // way back in through JOIN/SYNC.
    for (i, rsock) in receiver_socks.iter().enumerate() {
        let rank = Rank::from_receiver_index(i);
        let seed = cfg.seed.wrapping_add(i as u64);
        let (mut receiver, back) = match cfg.faults.down.iter().find(|&&(r, _)| r == i) {
            Some((_, None)) => continue,
            Some(&(_, Some(back))) => {
                let boot = Time::ZERO + back;
                let receiver = Receiver::new_joining(cfg.protocol, group, rank, seed, boot);
                (receiver, StdDuration::from_nanos(back.as_nanos()))
            }
            None => {
                let mut receiver = Receiver::new(cfg.protocol, group, rank, seed);
                // The first message's assembly is allocated here, by the
                // calling thread, not by the receiver's: node threads that
                // run in parallel exit in varying order, their malloc arenas
                // are handed on permuted from call to call, and each arena
                // would end up retaining a freed buffer of this size.
                if let Some(first) = msgs.first() {
                    receiver.seed_spare(Bytes::from(Vec::with_capacity(first.len())));
                }
                (receiver, StdDuration::ZERO)
            }
        };
        instrument(&mut receiver);
        let inbound = Inbound::new(&cfg, rank);
        let sock = rsock.try_clone()?;
        let addrs = addrs.clone();
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        handles.push(
            std::thread::Builder::new()
                .name(format!("udprun-recv{}", i + 1))
                .spawn(move || {
                    if !back.is_zero() {
                        // Wait until `back` into the run, or until it ends.
                        while let Some(left) = back.checked_sub(epoch.elapsed()) {
                            if stop.load(Ordering::Relaxed) {
                                return Ok(());
                            }
                            std::thread::sleep(left.min(STOP_CHECK_CAP));
                        }
                        // Drain datagrams that piled up while "down": the
                        // old incarnation would have lost them too.
                        let mut scratch = vec![0u8; MAX_DGRAM];
                        sock.set_read_timeout(Some(StdDuration::from_micros(100)))?;
                        while sock.recv_from(&mut scratch).is_ok() {}
                    }
                    drive(receiver, sock, addrs, inbound, epoch, tx, stop)
                })?,
        );
    }

    // Sender (messages queued before the thread starts looping).
    let n_msgs = msgs.len() as u64;
    let mut sender = Sender::new(cfg.protocol, group);
    for m in &msgs {
        sender.send_message(Time::ZERO, m.clone());
    }
    instrument(&mut sender);
    {
        let inbound = Inbound::new(&cfg, Rank::SENDER);
        let sock = sender_sock.try_clone()?;
        let addrs = addrs.clone();
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        handles.push(
            std::thread::Builder::new()
                .name("udprun-sender".into())
                .spawn(move || drive(sender, sock, addrs, inbound, epoch, tx, stop))?,
        );
    }
    drop(tx);

    // Coordinate: wait until the sender resolves every message — by
    // completing it or by abandoning it (liveness bound).
    #[allow(
        clippy::disallowed_methods,
        reason = "liveness deadline, not a measurement"
    )]
    let start = Instant::now();
    let mut tally = Tally {
        n_msgs,
        ..Tally::default()
    };
    while tally.resolved < n_msgs {
        let remaining = cfg.timeout.checked_sub(start.elapsed()).unwrap_or_default();
        if remaining.is_zero() {
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                let _ = h.join();
            }
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "cluster did not finish in {:?}: {}/{} messages, {} deliveries",
                    cfg.timeout,
                    tally.resolved,
                    n_msgs,
                    tally.out.deliveries.len()
                ),
            ));
        }
        match rx.recv_timeout(remaining) {
            Ok(report) => tally.absorb(report),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Give receivers a moment to flush their last deliveries, then stop:
    // at once when every live receiver has already delivered everything
    // the sender completed, otherwise after 50 ms of silence (200 ms cap).
    let live: Vec<Rank> = (0..n)
        .filter(|&i| !cfg.faults.down.contains(&(i, None)))
        .map(Rank::from_receiver_index)
        .collect();
    #[allow(
        clippy::disallowed_methods,
        reason = "settle deadline, not a measurement"
    )]
    let settle = Instant::now();
    while !tally.settled(&live) && settle.elapsed() < StdDuration::from_millis(200) {
        match rx.recv_timeout(StdDuration::from_millis(50)) {
            Ok(report) => tally.absorb(report),
            Err(_) => break,
        }
    }
    stop.store(true, Ordering::Relaxed);
    // Collect the final stats snapshots as threads wind down.
    rx.try_iter().for_each(|r| tally.absorb(r));
    for h in handles {
        let _ = h.join();
    }
    rx.try_iter().for_each(|r| tally.absorb(r));
    drop(hub);

    // The sink's writer is shared by every clone, the stopped hub's too:
    // one flush drains it.
    if let Some(mut s) = cfg.trace_sink.clone() {
        s.flush();
    }

    if tally.out.elapsed.is_zero() {
        // No message completed last: the run lasted until it was stopped.
        tally.out.elapsed = start.elapsed();
    }
    Ok(tally.out)
}

/// Everything the coordinator has heard from the node threads so far.
#[derive(Default)]
struct Tally {
    /// What the run has produced; `elapsed` is stamped when the sender
    /// completes the last message, if that is how the last one resolved.
    out: ClusterResult,
    /// Messages queued on the sender.
    n_msgs: u64,
    /// Messages the sender has completed or abandoned.
    resolved: u64,
    /// Ids of the messages the sender completed.
    sent: Vec<u64>,
}

impl Tally {
    /// Nothing is left to wait for: every receiver in `live` that was not
    /// evicted has delivered every message the sender completed. Never
    /// true after a failure, or after a mid-run admission (a rejoined
    /// receiver owes only the tail of the stream): those runs settle by
    /// silence.
    fn settled(&self, live: &[Rank]) -> bool {
        let evicted = |r: &Rank| self.out.evictions.iter().any(|(_, peer, _)| peer == r);
        let delivered = |r: &Rank, id: &u64| {
            self.out
                .deliveries
                .iter()
                .any(|(at, m, _)| at == r && m == id)
        };
        self.out.failures.is_empty()
            && self.out.joins.is_empty()
            && live
                .iter()
                .filter(|r| !evicted(r))
                .all(|r| self.sent.iter().all(|id| delivered(r, id)))
    }

    fn absorb(&mut self, report: Report) {
        let (rank, at, ev) = match report {
            Report::App { rank, at, ev } => (rank, at, ev),
            Report::Finished { rank, stats } if rank == Rank::SENDER => {
                self.out.sender_stats = *stats;
                return;
            }
            Report::Finished { rank, stats } => {
                self.out.receiver_stats.insert(rank, *stats);
                return;
            }
        };
        match ev {
            AppEvent::MessageSent { msg_id } => {
                self.sent.push(msg_id);
                self.resolved += 1;
                if self.resolved == self.n_msgs {
                    self.out.elapsed = at;
                }
            }
            AppEvent::MessageDelivered { msg_id, data } => {
                self.out.deliveries.push((rank, msg_id, data));
            }
            AppEvent::MessageFailed { msg_id, error } => {
                self.out.failures.push((rank, msg_id, error));
                // Only the sender's verdict resolves a message; receiver
                // give-ups are informational.
                if rank == Rank::SENDER {
                    self.resolved += 1;
                }
            }
            AppEvent::ReceiverEvicted { msg_id, rank: peer } => {
                self.out.evictions.push((rank, peer, msg_id));
            }
            AppEvent::ReceiverJoined { rank: peer, epoch } => self.out.joins.push((peer, epoch)),
            AppEvent::Backpressure { msg_id, congested } => {
                self.out.backpressure.push((msg_id, congested));
            }
            AppEvent::FlightRecorderDump { dump } => self.out.flight_dumps.push((rank, dump)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed(rank: Rank, msg_id: u64) -> Report {
        Report::App {
            rank,
            at: StdDuration::ZERO,
            ev: AppEvent::MessageFailed {
                msg_id,
                error: SessionError::SenderStalled { transfer: 0 },
            },
        }
    }

    #[test]
    fn only_the_senders_verdict_resolves_a_message() {
        let mut tally = Tally {
            n_msgs: 2,
            ..Tally::default()
        };
        tally.absorb(failed(Rank::from_receiver_index(1), 0));
        assert_eq!(
            tally.out.failures.len(),
            1,
            "a receiver's give-up is recorded"
        );
        assert_eq!(tally.resolved, 0, "but resolves nothing");
        tally.absorb(failed(Rank::SENDER, 0));
        assert_eq!((tally.out.failures.len(), tally.resolved), (2, 1));
        // The last message completing is what stamps `elapsed`.
        let at = StdDuration::from_millis(7);
        tally.absorb(Report::App {
            rank: Rank::SENDER,
            at,
            ev: AppEvent::MessageSent { msg_id: 1 },
        });
        assert_eq!((tally.resolved, tally.out.elapsed), (2, at));
    }

    #[test]
    fn settled_once_every_live_receiver_delivered_every_sent_message() {
        let event = |rank: Rank, ev: AppEvent| Report::App {
            rank,
            at: StdDuration::ZERO,
            ev,
        };
        let delivered = |rank: Rank, msg_id: u64| {
            let data = Bytes::new();
            event(rank, AppEvent::MessageDelivered { msg_id, data })
        };
        let (r1, r2, r3) = (Rank(1), Rank(2), Rank(3));
        let live = [r1, r2, r3];
        let mut tally = Tally::default();
        for msg_id in 0..2 {
            tally.absorb(event(Rank::SENDER, AppEvent::MessageSent { msg_id }));
            tally.absorb(delivered(r1, msg_id));
        }
        tally.absorb(delivered(r2, 0));
        assert!(!tally.settled(&live), "rank 2 owes message 1, rank 3 both");
        tally.absorb(delivered(r2, 1));
        // Rank 3 never delivers: settled only if it is dead or evicted.
        assert!(!tally.settled(&live));
        assert!(
            tally.settled(&[r1, r2]),
            "a dead receiver is not waited for"
        );
        let (msg_id, rank) = (1, r3);
        tally.absorb(event(
            Rank::SENDER,
            AppEvent::ReceiverEvicted { msg_id, rank },
        ));
        assert!(tally.settled(&live), "nor is an evicted one");
        // A failure or a mid-run admission means settling by silence.
        let epoch = 2;
        tally.absorb(event(
            Rank::SENDER,
            AppEvent::ReceiverJoined { rank: r3, epoch },
        ));
        assert!(!tally.settled(&live));
        tally.out.joins.clear();
        tally.absorb(failed(r1, 1));
        assert!(!tally.settled(&live));
    }
}
