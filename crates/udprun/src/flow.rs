//! Flow control between the cluster's threads: how full each socket is.
//!
//! On a LAN a `sendto` blocks at line rate, so a sender cannot put a whole
//! window into a receiver's socket buffer faster than the wire carries it;
//! `netsim` models that as `send_sockbuf`/`earliest_fit`. Loopback has no
//! line rate: a window of 20 is written in ~60 µs into a buffer that holds
//! 12. `run_cluster` is a one-process stand-in for that LAN, so its threads
//! may share what a wire would have told them: one [`Gauge`] per socket
//! counting datagrams sent towards it and not yet read. A producer that
//! finds a gauge at the depth waits — bounded, and once per stall — and a
//! socket nobody reads is still overrun by the kernel, as on the testbed.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

/// Longest a producer waits for room in one socket before it sends anyway.
/// A consumer that is running takes a datagram off every 6–8 µs; the waits
/// that matter are for one that lost its CPU. With five polling threads on
/// two CPUs that happens, `yield_now()` does not make the scheduler give it
/// back (a stalled hub's `schedstat`: 2.9 and 4.1 ms on a run queue while
/// its producer yielded ~1 000 times), and what does is the scheduler tick,
/// 4 ms at `CONFIG_HZ=250`. Bounds of 0.3/1/2/3/6/10/20 ms gave up
/// 7–11 / 2–7 / ~1 / 0–10 / 0–0.5 / 0 / 0 times per 1 000 `udp_bulk` calls,
/// and every third to fifth give-up cost a 120 ms RTO; the median call was
/// the same at all seven. So: two ticks and a margin. That also makes it
/// the line between slow and absent — a receiver that needs less than this
/// per datagram paces the group through its gauge, as a wire would, one
/// that needs more is overrun — and a dead receiver costs each producer
/// 10 ms per run, not per datagram.
pub(crate) const WAIT_BOUND: StdDuration = StdDuration::from_millis(10);

/// Datagrams the probe sends: more than any default buffer holds of the
/// sizes the suite uses (12 at 8 012 B, 25 at 4 012 B), few enough that
/// the probe takes ~200 µs.
const PROBE_FILL: usize = 64;

/// Datagrams sent towards one socket and not yet taken off it. Producers
/// add after a send, the socket's one consumer (only it writes `taken`)
/// takes off per datagram it reads; an empty read proves nothing is left,
/// which heals whatever the kernel dropped.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    sent: AtomicU64,
    taken: AtomicU64,
}

impl Gauge {
    /// A producer's `send_to` towards this socket returned `Ok`. `Release`
    /// pairs with the `Acquire` in [`Gauge::mark`]: a consumer that sees
    /// this count also finds the datagram in (or dropped from) the socket.
    pub(crate) fn sent_one(&self) {
        self.sent.fetch_add(1, Ordering::Release);
    }

    /// What has been sent so far; the consumer reads it *before* a read
    /// and passes it to [`Gauge::found_empty`] if the read finds nothing.
    pub(crate) fn mark(&self) -> u64 {
        self.sent.load(Ordering::Acquire)
    }

    /// The consumer is done with one datagram. May run ahead of
    /// `sent_one` for a moment (the datagram is readable before its
    /// producer has counted it), hence the saturating difference below.
    pub(crate) fn took_one(&self) {
        self.taken.fetch_add(1, Ordering::Relaxed);
    }

    /// A read found the socket empty: of everything sent before `mark` was
    /// read, only the `held` datagrams the consumer still keeps (the hub's
    /// queue; 0 for a node) are in flight — the rest was read or dropped by
    /// the kernel. A plain store, by the one thread that writes `taken`:
    /// it also takes back what [`Gauge::took_one`] counted for datagrams
    /// no member sent (anything from outside the cluster), so every empty
    /// read makes the gauge exact again.
    pub(crate) fn found_empty(&self, mark: u64, held: u64) {
        self.taken
            .store(mark.saturating_sub(held), Ordering::Relaxed);
    }

    /// Datagrams sent and not yet taken off.
    pub(crate) fn in_flight(&self) -> u64 {
        let taken = self.taken.load(Ordering::Relaxed);
        self.sent.load(Ordering::Relaxed).saturating_sub(taken)
    }
}

/// The gauges of one cluster — index 0 the sender, `1..=n` the receivers
/// by rank, `n + 1` the hub — and the depth producers hold them to.
#[derive(Debug)]
pub(crate) struct Flow {
    depth: u64,
    gauges: Vec<Gauge>,
}

impl Flow {
    /// Gauges for `n_receivers` + sender + hub, held to what a socket was
    /// measured to hold ([`probe_depth`]) minus a third: several producers
    /// share a socket (hub, sender and peers all write to a receiver), each
    /// may be one datagram past the gauge it last read, and the consumer
    /// is not always the next thread to run. Depths 4/6/8/10/11/12 of a
    /// measured 12 read 1 540–1 690 / 1 658–1 947 / 1 458–1 603 /
    /// 1 458–1 626 / 1 684–1 983 / 1 717–1 743 µs per `udp_bulk` call
    /// (median, three rounds of 1 000) with 0 / 0 / 0 / 0–0.04 /
    /// 0.36–0.44 / 1.41–2.62 retransmissions per call.
    pub(crate) fn new(n_receivers: usize, holds: usize) -> Arc<Flow> {
        Flow::with_depth(n_receivers, (holds - holds / 3).max(1) as u64)
    }

    /// Gauges that never make a producer wait, for a hub relaying between
    /// sockets whose owners know nothing of gauges: nothing would ever
    /// take a datagram off them.
    #[cfg(test)]
    pub(crate) fn unmetered(n_receivers: usize) -> Arc<Flow> {
        Flow::with_depth(n_receivers, u64::MAX)
    }

    fn with_depth(n_receivers: usize, depth: u64) -> Arc<Flow> {
        let gauges = (0..n_receivers + 2).map(|_| Gauge::default()).collect();
        Arc::new(Flow { depth, gauges })
    }

    /// Index of the hub's gauge.
    pub(crate) fn hub(&self) -> usize {
        self.gauges.len() - 1
    }

    /// The gauge of socket `i`.
    pub(crate) fn gauge(&self, i: usize) -> &Gauge {
        &self.gauges[i]
    }
}

/// One producer's way into the cluster's sockets: the shared gauges plus,
/// per destination, whether this producer already sat out a whole wait
/// for it.
pub(crate) struct Outlet {
    flow: Arc<Flow>,
    sat_out: Vec<bool>,
    waits: rmprof::Counter,
    giveups: rmprof::Counter,
}

impl Outlet {
    /// Counter handles are resolved here, once per producer thread.
    pub(crate) fn new(flow: Arc<Flow>) -> Self {
        Outlet {
            sat_out: vec![false; flow.gauges.len()],
            flow,
            waits: rmprof::counter("udprun.flow_waits"),
            giveups: rmprof::counter("udprun.flow_giveups"),
        }
    }

    /// Wait until socket `dest` has room, yielding the CPU to whoever can
    /// make some — at most [`WAIT_BOUND`], and once per stall: a
    /// destination that sat out a whole wait (a dead receiver, one that
    /// sleeps longer than that per datagram) is sent to without waiting
    /// until its gauge is seen under the depth again, so it costs its
    /// producers one bounded wait and is then overrun by the kernel like
    /// any unread socket. `epoch` is only a clock.
    pub(crate) fn admit(&mut self, dest: usize, epoch: Instant) {
        let gauge = &self.flow.gauges[dest];
        let full = |g: &Gauge| g.in_flight() >= self.flow.depth;
        if !full(gauge) {
            self.sat_out[dest] = false;
            return;
        }
        if self.sat_out[dest] {
            return;
        }
        self.waits.inc();
        let since = epoch.elapsed();
        while full(gauge) {
            if epoch.elapsed() - since >= WAIT_BOUND {
                self.sat_out[dest] = true;
                self.giveups.inc();
                return;
            }
            std::thread::yield_now();
        }
    }

    /// The `send_to` that followed [`Outlet::admit`] returned `Ok`.
    pub(crate) fn sent(&self, dest: usize) {
        self.flow.gauges[dest].sent_one();
    }
}

/// How many `dgram`-byte datagrams a socket nobody reads holds: fill one
/// on the loopback interface with [`PROBE_FILL`] of them and count what a
/// non-blocking drain returns (12 at 8 012 B, 25 at 4 012 B, 4 at
/// 50 000 B with the default `SO_RCVBUF`, which `std` can neither read nor
/// set; 160–290 µs).
pub(crate) fn probe_depth(dgram: usize) -> io::Result<usize> {
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    let to = rx.local_addr()?;
    let mut buf = vec![0u8; dgram];
    for _ in 0..PROBE_FILL {
        tx.send_to(&buf, to)?;
    }
    rx.set_nonblocking(true)?;
    let mut holds = 0;
    while rx.recv_from(&mut buf).is_ok() {
        holds += 1;
    }
    Ok(holds)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the tests time real waits")]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    /// A socket that keeps `cap` datagrams and drops the rest, with its
    /// gauge (index 0 of `flow`): what the kernel and a consumer do,
    /// without the kernel.
    struct ModelSocket {
        flow: Arc<Flow>,
        cap: u64,
        /// `(queued now, most ever queued)`.
        queue: Mutex<(u64, u64)>,
    }

    impl ModelSocket {
        fn new(flow: Arc<Flow>, cap: u64) -> Self {
            let queue = Mutex::new((0, 0));
            ModelSocket { flow, cap, queue }
        }

        /// `send_to`: always `Ok`, silently dropped when full.
        fn send(&self, out: &Outlet) {
            {
                let mut q = self.queue.lock().unwrap();
                if q.0 < self.cap {
                    q.0 += 1;
                    q.1 = q.1.max(q.0);
                }
            }
            out.sent(0);
        }

        /// A non-blocking `recv_from`, with the consumer's bookkeeping.
        fn read(&self) -> bool {
            let gauge = self.flow.gauge(0);
            let mark = gauge.mark();
            let got = {
                let mut q = self.queue.lock().unwrap();
                q.0 > 0 && {
                    q.0 -= 1;
                    true
                }
            };
            if got {
                gauge.took_one();
            } else {
                gauge.found_empty(mark, 0);
            }
            got
        }

        fn peak(&self) -> u64 {
            self.queue.lock().unwrap().1
        }
    }

    #[test]
    fn gauge_heals_after_the_kernel_dropped_datagrams() {
        // 20 sent into a socket that keeps 12: the gauge reads 20, the
        // consumer finds 12, and its first empty read writes off the 8 the
        // kernel dropped.
        let flow = Flow::new(0, 12);
        let sock = ModelSocket::new(Arc::clone(&flow), 12);
        let out = Outlet::new(Arc::clone(&flow));
        let gauge = flow.gauge(0);
        for _ in 0..20 {
            sock.send(&out);
        }
        assert_eq!(gauge.in_flight(), 20);
        let mut read = 0;
        while sock.read() {
            read += 1;
            assert_eq!(gauge.in_flight(), 20 - read, "one off per read");
        }
        assert_eq!(read, 12);
        assert_eq!(gauge.in_flight(), 0, "the 8 drops are written off");
        // A datagram read before its producer counted it leaves no debt.
        gauge.took_one();
        assert_eq!(gauge.in_flight(), 0);
        out.sent(0);
        assert_eq!(gauge.in_flight(), 0);
        // Datagrams no member counted (from outside the cluster) make the
        // gauge read low only until the next empty read.
        gauge.took_one();
        gauge.took_one();
        out.sent(0);
        assert_eq!(gauge.in_flight(), 0, "one in the socket, none shown");
        gauge.found_empty(gauge.mark(), 0);
        out.sent(0);
        assert_eq!(gauge.in_flight(), 1);
        // An empty read at the hub keeps what its queue holds in flight.
        for _ in 0..5 {
            out.sent(0);
        }
        gauge.found_empty(gauge.mark(), 3);
        assert_eq!(gauge.in_flight(), 3);
    }

    #[test]
    fn a_destination_that_never_drains_costs_one_bounded_wait() {
        let epoch = Instant::now();
        let flow = Flow::new(0, 12);
        assert_eq!(flow.depth, 8, "a third of the measured 12 is margin");
        let mut out = Outlet::new(Arc::clone(&flow));
        let send = |out: &mut Outlet| {
            let before = epoch.elapsed();
            out.admit(0, epoch);
            out.sent(0);
            epoch.elapsed() - before
        };
        // Up to the depth nothing waits.
        for _ in 0..flow.depth {
            send(&mut out);
            assert!(!out.sat_out[0]);
        }
        // The next send sits out one whole wait …
        assert!(send(&mut out) >= WAIT_BOUND);
        assert!(out.sat_out[0]);
        // … and the thousand after it none: once per stall.
        let after: StdDuration = (0..1_000).map(|_| send(&mut out)).sum();
        assert!(after < WAIT_BOUND, "1 000 sends took {after:?}");
        // Drained and seen under the depth, it is waited for again.
        flow.gauge(0).found_empty(flow.gauge(0).mark(), 0);
        for _ in 0..flow.depth {
            assert!(send(&mut out) < WAIT_BOUND);
            assert!(!out.sat_out[0]);
        }
        assert!(send(&mut out) >= WAIT_BOUND);
        assert!(out.sat_out[0]);
    }

    #[test]
    fn two_producers_stay_within_depth_plus_margin_of_one_socket() {
        // The socket keeps what was measured (12), the depth is 8. A
        // producer admitted under the depth finds at most depth - 1
        // counted datagrams plus the one the other producer has sent and
        // not counted yet, so the socket never holds more than depth + 1
        // — except for sends made after a give-up (the consumer was
        // descheduled for a whole wait), which overrun by design and are
        // counted here.
        let epoch = Instant::now();
        let flow = Flow::new(0, 12);
        let sock = ModelSocket::new(Arc::clone(&flow), 12);
        let done = AtomicBool::new(false);
        const EACH: u64 = 5_000;
        let (unwaited, read) = std::thread::scope(|s| {
            let producers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Outlet::new(Arc::clone(&flow));
                        let mut unwaited = 0;
                        for _ in 0..EACH {
                            out.admit(0, epoch);
                            unwaited += u64::from(out.sat_out[0]);
                            sock.send(&out);
                        }
                        unwaited
                    })
                })
                .collect();
            let consumer = s.spawn(|| {
                let mut read = 0u64;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    if sock.read() {
                        read += 1;
                    } else if finished {
                        break read;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            let unwaited: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
            done.store(true, Ordering::SeqCst);
            (unwaited, consumer.join().unwrap())
        });
        assert!(
            sock.peak() <= flow.depth + 1 + unwaited,
            "peak {} with {unwaited} unwaited sends",
            sock.peak()
        );
        assert!(
            read + unwaited >= 2 * EACH,
            "read {read}, {unwaited} unwaited"
        );
        assert_eq!(flow.gauge(0).in_flight(), 0);
    }

    #[test]
    fn probe_counts_what_an_independent_fill_and_count_counts() {
        let dgram = 8_012;
        let probed = probe_depth(dgram).expect("loopback sockets");
        // The same experiment written out again: overfill, then count
        // with blocking reads until one times out.
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let payload = vec![7u8; dgram];
        for _ in 0..PROBE_FILL + 10 {
            tx.send_to(&payload, rx.local_addr().unwrap()).unwrap();
        }
        rx.set_read_timeout(Some(StdDuration::from_millis(20)))
            .unwrap();
        let mut buf = vec![0u8; dgram];
        let mut counted = 0;
        while let Ok((n, _)) = rx.recv_from(&mut buf) {
            assert_eq!(n, dgram);
            counted += 1;
        }
        assert_eq!(probed, counted.min(PROBE_FILL));
        assert!(probed >= 1, "a socket that holds nothing relays nothing");
        // Smaller datagrams: at least as many fit.
        assert!(probe_depth(1_012).unwrap() >= probed);
    }
}
