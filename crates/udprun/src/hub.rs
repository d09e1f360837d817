//! The software hub: a UDP relay standing in for the LAN broadcast
//! medium.
//!
//! Group-destined datagrams are sent to the hub's socket; the hub decodes
//! the protocol header's source rank and forwards a copy to every group
//! member except the originator — the same semantics a switch flooding a
//! multicast frame gives the paper's testbed.

use crate::node::{hand_off, no_datagram, Burst, RX_BATCH, STOP_CHECK_CAP};
use rmtrace::{TraceEvent, TraceSink, Tracer};
use rmwire::{Header, Rank, HEADER_LEN};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Largest UDP datagram the suite sends.
pub const MAX_DGRAM: usize = 65_507;

/// Frames the hub holds between its socket and its members: three windows
/// of 20, so a clean run (one sender's window plus the receivers'
/// feedback) never fills it, while a flood costs at most 64 recycled
/// buffers before it is tail-dropped like on any switch port.
const QUEUE_FRAMES: usize = 64;

/// The hub's finite output queue: FIFO, tail drop when full, frame
/// buffers recycled through a free list so a warmed-up queue allocates
/// nothing per datagram.
struct FrameQueue {
    frames: VecDeque<Vec<u8>>,
    free: Vec<Vec<u8>>,
    capacity: usize,
    drops: u64,
    peak: usize,
}

impl FrameQueue {
    fn new(capacity: usize) -> Self {
        FrameQueue {
            frames: VecDeque::with_capacity(capacity),
            free: Vec::new(),
            capacity,
            drops: 0,
            peak: 0,
        }
    }

    /// Queue a copy of `frame`; `false` (and one more drop) when full.
    fn push(&mut self, frame: &[u8]) -> bool {
        if self.frames.len() == self.capacity {
            self.drops += 1;
            return false;
        }
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        self.frames.push_back(buf);
        self.peak = self.peak.max(self.frames.len());
        true
    }

    /// The oldest queued frame; hand it back with [`FrameQueue::recycle`].
    fn pop(&mut self) -> Option<Vec<u8>> {
        self.frames.pop_front()
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }
}

/// A running hub thread.
pub struct Hub {
    /// Address group-destined traffic is sent to.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    malformed: Arc<AtomicU64>,
    queue_drops: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl Hub {
    /// Spawn the relay. `member_addrs[i]` is the socket address of the
    /// receiver with rank `i + 1`.
    pub fn spawn(member_addrs: Vec<SocketAddr>) -> io::Result<Hub> {
        Hub::spawn_with_loss(member_addrs, None)
    }

    /// Spawn a relay that deterministically drops every `n`-th forwarded
    /// copy (`drop_every = Some(n)`), for exercising loss recovery over
    /// real sockets.
    pub fn spawn_with_loss(
        member_addrs: Vec<SocketAddr>,
        drop_every: Option<u32>,
    ) -> io::Result<Hub> {
        Hub::spawn_observed(member_addrs, drop_every, None)
    }

    /// Datagrams seen so far whose protocol header did not parse
    /// (including runts dropped before the rank demux).
    pub fn malformed_datagrams(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Frames tail-dropped so far because the hub's queue was full.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops.load(Ordering::Relaxed)
    }

    /// Full-control constructor: injected loss plus an optional trace
    /// sink that hears a `Drop` record for every runt the hub discards
    /// and every frame its full queue tail-drops.
    ///
    /// The relay is a finite-queue switch. Each pass drains its socket
    /// into the frame queue (non-blocking, a bounded batch), then forwards
    /// the oldest frame to every member but its originator, handing the
    /// CPU over every fourth frame so the members it just woke can empty
    /// their sockets. With nothing queued and nothing to read it blocks in
    /// `recv_from`. Socket errors are counted in `udprun.io_errors` and
    /// absorbed, as in [`crate::node::drive`].
    pub fn spawn_observed(
        member_addrs: Vec<SocketAddr>,
        drop_every: Option<u32>,
        trace: Option<Box<dyn TraceSink>>,
    ) -> io::Result<Hub> {
        assert!(drop_every != Some(0), "drop_every must be >= 1");
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        // The hub has no timers: an idle read waits the stop-check cap.
        socket.set_read_timeout(Some(STOP_CHECK_CAP))?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let malformed = Arc::new(AtomicU64::new(0));
        let malformed2 = Arc::clone(&malformed);
        let queue_drops = Arc::new(AtomicU64::new(0));
        let queue_drops2 = Arc::clone(&queue_drops);
        let handle = std::thread::Builder::new()
            .name("udprun-hub".into())
            .spawn(move || {
                let mut tracer = Tracer::off(u16::MAX);
                if let Some(sink) = trace {
                    tracer.set_sink(sink);
                }
                // rmlint: allow(raw-instant): per-thread trace-timestamp epoch, not a measurement
                let epoch = Instant::now();
                let ctr_io_err = rmprof::counter("udprun.io_errors");
                let ctr_drops = rmprof::counter("udprun.hub_queue_drops");
                let gauge_peak = rmprof::gauge("udprun.hub_queue_peak");
                let mut buf = vec![0u8; MAX_DGRAM];
                let mut queue = FrameQueue::new(QUEUE_FRAMES);
                let mut burst = Burst::default();
                let mut counter = 0u32;
                // Non-blocking while `busy`, blocking with a read timeout
                // while idle; the mode changes only when `busy` does.
                let mut busy = true;
                while !stop2.load(Ordering::Relaxed) {
                    // 1. Receive: everything the kernel holds while busy,
                    // one datagram (or the stop-check cap) while idle.
                    let mut moved = false;
                    let reads = if busy { RX_BATCH } else { 1 };
                    for _ in 0..reads {
                        let n = match socket.recv_from(&mut buf) {
                            Ok((n, _)) => n,
                            Err(e) if no_datagram(&e) => break,
                            // ECONNREFUSED from a member whose port
                            // closed: count it and keep relaying.
                            Err(_) => {
                                ctr_io_err.inc();
                                continue;
                            }
                        };
                        moved = true;
                        // A runt cannot carry a header, so it cannot be
                        // rank demultiplexed: discard it here (like a
                        // switch drops an undersized frame) and make the
                        // discard visible. recv_from never returns more
                        // than the buffer holds, but slice defensively.
                        let frame = match buf.get(..n) {
                            Some(frame) if n >= HEADER_LEN => frame,
                            _ => {
                                malformed2.fetch_add(1, Ordering::Relaxed);
                                tracer.emit(
                                    epoch.elapsed().as_nanos() as u64,
                                    TraceEvent::Drop { cause: "HubRunt" },
                                );
                                continue;
                            }
                        };
                        if !queue.push(frame) {
                            queue_drops2.store(queue.drops, Ordering::Relaxed);
                            ctr_drops.inc();
                            tracer.emit(
                                epoch.elapsed().as_nanos() as u64,
                                TraceEvent::Drop {
                                    cause: "HubQueueFull",
                                },
                            );
                        }
                    }
                    // 2. Forward one frame, then look at the socket again.
                    if let Some(frame) = queue.pop() {
                        // Identify the originator from the protocol header
                        // so it does not hear its own multicast (a NIC
                        // does not receive its own frames). A full-length
                        // datagram with an unparseable header is still
                        // flooded — a switch does not validate payloads —
                        // but it is *counted*, never silently swallowed.
                        let src = match Header::decode(&mut frame.as_slice()) {
                            Ok(h) => Some(h.src_rank),
                            Err(_) => {
                                malformed2.fetch_add(1, Ordering::Relaxed);
                                None
                            }
                        };
                        for (i, dest) in member_addrs.iter().enumerate() {
                            if src == Some(Rank::from_receiver_index(i)) {
                                continue;
                            }
                            if let Some(every) = drop_every {
                                counter += 1;
                                if counter.is_multiple_of(every) {
                                    continue; // injected loss
                                }
                            }
                            // Best effort, like the wire.
                            let _ = socket.send_to(&frame, dest);
                        }
                        queue.recycle(frame);
                        moved = true;
                        if burst.sent() {
                            hand_off(epoch);
                        }
                    }
                    if busy != moved {
                        busy = moved;
                        gauge_peak.set(queue.peak as i64);
                        if socket.set_nonblocking(busy).is_err() {
                            ctr_io_err.inc();
                        }
                    }
                }
                gauge_peak.set(queue.peak as i64);
            })?;
        Ok(Hub {
            addr,
            stop,
            malformed,
            queue_drops,
            handle: Some(handle),
        })
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcast::packet::encode_data;
    use rmwire::{PacketFlags, SeqNo};
    use std::time::Duration as StdDuration;

    #[test]
    fn frame_queue_is_fifo_recycles_buffers_and_tail_drops() {
        let mut q = FrameQueue::new(3);
        // FIFO, and a popped buffer is reused by the next push: after the
        // first frame the queue never allocates again.
        assert!(q.push(&[1u8; 100]));
        let mut first_buf = None;
        for i in 2..=50u8 {
            assert!(q.push(&[i; 100]));
            let frame = q.pop().expect("one frame is always queued");
            assert_eq!(frame, [i - 1; 100], "frames leave in arrival order");
            first_buf.get_or_insert(frame.as_ptr());
            q.recycle(frame);
        }
        assert_eq!(q.free.len() + q.frames.len(), 2, "two buffers in all");
        assert!(q.free.iter().any(|b| Some(b.as_ptr()) == first_buf));
        assert_eq!((q.drops, q.peak), (0, 2));

        // Tail drop: a full queue refuses the newcomer, counts it, and
        // keeps what it already held, in order.
        assert!(q.push(&[51; 8]) && q.push(&[52; 8]));
        assert!(!q.push(&[53; 8]) && !q.push(&[54; 8]));
        assert_eq!((q.drops, q.peak), (2, 3));
        let held: Vec<u8> = std::iter::from_fn(|| q.pop()).map(|f| f[0]).collect();
        assert_eq!(held, [50, 51, 52]);
    }

    #[test]
    fn hub_queue_overflow_is_counted_and_traced() {
        use rmtrace::MemorySink;
        // The hub forwards one frame per pass but drains up to RX_BATCH:
        // a flood outruns it, and what does not fit the queue is dropped
        // visibly. The member never reads; its own buffer may overflow too.
        let r1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mem = MemorySink::new();
        let hub = Hub::spawn_observed(
            vec![r1.local_addr().unwrap()],
            None,
            Some(Box::new(mem.clone())),
        )
        .unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let pkt = encode_data(Rank(0), 1, SeqNo(0), PacketFlags::EMPTY, b"flood");
        for _ in 0..1_000 {
            tx.send_to(&pkt, hub.addr).unwrap();
        }
        // Wait until the hub has worked the flood off: the count is above
        // zero and has stopped moving.
        let mut drops = 0;
        for _ in 0..200 {
            std::thread::sleep(StdDuration::from_millis(10));
            let seen = hub.queue_drops();
            if seen > 0 && seen == drops {
                break;
            }
            drops = seen;
        }
        assert!(drops > 0, "1 000 datagrams in one burst must overflow 64");
        let traced = mem
            .records()
            .into_iter()
            .filter(|r| {
                matches!(
                    r.ev,
                    rmtrace::TraceEvent::Drop {
                        cause: "HubQueueFull"
                    }
                )
            })
            .count();
        assert_eq!(traced as u64, drops, "one Drop record per dropped frame");
    }

    #[test]
    fn hub_keeps_relaying_after_a_member_socket_closed() {
        // Rank 1's socket is gone before the first datagram: forwarding to
        // its port can bounce back as ECONNREFUSED on the hub's socket. The
        // relay must absorb that and keep serving rank 2.
        let r1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let r1_addr = r1.local_addr().unwrap();
        drop(r1);
        let r2 = UdpSocket::bind("127.0.0.1:0").unwrap();
        r2.set_read_timeout(Some(StdDuration::from_millis(500)))
            .unwrap();
        let hub = Hub::spawn(vec![r1_addr, r2.local_addr().unwrap()]).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 64];
        for seq in 0..3 {
            let pkt = encode_data(Rank(0), 1, SeqNo(seq), PacketFlags::EMPTY, b"on");
            tx.send_to(&pkt, hub.addr).unwrap();
            let (n, _) = r2.recv_from(&mut buf).expect("rank 2 still served");
            assert_eq!(&buf[..n], &pkt[..]);
        }
        assert_eq!(hub.queue_drops(), 0);
    }

    #[test]
    fn hub_relays_to_all_but_origin() {
        let r1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let r2 = UdpSocket::bind("127.0.0.1:0").unwrap();
        r1.set_read_timeout(Some(StdDuration::from_millis(500)))
            .unwrap();
        r2.set_read_timeout(Some(StdDuration::from_millis(500)))
            .unwrap();
        let hub = Hub::spawn(vec![r1.local_addr().unwrap(), r2.local_addr().unwrap()]).unwrap();

        // Datagram from the sender (rank 0): both receivers get it.
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let pkt = encode_data(Rank(0), 1, SeqNo(0), PacketFlags::EMPTY, b"hi");
        tx.send_to(&pkt, hub.addr).unwrap();
        let mut buf = [0u8; 64];
        let (n, _) = r1.recv_from(&mut buf).expect("r1 gets sender multicast");
        assert_eq!(n, pkt.len());
        r2.recv_from(&mut buf).expect("r2 gets sender multicast");

        // Datagram from rank 1: only rank 2 gets it.
        let pkt1 = encode_data(Rank(1), 1, SeqNo(0), PacketFlags::EMPTY, b"yo");
        tx.send_to(&pkt1, hub.addr).unwrap();
        r2.recv_from(&mut buf).expect("r2 hears rank 1");
        assert!(
            r1.recv_from(&mut buf).is_err(),
            "rank 1 must not hear its own multicast"
        );
    }

    #[test]
    fn hub_counts_malformed_and_drops_runts() {
        use rmtrace::MemorySink;
        let r1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        r1.set_read_timeout(Some(StdDuration::from_millis(300)))
            .unwrap();
        let mem = MemorySink::new();
        let hub = Hub::spawn_observed(
            vec![r1.local_addr().unwrap()],
            None,
            Some(Box::new(mem.clone())),
        )
        .unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();

        // A runt is dropped before the rank demux: never forwarded.
        tx.send_to(&[1u8, 2, 3], hub.addr).unwrap();
        let mut buf = [0u8; 64];
        assert!(r1.recv_from(&mut buf).is_err(), "runt must not be flooded");

        // Unparseable full-length datagrams are still flooded (the hub is
        // a switch, not a firewall) but no longer silently swallowed.
        tx.send_to(&[0xFFu8; 40], hub.addr).unwrap();
        let (n, _) = r1.recv_from(&mut buf).expect("garbage still floods");
        assert_eq!(n, 40);

        // A valid datagram keeps working and is not counted.
        let pkt = encode_data(Rank(0), 1, SeqNo(0), PacketFlags::EMPTY, b"ok");
        tx.send_to(&pkt, hub.addr).unwrap();
        r1.recv_from(&mut buf).expect("valid datagram floods");

        assert_eq!(hub.malformed_datagrams(), 2);
        let drops: Vec<_> = mem
            .records()
            .into_iter()
            .filter(|r| matches!(r.ev, rmtrace::TraceEvent::Drop { cause: "HubRunt" }))
            .collect();
        assert_eq!(drops.len(), 1, "exactly the runt produced a Drop record");
    }
}
