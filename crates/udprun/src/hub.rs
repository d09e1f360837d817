//! The software hub: a UDP relay standing in for the LAN broadcast
//! medium.
//!
//! Group-destined datagrams are sent to the hub's socket; the hub decodes
//! the protocol header's source rank and forwards a copy to every group
//! member except the originator — the same semantics a switch flooding a
//! multicast frame gives the paper's testbed.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::flow::{Flow, Gauge, Outlet};
use crate::node::{no_datagram, Pace, RX_BATCH, STOP_CHECK_CAP};
use rmtrace::{DropCause, TraceEvent, TraceSink, Tracer};
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

/// Frames the hub holds between its socket and its members. The
/// cluster's own traffic never comes near it: a member's credit for the
/// hub's socket comes back when its frame *leaves* this queue, so members
/// keep at most a gauge depth (8 of a measured 12) in socket and queue
/// together (`udprun.hub_queue_peak` 8 on `udp_bulk`). The bound is for
/// floods from outside the cluster, which cost at most 64 recycled buffers
/// before they are tail-dropped like on any switch port.
const QUEUE_FRAMES: usize = 64;

/// The hub's finite output queue: FIFO, tail drop when full. A frame is
/// received straight into the buffer it is queued in, and buffers are
/// recycled through a free list, so a warmed-up queue neither allocates
/// nor copies per datagram. The queue also keeps the hub's side of its own
/// gauge: a datagram counts as in flight towards the hub until its frame
/// leaves here — forwarded, tail-dropped or discarded — not until it is
/// read, or the queue would be a second socket buffer for members to fill.
struct FrameQueue {
    /// Queued frames: the buffer and how much of it the datagram filled.
    frames: VecDeque<(Vec<u8>, usize)>,
    free: Vec<Vec<u8>>,
    capacity: usize,
    drops: u64,
    peak: usize,
    flow: Arc<Flow>,
}

impl FrameQueue {
    fn new(capacity: usize, flow: Arc<Flow>) -> Self {
        FrameQueue {
            frames: VecDeque::with_capacity(capacity),
            free: Vec::new(),
            capacity,
            drops: 0,
            peak: 0,
            flow,
        }
    }

    /// The gauge of the hub's own socket.
    fn own(&self) -> &Gauge {
        self.flow.gauge(self.flow.hub())
    }

    /// A [`MAX_DGRAM`]-byte buffer to receive the next datagram into; hand
    /// it back with [`FrameQueue::push`], [`FrameQueue::discard`] or
    /// [`FrameQueue::recycle`].
    fn buffer(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_else(|| vec![0u8; MAX_DGRAM])
    }

    /// Queue the `len`-byte frame received into `buf`; when full, `false`,
    /// one more drop, and the buffer goes back to the free list.
    fn push(&mut self, buf: Vec<u8>, len: usize) -> bool {
        if self.frames.len() == self.capacity {
            self.drops += 1;
            self.discard(buf);
            return false;
        }
        self.frames.push_back((buf, len));
        self.peak = self.peak.max(self.frames.len());
        true
    }

    /// A datagram was received into `buf` and is not going to be queued.
    fn discard(&mut self, buf: Vec<u8>) {
        self.own().took_one();
        self.recycle(buf);
    }

    /// The oldest queued frame and its length; hand the buffer back with
    /// [`FrameQueue::recycle`].
    fn pop(&mut self) -> Option<(Vec<u8>, usize)> {
        let frame = self.frames.pop_front()?;
        self.own().took_one();
        Some(frame)
    }

    /// A read that followed `mark = own().mark()` found the socket empty:
    /// of what members had sent by then, only the queued frames are left.
    fn socket_empty(&self, mark: u64) {
        self.own().found_empty(mark, self.frames.len() as u64);
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
    /// Datagrams seen so far whose protocol header did not parse
    /// (including runts dropped before the rank demux).
    pub fn malformed_datagrams(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Frames tail-dropped so far because the hub's queue was full.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops.load(Ordering::Relaxed)
    }

    /// The relay on the gauges in `flow`: index `i + 1` is the socket of
    /// `member_addrs[i]`, the receiver with rank `i + 1`, and the last one
    /// the hub's own. `trace` hears a `Drop` record, rank `u16::MAX` (the
    /// hub's), for every runt the hub discards and every frame its full
    /// queue tail-drops. Records are stamped from the hub thread's own
    /// start, not the cluster's epoch: the two are about one thread start
    /// apart. The hub injects no faults: the run's loss is drawn where
    /// each node receives (`node::drive`).
    ///
    /// The relay is a finite-queue switch. Each pass drains its socket
    /// into the frame queue (non-blocking, a bounded batch), then forwards
    /// the oldest frame to every member but its originator, waiting —
    /// bounded, [`Outlet::admit`] — for room in a member's socket whose
    /// gauge is at the depth. The frame's sender gets its credit for the
    /// hub's socket back when the frame leaves the queue, not when it is
    /// read, so the queue is not a second buffer to fill. A pass that
    /// moved nothing polls on for `LINGER`, then blocks in `recv_from`
    /// ([`Pace`]). Socket errors are counted in `udprun.io_errors` and
    /// absorbed, as in [`crate::node::drive`].
    pub(crate) fn spawn_on(
        member_addrs: Vec<SocketAddr>,
        trace: Option<Box<dyn TraceSink>>,
        flow: Arc<Flow>,
    ) -> io::Result<Hub> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        // The hub has no timers: a blocking read waits the stop-check cap.
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
                #[allow(
                    clippy::disallowed_methods,
                    reason = "per-thread trace-timestamp epoch, not a measurement"
                )]
                let epoch = Instant::now();
                let ctr_io_err = rmprof::counter("udprun.io_errors");
                let ctr_drops = rmprof::counter("udprun.hub_queue_drops");
                let gauge_peak = rmprof::gauge("udprun.hub_queue_peak");
                let mut queue = FrameQueue::new(QUEUE_FRAMES, Arc::clone(&flow));
                let mut outlet = Outlet::new(Arc::clone(&flow));
                let mut pace = Pace::new(epoch.elapsed());
                while !stop2.load(Ordering::Relaxed) {
                    // 1. Receive: everything the kernel holds while
                    // polling, one datagram (or the stop-check cap) while
                    // blocking.
                    let mut moved = false;
                    let reads = if pace.blocking() { 1 } else { RX_BATCH };
                    for _ in 0..reads {
                        let mark = queue.own().mark();
                        let mut buf = queue.buffer();
                        let n = match socket.recv_from(&mut buf) {
                            Ok((n, _)) => n,
                            Err(e) => {
                                queue.recycle(buf);
                                if no_datagram(&e) {
                                    queue.socket_empty(mark);
                                    break;
                                }
                                // ECONNREFUSED from a member whose port
                                // closed: count it and keep relaying.
                                ctr_io_err.inc();
                                continue;
                            }
                        };
                        moved = true;
                        // A runt cannot carry a header, so it cannot be
                        // rank demultiplexed: discard it here (like a
                        // switch drops an undersized frame) and make the
                        // discard visible. A frame that is not queued
                        // has left already: its credit goes straight back.
                        if n < HEADER_LEN {
                            queue.discard(buf);
                            malformed2.fetch_add(1, Ordering::Relaxed);
                            tracer.emit(
                                epoch.elapsed().as_nanos() as u64,
                                TraceEvent::Drop {
                                    cause: DropCause::HubRunt,
                                },
                            );
                            continue;
                        }
                        if !queue.push(buf, n) {
                            queue_drops2.store(queue.drops, Ordering::Relaxed);
                            ctr_drops.inc();
                            tracer.emit(
                                epoch.elapsed().as_nanos() as u64,
                                TraceEvent::Drop {
                                    cause: DropCause::HubQueueFull,
                                },
                            );
                        }
                    }
                    // 2. Forward one frame, then look at the socket again.
                    if let Some((buf, len)) = queue.pop() {
                        // recv_from never returns more than the buffer
                        // holds, but slice defensively.
                        let frame = buf.get(..len).unwrap_or(&buf);
                        // Identify the originator from the protocol header
                        // so it does not hear its own multicast (a NIC
                        // does not receive its own frames). A full-length
                        // datagram with an unparseable header is still
                        // flooded — a switch does not validate payloads —
                        // but it is *counted*, never silently swallowed.
                        let src = match Header::decode(&mut &*frame) {
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
                            outlet.admit(i + 1, epoch);
                            // Best effort, like the wire.
                            if socket.send_to(frame, dest).is_ok() {
                                outlet.sent(i + 1);
                            }
                        }
                        queue.recycle(buf);
                        moved = true;
                    }
                    if pace.pass(moved, epoch.elapsed(), &socket).is_err() {
                        ctr_io_err.inc();
                    }
                    if !moved {
                        gauge_peak.set(queue.peak as i64);
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
        let mut q = FrameQueue::new(3, Flow::unmetered(0));
        // What the relay does with a datagram: take a buffer, receive
        // into it, queue it with its length.
        fn push(q: &mut FrameQueue, frame: &[u8]) -> bool {
            let mut buf = q.buffer();
            assert_eq!(buf.len(), MAX_DGRAM, "room for any datagram");
            buf[..frame.len()].copy_from_slice(frame);
            q.push(buf, frame.len())
        }
        // FIFO, and a popped buffer is reused by the next push: after the
        // second frame the queue never allocates again.
        assert!(push(&mut q, &[1u8; 100]));
        let mut first_buf = None;
        for i in 2..=50u8 {
            assert!(push(&mut q, &[i; 100]));
            let (buf, len) = q.pop().expect("one frame is always queued");
            assert_eq!(buf[..len], [i - 1; 100], "frames leave in arrival order");
            first_buf.get_or_insert(buf.as_ptr());
            q.recycle(buf);
        }
        assert_eq!(q.free.len() + q.frames.len(), 2, "two buffers in all");
        assert!(q.free.iter().any(|b| Some(b.as_ptr()) == first_buf));
        assert_eq!((q.drops, q.peak), (0, 2));

        // Tail drop: a full queue refuses the newcomer, counts it, and
        // keeps what it already held, in order.
        assert!(push(&mut q, &[51; 8]) && push(&mut q, &[52; 8]));
        assert!(!push(&mut q, &[53; 8]) && !push(&mut q, &[54; 8]));
        assert_eq!((q.drops, q.peak), (2, 3));
        let held: Vec<u8> = std::iter::from_fn(|| q.pop()).map(|(f, _)| f[0]).collect();
        assert_eq!(held, [50, 51, 52]);
    }

    #[test]
    fn credit_for_the_hubs_socket_returns_on_forward_not_on_read() {
        // A member that sends whenever the hub's gauge shows room, and a
        // relay that — like the real one — drains a batch into the queue
        // and forwards one frame per pass. Were credit returned when a
        // frame is read, every pass would hand the member a full depth
        // again and the queue would fill to its 64; returned when a frame
        // leaves, socket and queue together never hold more than the depth.
        let flow = Flow::new(1, 12);
        let depth = 8;
        let mut q = FrameQueue::new(QUEUE_FRAMES, Arc::clone(&flow));
        let mut in_socket = 0;
        let mut forwarded = 0;
        for _ in 0..1_000 {
            while q.own().in_flight() < depth {
                in_socket += 1;
                q.own().sent_one();
            }
            assert!(in_socket + q.frames.len() <= depth as usize);
            let mark = q.own().mark();
            for _ in 0..in_socket.min(RX_BATCH) {
                let buf = q.buffer();
                assert!(q.push(buf, 100));
                in_socket -= 1;
            }
            q.socket_empty(mark);
            if let Some((buf, _)) = q.pop() {
                q.recycle(buf);
                forwarded += 1;
            }
        }
        assert_eq!((q.drops, forwarded), (0, 1_000));
        assert_eq!(q.peak, depth as usize, "the queue is not a second buffer");
        // A datagram that is not queued (a runt, a tail drop) gives its
        // credit back at once.
        let before = q.own().in_flight();
        q.own().sent_one();
        let buf = q.buffer();
        q.discard(buf);
        assert_eq!(q.own().in_flight(), before);
    }

    #[test]
    fn hub_queue_overflow_is_counted_and_traced() {
        use rmtrace::MemorySink;
        // The hub forwards one frame per pass but drains up to RX_BATCH:
        // a flood outruns it, and what does not fit the queue is dropped
        // visibly. The member never reads; its own buffer may overflow too.
        let r1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mem = MemorySink::new();
        let hub = Hub::spawn_on(
            vec![r1.local_addr().unwrap()],
            Some(Box::new(mem.clone())),
            Flow::unmetered(1),
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
                        cause: DropCause::HubQueueFull
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
        let members = vec![r1_addr, r2.local_addr().unwrap()];
        let hub = Hub::spawn_on(members, None, Flow::unmetered(2)).unwrap();
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
        let members = vec![r1.local_addr().unwrap(), r2.local_addr().unwrap()];
        let hub = Hub::spawn_on(members, None, Flow::unmetered(2)).unwrap();

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
        let hub = Hub::spawn_on(
            vec![r1.local_addr().unwrap()],
            Some(Box::new(mem.clone())),
            Flow::unmetered(1),
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
            .filter(|r| {
                matches!(
                    r.ev,
                    TraceEvent::Drop {
                        cause: DropCause::HubRunt
                    }
                )
            })
            .collect();
        assert_eq!(drops.len(), 1, "exactly the runt produced a Drop record");
    }
}
