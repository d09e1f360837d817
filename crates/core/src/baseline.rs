//! Baselines the paper compares against.
//!
//! * **Raw UDP** (Figure 9): the sender blasts every packet over IP
//!   multicast with no flow control; receivers reply with a single ACK
//!   upon receipt of the last packet. Unreliable by construction — it
//!   bounds the protocol overhead from below.
//! * **"TCP"** (Figure 8): reliable unicast to each receiver in turn. We
//!   model it as the ACK-based engine run over a single-receiver group
//!   without the allocation handshake, once per receiver, sequentially —
//!   see `simrun`'s `SerialUnicast` driver; no extra engine is needed
//!   here.

use crate::endpoint::{AppEvent, Dest, Endpoint, Io, Transmit};
use crate::packet::{self, Body, Packet};
use crate::sender::Sender;
use crate::stats::Stats;
use bytes::Bytes;
use rmwire::{Duration, GroupSpec, PacketFlags, Rank, SeqNo, Time};
use std::collections::VecDeque;

/// The raw-UDP blasting sender.
pub struct RawUdpSender {
    group: GroupSpec,
    packet_size: usize,
    rto: Duration,
    io: Io,
    /// Active message: `(msg_id, k, final-ack flags per receiver, last packet)`.
    active: Option<Active>,
    queue: VecDeque<(u64, Bytes)>,
    next_msg_id: u64,
}

struct Active {
    msg_id: u64,
    k: u32,
    acked: Vec<bool>,
    last_packet: Bytes,
    last_tx: Time,
}

impl RawUdpSender {
    /// Build a blaster for `group` with the given packet size.
    pub fn new(group: GroupSpec, packet_size: usize, rto: Duration) -> Self {
        assert!(packet_size >= 1);
        RawUdpSender {
            group,
            packet_size,
            rto,
            io: Io::new(Rank::SENDER, false),
            active: None,
            queue: VecDeque::new(),
            next_msg_id: 0,
        }
    }

    /// Queue a message; it is blasted in one burst when its turn comes.
    pub fn send_message(&mut self, now: Time, data: Bytes) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.queue.push_back((id, data));
        self.start_next(now);
        id
    }

    fn start_next(&mut self, now: Time) {
        if self.active.is_some() {
            return;
        }
        let Some((msg_id, data)) = self.queue.pop_front() else {
            return;
        };
        let transfer = Sender::data_transfer_id(msg_id);
        let k = Sender::packet_count(data.len(), self.packet_size);
        let mut last_packet = Bytes::new();
        for seq in 0..k {
            let start = seq as usize * self.packet_size;
            let end = (start + self.packet_size).min(data.len());
            let chunk = if start < data.len() {
                &data[start..end]
            } else {
                &[][..]
            };
            let mut flags = PacketFlags::EMPTY;
            if seq + 1 == k {
                flags |= PacketFlags::LAST | PacketFlags::POLL;
            }
            let payload = packet::encode_data(Rank::SENDER, transfer, SeqNo(seq), flags, chunk);
            if seq + 1 == k {
                last_packet = payload.clone();
            }
            self.io.stats.data_sent += 1;
            self.io.stats.payload_bytes_sent += chunk.len() as u64;
            self.io.stats.user_copy_bytes += chunk.len() as u64;
            self.io.out.push_back(Transmit {
                dest: Dest::Receivers,
                payload,
                copied: chunk.len(),
            });
        }
        self.active = Some(Active {
            msg_id,
            k,
            acked: vec![false; self.group.n_receivers as usize],
            last_packet,
            last_tx: now,
        });
    }
}

impl Endpoint for RawUdpSender {
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]) {
        let Ok(Packet {
            header,
            body: Body::Ack { next_expected, .. },
        }) = Packet::parse(datagram)
        else {
            self.io.stats.decode_errors += 1;
            return;
        };
        self.io.stats.acks_received += 1;
        let Some(a) = self.active.as_mut() else {
            return;
        };
        if header.transfer != Sender::data_transfer_id(a.msg_id)
            || next_expected.0 < a.k
            || header.src_rank.is_sender()
            || !self.group.contains(header.src_rank)
        {
            return;
        }
        a.acked[header.src_rank.receiver_index()] = true;
        if a.acked.iter().all(|&x| x) {
            let msg_id = a.msg_id;
            self.active = None;
            self.io.stats.messages_completed += 1;
            self.io.events.push_back(AppEvent::MessageSent { msg_id });
            self.start_next(now);
        }
    }

    fn handle_timeout(&mut self, now: Time) {
        let rto = self.rto;
        let Some(a) = self.active.as_mut() else {
            return;
        };
        if now.saturating_since(a.last_tx).as_nanos() < rto.as_nanos() {
            return;
        }
        // Re-blast only the last packet to re-trigger the final ACKs.
        a.last_tx = now;
        self.io.stats.retx_sent += 1;
        self.io.stats.timeouts += 1;
        self.io.send(Dest::Receivers, a.last_packet.clone());
    }

    fn poll_timeout(&self) -> Option<Time> {
        self.active.as_ref().map(|a| a.last_tx + self.rto)
    }

    fn is_idle(&self) -> bool {
        self.active.is_none() && self.queue.is_empty() && self.io.out.is_empty()
    }

    fn io(&self) -> &Io {
        &self.io
    }

    fn io_mut(&mut self) -> &mut Io {
        &mut self.io
    }
}

/// The raw-UDP receiver: appends in-order data, replies once to the last
/// packet, delivers only if nothing was lost.
pub struct RawUdpReceiver {
    rank: Rank,
    io: Io,
    cur_transfer: Option<u32>,
    buf: Vec<u8>,
    next: u32,
    k: Option<u32>,
    delivered: bool,
}

impl RawUdpReceiver {
    /// Build the receiver for `rank`.
    pub fn new(rank: Rank) -> Self {
        assert!(!rank.is_sender());
        RawUdpReceiver {
            rank,
            io: Io::new(rank, false),
            cur_transfer: None,
            buf: Vec::new(),
            next: 0,
            k: None,
            delivered: false,
        }
    }
}

impl Endpoint for RawUdpReceiver {
    fn handle_datagram(&mut self, _now: Time, datagram: &[u8]) {
        let Ok(Packet {
            header,
            body: Body::Data(body),
        }) = Packet::parse(datagram)
        else {
            self.io.stats.decode_errors += 1;
            return;
        };
        self.io.stats.data_received += 1;
        if self.cur_transfer != Some(header.transfer) {
            // New blast begins.
            self.cur_transfer = Some(header.transfer);
            self.buf.clear();
            self.next = 0;
            self.k = None;
            self.delivered = false;
        }
        let seq = header.seq.0;
        if seq == self.next {
            self.buf.extend_from_slice(body);
            self.next += 1;
        } else if seq < self.next {
            self.io.stats.data_discarded += 1;
        }
        // Gaps are silently lost: this is raw UDP.
        if header.flags.contains(PacketFlags::LAST) {
            let k = seq + 1;
            self.k = Some(k);
            // Acknowledge receipt of the last packet (paper Fig. 9 setup),
            // whether or not earlier packets were lost.
            self.io.stats.acks_sent += 1;
            self.io.send(
                Dest::Sender,
                packet::encode_ack(self.rank, header.transfer, SeqNo(k)),
            );
            if self.next == k && !self.delivered {
                self.delivered = true;
                self.io.stats.messages_completed += 1;
                self.io.events.push_back(AppEvent::MessageDelivered {
                    msg_id: (header.transfer / 2) as u64,
                    data: Bytes::from(std::mem::take(&mut self.buf)),
                });
            }
        }
        self.io.stats.sample_buffer(self.buf.len());
    }

    fn handle_timeout(&mut self, _now: Time) {}

    fn poll_timeout(&self) -> Option<Time> {
        None
    }

    fn is_idle(&self) -> bool {
        self.io.out.is_empty()
    }

    fn io(&self) -> &Io {
        &self.io
    }

    fn io_mut(&mut self) -> &mut Io {
        &mut self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blast_and_final_ack() {
        let g = GroupSpec::new(2);
        let mut s = RawUdpSender::new(g, 100, Duration::from_millis(40));
        let mut r1 = RawUdpReceiver::new(Rank(1));
        let mut r2 = RawUdpReceiver::new(Rank(2));
        s.send_message(Time::ZERO, Bytes::from(vec![5u8; 250]));

        let mut pkts = Vec::new();
        while let Some(t) = s.poll_transmit() {
            assert_eq!(t.dest, Dest::Receivers);
            pkts.push(t.payload);
        }
        assert_eq!(pkts.len(), 3, "250 bytes / 100 = 3 packets, all at once");

        for p in &pkts {
            r1.handle_datagram(Time::ZERO, p);
            r2.handle_datagram(Time::ZERO, p);
        }
        let a1 = r1.poll_transmit().expect("final ack");
        let a2 = r2.poll_transmit().expect("final ack");
        assert!(r1.poll_transmit().is_none(), "exactly one ack per blast");
        match r1.poll_event().unwrap() {
            AppEvent::MessageDelivered { data, .. } => assert_eq!(data.len(), 250),
            other => panic!("{other:?}"),
        }

        s.handle_datagram(Time::ZERO, &a1.payload);
        assert!(s.poll_event().is_none(), "one ack is not enough");
        s.handle_datagram(Time::ZERO, &a2.payload);
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
        assert!(s.is_idle());
    }

    #[test]
    fn lost_middle_packet_means_no_delivery_but_still_acks() {
        let g = GroupSpec::new(1);
        let mut s = RawUdpSender::new(g, 100, Duration::from_millis(40));
        let mut r = RawUdpReceiver::new(Rank(1));
        s.send_message(Time::ZERO, Bytes::from(vec![5u8; 300]));
        let pkts: Vec<_> = std::iter::from_fn(|| s.poll_transmit()).collect();
        // Drop packet 1.
        r.handle_datagram(Time::ZERO, &pkts[0].payload);
        r.handle_datagram(Time::ZERO, &pkts[2].payload);
        let ack = r.poll_transmit().expect("acks the last packet anyway");
        assert!(r.poll_event().is_none(), "incomplete: no delivery");
        s.handle_datagram(Time::ZERO, &ack.payload);
        assert_eq!(
            s.poll_event(),
            Some(AppEvent::MessageSent { msg_id: 0 }),
            "raw UDP sender believes the blast completed"
        );
    }

    #[test]
    fn timeout_reblasts_last_packet() {
        let g = GroupSpec::new(1);
        let mut s = RawUdpSender::new(g, 100, Duration::from_millis(40));
        s.send_message(Time::ZERO, Bytes::from(vec![5u8; 100]));
        let _ = std::iter::from_fn(|| s.poll_transmit()).count();
        let deadline = s.poll_timeout().unwrap();
        s.handle_timeout(deadline);
        let retx: Vec<_> = std::iter::from_fn(|| s.poll_transmit()).collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(s.stats().retx_sent, 1);
    }
}

/// The Figure 8 "TCP" baseline: a reliable unicast transfer to each
/// receiver **in turn**, modelling a message-passing library realizing a
/// broadcast over point-to-point TCP connections.
///
/// Internally this wraps one single-receiver ACK-engine per receiver and
/// activates them sequentially; transmits are rewritten from the
/// engine-local group destination to the global rank being served.
pub struct SerialUnicastSender {
    group: GroupSpec,
    subs: Vec<Sender>,
    active: usize,
    /// Counters merged from the per-receiver engines, and the one
    /// completion event; datagrams come straight from the active engine.
    io: Io,
    started: bool,
    /// Per-receiver payloads (identical for a broadcast, distinct for a
    /// scatter).
    parts: Option<Vec<Bytes>>,
}

impl SerialUnicastSender {
    /// A serial-unicast sender over `group` using a TCP-like segment size
    /// and window (in segments).
    pub fn new(group: GroupSpec, segment_size: usize, window: usize) -> Self {
        use crate::config::{ProtocolConfig, ProtocolKind};
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, segment_size, window);
        cfg.handshake = false; // TCP is a stream: no allocation round trip
        let subs = group
            .receivers()
            .map(|_| Sender::new(cfg, GroupSpec::new(1)))
            .collect();
        SerialUnicastSender {
            group,
            subs,
            active: 0,
            io: Io::new(Rank::SENDER, false),
            started: false,
            parts: None,
        }
    }

    /// Start transferring `data` to every receiver, one after another.
    /// Only a single message is supported (the Figure 8 workload).
    pub fn send_message(&mut self, now: Time, data: Bytes) {
        let n = self.subs.len();
        self.send_scatter(now, vec![data; n]);
    }

    /// MPI-style scatter: deliver `parts[i]` to receiver rank `i + 1`,
    /// reliably, one receiver after another.
    pub fn send_scatter(&mut self, now: Time, parts: Vec<Bytes>) {
        assert!(!self.started, "serial unicast carries a single message");
        assert_eq!(
            parts.len(),
            self.subs.len(),
            "scatter needs exactly one part per receiver"
        );
        self.started = true;
        let first = parts[0].clone();
        self.parts = Some(parts);
        self.subs[0].send_message(now, first);
    }

    fn advance_if_done(&mut self, now: Time) {
        while self.active < self.subs.len() {
            let sub = &mut self.subs[self.active];
            match sub.poll_event() {
                Some(AppEvent::MessageSent { .. }) => {
                    self.active += 1;
                    if self.active < self.subs.len() {
                        let data = self.parts.as_ref().expect("message set")[self.active].clone();
                        self.subs[self.active].send_message(now, data);
                    } else {
                        self.io.stats.messages_completed += 1;
                        self.io
                            .events
                            .push_back(AppEvent::MessageSent { msg_id: 0 });
                    }
                }
                Some(_) => {}
                None => break,
            }
        }
    }

    fn merge_sub_stats(&mut self) {
        let mut merged = Stats::default();
        for s in &self.subs {
            merged.merge(s.stats());
        }
        merged.messages_completed = self.io.stats.messages_completed;
        merged.peak_buffer_bytes = self
            .subs
            .iter()
            .map(|s| s.stats().peak_buffer_bytes)
            .max()
            .unwrap_or(0);
        self.io.stats = merged;
    }
}

impl Endpoint for SerialUnicastSender {
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]) {
        if self.active < self.subs.len() {
            self.subs[self.active].handle_datagram(now, datagram);
            self.advance_if_done(now);
        }
        self.merge_sub_stats();
    }

    fn handle_timeout(&mut self, now: Time) {
        if self.active < self.subs.len() {
            self.subs[self.active].handle_timeout(now);
        }
    }

    fn poll_timeout(&self) -> Option<Time> {
        self.subs.get(self.active).and_then(|s| s.poll_timeout())
    }

    fn poll_transmit(&mut self) -> Option<Transmit> {
        let active = self.active;
        let sub = self.subs.get_mut(active)?;
        let t = sub.poll_transmit()?;
        // The engine-local group has exactly one receiver; rewrite both
        // group and per-rank destinations to the global rank being served.
        let global = Rank::from_receiver_index(active);
        debug_assert!(self.group.contains(global));
        Some(Transmit {
            dest: Dest::Rank(global),
            ..t
        })
    }

    fn is_idle(&self) -> bool {
        self.active >= self.subs.len()
    }

    fn io(&self) -> &Io {
        &self.io
    }

    fn io_mut(&mut self) -> &mut Io {
        &mut self.io
    }
}

#[cfg(test)]
mod serial_tests {
    use super::*;
    use crate::config::{ProtocolConfig, ProtocolKind};
    use crate::endpoint::Endpoint;
    use crate::receiver::Receiver;

    #[test]
    fn serial_unicast_visits_receivers_in_order() {
        let g = GroupSpec::new(3);
        let mut s = SerialUnicastSender::new(g, 1000, 8);
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 1000, 8);
        cfg.handshake = false;
        let mut receivers: Vec<Receiver> = (0..3)
            .map(|_| Receiver::new(cfg, GroupSpec::new(1), Rank(1), 7))
            .collect();

        s.send_message(Time::ZERO, Bytes::from(vec![9u8; 2500]));
        let mut served = Vec::new();
        for _round in 0..100 {
            let mut moved = false;
            while let Some(t) = s.poll_transmit() {
                moved = true;
                let Dest::Rank(r) = t.dest else {
                    panic!("serial unicast must unicast")
                };
                served.push(r);
                let idx = r.receiver_index();
                receivers[idx].handle_datagram(Time::ZERO, &t.payload);
                while let Some(a) = receivers[idx].poll_transmit() {
                    s.handle_datagram(Time::ZERO, &a.payload);
                }
            }
            if !moved {
                break;
            }
        }
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
        assert!(s.is_idle());
        // Receiver 1 fully served before 2, before 3.
        let first_2 = served.iter().position(|r| *r == Rank(2)).unwrap();
        let last_1 = served.iter().rposition(|r| *r == Rank(1)).unwrap();
        assert!(last_1 < first_2, "receiver 1 must finish before 2 starts");
        assert_eq!(s.stats().data_sent, 9, "3 packets x 3 receivers");
        for r in &receivers {
            assert_eq!(r.stats().messages_completed, 1);
        }
    }
}

#[cfg(test)]
mod scatter_tests {
    use super::*;
    use crate::config::{ProtocolConfig, ProtocolKind};
    use crate::endpoint::Endpoint;
    use crate::receiver::Receiver;

    #[test]
    fn scatter_delivers_distinct_parts() {
        let g = GroupSpec::new(3);
        let mut s = SerialUnicastSender::new(g, 500, 4);
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 4);
        cfg.handshake = false;
        let mut receivers: Vec<Receiver> = (0..3)
            .map(|_| Receiver::new(cfg, GroupSpec::new(1), Rank(1), 3))
            .collect();

        let parts: Vec<Bytes> = (0..3u8)
            .map(|i| Bytes::from(vec![i; 700 + i as usize * 100]))
            .collect();
        s.send_scatter(Time::ZERO, parts.clone());

        let mut delivered: Vec<Option<Bytes>> = vec![None; 3];
        for _ in 0..100 {
            let mut moved = false;
            while let Some(t) = s.poll_transmit() {
                moved = true;
                let Dest::Rank(r) = t.dest else {
                    panic!("must unicast")
                };
                let idx = r.receiver_index();
                receivers[idx].handle_datagram(Time::ZERO, &t.payload);
                while let Some(a) = receivers[idx].poll_transmit() {
                    s.handle_datagram(Time::ZERO, &a.payload);
                }
                while let Some(AppEvent::MessageDelivered { data, .. }) =
                    receivers[idx].poll_event()
                {
                    delivered[idx] = Some(data);
                }
            }
            if !moved {
                break;
            }
        }
        assert_eq!(s.poll_event(), Some(AppEvent::MessageSent { msg_id: 0 }));
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.as_ref().expect("delivered"), &parts[i]);
        }
    }

    #[test]
    #[should_panic(expected = "one part per receiver")]
    fn scatter_part_count_checked() {
        let mut s = SerialUnicastSender::new(GroupSpec::new(3), 500, 4);
        s.send_scatter(Time::ZERO, vec![Bytes::new(); 2]);
    }
}
