//! Handshake pipelining (`pipeline_handshake`) keeps the next message's
//! allocation round trip in flight beside the current message's data.
//! This file pins what that path does, row by row, against digests
//! recorded before the sender's transfer bookkeeping was folded into one
//! record.
//!
//! Every row queues three messages of different sizes on a four-receiver
//! group before one run. Ten rows run each family on a clean and on a
//! faulted `Loopback`. Three rows kill a receiver the moment the next
//! message's ALLOC reaches it, on a [`Group`] (a `Loopback` stops only
//! between runs): under `LivenessConfig::evicting` that ALLOC's own retry
//! budget runs out first and evicts the dead receiver, under
//! `LivenessConfig::bounded` it fails that ALLOC's message, and with
//! membership on the failure detector drops the dead member from both
//! transfers. A digest is the CRC-32C of the final time, every endpoint's
//! `Stats`, the sender's completed message ids and
//! `(receiver, msg_id, crc32c(bytes))` per delivery.
//!
//! To re-record after an *intended* behaviour change, run the test: it
//! prints the whole table as it should read, ready to paste over `ROWS`.

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::packet::{encode_ack, Body, Packet};
use rmcast::{
    AppEvent, Dest, Duration, Endpoint, GroupSpec, LivenessConfig, MemorySink, ProtocolConfig,
    ProtocolKind, Rank, Receiver, Sender, SeqNo, Stats, Time, Transmit,
};
use rmwire::crc32c;
use std::hash::Hasher;

const N: u16 = 4;
const MESSAGES: [usize; 3] = [20_000, 5_500, 9_001];

fn family(name: &str) -> ProtocolConfig {
    let kind = match name {
        "ack" => ProtocolKind::Ack,
        "nak" => ProtocolKind::nak_polling(4),
        "ring" => ProtocolKind::Ring,
        "tree" => ProtocolKind::flat_tree(2),
        "fec" => ProtocolKind::fec(4),
        other => panic!("unknown family {other}"),
    };
    let mut cfg = ProtocolConfig::new(kind, 1_000, 8);
    cfg.pipeline_handshake = true;
    cfg
}

fn payload(len: usize, tag: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(tag))
            .collect::<Vec<u8>>(),
    )
}

fn messages() -> Vec<Bytes> {
    (0..)
        .zip(MESSAGES)
        .map(|(tag, len)| payload(len, tag))
        .collect()
}

/// What a digest covers, however the row was driven.
fn digest<'a>(
    now: Time,
    stats: impl Iterator<Item = &'a Stats>,
    sent: &[u64],
    deliveries: &[(usize, u64, Bytes)],
) -> u32 {
    let mut text = format!("{now:?}\n");
    stats.for_each(|s| text.push_str(&format!("{s:?}\n")));
    text.push_str(&format!("{sent:?}\n"));
    for (i, msg_id, data) in deliveries {
        text.push_str(&format!("{i} {msg_id} {:08x}\n", crc32c(data)));
    }
    crc32c(text.as_bytes())
}

/// Every receiver in `0..receivers` got every message, in order and intact.
fn all_delivered(deliveries: &[(usize, u64, Bytes)], receivers: usize) {
    let msgs = messages();
    for r in 0..receivers {
        let got: Vec<_> = deliveries.iter().filter(|d| d.0 == r).collect();
        assert_eq!(got.len(), msgs.len(), "receiver {r}");
        assert!(
            got.iter().zip(&msgs).all(|(d, m)| &d.2 == m),
            "receiver {r}"
        );
    }
}

fn loopback_row(fam: &str, faulted: bool, seed: u64) -> u32 {
    let mut cfg = family(fam);
    cfg.integrity = faulted;
    let mut net = Loopback::new(cfg, N, seed);
    if faulted {
        net = net
            .with_loss(0.03)
            .with_reorder(0.05)
            .with_dup(0.02)
            .with_corrupt(0.01);
    }
    for m in messages() {
        net.send_message(m);
    }
    net.run();
    assert_eq!(net.sent, [0, 1, 2]);
    all_delivered(&net.deliveries, N as usize);
    let stats = (0..N as usize).map(|i| net.receiver_stats(i));
    digest(
        net.now(),
        std::iter::once(net.sender_stats()).chain(stats),
        &net.sent,
        &net.deliveries,
    )
}

/// One hop of the [`Group`] network.
const HOP: Duration = Duration::from_micros(50);

/// The receiver a [`Group`] kills (rank 4).
const VICTIM: usize = 4;

/// A loss-free group whose datagrams each take one [`HOP`], so the window a
/// round releases goes out a hop later than the one before it: the next
/// message's ALLOC, sent beside the first window, times out ahead of the
/// data. Receiver [`VICTIM`] dies the moment message 1's ALLOC (transfer 2)
/// reaches it, having acknowledged everything that came before.
///
/// The killed rows run real receivers rather than a bare `Sender` fed
/// hand-built ACKs: a row's digest covers every delivery and every
/// receiver's `Stats`, which a sender alone cannot produce, and the feedback
/// the sender reacts to (polled ACKs and gap NAKs on the fec and nak rows,
/// heartbeat answers on the membership row) is what the family's receivers
/// send, not a cumulative-ACK stand-in written for the test.
struct Group {
    /// Indexed by rank: the sender, then the receivers.
    nodes: Vec<Box<dyn Endpoint>>,
    dead: bool,
    now: Time,
    /// Datagrams on the wire this hop, by the rank that sent them.
    wire: Vec<(usize, Transmit)>,
    /// Every event, by the rank that raised it, in order.
    events: Vec<(usize, AppEvent)>,
}

impl Group {
    fn run(cfg: ProtocolConfig, seed: u64) -> Group {
        let group = GroupSpec::new(N);
        let mut sender = Sender::new(cfg, group);
        for m in messages() {
            sender.send_message(Time::ZERO, m);
        }
        let mut g = Group {
            nodes: vec![Box::new(sender)],
            dead: false,
            now: Time::ZERO,
            wire: Vec::new(),
            events: Vec::new(),
        };
        for r in group.receivers() {
            let seed = seed.wrapping_add(r.0 as u64);
            g.nodes.push(Box::new(Receiver::new(cfg, group, r, seed)));
        }
        g.flush(0);
        loop {
            let wire = std::mem::take(&mut g.wire);
            if !wire.is_empty() {
                g.now += HOP;
                for (from, t) in wire {
                    let to = match t.dest {
                        Dest::Sender => 0..1,
                        Dest::Rank(r) => r.0 as usize..r.0 as usize + 1,
                        Dest::Receivers => 1..g.nodes.len(),
                    };
                    for i in to.filter(|&i| i != from) {
                        g.arrive(i, &t.payload);
                    }
                }
                continue;
            }
            let live: Vec<usize> = (0..g.nodes.len()).filter(|&i| g.live(i)).collect();
            let next = live.iter().filter_map(|&i| g.nodes[i].poll_timeout()).min();
            let Some(at) = next else { break };
            assert!(at.as_nanos() < 60_000_000_000, "group did not converge");
            g.now = g.now.max(at);
            for i in live {
                if g.nodes[i].poll_timeout().is_some_and(|d| d <= g.now) {
                    g.nodes[i].handle_timeout(g.now);
                    g.flush(i);
                }
            }
        }
        assert!(g.dead && g.nodes[0].is_idle());
        g
    }

    fn live(&self, i: usize) -> bool {
        !(self.dead && i == VICTIM)
    }

    /// Put what rank `i` wants to send on the wire and log its events.
    fn flush(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        self.wire
            .extend(std::iter::from_fn(|| node.poll_transmit()).map(|t| (i, t)));
        self.events
            .extend(std::iter::from_fn(|| node.poll_event()).map(|e| (i, e)));
    }

    fn arrive(&mut self, i: usize, datagram: &[u8]) {
        let kills =
            |p| matches!(p, Ok(Packet { header, body: Body::Alloc(_) }) if header.transfer == 2);
        if i == VICTIM && kills(Packet::parse(datagram)) {
            self.dead = true;
        }
        if self.live(i) {
            self.nodes[i].handle_datagram(self.now, datagram);
            self.flush(i);
        }
    }

    /// Where the sender's first event matching `pred` sits in the log.
    fn first(&self, pred: impl Fn(&AppEvent) -> bool) -> Option<usize> {
        self.events.iter().position(|(i, e)| *i == 0 && pred(e))
    }

    fn sent(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                (0, AppEvent::MessageSent { msg_id }) => Some(*msg_id),
                _ => None,
            })
            .collect()
    }

    /// Deliveries by receiver index.
    fn deliveries(&self) -> Vec<(usize, u64, Bytes)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                (i, AppEvent::MessageDelivered { msg_id, data }) => {
                    Some((i - 1, *msg_id, data.clone()))
                }
                _ => None,
            })
            .collect()
    }
}

fn killed_row(fam: &str, plan: &str, seed: u64) -> u32 {
    let mut cfg = family(fam);
    match plan {
        "evicting" => cfg.liveness = LivenessConfig::evicting(1),
        "bounded" => cfg.liveness = LivenessConfig::bounded(1),
        "membership" => cfg.membership = true,
        other => panic!("unknown plan {other}"),
    }
    let g = Group::run(cfg, seed);
    let stats = g.nodes[0].stats();
    if plan == "bounded" {
        // Without eviction the staged ALLOC's message fails first.
        assert_eq!((g.sent(), stats.messages_failed), (vec![], 3));
        let failed =
            |id| g.first(|e| matches!(e, AppEvent::MessageFailed { msg_id, .. } if *msg_id == id));
        assert!(failed(1) < failed(0), "{:?}", g.events);
    } else {
        assert_eq!((g.sent(), stats.evictions), (vec![0, 1, 2], 1));
        all_delivered(&g.deliveries(), N as usize - 1);
    }
    if plan == "evicting" {
        // The staged ALLOC gave up first: its message named the eviction
        // while message 0 was still transferring.
        let evicted = g.first(|e| matches!(e, AppEvent::ReceiverEvicted { msg_id: 1, .. }));
        let sent = g.first(|e| matches!(e, AppEvent::MessageSent { msg_id: 0 }));
        assert!(evicted.is_some() && evicted < sent, "{:?}", g.events);
    }
    let all = g.nodes.iter().map(|n| n.stats());
    digest(g.now, all, &g.sent(), &g.deliveries())
}

/// `(family, plan, seed, digest)`.
type Row = (&'static str, &'static str, u64, u32);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("ack", "clean", 1, 0x6f450fd7),
    ("ack", "faulted", 1, 0xee9fea61),
    ("nak", "clean", 1, 0x4009ad97),
    ("nak", "faulted", 1, 0x700adab9),
    ("ring", "clean", 1, 0xf586903a),
    ("ring", "faulted", 1, 0x350fb7b5),
    ("tree", "clean", 1, 0x0b83ccbb),
    ("tree", "faulted", 1, 0x4aa3198f),
    ("fec", "clean", 1, 0x940be522),
    ("fec", "faulted", 1, 0x10143c6f),
    ("ack", "evicting", 1, 0x9ee00fe0),
    ("fec", "bounded", 1, 0x276abfcf),
    ("nak", "membership", 1, 0x0786e075),
];

#[test]
fn every_row_matches_its_recorded_digest() {
    let actual: Vec<Row> = ROWS
        .iter()
        .map(|&(fam, plan, seed, _)| {
            let d = match plan {
                "clean" | "faulted" => loopback_row(fam, plan == "faulted", seed),
                _ => killed_row(fam, plan, seed),
            };
            (fam, plan, seed, d)
        })
        .collect();
    if actual != ROWS {
        let table: String = actual
            .iter()
            .map(|(fam, plan, seed, d)| format!("    ({fam:?}, {plan:?}, {seed}, 0x{d:08x}),\n"))
            .collect();
        let moved = actual.iter().zip(ROWS).filter(|(a, b)| a != b).count();
        panic!(
            "{moved} of {} rows moved; the table as this build computes it:\n{table}",
            ROWS.len()
        );
    }
}

fn protocol_hash(s: &Sender) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash_protocol_state(&mut h);
    h.finish()
}

/// A repeated ACK for a staged ALLOC that already completed finds no
/// transfer: with feedback pacing on it still counts as received and does
/// nothing else — no token, no trace, no transmit, no event.
#[test]
fn duplicate_ack_for_a_completed_staged_alloc_only_counts() {
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 100, 4);
    cfg.pipeline_handshake = true;
    cfg.overload.feedback_rate = 1;
    cfg.overload.feedback_burst = 1;
    let mut s = Sender::new(cfg, GroupSpec::new(1));
    let trace = MemorySink::new();
    s.set_trace_sink(Box::new(trace.clone()));
    let ack = |s: &mut Sender, transfer: u32, next: u32| {
        s.handle_datagram(Time::ZERO, &encode_ack(Rank(1), transfer, SeqNo(next)));
        std::iter::from_fn(|| s.poll_transmit()).count()
    };
    s.send_message(Time::ZERO, payload(1_000, 1));
    s.send_message(Time::ZERO, payload(1_000, 2));
    assert_eq!(std::iter::from_fn(|| s.poll_transmit()).count(), 1);
    // Message 0's ALLOC completes: four data packets and message 1's ALLOC.
    assert_eq!(ack(&mut s, 0, 1), 5);
    // Message 1's ALLOC completes while message 0's data is in flight.
    assert_eq!(ack(&mut s, 2, 1), 0);

    let (stats, state) = (s.stats().clone(), protocol_hash(&s));
    trace.take();
    assert_eq!(ack(&mut s, 2, 1), 0, "nothing to transmit");
    assert_eq!(s.poll_event(), None);
    assert!(trace.take().is_empty(), "the duplicate reached the window");
    assert_eq!(protocol_hash(&s), state);
    let mut expect = stats;
    expect.acks_received += 1;
    assert_eq!(s.stats(), &expect);

    // The one token is still there for message 0's first partial ACK.
    assert_eq!(ack(&mut s, 1, 1), 1, "released one packet, sent one more");
    assert_eq!(s.stats().acks_shed, 0);
}
