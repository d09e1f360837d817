//! The outside-in layer trace for the loopback workloads.
//!
//! [`TracedLoop`] drives `Sender::new` / `Receiver::new` through the
//! `Endpoint` trait in the same zero-latency delivery order as
//! `Loopback::run`, and records a span around every call into an engine.
//! No program source is touched: the spans are taken here, around the
//! public functions. A message's spans share its `msg_id`; the message span
//! is their parent, and the driver's self time is the message span minus
//! its children. On a clean network the sender's `Stats` equal `Loopback`'s
//! for the same seed ([`same_work_as_loopback`]) — otherwise the trace would
//! be measuring different work.

use std::time::Instant;

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::{AppEvent, Dest, Endpoint, GroupSpec, Receiver, Sender, Stats, Time, Transmit};

use crate::hist::LatencyHist;
use crate::workload::{deliveries_ok, LoopSpec, SplitMix, LOOP_N};

/// The span names, one per engine entry point plus the enclosing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// `send_message` until quiescence with all deliveries: the parent span.
    Msg,
    /// `Sender::send_message`.
    SenderSend,
    /// `Sender::poll_transmit`, empty polls included.
    SenderPollTransmit,
    /// `Sender::handle_datagram` (feedback arriving).
    SenderHandleDatagram,
    /// `Sender::handle_timeout`.
    SenderHandleTimeout,
    /// `Sender::poll_event`.
    SenderPollEvent,
    /// `Receiver::handle_datagram`, all receivers pooled.
    ReceiverHandleDatagram,
    /// `Receiver::poll_transmit`, all receivers pooled.
    ReceiverPollTransmit,
    /// `Receiver::handle_timeout`, all receivers pooled.
    ReceiverHandleTimeout,
    /// `Receiver::poll_event`, all receivers pooled.
    ReceiverPollEvent,
}

impl SpanKind {
    /// Every kind, in table order.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::Msg,
        SpanKind::SenderSend,
        SpanKind::SenderPollTransmit,
        SpanKind::SenderHandleDatagram,
        SpanKind::SenderHandleTimeout,
        SpanKind::SenderPollEvent,
        SpanKind::ReceiverHandleDatagram,
        SpanKind::ReceiverPollTransmit,
        SpanKind::ReceiverHandleTimeout,
        SpanKind::ReceiverPollEvent,
    ];

    /// Name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Msg => "msg",
            SpanKind::SenderSend => "core.sender.send_message",
            SpanKind::SenderPollTransmit => "core.sender.poll_transmit",
            SpanKind::SenderHandleDatagram => "core.sender.handle_datagram",
            SpanKind::SenderHandleTimeout => "core.sender.handle_timeout",
            SpanKind::SenderPollEvent => "core.sender.poll_event",
            SpanKind::ReceiverHandleDatagram => "core.receiver.handle_datagram",
            SpanKind::ReceiverPollTransmit => "core.receiver.poll_transmit",
            SpanKind::ReceiverHandleTimeout => "core.receiver.handle_timeout",
            SpanKind::ReceiverPollEvent => "core.receiver.poll_event",
        }
    }

    fn is_sender(self) -> bool {
        self.name().starts_with("core.sender.")
    }

    fn is_receiver(self) -> bool {
        self.name().starts_with("core.receiver.")
    }
}

/// One recorded span, kept raw for the first messages of a run.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Which call.
    pub kind: SpanKind,
    /// Start, nanoseconds since the table's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the table's epoch.
    pub end_ns: u64,
    /// Index of the enclosing message span in the raw list (`None` for a
    /// message span itself).
    pub parent: Option<u32>,
    /// The message the span belongs to, counted over the whole run.
    pub msg_id: u64,
}

/// Messages whose raw spans are kept for the trace file.
const RAW_MESSAGES: u64 = 20;
/// Upper bound on raw spans kept (a lossy 500 KB message is ~1 500 spans).
const RAW_CAP: usize = 40_000;

/// Fixed-size per-name span aggregates plus the raw spans of the first
/// [`RAW_MESSAGES`] messages. Allocated before the traced run starts and
/// never grown.
pub struct SpanTable {
    epoch: Instant,
    count: [u64; SpanKind::ALL.len()],
    total_ns: [u64; SpanKind::ALL.len()],
    hist: Vec<LatencyHist>,
    raw: Vec<RawSpan>,
    raw_cap: usize,
    /// Messages opened so far; the id of the message in progress is this
    /// minus one.
    messages: u64,
    open_msg: Option<(Instant, Option<u32>)>,
    /// Off while a block's untimed warm-up message runs.
    recording: bool,
}

impl SpanTable {
    /// Allocate the tables, with room for the raw spans of the first
    /// [`RAW_MESSAGES`] messages.
    pub fn new() -> Self {
        SpanTable::with_raw_capacity(RAW_CAP)
    }

    /// Allocate the tables, keeping at most `raw_cap` raw spans.
    pub fn with_raw_capacity(raw_cap: usize) -> Self {
        SpanTable {
            epoch: Instant::now(),
            count: [0; SpanKind::ALL.len()],
            total_ns: [0; SpanKind::ALL.len()],
            hist: SpanKind::ALL.iter().map(|_| LatencyHist::new()).collect(),
            raw: Vec::with_capacity(raw_cap),
            raw_cap,
            messages: 0,
            open_msg: None,
            recording: true,
        }
    }

    /// Switch recording on or off; while off, calls run untimed.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn keep_raw(&self) -> bool {
        self.messages <= RAW_MESSAGES && self.raw.len() < self.raw_cap
    }

    fn open_message(&mut self) {
        if !self.recording {
            return;
        }
        self.messages += 1;
        // The message span's slot is reserved now so children can name it
        // as their parent; its end is filled in by `close_message`.
        let slot = self.keep_raw().then(|| {
            self.raw.push(RawSpan {
                kind: SpanKind::Msg,
                start_ns: 0,
                end_ns: 0,
                parent: None,
                msg_id: self.messages - 1,
            });
            (self.raw.len() - 1) as u32
        });
        self.open_msg = Some((Instant::now(), slot));
    }

    fn close_message(&mut self) {
        let end = Instant::now();
        let Some((start, slot)) = self.open_msg.take() else {
            return; // not recording
        };
        self.aggregate(SpanKind::Msg, start, end);
        if let Some(slot) = slot {
            let span = &mut self.raw[slot as usize];
            span.start_ns = (start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
    }

    fn aggregate(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        let ns = (end - start).as_nanos() as u64;
        let k = kind as usize;
        self.count[k] += 1;
        self.total_ns[k] += ns;
        self.hist[k].record(ns);
    }

    /// Time `f` as a child span of the open message.
    #[inline]
    fn child<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        if !self.recording {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.aggregate(kind, start, end);
        if let Some((_, Some(parent))) = self.open_msg {
            if self.raw.len() < self.raw_cap {
                self.raw.push(RawSpan {
                    kind,
                    start_ns: (start - self.epoch).as_nanos() as u64,
                    end_ns: (end - self.epoch).as_nanos() as u64,
                    parent: Some(parent),
                    msg_id: self.messages - 1,
                });
            }
        }
        out
    }

    /// Spans recorded under `kind`.
    pub fn count(&self, kind: SpanKind) -> u64 {
        self.count[kind as usize]
    }

    /// Total nanoseconds under `kind`.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.total_ns[kind as usize]
    }

    /// Median span duration under `kind`, nanoseconds (0 with no spans).
    pub fn p50_ns(&self, kind: SpanKind) -> f64 {
        self.hist[kind as usize].quantile(0.5)
    }

    /// `(sender, receiver, driver self)` shares of the message spans' total
    /// time. The driver's self time is what the children do not cover, so
    /// the three sum to 1.
    pub fn shares(&self) -> (f64, f64, f64) {
        let msg = self.total_ns(SpanKind::Msg) as f64;
        if msg == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let sum = |pick: fn(SpanKind) -> bool| {
            SpanKind::ALL
                .iter()
                .filter(|k| pick(**k))
                .map(|k| self.total_ns(*k) as f64)
                .sum::<f64>()
        };
        let sender = sum(SpanKind::is_sender) / msg;
        let receiver = sum(SpanKind::is_receiver) / msg;
        (sender, receiver, 1.0 - sender - receiver)
    }

    /// The raw spans kept.
    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    /// `true` if the raw-span table never moved or grew.
    pub fn check_untouched(&self) -> bool {
        self.raw.capacity() == self.raw_cap && self.hist.len() == SpanKind::ALL.len()
    }
}

/// `Loopback`'s delivery loop with a span around every engine call.
pub struct TracedLoop {
    sender: Sender,
    receivers: Vec<Receiver>,
    now: Time,
    loss: f64,
    rng: SplitMix,
    flights: Vec<(Option<usize>, Transmit)>,
    /// Datagrams handed to the network (each multicast counted once).
    pub datagrams: u64,
    /// Message ids the sender reported complete since the last clear.
    pub sent: Vec<u64>,
    /// `(receiver index, message id, payload)` since the last clear.
    pub deliveries: Vec<(usize, u64, Bytes)>,
}

impl TracedLoop {
    /// Build the group exactly as `Loopback::new` does (same receiver seeds).
    pub fn new(spec: &LoopSpec, seed: u64) -> Self {
        let group = GroupSpec::new(LOOP_N);
        TracedLoop {
            sender: Sender::new(spec.cfg, group),
            receivers: group
                .receivers()
                .map(|r| Receiver::new(spec.cfg, group, r, seed.wrapping_add(r.0 as u64)))
                .collect(),
            now: Time::ZERO,
            loss: spec.loss,
            rng: SplitMix::new(seed),
            flights: Vec::with_capacity(256),
            datagrams: 0,
            sent: Vec::with_capacity(4),
            deliveries: Vec::with_capacity(2 * LOOP_N as usize),
        }
    }

    /// The sender's counters.
    pub fn sender_stats(&self) -> &Stats {
        self.sender.stats()
    }

    /// Send one message and run to quiescence, recording into `spans`.
    pub fn message(&mut self, data: Bytes, spans: &mut SpanTable) -> u64 {
        spans.open_message();
        let now = self.now;
        let id = spans.child(SpanKind::SenderSend, || self.sender.send_message(now, data));
        loop {
            while self.step_transmits(spans) {}
            self.collect_events(spans);
            if self.step_transmits(spans) {
                continue;
            }
            let next = std::iter::once(self.sender.poll_timeout())
                .chain(self.receivers.iter().map(|r| r.poll_timeout()))
                .flatten()
                .min();
            let Some(t) = next else { break };
            self.now = self.now.max(t);
            let now = self.now;
            if self.sender.poll_timeout().is_some_and(|d| d <= now) {
                spans.child(SpanKind::SenderHandleTimeout, || {
                    self.sender.handle_timeout(now)
                });
            }
            for r in &mut self.receivers {
                if r.poll_timeout().is_some_and(|d| d <= now) {
                    spans.child(SpanKind::ReceiverHandleTimeout, || r.handle_timeout(now));
                }
            }
        }
        spans.close_message();
        id
    }

    fn delivered(&mut self) -> bool {
        self.loss == 0.0 || self.rng.next_f64() >= self.loss
    }

    /// One round: drain every endpoint's transmit queue, then deliver.
    fn step_transmits(&mut self, spans: &mut SpanTable) -> bool {
        let mut flights = std::mem::take(&mut self.flights);
        while let Some(t) =
            spans.child(SpanKind::SenderPollTransmit, || self.sender.poll_transmit())
        {
            flights.push((None, t));
        }
        for (i, r) in self.receivers.iter_mut().enumerate() {
            while let Some(t) = spans.child(SpanKind::ReceiverPollTransmit, || r.poll_transmit()) {
                flights.push((Some(i), t));
            }
        }
        let moved = !flights.is_empty();
        self.datagrams += flights.len() as u64;
        let now = self.now;
        for (origin, t) in flights.drain(..) {
            match t.dest {
                Dest::Sender => {
                    if self.delivered() {
                        spans.child(SpanKind::SenderHandleDatagram, || {
                            self.sender.handle_datagram(now, &t.payload)
                        });
                    }
                }
                Dest::Rank(rank) => {
                    let idx = rank.receiver_index();
                    if origin != Some(idx) && self.delivered() {
                        let r = &mut self.receivers[idx];
                        spans.child(SpanKind::ReceiverHandleDatagram, || {
                            r.handle_datagram(now, &t.payload)
                        });
                    }
                }
                Dest::Receivers => {
                    for idx in 0..self.receivers.len() {
                        if origin != Some(idx) && self.delivered() {
                            let r = &mut self.receivers[idx];
                            spans.child(SpanKind::ReceiverHandleDatagram, || {
                                r.handle_datagram(now, &t.payload)
                            });
                        }
                    }
                }
            }
        }
        self.flights = flights;
        self.collect_events(spans);
        moved
    }

    fn collect_events(&mut self, spans: &mut SpanTable) {
        while let Some(e) = spans.child(SpanKind::SenderPollEvent, || self.sender.poll_event()) {
            if let AppEvent::MessageSent { msg_id } = e {
                self.sent.push(msg_id);
            }
        }
        for (i, r) in self.receivers.iter_mut().enumerate() {
            while let Some(e) = spans.child(SpanKind::ReceiverPollEvent, || r.poll_event()) {
                if let AppEvent::MessageDelivered { msg_id, data } = e {
                    self.deliveries.push((i, msg_id, data));
                }
            }
        }
    }

    /// Check message `msg_id` as the untraced path does, and clear the logs.
    pub fn settle(&mut self, msg_id: u64, payload: &Bytes) -> bool {
        let ok = self.sent == [msg_id]
            && deliveries_ok(
                self.deliveries.iter().map(|(i, id, d)| (*i, *id, &d[..])),
                LOOP_N as usize,
                msg_id,
                payload,
            );
        self.sent.clear();
        self.deliveries.clear();
        ok
    }
}

/// The four sender counters that define "the same work".
fn work_counters(s: &Stats) -> [u64; 4] {
    [s.data_sent, s.retx_sent, s.acks_received, s.naks_received]
}

/// Does `TracedLoop` do the work `Loopback` does? Sends two messages of
/// `spec` through each on a clean network with the same seed and compares
/// the sender's `data_sent`, `retx_sent`, `acks_received`, `naks_received`.
pub fn same_work_as_loopback(spec: &LoopSpec, seed: u64, payloads: &[Bytes; 2]) -> bool {
    let clean = LoopSpec { loss: 0.0, ..*spec };
    let mut plain = Loopback::new(clean.cfg, LOOP_N, seed);
    let mut traced = TracedLoop::new(&clean, seed);
    let mut spans = SpanTable::new();
    for p in payloads {
        plain.send_message(p.clone());
        plain.run();
        traced.message(p.clone(), &mut spans);
    }
    work_counters(plain.sender_stats()) == work_counters(traced.sender_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{all, payloads, Kind};

    fn loop_specs() -> Vec<(&'static str, LoopSpec)> {
        all()
            .into_iter()
            .filter_map(|w| match w.kind {
                Kind::Loop(spec) => Some((w.name, spec)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn traced_loop_reproduces_loopback_sender_stats_on_every_loop_config() {
        for (name, spec) in loop_specs() {
            let p = payloads(3, spec.msg_len.min(100_000));
            assert!(same_work_as_loopback(&spec, 11, &p), "{name}");
        }
    }

    #[test]
    fn traced_messages_deliver_and_shares_sum_to_one() {
        for (name, spec) in loop_specs() {
            let p = payloads(5, spec.msg_len.min(64_000));
            let mut net = TracedLoop::new(&spec, 21);
            let mut spans = SpanTable::new();
            for i in 0..3 {
                let id = net.message(p[i % 2].clone(), &mut spans);
                assert_eq!(id, i as u64);
                assert!(net.settle(id, &p[i % 2]), "{name} message {i}");
            }
            assert_eq!(spans.count(SpanKind::Msg), 3);
            assert_eq!(spans.count(SpanKind::SenderSend), 3);
            assert!(spans.count(SpanKind::ReceiverHandleDatagram) >= 3 * 8);
            let (s, r, d) = spans.shares();
            assert!(s > 0.0 && r > 0.0 && d > 0.0, "{name}: {s} {r} {d}");
            assert!((s + r + d - 1.0).abs() < 1e-9);
            // Every raw child names a message span of the same message.
            for span in spans.raw() {
                match span.parent {
                    None => assert_eq!(span.kind, SpanKind::Msg),
                    Some(parent) => {
                        let m = spans.raw()[parent as usize];
                        assert_eq!(m.kind, SpanKind::Msg);
                        assert_eq!(m.msg_id, span.msg_id);
                        assert!(m.start_ns <= span.start_ns && span.end_ns <= m.end_ns);
                    }
                }
            }
            assert!(spans.check_untouched());
        }
    }

    #[test]
    fn lossy_traced_loop_recovers_and_uses_the_timeout_path() {
        let (_, spec) = loop_specs()
            .into_iter()
            .find(|(n, _)| *n == "loop_lossy")
            .unwrap();
        let p = payloads(8, spec.msg_len);
        let mut net = TracedLoop::new(&spec, 2);
        let mut spans = SpanTable::new();
        for i in 0..4 {
            let id = net.message(p[i % 2].clone(), &mut spans);
            assert!(net.settle(id, &p[i % 2]));
        }
        let s = net.sender_stats();
        assert!(s.retx_sent + s.repairs_sent > 0, "2 % loss forces recovery");
    }
}
