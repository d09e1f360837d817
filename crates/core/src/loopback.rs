//! An in-process test harness: one sender and `N` receivers wired through
//! an idealized, zero-latency network with optional per-datagram loss.
//!
//! The loopback exists to test *protocol logic* (reliability, ordering,
//! release rules) independently of any timing model — the timing studies
//! run under `netsim`. Datagrams are delivered instantly; when nothing is
//! in flight, virtual time jumps to the earliest pending timeout, so
//! timer-driven recovery is exercised exactly.

use crate::config::ProtocolConfig;
use crate::endpoint::{AppEvent, Dest, Endpoint, Transmit};
use crate::receiver::Receiver;
use crate::sender::Sender;
use crate::stats::Stats;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmwire::{Duration, GroupSpec, Rank, Time};

/// The loopback network.
pub struct Loopback {
    cfg: ProtocolConfig,
    group: GroupSpec,
    seed: u64,
    sender: Sender,
    receivers: Vec<Receiver>,
    /// Crashed receivers: they neither send nor receive until respawned
    /// by [`Loopback::rejoin_receiver`].
    dead: Vec<bool>,
    now: Time,
    loss: f64,
    /// Probability that a delivered datagram is held back one round and
    /// delivered late (out of order), per copy.
    reorder: f64,
    /// Probability that a delivered datagram copy arrives twice
    /// back-to-back (duplication fault).
    dup: f64,
    /// Probability that a delivered datagram copy has a random byte
    /// flipped before delivery (byzantine corruption reaching the decode
    /// path, unlike `loss` which models FCS-dropped frames).
    corrupt: f64,
    /// Datagrams held back by the reorder fault, by target (a receiver
    /// index, or [`SENDER`]).
    held: Vec<(usize, Bytes)>,
    /// One round's transmits by origin (a receiver index, or [`SENDER`]),
    /// drained every round (kept for its capacity).
    /// Sized up front for a window of data plus one reply per receiver: a
    /// long-lived buffer that grows mid-session is reallocated above the
    /// receivers' message buffers on the heap, where it stops the allocator
    /// from returning freed ones (+0.5 MiB peak RSS on 500 KB messages).
    flights: Vec<(usize, Transmit)>,
    rng: SmallRng,
    /// Message ids the sender reported complete.
    pub sent: Vec<u64>,
    /// `(receiver index, message id, payload)` deliveries in order.
    pub deliveries: Vec<(usize, u64, Bytes)>,
}

/// The sender, where an endpoint is otherwise named by receiver index.
const SENDER: usize = usize::MAX;

impl Loopback {
    /// Build a loopback group of `n_receivers` receivers running `cfg`.
    pub fn new(cfg: ProtocolConfig, n_receivers: u16, seed: u64) -> Self {
        let group = GroupSpec::new(n_receivers);
        let sender = Sender::new(cfg, group);
        let receivers = group
            .receivers()
            .map(|r| Receiver::new(cfg, group, r, seed.wrapping_add(r.0 as u64)))
            .collect();
        let dead = vec![false; n_receivers as usize];
        Loopback {
            cfg,
            group,
            seed,
            sender,
            receivers,
            dead,
            now: Time::ZERO,
            loss: 0.0,
            reorder: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            held: Vec::new(),
            flights: Vec::with_capacity(cfg.window + n_receivers as usize),
            rng: SmallRng::seed_from_u64(seed),
            sent: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Drop each delivered datagram copy independently with probability
    /// `p` (multicast loss is per-receiver, like real IP multicast).
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        self.loss = p;
        self
    }

    /// Hold back each delivered datagram copy with probability `p`,
    /// delivering it one round later — i.e. out of order relative to its
    /// successors (real multicast retransmission can reorder like this).
    pub fn with_reorder(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "probability out of range");
        self.reorder = p;
        self
    }

    /// Duplicate each delivered datagram copy with probability `p`
    /// (delivered twice back-to-back; protocols must stay exactly-once).
    pub fn with_dup(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "probability out of range");
        self.dup = p;
        self
    }

    /// Flip one random byte of each delivered datagram copy with
    /// probability `p`. The corrupted bytes *reach the endpoint* (unlike
    /// [`Loopback::with_loss`], which models FCS-dropped frames), so
    /// configs with `integrity` enabled must detect and drop them.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "probability out of range");
        self.corrupt = p;
        self
    }

    /// Queue a message on the sender.
    pub fn send_message(&mut self, data: Bytes) -> u64 {
        self.sender.send_message(self.now, data)
    }

    /// Inject an arbitrary datagram into an endpoint (hostile-input
    /// testing): `None` targets the sender, `Some(i)` receiver index `i`.
    pub fn inject(&mut self, target: Option<usize>, payload: &[u8]) {
        match target {
            None => self.sender.handle_datagram(self.now, payload),
            Some(i) => self.receivers[i].handle_datagram(self.now, payload),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Crash receiver index `i`: it stops sending and receiving. With
    /// membership enabled the sender's failure detector will evict it;
    /// without, straggler eviction or give-up timers must clean up.
    pub fn kill_receiver(&mut self, i: usize) {
        self.dead[i] = true;
    }

    /// Respawn a crashed receiver with empty state: it rejoins the group
    /// through the JOIN → WELCOME → SYNC handshake (membership must be
    /// enabled in the config).
    pub fn rejoin_receiver(&mut self, i: usize) {
        assert!(self.dead[i], "rejoin of a live receiver");
        let rank = Rank::from_receiver_index(i);
        let seed = self.seed.wrapping_add(rank.0 as u64).wrapping_add(0x9e37);
        self.receivers[i] = Receiver::new_joining(self.cfg, self.group, rank, seed, self.now);
        self.dead[i] = false;
    }

    /// Is receiver index `i` currently crashed?
    pub fn is_dead(&self, i: usize) -> bool {
        self.dead[i]
    }

    /// The sender's counters.
    pub fn sender_stats(&self) -> &Stats {
        self.sender.stats()
    }

    /// A receiver's counters (0-based index).
    pub fn receiver_stats(&self, idx: usize) -> &Stats {
        self.receivers[idx].stats()
    }

    /// Run to quiescence and return every delivered payload, in delivery
    /// order (with one message and `N` receivers: `N` entries).
    ///
    /// Panics if the protocols fail to converge within a generous bound of
    /// virtual time from this call — that is a reliability bug, and tests
    /// want it loud.
    pub fn run(&mut self) -> Vec<Bytes> {
        let deadline = self.now + Duration::from_secs(600);
        let start_deliveries = self.deliveries.len();
        loop {
            // 1. Flush transmits until the network is silent.
            while self.step_transmits() {}
            self.collect_events();
            // 2. All quiet: either done, or jump to the next timeout.
            if self.step_transmits() {
                continue;
            }
            match self.next_timeout() {
                None => break,
                Some(t) => {
                    assert!(
                        t <= deadline,
                        "loopback did not converge: timeout chain beyond {deadline}"
                    );
                    self.now = self.now.max(t);
                    let now = self.now;
                    if self.sender.poll_timeout().is_some_and(|d| d <= now) {
                        self.sender.handle_timeout(now);
                    }
                    for (i, r) in self.receivers.iter_mut().enumerate() {
                        if !self.dead[i] && r.poll_timeout().is_some_and(|d| d <= now) {
                            r.handle_timeout(now);
                        }
                    }
                }
            }
        }
        assert!(
            self.sender.is_idle()
                && self
                    .receivers
                    .iter()
                    .enumerate()
                    .all(|(i, r)| self.dead[i] || r.is_idle()),
            "loopback reached quiescence with non-idle endpoints"
        );
        self.deliveries[start_deliveries..]
            .iter()
            .map(|(_, _, d)| d.clone())
            .collect()
    }

    /// The earliest pending timeout of any live endpoint.
    fn next_timeout(&self) -> Option<Time> {
        let live = self.receivers.iter().zip(&self.dead).filter(|(_, &d)| !d);
        live.filter_map(|(r, _)| r.poll_timeout())
            .chain(self.sender.poll_timeout())
            .min()
    }

    /// Drain one round of transmits from every endpoint and deliver them.
    /// Returns `true` if anything moved.
    fn step_transmits(&mut self) -> bool {
        // Release datagrams the reorder fault held back last round.
        let held = std::mem::take(&mut self.held);
        let released = !held.is_empty();
        for (target, payload) in held {
            self.arrive(target, &payload);
        }

        let mut flights = std::mem::take(&mut self.flights);
        while let Some(t) = self.sender.poll_transmit() {
            flights.push((SENDER, t));
        }
        for (i, r) in self.receivers.iter_mut().enumerate() {
            while let Some(t) = r.poll_transmit() {
                // A crashed receiver's queued datagrams never hit the wire.
                if !self.dead[i] {
                    flights.push((i, t));
                }
            }
        }
        if flights.is_empty() {
            self.flights = flights;
            self.collect_events();
            return released;
        }
        for (origin, t) in flights.drain(..) {
            // No self-delivery: a receiver never hears its own transmit.
            match t.dest {
                Dest::Sender => self.deliver(SENDER, &t.payload),
                Dest::Rank(rank) => {
                    let idx = rank.receiver_index();
                    if origin != idx {
                        self.deliver(idx, &t.payload);
                    }
                }
                Dest::Receivers => {
                    for i in 0..self.receivers.len() {
                        if origin != i {
                            self.deliver(i, &t.payload);
                        }
                    }
                }
            }
        }
        self.flights = flights;
        self.collect_events();
        true
    }

    /// Put one copy of `payload` through the fault pipeline on its way to
    /// `target`: loss, then reorder, then duplication, then per-copy
    /// corruption. Each fault draws randomness only when it is on, and a
    /// crashed receiver hears nothing and draws none.
    fn deliver(&mut self, target: usize, payload: &Bytes) {
        if target != SENDER && self.dead[target] {
            return;
        }
        if self.loss > 0.0 && self.rng.gen::<f64>() < self.loss {
            return;
        }
        if self.reorder > 0.0 && self.rng.gen::<f64>() < self.reorder {
            self.held.push((target, payload.clone()));
            return;
        }
        let copies = if self.dup > 0.0 && self.rng.gen::<f64>() < self.dup {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let p = self.maybe_corrupt(payload);
            self.arrive(target, &p);
        }
    }

    /// Hand a datagram to `target`, unless it crashed in the meantime (a
    /// held-back datagram can outlive its receiver).
    fn arrive(&mut self, target: usize, datagram: &[u8]) {
        if target == SENDER {
            self.sender.handle_datagram(self.now, datagram);
        } else if !self.dead[target] {
            self.receivers[target].handle_datagram(self.now, datagram);
        }
    }

    /// The payload as the endpoint will see it: verbatim, or with one
    /// random byte XOR-flipped under the corruption fault. Draws
    /// randomness only when the fault is on.
    fn maybe_corrupt(&mut self, payload: &Bytes) -> Bytes {
        if self.corrupt > 0.0 && !payload.is_empty() && self.rng.gen::<f64>() < self.corrupt {
            let mut v = payload.to_vec();
            let at = self.rng.gen_range(0..v.len());
            let bit = self.rng.gen_range(0u8..8);
            v[at] ^= 1 << bit;
            Bytes::from(v)
        } else {
            payload.clone()
        }
    }

    fn collect_events(&mut self) {
        while let Some(e) = self.sender.poll_event() {
            if let AppEvent::MessageSent { msg_id } = e {
                self.sent.push(msg_id);
            }
        }
        for (i, r) in self.receivers.iter_mut().enumerate() {
            while let Some(e) = r.poll_event() {
                if self.dead[i] {
                    continue; // a crashed receiver's completions are lost
                }
                if let AppEvent::MessageDelivered { msg_id, data } = e {
                    self.deliveries.push((i, msg_id, data));
                }
            }
        }
    }

    /// The rank of receiver index `i` (convenience for assertions).
    pub fn rank_of(&self, i: usize) -> Rank {
        Rank::from_receiver_index(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;

    #[test]
    fn clean_ack_run_delivers_everywhere() {
        let cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 2);
        let mut net = Loopback::new(cfg, 5, 1);
        net.send_message(Bytes::from(vec![3u8; 4321]));
        let out = net.run();
        assert_eq!(out.len(), 5);
        assert!(out
            .iter()
            .all(|d| d.len() == 4321 && d.iter().all(|&b| b == 3)));
        assert_eq!(net.sent, vec![0]);
        // Clean network: no retransmissions, no naks, no timeouts.
        assert_eq!(net.sender_stats().retx_sent, 0);
        assert_eq!(net.sender_stats().naks_received, 0);
        assert_eq!(net.sender_stats().timeouts, 0);
    }

    #[test]
    fn crash_evict_rejoin_cycle() {
        use crate::config::MembershipConfig;
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 4);
        cfg.membership = MembershipConfig::enabled();
        let mut net = Loopback::new(cfg, 3, 5);
        // Message 0: everyone delivers.
        net.send_message(Bytes::from(vec![1u8; 2000]));
        assert_eq!(net.run().len(), 3);
        // Receiver 1 crashes; message 1 completes after its eviction.
        net.kill_receiver(1);
        net.send_message(Bytes::from(vec![2u8; 2000]));
        assert_eq!(net.run().len(), 2);
        assert_eq!(net.sender_stats().evictions, 1);
        assert!(net.sender_stats().suspects >= 1);
        // It restarts and rejoins; flushing the empty network completes
        // the JOIN → WELCOME → SYNC handshake (the sender is idle, so
        // admission is immediate). Message 2 then reaches all three.
        net.rejoin_receiver(1);
        assert!(net.run().is_empty());
        assert_eq!(net.sender_stats().joins, 1);
        net.send_message(Bytes::from(vec![3u8; 2000]));
        assert_eq!(net.run().len(), 3);
        assert_eq!(net.sender_stats().joins, 1);
        assert_eq!(net.sent, vec![0, 1, 2]);
    }

    #[test]
    fn convergence_bound_is_per_run_not_per_group() {
        // Slow timers and heavy loss: virtual time passes the 600 s bound
        // within a few dozen messages, each of which converges promptly.
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 4);
        cfg.rto = Duration::from_secs(20);
        let mut net = Loopback::new(cfg, 3, 11).with_loss(0.3);
        let mut sent = 0;
        while net.now() <= Time::ZERO + Duration::from_secs(700) {
            assert!(sent < 1_000, "virtual time stuck at {}", net.now());
            net.send_message(Bytes::from(vec![sent as u8; 1_200]));
            assert_eq!(net.run().len(), 3);
            sent += 1;
        }
    }

    #[test]
    fn lossy_ack_run_still_reliable() {
        let cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 4);
        let mut net = Loopback::new(cfg, 3, 99).with_loss(0.2);
        net.send_message(Bytes::from(vec![9u8; 10_000]));
        let out = net.run();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| d.len() == 10_000));
        assert!(
            net.sender_stats().retx_sent > 0,
            "20% loss must force retransmissions"
        );
    }

    /// The fault pipeline's draw order is part of every seeded test's
    /// meaning: one seed with every fault on, a tree so that all three
    /// destination kinds occur, pinned counter for counter.
    #[test]
    fn faulted_run_is_pinned_draw_for_draw() {
        let mut cfg = ProtocolConfig::new(ProtocolKind::flat_tree(2), 1_000, 8);
        cfg.integrity = true;
        let mut net = Loopback::new(cfg, 4, 2001)
            .with_loss(0.05)
            .with_reorder(0.1)
            .with_dup(0.05)
            .with_corrupt(0.02);
        for (i, len) in [20_000usize, 7_000, 12_345].into_iter().enumerate() {
            net.send_message(Bytes::from(vec![i as u8 + 1; len]));
            assert_eq!(net.run().len(), 4);
        }
        // Every non-zero counter, in declaration order.
        let nonzero = |s: &Stats| -> String {
            let set = s.fields().into_iter().filter(|&(_, v)| v != 0);
            set.map(|(k, v)| format!(" {k}={v}")).collect()
        };
        assert_eq!(net.now(), Time::from_nanos(1_680_000_000));
        assert_eq!(
            nonzero(net.sender_stats()),
            " data_sent=43 retx_sent=79 acks_received=124 naks_received=30 retx_suppressed=158 \
             user_copy_bytes=39345 payload_bytes_sent=39345 messages_completed=3 \
             peak_buffer_bytes=8000 decode_errors=4 timeouts=14 integrity_fail=4"
        );
        let receivers = [
            " data_received=108 data_discarded=10 acks_sent=52 acks_received=105 naks_sent=12 \
             naks_suppressed=43 messages_completed=3 peak_buffer_bytes=20000 decode_errors=2 \
             integrity_fail=2",
            " data_received=116 data_discarded=62 acks_sent=103 naks_sent=4 naks_suppressed=7 \
             messages_completed=3 peak_buffer_bytes=20000",
            " data_received=122 data_discarded=39 acks_sent=77 acks_received=82 naks_sent=8 \
             naks_suppressed=32 messages_completed=3 peak_buffer_bytes=20000 decode_errors=3 \
             integrity_fail=3",
            " data_received=119 data_discarded=44 acks_sent=86 naks_sent=6 naks_suppressed=26 \
             messages_completed=3 peak_buffer_bytes=20000 decode_errors=1 integrity_fail=1",
        ];
        for (i, want) in receivers.into_iter().enumerate() {
            assert_eq!(nonzero(net.receiver_stats(i)), want, "receiver {i}");
        }
    }
}
