//! An in-process test harness: one sender and `N` receivers wired through
//! an idealized, zero-latency network that applies one [`Faults`] plan.
//!
//! The loopback exists to test *protocol logic* (reliability, ordering,
//! release rules) independently of any timing model — the timing studies
//! run under `netsim`. Datagrams are delivered instantly; when nothing is
//! in flight, virtual time jumps to the earliest pending timeout, so
//! timer-driven recovery is exercised exactly.
//!
//! # Two cores for checksummed groups
//!
//! On the testbed every receiver is its own workstation and verifies its
//! copy while the others verify theirs. A group with
//! `ProtocolConfig::integrity` does the same on two threads in rounds
//! whose transmits address at least `FANOUT_MIN` bytes to the upper half
//! of the receivers. Such a round is *split*: its arrivals are gathered
//! into two lists (the sender's and the lower half's; the upper half's),
//! then the upper half's `Receiver`s and their list are moved to one
//! helper thread while this thread lands the other list. Nothing is shared
//! while both run, so nothing is locked per datagram. Every other round,
//! and every round of a group without integrity, lands each datagram the
//! moment its faults are drawn. A split round ends in the state the
//! unsplit one would, for three reasons:
//!
//! * **Faults are drawn on the calling thread**, in the same order: the
//!   walk over a round's transmits that draws loss, reorder, duplication
//!   and corruption is the same walk; it only defers landing what it drew.
//! * **Each receiver sees the same arrival sequence.** A list holds its
//!   half's arrivals in the order the walk made them, datagram by datagram
//!   (so one datagram stays in cache across its receivers), and a receiver
//!   is in exactly one list. Datagrams the reorder fault held back land at
//!   the start of the next round, before its `poll_transmit`, either way.
//! * **Receivers never interact within a round.** What one of them does
//!   with a datagram is queued in its own `out` and `events`, read only
//!   after the round by `poll_transmit` and `collect_events`, which walk
//!   the receivers in index order once all are back.
//!
//! `tests/fanout_lock.rs` holds whole-run digests recorded from the
//! single-threaded loop for all five families, clean and faulted.

use crate::config::ProtocolConfig;
use crate::endpoint::{AppEvent, Dest, Endpoint, Transmit};
use crate::faults::Faults;
use crate::receiver::Receiver;
use crate::sender::Sender;
use crate::stats::Stats;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmwire::{Duration, GroupSpec, Rank, Time};
use std::sync::mpsc::{self, SyncSender, TryRecvError};
use std::thread::JoinHandle;

/// Bytes a round must address to the upper half of the receivers before
/// it is split across two threads.
///
/// Chosen where splitting starts to pay. Median µs per message, NAK
/// polling every 16 packets, window 20, 8 000 B packets, eight receivers,
/// integrity on, 900 messages per cell, two CPUs (the upper half's bytes
/// in the message's data round in brackets; unsplit / threshold 16, 32,
/// 64, 128 KiB): 512 B (2 KiB) 10 / 10 10 10 10; 8 000 B (31 KiB)
/// 26–27 / 30–32 26–28 27 27; 12 000 B (47 KiB) 37 / 39–40 40 36 36;
/// 16 000 B (63 KiB) 44–46 / 44–46 43–47 44–46 44–45; 24 000 B (94 KiB)
/// 63–65 / 57–59 58–59 56–59 63–65; 32 000 B (125 KiB) 81–84 / 68–73
/// 68–72 68–72 81; 500 000 B 1 202–1 291 / 759–848 at every threshold.
const FANOUT_MIN: usize = 64 * 1024;

/// How long the helper waits for its next round, and the calling thread
/// for the helper's half, by polling before it blocks.
///
/// Median µs per message on the shape [`FANOUT_MIN`] was swept on, two
/// runs of 900 (150 at 500 000 B) per cell, poll 0 (block at once) / 20 /
/// 50 / 200 / 1 000 µs: 24 000 B 71–84 / 62–68 / 56–60 / 57–62 / 57–65;
/// 64 000 B 132–147 / 130–168 / 121–133 / 124–151 / 122–132; 500 000 B
/// 840–869 / 831–901 / 824–843 / 791–795 / 798–801. Below 50 µs the
/// helper has gone to sleep by the next round of a small message, and
/// waking it costs more than its half saves; polling yields the CPU, so a
/// longer bound costs only a CPU nothing else wanted.
const POLL: std::time::Duration = std::time::Duration::from_micros(200);

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
    /// The per-copy rates `deliver` draws, and in `down` the receivers
    /// still waiting to come back (an entry leaves when its receiver
    /// rejoins).
    faults: Faults,
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
    /// A split round's arrivals by target (a receiver index, or
    /// [`SENDER`]): the sender's and the lower half's, then the upper
    /// half's, each in arrival order. Emptied every split round, kept for
    /// their capacity.
    arrivals: [Vec<(usize, Bytes)>; 2],
    /// Takes the upper half of the receivers in split rounds; started at
    /// the first.
    helper: Option<Helper>,
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
        // A window of data to each receiver of a half plus one reply from
        // every receiver, sized up front for the reason `flights` is.
        let half = if cfg.integrity {
            (cfg.window + n_receivers as usize) * n_receivers.div_ceil(2) as usize
        } else {
            0
        };
        Loopback {
            cfg,
            group,
            seed,
            sender,
            receivers,
            dead,
            now: Time::ZERO,
            faults: Faults::default(),
            held: Vec::new(),
            flights: Vec::with_capacity(cfg.window + n_receivers as usize),
            arrivals: [Vec::with_capacity(half), Vec::with_capacity(half)],
            helper: None,
            rng: SmallRng::seed_from_u64(seed),
            sent: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Run under `faults`, in place of any plan set before. Each copy is
    /// lost, held back one round (and so delivered out of order), doubled
    /// or has one bit flipped with the plan's probabilities; the `down`
    /// receivers are killed now and rejoined at their `back` instant
    /// through [`Loopback::rejoin_receiver`]. Panics on a plan
    /// [`Faults::validate`] refuses.
    pub fn with_faults(mut self, faults: Faults) -> Self {
        if let Err(e) = faults.validate(self.receivers.len()) {
            panic!("{e}");
        }
        for &(i, _) in &faults.down {
            self.kill_receiver(i);
        }
        self.faults = faults;
        self
    }

    /// Run under `loss` alone: [`Loopback::with_faults`] with only
    /// [`Faults::loss`] set.
    pub fn with_loss(self, loss: f64) -> Self {
        self.with_faults(Faults {
            loss,
            ..Faults::default()
        })
    }

    /// Queue a message on the sender.
    pub fn send_message(&mut self, data: Bytes) -> u64 {
        if self.cfg.integrity {
            // A receiver's first assembly is allocated here, not on the
            // helper thread, where it would stay behind in a second malloc
            // arena once freed.
            for r in &mut self.receivers {
                let spare = r.take_spare();
                r.seed_spare(spare.unwrap_or_else(|| Bytes::from(Vec::with_capacity(data.len()))));
            }
        }
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
                    self.rejoin_due();
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

    /// The earliest pending timeout of any live endpoint, or rejoin of a
    /// `down` receiver.
    fn next_timeout(&self) -> Option<Time> {
        let live = self.receivers.iter().zip(&self.dead).filter(|(_, &d)| !d);
        let rejoins = self.faults.down.iter().filter_map(|&(_, back)| back);
        live.filter_map(|(r, _)| r.poll_timeout())
            .chain(self.sender.poll_timeout())
            .chain(rejoins.map(|back| Time::ZERO + back))
            .min()
    }

    /// Rejoin every `down` receiver whose `back` instant has come.
    fn rejoin_due(&mut self) {
        let now = self.now;
        let due = |&(_, back): &(usize, Option<Duration>)| {
            back.is_some_and(|back| Time::ZERO + back <= now)
        };
        while let Some(k) = self.faults.down.iter().position(due) {
            let (i, _) = self.faults.down.remove(k);
            self.rejoin_receiver(i);
        }
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
        let split = self.cfg.integrity && self.upper_bytes(&flights) >= FANOUT_MIN;
        for (origin, t) in flights.drain(..) {
            // No self-delivery: a receiver never hears its own transmit.
            match t.dest {
                Dest::Sender => self.deliver(SENDER, &t.payload, split),
                Dest::Rank(rank) => {
                    let idx = rank.receiver_index();
                    if origin != idx {
                        self.deliver(idx, &t.payload, split);
                    }
                }
                Dest::Receivers => {
                    for i in 0..self.receivers.len() {
                        if origin != i {
                            self.deliver(i, &t.payload, split);
                        }
                    }
                }
            }
        }
        self.flights = flights;
        if split {
            self.land_split();
        }
        self.collect_events();
        true
    }

    /// Bytes a round's transmits address to the upper half of the
    /// receivers, before faults.
    fn upper_bytes(&self, flights: &[(usize, Transmit)]) -> usize {
        let half = self.receivers.len() / 2;
        let per_multicast = self.receivers.len() - half;
        let copies = |dest| match dest {
            Dest::Sender => 0,
            Dest::Rank(rank) => usize::from(rank.receiver_index() >= half),
            Dest::Receivers => per_multicast,
        };
        flights
            .iter()
            .map(|(_, t)| copies(t.dest) * t.payload.len())
            .sum()
    }

    /// Put one copy of `payload` through the fault pipeline on its way to
    /// `target`: loss, then reorder, then duplication, then per-copy
    /// corruption. Each fault draws randomness only when it is on, and a
    /// crashed receiver hears nothing and draws none. What reaches `target`
    /// arrives now, or in a `split` round joins its half's list.
    fn deliver(&mut self, target: usize, payload: &Bytes, split: bool) {
        if target != SENDER && self.dead[target] {
            return;
        }
        let Faults {
            loss, reorder, dup, ..
        } = self.faults;
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            return;
        }
        if reorder > 0.0 && self.rng.gen::<f64>() < reorder {
            self.held.push((target, payload.clone()));
            return;
        }
        let copies = if dup > 0.0 && self.rng.gen::<f64>() < dup {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let p = self.maybe_corrupt(payload);
            if !split {
                self.arrive(target, &p);
            } else if target != SENDER && target >= self.receivers.len() / 2 {
                self.arrivals[1].push((target, p));
            } else {
                self.arrivals[0].push((target, p));
            }
        }
    }

    /// Land a split round's arrivals: the upper half of the receivers on
    /// the helper thread, the sender and the lower half on this one.
    ///
    /// Both threads only read the datagrams, and the lists are emptied
    /// here once both are done, so no reference count is written while the
    /// other thread reads the same cache line.
    fn land_split(&mut self) {
        let [mut lower, upper] = std::mem::take(&mut self.arrivals);
        let base = self.receivers.len() / 2;
        let batch = Batch {
            now: self.now,
            base,
            receivers: self.receivers.split_off(base),
            arrivals: upper,
        };
        let helper = self.helper.get_or_insert_with(Helper::spawn);
        helper.start(batch);
        for (target, datagram) in &lower {
            self.arrive(*target, datagram);
        }
        let mut batch = self.helper.as_mut().expect("started above").finish();
        self.receivers.append(&mut batch.receivers);
        lower.clear();
        batch.arrivals.clear();
        self.arrivals = [lower, batch.arrivals];
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
        let corrupt = self.faults.corrupt;
        if corrupt > 0.0 && !payload.is_empty() && self.rng.gen::<f64>() < corrupt {
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
}

/// One round of the upper half of the receivers: the receivers themselves,
/// moved to the helper and back, and their arrivals.
struct Batch {
    now: Time,
    /// Receiver index of `receivers[0]`.
    base: usize,
    receivers: Vec<Receiver>,
    arrivals: Vec<(usize, Bytes)>,
}

/// The helper thread of a checksummed [`Loopback`]: one [`Batch`] at a
/// time goes out through `jobs` and comes back through `done`.
struct Helper {
    /// `None` once dropped, which is what tells the thread to exit.
    jobs: Option<SyncSender<Batch>>,
    done: mpsc::Receiver<Batch>,
    /// `None` once joined.
    thread: Option<JoinHandle<()>>,
    rounds: rmprof::Counter,
}

impl Helper {
    fn spawn() -> Helper {
        let (jobs, inbox) = mpsc::sync_channel::<Batch>(1);
        let (outbox, done) = mpsc::sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("loopback-fanout".into())
            .spawn(move || {
                while let Some(mut batch) = poll(&inbox) {
                    for (target, datagram) in &batch.arrivals {
                        batch.receivers[target - batch.base].handle_datagram(batch.now, datagram);
                    }
                    // The calling thread may read the registry as soon as
                    // it has the receivers back.
                    rmprof::flush();
                    if outbox.send(batch).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the loopback helper thread");
        Helper {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
            rounds: rmprof::counter("core.loopback.fanout_rounds"),
        }
    }

    fn start(&mut self, batch: Batch) {
        self.rounds.inc();
        // Fails only if the thread is gone, which `finish` reports.
        let _ = self.jobs.as_ref().expect("live until dropped").send(batch);
    }

    /// The batch back from the thread. A panic there (a receiver's debug
    /// audit, say) resurfaces here with its own payload.
    fn finish(&mut self) -> Batch {
        if let Some(batch) = poll(&self.done) {
            return batch;
        }
        let thread = self.thread.take().expect("joined only here and in drop");
        match thread.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("the helper thread exits only when its jobs hang up"),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            // A panic can only be waiting here if this thread unwound
            // between `start` and `finish`, so it is unwinding already.
            let _ = thread.join();
        }
    }
}

/// The next value from `rx`, polling for up to [`POLL`] before blocking;
/// `None` once the other side hung up.
fn poll<T>(rx: &mpsc::Receiver<T>) -> Option<T> {
    #[allow(
        clippy::disallowed_methods,
        reason = "time decides how long this thread polls, never what it computes"
    )]
    let since = std::time::Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if since.elapsed() < POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
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
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 4);
        cfg.membership = true;
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
        let mut net = Loopback::new(cfg, 4, 2001).with_faults(Faults {
            loss: 0.05,
            reorder: 0.1,
            dup: 0.05,
            corrupt: 0.02,
            down: Vec::new(),
        });
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

    #[test]
    #[should_panic(expected = "down receiver 9 is not one of 4 receivers")]
    fn a_plan_naming_no_receiver_is_refused() {
        let cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 2);
        let down = vec![(9, None)];
        let _ = Loopback::new(cfg, 4, 1).with_faults(Faults {
            down,
            ..Faults::default()
        });
    }

    /// A panic on the helper thread (a receiver's debug audit, or here an
    /// arrival for a receiver the batch does not hold) is the caller's
    /// panic, with the helper's payload; dropping the helper afterwards
    /// neither hangs nor panics again.
    #[test]
    fn a_panic_on_the_helper_resurfaces_in_the_caller() {
        let mut helper = Helper::spawn();
        helper.start(Batch {
            now: Time::ZERO,
            base: 4,
            receivers: Vec::new(),
            arrivals: vec![(5, Bytes::from_static(b"x"))],
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| helper.finish()));
        let payload = caught.err().expect("the helper's panic");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("index out of bounds"), "{message}");
        drop(helper);
    }
}
