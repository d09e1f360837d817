//! `rmcheck explore`: an exhaustive small-scope model checker over the
//! *real* protocol engines.
//!
//! The explorer builds one [`rmcast::Sender`] and `N` [`rmcast::Receiver`]s
//! (no mocks — the exact code the simulator and the UDP backend run),
//! queues a message, and then enumerates **every** interleaving of the
//! four adversarial network actions over the in-flight datagram set:
//!
//! - **deliver** a datagram to its destination,
//! - **drop** it,
//! - **duplicate** it (bounded by a duplication budget),
//! - **fire** any armed retransmission/NAK timer.
//!
//! Multicast transmits are expanded into one independent in-flight copy
//! per destination, so per-receiver loss — the scenario that separates the
//! four protocol families — is part of the enumerated space.
//!
//! After every action the explorer asserts the safety properties:
//!
//! - every invariant of [`rmcast::invariants`] (window structure, release
//!   rules including the ring `X − N` rule, tree ack-aggregation
//!   monotonicity, reassembly discipline) via the engines' `audit()`,
//! - exactly-once, in-order delivery of the correct bytes at every
//!   receiver,
//! - no spurious failure/eviction events under the paper's
//!   retry-forever liveness model.
//!
//! And, optionally, the liveness property: from *every* reachable state a
//! fair schedule (deliver everything, fire the earliest timer when quiet)
//! reaches completion — i.e. the adversary can delay but never wedge the
//! protocol.
//!
//! States are deduplicated by a 128-bit digest of the protocol-logical
//! state ([`rmcast::Sender::hash_protocol_state`], which deliberately
//! excludes clocks, suppression streaks and counters). That abstraction is
//! sound here because the model configuration zeroes `retx_suppress` and
//! `nak_suppress`: no behavior depends on *when* a timer fires, only that
//! it fires. The exploration is therefore a time-abstract superset of the
//! real schedules, and exhaustive for the configured scope.

use bytes::Bytes;
use rmcast::{AppEvent, Dest, Endpoint, ProtocolConfig, ProtocolKind, Receiver, Sender, TreeShape};
use rmwire::{Duration, GroupSpec, Time};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hasher;

/// Scope of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Protocol family under check.
    pub family: ProtocolKind,
    /// Receiver count (keep ≤ 3; the space explodes quickly).
    pub receivers: u16,
    /// Sender window in packets (keep ≤ 4). Ring configurations are
    /// raised to `receivers + 1` automatically — the ring release rule
    /// requires `window > N`.
    pub window: usize,
    /// Packets per message (keep ≤ 6).
    pub packets: u32,
    /// Messages queued on the sender.
    pub messages: u64,
    /// Run the buffer-allocation handshake before data.
    pub handshake: bool,
    /// How many duplication actions the adversary may take in one
    /// schedule (0 disables the duplicate action).
    pub dups: u8,
    /// Abort (with `truncated = true`) after visiting this many states.
    pub max_states: usize,
    /// Check the liveness property from every visited state (costly:
    /// one run-to-completion per state).
    pub check_liveness: bool,
    /// Run the engines with AIMD window adaptation on: every timer fire
    /// shrinks the adaptive cap multiplicatively, progress regrows it, and
    /// the cap is part of the explored state (it shapes future sends).
    /// Only the AIMD mechanism is enabled — feedback pacing, duplicate
    /// collapse and quarantine are *clocked* and would break the
    /// time-abstract digest this explorer relies on.
    pub aimd: bool,
}

/// Payload bytes per packet in model configurations (tiny on purpose —
/// content still matters: delivery checks compare bytes).
const MODEL_PACKET_SIZE: usize = 4;

/// Fair-schedule step bound for the liveness check; hitting it means the
/// protocol made no progress for an implausibly long clean schedule.
const LIVENESS_STEP_BOUND: usize = 20_000;

impl ExploreConfig {
    /// The fec family at model scope: tightest legal knobs so coded
    /// repair, proactive parity and the replay gate all engage inside a
    /// two-packet message.
    pub const MODEL_FEC: ProtocolKind = ProtocolKind::Fec {
        poll_interval: 2,
        parity_every: 2,
        max_coded: 2,
    };

    /// The CI smoke scope for `family`: 2 receivers, window 2 (3 for
    /// ring), a 1-packet message, handshake on, one duplicate. ~50–170k
    /// states per family; seconds in release, a couple of minutes for
    /// all five families under `debug_assertions`.
    ///
    /// One packet never fills window 2, so flow-control stalls are out
    /// of this scope — [`ExploreConfig::soak`] (and the dedicated
    /// `--window 1` CI step) cover them. The state space is exponential
    /// in the distinct-datagram universe, and two-packet scopes with the
    /// handshake on run to millions of states.
    pub fn smoke(family: ProtocolKind) -> ExploreConfig {
        ExploreConfig {
            family,
            receivers: 2,
            window: 2,
            packets: 1,
            messages: 1,
            handshake: true,
            dups: 1,
            max_states: 2_000_000,
            check_liveness: true,
            aimd: false,
        }
    }

    /// A deeper local/nightly scope: two packets (go-back-N and window
    /// machinery engage), handshake off to keep the datagram universe
    /// manageable. Millions of states; minutes per family in release.
    pub fn soak(family: ProtocolKind) -> ExploreConfig {
        ExploreConfig {
            family,
            receivers: 2,
            window: 2,
            packets: 2,
            messages: 1,
            handshake: false,
            dups: 1,
            max_states: 8_000_000,
            check_liveness: true,
            aimd: false,
        }
    }

    /// The [`ProtocolConfig`] the engines run under: suppression windows
    /// zeroed (the digest's time abstraction relies on it), the paper's
    /// retry-forever liveness, membership off.
    pub fn protocol_config(&self) -> ProtocolConfig {
        let window = match self.family {
            ProtocolKind::Ring => self.window.max(self.receivers as usize + 1),
            _ => self.window,
        };
        let mut cfg = ProtocolConfig::new(self.family, MODEL_PACKET_SIZE, window);
        cfg.retx_suppress = Duration::ZERO;
        cfg.nak_suppress = Duration::ZERO;
        // The fec family requires the allocation handshake (receivers
        // must preallocate to hold decode material); the flag only
        // applies to the other families.
        cfg.handshake = self.handshake || matches!(self.family, ProtocolKind::Fec { .. });
        if self.aimd {
            // AIMD alone is a pure function of delivered *events*
            // (timeouts shrink, acked progress regrows), so the
            // time-abstract digest stays sound. The floor is the preset's
            // 1; a ring sender raises it above the group size itself.
            cfg.overload.aimd = true;
            cfg.overload.aimd_ceiling = window;
        }
        cfg
    }

    /// The four families at this scope (`ack`, `nak`, `ring`,
    /// `tree-flat`), plus `tree-binary`: the set the acceptance criteria
    /// quantify over.
    pub fn all_families(receivers: u16) -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::Ack,
            ProtocolKind::nak_polling(2),
            ProtocolKind::Ring,
            ProtocolKind::Tree {
                shape: TreeShape::Flat {
                    height: receivers as usize,
                },
            },
            ProtocolKind::Tree {
                shape: TreeShape::Binary,
            },
            ExploreConfig::MODEL_FEC,
        ]
    }
}

/// Result of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Family name (`ProtocolKind::name`).
    pub family: &'static str,
    /// Distinct protocol states visited.
    pub states: usize,
    /// Transitions taken (actions applied, including ones that led to
    /// already-visited states).
    pub transitions: usize,
    /// `true` when `max_states` stopped the search before exhaustion.
    pub truncated: bool,
    /// Safety/liveness violations found (empty = the scope is verified).
    pub violations: Vec<String>,
}

impl ExploreReport {
    /// Did the scope verify completely (exhausted, no violations)?
    pub fn verified(&self) -> bool {
        !self.truncated && self.violations.is_empty()
    }
}

/// Destination of one in-flight datagram copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Sender,
    Receiver(usize),
}

/// One datagram copy the adversary can deliver, drop, or duplicate.
#[derive(Debug, Clone)]
struct Flight {
    to: Target,
    payload: Bytes,
}

/// One branch of the explored multiverse: the engines plus the network
/// and delivery bookkeeping.
#[derive(Clone)]
struct World {
    now: Time,
    sender: Sender,
    receivers: Vec<Receiver>,
    inflight: Vec<Flight>,
    /// Next message id each receiver must deliver (in-order check).
    delivered: Vec<u64>,
    /// Messages the sender reported complete.
    sent: u64,
    /// Remaining duplicate actions.
    dup_budget: u8,
}

/// The expected payload of message `msg_id` (checked on delivery).
fn model_payload(msg_id: u64, packets: u32) -> Bytes {
    let len = packets as usize * MODEL_PACKET_SIZE;
    Bytes::from(
        (0..len)
            .map(|j| (msg_id as u8).wrapping_mul(31).wrapping_add(j as u8))
            .collect::<Vec<u8>>(),
    )
}

impl World {
    fn initial(scope: &ExploreConfig) -> Result<World, String> {
        let cfg = scope.protocol_config();
        let group = GroupSpec::new(scope.receivers);
        let mut sender = Sender::new(cfg, group);
        let receivers: Vec<Receiver> = group
            .receivers()
            .map(|r| Receiver::new(cfg, group, r, r.0 as u64))
            .collect();
        for m in 0..scope.messages {
            sender.send_message(Time::ZERO, model_payload(m, scope.packets));
        }
        let mut w = World {
            now: Time::ZERO,
            sender,
            receivers,
            inflight: Vec::new(),
            delivered: vec![0; scope.receivers as usize],
            sent: 0,
            dup_budget: scope.dups,
        };
        w.settle(scope)?;
        Ok(w)
    }

    /// Drain transmits (expanding multicast per destination) and events,
    /// then audit every engine. Called after every action.
    ///
    /// The in-flight collection has **set** semantics: a datagram
    /// byte-identical to one already in flight to the same destination is
    /// collapsed into it. Identical copies are interchangeable (the
    /// engines are deterministic functions of the delivered bytes), and
    /// the effect of delivering a second identical copy is exactly the
    /// budget-bounded *duplicate* action — so the reduction loses no
    /// distinct engine state while keeping the space finite even under
    /// zero-suppression retransmission storms.
    fn settle(&mut self, scope: &ExploreConfig) -> Result<(), String> {
        while let Some(t) = self.sender.poll_transmit() {
            self.expand(None, t.dest, t.payload);
        }
        for i in 0..self.receivers.len() {
            while let Some(t) = self.receivers[i].poll_transmit() {
                self.expand(Some(i), t.dest, t.payload);
            }
        }
        let mut seen: HashSet<(u8, usize, Bytes)> = HashSet::new();
        self.inflight.retain(|f| {
            let key = match f.to {
                Target::Sender => (0u8, 0usize, f.payload.clone()),
                Target::Receiver(i) => (1, i, f.payload.clone()),
            };
            seen.insert(key)
        });
        while let Some(e) = self.sender.poll_event() {
            match e {
                AppEvent::MessageSent { .. } => self.sent += 1,
                other => return Err(format!("unexpected sender event {other:?}")),
            }
        }
        for i in 0..self.receivers.len() {
            while let Some(e) = self.receivers[i].poll_event() {
                match e {
                    AppEvent::MessageDelivered { msg_id, data } => {
                        let expect = self.delivered[i];
                        if msg_id != expect {
                            return Err(format!(
                                "receiver {i} delivered message {msg_id} but must deliver \
                                 {expect} next (exactly-once in-order violated)"
                            ));
                        }
                        let want = model_payload(msg_id, scope.packets);
                        if data != want {
                            return Err(format!(
                                "receiver {i} delivered corrupted bytes for message {msg_id}"
                            ));
                        }
                        self.delivered[i] += 1;
                    }
                    other => return Err(format!("unexpected receiver {i} event {other:?}")),
                }
            }
        }
        if let Err(v) = self.sender.audit() {
            return Err(format!("sender: {}", rmcast::invariants::render(&v)));
        }
        for (i, r) in self.receivers.iter().enumerate() {
            if let Err(v) = r.audit() {
                return Err(format!("receiver {i}: {}", rmcast::invariants::render(&v)));
            }
        }
        Ok(())
    }

    /// Turn one engine transmit into independent per-destination copies
    /// (multicast loss is per-receiver on real IP multicast; origin never
    /// hears itself).
    fn expand(&mut self, origin: Option<usize>, dest: Dest, payload: Bytes) {
        match dest {
            Dest::Sender => self.inflight.push(Flight {
                to: Target::Sender,
                payload,
            }),
            Dest::Rank(rank) => {
                let idx = rank.receiver_index();
                if origin != Some(idx) {
                    self.inflight.push(Flight {
                        to: Target::Receiver(idx),
                        payload,
                    });
                }
            }
            Dest::Receivers => {
                for i in 0..self.receivers.len() {
                    if origin != Some(i) {
                        self.inflight.push(Flight {
                            to: Target::Receiver(i),
                            payload: payload.clone(),
                        });
                    }
                }
            }
        }
    }

    fn deliver(&mut self, idx: usize, scope: &ExploreConfig) -> Result<(), String> {
        // `remove`, not `swap_remove`: the fair-schedule liveness check
        // delivers index 0 and relies on genuine FIFO order.
        let f = self.inflight.remove(idx);
        let now = self.now;
        match f.to {
            Target::Sender => self.sender.handle_datagram(now, &f.payload),
            Target::Receiver(i) => self.receivers[i].handle_datagram(now, &f.payload),
        }
        self.settle(scope)
    }

    fn drop_flight(&mut self, idx: usize) {
        self.inflight.remove(idx);
    }

    /// The duplication fault: deliver a copy of flight `idx` *without*
    /// consuming it — observably identical to the datagram arriving twice
    /// back-to-back.
    fn duplicate(&mut self, idx: usize, scope: &ExploreConfig) -> Result<(), String> {
        let f = self.inflight[idx].clone();
        self.dup_budget -= 1;
        let now = self.now;
        match f.to {
            Target::Sender => self.sender.handle_datagram(now, &f.payload),
            Target::Receiver(i) => self.receivers[i].handle_datagram(now, &f.payload),
        }
        self.settle(scope)
    }

    /// Timer endpoints with an armed deadline: `None` = sender.
    fn armed_timers(&self) -> Vec<(Option<usize>, Time)> {
        let mut v = Vec::new();
        if let Some(t) = self.sender.poll_timeout() {
            v.push((None, t));
        }
        for (i, r) in self.receivers.iter().enumerate() {
            if let Some(t) = r.poll_timeout() {
                v.push((Some(i), t));
            }
        }
        v
    }

    fn fire(&mut self, who: Option<usize>, at: Time, scope: &ExploreConfig) -> Result<(), String> {
        self.now = self.now.max(at);
        let now = self.now;
        match who {
            None => self.sender.handle_timeout(now),
            Some(i) => self.receivers[i].handle_timeout(now),
        }
        self.settle(scope)
    }

    /// Everything done: all messages sent and delivered everywhere, no
    /// datagrams in flight, every engine idle.
    fn complete(&self, scope: &ExploreConfig) -> bool {
        self.sent == scope.messages
            && self.delivered.iter().all(|&d| d == scope.messages)
            && self.inflight.is_empty()
            && self.sender.is_idle()
            && self.receivers.iter().all(|r| r.is_idle())
    }

    /// 128-bit digest of the protocol-logical state (two independently
    /// salted 64-bit SipHash digests; see the module docs for why time
    /// is excluded).
    fn digest(&self) -> (u64, u64) {
        let mut flights: Vec<(u8, usize, &[u8])> = self
            .inflight
            .iter()
            .map(|f| match f.to {
                Target::Sender => (0u8, 0usize, f.payload.as_ref()),
                Target::Receiver(i) => (1, i, f.payload.as_ref()),
            })
            .collect();
        flights.sort();
        let mut out = [0u64; 2];
        for (salt, slot) in [
            (0x9e37_79b9_7f4a_7c15u64, 0usize),
            (0x85eb_ca6b_27d4_eb4fu64, 1),
        ] {
            let mut h = DefaultHasher::new();
            h.write_u64(salt);
            self.sender.hash_protocol_state(&mut h);
            for r in &self.receivers {
                r.hash_protocol_state(&mut h);
            }
            h.write_usize(flights.len());
            for (kind, idx, payload) in &flights {
                h.write_u8(*kind);
                h.write_usize(*idx);
                h.write(payload);
            }
            h.write_u8(self.dup_budget);
            h.write_u64(self.sent);
            for d in &self.delivered {
                h.write_u64(*d);
            }
            out[slot] = h.finish();
        }
        (out[0], out[1])
    }

    /// Liveness: run the fair schedule (deliver everything FIFO; when the
    /// network is empty, fire the earliest timer) and require completion
    /// within the step bound.
    ///
    /// `live_ok` memoizes success across the whole search: every state on
    /// a completing fair schedule trivially completes under its own fair
    /// schedule (the suffix), so all intermediate digests are recorded —
    /// and a walk that reaches an already-proven state stops early. This
    /// turns the per-state liveness check from a multiplier on the search
    /// into an amortized constant.
    fn completes_under_fair_schedule(
        &self,
        self_digest: (u64, u64),
        scope: &ExploreConfig,
        live_ok: &mut HashSet<(u64, u64)>,
    ) -> Result<(), String> {
        if live_ok.contains(&self_digest) {
            return Ok(());
        }
        let mut walked = vec![self_digest];
        let mut w = self.clone();
        for _ in 0..LIVENESS_STEP_BOUND {
            if w.complete(scope) {
                live_ok.extend(walked);
                return Ok(());
            }
            if !w.inflight.is_empty() {
                w.deliver(0, scope)
                    .map_err(|e| format!("during the fair schedule: {e}"))?;
            } else {
                let Some(&(who, at)) = w.armed_timers().iter().min_by_key(|&&(_, t)| t) else {
                    return Err(format!(
                        "wedged: network empty, no timer armed, yet incomplete \
                         (sent {}/{}, delivered {:?})",
                        w.sent, scope.messages, w.delivered
                    ));
                };
                w.fire(who, at, scope)
                    .map_err(|e| format!("during the fair schedule: {e}"))?;
            }
            let d = w.digest();
            if live_ok.contains(&d) {
                live_ok.extend(walked);
                return Ok(());
            }
            walked.push(d);
        }
        Err("fair schedule did not complete within the step bound".to_string())
    }
}

/// Exhaustively explore `scope`, returning the report. Breadth-first over
/// the action graph with 128-bit state-digest deduplication.
pub fn explore(scope: &ExploreConfig) -> ExploreReport {
    let family = scope.family.name();
    let mut report = ExploreReport {
        family,
        states: 0,
        transitions: 0,
        truncated: false,
        violations: Vec::new(),
    };

    let initial = match World::initial(scope) {
        Ok(w) => w,
        Err(e) => {
            report.violations.push(format!("initial state: {e}"));
            return report;
        }
    };

    // Counterexample trails are reconstructed from a parent map (digest →
    // (parent digest, action label)) instead of being carried in every
    // `World` — the search clones worlds on every transition, and a
    // per-world trail would make that clone O(depth).
    type Digest = (u64, u64);
    type Parents = HashMap<Digest, (Digest, String)>;
    let mut parents: Parents = HashMap::new();
    let trail_to = |parents: &Parents, mut d: Digest| -> String {
        let mut labels: Vec<&str> = Vec::new();
        while let Some((p, label)) = parents.get(&d) {
            labels.push(label);
            d = *p;
        }
        labels.reverse();
        labels.join(" → ")
    };

    let initial_digest = initial.digest();
    let mut visited: HashSet<(u64, u64)> = HashSet::new();
    let mut live_ok: HashSet<(u64, u64)> = HashSet::new();
    let mut queue: VecDeque<(World, (u64, u64))> = VecDeque::new();
    visited.insert(initial_digest);
    queue.push_back((initial, initial_digest));

    while let Some((w, digest)) = queue.pop_front() {
        report.states += 1;
        if report.states > scope.max_states {
            report.truncated = true;
            break;
        }
        if scope.check_liveness {
            if let Err(e) = w.completes_under_fair_schedule(digest, scope, &mut live_ok) {
                report.violations.push(format!(
                    "liveness after [{}]: {e}",
                    trail_to(&parents, digest)
                ));
                break;
            }
        }
        if w.complete(scope) {
            continue; // terminal: nothing to expand
        }

        // Successors: every action on every in-flight copy + every timer.
        let mut successors: Vec<(String, Result<World, String>)> = Vec::new();
        for i in 0..w.inflight.len() {
            let label = |verb: &str| {
                let f = &w.inflight[i];
                let to = match f.to {
                    Target::Sender => "sender".to_string(),
                    Target::Receiver(r) => format!("r{r}"),
                };
                format!("{verb}→{to}#{}", f.payload.len())
            };
            let mut next = w.clone();
            let r = next.deliver(i, scope).map(|()| next);
            successors.push((label("deliver"), r));

            let mut next = w.clone();
            next.drop_flight(i);
            successors.push((label("drop"), Ok(next)));

            if w.dup_budget > 0 {
                let mut next = w.clone();
                let r = next.duplicate(i, scope).map(|()| next);
                successors.push((label("dup"), r));
            }
        }
        for (who, at) in w.armed_timers() {
            let label = match who {
                None => "fire@sender".to_string(),
                Some(i) => format!("fire@r{i}"),
            };
            let mut next = w.clone();
            let r = next.fire(who, at, scope).map(|()| next);
            successors.push((label, r));
        }

        for (label, next) in successors {
            report.transitions += 1;
            match next {
                Err(e) => {
                    report.violations.push(format!(
                        "after [{} → {label}]: {e}",
                        trail_to(&parents, digest)
                    ));
                }
                Ok(next) => {
                    let nd = next.digest();
                    if visited.insert(nd) {
                        parents.insert(nd, (digest, label));
                        queue.push_back((next, nd));
                    }
                }
            }
        }
        if !report.violations.is_empty() {
            break; // first counterexample is enough
        }
    }
    report
}

/// Explore every family of [`ExploreConfig::all_families`] at the given
/// scope template (the `family` field of `template` is replaced).
pub fn explore_all(template: &ExploreConfig) -> Vec<ExploreReport> {
    ExploreConfig::all_families(template.receivers)
        .into_iter()
        .map(|family| {
            explore(&ExploreConfig {
                family,
                ..template.clone()
            })
        })
        .collect()
}
