//! The multicast receiver engine.
//!
//! All four protocols share reception, reassembly and NAK machinery; they
//! differ in *when a receiver acknowledges*:
//!
//! * **ACK**: a cumulative ACK to the sender for every data packet heard.
//! * **NAK with polling**: an ACK only for POLL-flagged packets; NAKs on
//!   gaps (unicast to the sender, or randomly-delayed multicast under the
//!   suppression variant).
//! * **Ring**: an ACK only for the packets this receiver is the token
//!   site of (`seq mod N == rank-1`) — and for the final packet, which
//!   everyone acknowledges.
//! * **Tree**: a cumulative ACK to the *parent* carrying the minimum of
//!   this node's own progress and its children's reported progress; chain
//!   heads report to the sender.

use crate::assembler::{Assembly, Offer};
use crate::config::{ProtocolConfig, ProtocolKind};
use crate::endpoint::{AppEvent, Dest, Endpoint, Transmit};
use crate::error::SessionError;
use crate::overload::LoadScaler;
use crate::packet::{self, Packet};
use crate::stats::Stats;
use crate::tree::{TreeLinks, TreeTopology};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmtrace::{TraceEvent, Tracer};
use rmwire::{
    AllocBody, GroupSpec, Header, PacketFlags, PacketType, Rank, RepairBody, SeqNo, Time,
};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// How many finished transfers of acknowledgment state to retain for
/// re-acknowledging retransmissions.
const RETAIN_TRANSFERS: u32 = 8;

/// Hard bound on tracked transfer states: entries far beyond the live
/// window (which only forged or wildly corrupt traffic can create) are
/// evicted beyond this count.
const MAX_TRACKED: usize = 32;

/// Largest message length an ALLOC announcement may claim. The body's
/// `msg_len` sizes a pre-allocated buffer, so a forged or bit-flipped
/// value must never be trusted verbatim — a single corrupt high byte
/// would otherwise demand gigabytes before the first data packet lands.
const MAX_ALLOC_BYTES: u64 = 1 << 28; // 256 MiB

/// Cap on the packet count an ALLOC implies (`msg_len / packet_size`):
/// bounds the receive bitmap alongside the payload buffer.
const MAX_ALLOC_PACKETS: u64 = 1 << 20;

/// Per-transfer receiver state. The assembly is dropped at delivery; the
/// acknowledgment state survives so retransmissions of a finished transfer
/// still get re-acknowledged.
#[derive(Clone)]
struct TransferState {
    /// Own in-order progress (next expected sequence number).
    own_next: u32,
    /// Total packets, once known.
    k: Option<u32>,
    /// Payload reassembly (data transfers, until delivered).
    assembly: Option<Assembly>,
    delivered: bool,
    /// Tree mode: per-child cumulative coverage.
    child_cov: Vec<u32>,
    /// Last cumulative acknowledgment sent toward the sender/parent.
    sent_up: Option<u32>,
    /// Highest coded-block generation processed (fec replay gate: REPAIR
    /// and PARITY share a strictly-increasing per-transfer counter).
    repair_gen: Option<u32>,
}

impl TransferState {
    fn new(is_alloc: bool, n_children: usize) -> Self {
        TransferState {
            own_next: 0,
            k: if is_alloc { Some(1) } else { None },
            assembly: None,
            delivered: false,
            child_cov: vec![0; n_children],
            sent_up: None,
            repair_gen: None,
        }
    }

    fn complete(&self) -> bool {
        matches!(self.k, Some(k) if self.own_next >= k)
    }

    /// What this node can vouch for: own progress limited by its *live*
    /// children (evicted children no longer gate the aggregate).
    fn aggregate(&self, dead_children: &[bool]) -> u32 {
        self.child_cov
            .iter()
            .zip(dead_children)
            .filter(|&(_, &dead)| !dead)
            .map(|(&c, _)| c)
            .chain(std::iter::once(self.own_next))
            .min()
            .expect("iterator never empty")
    }
}

/// A NAK waiting out its random delay (receiver-multicast suppression).
#[derive(Clone)]
struct PendingNak {
    transfer: u32,
    expected: u32,
    deadline: Time,
}

/// The receiver endpoint (ranks `1..=N`) of a reliable multicast group.
///
/// Cloning forks the entire protocol state (the `rmcheck explore` model
/// checker branches worlds this way); the clone's tracer comes back
/// *detached* — see [`rmtrace::Tracer`]'s `Clone` contract.
#[derive(Clone)]
pub struct Receiver {
    cfg: ProtocolConfig,
    group: GroupSpec,
    rank: Rank,
    /// Tree mode: this node's aggregation links and child rank -> slot.
    links: Option<TreeLinks>,
    child_slot: HashMap<Rank, usize>,
    stats: Stats,
    out: VecDeque<Transmit>,
    events: VecDeque<AppEvent>,
    transfers: BTreeMap<u32, TransferState>,
    max_seen: u32,
    /// Allocation bodies awaiting their data transfer.
    alloc_pending: HashMap<u32, AllocBody>,
    /// A second handle to the payload last delivered from a sized
    /// assembly. When the next transfer is sized, the buffer behind it is
    /// reused if this is by then the only handle (the application dropped
    /// its own); otherwise it is let go and the assembly allocates. Never
    /// read, so not protocol state; a cloned receiver shares the handle,
    /// which only makes both sides see it as shared.
    spare: Option<Bytes>,
    /// Global NAK rate limiting (sender-side-suppression variant).
    last_nak: Option<Time>,
    pending_nak: Option<PendingNak>,
    /// Load-aware NAK-suppression scaling (on with feedback pacing), fed
    /// by the retransmission traffic this receiver observes: heavy RETX
    /// flow means the sender is overloaded, so our own NAK timers stretch.
    load: Option<LoadScaler>,
    /// Receiver-driven retransmission timer: when the config enables it,
    /// this deadline fires a NAK for the oldest stalled transfer.
    stall_deadline: Option<Time>,
    /// Tree children dropped from the aggregate by the child-evict timer
    /// (sticky: a dead subtree never gates a later transfer either).
    dead_children: Vec<bool>,
    /// Child-evict timer: armed while a live child's acknowledgment trails
    /// this node's own progress; per-child signs of life push it out.
    child_deadline: Option<Time>,
    /// Last sign of life per child slot: acknowledgment progress, or (with
    /// membership enabled) a heartbeat. A child is only evicted when it is
    /// both *behind* and *silent* past the timeout — an alive child gated
    /// by its own dead subtree must not be cascade-evicted.
    child_alive: Vec<Time>,
    /// Last instant any packet arrived (base of the receiver give-up
    /// timer).
    last_heard: Time,
    /// Dynamic membership: true from construction via
    /// [`Receiver::new_joining`] until the sender's SYNC handoff admits
    /// this receiver at a message boundary.
    joining: bool,
    /// Current membership epoch (0 with membership disabled).
    epoch: u32,
    /// Transfers below this id belong to messages that completed before
    /// this receiver was admitted; their multicast packets are discarded.
    /// `u32::MAX` while joining (everything is pre-admission until SYNC).
    min_transfer: u32,
    /// JOIN retry timer, armed while `joining`.
    join_deadline: Option<Time>,
    rng: SmallRng,
    tracer: Tracer,
    /// Latest driver-provided time, for trace hooks on paths without a
    /// `now` parameter (send_ack from the acknowledgment policies).
    now_cache: Time,
}

impl Receiver {
    /// Build the receiver for `rank` within `group`. The `seed` feeds the
    /// random NAK delay of the multicast-suppression variant.
    pub fn new(cfg: ProtocolConfig, group: GroupSpec, rank: Rank, seed: u64) -> Self {
        cfg.validate(group.n_receivers as usize);
        assert!(!rank.is_sender(), "rank 0 is the sender");
        assert!(group.contains(rank), "{rank} outside the group");
        let links = match cfg.kind {
            ProtocolKind::Tree { shape } => {
                Some(TreeTopology::new(group, shape).links(rank).clone())
            }
            _ => None,
        };
        let child_slot = links
            .as_ref()
            .map(|l| {
                l.children
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (c, i))
                    .collect()
            })
            .unwrap_or_default();
        let n_children = links.as_ref().map_or(0, |l| l.children.len());
        let epoch = if cfg.membership.enabled { 1 } else { 0 };
        let load = (cfg.overload.feedback_rate > 0).then(|| LoadScaler::new(32));
        Receiver {
            cfg,
            group,
            rank,
            links,
            child_slot,
            stats: Stats::default(),
            out: VecDeque::new(),
            events: VecDeque::new(),
            transfers: BTreeMap::new(),
            max_seen: 0,
            alloc_pending: HashMap::new(),
            spare: None,
            last_nak: None,
            pending_nak: None,
            load,
            stall_deadline: None,
            dead_children: vec![false; n_children],
            child_deadline: None,
            child_alive: vec![Time::ZERO; n_children],
            last_heard: Time::ZERO,
            joining: false,
            epoch,
            min_transfer: 0,
            join_deadline: None,
            rng: SmallRng::seed_from_u64(seed ^ (rank.0 as u64) << 32),
            tracer: Tracer::off(rank.0),
            now_cache: Time::ZERO,
        }
    }

    /// Build a receiver that is *not* yet a group member: it unicasts a
    /// JOIN to the sender (retried every `membership.join_retry`) and
    /// discards all data until the sender's SYNC handoff admits it at a
    /// message boundary. Requires [`crate::MembershipConfig::enabled`].
    pub fn new_joining(
        cfg: ProtocolConfig,
        group: GroupSpec,
        rank: Rank,
        seed: u64,
        now: Time,
    ) -> Self {
        assert!(
            cfg.membership.enabled,
            "joining requires dynamic membership"
        );
        let mut r = Receiver::new(cfg, group, rank, seed);
        r.joining = true;
        r.epoch = 0;
        r.min_transfer = u32::MAX;
        r.last_heard = now;
        r.send_join(now);
        r
    }

    fn send_join(&mut self, now: Time) {
        self.out.push_back(Transmit {
            dest: Dest::Sender,
            payload: packet::encode_join(self.rank, self.epoch),
            copied: 0,
        });
        self.join_deadline = Some(now + self.cfg.membership.join_retry);
    }

    /// Announce a voluntary departure: the sender drops this receiver
    /// from the proof obligation immediately.
    pub fn leave(&mut self) {
        self.out.push_back(Transmit {
            dest: Dest::Sender,
            payload: packet::encode_leave(self.rank, self.epoch),
            copied: 0,
        });
    }

    /// The membership epoch this receiver stamps on its ACKs/NAKs.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The oldest transfer this receiver is still waiting on, with the
    /// sequence number it needs next: either an incomplete transfer it has
    /// heard packets of, or a data transfer announced by a completed
    /// allocation round trip but not yet begun.
    fn stalled_target(&self) -> Option<(u32, u32)> {
        let incomplete = self
            .transfers
            .iter()
            .find(|(_, st)| !st.complete())
            .map(|(&t, st)| (t, st.own_next));
        let announced = self
            .alloc_pending
            .keys()
            .copied()
            .filter(|t| !self.transfers.contains_key(t))
            .min()
            .map(|t| (t, 0));
        match (incomplete, announced) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        }
    }

    /// Re-arm (or disarm) the receiver-driven retransmission timer.
    fn rearm_stall_timer(&mut self, now: Time) {
        let Some(d) = self.cfg.receiver_nak_timer else {
            return;
        };
        self.stall_deadline = self.stalled_target().map(|_| now + d);
    }

    /// This receiver's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    fn n_children(&self) -> usize {
        self.links.as_ref().map_or(0, |l| l.children.len())
    }

    /// The tracked state of `transfer`, created on first sight. Borrows
    /// only the map, so callers keep the receiver's other fields.
    fn ensure_state(
        transfers: &mut BTreeMap<u32, TransferState>,
        n_children: usize,
        transfer: u32,
        is_alloc: bool,
    ) -> &mut TransferState {
        transfers
            .entry(transfer)
            .or_insert_with(|| TransferState::new(is_alloc, n_children))
    }

    /// Advance the pruning horizon — but only along the protocol's
    /// *sequential* transfer progression. A forged completion with an
    /// arbitrary transfer id must not be able to prune live state.
    fn note_completion(&mut self, transfer: u32) {
        if transfer <= self.max_seen.saturating_add(2) {
            self.max_seen = self.max_seen.max(transfer);
        }
    }

    fn prune(&mut self) {
        let cutoff = self.max_seen.saturating_sub(RETAIN_TRANSFERS);
        self.transfers.retain(|&t, _| t >= cutoff);
        self.alloc_pending.retain(|&t, _| t >= cutoff);
        // Evict state far beyond the live window when something (hostile
        // traffic, wild corruption) inflates the maps.
        let high_water = self.max_seen.saturating_add(RETAIN_TRANSFERS);
        while self.transfers.len() > MAX_TRACKED {
            let far = *self.transfers.keys().next_back().expect("non-empty");
            if far > high_water {
                self.transfers.remove(&far);
            } else {
                break;
            }
        }
        while self.alloc_pending.len() > MAX_TRACKED {
            let far = *self.alloc_pending.keys().max().expect("non-empty");
            if far > high_water {
                self.alloc_pending.remove(&far);
            } else {
                break;
            }
        }
    }

    /// Offer `buf` as the storage of the next sized assembly, as if this
    /// receiver had delivered it: reused only if `buf` is by then the sole
    /// handle and its capacity covers the message ([`Self::sized_assembly`]
    /// decides, exactly as between two messages). Its bytes are never read.
    pub fn seed_spare(&mut self, buf: Bytes) {
        self.spare = Some(buf);
    }

    /// Give up the handle to the last delivered (or seeded and unused)
    /// buffer, so a driver can carry it to the receiver of its next run.
    pub fn take_spare(&mut self) -> Option<Bytes> {
        self.spare.take()
    }

    /// The assembly for a transfer sized by the allocation handshake,
    /// built over the last delivered buffer when nobody else holds it.
    fn sized_assembly(spare: &mut Option<Bytes>, cfg: &ProtocolConfig, b: AllocBody) -> Assembly {
        let storage = spare
            .take()
            .and_then(|delivered| delivered.try_into_mut().ok())
            .map_or_else(Vec::new, Vec::from);
        Assembly::recycling(
            storage,
            b.msg_len as usize,
            b.packet_size as usize,
            cfg.discipline,
            cfg.window as u32,
        )
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn on_data(&mut self, now: Time, header: Header, body: DataBody<'_>) {
        let _span = rmprof::span!(rmprof::Stage::RecvAssembly);
        self.stats.data_received += 1;
        // Any sender traffic proves the sender is alive (give-up timer).
        self.last_heard = now;
        // Pre-admission traffic (while joining: everything): the message it
        // belongs to completes without us, so tracking it would only grow
        // state the sender never resolves for this receiver.
        if header.transfer < self.min_transfer {
            self.stats.data_discarded += 1;
            self.tracer.emit(
                now.as_nanos(),
                TraceEvent::DataDiscarded {
                    transfer: header.transfer,
                    seq: header.seq.0,
                },
            );
            return;
        }
        let transfer = header.transfer;
        let is_alloc = matches!(body, DataBody::Alloc(_));
        let seq = header.seq.0;
        let last = header.flags.contains(PacketFlags::LAST);
        // Retransmission traffic is the load signal scaling our NAK timers.
        if header.flags.contains(PacketFlags::RETX) {
            if let Some(l) = self.load.as_mut() {
                l.note(now);
            }
        }

        // Materialize the assembly lazily for data transfers.
        let alloc_body = self.alloc_pending.get(&transfer).copied();
        let handshake = self.cfg.handshake;

        // With the handshake enabled, data for a transfer whose allocation
        // round trip we have not completed cannot be sized — and a
        // legitimate sender never emits it (the allocation must be
        // acknowledged by everyone first). Discard rather than trust it.
        if handshake
            && !is_alloc
            && alloc_body.is_none()
            && self
                .transfers
                .get(&transfer)
                .is_none_or(|st| st.assembly.is_none() && !st.delivered)
        {
            self.stats.data_discarded += 1;
            self.tracer
                .emit(now.as_nanos(), TraceEvent::DataDiscarded { transfer, seq });
            return;
        }

        let n_children = self.n_children();
        let st = Self::ensure_state(&mut self.transfers, n_children, transfer, is_alloc);
        if st.assembly.is_none() && !st.delivered && !is_alloc {
            st.assembly = Some(match alloc_body {
                Some(b) => Self::sized_assembly(&mut self.spare, &self.cfg, b),
                None => Assembly::dynamic(self.cfg.packet_size, self.cfg.discipline),
            });
        }

        let prev_next = st.own_next;
        let was_complete = st.complete();

        // Offer the packet.
        let offer = if is_alloc {
            if st.own_next == 0 {
                st.own_next = 1;
                Offer::InOrder
            } else {
                Offer::Duplicate
            }
        } else if st.delivered {
            Offer::Duplicate
        } else {
            let chunk = match body {
                DataBody::Chunk(c) => c,
                DataBody::Alloc(_) => unreachable!(),
            };
            let a = st.assembly.as_mut().expect("assembly materialized above");
            let o = a.offer(seq, chunk, last);
            st.own_next = a.next_expected();
            st.k = a.k();
            o
        };

        if matches!(offer, Offer::Duplicate) {
            self.stats.data_discarded += 1;
        }
        if self.tracer.active() {
            let ev = match offer {
                Offer::InOrder | Offer::Buffered => TraceEvent::DataRecv { transfer, seq },
                Offer::Duplicate | Offer::Rejected => TraceEvent::DataDiscarded { transfer, seq },
            };
            self.tracer.emit(now.as_nanos(), ev);
        }

        // Sample buffer occupancy for Table 1.
        let buffered = self
            .transfers
            .get(&transfer)
            .and_then(|s| s.assembly.as_ref())
            .map_or(0, |a| a.buffered_bytes());
        self.stats.sample_buffer(buffered);

        // Record the allocation body for the upcoming data transfer —
        // after capping what it may demand: the body reaches
        // `Assembly::preallocated`, so an uncapped `msg_len` is a
        // state-exhaustion primitive for anyone who can flip a bit.
        if let DataBody::Alloc(b) = body {
            if matches!(offer, Offer::InOrder) {
                let packets = b.msg_len.div_ceil(u64::from(b.packet_size.max(1)));
                if b.msg_len > MAX_ALLOC_BYTES || packets > MAX_ALLOC_PACKETS {
                    self.stats.decode_errors += 1;
                    self.stats.malformed_rx += 1;
                    self.tracer.emit(
                        now.as_nanos(),
                        TraceEvent::DataDiscarded {
                            transfer: b.data_transfer,
                            seq: 0,
                        },
                    );
                } else {
                    // rmlint: allow(hot-alloc): once per ALLOC, not per data packet
                    self.alloc_pending.insert(b.data_transfer, b);
                }
            }
        }

        // Deliver on completion.
        let st = self.transfers.get_mut(&transfer).expect("state exists");
        let became_complete = !was_complete && st.complete();
        if became_complete {
            self.note_completion(transfer);
        }
        let st = self.transfers.get_mut(&transfer).expect("state exists");
        if became_complete && !is_alloc && !st.delivered {
            st.delivered = true;
            let data = st
                .assembly
                .take()
                .expect("completed data transfer has an assembly")
                .into_bytes();
            if alloc_body.is_some() {
                // rmlint: allow(hot-alloc): a second handle, no bytes copied
                self.spare = Some(data.clone());
            }
            // Transfer ids hold a message id's low 31 bits
            // (`Sender::data_transfer_id`): from message 2^31 on this wraps.
            let msg_id = (transfer / 2) as u64;
            self.stats.messages_completed += 1;
            self.tracer
                .emit(now.as_nanos(), TraceEvent::Delivered { transfer, msg_id });
            self.events
                .push_back(AppEvent::MessageDelivered { msg_id, data });
            // A newly delivered message obsoletes the pending NAK state for
            // this transfer.
            if self
                .pending_nak
                .as_ref()
                .is_some_and(|p| p.transfer == transfer)
            {
                self.pending_nak = None;
            }
        }
        if became_complete && is_alloc {
            st.delivered = true;
        }

        // Acknowledge per protocol policy.
        self.acknowledge(transfer, header.flags, seq, prev_next, offer);

        // NAK on detected gaps.
        if matches!(offer, Offer::Rejected) || (matches!(offer, Offer::Buffered) && seq > prev_next)
        {
            let expected = self.transfers[&transfer].own_next;
            self.consider_nak(now, transfer, expected);
        }

        self.prune();
        self.rearm_stall_timer(now);
        self.rearm_child_timer(now);
    }

    /// The per-protocol acknowledgment decision after processing a data
    /// packet.
    fn acknowledge(
        &mut self,
        transfer: u32,
        flags: PacketFlags,
        seq: u32,
        prev_next: u32,
        offer: Offer,
    ) {
        let st = &self.transfers[&transfer];
        let next = st.own_next;
        match self.cfg.kind {
            ProtocolKind::Ack => {
                // Cumulative ACK for every packet heard.
                self.send_ack(Dest::Sender, transfer, next);
            }
            ProtocolKind::NakPolling { .. } | ProtocolKind::Fec { .. } => {
                // Polled packets are acknowledged; so are retransmissions:
                // a retransmission means the sender is stalled waiting for
                // state it cannot otherwise observe (a gap filled under
                // selective repeat, or a lost poll response). The fec
                // family inherits this policy — decoded repairs carry RETX
                // on their synthesized header, so a successful decode
                // reports progress the same way a retransmission would.
                if flags.contains(PacketFlags::POLL) || flags.contains(PacketFlags::RETX) {
                    self.send_ack(Dest::Sender, transfer, next);
                }
            }
            ProtocolKind::Ring => {
                let n = self.group.n_receivers as u32;
                let idx = self.rank.receiver_index() as u32;
                let advanced = matches!(offer, Offer::InOrder);
                // Token packets newly covered by the in-order advance.
                let newly_token = advanced && (prev_next..next).any(|p| p % n == idx);
                // Everyone acknowledges the end of the transfer.
                let completed_now = advanced && st.complete();
                // Duplicates of our token packets or of the LAST packet
                // are re-acknowledged (lost-ACK recovery).
                let dup_token = matches!(offer, Offer::Duplicate)
                    && (seq % n == idx || flags.contains(PacketFlags::LAST));
                // Under overload hardening, an in-order advance on a
                // retransmitted packet is acknowledged even off-token: a
                // retransmission means the sender is starved of state it
                // cannot otherwise observe (quarantine catch-up would
                // stall a full token rotation between ACKs otherwise).
                let retx_advance = self.cfg.overload.any_enabled()
                    && advanced
                    && flags.contains(PacketFlags::RETX);
                if newly_token || completed_now || dup_token || retx_advance {
                    self.send_ack(Dest::Sender, transfer, next);
                }
            }
            ProtocolKind::Tree { .. } => {
                let force = matches!(offer, Offer::Duplicate)
                    && (flags.contains(PacketFlags::LAST) || flags.contains(PacketFlags::RETX));
                self.send_aggregate(transfer, force);
            }
        }
    }

    /// Tree mode: send the aggregated cumulative ACK upward when it
    /// advanced (or when `force`d by a retransmitted LAST packet).
    fn send_aggregate(&mut self, transfer: u32, force: bool) {
        let st = self.transfers.get_mut(&transfer).expect("state exists");
        let agg = st.aggregate(&self.dead_children);
        let advanced = st.sent_up.is_none_or(|s| agg > s);
        let should_send = force || (advanced && agg > 0);
        if !should_send {
            return;
        }
        st.sent_up = Some(agg.max(st.sent_up.unwrap_or(0)));
        let dest = match self.links.as_ref().and_then(|l| l.parent) {
            Some(p) => Dest::Rank(p),
            None => Dest::Sender,
        };
        self.send_ack(dest, transfer, agg);
    }

    fn send_ack(&mut self, dest: Dest, transfer: u32, next_expected: u32) {
        self.stats.acks_sent += 1;
        self.tracer.emit(
            self.now_cache.as_nanos(),
            TraceEvent::AckSent {
                transfer,
                next: next_expected,
            },
        );
        let payload = if self.cfg.membership.enabled {
            packet::encode_ack_epoch(self.rank, transfer, SeqNo(next_expected), self.epoch)
        } else {
            packet::encode_ack(self.rank, transfer, SeqNo(next_expected))
        };
        self.out.push_back(Transmit {
            dest,
            payload,
            copied: 0,
        });
    }

    // ------------------------------------------------------------------
    // NAKs
    // ------------------------------------------------------------------

    fn consider_nak(&mut self, now: Time, transfer: u32, expected: u32) {
        // Load-aware scaling: the static suppression interval stretches
        // with observed retransmission traffic (identity when disabled).
        let suppress = match self.load.as_mut() {
            Some(l) => l.scale(self.cfg.nak_suppress, now),
            None => self.cfg.nak_suppress,
        };
        let receiver_multicast = matches!(
            self.cfg.kind,
            ProtocolKind::NakPolling {
                receiver_multicast_nak: true,
                ..
            }
        );
        if receiver_multicast {
            if self.pending_nak.is_none() {
                let delay_ns = self.rng.gen_range(0..=suppress.as_nanos());
                self.pending_nak = Some(PendingNak {
                    transfer,
                    expected,
                    deadline: now + rmwire::Duration::from_nanos(delay_ns),
                });
            } else {
                self.stats.naks_suppressed += 1;
            }
            return;
        }
        // Sender-side suppression variant: rate-limit our own NAKs.
        let ok = self
            .last_nak
            .is_none_or(|t| now.saturating_since(t).as_nanos() >= suppress.as_nanos());
        if ok {
            self.last_nak = Some(now);
            self.emit_nak(Dest::Sender, transfer, expected);
        } else {
            self.stats.naks_suppressed += 1;
        }
    }

    fn emit_nak(&mut self, dest: Dest, transfer: u32, expected: u32) {
        self.stats.naks_sent += 1;
        self.tracer.emit(
            self.now_cache.as_nanos(),
            TraceEvent::NakSent {
                transfer,
                seq: expected,
            },
        );
        let payload = if self.cfg.membership.enabled {
            packet::encode_nak_epoch(self.rank, transfer, SeqNo(expected), self.epoch)
        } else {
            packet::encode_nak(self.rank, transfer, SeqNo(expected))
        };
        self.out.push_back(Transmit {
            dest,
            payload,
            copied: 0,
        });
    }

    // ------------------------------------------------------------------
    // Coded repair (the fec family)
    // ------------------------------------------------------------------

    /// Process a REPAIR or PARITY coded block: the XOR of the packets the
    /// body's bitmap names. Exactly one of them missing here means the
    /// block decodes — XOR the held packets back out and feed the
    /// reconstructed chunk through the ordinary data path, which keeps
    /// delivery exactly-once even when the same packet later arrives
    /// natively (the assembly reports it as a duplicate).
    fn on_repair(&mut self, now: Time, header: Header, body: RepairBody, payload: &[u8]) {
        let _span = rmprof::span!(rmprof::Stage::FecDecode);
        self.stats.repairs_received += 1;
        self.last_heard = now;
        let transfer = header.transfer;
        if transfer < self.min_transfer {
            self.stats.data_discarded += 1;
            self.tracer.emit(
                now.as_nanos(),
                TraceEvent::DataDiscarded {
                    transfer,
                    seq: body.base_seq,
                },
            );
            return;
        }
        // Reactive repair is retransmission traffic: feed the load signal
        // that stretches NAK suppression under overload. Proactive parity
        // is steady-state traffic and stays out of it.
        if header.ptype == PacketType::Repair {
            if let Some(l) = self.load.as_mut() {
                l.note(now);
            }
        }
        // Replay gate: generations are strictly increasing per transfer.
        // An equal-or-older generation is a replayed (or badly reordered)
        // block; dropping it is never load-bearing because the sender
        // re-codes losses that stay unresolved.
        if let Some(st) = self.transfers.get(&transfer) {
            if st.repair_gen.is_some_and(|g| body.generation <= g) {
                self.stats.repairs_replayed += 1;
                return;
            }
        }
        // Decoding needs the exact chunk geometry, which only the
        // allocation handshake provides (the fec family requires it). A
        // block for a transfer we cannot size is unattributable — discard.
        let have_state = self
            .transfers
            .get(&transfer)
            .is_some_and(|st| st.assembly.is_some() || st.delivered);
        if !have_state && !self.alloc_pending.contains_key(&transfer) {
            self.stats.data_discarded += 1;
            self.tracer.emit(
                now.as_nanos(),
                TraceEvent::DataDiscarded {
                    transfer,
                    seq: body.base_seq,
                },
            );
            return;
        }
        // Materialize the assembly exactly as the data path would, then
        // stamp the generation: the block counts as processed whatever the
        // decode outcome.
        let alloc_body = self.alloc_pending.get(&transfer).copied();
        let n_children = self.n_children();
        let st = Self::ensure_state(&mut self.transfers, n_children, transfer, false);
        if st.assembly.is_none() && !st.delivered {
            let b = alloc_body.expect("gated on alloc_pending above");
            let asm = Self::sized_assembly(&mut self.spare, &self.cfg, b);
            // Keep the tracked-progress mirrors in lockstep (invariant
            // R1), as the data path does after every offer.
            st.own_next = asm.next_expected();
            st.k = asm.k();
            st.assembly = Some(asm);
        }
        st.repair_gen = Some(body.generation);

        enum Outcome {
            Useless,
            Undecodable,
            Decoded {
                seq: u32,
                chunk: Vec<u8>,
                last: bool,
            },
        }
        let outcome = {
            let st = &self.transfers[&transfer];
            match &st.assembly {
                // Delivered: everything the block names is already held.
                None => Outcome::Useless,
                Some(asm) => {
                    let packet_size = asm.packet_size();
                    if payload.len() > packet_size {
                        // The XOR of ≤ packet_size chunks cannot be longer
                        // than packet_size: hostile or corrupt.
                        Outcome::Undecodable
                    } else {
                        let mut missing = None;
                        let mut n_missing = 0u32;
                        for seq in body.seqs() {
                            if !asm.holds(seq) {
                                n_missing += 1;
                                missing = Some(seq);
                            }
                        }
                        match (n_missing, missing) {
                            (0, _) => Outcome::Useless,
                            (1, Some(seq)) => match asm.chunk_len(seq) {
                                // The bitmap names a packet beyond the
                                // transfer: hostile or corrupt.
                                None => Outcome::Undecodable,
                                Some(want) => {
                                    // rmlint: allow(hot-alloc): once per decoded repair
                                    let mut acc = vec![0u8; packet_size];
                                    acc[..payload.len()].copy_from_slice(payload);
                                    let mut readable = true;
                                    for s in body.seqs().filter(|&s| s != seq) {
                                        match asm.chunk(s) {
                                            Some(held) => {
                                                for (a, &b) in acc.iter_mut().zip(held) {
                                                    *a ^= b;
                                                }
                                            }
                                            // A "held" bit just outside the
                                            // sized transfer (forged empty
                                            // data can plant one) is not
                                            // readable — fail the decode,
                                            // never the process.
                                            None => {
                                                readable = false;
                                                break;
                                            }
                                        }
                                    }
                                    if readable {
                                        acc.truncate(want);
                                        let last = asm.k().is_some_and(|k| seq + 1 == k);
                                        Outcome::Decoded {
                                            seq,
                                            chunk: acc,
                                            last,
                                        }
                                    } else {
                                        Outcome::Undecodable
                                    }
                                }
                            },
                            _ => Outcome::Undecodable,
                        }
                    }
                }
            }
        };
        match outcome {
            Outcome::Useless => self.stats.repairs_useless += 1,
            Outcome::Undecodable => self.stats.repairs_undecodable += 1,
            Outcome::Decoded { seq, chunk, last } => {
                self.stats.repairs_decoded += 1;
                self.tracer
                    .emit(now.as_nanos(), TraceEvent::RepairDecoded { transfer, seq });
                // Feed the reconstruction through the ordinary data path
                // under a synthesized header. RETX makes the NakPolling-
                // style acknowledgment policy report the progress; LAST
                // restates what the geometry already pinned.
                let mut flags = PacketFlags::RETX;
                if last {
                    flags |= PacketFlags::LAST;
                }
                let synth = Header {
                    ptype: PacketType::Data,
                    flags,
                    src_rank: header.src_rank,
                    transfer,
                    seq: SeqNo(seq),
                };
                self.on_data(now, synth, DataBody::Chunk(&chunk));
            }
        }
    }

    // ------------------------------------------------------------------
    // Control packets from peers
    // ------------------------------------------------------------------

    fn on_peer_ack(&mut self, now: Time, rank: Rank, transfer: u32, next_expected: u32) {
        self.stats.acks_received += 1;
        let Some(&slot) = self.child_slot.get(&rank) else {
            return; // not one of our tree children; stray
        };
        self.tracer.emit(
            now.as_nanos(),
            TraceEvent::AckReceived {
                from: rank.0,
                transfer,
                next: next_expected,
            },
        );
        let n_children = self.n_children();
        let st = Self::ensure_state(&mut self.transfers, n_children, transfer, false);
        let advanced = next_expected > st.child_cov[slot];
        st.child_cov[slot] = st.child_cov[slot].max(next_expected);
        self.send_aggregate(transfer, false);
        if advanced {
            // Child progress: push that child's eviction out.
            self.child_alive[slot] = self.child_alive[slot].max(now);
        }
        self.rearm_child_timer(now);
    }

    // ------------------------------------------------------------------
    // Liveness: child eviction and sender give-up
    // ------------------------------------------------------------------

    /// Is slot's acknowledgment trailing this node's own progress on some
    /// tracked transfer? Returns the oldest such transfer.
    fn slot_behind(&self, slot: usize) -> Option<u32> {
        self.transfers
            .iter()
            .find(|(_, st)| st.child_cov[slot] < st.own_next)
            .map(|(&t, _)| t)
    }

    /// Arm the child-evict timer at the earliest per-child deadline (last
    /// sign of life + timeout, over live children that are behind); disarm
    /// it when no child gates anything.
    fn rearm_child_timer(&mut self, _now: Time) {
        let Some(d) = self.cfg.liveness.child_evict_timeout else {
            return;
        };
        self.child_deadline = (0..self.dead_children.len())
            .filter(|&s| !self.dead_children[s] && self.slot_behind(s).is_some())
            .map(|s| self.child_alive[s] + d)
            .min();
    }

    /// The child-evict timer fired: every live child that is behind *and*
    /// silent past the timeout is presumed dead. Drop it from the
    /// aggregate so the ack chain routes around the dead subtree, and
    /// re-report everything that unblocked.
    fn evict_stalled_children(&mut self, now: Time) {
        self.child_deadline = None;
        let d = self
            .cfg
            .liveness
            .child_evict_timeout
            .expect("timer only armed when configured");
        let mut evicted = Vec::new();
        for (slot, dead) in self.dead_children.clone().iter().enumerate() {
            if *dead || self.child_alive[slot] + d > now {
                continue;
            }
            if let Some(transfer) = self.slot_behind(slot) {
                self.dead_children[slot] = true;
                evicted.push((slot, transfer));
            }
        }
        for &(slot, transfer) in &evicted {
            let rank = self
                .links
                .as_ref()
                .expect("children imply tree links")
                .children[slot];
            self.stats.evictions += 1;
            self.tracer.emit(
                now.as_nanos(),
                TraceEvent::Evicted {
                    peer: rank.0,
                    transfer,
                },
            );
            self.events.push_back(AppEvent::ReceiverEvicted {
                msg_id: (transfer / 2) as u64,
                rank,
            });
        }
        if !evicted.is_empty() {
            // Aggregates may have jumped: re-report every tracked transfer
            // (send_aggregate only emits when the aggregate advanced).
            for t in self.transfers.keys().copied().collect::<Vec<_>>() {
                self.send_aggregate(t, false);
            }
        }
        self.rearm_child_timer(now);
    }

    /// The give-up deadline, when the config bounds how long a receiver
    /// waits on a silent sender with transfers incomplete.
    fn giveup_deadline(&self) -> Option<Time> {
        let g = self.cfg.liveness.receiver_giveup?;
        self.stalled_target().map(|_| self.last_heard + g)
    }

    /// The sender went silent past `receiver_giveup`: abandon every
    /// incomplete (or announced-but-unstarted) message with a typed error
    /// instead of waiting forever.
    fn give_up_on_sender(&mut self, now: Time) {
        // Oldest transfer per abandoned message id, for the error report.
        let mut failed: BTreeMap<u64, u32> = BTreeMap::new();
        for (&t, st) in &self.transfers {
            if !st.complete() {
                failed.entry((t / 2) as u64).or_insert(t);
            }
        }
        for &t in self.alloc_pending.keys() {
            if !self.transfers.contains_key(&t) {
                failed.entry((t / 2) as u64).or_insert(t);
            }
        }
        self.transfers.retain(|_, st| st.complete());
        self.alloc_pending.clear();
        self.pending_nak = None;
        self.stall_deadline = None;
        let any_failed = !failed.is_empty();
        for (msg_id, transfer) in failed {
            self.stats.messages_failed += 1;
            self.events.push_back(AppEvent::MessageFailed {
                msg_id,
                error: SessionError::SenderStalled { transfer },
            });
        }
        if any_failed {
            self.push_flight_dump(now, "receiver gave up on silent sender");
        }
    }

    /// Snapshot the flight recorder (when enabled) into an app event, so
    /// the driver can surface the last moments before a failure.
    fn push_flight_dump(&mut self, now: Time, reason: &str) {
        if let Some(dump) = self
            .tracer
            .flight_dump(now.as_nanos(), reason, self.stats.snapshot())
        {
            self.events.push_back(AppEvent::FlightRecorderDump { dump });
        }
    }

    /// Adopt a (possibly newer) epoch announced by the sender, tracing
    /// the transition.
    fn adopt_epoch(&mut self, now: Time, epoch: u32) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.tracer
                .emit(now.as_nanos(), TraceEvent::EpochChange { epoch });
        }
    }

    fn on_peer_nak(&mut self, transfer: u32, expected: u32) {
        self.stats.naks_received += 1;
        // Multicast NAK overheard: suppress our own pending NAK for the
        // same (or earlier) gap.
        if let Some(p) = &self.pending_nak {
            if p.transfer == transfer && expected <= p.expected {
                self.pending_nak = None;
                self.stats.naks_suppressed += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Dynamic membership
    // ------------------------------------------------------------------

    /// A heartbeat arrived. The sender's multicast announce carries the
    /// authoritative epoch and is answered with a unicast reply (plus a
    /// copy to the tree parent, so ancestors can tell a *gated* child —
    /// alive but blocked on its own dead subtree — from a silent one). A
    /// heartbeat from one of our children re-bases its eviction timer.
    fn on_heartbeat(&mut self, now: Time, src: Rank, epoch: u32) {
        self.stats.heartbeats_received += 1;
        if let Some(&slot) = self.child_slot.get(&src) {
            if !self.dead_children[slot] {
                // The child is alive even if its aggregate is stuck:
                // without this, a dead leaf cascade-evicts every live
                // ancestor in its chain.
                self.child_alive[slot] = self.child_alive[slot].max(now);
                self.rearm_child_timer(now);
            }
            return;
        }
        if !src.is_sender() {
            return;
        }
        self.last_heard = now;
        self.adopt_epoch(now, epoch);
        if self.joining {
            // Not a member yet: the JOIN retry timer covers liveness.
            return;
        }
        self.stats.heartbeats_sent += 1;
        self.out.push_back(Transmit {
            dest: Dest::Sender,
            payload: packet::encode_heartbeat(self.rank, self.epoch),
            copied: 0,
        });
        if let Some(p) = self.links.as_ref().and_then(|l| l.parent) {
            self.stats.heartbeats_sent += 1;
            self.out.push_back(Transmit {
                dest: Dest::Rank(p),
                payload: packet::encode_heartbeat(self.rank, self.epoch),
                copied: 0,
            });
        }
    }

    /// The sender acknowledged our JOIN. Admission itself still waits on
    /// the SYNC handoff at the next message boundary.
    fn on_welcome(&mut self, now: Time, epoch: u32) {
        self.last_heard = now;
        self.adopt_epoch(now, epoch);
    }

    /// The SYNC handoff: we are a member from `body.epoch` on, obligated
    /// for transfers from `body.next_transfer`. Anything older completes
    /// (or fails) without us.
    fn on_sync(&mut self, now: Time, body: rmwire::SyncBody) {
        self.last_heard = now;
        self.adopt_epoch(now, body.epoch);
        if body.detached_root() {
            // Re-parented as a detached tree root: the old parent chain no
            // longer waits on us; aggregates go straight to the sender.
            if let Some(l) = self.links.as_mut() {
                l.parent = None;
            }
        }
        let cutoff = if self.joining {
            body.next_transfer
        } else {
            // Implicit rejoin after an eviction we never observed: the
            // handoff point only ever moves forward.
            self.min_transfer.max(body.next_transfer)
        };
        self.min_transfer = cutoff;
        // SYNC is authoritative about where the transfer progression
        // stands: advance the pruning horizon so fresh state is tracked.
        self.max_seen = self.max_seen.max(cutoff);
        // Abandon incomplete pre-admission transfers: the sender fulfils
        // them toward the members of their epoch, not toward us.
        let mut failed: BTreeMap<u64, u32> = BTreeMap::new();
        for (&t, st) in &self.transfers {
            if t < cutoff && !st.complete() {
                failed.entry((t / 2) as u64).or_insert(t);
            }
        }
        for &t in self.alloc_pending.keys() {
            if t < cutoff && !self.transfers.contains_key(&t) {
                failed.entry((t / 2) as u64).or_insert(t);
            }
        }
        self.transfers.retain(|&t, st| t >= cutoff || st.complete());
        self.alloc_pending.retain(|&t, _| t >= cutoff);
        if self
            .pending_nak
            .as_ref()
            .is_some_and(|p| p.transfer < cutoff)
        {
            self.pending_nak = None;
        }
        let any_failed = !failed.is_empty();
        for (msg_id, transfer) in failed {
            self.stats.messages_failed += 1;
            self.events.push_back(AppEvent::MessageFailed {
                msg_id,
                error: SessionError::SenderStalled { transfer },
            });
        }
        if any_failed {
            self.push_flight_dump(now, "SYNC abandoned pre-admission transfers");
        }
        if self.joining {
            self.joining = false;
            self.join_deadline = None;
            self.stats.joins += 1;
        }
        self.rearm_stall_timer(now);
    }
}

/// Body of a received data-bearing packet.
enum DataBody<'a> {
    Chunk(&'a [u8]),
    Alloc(AllocBody),
}

impl Receiver {
    /// Audit every receiver-side invariant (`R1`…`R4` in
    /// [`crate::invariants`]) against the current state.
    pub fn audit(&self) -> Result<(), Vec<crate::invariants::Violation>> {
        use crate::invariants::Audit;
        let mut a = Audit::new();
        let n_children = self.n_children();
        a.require("R4", self.dead_children.len() == n_children, || {
            format!(
                "{} eviction flags for {n_children} children",
                self.dead_children.len()
            )
        });
        a.require("R4", self.child_alive.len() == n_children, || {
            format!(
                "{} liveness stamps for {n_children} children",
                self.child_alive.len()
            )
        });
        a.require(
            "R4",
            self.child_slot.len() == n_children
                && self.child_slot.values().all(|&s| s < n_children),
            || "child rank → slot map out of lockstep with the aggregation links".into(),
        );
        for (&id, st) in &self.transfers {
            if let Some(k) = st.k {
                a.require("R1", st.own_next <= k, || {
                    format!("transfer {id}: progress {} beyond k = {k}", st.own_next)
                });
                a.require("R1", !st.delivered || st.own_next >= k, || {
                    format!(
                        "transfer {id}: delivered with only {} of {k} packets",
                        st.own_next
                    )
                });
            } else {
                a.require("R1", !st.delivered, || {
                    format!("transfer {id}: delivered without ever learning k")
                });
            }
            if let Some(asm) = &st.assembly {
                a.require(
                    "R1",
                    st.own_next == asm.next_expected() && st.k == asm.k(),
                    || {
                        format!(
                            "transfer {id}: tracked progress {}/{:?} diverges from the \
                         assembly's {}/{:?}",
                            st.own_next,
                            st.k,
                            asm.next_expected(),
                            asm.k()
                        )
                    },
                );
                a.check("R3", asm.check().map_err(|e| format!("transfer {id}: {e}")));
            }
            a.require("R4", st.child_cov.len() == n_children, || {
                format!(
                    "transfer {id}: {} child coverage slots for {n_children} children",
                    st.child_cov.len()
                )
            });
            if st.child_cov.len() == n_children && self.dead_children.len() == n_children {
                let agg = st.aggregate(&self.dead_children);
                if let Some(sent) = st.sent_up {
                    a.require("R2", sent <= agg, || {
                        format!(
                            "transfer {id}: acknowledged {sent} up the tree but can \
                             only vouch for {agg} (own {} / children {:?})",
                            st.own_next, st.child_cov
                        )
                    });
                }
            }
        }
        a.finish()
    }

    /// Hash the protocol-logical state into `h`: everything that shapes
    /// future behavior except clocks and counters (see
    /// [`crate::Sender::hash_protocol_state`] for the soundness argument).
    pub fn hash_protocol_state(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u16(self.rank.0);
        for (&id, st) in &self.transfers {
            h.write_u32(id);
            h.write_u32(st.own_next);
            match st.k {
                None => h.write_u8(0),
                Some(k) => {
                    h.write_u8(1);
                    h.write_u32(k);
                }
            }
            h.write_u8(st.delivered as u8);
            for &c in &st.child_cov {
                h.write_u32(c);
            }
            match st.sent_up {
                None => h.write_u8(0),
                Some(s) => {
                    h.write_u8(1);
                    h.write_u32(s);
                }
            }
            match st.repair_gen {
                None => h.write_u8(0),
                Some(g) => {
                    h.write_u8(1);
                    h.write_u32(g);
                }
            }
            match &st.assembly {
                None => h.write_u8(0),
                Some(asm) => {
                    h.write_u8(1);
                    h.write_u32(asm.next_expected());
                    for &w in asm.have_words() {
                        h.write_u64(w);
                    }
                    h.write_usize(asm.buffered_bytes());
                }
            }
        }
        h.write_u32(self.max_seen);
        // HashMap iteration order is arbitrary: hash sorted.
        let mut pending: Vec<_> = self.alloc_pending.keys().copied().collect();
        pending.sort_unstable();
        for id in pending {
            h.write_u32(id);
            let b = &self.alloc_pending[&id];
            h.write_u64(b.msg_len);
            h.write_u32(b.data_transfer);
            h.write_u32(b.packet_size);
        }
        match &self.pending_nak {
            None => h.write_u8(0),
            Some(p) => {
                h.write_u8(1);
                h.write_u32(p.transfer);
                h.write_u32(p.expected);
            }
        }
        for &d in &self.dead_children {
            h.write_u8(d as u8);
        }
        h.write_u8(self.joining as u8);
        h.write_u32(self.epoch);
        h.write_u32(self.min_transfer);
        h.write_usize(self.out.len());
        h.write_usize(self.events.len());
    }

    /// Panic on any violated invariant (`debug_assertions` only; see
    /// [`crate::Sender`]'s equivalent hook).
    #[cfg(debug_assertions)]
    fn debug_audit(&self) {
        if let Err(v) = self.audit() {
            panic!(
                "receiver {} invariant violation: {}",
                self.rank,
                crate::invariants::render(&v)
            );
        }
    }
}

impl Endpoint for Receiver {
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]) {
        self.now_cache = self.now_cache.max(now);
        let pkt = match Packet::parse_checked(datagram, self.cfg.integrity) {
            Ok(p) => p,
            Err(e) => {
                self.stats.decode_errors += 1;
                let cause = match e {
                    rmwire::WireError::ChecksumMismatch { .. }
                    | rmwire::WireError::ChecksumMissing => {
                        self.stats.integrity_fail += 1;
                        "IntegrityFail"
                    }
                    _ => {
                        self.stats.malformed_rx += 1;
                        "MalformedRx"
                    }
                };
                self.tracer.emit(now.as_nanos(), TraceEvent::Drop { cause });
                return;
            }
        };
        match pkt {
            Packet::Data { header, body } => self.on_data(now, header, DataBody::Chunk(body)),
            Packet::Alloc { header, body } => self.on_data(now, header, DataBody::Alloc(body)),
            Packet::Ack { header, body, .. } => {
                self.on_peer_ack(now, header.src_rank, header.transfer, body.next_expected.0)
            }
            Packet::Nak { header, body, .. } => self.on_peer_nak(header.transfer, body.expected.0),
            Packet::Heartbeat { header, body } => {
                self.on_heartbeat(now, header.src_rank, body.epoch)
            }
            Packet::Welcome { body, .. } => self.on_welcome(now, body.epoch),
            Packet::Sync { body, .. } => self.on_sync(now, body),
            Packet::Repair {
                header,
                body,
                payload,
            }
            | Packet::Parity {
                header,
                body,
                payload,
            } => self.on_repair(now, header, body, payload),
            // Sender-bound admission control that strayed to a receiver.
            Packet::Join { .. } | Packet::Leave { .. } => self.stats.data_discarded += 1,
        }
        #[cfg(debug_assertions)]
        self.debug_audit();
    }

    fn handle_timeout(&mut self, now: Time) {
        self.now_cache = self.now_cache.max(now);
        if let Some(p) = self.pending_nak.take() {
            if p.deadline <= now {
                // Multicast to the group and unicast to the sender (the
                // sender is not a group member).
                self.emit_nak(Dest::Receivers, p.transfer, p.expected);
                self.emit_nak(Dest::Sender, p.transfer, p.expected);
            } else {
                self.pending_nak = Some(p);
            }
        }
        if self.stall_deadline.is_some_and(|d| d <= now) {
            self.stall_deadline = None;
            if let Some((transfer, expected)) = self.stalled_target() {
                self.emit_nak(Dest::Sender, transfer, expected);
                self.rearm_stall_timer(now);
            }
        }
        if self.child_deadline.is_some_and(|d| d <= now) {
            self.evict_stalled_children(now);
        }
        if self.join_deadline.is_some_and(|d| d <= now) {
            if self.joining {
                self.send_join(now); // re-arms the retry timer
            } else {
                self.join_deadline = None;
            }
        }
        if self.giveup_deadline().is_some_and(|d| d <= now) {
            self.give_up_on_sender(now);
        }
        #[cfg(debug_assertions)]
        self.debug_audit();
    }

    fn poll_timeout(&self) -> Option<Time> {
        [
            self.pending_nak.as_ref().map(|p| p.deadline),
            self.stall_deadline,
            self.child_deadline,
            self.join_deadline,
            self.giveup_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn poll_transmit(&mut self) -> Option<Transmit> {
        let mut tx = self.out.pop_front()?;
        if self.cfg.integrity {
            tx.payload = packet::seal_in_place(tx.payload);
        }
        Some(tx)
    }

    fn poll_event(&mut self) -> Option<AppEvent> {
        self.events.pop_front()
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn set_trace_sink(&mut self, sink: Box<dyn rmtrace::TraceSink>) {
        self.tracer.set_sink(sink);
    }

    fn enable_flight_recorder(&mut self, cap: usize) {
        self.tracer.enable_flight_recorder(cap);
    }

    fn is_idle(&self) -> bool {
        self.out.is_empty()
            && self.pending_nak.is_none()
            && self.stall_deadline.is_none()
            && self.child_deadline.is_none()
            && self.join_deadline.is_none()
            && self.giveup_deadline().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeShape;
    use bytes::Bytes;

    fn cfg(kind: ProtocolKind) -> ProtocolConfig {
        let mut c = ProtocolConfig::new(kind, 100, 4);
        c.handshake = false;
        c
    }

    fn recv(cfg: ProtocolConfig, n: u16, rank: u16) -> Receiver {
        Receiver::new(cfg, GroupSpec::new(n), Rank(rank), 42)
    }

    fn data(transfer: u32, seq: u32, flags: PacketFlags, chunk: &[u8]) -> Bytes {
        packet::encode_data(Rank::SENDER, transfer, SeqNo(seq), flags, chunk)
    }

    fn drain(r: &mut Receiver) -> Vec<Transmit> {
        std::iter::from_fn(|| r.poll_transmit()).collect()
    }

    fn parse_acks(ts: &[Transmit]) -> Vec<(Dest, u32, u32)> {
        ts.iter()
            .filter_map(|t| match Packet::parse(&t.payload).unwrap() {
                Packet::Ack { header, body, .. } => {
                    Some((t.dest, header.transfer, body.next_expected.0))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ack_mode_acks_every_packet() {
        let mut r = recv(cfg(ProtocolKind::Ack), 2, 1);
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        r.handle_datagram(
            Time::ZERO,
            &data(1, 1, PacketFlags::LAST | PacketFlags::POLL, b"b"),
        );
        let acks = parse_acks(&drain(&mut r));
        assert_eq!(acks, vec![(Dest::Sender, 1, 1), (Dest::Sender, 1, 2)]);
        match r.poll_event().unwrap() {
            AppEvent::MessageDelivered { msg_id, data } => {
                assert_eq!(msg_id, 0);
                assert_eq!(&data[..], b"aab");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gbn_gap_naks_and_drops() {
        let mut r = recv(cfg(ProtocolKind::Ack), 2, 1);
        r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::EMPTY, b"bb"));
        let out = drain(&mut r);
        // Out-of-order packet: an ACK for the old cumulative point plus a
        // NAK for the missing packet.
        let naks: Vec<_> = out
            .iter()
            .filter_map(|t| match Packet::parse(&t.payload).unwrap() {
                Packet::Nak { body, .. } => Some(body.expected.0),
                _ => None,
            })
            .collect();
        assert_eq!(naks, vec![0]);
        assert_eq!(r.stats().naks_sent, 1);
        // NAK rate limiting.
        r.handle_datagram(Time::from_nanos(1), &data(1, 2, PacketFlags::EMPTY, b"cc"));
        assert_eq!(r.stats().naks_suppressed, 1);
    }

    #[test]
    fn nak_mode_acks_only_polled() {
        let mut r = recv(cfg(ProtocolKind::nak_polling(2)), 2, 1);
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        assert!(parse_acks(&drain(&mut r)).is_empty());
        r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::POLL, b"bb"));
        assert_eq!(parse_acks(&drain(&mut r)), vec![(Dest::Sender, 1, 2)]);
    }

    #[test]
    fn ring_mode_acks_token_and_last() {
        // 3 receivers; this is rank 2 (index 1): tokens are seqs 1, 4, ...
        let mut c = cfg(ProtocolKind::Ring);
        c.window = 5;
        let mut r = recv(c, 3, 2);
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        assert!(parse_acks(&drain(&mut r)).is_empty(), "not my token");
        r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::EMPTY, b"bb"));
        assert_eq!(parse_acks(&drain(&mut r)), vec![(Dest::Sender, 1, 2)]);
        r.handle_datagram(Time::ZERO, &data(1, 2, PacketFlags::LAST, b"cc"));
        // LAST: everyone acknowledges.
        assert_eq!(parse_acks(&drain(&mut r)), vec![(Dest::Sender, 1, 3)]);
    }

    #[test]
    fn ring_dup_token_reacked() {
        let mut c = cfg(ProtocolKind::Ring);
        c.window = 5;
        let mut r = recv(c, 3, 1); // tokens 0, 3, ...
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        let _ = drain(&mut r);
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::RETX, b"aa"));
        assert_eq!(parse_acks(&drain(&mut r)), vec![(Dest::Sender, 1, 1)]);
        assert_eq!(r.stats().data_discarded, 1);
    }

    #[test]
    fn tree_leaf_acks_to_parent_and_head_aggregates() {
        let kind = ProtocolKind::Tree {
            shape: TreeShape::Flat { height: 2 },
        };
        // 4 receivers, chains {1,2} and {3,4}.
        let mut head = recv(cfg(kind), 4, 1);
        let mut leaf = recv(cfg(kind), 4, 2);

        let pkt = data(1, 0, PacketFlags::LAST | PacketFlags::POLL, b"aa");
        leaf.handle_datagram(Time::ZERO, &pkt);
        let leaf_acks = parse_acks(&drain(&mut leaf));
        assert_eq!(leaf_acks, vec![(Dest::Rank(Rank(1)), 1, 1)]);

        // Head receives the data but must wait for its child.
        head.handle_datagram(Time::ZERO, &pkt);
        assert!(parse_acks(&drain(&mut head)).is_empty());
        // Child's ack arrives: now the head reports to the sender.
        let ack = packet::encode_ack(Rank(2), 1, SeqNo(1));
        head.handle_datagram(Time::ZERO, &ack);
        assert_eq!(parse_acks(&drain(&mut head)), vec![(Dest::Sender, 1, 1)]);
    }

    #[test]
    fn tree_child_ack_before_own_data() {
        let kind = ProtocolKind::Tree {
            shape: TreeShape::Flat { height: 2 },
        };
        let mut head = recv(cfg(kind), 4, 1);
        // Child ack arrives first (head's copy of the data is still in
        // flight): nothing to report yet.
        let ack = packet::encode_ack(Rank(2), 1, SeqNo(1));
        head.handle_datagram(Time::ZERO, &ack);
        assert!(parse_acks(&drain(&mut head)).is_empty());
        // Own data arrives: aggregate becomes 1.
        head.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::LAST, b"aa"));
        assert_eq!(parse_acks(&drain(&mut head)), vec![(Dest::Sender, 1, 1)]);
    }

    #[test]
    fn alloc_preallocates_and_data_fills() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = true;
        let mut r = recv(c, 1, 1);
        let alloc = packet::encode_alloc(
            Rank::SENDER,
            0,
            PacketFlags::LAST | PacketFlags::POLL,
            AllocBody {
                msg_len: 150,
                data_transfer: 1,
                packet_size: 100,
            },
        );
        r.handle_datagram(Time::ZERO, &alloc);
        assert_eq!(parse_acks(&drain(&mut r)), vec![(Dest::Sender, 0, 1)]);
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, &[9u8; 100]));
        r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::LAST, &[9u8; 50]));
        let _ = drain(&mut r);
        match r.poll_event().unwrap() {
            AppEvent::MessageDelivered { msg_id, data } => {
                assert_eq!(msg_id, 0);
                assert_eq!(data.len(), 150);
                assert!(data.iter().all(|&b| b == 9));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_alloc_reacked_not_redelivered() {
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = true;
        let mut r = recv(c, 1, 1);
        let alloc = packet::encode_alloc(
            Rank::SENDER,
            0,
            PacketFlags::LAST,
            AllocBody {
                msg_len: 10,
                data_transfer: 1,
                packet_size: 100,
            },
        );
        r.handle_datagram(Time::ZERO, &alloc);
        r.handle_datagram(Time::ZERO, &alloc);
        let acks = parse_acks(&drain(&mut r));
        assert_eq!(acks.len(), 2, "dup alloc is re-acked");
        assert_eq!(r.stats().data_discarded, 1);
        assert!(r.poll_event().is_none(), "alloc is not an app message");
    }

    #[test]
    fn receiver_multicast_nak_delays_and_suppresses() {
        let kind = ProtocolKind::NakPolling {
            poll_interval: 2,
            receiver_multicast_nak: true,
        };
        let mut r = recv(cfg(kind), 3, 1);
        // Gap: schedules a delayed NAK instead of sending.
        r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::EMPTY, b"bb"));
        assert!(drain(&mut r).is_empty());
        let deadline = r.poll_timeout().expect("NAK scheduled");
        // Overhearing another receiver's NAK for the same gap cancels ours.
        let nak = packet::encode_nak(Rank(2), 1, SeqNo(0));
        r.handle_datagram(Time::ZERO, &nak);
        assert!(r.poll_timeout().is_none());
        assert_eq!(r.stats().naks_suppressed, 1);
        // A later gap re-schedules; letting it fire emits to group+sender.
        r.handle_datagram(deadline, &data(1, 2, PacketFlags::EMPTY, b"cc"));
        let d2 = r.poll_timeout().expect("rescheduled");
        r.handle_timeout(d2);
        let out = drain(&mut r);
        let dests: Vec<_> = out.iter().map(|t| t.dest).collect();
        assert_eq!(dests, vec![Dest::Receivers, Dest::Sender]);
        assert_eq!(r.stats().naks_sent, 2);
    }

    #[test]
    fn tree_child_eviction_reroutes_ack_chain() {
        let kind = ProtocolKind::Tree {
            shape: TreeShape::Flat { height: 2 },
        };
        let mut c = cfg(kind);
        c.liveness.child_evict_timeout = Some(rmwire::Duration::from_millis(50));
        // 4 receivers, chains {1,2} and {3,4}: rank 1 aggregates rank 2.
        let mut head = recv(c, 4, 1);
        head.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::LAST, b"aa"));
        // Own progress outruns the (dead) child: no upward ack yet, but
        // the child-evict timer is armed.
        assert!(parse_acks(&drain(&mut head)).is_empty());
        assert!(matches!(
            head.poll_event(),
            Some(AppEvent::MessageDelivered { msg_id: 0, .. })
        ));
        let d = head.poll_timeout().expect("child timer armed");
        assert_eq!(d, Time::ZERO + rmwire::Duration::from_millis(50));
        head.handle_timeout(d);
        assert_eq!(
            head.poll_event(),
            Some(AppEvent::ReceiverEvicted {
                msg_id: 0,
                rank: Rank(2)
            })
        );
        // The ack chain now routes around the dead subtree: the head
        // vouches for its own copy alone.
        assert_eq!(parse_acks(&drain(&mut head)), vec![(Dest::Sender, 1, 1)]);
        assert_eq!(head.stats().evictions, 1);
        // Sticky: the next transfer never waits on the dead child.
        head.handle_datagram(d, &data(3, 0, PacketFlags::LAST, b"bb"));
        assert_eq!(parse_acks(&drain(&mut head)), vec![(Dest::Sender, 3, 1)]);
        assert!(head.poll_timeout().is_none(), "no timer for a dead child");
    }

    #[test]
    fn child_progress_pushes_evict_timer_out() {
        let kind = ProtocolKind::Tree {
            shape: TreeShape::Flat { height: 2 },
        };
        let mut c = cfg(kind);
        c.liveness.child_evict_timeout = Some(rmwire::Duration::from_millis(50));
        let mut head = recv(c, 4, 1);
        head.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        head.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::LAST, b"bb"));
        let _ = drain(&mut head);
        // The child acks packet 0 at t=40ms: alive, just slow. The timer
        // restarts instead of firing at 50ms.
        let t40 = Time::from_millis(40);
        head.handle_datagram(t40, &packet::encode_ack(Rank(2), 1, SeqNo(1)));
        let _ = drain(&mut head);
        assert_eq!(
            head.poll_timeout(),
            Some(t40 + rmwire::Duration::from_millis(50)),
            "progress re-bases the timer"
        );
        // Full catch-up disarms it.
        head.handle_datagram(t40, &packet::encode_ack(Rank(2), 1, SeqNo(2)));
        let _ = drain(&mut head);
        assert!(head.poll_timeout().is_none());
        assert_eq!(head.stats().evictions, 0);
    }

    #[test]
    fn receiver_gives_up_on_silent_sender() {
        use crate::error::SessionError;
        let mut c = cfg(ProtocolKind::Ack);
        c.liveness.receiver_giveup = Some(rmwire::Duration::from_millis(100));
        let mut r = recv(c, 1, 1);
        // One packet of an unfinished transfer, then silence.
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        let _ = drain(&mut r);
        let d = r.poll_timeout().expect("give-up timer armed");
        assert_eq!(d, Time::ZERO + rmwire::Duration::from_millis(100));
        r.handle_timeout(d);
        assert_eq!(
            r.poll_event(),
            Some(AppEvent::MessageFailed {
                msg_id: 0,
                error: SessionError::SenderStalled { transfer: 1 },
            })
        );
        assert!(r.is_idle(), "nothing left to wait for");
        assert_eq!(r.stats().messages_failed, 1);
    }

    #[test]
    fn giveup_covers_announced_but_unstarted_transfers() {
        use crate::error::SessionError;
        let mut c = cfg(ProtocolKind::Ack);
        c.handshake = true;
        c.liveness.receiver_giveup = Some(rmwire::Duration::from_millis(100));
        let mut r = recv(c, 1, 1);
        // The allocation round trip completes; the data never arrives.
        let alloc = packet::encode_alloc(
            Rank::SENDER,
            0,
            PacketFlags::LAST,
            AllocBody {
                msg_len: 100,
                data_transfer: 1,
                packet_size: 100,
            },
        );
        r.handle_datagram(Time::ZERO, &alloc);
        let _ = drain(&mut r);
        let d = r.poll_timeout().expect("give-up timer armed");
        r.handle_timeout(d);
        assert_eq!(
            r.poll_event(),
            Some(AppEvent::MessageFailed {
                msg_id: 0,
                error: SessionError::SenderStalled { transfer: 1 },
            })
        );
        assert!(r.is_idle());
    }

    #[test]
    fn old_transfer_state_pruned() {
        let mut r = recv(cfg(ProtocolKind::Ack), 1, 1);
        for t in 0..20u32 {
            r.handle_datagram(Time::ZERO, &data(2 * t + 1, 0, PacketFlags::LAST, b"x"));
        }
        assert!(r.transfers.len() <= (RETAIN_TRANSFERS as usize) + 2);
    }

    #[test]
    #[should_panic(expected = "rank 0 is the sender")]
    fn sender_rank_rejected() {
        let _ = recv(cfg(ProtocolKind::Ack), 2, 0);
    }

    // ------------------------------------------------------------------
    // Dynamic membership
    // ------------------------------------------------------------------

    use crate::config::MembershipConfig;
    use rmwire::SyncBody;

    fn mcfg(kind: ProtocolKind) -> ProtocolConfig {
        let mut c = cfg(kind);
        c.membership = MembershipConfig::enabled();
        if matches!(kind, ProtocolKind::Tree { .. }) {
            c.liveness.child_evict_timeout = Some(rmwire::Duration::from_millis(50));
        }
        c
    }

    fn sync_body(epoch: u32, next_msg: u64, flags: u32) -> SyncBody {
        SyncBody {
            epoch,
            next_msg,
            next_transfer: (next_msg as u32) * 2,
            flags,
        }
    }

    #[test]
    fn joining_receiver_discards_data_until_sync() {
        let mut r = Receiver::new_joining(
            mcfg(ProtocolKind::Ack),
            GroupSpec::new(2),
            Rank(2),
            7,
            Time::ZERO,
        );
        // The constructor queued the JOIN.
        let out = drain(&mut r);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            Packet::parse(&out[0].payload).unwrap(),
            Packet::Join { header, body } if header.src_rank == Rank(2) && body.last_epoch == 0
        ));
        // Data from the in-flight message is not ours: discarded, no ACK.
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::LAST, b"aa"));
        assert!(drain(&mut r).is_empty());
        assert_eq!(r.stats().data_discarded, 1);
        // WELCOME brings the epoch; SYNC at the boundary of message 1
        // admits us for transfers >= 2.
        r.handle_datagram(Time::ZERO, &packet::encode_welcome(Rank::SENDER, 2));
        assert_eq!(r.epoch(), 2);
        r.handle_datagram(
            Time::ZERO,
            &packet::encode_sync(Rank::SENDER, sync_body(2, 1, 0)),
        );
        assert_eq!(r.stats().joins, 1);
        assert!(r.is_idle(), "JOIN retry timer disarmed");
        // Message 1 (transfer 3) is delivered and ACKed with our epoch.
        r.handle_datagram(Time::ZERO, &data(3, 0, PacketFlags::LAST, b"bb"));
        let out = drain(&mut r);
        match Packet::parse(&out[0].payload).unwrap() {
            Packet::Ack { epoch, body, .. } => {
                assert_eq!(epoch, Some(2));
                assert_eq!(body.next_expected.0, 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(
            r.poll_event(),
            Some(AppEvent::MessageDelivered { msg_id: 1, .. })
        ));
    }

    #[test]
    fn join_retries_until_sync() {
        let mut r = Receiver::new_joining(
            mcfg(ProtocolKind::Ack),
            GroupSpec::new(2),
            Rank(2),
            7,
            Time::ZERO,
        );
        let _ = drain(&mut r);
        let d = r.poll_timeout().expect("JOIN retry armed");
        assert_eq!(d, Time::ZERO + MembershipConfig::enabled().join_retry);
        r.handle_timeout(d);
        let out = drain(&mut r);
        assert_eq!(out.len(), 1, "JOIN retransmitted");
        assert!(matches!(
            Packet::parse(&out[0].payload).unwrap(),
            Packet::Join { .. }
        ));
        r.handle_datagram(d, &packet::encode_sync(Rank::SENDER, sync_body(2, 0, 0)));
        assert!(r.poll_timeout().is_none(), "retry disarmed after SYNC");
    }

    #[test]
    fn heartbeat_reply_carries_epoch() {
        let mut r = recv(mcfg(ProtocolKind::Ack), 2, 1);
        r.handle_datagram(Time::ZERO, &packet::encode_heartbeat(Rank::SENDER, 3));
        assert_eq!(r.epoch(), 3, "announce fast-forwards the epoch");
        let out = drain(&mut r);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, Dest::Sender);
        match Packet::parse(&out[0].payload).unwrap() {
            Packet::Heartbeat { header, body } => {
                assert_eq!(header.src_rank, Rank(1));
                assert_eq!(body.epoch, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(r.stats().heartbeats_received, 1);
        assert_eq!(r.stats().heartbeats_sent, 1);
    }

    #[test]
    fn sync_detached_root_reparents_tree_node() {
        let kind = ProtocolKind::Tree {
            shape: TreeShape::Flat { height: 2 },
        };
        // 4 receivers, chains {1,2} and {3,4}: rank 2 normally acks to 1.
        let mut r = recv(mcfg(kind), 4, 2);
        r.handle_datagram(
            Time::ZERO,
            &packet::encode_sync(
                Rank::SENDER,
                SyncBody {
                    epoch: 2,
                    next_msg: 0,
                    next_transfer: 0,
                    flags: SyncBody::DETACHED_ROOT,
                },
            ),
        );
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::LAST, b"aa"));
        let acks = parse_acks(&drain(&mut r));
        assert_eq!(acks, vec![(Dest::Sender, 1, 1)], "parent link severed");
    }

    #[test]
    fn sync_abandons_preadmission_transfers() {
        let mut c = mcfg(ProtocolKind::Ack);
        c.receiver_nak_timer = Some(rmwire::Duration::from_millis(10));
        let mut r = recv(c, 1, 1);
        // An incomplete transfer, then an implicit-rejoin SYNC handing off
        // at message 2: the stale transfer fails instead of stalling.
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        let _ = drain(&mut r);
        assert!(r.poll_timeout().is_some(), "stall timer armed");
        r.handle_datagram(
            Time::ZERO,
            &packet::encode_sync(Rank::SENDER, sync_body(3, 2, 0)),
        );
        assert_eq!(
            r.poll_event(),
            Some(AppEvent::MessageFailed {
                msg_id: 0,
                error: SessionError::SenderStalled { transfer: 1 },
            })
        );
        assert_eq!(r.epoch(), 3);
        assert!(r.is_idle(), "nothing left to wait on");
        // Retransmissions of the abandoned transfer are discarded.
        r.handle_datagram(
            Time::ZERO,
            &data(1, 1, PacketFlags::LAST | PacketFlags::RETX, b"bb"),
        );
        assert!(drain(&mut r).is_empty());
    }

    #[test]
    fn leave_announces_departure() {
        let mut r = recv(mcfg(ProtocolKind::Ack), 2, 1);
        r.leave();
        let out = drain(&mut r);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            Packet::parse(&out[0].payload).unwrap(),
            Packet::Leave { header, body } if header.src_rank == Rank(1) && body.epoch == 1
        ));
    }
}
